"""Golden outputs of the command-line pipeline.

A seeded small ``movielens_shaped`` instance goes through split,
derive-thresholds, diversify (every method) and evaluate, and the sha256 of
every file written is pinned.  The ``*.log.json`` files are left out: they
carry wall times.  A change to any loader, writer, solver or metric that
moves a single byte of output fails here.
"""

import hashlib

import numpy as np

from recdiv import data
from recdiv.cli import main
from recdiv.synth import movielens_shaped

GOLDEN = {
    "folds/test_0.tsv":
        "058790f15932a8622ee659a4cd1d194e6db85435702a7f7f7bcc20b2e25d7d2e",
    "folds/test_1.tsv":
        "0cd360e60487ee6bbb79ec283e3c222d4d68f22cba905cf54d4bc7b3f75cec64",
    "folds/test_2.tsv":
        "0de962806a15bde7d6ea58c4dbeb39b800ccc3586de2445addb1bbe3cdec0842",
    "folds/train_0.tsv":
        "cfe56f5538f4635872fb8b5d968cf0e4de478650a488c67c254901c4f3daec5a",
    "folds/train_1.tsv":
        "1566d4f311f9438dd16b4b655a638e62475bfc07b401721add9af66cfc14e1f4",
    "folds/train_2.tsv":
        "17f9775e6f6cf61e13a7f9830bceabb800c05bc2c06171d005941e11853f8a00",
    "thresholds.tsv":
        "86afd344c5ae18f05dbc260b641f8fc940acd99e6305fdfc8ae08909f861d307",
    "flow.tsv":
        "d18cc63f99f4c75c80362f838556fd60efbc32b539609bcf145ffb7fb2dbcf9d",
    "flow_report.csv":
        "613c8e27cdcfe3c1c417ee5176df305e203caf6de6bf7ba40249444c1f5ec491",
    "flow_report.json":
        "6e4e83ddd714e907b01aa16b7af8f8b1d92b108b9387c7150189c8db685a2c4d",
    "greedy.tsv":
        "1f00bf68c875a4b6576b8adda4cefe603a7fa1fe05153f314a25cc9b7f7df6a6",
    "greedy_report.csv":
        "af03884c65d860005838e5aedfda68710a99b121828def4d4664d3cc2ee183a1",
    "greedy_report.json":
        "b4ff9039b9ce45fb653e93611be5e36b90549639b1c4b33dee801d7420b2742b",
    "mmr.tsv":
        "3f3653e17f3a39ee7aae4d6cc2e034e04736099d153bbcff77a4ae7b26ad390f",
    "mmr_report.csv":
        "d46a76b950c3a6e33423e20686687bdb3873127358a5df5dd7a6b5f7912cb347",
    "mmr_report.json":
        "798d99dbe6faed65a339a145d2e55d165bce7132e06eaa68253d19c12c5a527b",
    "top.tsv":
        "2202bac653d22641cab1b1e51b76c56be30fd12535bb375d741019b4d28588e9",
    "top_report.csv":
        "80346826eb53937ad11ca0a25fc345c132924e1bd6125d124bc12df0062e1068",
    "top_report.json":
        "6263ff8de5d2629d769295ba686060bb5287ec2b9398dc868746099a08293420",
    "xquad.tsv":
        "190255cab78c1554d154e171a960e1d50903f808fa5479389b0fe22260608a0c",
    "xquad_report.csv":
        "2f5064e5a735ec4a9f4f305e0929f4db825f9fe818e45a67556b4918dd1c1e52",
    "xquad_report.json":
        "1ef3c79d039cf75a92d553ecee4a28b135ffa75961a4f9bfa8b5888457bca744",
}


def _write_inputs(d):
    graph, user_types, item_cats = movielens_shaped(
        num_users=12, num_items=30, candidates_per_user=20, num_cats=5, num_types=3,
        constraint=10, overlapping_cats=False, seed=11)
    with open(d / "candidates.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for e in graph.edges:
            fh.write(f"{graph.user_ids[e.user]}\t{graph.item_ids[e.item]}\t{e.relevance!r}\n")
    data.save_grouping(item_cats, graph.item_ids, d / "categories.tsv")
    data.save_grouping(user_types, graph.user_ids, d / "types.tsv")
    rng = np.random.default_rng(5)
    with open(d / "ratings.dat", "w", encoding="utf-8", newline="\n") as fh:
        for u, uid in enumerate(graph.user_ids):
            count = int(rng.integers(6, 20))
            items = rng.choice(graph.num_items, size=count, replace=False)
            stars = rng.integers(1, 6, size=count)
            for j, r in zip(items.tolist(), stars.tolist()):
                fh.write(f"{uid}::{graph.item_ids[j]}::{r}::{978300000 + u}\n")


def test_pipeline_outputs_match_golden_hashes(tmp_path):
    d = tmp_path
    _write_inputs(d)
    graph_args = ["--candidates", str(d / "candidates.tsv"),
                  "--categories", str(d / "categories.tsv"),
                  "--types", str(d / "types.tsv"), "--constraint", "10"]
    thresholds = ["--thresholds", str(d / "thresholds.tsv")]
    assert main(["split", "--ratings", str(d / "ratings.dat"), "--output-dir", str(d / "folds"),
                 "--folds", "3", "--min-ratings", "8", "--seed", "3"]) == 0
    assert main(["derive-thresholds", *graph_args, "--train", str(d / "folds" / "train_0.tsv"),
                 "--output", str(d / "thresholds.tsv")]) == 0
    for method in ("greedy", "flow", "top", "mmr", "xquad"):
        extra = ["--lambda", "0.5"] if method in ("mmr", "xquad") else []
        assert main(["diversify", *graph_args, "--method", method, *extra, *thresholds,
                     "--beta", "4", "--mu", "0.2", "--output", str(d / f"{method}.tsv")]) == 0
        assert main(["evaluate", *graph_args, *thresholds, "--solution", str(d / f"{method}.tsv"),
                     "--test", str(d / "folds" / "test_0.tsv"), "--cutoff", "3",
                     "--beta", "4", "--mu", "0.2", "--output", str(d / f"{method}_report")]) == 0
    written = {p.relative_to(d).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in d.rglob("*") if p.is_file()}
    inputs = {"candidates.tsv", "categories.tsv", "types.tsv", "ratings.dat"}
    assert sorted(k for k in written if k not in inputs and not k.endswith(".log.json")) \
        == sorted(GOLDEN)
    assert {k: written[k] for k in GOLDEN} == GOLDEN
