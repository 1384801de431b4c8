import concurrent.futures
import csv
import hashlib
import json
import random
import weakref

import pytest

from recdiv import data as dio
from recdiv.cli import main
from recdiv.data import save_grouping
from recdiv.metrics import REPORT_FIELDS
from recdiv.synth import movielens_shaped

CANDIDATES = """\
u1\tv1\t0.9
u1\tv2\t0.8
u1\tv4\t0.3
u1\tv5\t0.2
u2\tv1\t0.7
u2\tv3\t0.6
u2\tv4\t0.5
u2\tv6\t0.1
u3\tv2\t0.6
u3\tv3\t0.4
u3\tv5\t0.35
u3\tv6\t0.3
"""

CATS = """\
v1\tA
v2\tA
v3\tA
v4\tB
v5\tB
v6\tB
"""

TYPES = """\
u1\tX
u2\tX
u3\tY
"""

TRAIN = """\
u1\tv1\t5
u1\tv4\t4
u2\tv3\t5
u2\tv4\t3
u3\tv2\t4
u3\tv6\t5
"""

TEST_RATINGS = """\
u1\tv2\t5
u1\tv5\t2
u2\tv1\t4
u3\tv3\t3
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "candidates.tsv").write_text(CANDIDATES)
    (tmp_path / "cats.tsv").write_text(CATS)
    (tmp_path / "types.tsv").write_text(TYPES)
    (tmp_path / "train.tsv").write_text(TRAIN)
    (tmp_path / "test.tsv").write_text(TEST_RATINGS)
    return tmp_path


def _diversify(workdir, method, out, extra=()):
    return main([
        "diversify",
        "--candidates", str(workdir / "candidates.tsv"),
        "--categories", str(workdir / "cats.tsv"),
        "--types", str(workdir / "types.tsv"),
        "--train", str(workdir / "train.tsv"),
        "--constraint", "2",
        "--method", method,
        "--output", str(workdir / out),
        *extra,
    ])


# ---------------------------------------------------------------------------
# split

def test_split_writes_fold_files(tmp_path):
    ratings = "".join(f"u1\tv{j}\t{3 + j % 3}\n" for j in range(8))
    ratings += "".join(f"u2\tv{j}\t3\n" for j in range(3))
    (tmp_path / "ratings.tsv").write_text(ratings)
    out = tmp_path / "folds"
    argv = [
        "split", "--ratings", str(tmp_path / "ratings.tsv"),
        "--output-dir", str(out), "--folds", "5", "--min-ratings", "5",
        "--seed", "11",
    ]
    assert main(argv) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == sorted(
        [f"train_{f}.tsv" for f in range(5)] + [f"test_{f}.tsv" for f in range(5)]
    )
    # u1 (8 > 5 ratings) is eligible; u2 never appears in a test fold
    test_users = set()
    for f in range(5):
        for line in (out / f"test_{f}.tsv").read_text().splitlines():
            test_users.add(line.split("\t")[0])
    assert test_users == {"u1"}
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_split_holds_one_fold_at_a_time(tmp_path, monkeypatch):
    """split lets go of a fold's subsets before it makes the next fold's,
    so it never holds two folds' subsets."""
    ratings = "".join(f"u{u}\tv{j}\t{1 + j % 5}\n" for u in range(3) for j in range(12))
    (tmp_path / "ratings.tsv").write_text(ratings)
    save, saved = dio.save_ratings, []

    def save_ratings(dataset, path):
        fold = path.stem.split("_")[1]
        assert [f for f, ref in saved if ref() is not None and f != fold] == []
        saved.append((fold, weakref.ref(dataset)))
        save(dataset, path)

    monkeypatch.setattr(dio, "save_ratings", save_ratings)
    assert main(["split", "--ratings", str(tmp_path / "ratings.tsv"), "--output-dir",
                 str(tmp_path / "folds"), "--folds", "4", "--min-ratings", "1"]) == 0
    assert len(saved) == 8


def test_split_single_fold_is_usage_error(tmp_path):
    (tmp_path / "r.tsv").write_text("u1\tv1\t3\n")
    code = main([
        "split", "--ratings", str(tmp_path / "r.tsv"),
        "--output-dir", str(tmp_path / "out"), "--folds", "1",
    ])
    assert code == 2


def test_missing_ratings_file_is_data_error(tmp_path):
    code = main([
        "split", "--ratings", str(tmp_path / "nope.tsv"),
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 3


# ---------------------------------------------------------------------------
# derive-thresholds

def test_derive_thresholds(workdir):
    out = workdir / "thresholds.tsv"
    code = main([
        "derive-thresholds",
        "--candidates", str(workdir / "candidates.tsv"),
        "--categories", str(workdir / "cats.tsv"),
        "--types", str(workdir / "types.tsv"),
        "--train", str(workdir / "train.tsv"),
        "--constraint", "2",
        "--output", str(out),
    ])
    assert code == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    assert all(len(r) == 4 and r[0] in ("user", "item") for r in rows)
    assert any(r[0] == "user" for r in rows)
    # each user's thresholds sum to the display constraint
    per_user = {}
    for side, eid, _gid, v in rows:
        if side == "user":
            per_user[eid] = per_user.get(eid, 0) + int(v)
    assert all(total == 2 for total in per_user.values())


def test_derived_threshold_file_bytes_are_pinned(tmp_path):
    """The bytes derive-thresholds writes for a fixed instance and fold,
    recorded when each side was a dict of its positive shares: 16 user rows
    (overlapping categories) and 10 item rows (a budget of 2 per item)."""
    graph, ut, ic = movielens_shaped(num_users=8, num_items=5, candidates_per_user=5,
                                     num_cats=3, num_types=2, seed=3)
    users, items = graph.edge_user.tolist(), graph.edge_item.tolist()
    with open(tmp_path / "candidates.tsv", "w", encoding="utf-8") as fh:
        for u, j, rel in zip(users, items, graph.edge_rel.tolist()):
            fh.write(f"{graph.user_ids[u]}\t{graph.item_ids[j]}\t{rel!r}\n")
    with open(tmp_path / "train.tsv", "w", encoding="utf-8") as fh:
        for e in range(0, graph.num_edges, 2):
            fh.write(f"{graph.user_ids[users[e]]}\t{graph.item_ids[items[e]]}\t{e % 5 + 1}\n")
    save_grouping(ic, graph.item_ids, tmp_path / "cats.tsv")
    save_grouping(ut, graph.user_ids, tmp_path / "types.tsv")
    out = tmp_path / "thresholds.tsv"
    assert main(["derive-thresholds", "--candidates", str(tmp_path / "candidates.tsv"),
                 "--categories", str(tmp_path / "cats.tsv"),
                 "--types", str(tmp_path / "types.tsv"), "--train", str(tmp_path / "train.tsv"),
                 "--constraint", "5", "--output", str(out)]) == 0
    written = out.read_bytes()
    assert written.startswith(b"user\tu0\tC2\t3\nuser\tu0\tC0\t4\n")
    assert written.endswith(b"item\tv4\tT1\t1\nitem\tv4\tT0\t1\n")
    sides = [row.split(b"\t")[0] for row in written.splitlines()]
    assert sides == [b"user"] * 16 + [b"item"] * 10 and len(written) == 338
    assert hashlib.sha256(written).hexdigest() == (
        "898dfc2a18847f1a93991426dbcdeedb39cca13736573bf6fc4c890efbe08a28")


def test_derive_thresholds_ignores_a_config_thresholds_file(workdir):
    """derive-thresholds defines no --thresholds, so a shared config's
    thresholds file does not replace the derived table."""
    assert _derive(workdir, "plain.tsv") == 0
    (workdir / "mine.tsv").write_text("user\tu1\tA\t7\n")
    (workdir / "config.json").write_text(json.dumps({"thresholds": str(workdir / "mine.tsv")}))
    assert main(["--config", str(workdir / "config.json"), "derive-thresholds",
                 *_graph_args(workdir), "--output", str(workdir / "config.tsv")]) == 0
    assert (workdir / "config.tsv").read_bytes() == (workdir / "plain.tsv").read_bytes()


def test_derive_thresholds_with_thresholds_flag_is_usage_error(tmp_path, capsys):
    _usage_error_before_reading(capsys, [
        "derive-thresholds", *_missing_inputs(tmp_path), "--thresholds", "mine.tsv",
        "--output", str(tmp_path / "th.tsv")], "--thresholds")


# ---------------------------------------------------------------------------
# diversify

def test_diversify_top_matches_top_k(workdir):
    assert _diversify(workdir, "top", "top.tsv") == 0
    lines = (workdir / "top.tsv").read_text().splitlines()
    got = {}
    for line in lines:
        user, item, _rel, method = line.split("\t")
        assert method == "top"
        got.setdefault(user, []).append(item)
    assert got == {"u1": ["v1", "v2"], "u2": ["v1", "v3"], "u3": ["v2", "v3"]}


def test_diversify_log_decomposition(workdir):
    assert _diversify(workdir, "greedy", "g.tsv",
                      ["--beta", "2.0", "--mu", "0.5"]) == 0
    log = json.loads((workdir / "g.tsv.log.json").read_text())
    assert log["method"] == "greedy"
    expected = log["rel"] + 2.0 * log["tudiv"] + 0.5 * log["tidiv"]
    assert abs(log["objective"] - expected) <= 1e-9
    assert log["selected"] == 6


def test_flow_objective_at_least_greedy(workdir):
    for method in ("greedy", "flow"):
        assert _diversify(workdir, method, f"{method}.tsv",
                          ["--beta", "1.0", "--mu", "1.0"]) == 0
    greedy = json.loads((workdir / "greedy.tsv.log.json").read_text())
    flow = json.loads((workdir / "flow.tsv.log.json").read_text())
    assert flow["objective"] >= greedy["objective"] - 1e-4


def test_flow_zero_params_matches_top_objective(workdir):
    assert _diversify(workdir, "top", "t.tsv", ["--beta", "0", "--mu", "0"]) == 0
    assert _diversify(workdir, "flow", "f.tsv", ["--beta", "0", "--mu", "0"]) == 0
    top = json.loads((workdir / "t.tsv.log.json").read_text())
    flow = json.loads((workdir / "f.tsv.log.json").read_text())
    assert flow["objective"] == pytest.approx(top["objective"], abs=1e-4)


def test_diversify_rerun_byte_identical(workdir):
    _diversify(workdir, "greedy", "a.tsv")
    _diversify(workdir, "greedy", "b.tsv")
    assert (workdir / "a.tsv").read_bytes() == (workdir / "b.tsv").read_bytes()


def test_mmr_requires_lambda(workdir):
    assert _diversify(workdir, "mmr", "m.tsv") == 2
    assert _diversify(workdir, "mmr", "m.tsv", ["--lambda", "0.5"]) == 0
    assert _diversify(workdir, "xquad", "x.tsv", ["--lambda", "0.5"]) == 0


def test_flow_requires_disjoint_groupings(workdir, capsys):
    (workdir / "cats.tsv").write_text("v1\tA|B\nv2\tA\nv3\tA\nv4\tB\nv5\tB\nv6\tB\n")
    # diversify and gridsearch report the fault alike
    message = "item grouping must be disjoint for the flow reduction"
    _assert_data_error(capsys, _diversify(workdir, "flow", "f.tsv"), message)
    code = main(["gridsearch", *_graph_args(workdir), "--method", "flow",
                 "--output", str(workdir / "grid.csv")])
    _assert_data_error(capsys, code, message)
    assert _diversify(workdir, "greedy", "g.tsv") == 0


def test_solver_without_thresholds_or_train_is_usage_error(workdir, capsys):
    code = main(["diversify", "--candidates", str(workdir / "candidates.tsv"),
                 "--categories", str(workdir / "cats.tsv"),
                 "--types", str(workdir / "types.tsv"),
                 "--method", "greedy", "--output", str(workdir / "g.tsv")])
    _assert_usage_error(capsys, code, "either --thresholds or --train is required")


# ---------------------------------------------------------------------------
# evaluate

def _evaluate(workdir, solution, out, extra=()):
    return main([
        "evaluate",
        "--candidates", str(workdir / "candidates.tsv"),
        "--constraint", "2",
        "--solution", str(workdir / solution),
        "--output", str(workdir / out),
        *extra,
    ])


def test_evaluate_full_report(workdir):
    _diversify(workdir, "top", "top.tsv")
    main([
        "derive-thresholds",
        "--candidates", str(workdir / "candidates.tsv"),
        "--categories", str(workdir / "cats.tsv"),
        "--types", str(workdir / "types.tsv"),
        "--train", str(workdir / "train.tsv"),
        "--constraint", "2",
        "--output", str(workdir / "th.tsv"),
    ])
    code = _evaluate(workdir, "top.tsv", "rep", [
        "--categories", str(workdir / "cats.tsv"),
        "--types", str(workdir / "types.tsv"),
        "--thresholds", str(workdir / "th.tsv"),
        "--test", str(workdir / "test.tsv"),
        "--cutoff", "10",
    ])
    assert code == 0
    payload = json.loads((workdir / "rep.json").read_text())
    for field in ("precision", "err_ia", "ild", "tudiv", "tidiv", "userdiv",
                  "itemdiv", "div", "aggregate_diversity", "gini",
                  "relevance_sum"):
        assert payload[field] is not None, field
    # u1's list [v1, v2]; test-relevant {v2}: 1/2; u2: {v1}: 1/2; u3: {v3}: 1/2
    assert payload["precision"] == pytest.approx(0.5)
    csv_lines = (workdir / "rep.csv").read_text().splitlines()
    assert len(csv_lines) == 2
    assert csv_lines[0].startswith("cutoff,precision")


def test_relevance_cutoff_sets_which_test_ratings_count(workdir):
    # top lists: u1 [v1, v2], u2 [v1, v3], u3 [v2, v3]; u3 rated v3 a 3
    _diversify(workdir, "top", "top.tsv")
    precision = {}
    for cutoff in ("3", "4"):
        assert _evaluate(workdir, "top.tsv", f"rep{cutoff}", [
            "--test", str(workdir / "test.tsv"), "--relevance-cutoff", cutoff,
        ]) == 0
        precision[cutoff] = json.loads((workdir / f"rep{cutoff}.json").read_text())["precision"]
    assert precision["3"] == pytest.approx(1 / 2)
    assert precision["4"] == pytest.approx(1 / 3)


def test_evaluate_without_groupings_leaves_fields_absent(workdir):
    _diversify(workdir, "top", "top.tsv")
    assert _evaluate(workdir, "top.tsv", "rep") == 0
    payload = json.loads((workdir / "rep.json").read_text())
    assert payload["ild"] is None and payload["tudiv"] is None
    assert payload["gini"] is not None
    assert payload["aggregate_diversity"] is not None


def test_evaluate_report_files_read_back(workdir):
    """evaluate's .json and .csv read back with json and csv to the same
    values: an absent metric is null in one and an empty cell in the other."""
    _diversify(workdir, "top", "top.tsv")
    assert _evaluate(workdir, "top.tsv", "rep", [
        "--test", str(workdir / "test.tsv"), "--cutoff", "10"]) == 0
    payload = json.loads((workdir / "rep.json").read_text())
    assert list(payload) == sorted(["cutoff", *REPORT_FIELDS])
    assert b"\r" not in (workdir / "rep.csv").read_bytes()
    with open(workdir / "rep.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert header == ["cutoff", *REPORT_FIELDS]
    assert row == ["" if payload[f] is None else str(payload[f]) for f in header]
    assert (payload["cutoff"], payload["precision"], payload["ild"]) == (10, 0.5, None)


def test_evaluate_unknown_solution_edge_is_error(workdir):
    (workdir / "bad.tsv").write_text("u1\tv999\t0.5\ttop\n")
    assert _evaluate(workdir, "bad.tsv", "rep") == 3


# ---------------------------------------------------------------------------
# gridsearch / report

def test_gridsearch_rows_and_flags(workdir):
    out = workdir / "grid.csv"
    code = main([
        "gridsearch",
        "--candidates", str(workdir / "candidates.tsv"),
        "--categories", str(workdir / "cats.tsv"),
        "--types", str(workdir / "types.tsv"),
        "--train", str(workdir / "train.tsv"),
        "--constraint", "2",
        "--method", "greedy",
        "--beta-grid", "0,1",
        "--mu-grid", "0,1",
        "--output", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    flags = [r["flag"] for r in rows if r["flag"]]
    assert any("max_tudiv" in f for f in flags)
    assert any("max_tidiv" in f for f in flags)
    settings = {(r["beta"], r["mu"]) for r in rows}
    assert settings == {("0.0", "0.0"), ("0.0", "1.0"), ("1.0", "0.0"), ("1.0", "1.0")}


def test_gridsearch_lambda_grid_parallel(workdir):
    out = workdir / "grid.csv"
    code = main([
        "gridsearch",
        "--candidates", str(workdir / "candidates.tsv"),
        "--categories", str(workdir / "cats.tsv"),
        "--types", str(workdir / "types.tsv"),
        "--constraint", "2",
        "--method", "mmr",
        "--lambda-grid", "0,0.5,1",
        "--jobs", "2",
        "--output", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["lambda"] for r in rows] == ["0.0", "0.5", "1.0"]


def test_gridsearch_scores_rerankers_with_the_given_weights(workdir):
    """A reranker grid row scores its solution with --beta and --mu, as
    diversify logs it and evaluate reports it."""
    assert _derive(workdir) == 0
    weights = ["--beta", "4", "--mu", "1", "--thresholds", str(workdir / "th.tsv")]
    assert main(["gridsearch", *_graph_args(workdir), "--method", "mmr", "--lambda-grid", "0.5",
                 *weights, "--output", str(workdir / "grid.csv")]) == 0
    assert _diversify(workdir, "mmr", "mmr.tsv", ["--lambda", "0.5", *weights]) == 0
    assert _evaluate(workdir, "mmr.tsv", "rep", [
        "--categories", str(workdir / "cats.tsv"), "--types", str(workdir / "types.tsv"),
        *weights]) == 0
    with open(workdir / "grid.csv") as fh:
        (row,) = csv.DictReader(fh)
    log = json.loads((workdir / "mmr.tsv.log.json").read_text())
    report = json.loads((workdir / "rep.json").read_text())
    assert (row["beta"], row["mu"]) == ("4.0", "1.0")
    assert float(row["objective"]) == log["objective"]
    assert float(row["div"]) == report["div"]


def test_report_merges_json(workdir):
    _diversify(workdir, "top", "top.tsv")
    _evaluate(workdir, "top.tsv", "rep1")
    _evaluate(workdir, "top.tsv", "rep2")
    out = workdir / "merged.csv"
    code = main([
        "report",
        "--inputs", str(workdir / "rep1.json"), str(workdir / "rep2.json"),
        "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("source,cutoff")


def test_report_quotes_cells_that_hold_a_comma_or_a_quote(workdir):
    """A source named a,b.json and a string value holding a comma and a
    quote each stay one cell, so every row is as wide as the header."""
    _diversify(workdir, "top", "top.tsv")
    assert _evaluate(workdir, "top.tsv", "rep") == 0
    payload = json.loads((workdir / "rep.json").read_text())
    payloads = {"rep.json": payload, "a,b.json": dict(payload, err_ia='x, "y"')}
    (workdir / "a,b.json").write_text(json.dumps(payloads["a,b.json"]))
    out = workdir / "merged.csv"
    assert main(["report", "--inputs", *(str(workdir / name) for name in payloads),
                 "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["source", "cutoff", *REPORT_FIELDS]
    assert [len(row) for row in rows] == [len(header)] * 2
    for (source, values), row in zip(payloads.items(), rows):
        values = dict(values, source=source)
        assert row == ["" if values[f] is None else str(values[f]) for f in header]


def test_report_of_a_json_array_is_data_error(workdir, capsys):
    (workdir / "rep.json").write_text("[1, 2]")
    code = main(["report", "--inputs", str(workdir / "rep.json"),
                 "--output", str(workdir / "merged.csv")])
    _assert_data_error(capsys, code, "expected a JSON object")


# ---------------------------------------------------------------------------
# config file

def test_config_defaults_and_flag_override(workdir):
    config = workdir / "config.json"
    config.write_text(json.dumps({"constraint": 1, "beta": 3.0}))
    code = main([
        "--config", str(config),
        "diversify",
        "--candidates", str(workdir / "candidates.tsv"),
        "--categories", str(workdir / "cats.tsv"),
        "--types", str(workdir / "types.tsv"),
        "--train", str(workdir / "train.tsv"),
        "--method", "greedy",
        "--mu", "0.25",  # explicit flag survives the config
        "--output", str(workdir / "c.tsv"),
    ])
    assert code == 0
    log = json.loads((workdir / "c.tsv.log.json").read_text())
    assert log["beta"] == 3.0  # from config
    assert log["mu"] == 0.25  # from flag
    assert log["selected"] == 3  # constraint 1 from config


def test_config_invalid_json_is_data_error(workdir):
    config = workdir / "config.json"
    config.write_text("not json")
    code = main([
        "--config", str(config),
        "diversify",
        "--candidates", str(workdir / "candidates.tsv"),
        "--categories", str(workdir / "cats.tsv"),
        "--types", str(workdir / "types.tsv"),
        "--method", "top",
        "--output", str(workdir / "c.tsv"),
    ])
    assert code == 3


def test_config_json_array_is_data_error(workdir, capsys):
    config = workdir / "config.json"
    config.write_text('["constraint", 1]')
    code = main(["--config", str(config), "diversify", *_graph_args(workdir),
                 "--method", "top", "--output", str(workdir / "c.tsv")])
    _assert_data_error(capsys, code, "config file must contain a JSON object")


# ---------------------------------------------------------------------------
# malformed inputs end in exit 2 or 3 with one error line, never a traceback

def _graph_args(workdir):
    return [
        "--candidates", str(workdir / "candidates.tsv"),
        "--categories", str(workdir / "cats.tsv"),
        "--types", str(workdir / "types.tsv"),
        "--train", str(workdir / "train.tsv"),
        "--constraint", "2",
    ]


def _assert_data_error(capsys, code, where):
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err


def test_threshold_file_non_integer_value_is_data_error(workdir, capsys):
    (workdir / "th.tsv").write_text("user\tu1\tA\t1\nuser\tu2\tA\t1.5\n")
    code = _diversify(workdir, "greedy", "g.tsv", ["--thresholds", str(workdir / "th.tsv")])
    _assert_data_error(capsys, code, "th.tsv:2")


@pytest.mark.parametrize("bad_line", ["u2 1", "u2\tmany"])
def test_constraint_file_malformed_line_is_data_error(workdir, capsys, bad_line):
    (workdir / "c.tsv").write_text(f"u1\t2\n{bad_line}\nu3\t1\n")
    code = _diversify(workdir, "top", "t.tsv", ["--constraint-file", str(workdir / "c.tsv")])
    _assert_data_error(capsys, code, "c.tsv:2")


def test_constraint_file_repeated_user_is_data_error(workdir, capsys):
    (workdir / "c.tsv").write_text("u1\t3\nu2\t2\nu1\t1\n")
    code = _diversify(workdir, "top", "t.tsv", ["--constraint-file", str(workdir / "c.tsv")])
    _assert_data_error(capsys, code, "c.tsv:3: user u1 listed twice")
    assert not (workdir / "t.tsv").exists()


def test_threshold_file_repeated_row_is_data_error(workdir, capsys):
    (workdir / "th.tsv").write_text("user\tu1\tA\t2\nuser\tu2\tA\t1\nuser\tu1\tA\t0\n")
    code = _diversify(workdir, "greedy", "g.tsv", ["--thresholds", str(workdir / "th.tsv")])
    _assert_data_error(capsys, code, "th.tsv:3: user u1 group A listed twice")


def test_constraint_file_sets_per_user_constraints(workdir):
    (workdir / "c.tsv").write_text("u1\t1\nu2\t3\n")
    assert _diversify(workdir, "top", "t.tsv",
                      ["--constraint-file", str(workdir / "c.tsv")]) == 0
    users = [line.split("\t")[0] for line in (workdir / "t.tsv").read_text().splitlines()]
    assert users == ["u1", "u2", "u2", "u2"]  # u3 has no constraint and is skipped


def test_evaluate_solution_non_number_relevance_is_data_error(workdir, capsys):
    (workdir / "sol.tsv").write_text("u1\tv1\t0.9\ttop\nu1\tv2\thigh\ttop\n")
    code = _evaluate(workdir, "sol.tsv", "rep")
    _assert_data_error(capsys, code, "sol.tsv:2")


def test_candidates_nan_relevance_is_data_error(workdir, capsys):
    (workdir / "candidates.tsv").write_text(CANDIDATES + "u3\tv1\tnan\n")
    code = _diversify(workdir, "top", "t.tsv")
    _assert_data_error(capsys, code, "candidates.tsv:13")


def _diversify_with_config(workdir, config, extra=()):
    (workdir / "config.json").write_text(json.dumps(config))
    return main([
        "--config", str(workdir / "config.json"), "diversify", *_graph_args(workdir),
        "--method", "greedy", *extra, "--output", str(workdir / "c.tsv"),
    ])


def test_config_string_value_is_converted_by_option_type(workdir):
    assert _diversify_with_config(workdir, {"beta": "4"}) == 0
    log = json.loads((workdir / "c.tsv.log.json").read_text())
    assert log["beta"] == 4.0
    with pytest.raises(SystemExit) as exc:
        _diversify_with_config(workdir, {"beta": "four"})
    assert exc.value.code == 2


def test_config_never_beats_explicit_flag_equal_to_default(workdir):
    assert _diversify_with_config(workdir, {"beta": 4}, ["--beta", "1.0"]) == 0
    log = json.loads((workdir / "c.tsv.log.json").read_text())
    assert log["beta"] == 1.0


def test_config_ignores_keys_the_subcommand_does_not_define(workdir):
    config = {"func": "x", "command": "x", "config": "x", "folds": 3, "mu": 0.5}
    assert _diversify_with_config(workdir, config) == 0
    log = json.loads((workdir / "c.tsv.log.json").read_text())
    assert log["mu"] == 0.5


@pytest.mark.parametrize("grid", ["", ",", "0,x"])
def test_gridsearch_rejects_empty_or_non_numeric_grid(workdir, grid):
    with pytest.raises(SystemExit) as exc:
        main(["gridsearch", *_graph_args(workdir), "--method", "greedy",
              "--beta-grid", grid, "--output", str(workdir / "grid.csv")])
    assert exc.value.code == 2


def test_gridsearch_without_groupings_is_usage_error(workdir, capsys):
    code = main(["gridsearch", "--candidates", str(workdir / "candidates.tsv"),
                 "--method", "top", "--output", str(workdir / "grid.csv")])
    _assert_usage_error(capsys, code, "--categories and --types are required")


def _assert_usage_error(capsys, code, message):
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


GROUPINGS_REQUIRED = "--categories and --types are required"
THRESHOLDS_REQUIRED = "either --thresholds or --train is required"


@pytest.mark.parametrize("command, options, message", [
    ("derive-thresholds", ["--train"], GROUPINGS_REQUIRED),
    ("derive-thresholds", ["--train", "--types"], GROUPINGS_REQUIRED),
    ("diversify", ["--train", "--categories"], GROUPINGS_REQUIRED),
    ("gridsearch", ["--thresholds"], GROUPINGS_REQUIRED),
    ("diversify", ["--categories", "--types"], THRESHOLDS_REQUIRED),
    ("gridsearch", ["--categories", "--types"], THRESHOLDS_REQUIRED),
    ("evaluate", ["--solution", "--thresholds"],
     "--thresholds requires --categories and --types"),
    ("evaluate", ["--solution", "--thresholds", "--categories"],
     "--thresholds requires --categories and --types"),
], ids=["derive-no-groupings", "derive-one-grouping", "diversify-one-grouping",
        "gridsearch-no-groupings", "diversify-no-thresholds", "gridsearch-no-thresholds",
        "evaluate-no-groupings", "evaluate-one-grouping"])
def test_missing_option_is_usage_error_before_reading_files(tmp_path, capsys, command,
                                                            options, message):
    """argv names only missing files, so reading any of them would exit 3."""
    missing = str(tmp_path / "missing.tsv")
    argv = [command, "--candidates", missing, "--output", str(tmp_path / "out")]
    for option in options:
        argv += [option, missing]
    if command in ("diversify", "gridsearch"):
        argv += ["--method", "greedy"]
    _assert_usage_error(capsys, main(argv), message)


@pytest.mark.parametrize("method", ["flow", "greedy"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_cost_scale_below_one_is_usage_error_before_reading_files(tmp_path, capsys,
                                                                   method, value):
    missing = str(tmp_path / "missing.tsv")
    with pytest.raises(SystemExit) as exc:
        main(["diversify", "--candidates", missing, "--categories", missing,
              "--types", missing, "--constraint", "2", "--method", method,
              "--cost-scale", value, "--output", str(tmp_path / "out.tsv")])
    assert exc.value.code == 2
    assert "--cost-scale" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_gridsearch_jobs_below_one_is_usage_error(workdir, value):
    with pytest.raises(SystemExit) as exc:
        main(["gridsearch", *_graph_args(workdir), "--method", "greedy",
              "--jobs", value, "--output", str(workdir / "grid.csv")])
    assert exc.value.code == 2


def test_gridsearch_pool_is_capped_at_the_grid_size(workdir, monkeypatch):
    sizes = []

    class SerialExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    code = main(["gridsearch", *_graph_args(workdir), "--method", "greedy",
                 "--beta-grid", "0,1", "--mu-grid", "0,1", "--jobs", "500",
                 "--output", str(workdir / "grid.csv")])
    assert code == 0
    assert sizes == [4]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_top_n_and_cutoff_below_one_are_usage_errors(workdir, value):
    _diversify(workdir, "top", "top.tsv")
    for run in (lambda: _diversify(workdir, "top", "t.tsv", ["--top-n", value]),
                lambda: _evaluate(workdir, "top.tsv", "rep", ["--cutoff", value])):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2


def _mutate(rng, text):
    """``text`` with one random defect: a field dropped, added or made
    non-numeric, a line or the whole file emptied, or invalid UTF-8."""
    lines = text.splitlines()
    kind = rng.choice(["drop", "add", "non-number", "empty-line", "empty-file", "bytes"])
    if kind == "empty-file" or not lines:
        return b""
    i = rng.randrange(len(lines))
    fields = lines[i].split("\t")
    if kind == "drop":
        fields.pop(rng.randrange(len(fields)))
    elif kind == "add":
        fields.insert(rng.randrange(len(fields) + 1), rng.choice(["x", "7", ""]))
    elif kind == "non-number":
        fields[rng.randrange(len(fields))] = rng.choice(["x", "nan", "inf", "-1", "1.5", ""])
    elif kind == "empty-line":
        fields = [""]
    lines[i] = "\t".join(fields)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if kind == "bytes":
        at = rng.randrange(len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return data


def _random_config(rng):
    key = rng.choice(["beta", "mu", "constraint", "top_n", "top-n", "lam", "cutoff",
                      "cost_scale", "beta_grid", "thresholds", "func", "command", "zzz"])
    value = rng.choice(["x", "4", 4, -1, 0, 1.5, None, True, [1], {"a": 1}, "", "nan"])
    return json.dumps({key: value}).encode("utf-8")


def test_fuzz_malformed_inputs_exit_cleanly(workdir, capsys):
    """Seeded fuzz over every loader and subcommand: each mutated input file
    ends with exit 0, 2, 3 or 4 and no traceback."""
    w = workdir
    (w / "ratings.tsv").write_text(TRAIN + TEST_RATINGS)
    (w / "constraints.tsv").write_text("u1\t2\nu2\t2\nu3\t2\n")
    (w / "config.json").write_text('{"beta": 2.0}')
    graph = _graph_args(w)
    assert main(["derive-thresholds", *graph, "--output", str(w / "th.tsv")]) == 0
    assert _diversify(w, "top", "sol.tsv") == 0
    assert _evaluate(w, "sol.tsv", "rep") == 0
    out = str(w / "fuzz_out")
    commands = [
        ["split", "--ratings", str(w / "ratings.tsv"), "--output-dir", str(w / "folds"),
         "--folds", "2", "--min-ratings", "1"],
        ["derive-thresholds", *graph, "--constraint-file", str(w / "constraints.tsv"),
         "--output", out],
        ["--config", str(w / "config.json"), "diversify", *graph, "--method", "greedy",
         "--thresholds", str(w / "th.tsv"), "--output", out],
        ["diversify", *graph, "--method", "flow", "--output", out],
        ["diversify", *graph, "--method", "mmr", "--lambda", "0.5", "--output", out],
        ["--config", str(w / "config.json"), "evaluate", *graph[:6],
         "--constraint-file", str(w / "constraints.tsv"), "--solution", str(w / "sol.tsv"),
         "--thresholds", str(w / "th.tsv"), "--test", str(w / "test.tsv"), "--output", out],
        ["gridsearch", *graph, "--method", "greedy", "--output", out],
        ["report", "--inputs", str(w / "rep.json"), "--output", out],
    ]
    assert [main(argv) for argv in commands] == [0] * len(commands)
    capsys.readouterr()
    inputs = ["ratings.tsv", "candidates.tsv", "cats.tsv", "types.tsv", "train.tsv",
              "test.tsv", "constraints.tsv", "config.json", "th.tsv", "sol.tsv", "rep.json"]
    pristine = {name: (w / name).read_bytes() for name in inputs}
    rng = random.Random(20241018)
    for _ in range(200):
        name = rng.choice(sorted(pristine))
        path = w / name
        path.write_bytes(
            _random_config(rng) if name == "config.json" else _mutate(rng, path.read_text())
        )
        for argv in (a for a in commands if str(path) in a):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), (name, path.read_bytes(), argv)
            assert "Traceback" not in err, (name, path.read_bytes(), err)
        path.write_bytes(pristine[name])


# ---------------------------------------------------------------------------
# thresholds for rerankers, semantic loader errors, skipped rows


def _derive(workdir, out="th.tsv"):
    return main(["derive-thresholds", *_graph_args(workdir), "--output", str(workdir / out)])


def test_reranker_log_scores_the_given_thresholds(workdir):
    assert _derive(workdir) == 0
    th = ["--thresholds", str(workdir / "th.tsv")]
    assert _diversify(workdir, "top", "top.tsv", th) == 0
    assert _evaluate(workdir, "top.tsv", "rep", [
        "--categories", str(workdir / "cats.tsv"), "--types", str(workdir / "types.tsv"), *th,
    ]) == 0
    log = json.loads((workdir / "top.tsv.log.json").read_text())
    report = json.loads((workdir / "rep.json").read_text())
    assert report["tudiv"] == 3.0
    assert (log["tudiv"], log["tidiv"]) == (report["tudiv"], report["tidiv"])
    assert log["objective"] == log["rel"] + log["tudiv"] + log["tidiv"]


def test_reranker_without_thresholds_scores_no_diversity(workdir):
    assert _diversify(workdir, "top", "top.tsv") == 0
    log = json.loads((workdir / "top.tsv.log.json").read_text())
    assert (log["tudiv"], log["tidiv"]) == (0.0, 0.0)


def test_negative_threshold_is_data_error_with_line(workdir, capsys):
    (workdir / "th.tsv").write_text("user\tu1\tA\t1\nuser\tu2\tA\t-1\n")
    code = _diversify(workdir, "greedy", "g.tsv", ["--thresholds", str(workdir / "th.tsv")])
    _assert_data_error(capsys, code, "th.tsv:2")


def test_constraint_below_one_is_data_error_with_line(workdir, capsys):
    (workdir / "c.tsv").write_text("u1\t2\nu2\t0\nu3\t1\n")
    code = _diversify(workdir, "top", "t.tsv", ["--constraint-file", str(workdir / "c.tsv")])
    _assert_data_error(capsys, code, "c.tsv:2")


def test_skipped_rows_are_reported(workdir, capsys):
    (workdir / "c.tsv").write_text("u1\t1\nu2\t3\n")
    capsys.readouterr()
    assert _diversify(workdir, "greedy", "g.tsv",
                      ["--constraint-file", str(workdir / "c.tsv")]) == 0
    err = capsys.readouterr().err.splitlines()
    candidates, types = str(workdir / "candidates.tsv"), str(workdir / "types.tsv")
    assert err == [
        f"warning: {candidates}: 4 rows skipped (user not in --constraint-file)",
        f"warning: {types}: 1 rows skipped (user not in the candidates)",
    ]
    log = json.loads((workdir / "g.tsv.log.json").read_text())
    assert log["skipped_rows"] == {"candidates": 4, "categories": 0, "types": 1}
    assert _diversify(workdir, "greedy", "h.tsv") == 0
    assert capsys.readouterr().err == ""
    log = json.loads((workdir / "h.tsv.log.json").read_text())
    assert log["skipped_rows"] == {"candidates": 0, "categories": 0, "types": 0}


def _usage_error_before_reading(capsys, argv, option):
    """argv names only missing files, so reading any of them would exit 3."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


def _missing_inputs(tmp_path):
    missing = str(tmp_path / "missing.tsv")
    return ["--candidates", missing, "--categories", missing, "--types", missing,
            "--train", missing]


@pytest.mark.parametrize("command", ["diversify", "gridsearch"])
@pytest.mark.parametrize("option, value", [("--beta", "-1"), ("--beta", "nan"),
                                           ("--mu", "inf")])
def test_bad_weight_is_usage_error_before_reading_files(tmp_path, capsys, command,
                                                        option, value):
    _usage_error_before_reading(capsys, [
        command, *_missing_inputs(tmp_path), "--method", "greedy", option, value,
        "--output", str(tmp_path / "out.tsv")], option)


@pytest.mark.parametrize("method", ["mmr", "xquad"])
@pytest.mark.parametrize("value", ["2", "nan"])
def test_lambda_outside_unit_interval_is_usage_error_before_reading_files(
        tmp_path, capsys, method, value):
    _usage_error_before_reading(capsys, [
        "diversify", *_missing_inputs(tmp_path), "--method", method, "--lambda", value,
        "--output", str(tmp_path / "out.tsv")], "--lambda")


@pytest.mark.parametrize("method", ["mmr", "xquad"])
def test_missing_lambda_is_usage_error_before_reading_files(tmp_path, capsys, method):
    code = main(["diversify", *_missing_inputs(tmp_path), "--method", method,
                 "--output", str(tmp_path / "out.tsv")])
    assert code == 2
    assert "--lambda is required" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--beta-grid", "0,-1"), ("--mu-grid", "1,inf"),
                                           ("--lambda-grid", "0,2")])
def test_bad_grid_value_is_usage_error_before_reading_files(tmp_path, capsys, option, value):
    _usage_error_before_reading(capsys, [
        "gridsearch", *_missing_inputs(tmp_path), "--method", "greedy", option, value,
        "--output", str(tmp_path / "grid.csv")], option)


@pytest.mark.parametrize("value", ["0", "-2"])
def test_constraint_below_one_is_usage_error_before_reading_files(tmp_path, capsys, value):
    _usage_error_before_reading(capsys, [
        "diversify", *_missing_inputs(tmp_path), "--method", "top", "--constraint", value,
        "--output", str(tmp_path / "out.tsv")], "--constraint")


def test_split_min_ratings_below_one_is_usage_error_before_reading_files(tmp_path, capsys):
    code = main(["split", "--ratings", str(tmp_path / "missing.tsv"),
                 "--output-dir", str(tmp_path / "out"), "--min-ratings", "-5"])
    assert code == 2
    assert "min_ratings" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_repeated_solution_row_is_data_error_with_line(workdir, capsys):
    (workdir / "sol.tsv").write_text("u1\tv1\t0.9\ttop\nu2\tv1\t0.7\ttop\nu1\tv1\t0.9\ttop\n")
    code = _evaluate(workdir, "sol.tsv", "rep")
    _assert_data_error(capsys, code, "sol.tsv:3: user u1 item v1")


def test_evaluate_non_candidate_solution_row_is_data_error_with_line(workdir, capsys):
    (workdir / "sol.tsv").write_text("u1\tv1\t0.9\ttop\nu9\tv1\t0.5\ttop\n")
    code = _evaluate(workdir, "sol.tsv", "rep")
    _assert_data_error(capsys, code, "sol.tsv:2: user u9 item v1 is not a candidate edge")
    assert not (workdir / "rep.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_evaluate_relevance_cutoff_not_finite_is_usage_error_before_reading_files(
        tmp_path, capsys, value):
    missing = str(tmp_path / "missing.tsv")
    _usage_error_before_reading(capsys, [
        "evaluate", "--candidates", missing, "--solution", missing, "--test", missing,
        "--relevance-cutoff", value, "--output", str(tmp_path / "rep")], "--relevance-cutoff")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_gridsearch_relevance_cutoff_not_finite_is_usage_error_before_reading_files(
        tmp_path, capsys, value):
    _usage_error_before_reading(capsys, [
        "gridsearch", *_missing_inputs(tmp_path), "--method", "greedy",
        f"--relevance-cutoff={value}", "--output", str(tmp_path / "grid.csv")],
        "--relevance-cutoff")


def test_evaluate_solution_past_display_constraint_is_data_error_with_line(workdir, capsys):
    (workdir / "sol.tsv").write_text(
        "u1\tv1\t0.9\ttop\nu1\tv2\t0.8\ttop\nu2\tv1\t0.7\ttop\nu1\tv4\t0.3\ttop\n")
    code = _evaluate(workdir, "sol.tsv", "rep")
    _assert_data_error(capsys, code,
                       "sol.tsv:4: user u1 item v4 is past the user's display constraint (2)")


def test_split_non_finite_rating_is_data_error_with_line(tmp_path, capsys):
    (tmp_path / "r.dat").write_text("u1::v1::4::1\nu1::v2::nan::2\nu1::v3::inf::3\n")
    code = main(["split", "--ratings", str(tmp_path / "r.dat"),
                 "--output-dir", str(tmp_path / "folds")])
    _assert_data_error(capsys, code, "r.dat:2: rating nan is not finite")
    assert not (tmp_path / "folds").exists()


def test_threshold_rows_of_unknown_ids_are_counted_and_reported(workdir, capsys):
    (workdir / "th.tsv").write_text("user\tu9\tA\t3\nuser\tu1\tZ\t2\nuser\tu1\tA\t1\n")
    capsys.readouterr()
    assert _diversify(workdir, "greedy", "g.tsv", ["--thresholds", str(workdir / "th.tsv")]) == 0
    assert capsys.readouterr().err == (
        f"warning: {workdir / 'th.tsv'}: 2 rows skipped "
        "(user, item or group not in the candidates or groupings)\n")
    log = json.loads((workdir / "g.tsv.log.json").read_text())
    assert log["skipped_rows"] == {"candidates": 0, "categories": 0, "types": 0,
                                   "thresholds": 2}


def test_empty_selection_reports_float_relevance(workdir):
    (workdir / "header_only.tsv").write_text("user\titem\trelevance\n")
    (workdir / "empty.tsv").write_text("")
    assert main(["diversify", "--candidates", str(workdir / "header_only.tsv"),
                 "--categories", str(workdir / "cats.tsv"), "--types", str(workdir / "types.tsv"),
                 "--method", "top", "--output", str(workdir / "top.tsv")]) == 0
    rel = json.loads((workdir / "top.tsv.log.json").read_text())["rel"]
    assert _evaluate(workdir, "empty.tsv", "rep") == 0
    relevance_sum = json.loads((workdir / "rep.json").read_text())["relevance_sum"]
    for value in (rel, relevance_sum):
        assert type(value) is float and value == 0.0
