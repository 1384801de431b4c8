"""The block loaders of ``recdiv.data`` against the per-row loop loaders of
``loop_oracles``: on every input both give the same result, or raise the
same exception type with the same message."""

import random

import numpy as np
import pytest

import loop_oracles as oracle
from recdiv import data
from recdiv.graph import Grouping, RecGraph
from recdiv.synth import movielens_shaped
from test_cli import CANDIDATES, CATS, TEST_RATINGS, TRAIN, TYPES, _mutate

USERS = ["u1", "u2", "u3"]
ITEMS = ["v1", "v2", "v3", "v4", "v5", "v6"]
THRESHOLDS = "user\tu1\tA\t1\nuser\tu2\tB\t2\nitem\tv1\tX\t1\nuser\tu9\tA\t3\nitem\tv4\tZ\t1\n"
SOLUTION = "u1\tv1\t0.9\ttop\nu2\tv1\t0.7\ttop\nu1\tv2\t0.8\ttop\nu3\tv2\t0.6\ttop\n"
CONSTRAINTS = "u1\t2\nu2\t3\nu3\t1\n"


def _graph():
    return RecGraph(USERS, [2, 2, 1], ITEMS,
                    [(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.7), (1, 2, 0.6), (2, 1, 0.6)])


def _oracle_edges(graph):
    return {(graph.user_ids[e.user], graph.item_ids[e.item]): e.index for e in graph.edges}


def _solution_edges(lists):
    """The oracle's rows per user as the edge indices of ``_graph()``."""
    edges = _oracle_edges(_graph())
    return [edges[(user, item)] for user, rows in lists.items() for item, _rel in rows]


def _ratings(ds):
    return list(zip(ds.users, ds.items, ds.ratings.tolist()))


def _graph_state(result):
    graph, skipped = result
    return (graph.user_ids, graph.display_constraints, graph.item_ids,
            graph.edge_user.tolist(), graph.edge_item.tolist(), graph.edge_rel.tolist(), skipped)


def _grouping_state(result):
    grouping, skipped = result
    return (grouping.group_ids,
            [grouping.groups_of(i) for i in range(grouping.num_entities)], skipped)


def _table_state(table):
    return list(table.user_category.items()), list(table.item_type.items()), table.skipped_rows


# Each loader: (new call, oracle call, what to compare of the results).
LOADERS = {
    "ratings": (data.load_ratings, oracle.loop_load_ratings, _ratings, list),
    "candidates": (lambda p: data.load_candidates(p, 2, top_n=2),
                   lambda p: oracle.loop_load_candidates(p, 2, top_n=2),
                   _graph_state, _graph_state),
    "candidates_per_user": (lambda p: data.load_candidates(p, {"u1": 3, "u3": 1}),
                            lambda p: oracle.loop_load_candidates(p, {"u1": 3, "u3": 1}),
                            _graph_state, _graph_state),
    "grouping": (lambda p: data.load_grouping(p, "item", ITEMS[:5]),
                 lambda p: oracle.loop_load_grouping(p, "item", ITEMS[:5]),
                 _grouping_state, _grouping_state),
    "thresholds": (lambda p: data.load_thresholds(p, USERS, ITEMS, ["X", "Y"], ["A", "B"]),
                   lambda p: oracle.loop_load_thresholds(p, USERS, ITEMS, ["X", "Y"],
                                                         ["A", "B"]),
                   _table_state, _table_state),
    "solution": (lambda p: data.load_solution_lists(p, _graph()),
                 lambda p: oracle.loop_load_solution_lists(p, {"u1": 2, "u2": 2, "u3": 1},
                                                           _oracle_edges(_graph())),
                 lambda r: r.tolist(), _solution_edges),
    # a candidate file with no rows
    "solution_no_candidates": (lambda p: data.load_solution_lists(p, RecGraph([], [], [])),
                               lambda p: oracle.loop_load_solution_lists(p, {}, {}),
                               lambda r: r.tolist(), _solution_edges),
    "constraints": (data.load_constraints, oracle.loop_load_constraints,
                    lambda r: list(r.items()), lambda r: list(r.items())),
}

CORPUS = {
    "ratings": [TRAIN + TEST_RATINGS, (TRAIN + TEST_RATINGS).replace("\t", "::"),
                (TRAIN + TEST_RATINGS).replace("\t", ",")],
    "candidates": [CANDIDATES, CANDIDATES.replace("\t", ",")],
    "candidates_per_user": [CANDIDATES],
    "grouping": [CATS, TYPES],
    "thresholds": [THRESHOLDS],
    "solution": [SOLUTION],
    "solution_no_candidates": [SOLUTION],
    "constraints": [CONSTRAINTS],
}


def _outcome(call, path, state):
    try:
        return "ok", repr(state(call(path)))  # repr: nan equals nan
    except Exception as exc:  # the type and message are compared
        return type(exc).__name__, str(exc)


def _assert_same(tmp_path, loader, payload):
    new, old, new_state, old_state = LOADERS[loader]
    path = tmp_path / "input.txt"
    path.write_bytes(payload if isinstance(payload, bytes) else payload.encode("utf-8"))
    got, want = _outcome(new, path, new_state), _outcome(old, path, old_state)
    assert got == want, (loader, path.read_bytes())
    return got


@pytest.mark.parametrize("block_chars", [data.BLOCK_CHARS, 7, 40])
def test_mutated_inputs_match_the_loop_loaders(tmp_path, monkeypatch, block_chars):
    """The seeded fuzz corpus of test_cli, read in the real block size and
    in blocks of a few lines, where most errors fall past the first block."""
    monkeypatch.setattr(data, "BLOCK_CHARS", block_chars)
    rng = random.Random(20241019)
    outcomes = set()
    for loader, texts in CORPUS.items():
        for text in texts:
            _assert_same(tmp_path, loader, text)
            for _ in range(60):
                outcomes.add(_assert_same(tmp_path, loader, _mutate(rng, text))[0])
    assert {"ok", "DataFormatError", "GraphError"} <= outcomes


HAND_CASES = {
    "ratings": [
        "", "\n\n", "u1\tv1\t4\n\n\nu2\tv2\t3\n", "u1\tv1\t4\r\nu2\tv2\t3\r\n",
        "u1\tv1\t4\ru2\tv2\t3",
        "user,item,rating\nu1,v1,4\n", "\nuser,item,rating\nu1,v1,4\n",
        "user,item,rating,time\nu1,v1,4,9\n", "u1\tv1\t4\nu2,v2,3\nu3::v3::2\nu,4\tv\t1\n",
        "u1::v1::4::978\nu1::v2::3::979::x\n", "u1::v1\t2::4\n", "a::b::c:\n:d::e::1\n",
        "u1\tv1\t4\nu1\tv1\t5\n", "u1\tv1\tnan\n", "u1\tv1\t4\nu2\tv2\tinf\n", "u1\tv1\t-inf\n",
        "u1\tv1\t1_0\n", "u1\tv1\t 4 \n", "u1\tv1\n", "u1\n", "u1\tv1\t4\nu1\tv1\tx\n",
        "u1\tv1\t4\t", "u1\tv1\t4\n\xff\n".encode("latin-1"),
        b"u1\tv1\t4\nu1\tv1\t5\n\xff\n",
    ],
    "candidates": [
        "", "u1\tv1\t0.5\n\nu1\tv2\t0.4\n", "u1\tv1\t0.5\r\nu2\tv1\t0.5\r\n",
        "user\titem\trelevance\nu1\tv1\t0.5\n", "\nuser\titem\trelevance\nu1\tv1\t0.5\n",
        "u1\tv1\t0.5\nu1,v2,0.4\nu2\tv,1\t0.3\n", "u1\tv1\t0.5\textra\nu1\tv2\t0.4\n",
        "u1\tv1\t0.5\nu1\tv1\t0.6\n", "u1\tv1\t-0.5\n", "u1\tv1\tnan\n", "u1\tv1\tinf\n",
        "u1\tv1\t-0.0\n", "u1\tv1\t0.5\nu1\tv1\tx\n", "u1\tv1\t0.5\nu1\tv1\t-1\n",
        "u1\tv1\t0.5\nu1\tv2\tnan\nu1\tv3\tx\n", "u1\tv1\n", b"u1\tv1\t0.5\n\xfe",
    ],
    "grouping": [
        "", "v1\tA|B\nv2\tA\n", "v1\tA|B\n\nv1\tC\nv9\tA\nv2\t\nv3\t|A||\n", "v1\tA\tB\n",
        "v1\r\n", "v1\tA\r\nv2\tB\r\n", b"v1\tA\n\x80\n",
    ],
    "thresholds": [
        "", THRESHOLDS, "user\tu9\tA\t3\nuser\tu1\tZ\t2\n", "edge\tu1\tA\t1\n",
        "user\tu1\tA\t1\nuser\tu1\tA\t1\n", "user\tu1\tA\t-1\n", "user\tu1\tA\tx\n",
        "user\tu1\tA\t1\nitem\tu1\tA\t1\n", "user\tu1\tA\t1\nuser\tu1\tA\tx\n",
        "edge\tu1\tA\tx\n", "user\tu1\tA\t99999999999999999999\n",
    ],
    "solution": [
        "", SOLUTION, "u1\tv1\t0.9\tg\nu1\tv1\t0.9\tg\n", "u1\tv4\t0.9\tg\n",
        "u1\tv1\t0.9\tg\nu1\tv2\t0.9\tg\nu1\tv4\tx\tg\n", "u3\tv2\t0.9\tg\nu3\tv2\tx\tg\n",
        "u1\tv1\tx\tg\nu9\tv1\t1\tg\n", "u1\tv1\t0.9\tg\nu2\tv1\t0.9\n",
        # a repeated row that is no candidate edge fails where it first appears
        "u1\tv1\t0.9\tg\nu1\tv4\t0.9\tg\nu1\tv4\t0.9\tg\n",
        # a repeated row that is also past its user's limit (u3 takes 1)
        "u3\tv2\t0.6\tg\nu3\tv2\t0.6\tg\n",
        "u1\tv1\t0.9\tg\nu1\tv2\t0.8\tg\nu1\tv1\t0.9\tg\n",
    ],
    "constraints": [
        "", CONSTRAINTS, "u1\t2\nu1\tx\n", "u1\tx\nu1\t2\n", "u1\t0\n", "u1\t2\nu2\n",
        "u1\t+3\n", "u1\t3\t4\n",
    ],
}


@pytest.mark.parametrize("loader", sorted(HAND_CASES))
def test_hand_cases_match_the_loop_loaders(tmp_path, loader):
    for payload in HAND_CASES[loader]:
        _assert_same(tmp_path, loader, payload)
        if loader in ("candidates", "solution"):
            _assert_same(tmp_path, loader + ("_per_user" if loader == "candidates"
                                             else "_no_candidates"), payload)


def _large_candidates(rows: int) -> list[str]:
    return [f"u{i // 250}\tv{i % 997}\t{(i % 89) / 89!r}\n" for i in range(rows)]


@pytest.mark.parametrize("fault, line", [
    ("u7\tv7\n", 60_001),                   # too few fields, past the first block
    ("u7\tv7\tx\n", 70_000),                # not a number
    ("u7\tv7\t-1\n", 55_555),               # negative relevance
    ("u0\tv3\t0.5\n", 58_000),              # repeats the pair of line 4
])
def test_errors_in_a_later_block_name_their_line(tmp_path, fault, line):
    lines = _large_candidates(80_000)
    lines[line - 1] = fault
    payload = "".join(lines)
    assert len(payload) > 1.5 * data.BLOCK_CHARS
    kind, message = _assert_same(tmp_path, "candidates", payload)
    assert kind != "ok" and f":{line}:" in message


def test_first_block_duplicate_wins_over_later_block_error(tmp_path):
    lines = _large_candidates(80_000)
    lines[10] = lines[3]
    lines[70_000] = "u7\tv7\n"
    kind, message = _assert_same(tmp_path, "candidates", "".join(lines))
    assert (kind, message.split(": ", 1)[1]) == ("DataFormatError", "duplicate pair (u0,v3)")


@pytest.mark.parametrize("block_chars", [data.BLOCK_CHARS, 7])
@pytest.mark.parametrize("loader", ["ratings", "candidates"])
def test_duplicate_names_the_first_second_occurrence_by_line(tmp_path, monkeypatch,
                                                              block_chars, loader):
    """The repeat of (b,y) is on line 3 and that of (a,x) on line 4, but
    (a,x)'s key sorts first."""
    monkeypatch.setattr(data, "BLOCK_CHARS", block_chars)
    payload = "a\tx\t1\nb\ty\t2\nb\ty\t3\na\tx\t4\n"
    kind, message = _assert_same(tmp_path, loader, payload)
    assert kind == "DataFormatError"
    assert message.endswith(":3: duplicate pair (b,y)")


def test_large_files_match_the_loop_loaders(tmp_path):
    """Files of several blocks, read whole: candidates with blank lines,
    CRLF ends and a header, and '::' ratings with timestamps."""
    lines = _large_candidates(70_000)
    lines[500] = "\n"
    payload = "user\titem\trelevance\r\n" + "".join(lines).replace("\n", "\r\n", 20_000)
    assert _assert_same(tmp_path, "candidates", payload)[0] == "ok"
    assert _assert_same(tmp_path, "candidates_per_user", payload)[0] == "ok"
    ratings = "".join(f"u{i // 90}::v{i % 613}::{i % 5 + 1}::9783{i}\n" for i in range(60_000))
    assert _assert_same(tmp_path, "ratings", ratings)[0] == "ok"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_split_derive_and_save_match_the_loops(tmp_path, seed):
    graph, user_types, item_cats = movielens_shaped(
        num_users=40, num_items=120, candidates_per_user=30, overlapping_cats=seed != 2,
        seed=seed)
    rng = np.random.default_rng(seed)
    triples = []
    for u in range(45):  # five users not in the graph
        for j in rng.choice(130, size=int(rng.integers(1, 40)), replace=False).tolist():
            triples.append((f"u{u}", f"v{j}", float(rng.integers(1, 6)) / 2))
    rng.shuffle(triples)
    ds = data.RatingsDataset(*map(list, zip(*triples)))
    spec = data.SplitSpec(folds=4, min_ratings=10, seed=seed)
    for (train, test), (loop_train, loop_test) in zip(
            data.split_folds(ds, spec), oracle.loop_split_folds(triples, spec)):
        assert (_ratings(train), _ratings(test)) == (loop_train, loop_test)
        data.save_ratings(test, tmp_path / "a.tsv")
        oracle.loop_save_ratings(loop_test, tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    args = (graph.item_ids, graph.user_ids, graph.display_constraints)
    got = data.derive_user_thresholds(ds, item_cats, *args)
    want = oracle.loop_derive_user_thresholds(triples, item_cats, *args,
                                              overlapping=not item_cats.disjoint)
    assert list(got.user_category.items()) == list(want.user_category.items())
    args = (graph.user_ids, graph.item_ids, graph.display_constraints)
    for fraction in (0.2, 3.0):
        got = data.derive_item_thresholds(ds, user_types, *args, budget_fraction=fraction)
        want = oracle.loop_derive_item_thresholds(triples, user_types, *args,
                                                  budget_fraction=fraction)
        assert list(got.item_type.items()) == list(want.item_type.items())


def test_derived_thresholds_list_owners_by_first_row():
    """Owners are listed in order of their first training row, rows whose
    member has no group included.  u1's first row is an uncategorized item,
    and a categorized row of u2 comes before u1's first categorized row; v1's
    first row is by u3, who has no type, and a typed row of v2 comes before
    v1's first typed row."""
    triples = [("u1", "v3", 4.0), ("u3", "v1", 3.0), ("u2", "v2", 5.0), ("u2", "v1", 2.0),
               ("u1", "v1", 1.0)]
    ds = data.RatingsDataset(*map(list, zip(*triples)))
    users, items, constraints = ["u1", "u2", "u3"], ["v1", "v2", "v3"], [2, 2, 2]
    item_cats = Grouping("item", ["A", "B"], [[0], [1], []])
    user_types = Grouping("user", ["X", "Y"], [[0], [1], []])
    got = data.derive_user_thresholds(ds, item_cats, items, users, constraints)
    want = oracle.loop_derive_user_thresholds(triples, item_cats, items, users, constraints)
    assert list(got.user_category.items()) == list(want.user_category.items())
    got = data.derive_item_thresholds(ds, user_types, users, items, constraints, 1.0)
    want = oracle.loop_derive_item_thresholds(triples, user_types, users, items, constraints, 1.0)
    assert list(got.item_type.items()) == list(want.item_type.items())


def test_save_ratings_matches_the_loop_on_signed_zeros_and_extremes(tmp_path):
    ratings = [0.0, -0.0, 1e-300, 2.5, 1e20, 123456789.0, 5e-324, -0.0, 2.5, 1 / 3]
    triples = [(f"u{i % 3}", f"v{i}", r) for i, r in enumerate(ratings)]
    data.save_ratings(data.RatingsDataset(*map(list, zip(*triples))), tmp_path / "a.tsv")
    oracle.loop_save_ratings(triples, tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    assert b"\t-0\n" in (tmp_path / "a.tsv").read_bytes()
