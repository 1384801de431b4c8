import weakref

import pytest

from recdiv import data
from recdiv.data import (
    RatingsDataset,
    SplitSpec,
    derive_item_thresholds,
    derive_user_thresholds,
    largest_remainder,
    load_candidates,
    load_grouping,
    load_ratings,
    load_solution_lists,
    load_thresholds,
    save_grouping,
    save_ratings,
    save_solution,
    save_thresholds,
    split_folds,
)
from recdiv.errors import DataFormatError, GraphError
from recdiv.graph import Grouping, RecGraph, Solution, ThresholdTable
from test_data_oracles import CORPUS, LOADERS


def _dataset(triples):
    """A RatingsDataset of (user, item, rating) rows."""
    users, items, ratings = zip(*triples) if triples else ((), (), ())
    return RatingsDataset(list(users), list(items), list(ratings))


def _rows(ds):
    return list(zip(ds.users, ds.items, ds.ratings.tolist()))


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# ratings

def test_load_ratings_double_colon(tmp_path):
    p = _write(tmp_path, "r.dat", "1::1193::5::978300760\n2::661::3::978302109\n")
    ds = load_ratings(p)
    assert _rows(ds) == [("1", "1193", 5.0), ("2", "661", 3.0)]


def test_load_ratings_tsv_and_csv(tmp_path):
    tsv = _write(tmp_path, "r.tsv", "u1\tv1\t4.0\n")
    assert _rows(load_ratings(tsv)) == [("u1", "v1", 4.0)]
    csvf = _write(tmp_path, "r.csv", "user,item,rating\nu1,v1,4.5\n")
    assert _rows(load_ratings(csvf)) == [("u1", "v1", 4.5)]


def test_load_ratings_errors(tmp_path):
    bad = _write(tmp_path, "bad.tsv", "u1\tv1\t4.0\nu1\tv1\n")
    with pytest.raises(DataFormatError, match=":2"):
        load_ratings(bad)
    nonnum = _write(tmp_path, "nn.tsv", "u1\tv1\t4.0\nu2\tv2\thigh\n")
    with pytest.raises(DataFormatError, match=":2"):
        load_ratings(nonnum)
    dup = _write(tmp_path, "dup.tsv", "u1\tv1\t4.0\nu1\tv1\t3.0\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        load_ratings(dup)


def test_ratings_dataset_rejects_unequal_columns():
    with pytest.raises(DataFormatError, match="equal length"):
        RatingsDataset(["u1"], ["v1", "v2"], [5.0])
    with pytest.raises(DataFormatError, match="equal length"):
        RatingsDataset(["u1"], ["v1"], [5.0, 4.0])


def test_ratings_round_trip(tmp_path):
    ds = _dataset([("u1", "v1", 4.0), ("u2", "v9", 2.5)])
    p = tmp_path / "out.tsv"
    save_ratings(ds, p)
    assert _rows(load_ratings(p)) == _rows(ds)


# ---------------------------------------------------------------------------
# groupings

def test_load_grouping_overlapping(tmp_path):
    p = _write(tmp_path, "g.tsv", "v1\tComedy|Romance\nv2\tComedy\n")
    g, skipped = load_grouping(p, "item", ["v1", "v2"])
    assert skipped == 0
    assert not g.disjoint
    assert g.group_ids == ["Comedy", "Romance"]
    assert g.groups_of(0) == [0, 1]


def test_load_grouping_skips_unknown_and_allows_empty(tmp_path):
    p = _write(tmp_path, "g.tsv", "u1\tF\nu9\tM\nu2\t\n")
    g, skipped = load_grouping(p, "user", ["u1", "u2"])
    assert skipped == 1
    assert g.disjoint
    assert g.groups_of(1) == []


def test_load_grouping_empty_file(tmp_path):
    p = _write(tmp_path, "g.tsv", "")
    g, skipped = load_grouping(p, "user", ["u1"])
    assert g.disjoint and g.group_ids == [] and skipped == 0


def test_grouping_round_trip(tmp_path):
    g = Grouping("item", ["A", "B"], [[0, 1], [1]])
    p = tmp_path / "g.tsv"
    save_grouping(g, ["v1", "v2"], p)
    back, _ = load_grouping(p, "item", ["v1", "v2"])
    assert back.group_ids == g.group_ids
    assert [back.groups_of(i) for i in range(2)] == [[0, 1], [1]]


# ---------------------------------------------------------------------------
# splitting

def test_split_spec_validation():
    with pytest.raises(DataFormatError):
        SplitSpec(folds=1)
    with pytest.raises(DataFormatError):
        SplitSpec(min_ratings=0)


def test_split_partitions_each_user_evenly():
    triples = [("u1", f"v{j}", 3.0) for j in range(5)]
    ds = _dataset(triples)
    folds = split_folds(ds, SplitSpec(folds=5, min_ratings=1, seed=3))
    assert len(folds) == 5
    for train, test in folds:
        assert len(test) == 1
        assert len(train) == 4
        assert set(_rows(train)) | set(_rows(test)) == set(triples)


def test_split_eligibility_rule():
    triples = [("u1", f"v{j}", 3.0) for j in range(10)]
    ds = _dataset(triples)
    for _train, test in split_folds(ds, SplitSpec(folds=5, min_ratings=50, seed=0)):
        assert len(test) == 0  # 10 ratings never exceeds the minimum of 50


def test_split_deterministic():
    triples = [(f"u{i}", f"v{j}", 3.0) for i in range(4) for j in range(12)]
    ds = _dataset(triples)
    a = split_folds(ds, SplitSpec(folds=3, min_ratings=10, seed=42))
    b = split_folds(ds, SplitSpec(folds=3, min_ratings=10, seed=42))
    assert [(_rows(t), _rows(s)) for t, s in a] == [
        (_rows(t), _rows(s)) for t, s in b
    ]
    c = split_folds(ds, SplitSpec(folds=3, min_ratings=10, seed=43))
    assert any(
        _rows(x[1]) != _rows(y[1]) for x, y in zip(a, c)
    )


# ---------------------------------------------------------------------------
# candidates

def test_load_candidates_top_n(tmp_path):
    rows = "".join(f"u1\tv{j}\t{j / 10}\n" for j in range(6))
    p = _write(tmp_path, "c.tsv", rows)
    graph, skipped = load_candidates(p, display_constraint=2, top_n=3)
    assert skipped == 0
    assert graph.num_edges == 3
    kept = {graph.item_ids[e.item] for e in graph.edges}
    assert kept == {"v3", "v4", "v5"}


def test_load_candidates_per_user_constraints(tmp_path):
    p = _write(tmp_path, "c.tsv", "u1\tv1\t0.5\nu2\tv1\t0.4\n")
    graph, skipped = load_candidates(p, {"u1": 3})
    assert skipped == 1
    assert graph.user_ids == ["u1"]
    assert graph.display_constraints == [3]


def test_load_candidates_errors(tmp_path):
    neg = _write(tmp_path, "neg.tsv", "u1\tv1\t-0.5\n")
    with pytest.raises(GraphError):
        load_candidates(neg, 2)
    dup = _write(tmp_path, "dup.tsv", "u1\tv1\t0.5\nu1\tv1\t0.6\n")
    with pytest.raises(DataFormatError):
        load_candidates(dup, 2)


# ---------------------------------------------------------------------------
# threshold derivation

def test_largest_remainder_integral_proportions():
    assert largest_remainder({0: 3, 1: 1}, 4) == {0: 3, 1: 1}


def test_largest_remainder_tie_breaks_to_larger_count():
    # quotas (1.5, 0.5): one leftover unit; remainders tie at 0.5 and the
    # larger raw count wins
    assert largest_remainder({0: 3, 1: 1}, 2) == {0: 2, 1: 0}


def test_largest_remainder_preserves_target(rng):
    for _ in range(200):
        counts = {g: rng.randint(0, 9) for g in range(rng.randint(1, 6))}
        target = rng.randint(0, 12)
        out = largest_remainder(counts, target)
        if sum(counts.values()) > 0 and target > 0:
            assert sum(out.values()) == target
        else:
            assert sum(out.values()) == 0
        assert all(v >= 0 for v in out.values())


def test_derive_user_thresholds_disjoint():
    # u1 trained on categories {A:3, B:1}, c=4 -> rho(A)=3, rho(B)=1
    train = _dataset(
        [("u1", "v1", 4), ("u1", "v2", 4), ("u1", "v3", 4), ("u1", "v4", 4)]
    )
    ic = Grouping("item", ["A", "B"], [[0], [0], [0], [1]])
    th = derive_user_thresholds(train, ic, ["v1", "v2", "v3", "v4"], ["u1"], [4])
    assert th.user_category == {(0, 0): 3, (0, 1): 1}
    th2 = derive_user_thresholds(train, ic, ["v1", "v2", "v3", "v4"], ["u1"], [2])
    assert th2.user_category == {(0, 0): 2}


def test_derive_user_thresholds_overlapping_scales_target():
    # every item in both categories: avg cats/item = 2, so target = 2*c
    train = _dataset([("u1", "v1", 4), ("u1", "v2", 4)])
    ic = Grouping("item", ["A", "B"], [[0, 1], [0, 1]])
    th = derive_user_thresholds(train, ic, ["v1", "v2"], ["u1"], [2])
    assert th.rho(0, 0) + th.rho(0, 1) == 4


def test_derive_user_thresholds_no_training_items():
    train = _dataset([])
    ic = Grouping("item", ["A"], [[0]])
    th = derive_user_thresholds(train, ic, ["v1"], ["u1"], [3])
    assert th.user_category == {}


def test_derive_item_thresholds_budget_trace():
    # sum(c)=10 over 2 items: equal share 5, budget = round(0.2*5) = 1;
    # v1's history types {X:3, Y:1} -> lam(X)=1, lam(Y)=0
    train = _dataset(
        [("u1", "v1", 4), ("u2", "v1", 4), ("u3", "v1", 4), ("u4", "v1", 4)]
    )
    ut = Grouping("user", ["X", "Y"], [[0], [0], [0], [1]])
    th = derive_item_thresholds(
        train, ut, ["u1", "u2", "u3", "u4"], ["v1", "v2"], [3, 3, 2, 2]
    )
    assert th.item_type == {(0, 0): 1}


# ---------------------------------------------------------------------------
# threshold and solution round trips

def test_threshold_round_trip(tmp_path):
    # a zero entry is the same as no entry, and is not written
    th = ThresholdTable({(0, 1): 2, (1, 1): 0}, {(1, 0): 3})
    p = tmp_path / "th.tsv"
    save_thresholds(th, p, ["u1", "u2"], ["v1", "v2"], ["X", "Y"], ["A", "B"])
    assert p.read_text() == "user\tu1\tB\t2\nitem\tv2\tX\t3\n"
    back = load_thresholds(p, ["u1", "u2"], ["v1", "v2"], ["X", "Y"], ["A", "B"])
    assert back.user_category == th.user_category
    assert back.item_type == th.item_type


def test_load_thresholds_holds_values_past_int32(tmp_path):
    p = _write(tmp_path, "th.tsv", "user\tu1\tA\t1000000000000\nuser\tu2\tA\t0\n"
                                   "item\tv1\tX\t100000000000000000000000\n")
    th = load_thresholds(p, ["u1", "u2"], ["v1"], ["X"], ["A"])
    assert th.user_category == {(0, 0): 2**31 - 1} == th.item_type
    assert th.rho(1, 0) == 0 and th.skipped_rows == 0


def test_load_thresholds_rejects_bad_side(tmp_path):
    p = _write(tmp_path, "th.tsv", "edge\tu1\tA\t1\n")
    with pytest.raises(DataFormatError):
        load_thresholds(p, ["u1"], ["v1"], ["X"], ["A"])


def test_solution_round_trip(tmp_path):
    graph = RecGraph(["u1"], [2], ["v1", "v2"], [(0, 0, 0.9), (0, 1, 0.25)])
    ut = Grouping("user", ["X"], [[0]])
    ic = Grouping("item", ["A"], [[0], [0]])
    sol = Solution(graph, ut, ic)
    sol.add_edge(0)
    sol.add_edge(1)
    p = tmp_path / "sol.tsv"
    save_solution(sol, p, "greedy")
    assert load_solution_lists(p, graph).tolist() == [0, 1]


# ---------------------------------------------------------------------------
# malformed rows name their path and line

@pytest.mark.parametrize("value", ["nan", "inf"])
def test_load_candidates_rejects_non_finite_relevance(tmp_path, value):
    p = _write(tmp_path, "c.tsv", f"u1\tv1\t0.5\nu1\tv2\t{value}\n")
    with pytest.raises(GraphError, match="c.tsv:2"):
        load_candidates(p, 2)


def test_load_thresholds_rejects_non_integer_value(tmp_path):
    p = _write(tmp_path, "th.tsv", "user\tu1\tA\t1\nitem\tv1\tX\tmany\n")
    with pytest.raises(DataFormatError, match="th.tsv:2"):
        load_thresholds(p, ["u1"], ["v1"], ["X"], ["A"])


def test_load_solution_lists_rejects_non_number_relevance(tmp_path):
    p = _write(tmp_path, "sol.tsv", "u1\tv1\t0.9\tgreedy\nu1\tv2\t?\tgreedy\n")
    graph = RecGraph(["u1"], [2], ["v1", "v2"], [(0, 0, 0.9), (0, 1, 0.8)])
    with pytest.raises(DataFormatError, match="sol.tsv:2"):
        load_solution_lists(p, graph)


def test_load_solution_lists_rejects_repeated_row_and_rows_past_limit(tmp_path):
    def graph(limit):
        return RecGraph(["u2", "u1"], [1, limit], ["v1", "v2"],
                        [(0, 0, 0.5), (1, 0, 0.9), (1, 1, 0.8)])

    p = _write(tmp_path, "sol.tsv", "u1\tv1\t0.9\tgreedy\nu1\tv1\t0.9\tgreedy\n")
    with pytest.raises(DataFormatError, match="sol.tsv:2: user u1 item v1 listed twice"):
        load_solution_lists(p, graph(2))
    p = _write(tmp_path, "sol.tsv", "u1\tv1\t0.9\tg\nu2\tv1\t0.5\tg\nu1\tv2\t0.8\tg\n")
    # users in order of their first row, each user's rows in file order
    assert load_solution_lists(p, graph(2)).tolist() == [1, 2, 0]
    with pytest.raises(DataFormatError, match=r"sol.tsv:3: user u1 item v2 .*\(1\)"):
        load_solution_lists(p, graph(1))


def test_load_constraints(tmp_path):
    from recdiv.data import load_constraints

    p = _write(tmp_path, "c.tsv", "u1\t3\n\nu2\t1\n")
    assert load_constraints(p) == {"u1": 3, "u2": 1}
    for text, line in (("u1\t3\nu2\n", ":2"), ("u1\t3\t4\n", ":1"), ("u1\tx\n", ":1"),
                       ("u1\t3\nu2\t2\nu1\t1\n", ":3: user u1 listed twice")):
        p = _write(tmp_path, "bad.tsv", text)
        with pytest.raises(DataFormatError, match=f"bad.tsv{line}"):
            load_constraints(p)


@pytest.mark.parametrize("text, where", [
    ("user\tu1\tA\t2\nuser\tu1\tA\t0\n", "th.tsv:2: user u1 group A listed twice"),
    ("item\tv1\tX\t1\nuser\tu1\tA\t1\nitem\tv1\tX\t1\n",
     "th.tsv:3: item v1 group X listed twice"),
    ("user\tu9\tA\t1\nuser\tu9\tA\t1\n", "th.tsv:2: user u9 group A listed twice"),
])
def test_load_thresholds_rejects_repeated_row(tmp_path, text, where):
    p = _write(tmp_path, "th.tsv", text)
    with pytest.raises(DataFormatError, match=where):
        load_thresholds(p, ["u1"], ["v1"], ["X"], ["A"])


def test_load_thresholds_same_entity_and_group_on_both_sides(tmp_path):
    p = _write(tmp_path, "th.tsv", "user\tx\tx\t2\nitem\tx\tx\t1\n")
    table = load_thresholds(p, ["x"], ["x"], ["x"], ["x"])
    assert (table.user_category, table.item_type) == ({(0, 0): 2}, {(0, 0): 1})


def test_loaders_reject_invalid_utf8(tmp_path):
    p = tmp_path / "bin.tsv"
    p.write_bytes(b"u1\tv1\t4\n\xff\xfe\n")
    with pytest.raises(DataFormatError, match="bin.tsv"):
        load_ratings(p)


def test_load_thresholds_rejects_negative_value_with_line(tmp_path):
    p = _write(tmp_path, "th.tsv", "user\tu1\tA\t1\nuser\tu1\tA\t-1\n")
    with pytest.raises(DataFormatError, match="th.tsv:2: threshold -1 is negative"):
        load_thresholds(p, ["u1"], ["v1"], ["X"], ["A"])


def test_load_constraints_rejects_constraint_below_one_with_line(tmp_path):
    from recdiv.data import load_constraints

    p = _write(tmp_path, "c.tsv", "u1\t2\nu2\t0\n")
    with pytest.raises(DataFormatError, match="c.tsv:2: constraint 0 is below 1"):
        load_constraints(p)


def test_load_candidates_counts_skipped_rows(tmp_path):
    p = _write(tmp_path, "c.tsv", "u1\tv1\t0.5\nu2\tv1\t0.4\nu2\tv2\t0.3\nu3\tv2\t0.1\n")
    graph, skipped = load_candidates(p, {"u1": 1, "u3": 2})
    assert skipped == 2
    assert graph.user_ids == ["u1", "u3"] and graph.display_constraints == [1, 2]
    assert [(e.user, graph.item_ids[e.item]) for e in graph.edges] == [(0, "v1"), (1, "v2")]


def test_load_candidates_groups_interleaved_users(tmp_path):
    p = _write(tmp_path, "c.tsv", "u2\tv3\t0.5\nu1\tv2\t0.4\nu2\tv1\t0.3\n")
    graph, skipped = load_candidates(p, 2)
    assert skipped == 0 and graph.user_ids == ["u2", "u1"]
    assert [(graph.user_ids[e.user], graph.item_ids[e.item], e.relevance)
            for e in graph.edges] == [("u2", "v1", 0.3), ("u2", "v3", 0.5), ("u1", "v2", 0.4)]
    assert graph.edge_user.tolist() == [0, 0, 1]
    assert list(graph.user_edges) == [(0, 1), (2,)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_ratings_rejects_non_finite_rating(tmp_path, value):
    p = _write(tmp_path, "r.dat", f"u1::v1::4\nu1::v2::{value}::978300760\n")
    with pytest.raises(DataFormatError, match=f"r.dat:2: rating {value} is not finite"):
        load_ratings(p)


def test_load_thresholds_counts_rows_of_unknown_ids(tmp_path):
    p = _write(tmp_path, "th.tsv", "user\tu9\tA\t3\nuser\tu1\tZ\t2\n")
    table = load_thresholds(p, ["u1"], [], [], ["A"])
    assert (table.user_category, table.item_type, table.skipped_rows) == ({}, {}, 2)
    p = _write(tmp_path, "th.tsv", "user\tu1\tA\t3\nitem\tv1\tX\t1\nitem\tv2\tX\t1\n")
    table = load_thresholds(p, ["u1"], ["v1"], ["X"], ["A"])
    assert table.skipped_rows == 1 and table.item_type == {(0, 0): 1}


def test_no_block_is_held_while_the_next_is_read(tmp_path, monkeypatch):
    """Every loader lets go of a block before the reader splits the next,
    so a load holds one block of rows at a time."""
    monkeypatch.setattr(data, "BLOCK_CHARS", 7)
    split, blocks = data._split_block, []

    def split_block(*args):
        assert [ref for ref in blocks if ref() is not None] == []
        block, *rest = split(*args)
        blocks.append(weakref.ref(block))
        return (block, *rest)

    monkeypatch.setattr(data, "_split_block", split_block)
    for name, (load, *_) in LOADERS.items():
        if name == "solution_no_candidates":  # fails at its first row
            continue
        for text in CORPUS[name]:
            blocks.clear()
            path = _write(tmp_path, "input.txt", text)
            load(path)
            assert len(blocks) > 2, name


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
def test_edge_finder_matches_a_dict(rng, monkeypatch, block):
    # each user's items in random order, blocks of whole users ending
    # mid-graph, users and items with no edge, names that are not ids and
    # pairs whose item is in the next user's slice
    monkeypatch.setattr(data, "BLOCK_EDGES", block)
    for _ in range(60):
        nu, ni = rng.randint(0, 6), rng.randint(1, 8)
        edges = []
        for u in range(nu):
            items = rng.sample(range(ni), rng.randint(0, ni))
            edges += [(u, v, 0.5) for v in items]
        graph = RecGraph([f"u{u}" for u in range(nu)], [1] * nu,
                         [f"v{v}" for v in range(ni)], edges)
        want = {(f"u{u}", f"v{v}"): e for e, (u, v, _) in enumerate(edges)}
        users = [f"u{u}" for u in range(nu + 1)] + ["nobody"]
        items = [f"v{v}" for v in range(ni + 1)] + ["nothing"]
        queries = [(u, v) for u in users for v in items]
        rng.shuffle(queries)
        found = data._edge_finder(graph)([u for u, _ in queries], [v for _, v in queries])
        assert found.tolist() == [want.get(q, -1) for q in queries]
