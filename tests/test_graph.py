import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from recdiv.errors import CapacityError, DuplicateEdgeError, GraphError, GroupingError
from recdiv.flownet import solve_tdiv
from recdiv.graph import (
    DivParams,
    FirstFault,
    Grouping,
    RecGraph,
    Solution,
    ThresholdTable,
    eval_objective,
    first_rows,
    new_solution,
    threshold_cells,
)
from recdiv.greedy import greedy_solve
from recdiv.metrics import tidiv, tudiv
from recdiv.synth import ROUND_CHUNK, movielens_shaped

from oracles import random_instance, widened_thresholds


def test_graph_rejects_negative_relevance():
    with pytest.raises(GraphError):
        RecGraph(["u"], [1], ["v"], [(0, 0, -0.5)])


def test_graph_rejects_nonfinite_relevance():
    with pytest.raises(GraphError):
        RecGraph(["u"], [1], ["v"], [(0, 0, math.inf)])


def test_graph_rejects_duplicate_edges():
    with pytest.raises(DuplicateEdgeError):
        RecGraph(["u"], [1], ["v"], [(0, 0, 0.1), (0, 0, 0.2)])


def test_graph_rejects_zero_constraint():
    with pytest.raises(GraphError):
        RecGraph(["u"], [0], ["v"], [])


def test_graph_rejects_constraints_not_one_per_user():
    with pytest.raises(GraphError, match="one display constraint per user"):
        RecGraph(["u1", "u2"], [1], ["v"], [])


@pytest.mark.parametrize("columns", [
    (np.zeros((1, 1), dtype=int), np.zeros((1, 1), dtype=int), np.zeros((1, 1))),
    (np.zeros(2, dtype=int), np.zeros(1, dtype=int), np.zeros(1)),
    (np.zeros(1, dtype=int), np.zeros(1, dtype=int), np.zeros(2)),
], ids=["2-d", "long users", "long relevances"])
def test_graph_rejects_columns_not_1d_of_equal_length(columns):
    with pytest.raises(GraphError, match="1-d and of equal length"):
        RecGraph(["u"], [1], ["v"], columns=columns)


@pytest.mark.parametrize("float_column", [0, 1], ids=["users", "items"])
def test_graph_rejects_float_endpoint_columns(float_column):
    columns = [np.zeros(1, dtype=int), np.zeros(1, dtype=int), np.zeros(1)]
    columns[float_column] = np.zeros(1)
    with pytest.raises(GraphError, match="endpoints must be integers"):
        RecGraph(["u"], [1], ["v"], columns=tuple(columns))


def test_adjacency_round_trip():
    g = RecGraph(
        ["u1", "u2"], [2, 2], ["v1", "v2"],
        [(0, 0, 0.1), (0, 1, 0.2), (1, 1, 0.3)],
    )
    for u, lst in enumerate(g.user_edges):
        for e in lst:
            assert g.edges[e].user == u
    assert sum(len(lst) for lst in g.user_edges) == g.num_edges


def test_grouping_disjoint_flag():
    disjoint = Grouping("item", ["A", "B"], [[0], [1], [0]])
    assert disjoint.disjoint
    overlapping = Grouping("item", ["A", "B"], [[0, 1], [1]])
    assert not overlapping.disjoint


def test_grouping_rejects_duplicates_and_bad_indices():
    with pytest.raises(GroupingError):
        Grouping("item", ["A"], [[0, 0]])
    with pytest.raises(GroupingError):
        Grouping("item", ["A"], [[3]])


def test_grouping_rejects_an_unknown_side():
    with pytest.raises(GroupingError, match="side must be 'user' or 'item'"):
        Grouping("category", ["A"], [[0]])


def _expand_loop(grouping, entities):
    pairs = [(p, g) for p, e in enumerate(entities) for g in grouping.groups_of(e)]
    return [p for p, _ in pairs], [g for _, g in pairs]


@pytest.mark.parametrize("membership, entities", [
    # overlapping groups, entities with none, entities past the list
    ([[0, 2], [], [1], [0, 1, 2]], [3, 0, 1, 4, 2, 9, 3, 1, 0, 100]),
    # no entity has a group
    ([[], [], []], [2, 0, 1, 5]),
    # an empty grouping: every entity is past the list
    ([], [0, 1, 7]),
    # no entities
    ([[1], [0]], []),
])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_expand_matches_groups_of_loop(membership, entities, dtype):
    grouping = Grouping("item", ["A", "B", "C"], membership)
    position, group = grouping.expand(np.array(entities, dtype=dtype))
    assert (position.tolist(), group.tolist()) == _expand_loop(grouping, entities)
    assert position.dtype == np.int32 and group.dtype == np.int32


def test_expand_matches_groups_of_loop_randomized(rng):
    for _ in range(50):
        num_groups = rng.randint(1, 6)
        membership = [rng.sample(range(num_groups), rng.randint(0, num_groups))
                      for _ in range(rng.randint(0, 8))]
        grouping = Grouping("user", [str(g) for g in range(num_groups)], membership)
        entities = [rng.randrange(len(membership) + 3) for _ in range(rng.randint(0, 30))]
        position, group = grouping.expand(np.array(entities, dtype=np.int64))
        assert (position.tolist(), group.tolist()) == _expand_loop(grouping, entities)


def test_cells_match_groups_of_loop_randomized(rng):
    # entities with no group and entities past the membership list included
    for _ in range(50):
        num_groups = rng.randint(1, 6)
        membership = [rng.sample(range(num_groups), rng.randint(0, num_groups))
                      for _ in range(rng.randint(0, 8))]
        grouping = Grouping("user", [str(g) for g in range(num_groups)], membership)
        num_owners = rng.randint(1, 9)
        rows = [(rng.randrange(num_owners), rng.randrange(len(membership) + 3))
                for _ in range(rng.randint(0, 30))]
        owners = np.array([o for o, _ in rows], dtype=rng.choice([np.int32, np.int64]))
        members = np.array([m for _, m in rows], dtype=np.int64)
        position, cell = grouping.cells(owners, members, num_owners)
        expected = [(p, o * num_groups + g) for p, (o, m) in enumerate(rows)
                    for g in grouping.groups_of(m)]
        assert list(zip(position.tolist(), cell.tolist())) == expected
        assert cell.dtype == np.int32


@pytest.mark.parametrize("num_owners, dtype", [
    (2**31 - 1, np.int32), (2**31, np.int64), (2**40, np.int64)])
def test_cells_widen_to_int64_past_int32_without_a_table(num_owners, dtype):
    grouping = Grouping("item", ["A"], [[0], [], [0]])
    owners = np.array([num_owners - 1, 5, 0], dtype=np.int64)
    tracemalloc.start()
    try:
        position, cell = grouping.cells(owners, np.array([0, 1, 2]), num_owners)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert position.tolist() == [0, 2]
    assert cell.tolist() == [num_owners - 1, 0] and cell.dtype == dtype
    assert peak < 10_000


def test_threshold_cells_drop_out_of_range_keys_and_clamp():
    table = {(0, 0): 2, (1, 2): 10**12, (1, 0): 0, (2, 0): 5, (0, 3): 4, (-1, 1): 3,
             (1, -1): 7}
    table = ThresholdTable(table).rho_table
    threshold = threshold_cells(table, 2, 3)
    assert threshold.tolist() == [2, 0, 0, 0, 0, 2**31 - 1]
    assert threshold.dtype == np.int32
    assert threshold_cells(table, 0, 3).tolist() == threshold_cells(table, 2, 0).tolist() == []


def test_eval_objective_matches_metrics_on_out_of_range_and_huge_thresholds(rng):
    for i in range(100):
        graph, ut, ic, th, params = random_instance(rng, overlapping=(i % 2 == 0))
        wide = widened_thresholds(rng, graph, ut, ic, th)
        sol = new_solution(graph, ut, ic)
        for e in range(graph.num_edges):
            u = graph.edges[e].user
            if rng.random() < 0.7 and len(sol.selected[u]) < graph.display_constraints[u]:
                sol.add_edge(e)
        via_metrics = (params.beta * tudiv(sol, ic, wide) + params.mu * tidiv(sol, ut, wide)
                       + sol.relevance())
        assert eval_objective(sol, wide, params) == pytest.approx(via_metrics, abs=1e-12)


def test_thresholds_default_zero_and_reject_negative():
    t = ThresholdTable({(0, 0): 2})
    assert t.rho(0, 0) == 2
    assert t.rho(0, 1) == 0
    assert t.lam(5, 5) == 0
    with pytest.raises(GraphError):
        ThresholdTable({(0, 0): -1})


def test_threshold_views_are_fresh_dicts_that_reach_no_solver(rng):
    # the tables are the one representation: editing a view changes nothing
    for i in range(40):
        graph, ut, ic, th, params = random_instance(rng, overlapping=(i % 2 == 0))
        before = greedy_solve(graph, ut, ic, th, params).selected
        kept = th.user_category
        view = th.user_category
        assert view is not kept
        view.clear()
        th.item_type[(0, 0)] = 0
        sol = greedy_solve(graph, ut, ic, th, params)
        assert sol.selected == before and th.user_category == kept
        scratch = (params.beta * tudiv(sol, ic, th) + params.mu * tidiv(sol, ut, th)
                   + sol.relevance())
        assert eval_objective(sol, th, params) == pytest.approx(scratch, abs=1e-12)


def test_threshold_tables_are_read_only_int32(three_item_graph):
    graph, ut, ic, _ = three_item_graph
    for th in (ThresholdTable({(0, 0): 2}, {(1, 0): 1}),
               ThresholdTable.uniform(graph, ut, ic, rho=2, lam=1)):
        for table in (th.rho_table, th.lam_table):
            assert table.dtype == np.int32
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 5


def test_threshold_lookups_outside_the_table_are_zero():
    # a negative index must not wrap to the table's far edge
    th = ThresholdTable({(0, 0): 2, (1, 2): 3}, {(0, 1): 4})
    assert th.rho_table.shape == (2, 3) and th.lam_table.shape == (1, 2)
    assert th.rho(-1, 2) == th.rho(1, -1) == th.rho(-1, 0) == th.rho(0, -1) == 0
    assert th.rho(2, 0) == th.rho(0, 3) == th.lam(1, 1) == th.lam(0, 2) == th.lam(-1, 1) == 0
    assert (th.rho(1, 2), th.lam(0, 1)) == (3, 4)
    assert type(th.rho(1, 2)) is int


def test_threshold_dicts_drop_negative_keys_and_hold_huge_values():
    th = ThresholdTable({(-1, 0): 5, (0, -2): 1, (1, 1): 10**12, (0, 0): 0}, {(2**40, -1): 1})
    assert th.rho_table.shape == (2, 2) and th.lam_table.shape == (0, 0)
    assert th.user_category == {(1, 1): 2**31 - 1}
    assert th.item_type == {}


@pytest.mark.parametrize("key", [(2**40, 0), (2**70, 0), (0, 2**31)])
def test_threshold_key_past_int32_is_graph_error(key):
    # raised before a table of 2**40 rows is allocated
    for entries in (({key: 1}, None), (None, {key: 1})):
        with pytest.raises(GraphError, match=rf"key \({key[0]}, {key[1]}\) is past"):
            ThresholdTable(*entries)


def test_threshold_key_within_int32_builds():
    th = ThresholdTable({(10**6, 3): 1})
    assert th.rho_table.shape == (10**6 + 1, 4) and th.user_category == {(10**6, 3): 1}



@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_first_rows_match_a_stable_unique(dtype):
    draw = np.random.default_rng(5)
    cases = [np.zeros(0, dtype=dtype), np.array([4], dtype=dtype)]
    for size, bound in ((10, 3), (200, 50), (5000, 40_000), (125_000, 2000)):
        cases.append(draw.integers(0, bound, size=size).astype(dtype))
    for keys in cases:
        bound = int(keys.max()) + 1 if len(keys) else 0
        _, expected = np.unique(keys, return_index=True)
        expected.sort()
        for extra in (0, 7):  # codes the keys never use change nothing
            np.testing.assert_array_equal(first_rows(keys, bound + extra), expected)


_EMPTY = np.zeros((0, 0), dtype=np.int32)


@pytest.mark.parametrize("table", [np.zeros(3, dtype=np.int32), np.zeros((1, 2, 2), dtype=int),
                                   np.int32(2)])
def test_threshold_tables_must_be_2d(table):
    with pytest.raises(GraphError, match=r"user threshold table must be 2-d, got \d-d"):
        ThresholdTable(tables=(table, _EMPTY))
    with pytest.raises(GraphError, match=r"item threshold table must be 2-d"):
        ThresholdTable(tables=(_EMPTY, table))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, object, complex])
def test_threshold_tables_must_be_integers(dtype):
    # a float table's values would be truncated, a bool's read as 0 and 1
    table = np.ones((2, 2), dtype=dtype)
    with pytest.raises(GraphError, match=f"user thresholds must be integers, got {table.dtype}"):
        ThresholdTable(tables=(table, _EMPTY))
    with pytest.raises(GraphError, match=f"item thresholds must be integers, got {table.dtype}"):
        ThresholdTable(tables=(_EMPTY, np.zeros((0, 0), dtype=dtype)))


def test_threshold_table_negative_names_the_first_cell_in_row_major_order():
    table = np.array([[0, 2, 1], [4, -1, -7], [-2, 0, 0]], dtype=np.int64)
    with pytest.raises(GraphError, match=r"user threshold \(1, 1\) is negative: -1"):
        ThresholdTable(tables=(table, _EMPTY))
    with pytest.raises(GraphError, match=r"item threshold \(1, 1\) is negative: -1"):
        ThresholdTable(tables=(_EMPTY, table.astype(np.int8)))


def test_negative_threshold_table_reaches_no_solver():
    # with rho = -3 greedy picked the one edge and the objective read -2.5
    with pytest.raises(GraphError, match=r"user threshold \(0, 0\) is negative: -3"):
        ThresholdTable(tables=(np.array([[-3, 2]]), np.zeros((0, 0))))


@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint64])
def test_threshold_table_values_past_int32_are_clamped(dtype):
    table = np.array([[2**31 - 1, 2**31], [3, np.iinfo(dtype).max]], dtype=dtype)
    th = ThresholdTable(tables=(table, table))
    for kept in (th.rho_table, th.lam_table):
        np.testing.assert_array_equal(kept, [[2**31 - 1, 2**31 - 1], [3, 2**31 - 1]])
    assert th.user_category == ThresholdTable({(0, 0): 2**31 - 1, (0, 1): 2**31,
                                               (1, 0): 3, (1, 1): 10**30}).user_category


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.int64])
def test_threshold_tables_are_held_as_int32_copies(dtype):
    table = np.array([[0, 2], [5, 0]], dtype=dtype)
    th = ThresholdTable(tables=(table, [[1, 0, 3]]))
    assert th.rho_table.dtype == th.lam_table.dtype == np.int32
    assert th.user_category == {(0, 1): 2, (1, 0): 5} and th.item_type == {(0, 0): 1, (0, 2): 3}
    # the caller's array stays writable, and writing it changes nothing kept
    table[0, 1] = 9
    assert th.rho(0, 1) == 2 and not np.shares_memory(th.rho_table, table)


def _all_pairs(num_owners: int, width: int, value: int) -> dict[tuple[int, int], int]:
    return dict.fromkeys([(o, g) for o in range(num_owners) for g in range(width)], value)


def test_huge_threshold_is_no_cap(rng):
    # 10**12 is held as 2**31 - 1; a cap past every flow acts the same
    for _ in range(60):
        graph, ut, ic, _, params = random_instance(rng)
        tables = []
        for value in (10**12, sum(graph.display_constraints) + graph.num_edges):
            tables.append(ThresholdTable(
                _all_pairs(graph.num_users, ic.num_groups, value),
                _all_pairs(graph.num_items, ut.num_groups, value)))
        huge, cap = tables
        for solve in (greedy_solve, solve_tdiv):
            a, b = solve(graph, ut, ic, huge, params), solve(graph, ut, ic, cap, params)
            assert a.selected == b.selected
            assert eval_objective(a, huge, params) == eval_objective(b, cap, params)


def test_zero_threshold_entry_is_a_missing_entry(rng):
    for _ in range(60):
        graph, ut, ic, th, params = random_instance(rng)
        sparse = ThresholdTable(th.user_category, th.item_type)
        assert 0 not in th.user_category.values() and 0 not in th.item_type.values()
        for solve in (greedy_solve, solve_tdiv):
            a, b = solve(graph, ut, ic, th, params), solve(graph, ut, ic, sparse, params)
            assert a.selected == b.selected
            assert eval_objective(a, th, params) == eval_objective(b, sparse, params)


@pytest.mark.parametrize("value", [1.5, 2.0, math.nan, "2"])
def test_thresholds_reject_non_integers(value):
    with pytest.raises(GraphError, match=r"user threshold \(0, 1\) is not an integer"):
        ThresholdTable({(0, 0): 1, (0, 1): value})
    with pytest.raises(GraphError, match=r"item threshold \(3, 0\) is not an integer"):
        ThresholdTable({}, {(3, 0): value})
    th = ThresholdTable({(0, 0): np.int64(2)}, {(0, 0): np.int32(1)})
    assert (th.rho(0, 0), th.lam(0, 0)) == (2, 1)


@pytest.mark.parametrize("key", [(0.5, 0), (0, 1.0), ("u", 0), (0,), (0, 1, 2), 3])
def test_thresholds_reject_keys_not_integer_pairs(key):
    # a float owner would otherwise land in a truncated cell
    with pytest.raises(GraphError, match="user threshold key .* is not a pair of integers"):
        ThresholdTable({(0, 0): 1, key: 1})
    with pytest.raises(GraphError, match="item threshold key .* is not a pair of integers"):
        ThresholdTable({}, {key: 1})


def test_graph_rejects_non_integer_display_constraint():
    with pytest.raises(GraphError, match="display constraint of user 1 must be an integer"):
        RecGraph(["u1", "u2"], [1, 2.5], ["v"], [(0, 0, 0.5), (1, 0, 0.5)])
    assert RecGraph(["u"], [np.int64(2)], ["v"], [(0, 0, 0.5)]).display_constraints == [2]


def test_grouping_rejects_non_integer_group():
    with pytest.raises(GroupingError, match="entity 1 lists group 1.0, not an integer"):
        Grouping("item", ["A", "B"], [[0], [1.0]])
    assert Grouping("item", ["A", "B"], [[np.int32(1)]]).groups_of(0) == [1]


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_not_an_integer(flag):
    with pytest.raises(GraphError, match="display constraint of user 0 must be an integer"):
        RecGraph(["u"], [flag], ["v"], [(0, 0, 0.5)])
    with pytest.raises(GroupingError, match=f"entity 1 lists group {flag}, not an integer"):
        Grouping("item", ["A", "B"], [[0], [flag]])
    with pytest.raises(GraphError, match="user threshold key .* is not a pair of integers"):
        ThresholdTable({(flag, 0): 1})
    with pytest.raises(GraphError, match=r"item threshold \(0, 0\) is not an integer"):
        ThresholdTable({}, {(0, 0): flag})


@pytest.mark.parametrize("membership, message", [
    ([[0], 5], "entity 1 has groups 5, not a list"),
    ([[0], None], "entity 1 has groups None, not a list"),
    ([[[0]]], r"entity 0 lists group \[0\], not an integer"),
    ([[0], [1, [1]]], r"entity 1 lists group \[1\], not an integer"),
])
def test_grouping_rejects_malformed_membership(membership, message):
    with pytest.raises(GroupingError, match=message):
        Grouping("item", ["A", "B"], membership)


@pytest.mark.parametrize("membership, message", [
    # an entity's repeat comes before its other faults, as a check of one
    # entity at a time finds it; an earlier entity's fault comes first
    ([[0], [5, "x", 1, 1]], "entity 1 listed twice in a group"),
    ([[0], [3, 3]], "entity 1 listed twice in a group"),
    ([[0], ["x", 5]], "entity 1 lists group 'x', not an integer"),
    ([[0], [5, "x"]], "entity 1 references unknown group 5"),
    ([[-1], [1, 1]], "entity 0 references unknown group -1"),
    ([[0, 1], [1, 2**70]], f"entity 1 references unknown group {2**70}"),
    # groups past int64 and non-integers are compared as Python values
    ([[-1, 2**70]], "entity 0 references unknown group -1"),
    ([[2**70, 2**71]], f"entity 0 references unknown group {2**70}"),
    ([[2**70, 2**70]], "entity 0 listed twice in a group"),
    ([["x", "x"]], "entity 0 listed twice in a group"),
    ([[1, 1.0]], "entity 0 listed twice in a group"),
    ([[0], ["x", 1.5, "y"]], "entity 1 lists group 'x', not an integer"),
])
def test_grouping_reports_the_first_fault_in_entity_order(membership, message):
    with pytest.raises(GroupingError, match=message):
        Grouping("item", ["A", "B"], membership)


def test_grouping_holds_one_read_only_copy():
    # the list groups_of returns is the caller's; the arrays cannot be
    # written, so nothing a caller does changes what the grouping reports
    graph = _two_edge_graph()
    ut = Grouping("user", ["T"], [[np.int64(0)]])
    ic = Grouping("item", ["A", "B"], [[np.int32(0)], [0]])
    assert all(type(g) is int for g in ut.groups_of(0) + ic.groups_of(1))
    ic.groups_of(1).append(1)
    ic.group_lists(2)[1].append(1)
    for arr in (ic.flat, ic.offsets):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert not hasattr(ic, "membership")
    assert ic.disjoint and ic.groups_of(1) == [0]
    th = ThresholdTable.uniform(graph, ut, ic, rho=2, lam=2)
    params = DivParams(1.0, 1.0)
    sol = greedy_solve(graph, ut, ic, th, params)
    scratch = tudiv(sol, ic, th) + tidiv(sol, ut, th) + sol.relevance()
    assert eval_objective(sol, th, params) == scratch == 2 + 2 + 1.3


def test_group_lists_match_groups_of(rng):
    for _ in range(50):
        num_groups = rng.randint(1, 5)
        membership = [rng.sample(range(num_groups), rng.randint(0, num_groups))
                      for _ in range(rng.randint(0, 6))]
        grouping = Grouping("user", [str(g) for g in range(num_groups)], membership)
        count = rng.randint(0, len(membership) + 3)
        assert grouping.group_lists(count) == [grouping.groups_of(e) for e in range(count)]
        assert grouping.group_lists(len(membership)) == [sorted(m) for m in membership]


def _parts_by_union_find(membership, count):
    """Each entity's part by a loop: union-find over the groups, each part
    named by its least group, -1 for an entity with no group."""
    parent = {}

    def root(g):
        while parent.setdefault(g, g) != g:
            g = parent[g]
        return g

    for groups in membership[:count]:
        for g in groups[1:]:
            a, b = sorted((root(groups[0]), root(g)))
            parent[b] = a
    lists = list(membership[:count]) + [[]] * max(0, count - len(membership))
    return [root(groups[0]) if groups else -1 for groups in lists]


def test_parts_match_union_find(rng):
    # chains of shared groups, entities with no group, entities past the
    # list and counts short of it
    for _ in range(300):
        num_groups = rng.randint(1, 12)
        membership = [sorted(rng.sample(range(num_groups), rng.choice((0, 1, 1, 1, 2, 3))
                                        if num_groups >= 3 else rng.randint(0, num_groups)))
                      for _ in range(rng.randint(0, 15))]
        grouping = Grouping("user", [str(g) for g in range(num_groups)], membership)
        count = rng.randint(0, len(membership) + 3)
        # the parts of the entities counted join through those entities only
        assert grouping.parts(count).tolist() == _parts_by_union_find(membership, count)


def test_parts_of_a_chain_take_its_least_group():
    grouping = Grouping("user", list("ABCDEFG"), [[5, 6], [4, 5], [3, 4], [], [1, 2], [6], [0]])
    assert grouping.parts(9).tolist() == [3, 3, 3, -1, 1, 3, 0, -1, -1]


@pytest.mark.parametrize("pairs, message", [
    ((3, [0, 2, 1], [0, 0, 1]),
     r"^pairs row 2: entity 1 after entity 2, not sorted by entity$"),
    ((3, [0, 1, 1, 2], [1, 0, 0, 0]),
     r"^pairs row 2: entity 1 listed twice in a group$"),
    ((3, [0, 1, 1], [1, 1, 0]),
     r"^pairs row 2: entity 1 lists group 0 after group 1, not sorted by group$"),
    ((3, [0, 1, 2], [1, 2, 0]),
     r"^pairs row 1: entity 1 references unknown group 2$"),
    ((3, [0, 0, 1], [0, -1, 0]),
     r"^pairs row 1: entity 0 lists group -1 after group 0, not sorted by group$"),
    ((3, [1, 1, 1], [-1, 0, 1]),
     r"^pairs row 0: entity 1 references unknown group -1$"),
    ((2, [0, 2], [0, 0]),
     r"^pairs row 1: entity 2 is not below the 2 entities$"),
    ((2, [-1, 0], [0, 0]),
     r"^pairs row 0: entity -1 is not below the 2 entities$"),
    # the ROADMAP's example: entity 0 given group 5 of 2
    ((3, [2, 0, 0], [1, 5, 5]),
     r"^pairs row 1: entity 0 after entity 2, not sorted by entity$"),
    # the first bad row wins over a worse fault later
    ((3, [0, 0, 1, 0], [0, 0, 9, 0]),
     r"^pairs row 1: entity 0 listed twice in a group$"),
    ((3, [0, 1], [0.0, 1.0]), r"^pairs must be two 1-d integer arrays of one length$"),
    ((3, [0, 1], [0]), r"^pairs must be two 1-d integer arrays of one length$"),
    ((3, [[0, 1]], [[0, 1]]), r"^pairs must be two 1-d integer arrays of one length$"),
])
def test_grouping_pairs_reject_the_first_bad_row(pairs, message):
    num, owner, group = pairs
    with pytest.raises(GroupingError, match=message):
        Grouping("item", ["A", "B"], pairs=(num, np.array(owner), np.array(group)))


def test_grouping_pairs_build_what_the_lists_build(rng):
    for _ in range(50):
        num_groups = rng.randint(1, 5)
        membership = [sorted(rng.sample(range(num_groups), rng.randint(0, num_groups)))
                      for _ in range(rng.randint(0, 6))]
        owner = np.array([e for e, m in enumerate(membership) for _ in m], dtype=np.int64)
        group = np.array([g for m in membership for g in m], dtype=np.int64)
        names = [str(g) for g in range(num_groups)]
        lists = Grouping("user", names, membership)
        arrays = Grouping("user", names, pairs=(len(membership), owner, group))
        for a, b in ((lists.offsets, arrays.offsets), (lists.flat, arrays.flat)):
            assert a.tolist() == b.tolist() and a.dtype == b.dtype


def test_params_reject_negative():
    with pytest.raises(GraphError):
        DivParams(beta=-1.0)


def test_uniform_negative_threshold_names_the_smallest_pair():
    # the first incident pairs are (0, 1) on both sides
    graph = RecGraph(["u1", "u2"], [1, 1], ["v1", "v2"],
                     [(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5)])
    ut = Grouping("user", ["X", "Y"], [[1], [0]])
    ic = Grouping("item", ["A", "B"], [[1], [0]])
    with pytest.raises(GraphError, match=r"user threshold \(0, 0\) is negative"):
        ThresholdTable.uniform(graph, ut, ic, rho=-1)
    with pytest.raises(GraphError, match=r"item threshold \(0, 0\) is negative"):
        ThresholdTable.uniform(graph, ut, ic, lam=-1)


def test_solution_selection_is_not_a_constructor_argument(three_item_graph):
    # a selection passed in would skip the checks add_edges makes
    graph, ut, ic, _ = three_item_graph
    with pytest.raises(TypeError):
        Solution(graph, ut, ic, selected=[[1, 0, 0]])
    assert Solution(graph, ut, ic).selected == [[]]


def test_new_solution_is_empty(three_item_graph):
    graph, ut, ic, th = three_item_graph
    sol = new_solution(graph, ut, ic)
    assert sol.num_selected() == 0
    assert sol.relevance() == 0.0
    assert eval_objective(sol, th, DivParams(1, 1)) == 0.0


def test_add_edge_updates_degrees(three_item_graph):
    # thresholds above every degree make TUDiv and TIDiv read the degrees:
    # only_v1 has the pairs (u1, A) and (v1, T), every has all pairs
    graph, ut, ic, _ = three_item_graph
    only_v1 = ThresholdTable({(0, 0): 9}, {(0, 0): 9})
    every = ThresholdTable({(0, 0): 9, (0, 1): 9}, {(v, 0): 9 for v in range(3)})
    sol = new_solution(graph, ut, ic)
    sol.add_edge(0)
    for th in (only_v1, every):
        assert (tudiv(sol, ic, th), tidiv(sol, ut, th)) == (1.0, 1.0)
        assert eval_objective(sol, th, DivParams(1, 0)) == 1.0 + sol.relevance()
        assert eval_objective(sol, th, DivParams(0, 1)) == 1.0 + sol.relevance()
    sol.add_edge(1)  # second item in category A
    assert tudiv(sol, ic, only_v1) == tudiv(sol, ic, every) == 2.0
    assert eval_objective(sol, only_v1, DivParams(1, 0)) == 2.0 + sol.relevance()


def test_add_edge_overlapping_membership_counts_all_groups():
    graph = RecGraph(["u"], [1], ["v"], [(0, 0, 0.1)])
    ut = Grouping("user", ["T"], [[0]])
    ic = Grouping("item", ["A", "B"], [[0, 1]])
    th = ThresholdTable({(0, 0): 1, (0, 1): 1})
    sol = new_solution(graph, ut, ic)
    sol.add_edge(0)
    assert tudiv(sol, ic, th) == 2.0
    assert eval_objective(sol, th, DivParams(1, 0)) == 2.0 + 0.1


def test_add_edge_errors(three_item_graph):
    graph, ut, ic, _ = three_item_graph
    sol = new_solution(graph, ut, ic)
    sol.add_edge(0)
    with pytest.raises(DuplicateEdgeError):
        sol.add_edge(0)
    sol.add_edge(1)
    with pytest.raises(CapacityError):
        sol.add_edge(2)


def _two_edge_graph():
    return RecGraph(["u"], [2], ["v1", "v2"], [(0, 0, 0.5), (0, 1, 0.8)])


def test_add_edges_rejects_a_negative_index():
    # -1 once read as the last edge, so edge 1 was selected twice
    sol = new_solution(_two_edge_graph())
    with pytest.raises(GraphError, match="edge index -1 is out of range for 2 edges"):
        sol.add_edges([-1, 1])
    assert sol.selected == [[]] and sol.relevance() == 0.0


def test_add_edges_rejects_an_index_past_the_edges_and_keeps_the_edges_before():
    sol = new_solution(_two_edge_graph())
    with pytest.raises(GraphError, match="edge index 5 is out of range for 2 edges"):
        sol.add_edge(5)
    with pytest.raises(GraphError, match=f"edge index {2**70} is out of range for 2 edges"):
        sol.add_edges([1, 2**70])
    assert sol.selected == [[1]]


@pytest.mark.parametrize("index", [0.0, True, "0", None])
def test_add_edges_rejects_a_non_integer_index(index):
    sol = new_solution(_two_edge_graph())
    with pytest.raises(GraphError, match=f"edge index {index!r} is not an integer"):
        sol.add_edges([np.int64(1), index])
    assert sol.selected == [[1]]


def test_add_edges_stores_python_ints():
    sol = new_solution(_two_edge_graph())
    sol.add_edges(np.array([1, 0]))
    assert sol.selected == [[0, 1]]
    assert all(type(e) is int for e in sol.selected[0] + sol.edge_indices())
    assert json.dumps(sol.selected) == "[[0, 1]]"


def test_add_edges_batch_sorts_lists_and_stops_at_the_bad_edge():
    # u0 owns edges 0, 1, 2 (c = 3); u1 owns edges 3, 4, 5 (c = 2)
    graph = RecGraph(["u0", "u1"], [3, 2], ["v0", "v1", "v2", "v3"],
                     [(0, 0, 0.1), (0, 1, 0.3), (0, 2, 0.4), (1, 0, 0.2), (1, 3, 0.5),
                      (1, 1, 0.6)])
    sol = new_solution(graph)
    sol.add_edges([2, 4, 0, 3])
    assert sol.selected == [[0, 2], [3, 4]]
    with pytest.raises(DuplicateEdgeError):
        sol.add_edges([1, 0, 5])  # 0 is already selected
    assert sol.selected == [[0, 1, 2], [3, 4]]
    assert 5 not in sol.edge_indices()

    sol = new_solution(graph)
    with pytest.raises(DuplicateEdgeError):
        sol.add_edges([5, 1, 5, 0])  # repeated within the batch
    assert sol.selected == [[1], [5]]
    assert sol.edge_indices() == [1, 5]

    sol = new_solution(graph)
    with pytest.raises(CapacityError):
        sol.add_edges([5, 2, 4, 3, 0])  # 3 is u1's third edge
    assert sol.selected == [[2], [4, 5]]
    assert sol.num_selected() == 3


def test_eval_objective_example(three_item_graph):
    graph, ut, ic, _ = three_item_graph
    th = ThresholdTable({(0, 0): 1, (0, 1): 1})
    sol = new_solution(graph, ut, ic)
    sol.add_edge(0)  # v1, rel .9, cat A
    sol.add_edge(2)  # v3, rel .1, cat B
    assert eval_objective(sol, th, DivParams(1, 0)) == pytest.approx(3.0, abs=1e-12)


def test_eval_objective_zero_params_is_relevance(three_item_graph):
    graph, ut, ic, th = three_item_graph
    sol = new_solution(graph, ut, ic)
    sol.add_edge(0)
    sol.add_edge(2)
    assert eval_objective(sol, th, DivParams(0, 0)) == pytest.approx(1.0)


def _recount_degrees(sol):
    uc, it = {}, {}
    for u, lst in enumerate(sol.selected):
        for e in lst:
            item = sol.graph.edges[e].item
            for a in sol.item_cats.groups_of(item):
                uc[(u, a)] = uc.get((u, a), 0) + 1
            for b in sol.user_types.groups_of(u):
                it[(item, b)] = it.get((item, b), 0) + 1
    return uc, it


def test_incremental_degrees_match_recount_randomized(rng):
    for i in range(50):
        graph, ut, ic, th, params = random_instance(rng, overlapping=(i % 2 == 0))
        sol = new_solution(graph, ut, ic)
        order = list(range(graph.num_edges))
        rng.shuffle(order)
        for e in order:
            u = graph.edges[e].user
            if len(sol.selected[u]) < graph.display_constraints[u]:
                sol.add_edge(e)
        uc, it = _recount_degrees(sol)
        expected = (params.beta * sum(min(th.rho(u, a), d) for (u, a), d in uc.items())
                    + params.mu * sum(min(th.lam(j, b), d) for (j, b), d in it.items())
                    + sol.relevance())
        assert eval_objective(sol, th, params) == expected
        for u in range(graph.num_users):
            assert len(sol.selected[u]) <= graph.display_constraints[u]


def test_eval_objective_matches_metrics_randomized(rng):
    for i in range(200):
        graph, ut, ic, th, params = random_instance(rng, overlapping=(i % 2 == 0))
        sol = new_solution(graph, ut, ic)
        for e in range(graph.num_edges):
            u = graph.edges[e].user
            if rng.random() < 0.5 and len(sol.selected[u]) < graph.display_constraints[u]:
                sol.add_edge(e)
        via_metrics = (
            params.beta * tudiv(sol, ic, th)
            + params.mu * tidiv(sol, ut, th)
            + sol.relevance()
        )
        assert eval_objective(sol, th, params) == pytest.approx(via_metrics, abs=1e-12)


# ---------------------------------------------------------------------------
# columnar graph contract


def test_graph_rejects_out_of_range_endpoint():
    for edges in ([(0, 3, 0.1)], [(2, 0, 0.1)], [(-1, 0, 0.1)], [(0, 0, 0.1), (0, -2, 0.2)]):
        with pytest.raises(GraphError, match="unknown endpoint"):
            RecGraph(["u0", "u1"], [1, 1], ["v0", "v1", "v2"], edges)


def test_graph_rejects_nan_relevance():
    with pytest.raises(GraphError, match="nan"):
        RecGraph(["u"], [1], ["v0", "v1"], [(0, 0, 0.5), (0, 1, math.nan)])


def test_graph_reports_the_first_bad_edge_in_index_order():
    # a duplicate before a negative relevance, and the reverse
    with pytest.raises(DuplicateEdgeError):
        RecGraph(["u"], [1], ["v0", "v1"], [(0, 0, 0.1), (0, 0, 0.2), (0, 1, -1.0)])
    with pytest.raises(GraphError, match="relevance"):
        RecGraph(["u"], [1], ["v0", "v1"], [(0, 1, -1.0), (0, 0, 0.1), (0, 0, 0.2)])


def test_graph_rejects_edges_out_of_user_order():
    with pytest.raises(GraphError, match=r"edge \(0,2\) follows an edge of user 1"):
        RecGraph(["u0", "u1"], [1, 1], ["v0", "v1", "v2"],
                 [(0, 0, 0.1), (1, 1, 0.2), (0, 2, 0.3), (1, 0, 0.4)])
    with pytest.raises(GraphError, match=r"edge \(1,0\) follows an edge of user 2"):
        RecGraph(["u0", "u1", "u2"], [1, 1, 1], ["v0"],
                 columns=(np.array([0, 2, 1]), np.array([0, 0, 0]), np.array([0.1] * 3)))
    # users may be skipped, and a user's edges need not be in item order
    graph = RecGraph(["u0", "u1", "u2"], [1, 1, 1], ["v0", "v1"],
                     [(0, 1, 0.1), (0, 0, 0.2), (2, 0, 0.3)])
    assert list(graph.user_edges) == [(0, 1), (), (2,)]


def test_graph_order_fault_loses_to_an_earlier_bad_endpoint():
    # edge 1 names an unknown item before edge 2 goes back to user 0
    with pytest.raises(GraphError, match="unknown endpoint"):
        RecGraph(["u0", "u1"], [1, 1], ["v0"], [(0, 0, 0.1), (1, 5, 0.2), (0, 0, 0.3)])
    # the order fault comes first, so it wins over a later bad endpoint,
    # duplicate or relevance
    with pytest.raises(GraphError, match="follows an edge of user 1"):
        RecGraph(["u0", "u1"], [1, 1], ["v0"],
                 [(1, 0, 0.1), (0, 0, 0.2), (1, 0, 0.3), (0, 9, -1.0)])


def test_graph_names_the_earliest_second_occurrence_whatever_the_key_order():
    # edge 2 repeats key 3 and edge 3 key 1; sorted keys meet the repeat of
    # key 1 first, and user 1's repeats sort after user 0's
    edges = [(0, 3, 0.1), (0, 1, 0.2), (0, 3, 0.3), (0, 1, 0.4), (1, 0, 0.5), (1, 0, 0.6)]
    with pytest.raises(DuplicateEdgeError, match=r"duplicate candidate edge \(0,3\)"):
        RecGraph(["u0", "u1"], [1, 1], ["v0", "v1", "v2", "v3"], edges)
    # an earlier bad endpoint or order fault still wins over the repeats
    with pytest.raises(GraphError, match=r"edge \(0,9\) references unknown endpoint"):
        RecGraph(["u0", "u1"], [1, 1], ["v0", "v1", "v2", "v3"],
                 [(0, 3, 0.1), (0, 9, 0.2), *edges[1:]])
    with pytest.raises(GraphError, match=r"edge \(0,2\) follows an edge of user 1"):
        RecGraph(["u0", "u1"], [1, 1], ["v0", "v1", "v2", "v3"],
                 [(0, 3, 0.1), (1, 1, 0.2), (0, 2, 0.2), *edges[1:]])
    # with the repeats first, the earliest of them wins over a later fault
    with pytest.raises(DuplicateEdgeError, match=r"\(0,3\)"):
        RecGraph(["u0", "u1"], [1, 1], ["v0", "v1", "v2", "v3"],
                 [*edges, (1, 7, 0.1), (0, 0, -1.0)])


def test_first_fault_keeps_the_first_row_and_within_it_the_earlier_check():
    made = []

    def error(name):
        def make(row):
            made.append((name, row))
            return ValueError(f"{name} at {row}")
        return make

    faults = FirstFault(6)
    faults.check(np.array([0, 0, 0, 1, 0, 1], dtype=bool), error("a"))
    faults.check(np.array([0, 0, 0, 1, 1, 0], dtype=bool), error("b"))  # row 3 again
    assert (faults.stop, str(faults.error)) == (3, "a at 3")
    # a later check sees only the rows before stop, and may mark fewer rows
    faults.check(np.array([0, 0, 0, 1, 1, 1], dtype=bool), error("c"))
    faults.check(np.array([0, 1], dtype=bool), error("d"))
    faults.check(np.array([1, 1], dtype=bool), error("e"))
    assert (faults.stop, str(faults.error)) == (0, "e at 0")
    assert made == [("a", 3), ("d", 1), ("e", 0)]
    with pytest.raises(ValueError, match="e at 0"):
        faults.raise_first()
    FirstFault(3).raise_first()  # no fault: nothing to raise


def test_graph_duplicate_among_many_edges_is_duplicate_error():
    edges = [(u, v, 0.5) for u in range(100) for v in range(100)]
    edges.insert(4218, (42, 17, 0.25))  # inside user 42's block
    with pytest.raises(DuplicateEdgeError, match=r"\(42,17\)"):
        RecGraph([f"u{u}" for u in range(100)], [1] * 100,
                 [f"v{v}" for v in range(100)], edges)


def test_graph_views_match_columns(rng):
    for _ in range(20):
        graph, *_ = random_instance(rng, max_users=6, max_items=9)
        users, items = graph.edge_user.tolist(), graph.edge_item.tolist()
        rels = graph.edge_rel.tolist()
        assert len(graph.edges) == graph.num_edges == len(users)
        for i, e in enumerate(graph.edges):
            assert (e.user, e.item, e.relevance, e.index) == (users[i], items[i], rels[i], i)
            assert graph.edges[i] == e
        assert graph.edges[-1] == graph.edges[graph.num_edges - 1]
        assert list(graph.user_edges) == [
            tuple(i for i in range(len(users)) if users[i] == u) for u in range(graph.num_users)
        ]
        with pytest.raises(IndexError):
            graph.edges[graph.num_edges]
        with pytest.raises(TypeError):
            graph.user_edges[0] += (0,)  # views hand out tuples
        with pytest.raises(ValueError):
            graph.edge_rel[0] = 1.0  # columns are read-only


def test_graph_edges_hold_python_scalars():
    # a numpy scalar's repr ("np.float64(0.5)") would corrupt TSV output
    graph = RecGraph(["u"], [1], ["v0", "v1"],
                     columns=(np.array([0, 0]), np.array([1, 0]), np.array([0.5, 0.25])))
    for e in [graph.edges[0], *graph.edges]:
        assert type(e.user) is int and type(e.item) is int and type(e.index) is int
        assert type(e.relevance) is float
    assert repr(graph.edges[0].relevance) == "0.5"
    assert graph.edge_user.dtype == np.int32 and graph.edge_rel.dtype == np.float64


def test_from_columns_matches_tuple_constructor(rng):
    for _ in range(20):
        graph, *_ = random_instance(rng)
        again = RecGraph(graph.user_ids, graph.display_constraints, graph.item_ids,
                         columns=(graph.edge_user.tolist(), graph.edge_item.tolist(),
                                  graph.edge_rel.tolist()))
        assert list(again.edges) == list(graph.edges)
        assert list(again.user_edges) == list(graph.user_edges)


# ---------------------------------------------------------------------------
# synthetic instances


def _instance_digest(graph, user_types, item_cats):
    h = hashlib.sha256()
    for e in graph.edges:
        h.update(f"{e.user}\t{e.item}\t{e.relevance.hex()}\n".encode())
    for grouping in (user_types, item_cats):
        h.update(repr([grouping.groups_of(i) for i in range(grouping.num_entities)]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("kwargs, edges, digest", [
    (dict(num_users=30, num_items=120, candidates_per_user=40, seed=1), 1200,
     "cf37fb4c968ab64cda9e9f428b1bc9ac52a4bb7321ad0e4e2cba0809e29c695e"),
    (dict(num_users=25, num_items=90, candidates_per_user=30, overlapping_cats=False,
          seed=2), 750,
     "50f0d62c60c514e7ce2b781fcd9602732cc88671321a58f3a7dd38d798fe22fd"),
    # every item is a candidate, so the last rounds draw from the few items
    # left; digest of the instance as ``Generator.choice`` drew it
    (dict(num_users=12, num_items=60, candidates_per_user=80, seed=3), 720,
     "9fb5d6a86b7e772b0b2beebfcecef1688276602f32704e67e741df58be0519fb"),
])
def test_movielens_shaped_is_pinned(kwargs, edges, digest):
    """Edges (relevance bits included) and memberships, as generated by the
    per-edge loop this generator had before it was vectorized."""
    graph, user_types, item_cats = movielens_shaped(**kwargs)
    assert graph.num_edges == edges
    assert _instance_digest(graph, user_types, item_cats) == digest


def test_movielens_shaped_relevances_pinned_across_round_chunks():
    """The relevances are rounded one chunk at a time; 75,000 edges span a
    chunk boundary.  Digest of the relevances rounded in one pass."""
    graph, _, _ = movielens_shaped(num_users=300, seed=7)
    assert graph.num_edges == 75_000 > ROUND_CHUNK
    assert hashlib.sha256(graph.edge_rel.tobytes()).hexdigest() == (
        "7c2ea301111d470227435c2c94e45c88f18ac635e2ed1bd7d0236a9679a8902b")


def test_uniform_thresholds_match_edge_by_edge_oracle(rng):
    for i in range(100):
        graph, ut, ic, _, _ = random_instance(rng, overlapping=(i % 2 == 0))
        uc, it = {}, {}
        for e in graph.edges:
            for a in ic.groups_of(e.item):
                uc[(e.user, a)] = 2
            for b in ut.groups_of(e.user):
                it[(e.item, b)] = 3
        table = ThresholdTable.uniform(graph, ut, ic, rho=2, lam=3)
        # the same pairs, in increasing (entity, group) order
        assert list(table.user_category.items()) == sorted(uc.items())
        assert list(table.item_type.items()) == sorted(it.items())


def test_ranked_lists_match_a_sort_of_each_users_edges(rng):
    # relevance descending, ties by edge index, cut at k
    for _ in range(100):
        graph, ut, ic, _, _ = random_instance(rng)
        # few distinct relevances, so that ties are common
        graph = RecGraph(graph.user_ids, graph.display_constraints, graph.item_ids,
                         columns=(graph.edge_user, graph.edge_item, graph.edge_rel.round(1)))
        sol = new_solution(graph, ut, ic)
        for u, edges in enumerate(graph.user_edges):
            sol.add_edges(rng.sample(edges, min(len(edges), graph.display_constraints[u])))
        rel, item = graph.edge_rel.tolist(), graph.edge_item.tolist()
        for k in (None, 1, 2):
            assert sol.ranked_lists(k) == [
                [item[e] for e in sorted(edges, key=lambda e: (-rel[e], e))][:k]
                for edges in sol.selected]
