import random

import pytest

from recdiv.errors import GraphError, GroupingError
from recdiv.flownet import build_tdiv_network, solve_tdiv, solve_tdiv_detailed
from recdiv.graph import (
    DivParams,
    Grouping,
    RecGraph,
    ThresholdTable,
    eval_objective,
)
from recdiv.mincostflow import INF_CAP, solve_min_cost_flow, validate_flow
from recdiv.synth import movielens_shaped

from oracles import (brute_force_optimum, build_userdiv_network, random_instance,
                     widened_thresholds)

SCALE = 10**6


def _check_network_shape(graph, ut, ic, th, params, net, edge_arc):
    """Users, the sink, one node per incident (user, category) and (item,
    type) pair and nothing else; each pair has a bonus arc of its
    threshold's capacity and a free arc beside it; one arc per edge."""
    sink = graph.num_users
    cats = {(e.user, ic.groups_of(e.item)[0]) for e in graph.edges}
    types = {(e.item, ut.groups_of(e.user)[0]) for e in graph.edges}
    assert net.node_count == graph.num_users + 1 + len(cats) + len(types)
    assert net.arc_count == 2 * len(cats) + 2 * len(types) + graph.num_edges + graph.num_users
    into = [[] for _ in range(net.node_count)]
    out_of = [[] for _ in range(net.node_count)]
    for arc in range(net.arc_count):
        into[net.head[arc]].append(arc)
        out_of[net.tail[arc]].append(arc)
    cat_node, type_node = {}, {}
    for e, arc in enumerate(edge_arc):
        edge = graph.edges[e]
        assert (net.capacity[arc], net.cost[arc]) == (1, -round(edge.relevance * SCALE))
        cat_node.setdefault((edge.user, ic.groups_of(edge.item)[0]), net.tail[arc])
        type_node.setdefault((edge.item, ut.groups_of(edge.user)[0]), net.head[arc])
    # the gadget nodes are distinct and none of them is an item node
    gadgets = set(cat_node.values()) | set(type_node.values())
    assert len(gadgets) == len(cats) + len(types)
    assert gadgets == set(range(sink + 1, net.node_count))
    for (u, a), n in cat_node.items():
        bonus, free = (arc for arc in into[n] if net.tail[arc] == u)
        assert (net.capacity[bonus], net.cost[bonus]) == (th.rho(u, a), -round(params.beta * SCALE))
        assert (net.capacity[free], net.cost[free]) == (INF_CAP, 0)
    for (v, b), m in type_node.items():
        bonus, free = out_of[m]
        assert net.head[bonus] == net.head[free] == sink
        assert (net.capacity[bonus], net.cost[bonus]) == (th.lam(v, b), -round(params.mu * SCALE))
        assert (net.capacity[free], net.cost[free]) == (INF_CAP, 0)
    for u, c in enumerate(graph.display_constraints):
        assert net.supply[u] == c
        assert [(net.capacity[arc], net.cost[arc]) for arc in out_of[u]
                if net.head[arc] == sink] == [(c, 0)]
    assert net.supply[sink] == -sum(graph.display_constraints)


def test_tdiv_network_structure(three_item_graph, rng):
    graph, ut, ic, th = three_item_graph
    params = DivParams(1, 0.5)
    net, edge_arc = build_tdiv_network(graph, ut, ic, th, params, SCALE)
    # 1 user + sink + 2 (user, category) + 3 (item, type) nodes
    assert net.node_count == 1 + 1 + 2 + 3
    assert net.arc_count == 2 * 2 + 2 * 3 + 3 + 1
    _check_network_shape(graph, ut, ic, th, params, net, edge_arc)
    for _ in range(100):
        graph, ut, ic, th, params = random_instance(rng)
        net, edge_arc = build_tdiv_network(graph, ut, ic, th, params, SCALE)
        _check_network_shape(graph, ut, ic, th, params, net, edge_arc)


def test_tdiv_zero_thresholds_reduce_to_pure_relevance(three_item_graph):
    graph, ut, ic, _ = three_item_graph
    th = ThresholdTable()
    sol = solve_tdiv(graph, ut, ic, th, DivParams(1, 1), SCALE)
    # optimum is the two most relevant items
    assert sol.ranked_lists() == [[0, 1]]


def test_tdiv_zero_params_is_max_relevance(three_item_graph):
    graph, ut, ic, th = three_item_graph
    sol = solve_tdiv(graph, ut, ic, th, DivParams(0, 0), SCALE)
    assert eval_objective(sol, th, DivParams(0, 0)) == pytest.approx(1.7, abs=1e-5)
    assert sol.ranked_lists() == [[0, 1]]


def test_solve_tdiv_three_item_example(three_item_graph):
    graph, ut, ic, th = three_item_graph
    sol = solve_tdiv(graph, ut, ic, th, DivParams(1, 0), SCALE)
    assert sol.edge_indices() == [0, 2]  # v1 and v3
    assert eval_objective(sol, th, DivParams(1, 0)) == pytest.approx(3.0, abs=1e-5)


def test_solve_tdiv_single_edge_max_weight():
    graph = RecGraph(["u"], [1], ["v"], [(0, 0, 0.5)])
    ut = Grouping("user", ["T"], [[0]])
    ic = Grouping("item", ["A"], [[0]])
    th = ThresholdTable({(0, 0): 1}, {(0, 0): 1})
    sol = solve_tdiv(graph, ut, ic, th, DivParams(1, 1), SCALE)
    assert sol.edge_indices() == [0]
    assert eval_objective(sol, th, DivParams(1, 1)) == pytest.approx(2.5, abs=1e-5)


def test_non_disjoint_grouping_rejected():
    graph = RecGraph(["u"], [1], ["v"], [(0, 0, 0.5)])
    ut = Grouping("user", ["T"], [[0]])
    ic = Grouping("item", ["A", "B"], [[0, 1]])
    with pytest.raises(GroupingError):
        build_tdiv_network(graph, ut, ic, ThresholdTable(), DivParams(1, 1), SCALE)


def test_ungrouped_incident_entity_rejected():
    graph = RecGraph(["u"], [1], ["v"], [(0, 0, 0.5)])
    ut = Grouping("user", ["T"], [[0]])
    ic = Grouping("item", ["A"], [[]])
    with pytest.raises(GroupingError):
        build_tdiv_network(graph, ut, ic, ThresholdTable(), DivParams(1, 1), SCALE)


@pytest.mark.parametrize("user_groups, item_groups, message", [
    ([[0, 1], [0], [0]], [[0, 1], [], []], "user grouping must be disjoint"),
    ([[0], [], []], [[0, 1], [0], [0]], "user 1 is incident"),
    ([[0], [0], [0]], [[0, 1], [], []], "item grouping must be disjoint"),
    ([[0], [0], [0]], [[0], [], []], "item 1 is incident"),
], ids=["user overlap", "ungrouped user", "item overlap", "ungrouped item"])
def test_grouping_faults_name_the_user_side_first_and_the_smallest_entity(
        user_groups, item_groups, message):
    # the edges reach the items in decreasing order
    graph = RecGraph(["u1", "u2", "u3"], [1, 1, 1], ["v1", "v2", "v3"],
                     [(0, 2, 0.5), (1, 1, 0.5), (2, 0, 0.5)])
    ut = Grouping("user", ["T", "S"], user_groups)
    ic = Grouping("item", ["A", "B"], item_groups)
    with pytest.raises(GroupingError, match=message):
        build_tdiv_network(graph, ut, ic, ThresholdTable(), DivParams(1, 1), SCALE)


def test_scaled_cost_overflow_rejected():
    graph = RecGraph(["u"], [1], ["v"], [(0, 0, 1e300)])
    ut = Grouping("user", ["T"], [[0]])
    ic = Grouping("item", ["A"], [[0]])
    with pytest.raises(GraphError, match="scaled cost overflow"):
        build_tdiv_network(graph, ut, ic, ThresholdTable(), DivParams(1, 1), SCALE)


def test_bad_cost_scale_rejected(three_item_graph):
    graph, ut, ic, th = three_item_graph
    with pytest.raises(GraphError):
        build_tdiv_network(graph, ut, ic, th, DivParams(1, 0), 0)


def test_userdiv_network_all_categories_reachable():
    # user with edges into 3 distinct categories, c=3
    graph = RecGraph(
        ["u"], [3], ["v1", "v2", "v3"],
        [(0, 0, 0.0), (0, 1, 0.0), (0, 2, 0.0)],
    )
    ic = Grouping("item", ["A", "B", "C"], [[0], [1], [2]])
    net, _ = build_userdiv_network(graph, ic, SCALE)
    res = solve_min_cost_flow(net)
    assert res.feasible
    assert res.total_cost == -3 * SCALE


def test_userdiv_network_single_category():
    graph = RecGraph(["u"], [2], ["v1", "v2"], [(0, 0, 0.0), (0, 1, 0.0)])
    ic = Grouping("item", ["A"], [[0], [0]])
    net, _ = build_userdiv_network(graph, ic, SCALE)
    res = solve_min_cost_flow(net)
    assert res.feasible
    assert res.total_cost == -1 * SCALE



def test_userdiv_network_matches_closed_form(rng):
    # each user gains one unit per distinct category it can reach, at most
    # one per displayed item
    for _ in range(200):
        graph, _, ic, _, _ = random_instance(rng)
        net, _ = build_userdiv_network(graph, ic, SCALE)
        res = solve_min_cost_flow(net)
        assert res.feasible
        expected = 0
        for u in range(graph.num_users):
            cats = {a for e in graph.user_edges[u] for a in ic.groups_of(graph.edges[e].item)}
            expected += min(graph.display_constraints[u], len(cats))
        assert -res.total_cost == SCALE * expected

def test_under_full_user_allowed():
    # display constraint larger than the candidate pool: slack absorbs
    graph = RecGraph(["u"], [5], ["v"], [(0, 0, 0.7)])
    ut = Grouping("user", ["T"], [[0]])
    ic = Grouping("item", ["A"], [[0]])
    th = ThresholdTable({(0, 0): 1}, {(0, 0): 1})
    sol = solve_tdiv(graph, ut, ic, th, DivParams(1, 1), SCALE)
    assert sol.edge_indices() == [0]


def test_flow_exactness_randomized(rng):
    for i in range(120):
        graph, ut, ic, th, params = random_instance(rng)
        sol, net, res, edge_arc = solve_tdiv_detailed(graph, ut, ic, th, params, SCALE)
        obj = eval_objective(sol, th, params)
        _, best = brute_force_optimum(graph, ut, ic, th, params)
        assert abs(obj - best) <= 2 * graph.num_edges / SCALE
        # proof identity: -cost/scale = TDiv + rel
        assert abs(-res.total_cost / SCALE - obj) <= graph.num_edges / SCALE
        for u in range(graph.num_users):
            assert len(sol.selected[u]) <= graph.display_constraints[u]
        for arc in edge_arc:
            assert res.flow[arc] in (0, 1)


def test_flow_matches_brute_force_on_out_of_range_and_huge_thresholds(rng):
    # the network clamps a 10**12 threshold to 2**31 - 1, which caps no
    # degree either, and drops the entries that name no pair
    for _ in range(60):
        graph, ut, ic, th, params = random_instance(rng)
        wide = widened_thresholds(rng, graph, ut, ic, th)
        sol, _, res, _ = solve_tdiv_detailed(graph, ut, ic, wide, params, SCALE)
        obj = eval_objective(sol, wide, params)
        _, best = brute_force_optimum(graph, ut, ic, wide, params)
        assert abs(obj - best) <= 2 * graph.num_edges / SCALE
        assert abs(-res.total_cost / SCALE - obj) <= graph.num_edges / SCALE


def test_flow_optimum_pinned_at_ten_thousand_edges():
    # disjoint movielens_shaped with 40 users x 250 candidates
    graph, ut, ic = movielens_shaped(num_users=40, overlapping_cats=False, seed=7)
    th = ThresholdTable.uniform(graph, ut, ic, rho=2, lam=2)
    params = DivParams(4.0, 0.2)
    sol, net, res, _ = solve_tdiv_detailed(graph, ut, ic, th, params)
    assert graph.num_edges == 10_000
    assert res.total_cost == -3565240266
    assert abs(eval_objective(sol, th, params) - 3565.240266) <= graph.num_edges / SCALE
    assert validate_flow(net, res)


def test_all_ones_thresholds_recover_unthresholded_objective(rng):
    # with rho=lambda=1 the thresholded optimum equals the distinct-count one
    from recdiv.metrics import itemdiv, userdiv

    for _ in range(40):
        graph, ut, ic, _, params = random_instance(rng)
        ones = ThresholdTable.uniform(graph, ut, ic, 1, 1)
        sol = solve_tdiv(graph, ut, ic, ones, params, SCALE)
        obj = eval_objective(sol, ones, params)
        via_distinct = (
            params.beta * userdiv(sol, ic)
            + params.mu * itemdiv(sol, ut)
            + sol.relevance()
        )
        assert obj == pytest.approx(via_distinct, abs=1e-9)


def test_determinism(three_item_graph):
    graph, ut, ic, th = three_item_graph
    a = solve_tdiv(graph, ut, ic, th, DivParams(1, 0), SCALE)
    b = solve_tdiv(graph, ut, ic, th, DivParams(1, 0), SCALE)
    assert a.edge_indices() == b.edge_indices()
