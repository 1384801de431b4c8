import itertools
import random

import pytest

from recdiv.errors import GraphError, NegativeCycleError
from recdiv.flownet import build_tdiv_network
from recdiv.graph import DivParams, ThresholdTable
from recdiv.mincostflow import (
    INF_CAP,
    FlowNetwork,
    FlowResult,
    solve_min_cost_flow,
    to_dimacs,
    validate_flow,
)
from recdiv.synth import movielens_shaped


def _net(nodes, arcs, supplies):
    net = FlowNetwork(nodes)
    for tail, head, cap, cost in arcs:
        net.add_arc(tail, head, cap, cost)
    for node, s in supplies.items():
        net.set_supply(node, s)
    return net


def brute_force_min_cost(net):
    """Exhaustive enumeration over integral arc flows; None if infeasible.
    Only usable on tiny networks."""
    best = None
    ranges = [range(c + 1) for c in net.capacity]
    for flows in itertools.product(*ranges):
        balance = [0] * net.node_count
        for k, f in enumerate(flows):
            balance[net.tail[k]] -= f
            balance[net.head[k]] += f
        if all(balance[i] == -net.supply[i] for i in range(net.node_count)):
            cost = sum(f * c for f, c in zip(flows, net.cost))
            if best is None or cost < best:
                best = cost
    return best


def test_parallel_arcs_choose_cheapest_first():
    net = _net(2, [(0, 1, 1, 1), (0, 1, 2, 3)], {0: 2, 1: -2})
    res = solve_min_cost_flow(net)
    assert res.feasible
    assert res.flow == [1, 1]
    assert res.total_cost == 4


def test_negative_arc_routing():
    net = _net(3, [(0, 1, 1, -2), (1, 2, 1, 0), (0, 2, 2, 0)], {0: 1, 2: -1})
    res = solve_min_cost_flow(net)
    assert res.feasible
    assert res.total_cost == -2
    assert res.flow[0] == 1 and res.flow[1] == 1


def test_zero_supply_zero_flow():
    net = _net(3, [(0, 1, 5, 2), (1, 2, 5, -1)], {})
    res = solve_min_cost_flow(net)
    assert res.feasible
    assert res.flow == [0, 0]
    assert res.total_cost == 0


def test_infeasible_reported():
    net = _net(2, [(0, 1, 1, 0)], {0: 2, 1: -2})
    res = solve_min_cost_flow(net)
    assert not res.feasible


def test_unbalanced_supplies_rejected():
    net = _net(2, [(0, 1, 1, 0)], {0: 2, 1: -1})
    with pytest.raises(GraphError):
        solve_min_cost_flow(net)


def test_negative_cycle_detected():
    net = _net(3, [(0, 1, 1, -1), (1, 2, 1, -1), (2, 0, 1, -1)], {})
    with pytest.raises(NegativeCycleError):
        solve_min_cost_flow(net)


def test_validate_flow_rejects_bad_conservation():
    net = _net(3, [(0, 1, 2, 1), (1, 2, 2, 1)], {0: 1, 2: -1})
    bad = FlowResult(flow=[1, 0], total_cost=1, feasible=True, potentials=[0, 0, 0])
    assert not validate_flow(net, bad)
    good = solve_min_cost_flow(net)
    assert validate_flow(net, good)


def test_validate_flow_rejects_flow_outside_capacity_bounds():
    # each flow conserves and its cost matches: only a bound is broken
    net = _net(3, [(0, 1, 2, 1), (1, 2, 2, 1)], {0: 3, 2: -3})
    over = FlowResult(flow=[3, 3], total_cost=6, feasible=True, potentials=[0, 0, 0])
    assert not validate_flow(net, over)
    cycle = _net(2, [(0, 1, 2, 1), (1, 0, 2, 1)], {})
    negative = FlowResult(flow=[-1, -1], total_cost=-2, feasible=True, potentials=[0, 0])
    assert not validate_flow(cycle, negative)


def test_validate_flow_rejects_a_cost_that_disagrees_with_the_flow():
    net = _net(3, [(0, 1, 2, 1), (1, 2, 2, 1)], {0: 1, 2: -1})
    good = solve_min_cost_flow(net)
    assert validate_flow(net, good)
    off = FlowResult(flow=good.flow, total_cost=good.total_cost + 1, feasible=True,
                     potentials=good.potentials)
    assert not validate_flow(net, off)


def test_validate_flow_rejects_a_flow_vector_of_the_wrong_length():
    net = _net(3, [(0, 1, 2, 1), (1, 2, 2, 1)], {0: 1, 2: -1})
    short = FlowResult(flow=[1], total_cost=1, feasible=True, potentials=[0, 0, 0])
    with pytest.raises(GraphError, match="flow vector length"):
        validate_flow(net, short)


@pytest.mark.parametrize("tail, head", [(0, 2), (2, 0), (-1, 1)])
def test_add_arc_rejects_an_unknown_node(tail, head):
    with pytest.raises(GraphError, match="references unknown node"):
        FlowNetwork(2).add_arc(tail, head, 1, 0)


def test_add_arc_rejects_a_negative_capacity():
    with pytest.raises(GraphError, match="capacity must be >= 0"):
        FlowNetwork(2).add_arc(0, 1, -1, 0)


def test_validate_flow_zero_on_zero_supply():
    net = _net(2, [(0, 1, 3, 5)], {})
    res = FlowResult(flow=[0], total_cost=0, feasible=True, potentials=[0, 0])
    assert validate_flow(net, res)


def _random_network(rng):
    n = rng.randint(2, 8)
    m = rng.randint(1, 14)
    net = FlowNetwork(n)
    for _ in range(m):
        tail, head = rng.randrange(n), rng.randrange(n)
        if tail == head:
            continue
        net.add_arc(tail, head, rng.randint(0, 3), rng.randint(-3, 5))
    k = rng.randint(0, n // 2)
    sources = rng.sample(range(n), k)
    sinks = rng.sample([i for i in range(n) if i not in sources], k) if k else []
    for a, b in zip(sources, sinks):
        s = rng.randint(1, 3)
        net.supply[a] += s
        net.supply[b] -= s
    return net


def test_random_networks_match_enumeration(rng):
    checked = 0
    for _ in range(300):
        net = _random_network(rng)
        try:
            res = solve_min_cost_flow(net)
        except NegativeCycleError:
            continue
        expected = brute_force_min_cost(net)
        if expected is None:
            assert not res.feasible
        elif res.feasible:
            assert res.total_cost == expected
            assert validate_flow(net, res)
            assert all(isinstance(f, int) for f in res.flow)
            checked += 1
        else:
            # Solver may stop short only when no feasible flow exists.
            assert expected is None
    assert checked > 50


def test_complementary_slackness_on_random_networks(rng):
    for _ in range(200):
        net = _random_network(rng)
        try:
            res = solve_min_cost_flow(net)
        except NegativeCycleError:
            continue
        if not res.feasible:
            continue
        pi = res.potentials
        for k in range(net.arc_count):
            reduced = net.cost[k] + pi[net.tail[k]] - pi[net.head[k]]
            if res.flow[k] > 0:
                assert reduced <= 1e-9
            if res.flow[k] < net.capacity[k]:
                assert reduced >= -1e-9


def test_to_dimacs_text():
    net = _net(3, [(0, 1, 2, -1), (1, 2, 3, 4)], {0: 2, 2: -2})
    assert to_dimacs(net) == "p min 3 2\nn 1 2\nn 3 -2\na 1 2 0 2 -1\na 2 3 0 3 4\n"


def _assert_slackness(net, res):
    pi = res.potentials
    for k in range(net.arc_count):
        reduced = net.cost[k] + pi[net.tail[k]] - pi[net.head[k]]
        if res.flow[k] > 0:
            assert reduced <= 0
        if res.flow[k] < net.capacity[k]:
            assert reduced >= 0


def test_parallel_infinite_and_zero_capacity_arcs():
    # 5 units from 0 to 2.  Per unit: 1 on arc 0 (twice), 3 on its parallel
    # arc 1 (twice), 4 on the direct arc 4.  Arc 2 is cheaper still but has
    # no capacity.  Optimum 1+1+3+3+4 = 12, and arc 3 carries 4 units.
    net = _net(3, [(0, 1, 2, 1), (0, 1, 2, 3), (0, 1, 0, -10),
                   (1, 2, INF_CAP, 0), (0, 2, INF_CAP, 4)], {0: 5, 2: -5})
    res = solve_min_cost_flow(net)
    assert res.feasible
    assert res.flow == [2, 2, 0, 4, 1]
    assert res.total_cost == 12
    assert validate_flow(net, res)
    _assert_slackness(net, res)


# Optimal costs of reduction networks far beyond brute force, as found by
# the earlier successive-shortest-paths solver.
@pytest.mark.parametrize("seed, expected", [
    (1, -459476266), (2, -459197082), (3, -462543451),
])
def test_reduction_network_optimum_pinned(seed, expected):
    graph, user_types, item_cats = movielens_shaped(
        num_users=10, overlapping_cats=False, constraint=10, seed=seed
    )
    thresholds = ThresholdTable.uniform(graph, user_types, item_cats, rho=2, lam=2)
    net, _ = build_tdiv_network(graph, user_types, item_cats, thresholds, DivParams(4.0, 0.2))
    res = solve_min_cost_flow(net)
    assert res.feasible
    assert res.total_cost == expected
    assert validate_flow(net, res)
    _assert_slackness(net, res)
