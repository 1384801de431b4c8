"""The exact solver's optimum against an independent LP solve of the same
network, on 10k-edge reduction networks and on the random networks of
test_mincostflow.py.  Skipped when scipy is not installed."""

import random

import pytest

pytest.importorskip("scipy")

from recdiv.errors import NegativeCycleError  # noqa: E402
from recdiv.flownet import build_tdiv_network  # noqa: E402
from recdiv.graph import DivParams, RecGraph, ThresholdTable  # noqa: E402
from recdiv.mincostflow import solve_min_cost_flow  # noqa: E402
from recdiv.synth import movielens_shaped  # noqa: E402

from lp_oracle import lp_min_cost  # noqa: E402
from test_mincostflow import _random_network  # noqa: E402


def _every_other_pair_zero(table: dict) -> dict:
    return {pair: (rho if k % 2 else 0) for k, (pair, rho) in enumerate(table.items())}


def _uniform(graph, ut, ic):
    return graph, ThresholdTable.uniform(graph, ut, ic, rho=2, lam=2), DivParams(4.0, 0.2)


def _mu_zero(graph, ut, ic):
    return graph, ThresholdTable.uniform(graph, ut, ic, rho=2, lam=2), DivParams(4.0, 0.0)


def _lambda_zero(graph, ut, ic):
    return graph, ThresholdTable.uniform(graph, ut, ic, rho=2, lam=0), DivParams(4.0, 0.2)


def _half_zero_thresholds(graph, ut, ic):
    th = ThresholdTable.uniform(graph, ut, ic, rho=2, lam=2)
    th = ThresholdTable(_every_other_pair_zero(th.user_category),
                        _every_other_pair_zero(th.item_type))
    return graph, th, DivParams(4.0, 0.2)


def _constraints_above_candidates(graph, ut, ic):
    # every fourth user may show 260 items but has 250 candidates
    constraints = [260 if u % 4 == 0 else 20 for u in range(graph.num_users)]
    graph = RecGraph(graph.user_ids, constraints, graph.item_ids,
                     columns=(graph.edge_user, graph.edge_item, graph.edge_rel))
    return graph, ThresholdTable.uniform(graph, ut, ic, rho=2, lam=2), DivParams(4.0, 0.2)


@pytest.fixture(scope="module")
def ten_thousand_edges():
    graph, ut, ic = movielens_shaped(num_users=40, overlapping_cats=False, seed=7)
    assert graph.num_edges == 10_000
    return graph, ut, ic


@pytest.mark.parametrize("setting", [_uniform, _mu_zero, _lambda_zero, _half_zero_thresholds,
                                     _constraints_above_candidates])
def test_flow_optimum_matches_lp_at_ten_thousand_edges(ten_thousand_edges, setting):
    graph, ut, ic = ten_thousand_edges
    graph, th, params = setting(graph, ut, ic)
    net, _ = build_tdiv_network(graph, ut, ic, th, params)
    res = solve_min_cost_flow(net)
    assert res.feasible
    assert res.total_cost == lp_min_cost(net)
    if setting is _half_zero_thresholds:
        assert 0 in net.capacity  # zero-capacity bonus arcs
    if setting is _constraints_above_candidates:
        sink = graph.num_users
        slack = [a for a in range(net.arc_count)
                 if net.tail[a] < sink and net.head[a] == sink]
        assert any(res.flow[a] for a in slack)


def test_random_networks_match_lp():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(300):
        net = _random_network(rng)
        try:
            res = solve_min_cost_flow(net)
        except NegativeCycleError:
            continue
        # the LP finds no flow exactly where the solver reports infeasible
        assert lp_min_cost(net) == (res.total_cost if res.feasible else None)
        checked += res.feasible
    assert checked > 50
