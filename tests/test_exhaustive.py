import pytest

from recdiv.graph import DivParams, Grouping, RecGraph, ThresholdTable, eval_objective

from oracles import (InstanceTooLargeError, brute_force_optimum, objective_from_scratch,
                     random_instance)


def test_objective_from_scratch_fixture(three_item_graph):
    graph, ut, ic, th = three_item_graph
    got = objective_from_scratch(graph, ut, ic, th, DivParams(1, 0), [0, 2])
    assert got == pytest.approx(3.0, abs=1e-12)
    assert objective_from_scratch(graph, ut, ic, th, DivParams(1, 0), []) == 0.0


def test_brute_force_three_item_example(three_item_graph):
    graph, ut, ic, th = three_item_graph
    sol, best = brute_force_optimum(graph, ut, ic, th, DivParams(1, 0))
    assert sol.edge_indices() == [0, 2]
    assert best == pytest.approx(3.0)


def test_brute_force_allows_underfull_users():
    # with zero relevance and zero thresholds every subset ties at 0;
    # the lexicographic rule then picks the empty selection
    graph = RecGraph(["u"], [2], ["v1", "v2"], [(0, 0, 0.0), (0, 1, 0.0)])
    ut = Grouping("user", ["T"], [[0]])
    ic = Grouping("item", ["A"], [[0], [0]])
    sol, best = brute_force_optimum(graph, ut, ic, ThresholdTable(), DivParams(1, 1))
    assert best == 0.0
    assert sol.edge_indices() == []


def test_brute_force_guard_trips():
    n = 40
    graph = RecGraph(
        ["u"], [20], [f"v{j}" for j in range(n)],
        [(0, j, 0.5) for j in range(n)],
    )
    ut = Grouping("user", ["T"], [[0]])
    ic = Grouping("item", ["A"], [[0]] * n)
    with pytest.raises(InstanceTooLargeError):
        brute_force_optimum(graph, ut, ic, ThresholdTable(), DivParams(1, 1))


def test_brute_force_dominates_any_feasible_set(rng):
    for i in range(40):
        graph, ut, ic, th, params = random_instance(rng, overlapping=(i % 2 == 0))
        _, best = brute_force_optimum(graph, ut, ic, th, params)
        # random feasible selections never beat the enumerated optimum
        for _ in range(20):
            remaining = list(graph.display_constraints)
            chosen = []
            for e in range(graph.num_edges):
                u = graph.edges[e].user
                if remaining[u] > 0 and rng.random() < 0.5:
                    remaining[u] -= 1
                    chosen.append(e)
            got = objective_from_scratch(graph, ut, ic, th, params, chosen)
            assert got <= best + 1e-12


def test_brute_force_solution_consistent_with_eval(rng):
    for _ in range(20):
        graph, ut, ic, th, params = random_instance(rng)
        sol, best = brute_force_optimum(graph, ut, ic, th, params)
        assert eval_objective(sol, th, params) == pytest.approx(best, abs=1e-12)
