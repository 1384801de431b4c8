import pytest

from recdiv.baselines import mmr, top_k, xquad
from recdiv.errors import GraphError
from recdiv.graph import Grouping, RecGraph
from recdiv.metrics import IntentProfile
from recdiv.synth import movielens_shaped

from loop_oracles import edge_case_instance, loop_mmr, loop_xquad
from oracles import random_instance


def test_top_k_sorts_and_truncates(three_item_graph):
    graph, _, _, _ = three_item_graph
    out = top_k(graph)
    assert out.items == [[0, 1]]
    assert out.scores == [[0.9, 0.8]]


def test_top_k_keeps_all_when_constraint_large():
    graph = RecGraph(["u"], [5], ["v1", "v2"], [(0, 0, 0.1), (0, 1, 0.9)])
    assert top_k(graph).items == [[1, 0]]


def test_top_k_equal_relevance_edge_order():
    graph = RecGraph(["u"], [2], ["v1", "v2", "v3"],
                     [(0, 0, 0.5), (0, 1, 0.5), (0, 2, 0.5)])
    assert top_k(graph).items == [[0, 1]]


def test_mmr_hand_trace():
    # v1(A, 1.0), v2(A, 0.9), v3(B, 0.5), lam=0.5, c=2: second-round scores
    # are 0.45 for v2 (zero distance) and 0.75 for v3.
    graph = RecGraph(["u"], [2], ["v1", "v2", "v3"],
                     [(0, 0, 1.0), (0, 1, 0.9), (0, 2, 0.5)])
    ic = Grouping("item", ["A", "B"], [[0], [0], [1]])
    out = mmr(graph, ic, 0.5)
    assert out.items == [[0, 2]]
    assert out.scores[0][1] == pytest.approx(0.75)


def test_mmr_single_slot_is_pure_relevance():
    graph = RecGraph(["u"], [1], ["v1", "v2"], [(0, 0, 0.2), (0, 1, 0.8)])
    ic = Grouping("item", ["A", "B"], [[0], [1]])
    assert mmr(graph, ic, 0.0).items == [[1]]


def test_mmr_rejects_bad_lambda(three_item_graph):
    graph, _, ic, _ = three_item_graph
    with pytest.raises(GraphError):
        mmr(graph, ic, 1.5)
    with pytest.raises(GraphError):
        xquad(graph, ic, IntentProfile.from_graph(graph, ic), -0.1)


def test_xquad_alternates_categories():
    # two categories p=(.5,.5), one candidate per category, equal rel, lam=0:
    # after picking from A, A's residual shrinks and B wins round two
    graph = RecGraph(["u"], [2], ["v1", "v2", "v3", "v4"],
                     [(0, 0, 0.5), (0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5)])
    ic = Grouping("item", ["A", "B"], [[0], [0], [1], [1]])
    intent = IntentProfile([{0: 0.5, 1: 0.5}],
                           [{0: 0.6, 1: 0.6, 2: 0.6, 3: 0.6}])
    out = xquad(graph, ic, intent, 0.0)
    picked_cats = [ic.groups_of(v)[0] for v in out.items[0]]
    assert picked_cats == [0, 1]


def test_xquad_saturated_category_degenerates_to_relevance():
    # single category; first pick has normalized rel 1, so every later
    # diversity term carries a (1-1)=0 factor
    graph = RecGraph(["u"], [3], ["v1", "v2", "v3"],
                     [(0, 0, 0.9), (0, 1, 0.4), (0, 2, 0.6)])
    ic = Grouping("item", ["A"], [[0], [0], [0]])
    intent = IntentProfile.from_graph(graph, ic)
    out = xquad(graph, ic, intent, 0.5)
    assert out.items == [[0, 2, 1]]


def test_lambda_one_collapses_to_top_k(rng):
    for i in range(60):
        graph, _, ic, _, _ = random_instance(rng, overlapping=(i % 2 == 0))
        base = top_k(graph).items
        assert mmr(graph, ic, 1.0).items == base
        intent = IntentProfile.from_graph(graph, ic)
        assert xquad(graph, ic, intent, 1.0).items == base


def test_rerankers_respect_constraints_and_candidates(rng):
    for _ in range(30):
        graph, _, ic, _, _ = random_instance(rng, overlapping=True)
        intent = IntentProfile.from_graph(graph, ic)
        for out in (top_k(graph), mmr(graph, ic, 0.3), xquad(graph, ic, intent, 0.3)):
            for u, items in enumerate(out.items):
                assert len(items) <= graph.display_constraints[u]
                assert len(set(items)) == len(items)
                cands = {graph.edges[e].item for e in graph.user_edges[u]}
                assert set(items) <= cands


def test_determinism(rng):
    graph, _, ic, _, _ = random_instance(rng, overlapping=True)
    intent = IntentProfile.from_graph(graph, ic)
    assert mmr(graph, ic, 0.4).items == mmr(graph, ic, 0.4).items
    assert xquad(graph, ic, intent, 0.4).items == xquad(graph, ic, intent, 0.4).items


def _bits(ranked):
    return ranked.items, [[s.hex() for s in row] for row in ranked.scores]


def test_rerankers_match_loop_oracles(rng):
    # items and the bits of every score against the O(c^2 n) MMR and the
    # full-rescan xQuAD
    instances = [edge_case_instance(rng, overlapping=i % 2 == 0) for i in range(240)]
    for seed in (1, 2):
        graph, _, ic = movielens_shaped(num_users=15, num_items=120, candidates_per_user=40,
                                        constraint=8, seed=seed)
        instances.append((graph, ic))
    for graph, ic in instances:
        intent = IntentProfile.from_graph(graph, ic)
        for lam in (0.0, 0.3, 0.5, 1.0):
            assert _bits(mmr(graph, ic, lam)) == _bits(loop_mmr(graph, ic, lam))
            assert _bits(xquad(graph, ic, intent, lam)) == _bits(loop_xquad(graph, ic, intent, lam))


def test_ranked_lists_record_the_edges_of_their_items(rng):
    instances = [edge_case_instance(rng, overlapping=i % 2 == 0) for i in range(60)]
    graph, _, ic = movielens_shaped(num_users=15, num_items=120, candidates_per_user=40,
                                    constraint=8, seed=3)
    instances.append((graph, ic))
    for graph, ic in instances:
        intent = IntentProfile.from_graph(graph, ic)
        for ranked in (top_k(graph), mmr(graph, ic, 0.5), xquad(graph, ic, intent, 0.5)):
            assert len(ranked.edges) == len(ranked.items) == graph.num_users
            for u, edges in enumerate(ranked.edges):
                assert graph.edge_item[edges].tolist() == ranked.items[u]
                assert (graph.edge_user[edges] == u).all()
