import hashlib
import math
import random

import pytest

from recdiv.baselines import mmr, top_k
from recdiv.errors import GraphError, GroupingError
from recdiv.graph import DivParams, Grouping, RecGraph, ThresholdTable, new_solution
from recdiv.metrics import (
    CategoryClasses,
    IntentProfile,
    aggregate_diversity,
    div_edgewise,
    err_ia,
    gini,
    gini_index,
    ild,
    itemdiv,
    precision,
    tidiv,
    tudiv,
    userdiv,
    _cosine_distance,
)
from recdiv.synth import movielens_shaped

from loop_oracles import edge_case_instance, loop_err_ia, loop_ild, loop_intent_profile
from oracles import random_instance


def _one_user_solution(cats, thresholds=None):
    """One user with one edge per item; every edge selected."""
    n = len(cats)
    graph = RecGraph(["u"], [n], [f"v{j}" for j in range(n)],
                     [(0, j, 0.5) for j in range(n)])
    ut = Grouping("user", ["T"], [[0]])
    names = sorted({c for cs in cats for c in cs})
    idx = {c: i for i, c in enumerate(names)}
    ic = Grouping("item", names, [[idx[c] for c in cs] for cs in cats])
    sol = new_solution(graph, ut, ic)
    for e in range(n):
        sol.add_edge(e)
    return sol, ut, ic, idx


def test_tudiv_min_of_threshold_and_degree():
    sol, ut, ic, idx = _one_user_solution([["A"], ["A"], ["B"]])
    th = ThresholdTable({(0, idx["A"]): 1, (0, idx["B"]): 2})
    assert tudiv(sol, ic, th) == 2.0
    assert tudiv(sol, ic, ThresholdTable()) == 0.0


def test_tidiv_min_of_threshold_and_degree():
    # one item hit by three users of types {X, X, Y}
    graph = RecGraph(["u1", "u2", "u3"], [1, 1, 1], ["v"],
                     [(0, 0, 0.1), (1, 0, 0.1), (2, 0, 0.1)])
    ut = Grouping("user", ["X", "Y"], [[0], [0], [1]])
    ic = Grouping("item", ["A"], [[0]])
    sol = new_solution(graph, ut, ic)
    for e in range(3):
        sol.add_edge(e)
    th = ThresholdTable(item_type={(0, 0): 1, (0, 1): 1})
    assert tidiv(sol, ut, th) == 2.0
    assert tidiv(sol, ut, ThresholdTable()) == 0.0
    assert itemdiv(sol, ut) == 2.0


def test_userdiv_distinct_count_and_overlap():
    sol, _, ic, _ = _one_user_solution([["A"], ["A"], ["B"]])
    assert userdiv(sol, ic) == 2.0
    sol2, _, ic2, _ = _one_user_solution([["A", "B"]])
    assert userdiv(sol2, ic2) == 2.0


def test_all_ones_thresholds_recover_distinct_counts(rng):
    for i in range(40):
        graph, ut, ic, _, _ = random_instance(rng, overlapping=(i % 2 == 0))
        sol = new_solution(graph, ut, ic)
        for e in range(graph.num_edges):
            u = graph.edges[e].user
            if len(sol.selected[u]) < graph.display_constraints[u]:
                sol.add_edge(e)
        ones = ThresholdTable.uniform(graph, ut, ic, 1, 1)
        assert tudiv(sol, ic, ones) == userdiv(sol, ic)
        assert tidiv(sol, ut, ones) == itemdiv(sol, ut)


def test_div_edgewise_examples():
    sol, ut, ic, _ = _one_user_solution([["A"], ["A"]])
    # both edges: user's A-degree 2, each item's T-degree 1
    assert div_edgewise(sol, ut, ic, DivParams(1, 1)) == pytest.approx(3.0, abs=1e-12)
    single, ut1, ic1, _ = _one_user_solution([["A"]])
    assert div_edgewise(single, ut1, ic1, DivParams(1, 1)) == pytest.approx(2.0)
    assert div_edgewise(sol, ut, ic, DivParams(0, 0)) == 0.0


def test_div_edgewise_requires_disjoint():
    sol, ut, ic, _ = _one_user_solution([["A", "B"]])
    with pytest.raises(GroupingError):
        div_edgewise(sol, ut, ic, DivParams(1, 1))


def test_div_edgewise_identity_randomized(rng):
    # telescoping: sum of beta/deg over a user-category class is beta per
    # distinct class, so the edge-weight form equals the distinct-count form
    for _ in range(100):
        graph, ut, ic, _, params = random_instance(rng, overlapping=False)
        sol = new_solution(graph, ut, ic)
        for e in range(graph.num_edges):
            u = graph.edges[e].user
            if rng.random() < 0.6 and len(sol.selected[u]) < graph.display_constraints[u]:
                sol.add_edge(e)
        lhs = div_edgewise(sol, ut, ic, params)
        rhs = params.beta * userdiv(sol, ic) + params.mu * itemdiv(sol, ut)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_ild_fixtures():
    ic = Grouping("item", ["A", "B"], [[0], [0], [1], [0, 1]])
    assert ild([[0, 1]], ic) == 0.0  # identical category sets
    assert ild([[0, 2]], ic) == pytest.approx(1.0)  # disjoint sets
    # v3 in {A,B} vs v0 in {A}: sim = 1/sqrt(2)
    assert ild([[3, 0]], ic) == pytest.approx(1 - 1 / math.sqrt(2))
    assert ild([[0]], ic) == 0.0  # fewer than two items
    assert ild([], ic) == 0.0


def test_ild_empty_category_vector_distance_one():
    ic = Grouping("item", ["A"], [[0], []])
    assert ild([[0, 1]], ic) == pytest.approx(1.0)


def _lists_cut_at(k):
    """One user's items 0, 1, 2, ranked by relevance and cut at k, as the
    evaluation cuts every list before its metrics read it."""
    graph = RecGraph(["u"], [3], ["v1", "v2", "v3"], [(0, 0, 0.9), (0, 1, 0.8), (0, 2, 0.7)])
    sol = new_solution(graph)
    sol.add_edges([0, 1, 2])
    return sol.ranked_lists(k)


def test_ild_cutoff():
    ic = Grouping("item", ["A", "B"], [[0], [0], [1]])
    assert ild(_lists_cut_at(2), ic) == 0.0


def test_err_ia_fixtures():
    ic = Grouping("item", ["A"], [[0], [0]])
    intent = IntentProfile([{0: 1.0}], [{0: 1.0, 1: 0.5}])
    # rank 1 rel 1.0 scores 1; its residual (1-1.0) kills rank 2
    assert err_ia([[0, 1]], intent, ic) == pytest.approx(1.0, abs=1e-9)
    zero = IntentProfile([{0: 1.0}], [{0: 0.0, 1: 0.0}])
    assert err_ia([[0, 1]], zero, ic) == 0.0


def test_err_ia_out_of_category_contributes_zero():
    ic = Grouping("item", ["A", "B"], [[0], [1]])
    intent = IntentProfile([{0: 1.0}], [{0: 0.8, 1: 0.9}])
    only_first = IntentProfile([{0: 1.0}], [{0: 0.8}])
    assert err_ia([[0, 1]], intent, ic) == err_ia([[0]], only_first, ic)


def test_intent_profile_validation():
    with pytest.raises(GraphError):
        IntentProfile([{0: 0.7}], [{}])  # probs don't sum to 1
    with pytest.raises(GraphError):
        IntentProfile([{0: 1.0}], [{0: 1.5}])  # relevance out of range


def test_intent_profile_reads_back_its_dicts():
    rels = [{3: 0.5, 1: 1.0}, {}, {2: 0.0}]
    intent = IntentProfile([{0: 1.0}, {}, {0: 1.0}], rels)
    assert intent.norm_rel == rels and list(intent.norm_rel) == rels
    assert list(intent.norm_rel[0]) == [3, 1]  # in the dict's order
    assert intent.norm_rel[-1] == {2: 0.0} and intent.norm_rel != rels[:2]
    with pytest.raises(IndexError):
        intent.norm_rel[3]


def test_intent_profile_from_graph():
    graph = RecGraph(["u"], [2], ["v1", "v2"], [(0, 0, 0.2), (0, 1, 0.6)])
    ic = Grouping("item", ["A", "B"], [[0], [0, 1]])
    prof = IntentProfile.from_graph(graph, ic)
    assert prof.norm_rel[0] == {0: 0.0, 1: 1.0}
    # categories hit: A twice, B once
    assert prof.category_probs[0] == pytest.approx({0: 2 / 3, 1: 1 / 3})


def _profile_bits(intent):
    """Both dicts of every user, in insertion order, with exact values."""
    return ([[(a, p.hex()) for a, p in d.items()] for d in intent.category_probs],
            [[(v, r.hex()) for v, r in d.items()] for d in intent.norm_rel])


def _assert_matches_loop_oracles(graph, ic, lists):
    intent = IntentProfile.from_graph(graph, ic)
    oracle = loop_intent_profile(graph, ic)
    assert _profile_bits(intent) == _profile_bits(oracle)
    for k in (None, 2):
        cut = [items[:k] for items in lists]
        assert err_ia(cut, intent, ic).hex() == err_ia(cut, oracle, ic).hex()
        assert err_ia(cut, intent, ic).hex() == loop_err_ia(lists, intent, ic, k).hex()
        assert ild(cut, ic).hex() == loop_ild(lists, ic, k).hex()
    return intent


def test_err_ia_matches_loop_oracle_on_top_k_lists():
    # the random and edge-case instances go through _assert_matches_loop_oracles
    graph, _, ic = movielens_shaped(num_users=500, seed=3)
    lists = top_k(graph).items
    intent = IntentProfile.from_graph(graph, ic)
    for k in (None, 5):
        cut = [items[:k] for items in lists]
        assert err_ia(cut, intent, ic).hex() == loop_err_ia(lists, intent, ic, k).hex()


def test_intent_profile_and_ild_match_loop_oracles(rng):
    for i in range(240):
        graph, ic = edge_case_instance(rng, overlapping=i % 2 == 0)
        _assert_matches_loop_oracles(graph, ic, mmr(graph, ic, 0.3).items)


# u1 has v1 (A) and v2 (A, B); u2 has v3 (no categories) and v4 (past the
# membership list); u3 has no candidates
_EDGES = [(0, 0), (0, 1), (1, 2), (1, 3)]


@pytest.mark.parametrize("rels", [[], [0.4] * 4, [0.0, -0.0, 0.5, 0.25],
                                  [-0.0, 0.0, 0.5, 0.25]])
def test_intent_profile_edge_cases_match_loop_oracles(rels):
    graph = RecGraph(["u1", "u2", "u3"], [2, 2, 2], ["v1", "v2", "v3", "v4"],
                     [(u, v, r) for (u, v), r in zip(_EDGES, rels)])
    ic = Grouping("item", ["A", "B"], [[0], [0, 1], []])
    intent = _assert_matches_loop_oracles(graph, ic, [[0, 1], [2, 3], []])
    assert intent.category_probs[1] == {} and intent.category_probs[2] == {}
    if not rels:
        assert intent.norm_rel == [{}, {}, {}]
    elif len(set(rels)) == 1:
        assert all(r == 1.0 for d in intent.norm_rel for r in d.values())


def test_category_classes_hold_cosine_distance(rng):
    for i in range(100):
        _, ic = edge_case_instance(rng, overlapping=i % 2 == 0)
        table = CategoryClasses(ic)
        items = range(ic.num_entities + 2)
        classes = table.classes(items)
        for x in items:
            for y in items:
                expected = _cosine_distance(ic.groups_of(x), ic.groups_of(y))
                assert table.dist[classes[x]][classes[y]].hex() == expected.hex()


def test_gini_fixtures():
    assert gini_index([1, 1, 1]) == pytest.approx(1.0, abs=1e-12)
    assert gini_index([1, 1, 2]) == pytest.approx(5 / 6, abs=1e-12)
    assert gini_index([0, 0, 3]) == pytest.approx(1 / 3, abs=1e-12)
    assert gini_index([0, 0, 0]) == 0.0
    assert gini_index([]) == 0.0


def test_gini_from_lists_includes_zero_degree_items():
    # catalog of 3, only item 0 ever recommended: degrees [0,0,2]
    assert gini([[0], [0]], catalog_size=3) == pytest.approx(gini_index([0, 0, 2]))


def test_gini_concentration_extreme_grows():
    g_small = gini_index([0] * 4 + [10])
    g_large = gini_index([0] * 99 + [10])
    assert g_large < g_small  # more inequitable as the catalog grows


def test_aggregate_diversity():
    assert aggregate_diversity([[0], [1]], 4) == 0.5
    assert aggregate_diversity([], 4) == 0.0
    assert aggregate_diversity([[0, 1], [2, 3]], 4) == 1.0
    assert aggregate_diversity([[0]], 0) == 0.0


def test_precision_fixtures():
    lists = [[0, 1]]
    assert precision(lists, {0: {0}}, [2]) == 0.5
    assert precision(lists, {0: {0, 1, 2}}, [2]) == 1.0
    assert precision(lists, {0: {5}}, [2]) == 0.0
    with pytest.raises(GraphError):
        precision(lists, {}, [2])


def test_precision_cutoff():
    assert precision(_lists_cut_at(2), {0: {2}}, [3]) == 0.0


def test_metrics_permutation_invariance(rng):
    ic = Grouping("item", ["A", "B", "C"], [[0], [1], [2], [0, 1]])
    lists = [[0, 3], [1, 2]]
    shuffled = [[3, 0], [2, 1]]
    assert gini(lists, 4) == gini(shuffled, 4)
    assert aggregate_diversity(lists, 4) == aggregate_diversity(shuffled, 4)
    assert ild(lists, ic) == pytest.approx(ild(shuffled, ic))  # symmetric distance


def test_diversity_metrics_pinned():
    # exact values of the five diversity metrics over random solutions, on
    # disjoint and overlapping groupings with some entities left ungrouped;
    # div_edgewise only where both groupings are disjoint; the digest was
    # taken from the per-metric counting loops these metrics had before they
    # shared one degree count per side
    rng = random.Random(6061)
    h = hashlib.sha256()
    for i in range(100):
        graph, ut, ic, th, params = random_instance(rng, overlapping=(i % 2 == 1))
        if i % 3 == 0:
            ut = Grouping("user", ut.group_ids, [ut.groups_of(i) if rng.random() < 0.7 else []
                                                 for i in range(ut.num_entities)])
            ic = Grouping("item", ic.group_ids, [ic.groups_of(i) if rng.random() < 0.7 else []
                                                 for i in range(ic.num_entities)])
        sol = new_solution(graph, ut, ic)
        for e in rng.sample(range(graph.num_edges), graph.num_edges):
            u = graph.edges[e].user
            if rng.random() < 0.7 and len(sol.selected[u]) < graph.display_constraints[u]:
                sol.add_edge(e)
        values = [tudiv(sol, ic, th), tidiv(sol, ut, th), userdiv(sol, ic), itemdiv(sol, ut)]
        if ut.disjoint and ic.disjoint:
            values.append(div_edgewise(sol, ut, ic, params))
        h.update(" ".join(v.hex() for v in values).encode() + b"\n")
    assert h.hexdigest() == "da3ae0580d6613fa7202fe3d8fbd6c8c07cd746ee31113f6a329d4cce916ff64"
