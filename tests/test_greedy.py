import hashlib

import numpy as np
import pytest

from recdiv.errors import DuplicateEdgeError
from recdiv.graph import (
    DivParams,
    Grouping,
    RecGraph,
    ThresholdTable,
    csr_offsets,
    eval_objective,
    new_solution,
)
from recdiv import greedy
from recdiv.greedy import _pair_indexes, _selection_order, greedy_solve
from recdiv.synth import movielens_shaped

from oracles import (brute_force_optimum, marginal_gain, naive_greedy, objective_from_scratch,
                     random_instance, widened_thresholds)


def test_marginal_gain_two_cats_one_type():
    # empty solution; item in 2 unsaturated categories, user in 1 unsaturated
    # type, rel 0.3, beta=1, mu=2 -> 0.3 + 1*2 + 2*1 = 4.3
    graph = RecGraph(["u"], [1], ["v"], [(0, 0, 0.3)])
    ut = Grouping("user", ["T"], [[0]])
    ic = Grouping("item", ["A", "B"], [[0, 1]])
    th = ThresholdTable({(0, 0): 1, (0, 1): 1}, {(0, 0): 1})
    sol = new_solution(graph, ut, ic)
    assert marginal_gain(sol, 0, th, DivParams(1, 2)) == pytest.approx(4.3, abs=1e-12)


def test_marginal_gain_saturated_is_relevance():
    graph = RecGraph(["u"], [2], ["v1", "v2"], [(0, 0, 0.5), (0, 1, 0.4)])
    ut = Grouping("user", ["T"], [[0]])
    ic = Grouping("item", ["A"], [[0], [0]])
    th = ThresholdTable({(0, 0): 1}, {(0, 0): 1, (1, 0): 1})
    sol = new_solution(graph, ut, ic)
    sol.add_edge(0)  # saturates the user's category A and leaves v2's pair open
    th_sat = ThresholdTable({(0, 0): 1}, {(0, 0): 1, (1, 0): 0})
    assert marginal_gain(sol, 1, th_sat, DivParams(1, 2)) == pytest.approx(0.4)


def test_marginal_gain_zero_thresholds_is_relevance(three_item_graph):
    graph, ut, ic, _ = three_item_graph
    sol = new_solution(graph, ut, ic)
    assert marginal_gain(sol, 0, ThresholdTable(), DivParams(3, 5)) == pytest.approx(0.9)


def test_marginal_gain_rejects_selected_edge(three_item_graph):
    graph, ut, ic, th = three_item_graph
    sol = new_solution(graph, ut, ic)
    sol.add_edge(0)
    with pytest.raises(DuplicateEdgeError):
        marginal_gain(sol, 0, th, DivParams(1, 1))


def test_greedy_hand_trace(three_item_graph):
    # first pick v1 (0.9 + beta + mu); A saturates, so v2's key drops to
    # 0.8 + mu while v3 still carries its category bonus: v3 wins round two.
    graph, ut, ic, th = three_item_graph
    sol = greedy_solve(graph, ut, ic, th, DivParams(1, 0))
    assert sol.edge_indices() == [0, 2]


def test_greedy_relevance_only_keeps_top(three_item_graph):
    graph, ut, ic, _ = three_item_graph
    sol = greedy_solve(graph, ut, ic, ThresholdTable(), DivParams(1, 1))
    assert sol.edge_indices() == [0, 1]


def test_greedy_tie_break_lowest_edge_index():
    graph = RecGraph(["u"], [1], ["v1", "v2"], [(0, 0, 0.5), (0, 1, 0.5)])
    ut = Grouping("user", ["T"], [[0]])
    ic = Grouping("item", ["A"], [[0], [0]])
    th = ThresholdTable({(0, 0): 1})
    sol = greedy_solve(graph, ut, ic, th, DivParams(1, 1))
    naive = naive_greedy(graph, ut, ic, th, DivParams(1, 1))
    assert sol.edge_indices() == naive.edge_indices() == [0]


def test_greedy_respects_constraints(rng):
    for _ in range(30):
        graph, ut, ic, th, params = random_instance(rng, overlapping=True)
        sol = greedy_solve(graph, ut, ic, th, params)
        for u in range(graph.num_users):
            assert len(sol.selected[u]) <= graph.display_constraints[u]


def test_greedy_matches_naive_randomized(rng):
    for i in range(150):
        graph, ut, ic, th, params = random_instance(rng, overlapping=(i % 2 == 0))
        fast = greedy_solve(graph, ut, ic, th, params)
        slow = naive_greedy(graph, ut, ic, th, params)
        assert fast.edge_indices() == slow.edge_indices()


def test_greedy_half_of_optimum_randomized(rng):
    for i in range(80):
        graph, ut, ic, th, params = random_instance(rng, overlapping=(i % 2 == 0))
        sol = greedy_solve(graph, ut, ic, th, params)
        _, best = brute_force_optimum(graph, ut, ic, th, params)
        got = eval_objective(sol, th, params)
        assert got >= 0.5 * best - 1e-9


def test_key_correctness_at_each_extraction(rng):
    # replay the fast greedy's picks and confirm each popped edge attains the
    # max fresh marginal among all still-addable edges
    for i in range(40):
        graph, ut, ic, th, params = random_instance(rng, overlapping=(i % 2 == 0))
        fast = greedy_solve(graph, ut, ic, th, params)
        picks = sorted(fast.edge_indices())
        order = []
        sol = new_solution(graph, ut, ic)
        remaining = list(graph.display_constraints)
        pick_set = set(picks)
        # reconstruct the pick order by repeated argmax over the picked set;
        # equality with naive greedy already pins the set, this pins the keys
        unused = set(range(graph.num_edges))
        while True:
            cands = [
                e for e in unused
                if remaining[graph.edges[e].user] > 0
            ]
            if not cands:
                break
            gains = {e: marginal_gain(sol, e, th, params) for e in cands}
            best = max(cands, key=lambda e: (gains[e], -e))
            assert best in pick_set
            order.append(best)
            remaining[graph.edges[best].user] -= 1
            sol.add_edge(best)
            unused.discard(best)
        assert sorted(order) == picks


def test_monotone_work_bound(rng):
    for _ in range(50):
        graph, ut, ic, th, params = random_instance(rng, overlapping=True)
        sol, stats = greedy_solve(graph, ut, ic, th, params, collect_stats=True)
        # global pops: one per selection, plus lazy refreshes bounded by the
        # key decreases, plus at most two leftover entries per user
        assert stats["pops"] <= (
            sol.num_selected() + stats["decrease_keys"] + 2 * graph.num_users
        )
        bound = 0
        for e in graph.edges:
            bound += len(ic.groups_of(e.item))  # user-side saturation events
            bound += len(ut.groups_of(e.user))  # item-side saturation events
        assert stats["decrease_keys"] <= bound


def _random_feasible_sets(rng, graph):
    """Nested pair X ⊆ Y of constraint-respecting edge sets."""
    remaining = list(graph.display_constraints)
    y = []
    order = list(range(graph.num_edges))
    rng.shuffle(order)
    for e in order:
        u = graph.edges[e].user
        if remaining[u] > 0 and rng.random() < 0.7:
            remaining[u] -= 1
            y.append(e)
    x = [e for e in y if rng.random() < 0.5]
    return x, y


def test_submodularity_and_monotonicity(rng):
    checks = 0
    while checks < 1200:
        graph, ut, ic, th, params = random_instance(rng, overlapping=True)
        x, y = _random_feasible_sets(rng, graph)
        outside = [e for e in range(graph.num_edges) if e not in y]
        if not outside:
            continue
        e = rng.choice(outside)
        fx = objective_from_scratch(graph, ut, ic, th, params, x)
        fy = objective_from_scratch(graph, ut, ic, th, params, y)
        fxe = objective_from_scratch(graph, ut, ic, th, params, x + [e])
        fye = objective_from_scratch(graph, ut, ic, th, params, y + [e])
        assert fxe - fx >= fye - fy - 1e-9  # diminishing returns
        assert fxe >= fx - 1e-9  # monotone
        assert fy >= fx - 1e-9
        checks += 1


def _shuffled_tied_instance(rng):
    """Each user's edges in random (not item) order, relevances from three
    values so keys tie, one user without candidates, some thresholds 0 and
    some entities in no group."""
    nu = rng.randint(2, 6)
    ni = rng.randint(1, 7)
    ncat = rng.randint(1, 3)
    ntype = rng.randint(1, 3)
    empty_user = rng.randrange(nu)
    edges = [(u, v, rng.choice((0.0, 0.25, 0.5)))
             for u in range(nu) for v in range(ni)
             if u != empty_user and rng.random() < 0.7]
    if not edges:
        edges.append(((empty_user + 1) % nu, 0, 0.5))
    rng.shuffle(edges)
    edges.sort(key=lambda edge: edge[0])  # grouped by user, each in shuffled order
    graph = RecGraph([f"u{i}" for i in range(nu)],
                     [rng.randint(1, 3) for _ in range(nu)],
                     [f"v{j}" for j in range(ni)], edges)

    def memberships(n, ngroups):
        return [sorted(rng.sample(range(ngroups), rng.randint(0, ngroups)))
                for _ in range(n)]

    ut = Grouping("user", [f"T{b}" for b in range(ntype)], memberships(nu, ntype))
    ic = Grouping("item", [f"C{a}" for a in range(ncat)], memberships(ni, ncat))
    th = ThresholdTable(
        {(u, a): rng.randint(0, 2) for u in range(nu) for a in range(ncat)},
        {(v, b): rng.randint(0, 2) for v in range(ni) for b in range(ntype)},
    )
    params = DivParams(rng.choice((0.0, 0.25, 1.0)), rng.choice((0.0, 0.25, 1.0)))
    return graph, ut, ic, th, params


def test_greedy_matches_naive_on_shuffled_tied_edges(rng):
    # edge index order differs from item order within a user, and tied keys
    # must still go to the lowest edge index
    for _ in range(300):
        graph, ut, ic, th, params = _shuffled_tied_instance(rng)
        fast = greedy_solve(graph, ut, ic, th, params)
        slow = naive_greedy(graph, ut, ic, th, params)
        assert fast.edge_indices() == slow.edge_indices()
        assert fast.selected == slow.selected


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _assert_pinned(num_users, seed, pops, decrease_keys, objective, digests):
    graph, ut, ic = movielens_shaped(num_users=num_users, seed=seed)
    th = ThresholdTable.uniform(graph, ut, ic, rho=2, lam=2)
    params = DivParams(4, 0.2)
    sol, stats = greedy_solve(graph, ut, ic, th, params, collect_stats=True)
    assert stats == {"pops": pops, "decrease_keys": decrease_keys}
    assert (_digest(sol.selected),) == digests
    assert eval_objective(sol, th, params) == objective


@pytest.mark.parametrize("seed, pops, decrease_keys, objective, digests", [
    (3, 5459, 68274, 30146.863944999997, (
        "24e992b9a456d0d0c28396745b8b7f81d3804782f50ac211130bdddcf218f419",)),
    (4, 5474, 68383, 30167.081907, (
        "d13b0b5060ada6c5ddd1a587a3d8b2f154ff2d70840cc349c669e6afe9b1d686",)),
])
def test_greedy_counters_and_output_pinned(seed, pops, decrease_keys, objective, digests):
    # values from the per-user-heap greedy: the work counters, the selection
    # and the objective (whose last bits follow the order edges enter the
    # selected set) must repeat exactly
    _assert_pinned(200, seed, pops, decrease_keys, objective, digests)


def test_greedy_counters_and_output_pinned_at_a_million_edges():
    # the benchmark-sized instance, whose (item, type) pending lists (mean
    # about 100 edges) are long enough to stress their numpy updates; values
    # from the greedy that lowered those keys one edge at a time
    _assert_pinned(4000, 7, 117683, 1890922, 595267.325149, (
        "7b818ff76c2028d50f9a623f3487d30fd8c7541d880416d3a25691b8dea87ac8",))


def test_greedy_ignores_threshold_entries_no_pair_reaches(rng):
    # entries for an entity or group outside the grouping, and for group ids
    # past the grouping's width (whose pair keys owner*width + group would
    # alias another owner's pair), must neither change the selection nor
    # reach the objective; the shuffled instances also leave entities
    # without a group
    for i in range(120):
        graph, ut, ic, th, params = (_shuffled_tied_instance(rng) if i % 3 == 0
                                     else random_instance(rng, overlapping=(i % 2 == 0)))
        uc, it = dict(th.user_category), dict(th.item_type)
        for _ in range(4):
            past_cat = ic.num_groups + rng.randrange(2 * ic.num_groups + 2)
            past_type = ut.num_groups + rng.randrange(2 * ut.num_groups + 2)
            uc[(rng.randrange(graph.num_users), past_cat)] = rng.randint(1, 3)
            uc[(graph.num_users + rng.randrange(3), rng.randrange(ic.num_groups))] = 2
            it[(rng.randrange(graph.num_items), past_type)] = rng.randint(1, 3)
            it[(graph.num_items + rng.randrange(3), rng.randrange(ut.num_groups))] = 2
        wide = ThresholdTable(uc, it)
        fast = greedy_solve(graph, ut, ic, wide, params)
        slow = naive_greedy(graph, ut, ic, wide, params)
        assert fast.selected == slow.selected
        assert eval_objective(fast, wide, params) == eval_objective(fast, th, params)


def test_greedy_matches_naive_on_out_of_range_and_huge_thresholds(rng):
    for i in range(80):
        graph, ut, ic, th, params = random_instance(rng, overlapping=(i % 2 == 0))
        wide = widened_thresholds(rng, graph, ut, ic, th)
        fast = greedy_solve(graph, ut, ic, wide, params)
        slow = naive_greedy(graph, ut, ic, wide, params)
        assert fast.selected == slow.selected
        assert eval_objective(fast, wide, params) == pytest.approx(
            objective_from_scratch(graph, ut, ic, wide, params, fast.edge_indices()), abs=1e-12)


def test_greedy_matches_naive_when_live_counts_pass_a_byte(rng, monkeypatch):
    # an item in 130 categories gives its edges 130 live (user, category)
    # pairs, more than the int8 live counts hold; with blocks of 5 edges
    # each user's 4 edges are a block of their own, so that item's edges
    # lie in three blocks of the (user, category) build
    for trial in range(10):
        monkeypatch.setattr(greedy, "_CHUNK", 5 if trial % 2 else 1 << 16)
        num_cats = 130
        edges = [(u, v, round(rng.random(), 6)) for u in range(3) for v in range(4)]
        graph = RecGraph(["u0", "u1", "u2"], [2, 2, 2], ["v0", "v1", "v2", "v3"], edges)
        ut = Grouping("user", ["T0", "T1"], [[0], [1], [0, 1]])
        ic = Grouping("item", [f"C{a}" for a in range(num_cats)],
                      [list(range(num_cats)), [0, 1], [rng.randrange(num_cats)], []])
        th = ThresholdTable.uniform(graph, ut, ic, rho=1, lam=1)
        params = DivParams(0.25, 1.0)
        fast, stats = greedy_solve(graph, ut, ic, th, params, collect_stats=True)
        slow = naive_greedy(graph, ut, ic, th, params)
        assert fast.selected == slow.selected
        assert stats["decrease_keys"] > 0


def _crowded_items_instance(rng):
    """Many users with small display constraints on few shared items, users
    in one or more types and item thresholds of 1 to 4: when an (item, type)
    pair saturates, its pending list holds already-selected edges and edges
    of users already at their display constraint, both with key -inf.
    Users 0 and 1 rate every item, every user is in type 0 and each (item,
    type 0) pair has threshold 1, so the first pick lowers a key."""
    nu = rng.randint(4, 8)
    ni = rng.randint(2, 5)
    ntype = rng.randint(1, 3)
    edges = [(u, v, rng.choice((0.0, 0.25, 0.5, round(rng.random(), 6))))
             for u in range(nu) for v in range(ni) if u < 2 or rng.random() < 0.8]
    graph = RecGraph([f"u{i}" for i in range(nu)], [rng.randint(1, 2) for _ in range(nu)],
                     [f"v{j}" for j in range(ni)], edges)
    ut = Grouping("user", [f"T{b}" for b in range(ntype)],
                  [[0] + sorted(rng.sample(range(1, ntype), rng.randint(0, ntype - 1)))
                   for _ in range(nu)])
    ic = Grouping("item", ["C0", "C1"], [[rng.randrange(2)] for _ in range(ni)])
    th = ThresholdTable(
        {(u, a): rng.randint(0, 1) for u in range(nu) for a in range(2)},
        {(v, b): rng.randint(1, 4) if b else 1 for v in range(ni) for b in range(ntype)},
    )
    params = DivParams(rng.choice((0.0, 0.5)), rng.choice((0.25, 1.0, 4.0)))
    return graph, ut, ic, th, params


def _spent_edges_at_item_saturations(graph, ut, th, picked) -> tuple[int, int]:
    """Replays the picks and counts, in each (item, type) pair's edges at
    the pick that saturates it, the edges selected earlier and the
    unselected edges of users at their display constraint."""
    users, items = graph.edge_user.tolist(), graph.edge_item.tolist()
    remaining = list(graph.display_constraints)
    degree = {}
    chosen = set()
    earlier = full = 0
    for e in picked:
        u, v = users[e], items[e]
        chosen.add(e)
        remaining[u] -= 1
        for b in ut.groups_of(u):
            degree[v, b] = degree.get((v, b), 0) + 1
            if degree[v, b] != th.lam(v, b):
                continue
            pair_edges = [q for q in range(graph.num_edges)
                          if items[q] == v and b in ut.groups_of(users[q])]
            earlier += sum(q in chosen and q != e for q in pair_edges)
            full += sum(q not in chosen and not remaining[users[q]] for q in pair_edges)
    return earlier, full


def test_greedy_matches_naive_when_item_pairs_saturate_over_spent_edges(rng):
    # an (item, type) saturation lowers only the keys that are not -inf:
    # the selected edges and those of full users in its list stay out
    earlier = full = 0
    for _ in range(150):
        graph, ut, ic, th, params = _crowded_items_instance(rng)
        fast, stats = greedy_solve(graph, ut, ic, th, params, collect_stats=True)
        slow = naive_greedy(graph, ut, ic, th, params)
        assert fast.selected == slow.selected
        assert stats["decrease_keys"] > 0
        picked, _ = _selection_order(graph, ut, ic, th, params)
        counts = _spent_edges_at_item_saturations(graph, ut, th, picked)
        earlier, full = earlier + counts[0], full + counts[1]
    assert earlier > 0 and full > 0


def test_greedy_matches_naive_when_item_live_counts_pass_a_byte(rng):
    # a user in 130 types gives its edges on v0 and v2 130 and 129 live
    # (item, type) pairs, more than the int8 live counts hold, and its edge
    # on v1 only 10: a wrapped count would rank v1 first
    for _ in range(5):
        num_types = 130
        edges = [(u, v, round(rng.random(), 6)) for u in range(4) for v in range(3)]
        graph = RecGraph(["u0", "u1", "u2", "u3"], [2, 2, 1, 2], ["v0", "v1", "v2"], edges)
        ut = Grouping("user", [f"T{b}" for b in range(num_types)],
                      [list(range(num_types)), [0, 1], [rng.randrange(num_types)], []])
        ic = Grouping("item", ["C0", "C1"], [[0], [1], [0, 1]])
        th = ThresholdTable(
            {(u, a): 1 for u in range(4) for a in range(2)},
            {(v, b): 1 for v, types in enumerate((num_types, 10, num_types - 1))
             for b in range(types)})
        params = DivParams(0.25, 1.0)
        fast, stats = greedy_solve(graph, ut, ic, th, params, collect_stats=True)
        slow = naive_greedy(graph, ut, ic, th, params)
        assert fast.selected == slow.selected
        assert stats["decrease_keys"] > 0


def _argsort_pending(grouping, members, owners, num_owners, table):
    """Each cell's pending edges and their offsets, listed by a stable
    argsort of the live incidences' cells ``owner * width + group``, and
    each edge's live count."""
    edge, group = grouping.expand(members)
    owner = owners[edge]
    live = np.array([table.get((o, g), 0) > 0 for o, g in zip(owner.tolist(), group.tolist())],
                    dtype=bool)
    edge = edge[live]
    cell = owner[live].astype(np.int64) * grouping.num_groups + group[live]
    return (edge[np.argsort(cell, kind="stable")].tolist(),
            csr_offsets(cell, num_owners * grouping.num_groups).tolist(),
            np.bincount(edge, minlength=len(members)).tolist())


def _zero_threshold_instance():
    """Zero-threshold pairs on both sides, a user and an item in no group."""
    edges = [(u, v, 0.5) for u in range(3) for v in range(4) if (u + v) % 3]
    graph = RecGraph(["u0", "u1", "u2"], [2, 2, 2], ["v0", "v1", "v2", "v3"], edges)
    ut = Grouping("user", ["T0", "T1"], [[0, 1], [], [1]])
    ic = Grouping("item", ["C0", "C1"], [[0], [0, 1], [], [1]])
    th = ThresholdTable({(0, 0): 0, (0, 1): 2, (2, 1): 1},
                        {(0, 0): 0, (0, 1): 1, (1, 1): 0, (3, 1): 2})
    return graph, ut, ic, th


def test_pending_lists_match_a_stable_argsort_by_cell(rng, monkeypatch):
    # blocks of 3 and 7 edges end mid-instance, and the 200-user instance's
    # users (250 edges each) each span more than one block's worth
    instances = [random_instance(rng, overlapping=(i % 2 == 0))[:4] for i in range(40)]
    instances += [_shuffled_tied_instance(rng)[:4] for _ in range(40)]
    instances.append(_zero_threshold_instance())
    graph, ut, ic = movielens_shaped(num_users=200, seed=7)
    instances.append((graph, ut, ic, ThresholdTable.uniform(graph, ut, ic, rho=2, lam=2)))
    assert max(int(np.diff(g.user_offsets).max()) for g, *_ in instances) > 7
    for block in (3, 7):
        monkeypatch.setattr(greedy, "_CHUNK", block)
        for graph, ut, ic, th in instances:
            uc, it = _pair_indexes(graph, ut, ic, th)
            for index, grouping, members, owners, num_owners, table in (
                    (uc, ic, graph.edge_item, graph.edge_user, graph.num_users,
                     th.user_category),
                    (it, ut, graph.edge_user, graph.edge_item, graph.num_items,
                     th.item_type)):
                pending, first, live = _argsort_pending(grouping, members, owners,
                                                        num_owners, table)
                assert index.pending.tolist() == pending
                assert index.pending_first.tolist() == first
                assert index.live_count.tolist() == live


def test_greedy_matches_naive_with_entities_past_the_membership_list(rng):
    # each grouping's membership list stops short of its entity count, so
    # the users and items past it are in no group, and some thresholds of
    # the grouped entities' pairs are 0
    decreases = 0
    for _ in range(200):
        nu, ni = rng.randint(2, 6), rng.randint(2, 7)
        ncat, ntype = rng.randint(1, 3), rng.randint(1, 3)
        edges = [(u, v, rng.choice((0.0, 0.25, 0.5, round(rng.random(), 6))))
                 for u in range(nu) for v in range(ni) if u == 0 or rng.random() < 0.7]
        graph = RecGraph([f"u{i}" for i in range(nu)], [rng.randint(1, 3) for _ in range(nu)],
                         [f"v{j}" for j in range(ni)], edges)
        ut = Grouping("user", [f"T{b}" for b in range(ntype)],
                      [sorted(rng.sample(range(ntype), rng.randint(1, ntype)))
                       for _ in range(rng.randrange(1, nu))])
        ic = Grouping("item", [f"C{a}" for a in range(ncat)],
                      [sorted(rng.sample(range(ncat), rng.randint(1, ncat)))
                       for _ in range(rng.randrange(1, ni))])
        th = ThresholdTable(
            {(u, a): rng.randint(0, 2) for u in range(nu) for a in range(ncat)},
            {(v, b): rng.randint(0, 2) for v in range(ni) for b in range(ntype)},
        )
        params = DivParams(rng.choice((0.25, 1.0, 4.0)), rng.choice((0.25, 1.0, 4.0)))
        fast, stats = greedy_solve(graph, ut, ic, th, params, collect_stats=True)
        slow = naive_greedy(graph, ut, ic, th, params)
        assert fast.selected == slow.selected
        decreases += stats["decrease_keys"]
    assert decreases > 0
