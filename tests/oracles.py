"""Test-only reference code for the solvers: the brute-force optimum, the
naive greedy, small random instances and the UserDiv flow network.

The objective is recomputed here with fresh counting loops, independent of
the vectorized degree count in graph.eval_objective, so that agreement
between this module and the production solvers is evidence rather than
tautology.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import numpy as np

from recdiv.errors import DuplicateEdgeError, RecdivError
from recdiv.flownet import DEFAULT_COST_SCALE, build_tdiv_network
from recdiv.graph import (DivParams, Grouping, RecGraph, Solution, ThresholdTable,
                          new_solution)
from recdiv.mincostflow import FlowNetwork

ENUMERATION_GUARD = 10**7


class InstanceTooLargeError(RecdivError):
    """Brute-force enumeration guard tripped."""


def objective_from_scratch(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
    edge_set: tuple[int, ...] | list[int],
) -> float:
    """beta*TUDiv + mu*TIDiv + rel of an explicit edge set, via plain
    dictionaries rebuilt on every call."""
    user_cat: dict[tuple[int, int], int] = {}
    item_type: dict[tuple[int, int], int] = {}
    rel = 0.0
    for eidx in edge_set:
        e = graph.edges[eidx]
        rel += e.relevance
        for a in item_cats.groups_of(e.item):
            user_cat[(e.user, a)] = user_cat.get((e.user, a), 0) + 1
        for b in user_types.groups_of(e.user):
            item_type[(e.item, b)] = item_type.get((e.item, b), 0) + 1
    tu = sum(min(thresholds.rho(u, a), d) for (u, a), d in user_cat.items())
    ti = sum(min(thresholds.lam(j, b), d) for (j, b), d in item_type.items())
    return params.beta * tu + params.mu * ti + rel


def brute_force_optimum(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
) -> tuple[Solution, float]:
    """Enumerate every per-user edge subset of size <= c_i (all sizes, since
    under-full users are legal) and return the maximum-objective selection.
    Ties go to the lexicographically smallest sorted edge-index set.

    A (user, category) pair's degree comes from one user's edges only, so
    each subset's capped TUDiv share is counted once, before the search.
    The depth-first search over users carries the (item, type) degrees, the
    integer TIDiv they give and the relevance, summed edge by edge in user
    order, so a leaf is scored as ``beta*tu + mu*ti + rel`` without a
    recount."""
    edges = list(graph.edges)
    pair_id: dict[tuple[int, int], int] = {}  # (item, type) -> dense id
    # per user: (subset, its TUDiv share, its relevances, its (item, type) pairs)
    per_user_choices: list[list[tuple[tuple[int, ...], int, list[float], list[int]]]] = []
    total = 1
    for u in range(graph.num_users):
        incident = graph.user_edges[u]
        c = graph.display_constraints[u]
        count = sum(comb(len(incident), s) for s in range(min(c, len(incident)) + 1))
        total *= count
        if total > ENUMERATION_GUARD:
            raise InstanceTooLargeError(
                f"enumeration would exceed {ENUMERATION_GUARD} combinations"
            )
        pairs_of = {e: [pair_id.setdefault((edges[e].item, b), len(pair_id))
                        for b in user_types.groups_of(u)] for e in incident}
        choices = []
        for size in range(min(c, len(incident)) + 1):
            for subset in combinations(incident, size):
                user_cat: dict[int, int] = {}
                for e in subset:
                    for a in item_cats.groups_of(edges[e].item):
                        user_cat[a] = user_cat.get(a, 0) + 1
                tu = sum(min(thresholds.rho(u, a), d) for a, d in user_cat.items())
                rels = [edges[e].relevance for e in subset]
                pairs = [p for e in subset for p in pairs_of[e]]
                choices.append((subset, tu, rels, pairs))
        per_user_choices.append(choices)

    beta, mu = params.beta, params.mu
    lam = [thresholds.lam(j, b) for j, b in pair_id]
    degree = [0] * len(lam)
    best_obj = float("-inf")
    best_set: tuple[int, ...] = ()

    def recurse(u: int, chosen: list[int], tu: int, ti: int, rel: float) -> None:
        nonlocal best_obj, best_set
        if u == graph.num_users:
            obj = beta * tu + mu * ti + rel
            if obj >= best_obj:
                key = tuple(sorted(chosen))
                if obj > best_obj or key < best_set:
                    best_obj = obj
                    best_set = key
            return
        for subset, tu_u, rels, pairs in per_user_choices[u]:
            ti_u = ti
            for p in pairs:
                if degree[p] < lam[p]:
                    ti_u += 1
                degree[p] += 1
            rel_u = rel
            for r in rels:
                rel_u += r
            chosen.extend(subset)
            recurse(u + 1, chosen, tu + tu_u, ti_u, rel_u)
            del chosen[len(chosen) - len(subset):]
            for p in pairs:
                degree[p] -= 1

    recurse(0, [], 0, 0, 0.0)
    sol = Solution(graph, user_types, item_cats)
    sol.add_edges(best_set)
    return sol, best_obj


def random_instance(
    rng: random.Random,
    max_users: int = 5,
    max_items: int = 7,
    max_constraint: int = 3,
    max_threshold: int = 2,
    overlapping: bool = False,
    beta_mu_choices: tuple[float, ...] = (0.0, 0.5, 1.0, 4.0),
) -> tuple[RecGraph, Grouping, Grouping, ThresholdTable, DivParams]:
    """Small random instance with full group membership on both sides."""
    nu = rng.randint(1, max_users)
    ni = rng.randint(1, max_items)
    ncat = rng.randint(1, 3)
    ntype = rng.randint(1, 3)
    edges = []
    for u in range(nu):
        for v in range(ni):
            if rng.random() < 0.6:
                edges.append((u, v, round(rng.random(), 6)))
    if not edges:
        edges.append((0, 0, round(rng.random(), 6)))
    graph = RecGraph(
        [f"u{i}" for i in range(nu)],
        [rng.randint(1, max_constraint) for _ in range(nu)],
        [f"v{j}" for j in range(ni)],
        edges,
    )

    def memberships(n: int, ngroups: int) -> list[list[int]]:
        out = []
        for _ in range(n):
            if overlapping:
                size = rng.randint(1, ngroups)
                out.append(sorted(rng.sample(range(ngroups), size)))
            else:
                out.append([rng.randrange(ngroups)])
        return out

    user_types = Grouping("user", [f"T{b}" for b in range(ntype)], memberships(nu, ntype))
    item_cats = Grouping("item", [f"C{a}" for a in range(ncat)], memberships(ni, ncat))
    uc = {
        (u, a): rng.randint(0, max_threshold)
        for u in range(nu)
        for a in range(ncat)
    }
    it = {
        (j, b): rng.randint(0, max_threshold)
        for j in range(ni)
        for b in range(ntype)
    }
    params = DivParams(rng.choice(beta_mu_choices), rng.choice(beta_mu_choices))
    return graph, user_types, item_cats, ThresholdTable(uc, it), params


def widened_thresholds(rng: random.Random, graph: RecGraph, user_types: Grouping,
                       item_cats: Grouping, thresholds: ThresholdTable) -> ThresholdTable:
    """``thresholds`` with some entries raised to 10**12, past any degree,
    and entries added whose owner or group falls outside the owner-by-group
    table: past the last owner or group, or negative.  None of the added
    entries names a pair any edge has."""
    tables = []
    for table, num_owners, num_groups in (
            (thresholds.user_category, graph.num_users, item_cats.num_groups),
            (thresholds.item_type, graph.num_items, user_types.num_groups)):
        table = {key: (10**12 if rng.random() < 0.3 else value) for key, value in table.items()}
        for _ in range(3):
            owner, group = rng.randrange(num_owners), rng.randrange(num_groups)
            table[(owner, num_groups + rng.randrange(num_groups + 2))] = rng.randint(1, 3)
            table[(num_owners + rng.randrange(3), group)] = 10**12
            table[(-1 - rng.randrange(2), group)] = 2
            table[(owner, -1)] = 1
        tables.append(table)
    return ThresholdTable(*tables)


def marginal_gain(
    sol: Solution, edge_index: int, thresholds: ThresholdTable, params: DivParams
) -> float:
    """Objective gain of adding one unused edge to the current solution,
    with the edge's pair degrees counted from ``sol.selected``."""
    if edge_index in sol.edge_indices():
        raise DuplicateEdgeError(f"edge {edge_index} already selected")
    e = sol.graph.edges[edge_index]
    chosen = [sol.graph.edges[x] for lst in sol.selected for x in lst]
    ucats = 0
    for a in sol.item_cats.groups_of(e.item):
        degree = sum(x.user == e.user and a in sol.item_cats.groups_of(x.item) for x in chosen)
        if degree < thresholds.rho(e.user, a):
            ucats += 1
    itypes = 0
    for b in sol.user_types.groups_of(e.user):
        degree = sum(x.item == e.item and b in sol.user_types.groups_of(x.user) for x in chosen)
        if degree < thresholds.lam(e.item, b):
            itypes += 1
    return e.relevance + params.beta * ucats + params.mu * itypes


def naive_greedy(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
) -> Solution:
    """Literal quadratic greedy: full argmax scan per round, tie-break by
    lowest edge index.  Reference implementation for equivalence tests."""
    sol = new_solution(graph, user_types, item_cats)
    remaining = list(graph.display_constraints)
    unused = [e.index for e in graph.edges]
    while True:
        best = -1
        best_gain = float("-inf")
        for eidx in unused:
            if remaining[graph.edges[eidx].user] == 0:
                continue
            gain = marginal_gain(sol, eidx, thresholds, params)
            if gain > best_gain:
                best, best_gain = eidx, gain
        if best == -1:
            break
        remaining[graph.edges[best].user] -= 1
        sol.add_edge(best)
        unused.remove(best)
    return sol


def build_userdiv_network(
    graph: RecGraph,
    item_cats: Grouping,
    cost_scale: int = DEFAULT_COST_SCALE,
) -> tuple[FlowNetwork, list[int]]:
    """Reduction rewarding only distinct categories per user (one unit per
    distinct category a user's selection hits): the TDiv network of
    ``recdiv.flownet`` specialized to zero relevance, a single user type,
    every rho = 1 and lambda = 0, beta = 1 and mu = 0, so each
    (user, category) gadget grants a single -1 (scaled) bonus unit."""
    flat = RecGraph(graph.user_ids, graph.display_constraints, graph.item_ids,
                    columns=(graph.edge_user, graph.edge_item, np.zeros(graph.num_edges)))
    one_type = Grouping("user", ["all"], [[0]] * graph.num_users)
    thresholds = ThresholdTable.uniform(flat, one_type, item_cats, rho=1, lam=0)
    return build_tdiv_network(flat, one_type, item_cats, thresholds, DivParams(1, 0),
                              cost_scale)
