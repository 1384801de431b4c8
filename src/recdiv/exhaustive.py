"""Brute-force reference optimizer used as ground truth in tests.

The objective is recomputed here with fresh counting loops, independent of
the vectorized degree count in graph.eval_objective, so that agreement
between this module and the production solvers is evidence rather than
tautology.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from math import comb

from .errors import InstanceTooLargeError
from .graph import DivParams, Edge, Grouping, RecGraph, Solution, ThresholdTable

ENUMERATION_GUARD = 10**7


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
    return _objective(graph.edges, user_types, item_cats, thresholds, params, edge_set)


def _objective(
    edges: Sequence[Edge],
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
    edge_set: tuple[int, ...] | list[int],
) -> float:
    user_cat: dict[tuple[int, int], int] = {}
    item_type: dict[tuple[int, int], int] = {}
    rel = 0.0
    for eidx in edge_set:
        e = edges[eidx]
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
    Ties go to the lexicographically smallest sorted edge-index set."""
    per_user_choices: list[list[tuple[int, ...]]] = []
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
        choices = []
        for size in range(min(c, len(incident)) + 1):
            choices.extend(combinations(incident, size))
        per_user_choices.append(choices)

    best_obj = float("-inf")
    best_set: tuple[int, ...] = ()
    edges = list(graph.edges)  # records built once, not once per subset

    def recurse(u: int, chosen: list[int]) -> None:
        nonlocal best_obj, best_set
        if u == graph.num_users:
            obj = _objective(edges, user_types, item_cats, thresholds, params, chosen)
            key = tuple(sorted(chosen))
            if obj > best_obj or (obj == best_obj and key < best_set):
                best_obj = obj
                best_set = key
            return
        for subset in per_user_choices[u]:
            chosen.extend(subset)
            recurse(u + 1, chosen)
            del chosen[len(chosen) - len(subset):]

    recurse(0, [])
    sol = Solution(graph, user_types, item_cats)
    sol.add_edges(best_set)
    return sol, best_obj
