"""Reference rerankers: pure relevance (TOP), MMR, and xQuAD.

All three produce per-user ranked lists drawn from the candidate edges and
truncated at the display constraint.  Ties always break toward the lowest
edge index so that outputs are reproducible.

Per user with n candidates and display constraint c, both diversifying
rerankers cost O(c*n) after the sort.  MMR keeps each candidate's minimum
distance to the picks and updates it against the last pick only, reading
distances from one table over the distinct category lists
(``metrics.CategoryClasses``).  xQuAD rescores only the candidates that
share a category with the last pick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError
from .graph import Grouping, RecGraph
from .metrics import CategoryClasses, IntentProfile


@dataclass
class RankedLists:
    """Per-user ordered item lists, the candidate edges they came from and
    the scores that ranked them."""

    items: list[list[int]] = field(default_factory=list)
    scores: list[list[float]] = field(default_factory=list)
    edges: list[list[int]] = field(default_factory=list)


def _ranked_candidates(graph: RecGraph) -> list[list[int]]:
    """Each user's candidate edges by relevance descending, ties toward the
    lowest edge index (lexsort is stable)."""
    order = np.lexsort((-graph.edge_rel, graph.edge_user)).tolist()
    bounds = graph.user_offsets.tolist()
    return [order[bounds[u]:bounds[u + 1]] for u in range(graph.num_users)]


def top_k(graph: RecGraph) -> RankedLists:
    """Each user's candidates by relevance descending, truncated to c_i."""
    item = graph.edge_item.tolist()
    rel = graph.edge_rel.tolist()
    out = RankedLists()
    for u, ranked in enumerate(_ranked_candidates(graph)):
        chosen = ranked[: graph.display_constraints[u]]
        out.edges.append(chosen)
        out.items.append([item[e] for e in chosen])
        out.scores.append([rel[e] for e in chosen])
    return out


def _pick(alive: list[int], score: list[float]) -> int:
    """Position in ``alive`` of the best-scoring edge, ties toward the
    lowest edge index."""
    best = best_pos = -1
    best_score = float("-inf")
    for pos, e in enumerate(alive):
        if score[e] > best_score or (score[e] == best_score and e < best):
            best, best_score, best_pos = e, score[e], pos
    return best_pos


def _take(alive: list[int], pos: int) -> int:
    """Remove and return ``alive[pos]``; the last entry fills its place
    (the order of ``alive`` does not matter, ties go by edge index)."""
    e = alive[pos]
    alive[pos] = alive[-1]
    alive.pop()
    return e


def mmr(graph: RecGraph, item_cats: Grouping, lam: float) -> RankedLists:
    """Maximal marginal relevance: each pick maximizes
    lam*rel + (1-lam)*min-distance-to-selected; the first pick is pure
    relevance (there is nothing to diversify against yet).  Each candidate
    keeps its minimum distance so far, updated against the last pick only."""
    if not (0.0 <= lam <= 1.0):
        raise GraphError(f"lambda must be in [0,1], got {lam}")
    item = graph.edge_item.tolist()
    rel = graph.edge_rel.tolist()
    lam_rel = [lam * r for r in rel]
    keep = 1.0 - lam
    table = CategoryClasses(item_cats)
    cls = table.classes(item)
    nearest = [float("inf")] * graph.num_edges
    score = [0.0] * graph.num_edges
    out = RankedLists()
    for u, alive in enumerate(_ranked_candidates(graph)):
        chosen: list[int] = []
        scores: list[float] = []
        if alive:
            last = _take(alive, 0)
            chosen.append(last)
            scores.append(rel[last])
        while alive and len(chosen) < graph.display_constraints[u]:
            row = table.dist[cls[last]]
            for e in alive:
                d = row[cls[e]]
                if d < nearest[e]:
                    nearest[e] = d
                    score[e] = lam_rel[e] + keep * d
            last = _take(alive, _pick(alive, score))
            chosen.append(last)
            scores.append(score[last])
        out.edges.append(chosen)
        out.items.append([item[e] for e in chosen])
        out.scores.append(scores)
    return out


def xquad(
    graph: RecGraph, item_cats: Grouping, intent: IntentProfile, lam: float
) -> RankedLists:
    """Explicit query-aspect diversification with categories as aspects:
    each pick maximizes lam*rel + (1-lam) * sum_a p(a) * rel_a(v) *
    prod_{s selected} (1 - rel_a(s)), where rel_a is the normalized
    relevance masked by category membership.  After a pick only the
    candidates that share a category with it are rescored."""
    if not (0.0 <= lam <= 1.0):
        raise GraphError(f"lambda must be in [0,1], got {lam}")
    item = graph.edge_item.tolist()
    rel = graph.edge_rel.tolist()
    lam_rel = [lam * r for r in rel]
    keep = 1.0 - lam
    cats_of = item_cats.group_lists(graph.num_items)
    cats = [cats_of[v] for v in item]
    score = [0.0] * graph.num_edges
    taken = [False] * graph.num_edges
    out = RankedLists()
    for u, alive in enumerate(_ranked_candidates(graph)):
        probs = intent.category_probs[u]
        rels = intent.norm_rel[u]
        # remaining[a] = prod over selected items in a of (1 - rel_a)
        remaining = {a: 1.0 for a in probs}

        def rescore(e: int) -> None:
            r = rels.get(item[e], 0.0)
            div_term = 0.0
            for a in cats[e]:
                p = probs.get(a)
                if p:
                    div_term += p * r * remaining[a]
            score[e] = lam_rel[e] + keep * div_term

        # the candidates in each category the scores read
        in_cat: dict[int, list[int]] = {}
        for e in alive:
            rescore(e)
            for a in cats[e]:
                if a in remaining:
                    in_cat.setdefault(a, []).append(e)
        chosen: list[int] = []
        scores: list[float] = []
        while alive and len(chosen) < graph.display_constraints[u]:
            best = _take(alive, _pick(alive, score))
            taken[best] = True
            chosen.append(best)
            scores.append(score[best])
            stale: set[int] = set()
            for a in cats[best]:
                if a in remaining:
                    remaining[a] *= 1.0 - rels.get(item[best], 0.0)
                    stale.update(in_cat[a])
            for e in stale:
                if not taken[e]:
                    rescore(e)
        out.edges.append(chosen)
        out.items.append([item[e] for e in chosen])
        out.scores.append(scores)
    return out
