"""Reference rerankers: pure relevance (TOP), MMR, and xQuAD.

All three produce per-user ranked lists drawn from the candidate edges and
truncated at the display constraint.  Ties always break toward the lowest
edge index so that outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError
from .graph import Grouping, RecGraph
from .metrics import IntentProfile, _cosine_distance


@dataclass
class RankedLists:
    """Per-user ordered item lists with the scores that ranked them."""

    items: list[list[int]] = field(default_factory=list)
    scores: list[list[float]] = field(default_factory=list)


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
        out.items.append([item[e] for e in chosen])
        out.scores.append([rel[e] for e in chosen])
    return out


def mmr(graph: RecGraph, item_cats: Grouping, lam: float) -> RankedLists:
    """Maximal marginal relevance: each pick maximizes
    lam*rel + (1-lam)*min-distance-to-selected; the first pick is pure
    relevance (there is nothing to diversify against yet)."""
    if not (0.0 <= lam <= 1.0):
        raise GraphError(f"lambda must be in [0,1], got {lam}")
    item = graph.edge_item.tolist()
    rel = graph.edge_rel.tolist()
    out = RankedLists()
    for u, pool in enumerate(_ranked_candidates(graph)):
        chosen: list[int] = []
        scores: list[float] = []
        cats_of = {item[e]: item_cats.groups_of(item[e]) for e in pool}
        while pool and len(chosen) < graph.display_constraints[u]:
            if not chosen:
                best = pool[0]
                best_score = rel[best]
            else:
                best = -1
                best_score = float("-inf")
                sel_cats = [cats_of[item[e]] for e in chosen]
                for e in pool:
                    cats = cats_of[item[e]]
                    dist = min(_cosine_distance(cats, sc) for sc in sel_cats)
                    score = lam * rel[e] + (1.0 - lam) * dist
                    if score > best_score or (score == best_score and e < best):
                        best, best_score = e, score
            pool.remove(best)
            chosen.append(best)
            scores.append(best_score)
        out.items.append([item[e] for e in chosen])
        out.scores.append(scores)
    return out


def xquad(
    graph: RecGraph, item_cats: Grouping, intent: IntentProfile, lam: float
) -> RankedLists:
    """Explicit query-aspect diversification with categories as aspects:
    each pick maximizes lam*rel + (1-lam) * sum_a p(a) * rel_a(v) *
    prod_{s selected} (1 - rel_a(s)), where rel_a is the normalized
    relevance masked by category membership."""
    if not (0.0 <= lam <= 1.0):
        raise GraphError(f"lambda must be in [0,1], got {lam}")
    item = graph.edge_item.tolist()
    rel = graph.edge_rel.tolist()
    out = RankedLists()
    for u, pool in enumerate(_ranked_candidates(graph)):
        probs = intent.category_probs[u]
        rels = intent.norm_rel[u]
        # remaining[a] = prod over selected items in a of (1 - rel_a)
        remaining = {a: 1.0 for a in probs}
        chosen: list[int] = []
        scores: list[float] = []
        while pool and len(chosen) < graph.display_constraints[u]:
            best = -1
            best_score = float("-inf")
            for e in pool:
                div_term = 0.0
                for a in item_cats.groups_of(item[e]):
                    p = probs.get(a)
                    if p:
                        div_term += p * rels.get(item[e], 0.0) * remaining[a]
                score = lam * rel[e] + (1.0 - lam) * div_term
                if score > best_score or (score == best_score and e < best):
                    best, best_score = e, score
            for a in item_cats.groups_of(item[best]):
                if a in remaining:
                    remaining[a] *= 1.0 - rels.get(item[best], 0.0)
            pool.remove(best)
            chosen.append(best)
            scores.append(best_score)
        out.items.append([item[e] for e in chosen])
        out.scores.append(scores)
    return out
