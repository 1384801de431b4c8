"""Reference rerankers: pure relevance (TOP), MMR, and xQuAD.

All three produce per-user ranked lists drawn from the candidate edges and
truncated at the display constraint.  Ties always break toward the lowest
edge index so that outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphError
from .graph import Grouping, RecGraph
from .metrics import IntentProfile, _cosine_distance


@dataclass
class RankedLists:
    """Per-user ordered item lists with the scores that ranked them."""

    items: list[list[int]] = field(default_factory=list)
    scores: list[list[float]] = field(default_factory=list)


def _candidates_by_relevance(graph: RecGraph, u: int) -> list[int]:
    return sorted(graph.user_edges[u], key=lambda e: (-graph.edges[e].relevance, e))


def top_k(graph: RecGraph) -> RankedLists:
    """Each user's candidates by relevance descending, truncated to c_i."""
    out = RankedLists()
    for u in range(graph.num_users):
        chosen = _candidates_by_relevance(graph, u)[: graph.display_constraints[u]]
        out.items.append([graph.edges[e].item for e in chosen])
        out.scores.append([graph.edges[e].relevance for e in chosen])
    return out


def mmr(graph: RecGraph, item_cats: Grouping, lam: float) -> RankedLists:
    """Maximal marginal relevance: each pick maximizes
    lam*rel + (1-lam)*min-distance-to-selected; the first pick is pure
    relevance (there is nothing to diversify against yet)."""
    if not (0.0 <= lam <= 1.0):
        raise GraphError(f"lambda must be in [0,1], got {lam}")
    out = RankedLists()
    for u in range(graph.num_users):
        pool = _candidates_by_relevance(graph, u)
        chosen: list[int] = []
        scores: list[float] = []
        cats_of = {
            graph.edges[e].item: item_cats.groups_of(graph.edges[e].item)
            for e in pool
        }
        while pool and len(chosen) < graph.display_constraints[u]:
            if not chosen:
                best = pool[0]
                best_score = graph.edges[best].relevance
            else:
                best = -1
                best_score = float("-inf")
                sel_cats = [cats_of[graph.edges[e].item] for e in chosen]
                for e in pool:
                    edge = graph.edges[e]
                    dist = min(
                        _cosine_distance(cats_of[edge.item], sc) for sc in sel_cats
                    )
                    score = lam * edge.relevance + (1.0 - lam) * dist
                    if score > best_score or (score == best_score and e < best):
                        best, best_score = e, score
            pool.remove(best)
            chosen.append(best)
            scores.append(best_score)
        out.items.append([graph.edges[e].item for e in chosen])
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
    out = RankedLists()
    for u in range(graph.num_users):
        pool = _candidates_by_relevance(graph, u)
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
                edge = graph.edges[e]
                div_term = 0.0
                for a in item_cats.groups_of(edge.item):
                    p = probs.get(a)
                    if p:
                        div_term += p * rels.get(edge.item, 0.0) * remaining[a]
                score = lam * edge.relevance + (1.0 - lam) * div_term
                if score > best_score or (score == best_score and e < best):
                    best, best_score = e, score
            edge = graph.edges[best]
            for a in item_cats.groups_of(edge.item):
                if a in remaining:
                    remaining[a] *= 1.0 - rels.get(edge.item, 0.0)
            pool.remove(best)
            chosen.append(best)
            scores.append(best_score)
        out.items.append([graph.edges[e].item for e in chosen])
        out.scores.append(scores)
    return out
