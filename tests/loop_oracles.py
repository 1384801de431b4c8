"""Straightforward loop versions of the rerankers and intent-aware metrics.

These are the reference oracles the fast versions in ``recdiv.baselines``
and ``recdiv.metrics`` are checked against, item for item and bit for bit:
MMR recomputes every candidate's distance to every pick at every pick
(O(c^2 * n) per user), xQuAD rescans every candidate's score at every
pick, the intent profile and ILD loop over items and pairs, and ERR-IA
scans every listed item for every intent category.
"""

from __future__ import annotations

from recdiv.baselines import RankedLists
from recdiv.graph import Grouping, RecGraph
from recdiv.metrics import IntentProfile, _cosine_distance
from recdiv.synth import random_instance


def edge_case_instance(rng, overlapping: bool) -> tuple[RecGraph, Grouping]:
    """A random_instance graph and item grouping, plus the cases the fast
    versions must get right: one user with no candidates, display
    constraints that may exceed the candidate count, items with no
    categories, and items past the end of the membership list."""
    graph, _, item_cats, _, _ = random_instance(
        rng, max_users=5, max_items=8, max_constraint=9, overlapping=overlapping)
    empty = rng.randint(0, graph.num_users)
    constraints = list(graph.display_constraints)
    constraints.insert(empty, rng.randint(1, 9))
    graph = RecGraph([f"u{i}" for i in range(len(constraints))], constraints, graph.item_ids,
                     columns=(graph.edge_user + (graph.edge_user >= empty),
                              graph.edge_item, graph.edge_rel))
    membership = [[] if rng.random() < 0.2 else m for m in item_cats.membership]
    del membership[rng.randint(0, len(membership)):]
    return graph, Grouping("item", item_cats.group_ids, membership)


def _ranked_pools(graph) -> list[list[int]]:
    rel = graph.edge_rel.tolist()
    return [sorted(graph.user_edges[u], key=lambda e: (-rel[e], e))
            for u in range(graph.num_users)]


def loop_mmr(graph, item_cats, lam: float) -> RankedLists:
    item = graph.edge_item.tolist()
    rel = graph.edge_rel.tolist()
    out = RankedLists()
    for u, pool in enumerate(_ranked_pools(graph)):
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


def loop_xquad(graph, item_cats, intent: IntentProfile, lam: float) -> RankedLists:
    item = graph.edge_item.tolist()
    rel = graph.edge_rel.tolist()
    out = RankedLists()
    for u, pool in enumerate(_ranked_pools(graph)):
        probs = intent.category_probs[u]
        rels = intent.norm_rel[u]
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


def loop_intent_profile(graph, item_cats) -> IntentProfile:
    rels = graph.edge_rel.tolist()
    items = graph.edge_item.tolist()
    lo = min(rels) if rels else 0.0
    hi = max(rels) if rels else 1.0
    span = hi - lo
    norm_rel: list[dict[int, float]] = []
    probs: list[dict[int, float]] = []
    for u in range(graph.num_users):
        own = graph.user_edges[u]
        norm_rel.append({items[e]: (rels[e] - lo) / span if span > 0 else 1.0 for e in own})
        counts: dict[int, int] = {}
        for e in own:
            for a in item_cats.groups_of(items[e]):
                counts[a] = counts.get(a, 0) + 1
        total = sum(counts.values())
        probs.append({a: c / total for a, c in counts.items()} if total else {})
    return IntentProfile(probs, norm_rel)


def loop_ild(lists, item_cats, k: int | None = None) -> float:
    if not lists:
        return 0.0
    total = 0.0
    for items in lists:
        if k is not None:
            items = items[:k]
        c = len(items)
        if c < 2:
            continue
        pair_sum = 0.0
        for x in range(c):
            for y in range(c):
                if x != y:
                    pair_sum += _cosine_distance(
                        item_cats.groups_of(items[x]), item_cats.groups_of(items[y])
                    )
        total += pair_sum / (c * (c - 1))
    return total / len(lists)


def loop_err_ia(lists, intent: IntentProfile, item_cats, k: int | None = None) -> float:
    if not lists:
        return 0.0
    total = 0.0
    for u, items in enumerate(lists):
        if k is not None:
            items = items[:k]
        probs = intent.category_probs[u]
        rels = intent.norm_rel[u]
        user_score = 0.0
        for a, p in probs.items():
            remaining = 1.0
            for rank, item in enumerate(items, start=1):
                if a in item_cats.groups_of(item):
                    r = rels.get(item, 0.0)
                    user_score += p * remaining * r / rank
                    remaining *= 1.0 - r
        total += user_score
    return total / len(lists)
