"""Evaluation metrics: thresholded/unthresholded diversity objectives,
intent-aware list metrics, and sales-diversity / accuracy measures.

Conventions documented here because the literature varies:

* Item-item distance is 1 - cosine similarity of binary category
  membership vectors, so identical items have distance 0.  Distance to an
  item with no categories is defined as 1.
* The Gini value reported is 1 minus the classical Gini index of the item
  recommendation-degree distribution (zero-degree catalog items included,
  degrees sorted ascending).  LARGER values mean MORE equitable.  An
  all-zero degree distribution yields 0.
* ILD sums over ordered pairs, matching its c(c-1) normalizer; the
  distance is symmetric so this is a factor-of-two wash.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .errors import GraphError, GroupingError
from .graph import DivParams, Grouping, Solution, ThresholdTable

Lists = list[list[int]]


# ---------------------------------------------------------------------------
# Diversity objectives on solutions

def _selected_items(sol: Solution) -> Lists:
    """Each user's selected items, in the order of its selected edges; only
    the selected edges' entries of the item column are read."""
    item = sol.graph.edge_item
    return [item[lst].tolist() for lst in sol.selected]


def _user_cat_degrees(sol: Solution, item_cats: Grouping) -> dict[tuple[int, int], int]:
    """Selected degree of every (user, category) pair the selection hits."""
    counts: dict[tuple[int, int], int] = {}
    for u, items in enumerate(_selected_items(sol)):
        for item in items:
            for a in item_cats.groups_of(item):
                counts[(u, a)] = counts.get((u, a), 0) + 1
    return counts


def _item_type_degrees(sol: Solution, user_types: Grouping) -> dict[tuple[int, int], int]:
    """Selected degree of every (item, type) pair the selection hits."""
    counts: dict[tuple[int, int], int] = {}
    for u, items in enumerate(_selected_items(sol)):
        for item in items:
            for b in user_types.groups_of(u):
                counts[(item, b)] = counts.get((item, b), 0) + 1
    return counts


def tudiv(sol: Solution, item_cats: Grouping, thresholds: ThresholdTable) -> float:
    """Sum over users and categories of min(threshold, selected degree)."""
    counts = _user_cat_degrees(sol, item_cats)
    return float(sum(min(thresholds.rho(u, a), d) for (u, a), d in counts.items()))


def tidiv(sol: Solution, user_types: Grouping, thresholds: ThresholdTable) -> float:
    """Sum over items and types of min(threshold, selected degree)."""
    counts = _item_type_degrees(sol, user_types)
    return float(sum(min(thresholds.lam(j, b), d) for (j, b), d in counts.items()))


def userdiv(sol: Solution, item_cats: Grouping) -> float:
    """Number of distinct categories each user's selection hits, summed."""
    return float(len(_user_cat_degrees(sol, item_cats)))


def itemdiv(sol: Solution, user_types: Grouping) -> float:
    """Number of distinct user types each item is shown to, summed."""
    return float(len(_item_type_degrees(sol, user_types)))


def div_edgewise(
    sol: Solution, user_types: Grouping, item_cats: Grouping, params: DivParams
) -> float:
    """Edge-weight form of the unthresholded objective: each selected edge
    contributes beta over the user's in-category degree plus mu over the
    item's in-type degree.  Requires disjoint groupings."""
    if not (user_types.disjoint and item_cats.disjoint):
        raise GroupingError("edge-wise diversity requires disjoint groupings")
    user_cat = _user_cat_degrees(sol, item_cats)
    item_type = _item_type_degrees(sol, user_types)
    total = 0.0
    for u, items in enumerate(_selected_items(sol)):
        for item in items:
            for a in item_cats.groups_of(item):
                total += params.beta / user_cat[(u, a)]
            for b in user_types.groups_of(u):
                total += params.mu / item_type[(item, b)]
    return total


# ---------------------------------------------------------------------------
# Intent-aware list metrics

def _cosine_distance(cats1: list[int], cats2: list[int]) -> float:
    if not cats1 or not cats2:
        return 1.0
    inter = len(set(cats1) & set(cats2))
    return 1.0 - inter / math.sqrt(len(cats1) * len(cats2))


class CategoryClasses:
    """Items grouped into classes by their category list, with the
    ``_cosine_distance`` of every two classes.

    ``class_of[i]`` is the class of item i; items past the grouping's
    membership list share the class of the empty list, ``class_of[-1]``.
    ``dist[c1][c2]`` is the distance between classes c1 and c2, so the
    distance between two items is one lookup however many categories
    they have.  The table holds k*k floats for k distinct category lists
    (a few hundred for genre-like groupings).
    """

    def __init__(self, item_cats: Grouping):
        ids: dict[tuple[int, ...], int] = {}
        self.class_of = [ids.setdefault(tuple(m), len(ids))
                         for m in item_cats.group_lists(item_cats.num_entities + 1)]
        cat_lists = list(ids)
        with_cat: dict[int, list[int]] = {}
        for c, cats in enumerate(cat_lists):
            for a in cats:
                with_cat.setdefault(a, []).append(c)
        # Two classes that share no category are at distance 1.0, which is
        # what _cosine_distance gives them; only sharing pairs call it.
        self.dist = [[1.0] * len(cat_lists) for _ in cat_lists]
        for c, cats in enumerate(cat_lists):
            row = self.dist[c]
            for other in {o for a in cats for o in with_cat[a]}:
                row[other] = _cosine_distance(cats, cat_lists[other])

    def classes(self, items) -> list[int]:
        """The class of each item in ``items``."""
        class_of = self.class_of
        last = len(class_of) - 1
        return [class_of[min(item, last)] for item in items]


def ild(lists: Lists, item_cats: Grouping) -> float:
    """Mean over users of the average pairwise category distance within the
    user's list.  Users with fewer than two items contribute 0."""
    if not lists:
        return 0.0
    table = CategoryClasses(item_cats)
    dist = table.dist
    total = 0.0
    for items in lists:
        c = len(items)
        if c < 2:
            continue
        classes = table.classes(items)
        pair_sum = 0.0
        for x in range(c):
            row = dist[classes[x]]
            for y in range(c):
                if x != y:
                    pair_sum += row[classes[y]]
        total += pair_sum / (c * (c - 1))
    return total / len(lists)


class _UserRelevances(Sequence):
    """``intent.norm_rel``: entry u is user u's {item: normalized
    relevance} dict, built from the columns on each access.  It compares
    equal to the list of those dicts."""

    def __init__(self, items: np.ndarray, rels: np.ndarray, offsets: np.ndarray):
        self._items, self._rels, self._offsets = items, rels, offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index: int) -> dict[int, float]:
        u = range(len(self))[index]
        a, b = self._offsets[u], self._offsets[u + 1]
        return dict(zip(self._items[a:b].tolist(), self._rels[a:b].tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    __hash__ = None


class IntentProfile:
    """Per-user category probabilities and normalized [0,1] relevances.

    ``category_probs[u]`` maps category index -> p(category);
    ``norm_rel[u]`` maps item index -> normalized relevance.  The
    relevances are held as columns, one entry per (user, item) pair, and
    ``norm_rel`` is a view that builds a user's dict when ``err_ia`` or
    ``xquad`` reads that user, so the profile keeps 8 bytes per candidate
    edge, not a dict entry.

    The constructor takes ``norm_rel`` as a list of dicts and checks it;
    ``from_graph`` passes the columns (items, relevances, CSR offsets over
    users) through ``columns`` instead, unchecked.
    """

    def __init__(self, category_probs: list[dict[int, float]],
                 norm_rel: list[dict[int, float]] = (), *, columns: tuple | None = None):
        for u, probs in enumerate(category_probs):
            if probs:
                s = sum(probs.values())
                if abs(s - 1.0) > 1e-9:
                    raise GraphError(f"user {u} intent probabilities sum to {s}")
        if columns is None:
            for u, rels in enumerate(norm_rel):
                for item, r in rels.items():
                    if not (0.0 <= r <= 1.0):
                        raise GraphError(
                            f"user {u} normalized relevance for item {item} is {r}"
                        )
            columns = (np.fromiter(chain.from_iterable(norm_rel), np.int64),
                       np.fromiter(chain.from_iterable(map(dict.values, norm_rel)), np.float64),
                       np.cumsum([0, *map(len, norm_rel)]))
        self.category_probs = category_probs
        self.norm_rel = _UserRelevances(*columns)

    @classmethod
    def from_graph(cls, graph, item_cats: Grouping) -> "IntentProfile":
        """Category probabilities from the category frequencies of each
        user's candidate items; relevances min-max normalized over the
        whole candidate set.  Both dicts of a user are in order of first
        occurrence over the user's edges by index."""
        probs: list[dict[int, float]] = [{} for _ in range(graph.num_users)]
        for u, counts in item_cats.tally(graph.edge_user, graph.edge_item).items():
            total = sum(counts.values())
            probs[u] = {a: count / total for a, count in counts.items()}
        rel = graph.edge_rel
        lo, hi = 0.0, 1.0
        if len(rel):
            # the first minimum and maximum in edge order, as min() and
            # max() pick them (0.0 and -0.0 compare equal)
            lo, hi = rel[np.argmin(rel)], rel[np.argmax(rel)]
        span = hi - lo
        norm = (rel - lo) / span if span > 0 else np.ones(len(rel))
        return cls(probs, columns=(graph.edge_item, norm, graph.user_offsets))


def err_ia(lists: Lists, intent: IntentProfile, item_cats: Grouping) -> float:
    """Intent-aware expected reciprocal rank, averaged over users.  The
    per-category relevance of an item is its normalized relevance masked by
    category membership.  A user's terms are summed in the order of its
    category probabilities, then in rank order."""
    if not lists:
        return 0.0
    total = 0.0
    for u, items in enumerate(lists):
        probs = intent.category_probs[u]
        rels = intent.norm_rel[u]
        hits: dict[int, list[tuple[int, float]]] = {}
        for rank, item in enumerate(items, start=1):
            for a in item_cats.groups_of(item):
                if a in probs:
                    hits.setdefault(a, []).append((rank, rels.get(item, 0.0)))
        user_score = 0.0
        for a, p in probs.items():
            remaining = 1.0
            for rank, r in hits.get(a, ()):
                user_score += p * remaining * r / rank
                remaining *= 1.0 - r
        total += user_score
    return total / len(lists)


# ---------------------------------------------------------------------------
# Sales diversity and accuracy

def gini_index(degrees: list[int]) -> float:
    """One minus the classical Gini index of a degree distribution.  The
    input is sorted ascending internally; all-zero degrees yield 0."""
    r = len(degrees)
    if r == 0:
        return 0.0
    d = sorted(degrees)
    total = sum(d)
    if total == 0:
        return 0.0
    weighted = sum((r + 1 - i) * di for i, di in enumerate(d, start=1))
    return 1.0 - (r + 1 - 2.0 * weighted / total) / r


def _item_degrees(lists: Lists, catalog_size: int) -> list[int]:
    degrees = [0] * catalog_size
    for items in lists:
        for item in items:
            degrees[item] += 1
    return degrees


def gini(lists: Lists, catalog_size: int) -> float:
    return gini_index(_item_degrees(lists, catalog_size))


def aggregate_diversity(lists: Lists, catalog_size: int) -> float:
    """Fraction of catalog items recommended to at least one user."""
    if catalog_size == 0:
        return 0.0
    seen: set[int] = set()
    for items in lists:
        seen.update(items)
    return len(seen) / catalog_size


def precision(lists: Lists, relevant: dict[int, set[int]], constraints: list[int]) -> float:
    """Mean over test users of |list ∩ relevant| / c_i; test users are the
    keys of ``relevant``."""
    if not relevant:
        raise GraphError("precision requires at least one test user")
    total = 0.0
    for u, t_set in relevant.items():
        total += len(set(lists[u]) & t_set) / constraints[u]
    return total / len(relevant)


# ---------------------------------------------------------------------------
# Aggregated report

@dataclass
class MetricsReport:
    """Flat named metric values at a common cutoff; absent metrics are None."""

    cutoff: int
    precision: float | None = None
    err_ia: float | None = None
    ild: float | None = None
    tudiv: float | None = None
    tidiv: float | None = None
    userdiv: float | None = None
    itemdiv: float | None = None
    div: float | None = None
    aggregate_diversity: float | None = None
    gini: float | None = None
    relevance_sum: float | None = None


# the metric columns of a report: every field but the cutoff, in order
REPORT_FIELDS = [f.name for f in fields(MetricsReport) if f.name != "cutoff"]
