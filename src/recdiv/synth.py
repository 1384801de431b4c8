"""Synthetic candidate graph for tests, demos and the benchmark.

The MovieLens-shaped generator produces a skewed, popularity-biased
candidate graph whose top-relevance lists are deliberately un-diverse, so
that diversification has visible room to act.  Relevances are rounded to
six decimals with the bits of Python's ``round(x, 6)``, but in numpy:
``round6`` sends Python only the few values numpy could round otherwise.
Each user's candidates are drawn by ``_weighted_sample``, which runs the
loop of numpy's ``Generator.choice(p=..., replace=False)`` step for step,
so the items and the random stream are those of ``choice``, without its
per-call checks and with the first round's CDF computed once for all users.
"""

from __future__ import annotations

import numpy as np

from .graph import Grouping, RecGraph

ROUND_CHUNK = 1 << 16  # relevances rounded per call, so no temporary holds them all


def round6(values: np.ndarray) -> None:
    """``round(x, 6)`` of each value, in place, with the same bits.

    Python's ``round(x, 6)`` is the double nearest to N / 10**6, where N is
    the exact x * 10**6 rounded half to even; ``np.round`` is not.  With
    ``y = x * 1e6`` and ``k = np.rint(y)``, IEEE division makes ``k / 1e6``
    the double nearest to k / 10**6, and ``y`` is within half an ulp of the
    exact x * 10**6, so k = N unless a half-integer lies within that
    distance of ``y``.  Those values, and the non-finite ones or those with
    ``|y| >= 2**52``, go through Python's ``round``; no relevance of a
    million-edge instance needed it on seeds 7, 11 and 12."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = values * 1e6
        tie = np.abs(y - np.floor(y) - 0.5) <= np.abs(np.spacing(y))
        near = np.flatnonzero(tie | ~(np.abs(y) < 2.0**52))
    exact = [round(x, 6) for x in values[near].tolist()]
    np.rint(y, out=y)
    np.divide(y, 1e6, out=values)
    values[near] = exact


def _cumulative(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice`` draws from: ``cumsum(p) / sum``."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _weighted_sample(rng: np.random.Generator, p: np.ndarray, cdf: np.ndarray,
                    size: int) -> np.ndarray:
    """``rng.choice(len(p), size, replace=False, p=p)``: the same items in
    the same order, leaving ``rng`` in the same state, for ``cdf`` equal to
    ``_cumulative(p)``.  ``p`` must have at least ``size`` positive entries;
    it is not modified.

    Each round draws one double per item still missing, looks each up in
    the CDF of the mass not yet drawn (``searchsorted``, side right) and
    keeps the first occurrence of each item, in draw order, as ``choice``'s
    ``np.unique(return_index=True)`` and index sort do.  The first
    occurrence is found with ``np.minimum.at``, whose result does not depend
    on the order of repeated writes.  The items found get zero mass for the
    next round's CDF."""
    found = np.empty(size, dtype=np.int64)
    first = np.full(len(p), size, dtype=np.int64)
    draws = np.arange(size)
    n, mass = 0, p
    while n < size:
        x = rng.random(size - n)
        if n:
            if mass is p:
                mass = p.copy()
            mass[new] = 0
            cdf = _cumulative(mass)
        new = cdf.searchsorted(x, side="right")
        draw = draws[:len(new)]
        np.minimum.at(first, new, draw)
        new = new[first[new] == draw]
        first[new] = size
        found[n:n + len(new)] = new
        n += len(new)
    return found


def movielens_shaped(
    num_users: int = 2000,
    num_items: int = 1500,
    candidates_per_user: int = 250,
    num_cats: int = 18,
    num_types: int = 7,
    constraint: int = 20,
    overlapping_cats: bool = True,
    seed: int = 7,
) -> tuple[RecGraph, Grouping, Grouping]:
    """Popularity-skewed candidate graph: a Zipf-like item popularity drives
    both candidate selection and relevance, and each user's taste leans
    toward two categories, so pure relevance ranking concentrates on few
    popular items and categories.

    Each user's candidates are ``rng.choice(num_items, per_user,
    replace=False, p=popularity)``, drawn by ``_weighted_sample``: the same
    doubles from the stream, looked up in the same CDFs and deduplicated
    to the same first occurrences, so the instance has the bits it had when
    ``choice`` drew it."""
    rng = np.random.default_rng(seed)
    # flat-ish decay keeps popularity differences meaningful across the whole
    # candidate range, so pure relevance ranking concentrates on the head
    popularity = 1.0 / np.arange(1, num_items + 1) ** 0.5
    popularity /= popularity.sum()
    first_cdf = _cumulative(popularity)

    item_cat_membership: list[list[int]] = []
    primary_cat = rng.integers(0, num_cats, size=num_items)
    for j in range(num_items):
        cats = {int(primary_cat[j])}
        if overlapping_cats:
            extra = rng.random()
            if extra < 0.4:
                cats.add(int(rng.integers(0, num_cats)))
        item_cat_membership.append(sorted(cats))
    user_type_membership = [[int(t)] for t in rng.integers(0, num_types, size=num_users)]

    taste = rng.integers(0, num_cats, size=(num_users, 2))
    # One weighted draw without replacement and one noise draw per user, in
    # user order, fix the RNG stream; relevance is then computed over all
    # edges at once.
    per_user = min(candidates_per_user, num_items)
    items = np.empty((num_users, per_user), dtype=np.int32)
    eps = np.empty((num_users, per_user))
    for u in range(num_users):
        items[u] = _weighted_sample(rng, popularity, first_cdf, per_user)
        eps[u] = rng.random(per_user)
    items, eps = items.ravel(), eps.ravel()
    users = np.repeat(np.arange(num_users, dtype=np.int32), per_user)
    cat = primary_cat[items]
    bonus = np.where((taste[users, 0] == cat) | (taste[users, 1] == cat), 0.05, 0.0)
    rel = 0.8 * popularity[items] / popularity[0] + bonus + 0.05 * eps
    del eps, cat, bonus  # so they do not stack on the graph build's temporaries
    # round(x, 6) of each value, in place, one chunk at a time
    for start in range(0, len(rel), ROUND_CHUNK):
        round6(rel[start:start + ROUND_CHUNK])

    graph = RecGraph(
        [f"u{u}" for u in range(num_users)],
        [constraint] * num_users,
        [f"v{j}" for j in range(num_items)],
        columns=(users, items, rel),
    )
    user_types = Grouping("user", [f"T{b}" for b in range(num_types)], user_type_membership)
    item_cats = Grouping("item", [f"C{a}" for a in range(num_cats)], item_cat_membership)
    return graph, user_types, item_cats
