"""Greedy maximization of beta*TUDiv + mu*TIDiv + rel, for overlapping or
disjoint groupings.

Every unused candidate edge has a key, its exact marginal gain
``rel + beta*ucnt + mu*icnt``: ``ucnt`` counts the edge's (user, category)
pairs still below their threshold, ``icnt`` its (item, type) pairs.  When a
pair reaches its threshold, the key of every unused edge in that pair drops
by beta (or mu).  Keys only ever decrease, and each decrease recomputes the
key from the integer counts in the same operation order as the initial
build, so a key always equals a from-scratch marginal computation bit for
bit.

The keys live in one flat float64 array indexed by edge.  A graph's edges
are grouped by user, so each user's edges are one contiguous slice of it,
``user_offsets[u]:user_offsets[u + 1]``.  A user's best edge is the argmax
of that slice (numpy's first maximum, the lowest edge index).  Selected
edges, and every edge of a user at its display constraint, hold -inf.  A
global heap holds the best entry of each user with room and an unselected
edge, as in Minoux's lazy greedy ("Accelerated greedy algorithms for
maximizing submodular set functions", 1978): a popped entry is used only if
it is still its user's current best, and otherwise the current best is
pushed in its place.  So the edge extracted each round is exactly the
argmax of the true marginals, ties toward the lowest edge index.

Each heap entry is a single integer (~(IEEE-754 key bits) << 32 | edge
index).  For nonnegative floats the raw bit pattern is order-isomorphic to
the value, so the complemented bits give max-first ordering with exact
float semantics and edge-index tie-breaking.  The edge gives its key and,
by bisecting the CSR offsets, its user, so no per-edge user array is kept.

Each (user, category) and (item, type) pair is its cell, as the ``graph``
module numbers them (``Grouping.cells``, ``threshold_cells``).  Each cell's
threshold, degree and pending offsets are flat int arrays indexed by it.
The loop finds edge e's pairs from its endpoints, (u, c) for each category
c of its item and (j, t) for each type t of its user, so no per-edge pair
array is kept; it reads the relevances and items in place through
memoryviews.  A pair's pending edges, those a saturation lowers, are its
edges when its threshold is positive, listed from in-place sorts of the
packed keys ``cell << 32 | edge``, which group them by cell in increasing
edge order.  The (item, type) side sorts once over the whole edge array.
The (user, category) side sorts one block of whole users at a time: a
(user, category) pair's edges all lie in its user's slice, so each block's
sorted list is final and the blocks concatenate, and no temporary spans
every incidence.  The solution is built once, at the end, from the selected
edges in the order they were popped, after the loop's arrays are freed.

Memory, traced with tracemalloc on ``movielens_shaped(4000)`` (1M edges,
seed 7): the loop holds about 20 bytes per edge (keys 8; pending lists 4
per entry, 9.5 over both sides; live counts 1 per side when they fit a
byte), and the solve peaks at about 25 bytes per edge.

Cost: O(1) per key decrease; O(deg(u)) for the argmax each time user u's
entry surfaces (once per pop plus once per selection), not O(log deg(u));
O(log U) per global heap operation and user lookup over U users.  Each pop
either selects an edge or replaces an entry made stale by a key decrease.
A (user, category) saturation lowers its pending keys one at a time in
Python; an (item, type) saturation, whose lists are longer (mean about 100
at 1M edges, against 19), is one numpy update over its pending slice in
the same operation order, so the key bits are the same either way.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from heapq import heapify, heappop, heappush

import numpy as np

from .graph import (DivParams, Grouping, RecGraph, Solution, ThresholdTable, new_solution,
                    threshold_cells)

# edges per slice of the initial keys, and at most per block of whole users
# in the (user, category) build
_CHUNK = 1 << 16


def greedy_solve(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
    collect_stats: bool = False,
) -> Solution | tuple[Solution, dict[str, int]]:
    """Near-linear greedy: repeatedly extract the max-gain edge, lazily
    discarding edges of users already at capacity.

    With ``collect_stats=True`` also returns counters (pops = edges
    extracted, decrease_keys = key-lowering updates) for the runtime-bound
    checks.
    """
    picked, stats = _selection_order(graph, user_types, item_cats, thresholds, params)
    sol = new_solution(graph, user_types, item_cats)
    sol.add_edges(picked)
    return (sol, stats) if collect_stats else sol


def _selection_order(graph: RecGraph, user_types: Grouping, item_cats: Grouping,
                     thresholds: ThresholdTable, params: DivParams) -> tuple[list[int], dict]:
    """The greedy's selected edges in the order it picks them, and its
    counters.  The loop's arrays are freed on return, before the solution
    is built."""
    beta, mu = float(params.beta), float(params.mu)
    n = graph.num_edges
    offsets = graph.user_offsets.tolist()
    uc, it = _pair_indexes(graph, user_types, item_cats, thresholds)
    ucnt, icnt = uc.live_count, it.live_count
    live_total = _total(ucnt) + _total(icnt)
    # Initial keys in the loop's operation order, so the bits match the
    # keys it recomputes; a chunk at a time, so no temporary spans them all.
    keys = array("d", [0.0]) * n
    key_view = np.frombuffer(keys, dtype=np.float64)
    rel_of, ucnt_of, icnt_of = (graph.edge_rel, np.frombuffer(ucnt, dtype=ucnt.typecode),
                                np.frombuffer(icnt, dtype=icnt.typecode))
    for s in range(0, n, _CHUNK):
        e = s + _CHUNK
        key_view[s:e] = rel_of[s:e] + beta * ucnt_of[s:e] + mu * icnt_of[s:e]
    key_bits = memoryview(keys).cast("B").cast("Q")
    rel, item_of = memoryview(graph.edge_rel), memoryview(graph.edge_item)
    cats_of = item_cats.group_lists(graph.num_items)
    types_of = user_types.group_lists(graph.num_users)
    uc_width, uc_deg, uc_thr, uc_pend, uc_pend_first = (
        uc.width, uc.degree, uc.threshold, uc.pending, uc.pending_first)
    it_width, it_deg, it_thr, it_pend_first = it.width, it.degree, it.threshold, it.pending_first
    it_pend = np.frombuffer(it.pending, dtype=np.int32)

    picked = []
    remaining = list(graph.display_constraints)
    neg_inf = float("-inf")
    mask = (1 << 64) - 1
    pops = 0

    def user_best(u: int) -> int:
        # heap entry of u's max-key unselected edge, or -1; the first
        # maximum is the lowest edge index
        s = offsets[u]
        e = s + int(key_view[s:offsets[u + 1]].argmax())
        if keys[e] == neg_inf:
            return -1
        return ((mask - key_bits[e]) << 32) | e

    # one entry per user with room and an unselected edge
    gheap = [user_best(u) for u in range(graph.num_users) if offsets[u] < offsets[u + 1]]
    heapify(gheap)

    while gheap:
        gent = heappop(gheap)
        pops += 1
        e = gent & 0xFFFFFFFF
        u = bisect_right(offsets, e) - 1
        best = user_best(u)
        if best != gent:
            # a key of this user dropped since the entry was pushed
            heappush(gheap, best)
            continue
        keys[e] = neg_inf
        remaining[u] -= 1
        if not remaining[u]:
            # a full user's edges take no more decreases
            key_view[offsets[u]:offsets[u + 1]] = neg_inf
        picked.append(e)
        j = item_of[e]
        base = u * uc_width
        for g in cats_of[j]:
            k = base + g
            d = uc_deg[k] + 1
            uc_deg[k] = d
            if d == uc_thr[k]:
                for q in uc_pend[uc_pend_first[k]:uc_pend_first[k + 1]]:
                    if keys[q] != neg_inf:
                        c = ucnt[q] - 1
                        ucnt[q] = c
                        keys[q] = rel[q] + beta * c + mu * icnt[q]
        base = j * it_width
        for g in types_of[u]:
            k = base + g
            d = it_deg[k] + 1
            it_deg[k] = d
            if d == it_thr[k]:
                # each pending edge is listed once, so the fancy-index
                # decrement is exact; the key's operations follow the
                # initial build's order, so its bits match
                q = it_pend[it_pend_first[k]:it_pend_first[k + 1]]
                q = q[key_view[q] != neg_inf]
                icnt_of[q] -= 1
                key_view[q] = rel_of[q] + beta * ucnt_of[q] + mu * icnt_of[q]
        if remaining[u]:
            nb = user_best(u)
            if nb != -1:
                heappush(gheap, nb)
    # each decrease took one off a live count
    decreases = live_total - _total(ucnt) - _total(icnt)
    return picked, {"pops": pops, "decrease_keys": decreases}


def _pair_indexes(graph: RecGraph, user_types: Grouping, item_cats: Grouping,
                  thresholds: ThresholdTable) -> tuple[_PairIndex, _PairIndex]:
    """The (user, category) and (item, type) pair indexes.  The (item, type)
    side is built first, over the whole edge array; the (user, category)
    side then one block of whole users at a time, each block at most
    ``_CHUNK`` edges unless one user has more."""
    it = _PairIndex(user_types, graph.edge_user, graph.edge_item, graph.num_items,
                    thresholds.lam_table, [(0, graph.num_edges, 0, graph.num_items)])
    offsets = graph.user_offsets.tolist()
    blocks = []
    first = 0
    while first < graph.num_users:
        end = max(bisect_right(offsets, offsets[first] + _CHUNK) - 1, first + 1)
        blocks.append((offsets[first], offsets[end], first, end))
        first = end
    uc = _PairIndex(item_cats, graph.edge_item, graph.edge_user, graph.num_users,
                    thresholds.rho_table, blocks)
    return uc, it


def _total(counts: array) -> int:
    return int(np.frombuffer(counts, dtype=counts.typecode).sum(dtype=np.int64))


class _PairIndex:
    """One side's (owner, group) pairs, (user, category) or (item, type):
    edge e is incident to the pairs (owners[e], group) for each group in
    ``grouping.groups_of(members[e])``.  Each pair is its cell over
    ``num_owners`` owners and the grouping's ``width`` groups.  Holds each
    cell's threshold (from ``table``) and degree, its pending edges (CSR
    ``pending``/``pending_first``, increasing) and each edge's
    ``live_count`` of pending pairs (int8 when no entity has more than 127
    groups), as Python arrays or memoryviews, which index as fast as a list
    without one Python object per element.  A pair with a zero threshold is
    born saturated: it has no pending edges and never lowers a key.

    Each of ``blocks``, ``(start, end, lo, hi)``, holds edges start..end-1,
    which must be all the edges of owners lo..hi-1 and no others.  Its list
    is the low 32 bits of its sorted keys ``cell << 32 | edge``, with the
    cell less the block's first, ``lo * width``: the keys are distinct, so
    one in-place sort lists each pair's edges in increasing order, and the
    blocks' lists, each over its own cells, concatenate in cell order.
    Each temporary is dropped as soon as it is used."""

    def __init__(self, grouping: Grouping, members: np.ndarray, owners: np.ndarray,
                 num_owners: int, table: np.ndarray, blocks):
        width = self.width = grouping.num_groups
        threshold = threshold_cells(table, num_owners, width)
        self.threshold = memoryview(threshold)
        most = np.diff(grouping.offsets).max()
        self.live_count = array("b" if most < 128 else "i", [0]) * len(members)
        live_count = np.frombuffer(self.live_count, dtype=self.live_count.typecode)
        count = np.zeros(len(threshold) + 1, dtype=np.int64)
        self.pending = array("i")
        for start, end, lo, hi in blocks:
            edge, cell = grouping.cells(owners[start:end], members[start:end], num_owners)
            cell -= lo * width
            live = threshold[lo * width:hi * width][cell] > 0
            if not live.all():
                edge, cell = edge[live], cell[live]
            del live
            live_count[start:end] = np.bincount(edge, minlength=end - start)
            count[lo * width + 1:hi * width + 1] = np.bincount(cell, minlength=(hi - lo) * width)
            key = cell.astype(np.int64)
            del cell
            key <<= 32
            key |= edge
            del edge
            key.sort()
            key &= 0xFFFFFFFF
            key += start
            low = key.astype(np.int32)
            del key
            self.pending.frombytes(memoryview(low).cast("B"))
            del low
        self.degree = array("i", [0]) * len(threshold)
        np.cumsum(count, out=count)
        self.pending_first = memoryview(count)
