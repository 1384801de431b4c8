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

Every incident (user, category) and (item, type) pair has a dense id: the
number of occupied cells before its own in a dense owner-by-group presence
table (a cumsum, no sort), so ids follow increasing (owner, group) order.
Degrees, thresholds, each edge's pairs and each pair's pending edges (those
a saturation lowers) are flat integer arrays indexed by it.  The pending
lists come from one in-place sort of the distinct packed keys
``pair << 32 | edge``, which groups them by pair in increasing edge order.
The solution is built once, at the end, from the selected edges in the
order they were popped, after the loop's arrays are freed.

Memory, traced with tracemalloc on ``movielens_shaped(4000)`` (1M edges,
seed 7): the loop's live arrays take about 47 bytes per edge (keys and
relevances 8 each; pair ids, pair offsets and pending lists 4 per entry;
live counts 1 when they fit a byte), and the solve peaks at about 53 bytes
per edge.

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

from .graph import (DivParams, Grouping, RecGraph, Solution, ThresholdTable, csr_offsets,
                    new_solution, pair_ids)

_CHUNK = 1 << 16  # initial keys computed per slice of this many edges


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
    uc = _PairIndex(item_cats, graph.edge_item, graph.edge_user, thresholds.user_category)
    it = _PairIndex(user_types, graph.edge_user, graph.edge_item, thresholds.item_type)
    rel = _compact(graph.edge_rel, "d")
    ucnt, icnt = uc.live_count, it.live_count
    live_total = _total(ucnt) + _total(icnt)
    # Initial keys in the loop's operation order, so the bits match the
    # keys it recomputes; a chunk at a time, so no temporary spans them all.
    keys = array("d", [0.0]) * n
    key_view = np.frombuffer(keys, dtype=np.float64)
    rel_of, ucnt_of, icnt_of = (np.frombuffer(rel), np.frombuffer(ucnt, dtype=ucnt.typecode),
                                np.frombuffer(icnt, dtype=icnt.typecode))
    for s in range(0, n, _CHUNK):
        e = s + _CHUNK
        key_view[s:e] = rel_of[s:e] + beta * ucnt_of[s:e] + mu * icnt_of[s:e]
    key_bits = memoryview(keys).cast("B").cast("Q")
    uc_pair, uc_first, uc_deg, uc_thr, uc_pend, uc_pend_first = (
        uc.pair, uc.first, uc.degree, uc.threshold, uc.pending, uc.pending_first)
    it_pair, it_first, it_deg, it_thr, it_pend_first = (
        it.pair, it.first, it.degree, it.threshold, it.pending_first)
    it_pend = np.frombuffer(it.pending, dtype=it.pending.typecode)

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
        for k in uc_pair[uc_first[e]:uc_first[e + 1]]:
            d = uc_deg[k] + 1
            uc_deg[k] = d
            if d == uc_thr[k]:
                for q in uc_pend[uc_pend_first[k]:uc_pend_first[k + 1]]:
                    if keys[q] != neg_inf:
                        c = ucnt[q] - 1
                        ucnt[q] = c
                        keys[q] = rel[q] + beta * c + mu * icnt[q]
        for k in it_pair[it_first[e]:it_first[e + 1]]:
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


def _compact(column: np.ndarray, typecode: str) -> array:
    """A column as a Python array: indexed as fast as a list, without one
    Python object per element."""
    out = array(typecode)
    out.frombytes(memoryview(np.ascontiguousarray(column, dtype=np.dtype(typecode))).cast("B"))
    return out


def _total(counts: array) -> int:
    return int(np.frombuffer(counts, dtype=counts.typecode).sum(dtype=np.int64))


class _PairIndex:
    """Dense ids for one side's (owner, group) pairs, (user, category) or
    (item, type): edge e is incident to the pairs (owners[e], group) for
    each group in ``grouping.groups_of(members[e])``, and a pair's threshold
    is ``table.get((owner, group), 0)``.  Holds, as Python arrays, the pair
    ids of each edge (CSR ``pair``/``first``), each pair's threshold and
    degree, and each pair's pending edges (CSR ``pending``/``pending_first``,
    increasing) with ``live_count``, the number of pending pairs per edge
    (int8 when every count fits).  The pending lists are the low 32 bits of
    the sorted keys ``pair << 32 | edge``: every key is distinct, so one
    in-place sort lists each pair's edges in increasing order.  The greedy
    reads the (item, type) side's lists as numpy slices and the (user,
    category) side's one edge at a time.  A pair with a zero threshold is
    born saturated: it has no pending edges and never lowers a key.  Each
    temporary is dropped as soon as it is used."""

    def __init__(self, grouping: Grouping, members: np.ndarray, owners: np.ndarray,
                 table: dict[tuple[int, int], int]):
        num_edges = len(members)
        edge, group = grouping.expand(members)
        pairs, pair = pair_ids(owners[edge], group)
        del group
        threshold = np.fromiter((table.get(p, 0) for p in pairs), dtype=np.int64)
        self.pair = _compact(pair, "i")
        self.first = _compact(csr_offsets(edge, num_edges), "i")
        self.threshold = _compact(threshold, "q")
        self.degree = array("q", [0]) * len(threshold)
        live = (threshold > 0)[pair]
        edge, pair = edge[live], pair[live]
        del live
        counts = np.bincount(edge, minlength=num_edges)
        self.live_count = _compact(counts, "b" if counts.max(initial=0) < 128 else "i")
        del counts
        self.pending_first = _compact(csr_offsets(pair, len(threshold)), "i")
        key = pair.astype(np.int64)
        del pair
        key <<= 32
        key |= edge
        del edge
        key.sort()
        key &= 0xFFFFFFFF
        self.pending = _compact(key, "i")
