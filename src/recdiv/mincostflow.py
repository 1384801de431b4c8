"""Exact minimum-cost flow over integer capacities and signed integer costs.

Primal network simplex on flat lists, in integer arithmetic throughout.
Every node starts joined to an artificial root by an arc of infinite
capacity, pointing toward the root (cost 0) at nodes of nonnegative supply
and away from it (a big-M cost above that of any simple path) at demand
nodes, so the initial spanning tree is feasible and strongly feasible.
Entering arcs come from block search pricing over blocks of about sqrt(m)
arcs; the leaving arc is the last blocking arc around the cycle, which
keeps the tree strongly feasible and rules out cycling.  The tree is held
in parent/pred/thread/depth arrays.  Supplies that cannot be met leave
flow on an artificial arc.  A label-correcting pass first rejects networks
with a negative-cost cycle of positive capacity.  Parallel arcs are kept
distinct, and arcs of zero capacity never enter the tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from math import isqrt

from .errors import GraphError, NegativeCycleError

INF_CAP = 1 << 60


class FlowNetwork:
    """Directed network with integer arc capacities/costs and node supplies
    (positive = source, negative = demand)."""

    def __init__(self, node_count: int = 0):
        self.node_count = node_count
        self.tail: list[int] = []
        self.head: list[int] = []
        self.capacity: list[int] = []
        self.cost: list[int] = []
        self.supply: list[int] = [0] * node_count

    def add_node(self) -> int:
        self.supply.append(0)
        self.node_count += 1
        return self.node_count - 1

    def add_arc(self, tail: int, head: int, capacity: int, cost: int) -> int:
        if not (0 <= tail < self.node_count and 0 <= head < self.node_count):
            raise GraphError(f"arc ({tail},{head}) references unknown node")
        if capacity < 0:
            raise GraphError(f"arc capacity must be >= 0, got {capacity}")
        self.tail.append(tail)
        self.head.append(head)
        self.capacity.append(int(capacity))
        self.cost.append(int(cost))
        return len(self.tail) - 1

    def set_supply(self, node: int, amount: int) -> None:
        self.supply[node] = int(amount)

    @property
    def arc_count(self) -> int:
        return len(self.tail)


@dataclass
class FlowResult:
    flow: list[int]
    total_cost: int
    feasible: bool
    potentials: list[int]


def _check_no_negative_cycle(net: FlowNetwork) -> None:
    """Label-correcting pass from a virtual source joined to every node at
    cost 0, over the arcs of positive capacity.  A node relaxed more than
    n times lies on a negative-cost cycle."""
    n = net.node_count
    tail, head, cap, cost = net.tail, net.head, net.capacity, net.cost
    first = [-1] * n
    nxt = [-1] * net.arc_count
    for a in range(net.arc_count):
        if cap[a] > 0:
            nxt[a] = first[tail[a]]
            first[tail[a]] = a
    dist = [0] * n
    in_queue = [True] * n
    relax_count = [0] * n
    queue = deque(range(n))
    while queue:
        u = queue.popleft()
        in_queue[u] = False
        du = dist[u]
        a = first[u]
        while a != -1:
            v = head[a]
            nd = du + cost[a]
            if nd < dist[v]:
                dist[v] = nd
                relax_count[v] += 1
                if relax_count[v] >= n + 1:
                    raise NegativeCycleError(
                        "negative-cost cycle of positive capacity detected"
                    )
                if not in_queue[v]:
                    in_queue[v] = True
                    queue.append(v)
            a = nxt[a]


def solve_min_cost_flow(net: FlowNetwork) -> FlowResult:
    """Minimum-cost integral flow satisfying all node supplies.

    Returns ``feasible=False`` (with the flow values of the big-M optimum)
    when the supplies cannot be met.  Raises NegativeCycleError when the
    input network contains a negative-cost cycle of positive capacity.
    """
    if sum(net.supply) != 0:
        raise GraphError("node supplies must sum to zero")
    _check_no_negative_cycle(net)
    n = net.node_count
    root = n

    # The arcs of positive capacity, in their order, become arcs 0..m-1;
    # arc m+u joins node u and the root.  state: 1 at the lower bound, -1 at
    # the upper bound, 0 in the tree.
    live = [a for a, c in enumerate(net.capacity) if c]
    m = len(live)
    tail = [net.tail[a] for a in live] + [0] * n
    head = [net.head[a] for a in live] + [0] * n
    cap = [net.capacity[a] for a in live] + [INF_CAP] * n
    cost = [net.cost[a] for a in live] + [0] * n
    flow = [0] * (m + n)
    state = [1] * m + [0] * n

    # Spanning tree rooted at the artificial root.  pred[u] is the tree arc
    # joining u to parent[u] (in either direction), and thread is the
    # preorder successor (rev_thread its inverse).
    parent = [root] * n + [-1]
    pred = [m + u for u in range(n)] + [-1]
    depth = [1] * n + [0]
    thread = list(range(1, n + 1)) + [0]
    rev_thread = [n] + list(range(n))
    pi = [0] * (n + 1)
    big = (max(map(abs, cost), default=0) + 1) * (n + 1)
    for u, b in enumerate(net.supply):
        a = m + u
        if b >= 0:
            tail[a], head[a], flow[a] = u, root, b
        else:
            tail[a], head[a], flow[a], cost[a], pi[u] = root, u, -b, big, big

    block = max(isqrt(m), 10)
    next_start = 0
    while True:
        # Block search: scan the arcs in blocks of about sqrt(m), from where
        # the last search stopped and wrapping around, and take the most
        # violating arc of the first block that has one.  None: optimal.
        in_arc = -1
        for start in chain(range(next_start, m, block), range(0, next_start, block)):
            stop = min(start + block, m)
            violation = [s * (c + pi[t] - pi[h]) for s, c, t, h in zip(
                state[start:stop], cost[start:stop], tail[start:stop], head[start:stop]
            )]
            low = min(violation)
            if low < 0:
                in_arc = start + violation.index(low)
                next_start = stop if stop < m else 0
                break
        if in_arc < 0:
            break

        # The cycle pushes flow over in_arc from first to second.
        if state[in_arc] == 1:
            first, second = tail[in_arc], head[in_arc]
        else:
            first, second = head[in_arc], tail[in_arc]
        u, v = first, second
        while depth[u] > depth[v]:
            u = parent[u]
        while depth[v] > depth[u]:
            v = parent[v]
        while u != v:
            u = parent[u]
            v = parent[v]
        join = u

        # Leaving arc: the last blocking arc in the direction of the cycle,
        # starting from join, which keeps the tree strongly feasible.
        delta = cap[in_arc]
        side = 0
        u_out = -1
        u = first
        while u != join:
            e = pred[u]
            d = flow[e] if tail[e] == u else cap[e] - flow[e]
            if d < delta:
                delta, u_out, side = d, u, 1
            u = parent[u]
        u = second
        while u != join:
            e = pred[u]
            d = cap[e] - flow[e] if tail[e] == u else flow[e]
            if d <= delta:
                delta, u_out, side = d, u, 2
            u = parent[u]

        if delta:
            flow[in_arc] += state[in_arc] * delta
            u = first
            while u != join:
                e = pred[u]
                flow[e] += -delta if tail[e] == u else delta
                u = parent[u]
            u = second
            while u != join:
                e = pred[u]
                flow[e] += delta if tail[e] == u else -delta
                u = parent[u]
        if not side:
            state[in_arc] = -state[in_arc]
            continue

        u_in, v_in = (first, second) if side == 1 else (second, first)
        out_arc = pred[u_out]
        state[out_arc] = 1 if flow[out_arc] == 0 else -1
        state[in_arc] = 0
        reduced = cost[in_arc] + pi[tail[in_arc]] - pi[head[in_arc]]
        sigma = -reduced if tail[in_arc] == u_in else reduced

        # The subtree below out_arc, in thread order; cut it out of the thread.
        d_out = depth[u_out]
        seq = [u_out]
        x = thread[u_out]
        while depth[x] > d_out:
            seq.append(x)
            x = thread[x]
        before = rev_thread[u_out]
        thread[before] = x
        rev_thread[x] = before

        # Re-root that subtree at u_in, reversing the stem u_in = s_0, ...,
        # s_k = u_out.  The new preorder lists each s_i with its old subtree
        # less the old subtree of s_{i-1}: the slices of seq on either side
        # of that of s_{i-1}.
        stem = [u_in]
        while stem[-1] != u_out:
            stem.append(parent[stem[-1]])
        pos = {x: j for j, x in enumerate(seq)}
        order = []
        lo_prev = hi = pos[u_in] + 1
        for s in stem:
            lo, hi_prev, ds = pos[s], hi, depth[s]
            while hi < len(seq) and depth[seq[hi]] > ds:
                hi += 1
            order += seq[lo:lo_prev]
            order += seq[hi_prev:hi]
            lo_prev = lo
        for i in range(len(stem) - 1, 0, -1):
            s, t = stem[i], stem[i - 1]
            parent[s], pred[s] = t, pred[t]
        parent[u_in], pred[u_in] = v_in, in_arc

        # Hang the subtree after v_in in the thread, with new depths and
        # potentials shifted so that in_arc has zero reduced cost.
        after = thread[v_in]
        prev = v_in
        for x in order:
            thread[prev] = x
            rev_thread[x] = prev
            depth[x] = depth[parent[x]] + 1
            pi[x] += sigma
            prev = x
        thread[prev] = after
        rev_thread[after] = prev

    feasible = not any(flow[m:])
    net_flow = [0] * net.arc_count
    for a, f in zip(live, flow):
        net_flow[a] = f
    return FlowResult(
        flow=net_flow,
        total_cost=sum(f * c for f, c in zip(net_flow, net.cost)),
        feasible=feasible,
        potentials=pi[:n],
    )


def validate_flow(net: FlowNetwork, result: FlowResult) -> bool:
    """Capacity bounds and conservation, recomputed from scratch."""
    if len(result.flow) != net.arc_count:
        raise GraphError("flow vector length does not match arc count")
    for k, f in enumerate(result.flow):
        if f < 0 or f > net.capacity[k]:
            return False
    balance = [0] * net.node_count
    for k, f in enumerate(result.flow):
        balance[net.tail[k]] -= f
        balance[net.head[k]] += f
    for node in range(net.node_count):
        if balance[node] != -net.supply[node]:
            return False
    if result.total_cost != sum(f * c for f, c in zip(result.flow, net.cost)):
        return False
    return True


def to_dimacs(net: FlowNetwork) -> str:
    """DIMACS min-cost-flow text (1-based nodes), for debugging fixtures."""
    lines = [f"p min {net.node_count} {net.arc_count}"]
    for node, sup in enumerate(net.supply):
        if sup != 0:
            lines.append(f"n {node + 1} {sup}")
    for k in range(net.arc_count):
        lines.append(
            f"a {net.tail[k] + 1} {net.head[k] + 1} 0 {net.capacity[k]} {net.cost[k]}"
        )
    return "\n".join(lines) + "\n"
