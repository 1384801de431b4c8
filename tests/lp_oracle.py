"""A flow network solved as a linear program, as an oracle for the network
simplex in ``recdiv.mincostflow`` that shares no code with it.

The node-arc incidence LP: minimize sum(cost * x) subject to
outflow(v) - inflow(v) = supply(v) at every node and 0 <= x <= capacity on
every arc, with ``INF_CAP`` read as no upper bound.  HiGHS's dual simplex
returns a vertex, and every vertex of a network LP with integer data is
integral, so the flow is rounded only after checking that it is integral.
Needs scipy, which the package itself does not use.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from recdiv.mincostflow import INF_CAP, FlowNetwork

INTEGRALITY_TOL = 1e-6


def lp_min_cost(net: FlowNetwork) -> int | None:
    """The minimum cost of a flow meeting every supply, or None if there is
    none.  The LP's flow is checked to be integral (within
    ``INTEGRALITY_TOL``), to conserve flow and to respect the capacities, and
    its cost is summed in integers from the rounded flow."""
    m, n = net.arc_count, net.node_count
    if m == 0:  # linprog needs a variable
        return None if any(net.supply) else 0
    tail = np.array(net.tail, dtype=np.int64)
    head = np.array(net.head, dtype=np.int64)
    arcs = np.arange(m)
    incidence = coo_array(
        (np.r_[np.ones(m), -np.ones(m)], (np.r_[tail, head], np.r_[arcs, arcs])),
        shape=(n, m),
    ).tocsr()
    capacity = np.array(net.capacity, dtype=np.int64)
    upper = np.where(capacity == INF_CAP, np.inf, capacity.astype(float))
    res = linprog(
        np.array(net.cost, dtype=float),
        A_eq=incidence,
        b_eq=np.array(net.supply, dtype=float),
        bounds=np.column_stack([np.zeros(m), upper]),
        method="highs-ds",
        # HiGHS's presolve takes seconds on the 10k-edge reduction networks,
        # and the solve alone a fraction of a second
        options={"presolve": False},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    flow = np.rint(res.x)
    assert np.abs(res.x - flow).max(initial=0.0) <= INTEGRALITY_TOL, "fractional flow"
    flow = flow.astype(np.int64)
    assert (flow >= 0).all() and (flow <= capacity).all(), "capacity violated"
    balance = np.bincount(tail, flow, n) - np.bincount(head, flow, n)
    assert balance.astype(np.int64).tolist() == net.supply, "flow not conserved"
    return sum(f * c for f, c in zip(flow.tolist(), net.cost))
