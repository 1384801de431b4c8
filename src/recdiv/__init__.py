"""Two-sided diversification of recommendation subgraphs.

Selects degree-constrained subgraphs of a bipartite user-item candidate
graph that trade off relevance against user-side category diversity and
item-side audience diversity: exactly via a min-cost-flow reduction when
groupings are disjoint, and via a near-linear greedy submodular maximizer
otherwise.
"""

from .errors import (
    CapacityError,
    DataFormatError,
    DuplicateEdgeError,
    GraphError,
    GroupingError,
    InfeasibleError,
    NegativeCycleError,
    RecdivError,
)
from .graph import (
    DivParams,
    Grouping,
    RecGraph,
    Solution,
    ThresholdTable,
    eval_objective,
    new_solution,
)
from .mincostflow import FlowNetwork, FlowResult, solve_min_cost_flow, validate_flow
from .flownet import build_tdiv_network, solve_tdiv, solve_tdiv_detailed
from .greedy import greedy_solve
from .baselines import RankedLists, mmr, top_k, xquad
from .metrics import IntentProfile, MetricsReport

__all__ = [
    "CapacityError",
    "DataFormatError",
    "DivParams",
    "DuplicateEdgeError",
    "FlowNetwork",
    "FlowResult",
    "GraphError",
    "Grouping",
    "GroupingError",
    "InfeasibleError",
    "IntentProfile",
    "MetricsReport",
    "NegativeCycleError",
    "RankedLists",
    "RecGraph",
    "RecdivError",
    "Solution",
    "ThresholdTable",
    "build_tdiv_network",
    "eval_objective",
    "greedy_solve",
    "mmr",
    "new_solution",
    "solve_min_cost_flow",
    "solve_tdiv",
    "solve_tdiv_detailed",
    "top_k",
    "validate_flow",
    "xquad",
]

__version__ = "0.1.0"
