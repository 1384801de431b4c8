"""Exception hierarchy shared by all recdiv modules."""


class RecdivError(Exception):
    """Base class for all recdiv errors."""


class GraphError(RecdivError):
    """Malformed candidate graph (bad indices, negative relevance, ...)."""


class GroupingError(RecdivError):
    """Invalid or incompatible grouping (overlap where disjoint is required,
    ungrouped entity incident to a candidate edge, ...)."""


class DuplicateEdgeError(RecdivError):
    """An edge was selected (or declared) twice."""


class CapacityError(RecdivError):
    """A user's display constraint would be exceeded."""


class NegativeCycleError(RecdivError):
    """The flow network contains a negative-cost cycle of positive capacity."""


class InfeasibleError(RecdivError):
    """No feasible flow satisfies the node supplies."""


class DataFormatError(RecdivError):
    """An input file could not be parsed."""
