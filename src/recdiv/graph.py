"""Domain model: candidate graphs, groupings, thresholds and solutions.

Users and items are identified internally by dense ordinal indices; the
opaque string ids only matter at the I/O boundary.  All structures except
Solution are immutable after construction.

A RecGraph stores its edges as three read-only numpy columns indexed by
edge: ``edge_user`` and ``edge_item`` (int32) and ``edge_rel`` (float64),
16 bytes per edge.  The edges are grouped by user, in increasing user
order, so ``user_offsets`` alone indexes them as CSR (compressed sparse
rows): user u's edges are ``user_offsets[u]:user_offsets[u + 1]``.  Code
that touches many edges reads the columns with numpy operations, and reads
only the entries it needs: the metric oracles, for one, gather the items of
the selected edges alone instead of listing the whole column.
``graph.edges`` and ``graph.user_edges`` are read-only views that build
small Python records on demand; their readers are the tests, the reference
oracles, the demos and the benchmark's checks.

A Grouping is held once, as two read-only CSR arrays, ``flat`` and
``offsets``, that every layer reads; per-entity lists are built from them
per call and never kept.

TUDiv and TIDiv sum min(threshold, degree) over (user, category) and
(item, type) pairs.  All but the metric oracles number such a pair by its
cell ``owner * num_groups + group`` of a dense owner-by-group table, small
while the groups are categories or types: ``Grouping.cells`` gives each
incidence's cell, and ``threshold_cells`` each cell's threshold.  A
ThresholdTable is held once, as one such read-only int32 table per side
that every layer reads, entry ``[owner, group]`` at the pair's cell; its
dicts are views built per call, and its docstring gives the rules for
zero, huge and negative entries.

A Solution is its selection H, each user's selected edge indices; the
group degrees TUDiv and TIDiv threshold are counted from H where read.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Sequence, Sized
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DuplicateEdgeError, GraphError, GroupingError

USER_SIDE = "user"
ITEM_SIDE = "item"
MAX_THRESHOLD = 2**31 - 1  # the most an int32 threshold table holds, past any degree

# what counts as an integer: Python's and numpy's, but not bool
_INTEGERS = (int, np.integer)


def _integer_type(kind: type) -> bool:
    return issubclass(kind, _INTEGERS) and kind is not bool


def _not_integers(values: list) -> np.ndarray:
    """Marks each entry of ``values`` that is not an integer, testing each
    distinct type once."""
    bad = {kind: not _integer_type(kind) for kind in set(map(type, values))}
    if not any(bad.values()):
        return np.zeros(len(values), dtype=bool)
    return np.fromiter(map(bad.__getitem__, map(type, values)), bool, len(values))


@dataclass(frozen=True)
class Edge:
    """One candidate edge, as ``graph.edges[index]`` returns it."""

    user: int
    item: int
    relevance: float
    index: int


class _EdgeView(Sequence):
    """``graph.edges``: Edge records with Python int/float fields, built
    from the columns on each access."""

    def __init__(self, graph: "RecGraph"):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.edge_rel)

    def __getitem__(self, index: int) -> Edge:
        i = range(len(self))[index]  # bounds check and negative indices
        g = self._graph
        return Edge(g.edge_user.item(i), g.edge_item.item(i), g.edge_rel.item(i), i)

    def __iter__(self):
        g = self._graph
        return map(Edge, g.edge_user.tolist(), g.edge_item.tolist(), g.edge_rel.tolist(),
                   range(len(self)))


class _Adjacency(Sequence):
    """``graph.user_edges``: entry u is the tuple of user u's edge indices,
    read from the CSR offsets."""

    def __init__(self, offsets: np.ndarray):
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index: int) -> tuple[int, ...]:
        i = range(len(self))[index]
        return tuple(range(self._offsets[i], self._offsets[i + 1]))


def index_dtype(largest: int) -> type:
    """int32 if it holds every value up to ``largest``, else int64."""
    return np.int32 if largest < 2**31 else np.int64


def csr_offsets(ids: np.ndarray, size: int) -> np.ndarray:
    """Offsets of rows grouped by id in increasing id order: the rows of
    id i are ``offsets[i]:offsets[i + 1]``; int32 unless there are too many
    rows for it."""
    offsets = np.zeros(size + 1, dtype=index_dtype(len(ids)))
    np.cumsum(np.bincount(ids, minlength=size), out=offsets[1:])
    return offsets


def first_rows(keys: np.ndarray, bound: int) -> np.ndarray:
    """The row of each distinct key's first appearance, in increasing
    order: ``keys[first_rows(keys, bound)]`` lists the distinct keys in
    order of first appearance.  The keys are codes in ``range(bound)``:
    each code's first row is its least, found in a table of ``bound``
    entries with no sort of the keys."""
    rows = len(keys)
    first = np.full(bound, rows, dtype=index_dtype(rows))
    np.minimum.at(first, keys, np.arange(rows, dtype=first.dtype))
    first = first[first < rows]
    first.sort()
    return first


def has_repeats(keys: np.ndarray) -> bool:
    """Whether any key appears twice: one sort and one adjacent-equal test,
    which costs less than finding which row repeats.  Callers find that
    only once they know there is one."""
    ordered = np.sort(keys)
    return bool((ordered[1:] == ordered[:-1]).any())


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _columns_of(edges: list[tuple[int, int, float]]) -> tuple:
    if not edges:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    users, items, rels = zip(*edges)
    return np.array(users), np.array(items), np.array(rels)


class FirstFault:
    """The first fault of rows checked in order, as checking one row at a
    time would find it: a row's fault wins over the faults of later rows,
    and within a row the earlier check wins.  The rows before ``stop``
    passed every check so far; ``error`` is the exception of the fault at
    row ``stop``, or None."""

    def __init__(self, rows: int, error: Exception | None = None):
        self.stop = rows
        self.error = error

    def check(self, bad: np.ndarray, make_error) -> None:
        """If ``bad`` marks a row before ``stop``, the first one becomes
        the fault, with the exception ``make_error(row)``; later checks
        see only the rows before it."""
        hits = np.flatnonzero(bad[:self.stop])
        if len(hits):
            self.stop = int(hits[0])
            self.error = make_error(self.stop)

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


class RecGraph:
    """Weighted bipartite candidate graph with per-user display constraints.

    ``edges`` lists (user, item, relevance) triples; edge i is the i-th.
    The edges must be grouped by user, in increasing user order.
    ``columns`` passes the same edges as three arrays (users, items,
    relevances) instead, and is the path bulk builders take."""

    def __init__(
        self,
        user_ids: list[str],
        display_constraints: list[int],
        item_ids: list[str],
        edges: list[tuple[int, int, float]] = (),
        *,
        columns: tuple | None = None,
    ):
        if columns is None:
            columns = _columns_of(list(edges))
        if len(user_ids) != len(display_constraints):
            raise GraphError("one display constraint per user required")
        for u, c in enumerate(display_constraints):
            if not _integer_type(type(c)):
                raise GraphError(f"display constraint of user {u} must be an integer, "
                                 f"got {c!r}")
            if c < 1:
                raise GraphError(f"display constraint must be >= 1, got {c}")
        self.user_ids = list(user_ids)
        self.item_ids = list(item_ids)
        self.display_constraints = list(display_constraints)
        users, items, rels = (np.asarray(col) for col in columns)
        self.edge_user, self.edge_item, self.edge_rel = self._validated(users, items, rels)
        self.user_offsets = _frozen(csr_offsets(self.edge_user, self.num_users))
        self.edges = _EdgeView(self)
        self.user_edges = _Adjacency(self.user_offsets)

    def _validated(self, users: np.ndarray, items: np.ndarray, rels: np.ndarray):
        """The columns as read-only int32/int32/float64 copies.  The error
        raised is the one the first bad edge (in index order) would give
        when checking endpoints, then user order, then duplicates, then
        relevance."""
        if not (users.ndim == items.ndim == rels.ndim == 1
                and len(users) == len(items) == len(rels)):
            raise GraphError("edge columns must be 1-d and of equal length")
        for col in (users, items):
            if not np.issubdtype(col.dtype, np.integer):
                raise GraphError(f"edge endpoints must be integers, got {col.dtype}")
        rels = rels.astype(np.float64)
        faults = FirstFault(len(rels))
        faults.check((users < 0) | (users >= self.num_users) | (items < 0)
                     | (items >= self.num_items),
                     lambda e: GraphError(f"edge ({int(users[e])},{int(items[e])}) "
                                          "references unknown endpoint"))
        descends = np.zeros(len(users), dtype=bool)
        np.less(users[1:], users[:-1], out=descends[1:])
        faults.check(descends, lambda e: GraphError(
            f"edge ({int(users[e])},{int(items[e])}) follows an edge of user "
            f"{int(users[e - 1])}: edges must be grouped by user, in increasing order"))
        del descends
        keys = users[:faults.stop].astype(np.int64) * self.num_items + items[:faults.stop]
        # The fault-free path only sorts the keys; the repeated rows, and the
        # first of them in index order, are found once there is one.
        if has_repeats(keys):
            _, first_seen = np.unique(keys, return_index=True)
            repeated = np.ones(len(keys), dtype=bool)
            repeated[first_seen] = False
            faults.check(repeated, lambda e: DuplicateEdgeError(
                f"duplicate candidate edge ({int(users[e])},{int(items[e])})"))
        faults.check(~np.isfinite(rels) | (rels < 0), lambda e: GraphError(
            f"relevance must be finite and >= 0, got {float(rels[e])}"))
        faults.raise_first()
        return (_frozen(users.astype(np.int32)), _frozen(items.astype(np.int32)),
                _frozen(rels))

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_rel)

    def __repr__(self) -> str:
        return (
            f"RecGraph({self.num_users} users, {self.num_items} items, "
            f"{self.num_edges} edges)"
        )


def _membership_pairs(membership, num_groups: int) -> tuple:
    """``membership``'s (number of entities, owner, group) arrays, sorted.
    The error raised is the one a check of one entity at a time finds
    first: a group listed twice, then, group by group, one that is not an
    integer or not below ``num_groups``."""
    try:
        sizes = np.fromiter(map(len, membership), np.int64, len(membership))
    except TypeError:
        ent = next(i for i, m in enumerate(membership) if not isinstance(m, Sized))
        raise GroupingError(f"entity {ent} has groups {membership[ent]!r}, not a list"
                            ) from None
    flat = list(chain.from_iterable(membership))
    owner = np.repeat(np.arange(len(membership)), sizes)
    integer = ~_not_integers(flat)
    # a non-integer, or an integer past int64, reads as -1
    group = np.fromiter((g if ok and -2**63 <= g < 2**63 else -1
                         for g, ok in zip(flat, integer.tolist())), np.int64, len(flat))
    ordered = group[np.lexsort((group, owner))]
    repeated = owner[1:][(ordered[1:] == ordered[:-1]) & (owner[1:] == owner[:-1])
                         & (ordered[1:] >= 0)].tolist()
    # an entity with a group below 0 compares its groups as Python values do
    repeated += [e for e in set(owner[group < 0].tolist())
                 if any(list(membership[e]).count(g) > 1 for g in membership[e])]
    faults = FirstFault(len(flat))
    # a repeat marks every row of its entity, so it is the entity's first fault
    faults.check(np.isin(owner, repeated), lambda r: GroupingError(
        f"entity {owner[r]} listed twice in a group"))
    faults.check(~integer, lambda r: GroupingError(
        f"entity {owner[r]} lists group {flat[r]!r}, not an integer index"))
    faults.check((group < 0) | (group >= num_groups), lambda r: GroupingError(
        f"entity {owner[r]} references unknown group {flat[r]}"))
    faults.raise_first()
    return len(membership), owner, ordered


class Grouping:
    """Membership structure: user-side types or item-side categories.

    ``membership[i]`` lists entity i's groups.  Kept are two read-only CSR
    arrays: entity i's groups are ``flat[offsets[i]:offsets[i + 1]]``, int32
    and increasing.  For n listed entities ``offsets`` has n + 2 entries:
    the last gives entity n no groups, and every entity past the list reads
    as entity n.  The grouping is disjoint when no entity has more than one.
    """

    def __init__(self, side: str, group_ids: list[str], membership: list[list[int]] = (),
                 *, pairs: tuple | None = None):
        """``pairs`` passes (number of entities, owner, group) arrays instead,
        unchecked: sorted by owner, then group, distinct and in range."""
        if side not in (USER_SIDE, ITEM_SIDE):
            raise GroupingError(f"side must be 'user' or 'item', got {side!r}")
        num_entities, owner, group = pairs or _membership_pairs(membership, len(group_ids))
        self.side = side
        self.group_ids = list(group_ids)
        self.num_entities = num_entities  # how many are listed
        self.offsets = _frozen(csr_offsets(owner, num_entities + 1))
        self.flat = _frozen(group.astype(np.int32))
        self.disjoint = bool(np.diff(self.offsets).max() <= 1)

    @property
    def num_groups(self) -> int:
        return len(self.group_ids)

    def groups_of(self, entity: int) -> list[int]:
        """A fresh list; a loop over many entities takes ``group_lists``."""
        entity = min(entity, self.num_entities)
        return self.flat[self.offsets[entity]:self.offsets[entity + 1]].tolist()

    def group_lists(self, count: int) -> list[list[int]]:
        """``groups_of(i)`` for each i below ``count``, in one pass."""
        flat = self.flat.tolist()
        bounds = self.offsets[np.minimum(np.arange(count + 1), self.num_entities + 1)].tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def expand(self, entities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every (position, group) pair with ``group`` in
        ``groups_of(entities[position])``, as two arrays ordered by position,
        then group: the vectorized form of a loop over ``groups_of``.  The
        groups are int32; the positions are int32 unless there are too many
        entities or pairs for it, and then int64."""
        entities = np.asarray(entities)
        # an entity past the list reads as entity n, which has no groups
        entity = np.minimum(entities, self.num_entities,
                            out=np.empty(len(entities), dtype=np.int32), casting="unsafe")
        start, count = self.offsets[entity], np.diff(self.offsets)[entity]
        del entity
        total = int(count.sum(dtype=np.int64))
        index = index_dtype(max(len(entities), total, len(self.flat)))
        # pair k of position p reads flat[start[p] + k - (first pair of p)]
        skip = np.cumsum(count, dtype=index)
        skip -= count
        np.subtract(start, skip, out=skip)
        del start
        at = np.repeat(skip, count)
        del skip
        at += np.arange(total, dtype=index)
        group = self.flat[at]
        del at
        return np.repeat(np.arange(len(entities), dtype=index), count), group

    def cells(self, owners: np.ndarray, members: np.ndarray,
              num_owners: int) -> tuple[np.ndarray, np.ndarray]:
        """``expand(members)``'s positions, and the cell ``owners[position]
        * num_groups + group`` of each (position, group) pair, for owners
        below ``num_owners``: int32 while the table has under 2**31 cells."""
        position, group = self.expand(members)
        cell = np.asarray(owners)[position].astype(
            index_dtype(num_owners * self.num_groups), copy=False)
        cell *= self.num_groups
        cell += group
        return position, cell

    def tally(self, owners: np.ndarray, members: np.ndarray) -> dict[int, dict[int, int]]:
        """Each owner's {group: count} over the rows, counting the groups of
        each row's member: owners in order of their first row (rows whose
        member has no group included), groups in order of first
        appearance."""
        owners = np.asarray(owners)
        num_owners = int(owners.max()) + 1 if len(owners) else 0
        cell = self.cells(owners, members, num_owners)[1]
        _, first, count = np.unique(cell, return_index=True, return_counts=True)
        order = np.argsort(first)
        first_owners = owners[first_rows(owners, num_owners)].tolist()
        counts: dict[int, dict[int, int]] = {o: {} for o in first_owners}
        for k, c in zip(cell[first[order]].tolist(), count[order].tolist()):
            counts[k // self.num_groups][k % self.num_groups] = c
        return counts


class ThresholdTable:
    """Nonnegative integer thresholds per (user, category) and (item, type)
    pair.  Kept are two read-only int32 owner-by-group tables, ``rho_table``
    (users by categories) and ``lam_table`` (items by types), the one
    representation every layer reads: entry ``[owner, group]`` is the pair's
    threshold, 0 for a missing entry or one past the table's edge, and its
    row-major index is the pair's cell.  The dicts ``user_category`` and
    ``item_type`` are views, built per call, of the positive entries in key
    order: a zero entry is the same as no entry.

    The constructor takes those dicts as its input format and checks them
    entry by entry.  A value past 2**31 - 1, past any degree, is held as
    2**31 - 1; a key with a negative owner or group names a pair no edge
    has, and is dropped; the table spans the largest key left, and a key
    past 2**31 - 1, the int32 index range, raises before any table is
    allocated.  Bulk builders pass the two owner-by-group tables through
    ``tables`` instead; each must be 2-d, of an integer dtype (not bool)
    and nonnegative, is held as an int32 copy with values past 2**31 - 1
    clamped, and a fault raises naming the side and the first bad cell in
    row-major order.  The dicts take that path too."""

    def __init__(
        self,
        user_category: dict[tuple[int, int], int] | None = None,
        item_type: dict[tuple[int, int], int] | None = None,
        *, tables: tuple | None = None,
    ):
        if tables is None:
            tables = (_table_of(user_category or {}, "user"), _table_of(item_type or {}, "item"))
        rho_table, lam_table = tables
        self.rho_table = _frozen(_checked_table(rho_table, "user"))
        self.lam_table = _frozen(_checked_table(lam_table, "item"))

    @property
    def user_category(self) -> dict[tuple[int, int], int]:
        return _entries(self.rho_table)

    @property
    def item_type(self) -> dict[tuple[int, int], int]:
        return _entries(self.lam_table)

    def rho(self, user: int, category: int) -> int:
        return _entry(self.rho_table, user, category)

    def lam(self, item: int, type_: int) -> int:
        return _entry(self.lam_table, item, type_)

    @classmethod
    def uniform(
        cls,
        graph: RecGraph,
        user_types: Grouping,
        item_cats: Grouping,
        rho: int = 1,
        lam: int = 1,
    ) -> "ThresholdTable":
        """Constant thresholds on every (entity, group) pair incident to a
        candidate edge.  Non-incident pairs can never accrue degree, so
        restricting to incident pairs leaves every objective unchanged."""
        return cls(tables=(_incident_table(item_cats, graph.edge_user, graph.edge_item,
                                           graph.num_users, rho, "user"),
                           _incident_table(user_types, graph.edge_item, graph.edge_user,
                                           graph.num_items, lam, "item")))


def _table_of(entries: dict[tuple[int, int], int], name: str) -> np.ndarray:
    """The ``name`` side's dict as a table, checked entry by entry in order."""
    rows = []
    for key, value in entries.items():
        if not (isinstance(key, tuple) and len(key) == 2
                and _integer_type(type(key[0])) and _integer_type(type(key[1]))):
            raise GraphError(f"{name} threshold key {key!r} is not a pair of integers")
        if min(key) >= 0 and max(key) > MAX_THRESHOLD:
            raise GraphError(f"{name} threshold key {key} is past {MAX_THRESHOLD}, "
                             "the int32 index range")
        if not _integer_type(type(value)):
            raise GraphError(f"{name} threshold {key} is not an integer: {value!r}")
        if value < 0:
            raise GraphError(f"{name} threshold {key} is negative: {value}")
        rows.append((min(value, MAX_THRESHOLD), *key))
    rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
    value, owner, group = rows[(rows[:, 1:] >= 0).all(axis=1)].T
    table = np.zeros((owner.max(initial=-1) + 1, group.max(initial=-1) + 1), dtype=np.int32)
    table[owner, group] = value
    return table


def _checked_table(table, name: str) -> np.ndarray:
    """The ``name`` side's table as a fresh int32 array, checked whole."""
    table = np.asarray(table)
    if table.ndim != 2:
        raise GraphError(f"{name} threshold table must be 2-d, got {table.ndim}-d")
    if not np.issubdtype(table.dtype, np.integer):
        raise GraphError(f"{name} thresholds must be integers, got {table.dtype}")
    negative = table < 0
    if negative.any():
        key = tuple(map(int, np.unravel_index(negative.argmax(), table.shape)))
        raise GraphError(f"{name} threshold {key} is negative: {table[key]}")
    checked = table.astype(np.int32)
    checked[table > MAX_THRESHOLD] = MAX_THRESHOLD
    return checked


def _incident_table(grouping: Grouping, owners: np.ndarray, members: np.ndarray,
                    num_owners: int, value: int, name: str) -> np.ndarray:
    """``value`` in every cell some row's incidence marks, 0 elsewhere; a
    bad value raises the error the smallest marked pair's entry would."""
    table = np.zeros((num_owners, grouping.num_groups), dtype=np.int32)
    cells = grouping.cells(owners, members, num_owners)[1]
    if len(cells):
        first = divmod(int(cells.min()), grouping.num_groups)
        table.ravel()[cells] = _table_of({first: value}, name)[first]  # ravel: a view, not a copy
    return table


def _entries(table: np.ndarray) -> dict[tuple[int, int], int]:
    owner, group = np.nonzero(table)
    return dict(zip(zip(owner.tolist(), group.tolist()), table[owner, group].tolist()))


def _entry(table: np.ndarray, owner: int, group: int) -> int:
    rows, width = table.shape
    return table.item(owner, group) if 0 <= owner < rows and 0 <= group < width else 0


def threshold_cells(table: np.ndarray, num_owners: int, width: int) -> np.ndarray:
    """Each cell's threshold over ``num_owners`` owners and ``width``
    groups, as a fresh int32 array: the block of ``table`` those span, 0
    past its edge.  Entries outside the block name pairs no row has."""
    block = table[:num_owners, :width]
    return np.pad(block, ((0, num_owners - len(block)), (0, width - block.shape[1]))).ravel()


@dataclass(frozen=True)
class DivParams:
    """Trade-off weights for the two diversity terms."""

    beta: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        for name, v in (("beta", self.beta), ("mu", self.mu)):
            if not math.isfinite(v) or v < 0:
                raise GraphError(f"{name} must be finite and >= 0, got {v}")


@dataclass
class Solution:
    """A selected subgraph H: ``selected[u]`` lists user u's selected edge
    indices in increasing order.  Degrees per (user, category) and per
    (item, type) pair are not stored; eval_objective and the metrics count
    them from the selection."""

    graph: RecGraph
    user_types: Grouping
    item_cats: Grouping
    selected: list[list[int]] = field(init=False)

    def __post_init__(self):
        self.selected = [[] for _ in range(self.graph.num_users)]
        self._selected_set: set[int] = set()

    def add_edge(self, edge_index: int) -> None:
        self.add_edges([edge_index])

    def add_edges(self, edge_indices) -> None:
        """Select each edge in turn, as repeated add_edge calls would: an
        index that is not an edge's, an edge already selected or one past
        its user's display constraint raises, and the edges before it stay
        selected."""
        edge_indices = list(edge_indices)
        graph = self.graph
        faults = FirstFault(len(edge_indices))
        faults.check(_not_integers(edge_indices), lambda k: GraphError(
            f"edge index {edge_indices[k]!r} is not an integer"))
        # an index past int64 makes an object array, whose comparisons still hold
        index = np.array(edge_indices[:faults.stop])
        faults.check((index < 0) | (index >= graph.num_edges), lambda k: GraphError(
            f"edge index {edge_indices[k]} is out of range for {graph.num_edges} edges"))
        index = index[:faults.stop].astype(np.int64)
        users = graph.edge_user[index].tolist()
        for edge_index, u in zip(index.tolist(), users):
            if edge_index in self._selected_set:
                raise DuplicateEdgeError(f"edge {edge_index} already selected")
            lst = self.selected[u]
            if len(lst) >= graph.display_constraints[u]:
                raise CapacityError(
                    f"user {u} is at its display constraint "
                    f"({graph.display_constraints[u]})"
                )
            insort(lst, edge_index)
            self._selected_set.add(edge_index)
        faults.raise_first()

    def edge_indices(self) -> list[int]:
        return sorted(self._selected_set)

    def relevance(self) -> float:
        # summed in the set's iteration order, which is its hash-slot order,
        # not the order the edges were added: the last bits of the total
        # depend on the set's internals (ROADMAP item 4)
        chosen = np.fromiter(self._selected_set, dtype=np.int64,
                             count=len(self._selected_set))
        return sum(self.graph.edge_rel[chosen].tolist(), 0.0)

    def num_selected(self) -> int:
        return len(self._selected_set)

    def ranked_lists(self, k: int | None = None) -> list[list[int]]:
        """Per-user item lists ranked by relevance descending (ties by edge
        index), truncated to k.  Used to apply rank cutoffs to the otherwise
        unordered selection."""
        sizes = list(map(len, self.selected))
        chosen = np.fromiter(chain.from_iterable(self.selected), np.int64, sum(sizes))
        owner = np.repeat(np.arange(len(sizes)), sizes)
        # only the selected edges' entries of the columns are read
        order = np.lexsort((chosen, -self.graph.edge_rel[chosen], owner))
        items = self.graph.edge_item[chosen[order]].tolist()
        bounds = np.cumsum([0, *sizes]).tolist()
        return [items[a:b][:k] for a, b in zip(bounds, bounds[1:])]


def new_solution(
    graph: RecGraph,
    user_types: Grouping | None = None,
    item_cats: Grouping | None = None,
) -> Solution:
    """Empty solution on ``graph``; ungrouped sides default to a grouping
    that lists no entity, so none has a group (zero diversity)."""
    if user_types is None:
        user_types = Grouping(USER_SIDE, [], [])
    if item_cats is None:
        item_cats = Grouping(ITEM_SIDE, [], [])
    return Solution(graph, user_types, item_cats)


def eval_objective(sol: Solution, thresholds: ThresholdTable, params: DivParams) -> float:
    """beta*TUDiv(H) + mu*TIDiv(H) + rel(H), with the degrees of H counted
    in one vectorized pass over the selected edges.  The metrics module
    recomputes the same quantity with plain loops; agreement between the
    two is checked by the property tests."""
    chosen = np.fromiter(sol._selected_set, dtype=np.int64, count=sol.num_selected())
    g = sol.graph
    users, items = g.edge_user[chosen], g.edge_item[chosen]
    tu = _capped_degree_sum(users, items, g.num_users, sol.item_cats, thresholds.rho_table)
    ti = _capped_degree_sum(items, users, g.num_items, sol.user_types, thresholds.lam_table)
    return params.beta * tu + params.mu * ti + sol.relevance()


def _capped_degree_sum(owners: np.ndarray, members: np.ndarray, num_owners: int,
                       grouping: Grouping, table: np.ndarray) -> int:
    """Sum over (owner, group) cells of min(threshold, degree), where a
    cell's degree counts the k with ``owners[k] == owner`` and ``group`` in
    ``grouping.groups_of(members[k])``."""
    threshold = threshold_cells(table, num_owners, grouping.num_groups)
    degree = np.bincount(grouping.cells(owners, members, num_owners)[1],
                         minlength=len(threshold))
    return int(np.minimum(degree, threshold).sum())
