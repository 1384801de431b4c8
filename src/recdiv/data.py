"""File ingestion, train/test splitting and threshold derivation.

Formats (UTF-8; LF, CRLF or CR line ends; blank lines are skipped):

* Ratings: MovieLens ``user::item::rating[::timestamp]`` or CSV/TSV with
  columns user,item,rating (header detected); extra columns are discarded.
  Each line is split on ``::`` if it has one, else on tabs if it has one,
  else on commas.
* Groupings: TSV ``entity_id<TAB>Group1|Group2|...``.
* Candidates: TSV ``user_id<TAB>item_id<TAB>relevance`` (or comma-separated,
  per line; header detected; extra columns discarded).
* Thresholds: TSV ``side<TAB>entity_id<TAB>group_id<TAB>value`` with side
  in {user, item}.
* Solutions: TSV ``user_id<TAB>item_id<TAB>relevance<TAB>method``.
* Constraints: TSV ``user_id<TAB>display_constraint`` (a positive integer).

Every loader reads its file through one block reader, ``_read``.  It
reads about ``BLOCK_CHARS`` characters of whole lines at a time, counts
each line's separators with ``str.count``, splits the block once and hands
the loader the block's rows as columns of field strings, taken from the
split by stride slicing: it makes no list or tuple per row, and keeps a
row's line number only for error messages.  Loaders parse numbers with
``map``, code ids with ``dict.fromkeys`` and check rows as arrays.  A
block's strings take over ten times its text, so a load's transient
memory is one block's strings plus the columns it keeps, int32 codes and
line numbers among them.  Blocks of 2**18 characters, about 10k rows of a
candidate file, hold a 125k-row load's traced peak to 68 bytes per row
(159 with blocks of 2**20), at no cost in time.

Ratings and candidates are triple files, ``user, item, number`` rows
that may carry extra columns and a header line.  Both read through
``_read_triples``, which parses and checks the number, codes the ids and
rejects a repeated (user, item) pair.

An error names the first malformed line, ``path:line``, as a line-by-line
reader would: within a line the checks run in a fixed order, and a line's
fault wins over the faults of later lines.  Each block records its first
fault (``graph.FirstFault``) instead of raising it: a loader's checks run
in turn, each on the rows before the block's ``stop``, the rows the
earlier checks passed.  A line with the wrong number of fields, or text
that is not UTF-8, is the fault of the block that holds it, and reading
ends at the first block with a fault.  Checks across blocks, such as for
repeated rows, run last on the rows kept, and then the load raises the
first fault.  So for a file of one block that is not UTF-8, that error
wins over any data error.

A ``RatingsDataset`` is three columns: user ids, item ids (lists of str)
and the ratings (a float64 array), row i being one rating.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from itertools import chain, compress, filterfalse, repeat
from pathlib import Path

import numpy as np

from .errors import DataFormatError, GraphError
from .graph import (MAX_THRESHOLD, FirstFault, Grouping, RecGraph, Solution, ThresholdTable,
                    first_rows, has_repeats, index_dtype)

BLOCK_CHARS = 1 << 18  # characters of text read per block
_WRITE_ROWS = 1 << 15  # rows formatted per write

_TAB = ("\t",)
_TAB_OR_COMMA = ("\t", ",")
_RATING_SEPS = ("::", "\t", ",")


@dataclass(eq=False)
class RatingsDataset:
    """Ratings as columns: row i rates item ``items[i]`` by user
    ``users[i]`` with ``ratings[i]``; no (user, item) pair repeats."""

    users: list[str]
    items: list[str]
    ratings: np.ndarray

    def __post_init__(self):
        self.ratings = np.asarray(self.ratings, dtype=np.float64)
        if not len(self.users) == len(self.items) == len(self.ratings):
            raise DataFormatError("ratings columns must be of equal length")

    def __len__(self) -> int:
        return len(self.ratings)

    def subset(self, mask: np.ndarray) -> "RatingsDataset":
        """The rows where ``mask`` is true, in order."""
        keep = mask.tolist()
        return RatingsDataset(list(compress(self.users, keep)),
                              list(compress(self.items, keep)), self.ratings[mask])


@dataclass
class SplitSpec:
    folds: int = 5
    min_ratings: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise DataFormatError(f"folds must be >= 2, got {self.folds}")
        if self.min_ratings < 1:
            raise DataFormatError(f"min_ratings must be >= 1, got {self.min_ratings}")


# ---------------------------------------------------------------------------
# The block reader

class _Block(FirstFault):
    """One block's rows as ``columns`` of field strings; row r was read
    from line ``lines[r]`` of ``path``.  A check's fault is recorded as a
    ``path:line`` error."""

    def __init__(self, path, columns: list[list[str]], lines: np.ndarray,
                 error: Exception | None = None):
        super().__init__(len(lines), error)
        self.path = path
        self.columns = columns
        self.lines = lines

    def check(self, bad: np.ndarray, message, kind=DataFormatError) -> None:
        """FirstFault.check with the error ``kind("path:line: "
        + message(row))``."""
        super().check(bad, lambda row: kind(f"{self.path}:{self.lines[row]}: {message(row)}"))


def _split_block(path, text: str, end: bool, first_line: int, width: int, seps,
                 triples: bool):
    """The _Block of the whole lines of ``text`` (numbered from
    ``first_line``), the number of whole lines, and the text after them.
    The rows stop before the first malformed line, which is the block's
    fault.  With ``end``, the text ends the file and its last line is
    whole."""
    lines = text.split("\n")
    # Unless the file ended, the last line may go on in the next block; if
    # it did, a last line end leaves an empty string.
    rest = "" if end else lines.pop()
    if end and not lines[-1]:
        lines.pop()
    n = len(lines)
    fields = np.ones(n, dtype=np.int64)
    sep_of = np.full(n, -1, dtype=np.int64)  # index in seps of each line's separator
    for k, sep in enumerate(seps):
        if sep in text:
            count = np.fromiter(map(str.count, lines, repeat(sep)), np.int64, n)
            take = (sep_of < 0) & (count > 0)
            fields[take] += count[take]
            sep_of[take] = k
    skip = (np.fromiter(map(operator.not_, lines), bool, n) if "" in lines
            else np.zeros(n, dtype=bool))
    used = np.unique(sep_of[sep_of >= 0]).tolist()
    # Lines end at "\n", which no field holds, so each line's separators
    # become "\n" too and one split of the text gives every field in turn
    # (after the fields of the whole lines come those of ``rest``).
    if len(used) > 1:
        # lines split on different separators: each replaces its own (a line
        # with none, at -1, holds no seps[-1] either)
        line_seps = [seps[k] for k in sep_of.tolist()]
        flat = "\n".join(map(str.replace, lines, line_seps, repeat("\n"))).split("\n")
    elif used:
        del lines  # its strings make room for the fields
        flat = text.replace(seps[used[0]], "\n").split("\n")
    else:
        flat = lines
    bad = (fields < width) if triples else (fields != width)
    faults = FirstFault(n)
    faults.check(bad & ~skip, lambda line: DataFormatError(
        f"{path}:{first_line + line}: expected {'>= ' * triples}{width} fields, "
        f"got {int(fields[line])}"))
    stop = faults.stop
    if triples and first_line == 1 and stop > 0 and not skip[0]:
        try:
            float(flat[width - 1])
        except ValueError:
            skip[0] = True
    rows = np.flatnonzero(~skip[:stop])
    starts = np.cumsum(fields) - fields  # each line's first field in flat
    step = int(fields[rows[0]]) if len(rows) else width
    if len(rows) and rows[-1] - rows[0] + 1 == len(rows) and (fields[rows] == step).all():
        base = int(starts[rows[0]])
        columns = [flat[base + j:base + len(rows) * step:step] for j in range(width)]
    else:
        columns = [list(map(flat.__getitem__, (starts[rows] + j).tolist()))
                   for j in range(width)]
    return (_Block(path, columns, (rows + first_line).astype(index_dtype(first_line + n)),
                   faults.error), n, rest)


def _read(path, convert, width: int, seps=_TAB, triples: bool = False
          ) -> tuple[list, FirstFault]:
    """``convert(block)`` of each _Block of ``width`` columns that
    ``path``'s non-blank lines give, up to the first block with a fault,
    and the file's faults: the rows before ``stop`` are the rows the blocks
    kept, and ``error`` is the first block fault.

    Each line is split on the first of ``seps`` it contains and must give
    exactly ``width`` fields.  In ``triples`` files a line may give more
    (the extra ones are dropped), and a first line whose field
    ``width - 1`` is not a number is a column header and is skipped.  A
    line with the wrong number of fields ends its block's rows and is the
    block's fault, and so is text that is not UTF-8."""
    parts, rows, error = [], 0, None
    with open(path, encoding="utf-8") as fh:
        first_line, rest = 1, ""
        while error is None:
            try:
                text = rest + fh.read(BLOCK_CHARS)
            except UnicodeDecodeError as exc:
                error = DataFormatError(f"{path}: not UTF-8 text ({exc.reason})")
                break
            end = len(text) - len(rest) < BLOCK_CHARS  # a short read ends the file
            block, lines, rest = _split_block(path, text, end, first_line, width, seps,
                                              triples)
            del text
            parts.append(convert(block))
            rows, error = rows + block.stop, block.error
            del block  # no block is held while the next is read
            if end:
                break
            first_line += lines
    return parts, FirstFault(rows, error)


def _numbers(block: _Block, texts: list[str], what: str, kind=float):
    """``kind`` of the texts of the rows before ``block.stop`` (a float64
    array for ``float``, else a list); the first that is not a valid
    ``kind`` is a fault, and the texts before it are converted."""
    if block.stop < len(texts):
        texts = texts[:block.stop]
    try:
        if kind is float:
            return np.fromiter(map(float, texts), np.float64, len(texts))
        return list(map(kind, texts))
    except ValueError:
        pass
    block.check(np.fromiter(map(_not_a, repeat(kind), texts), bool, len(texts)),
                lambda row: f"{what} {texts[row]!r} is not a valid {kind.__name__}")
    return _numbers(block, texts, what, kind)


def _not_a(kind, text: str) -> bool:
    try:
        kind(text)
    except ValueError:
        return True
    return False


def _codes(code: dict[str, int], names: list[str]) -> np.ndarray:
    """The code of each name in ``code``, after numbering the names not in
    it yet in order of first appearance: int32 while the codes fit."""
    fresh = list(filterfalse(code.__contains__, dict.fromkeys(names)))
    code.update(zip(fresh, range(len(code), len(code) + len(fresh))))
    return np.fromiter(map(code.__getitem__, names), index_dtype(len(code)), len(names))


def _indices(index: dict[str, int], names) -> np.ndarray:
    """``index[name]`` of each name, -1 for names not in ``index``."""
    names = list(names)
    return np.fromiter(map(index.get, names, repeat(-1)), np.int64, len(names))


def _positions(ids: list[str]) -> dict[str, int]:
    return dict(zip(ids, range(len(ids))))


def _earlier(keys: np.ndarray) -> np.ndarray:
    """How many earlier entries of ``keys`` equal each one."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    earlier = np.empty(len(keys), dtype=np.int64)
    earlier[order] = np.arange(len(keys)) - np.searchsorted(ordered, ordered)
    return earlier


def _concat(parts, column: int, dtype=np.int64) -> np.ndarray:
    return np.concatenate([p[column] for p in parts] or [np.zeros(0, dtype=dtype)])


def _sorted_rank(names: list[str]) -> np.ndarray:
    """The rank of each name in sorted order."""
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return rank


# ---------------------------------------------------------------------------
# Ratings and splitting

def _read_triples(path, seps, what: str, valid, fault: str, kind):
    """The rows of a ``user, item, number`` file as user codes, item codes
    and numbers, with the user and item names in code order.  A number for
    which ``valid`` of the numbers is false is a fault, ``kind("path:line:
    <what> <number> <fault>")``, and so is a repeated (user, item) pair."""
    user_code: dict[str, int] = {}
    item_code: dict[str, int] = {}

    def convert(block):
        users, items, texts = block.columns
        numbers = _numbers(block, texts, what)
        block.check(~valid(numbers), lambda row: f"{what} {float(numbers[row])} {fault}", kind)
        n = block.stop
        return (_codes(user_code, users[:n]), _codes(item_code, items[:n]), numbers[:n],
                block.lines[:n])

    parts, faults = _read(path, convert, 3, seps, True)
    user, item = _concat(parts, 0), _concat(parts, 1)
    user_names, item_names = list(user_code), list(item_code)
    keys = user.astype(np.int64) * len(item_names) + item
    if has_repeats(keys):
        faults.check(_earlier(keys) > 0, lambda row: DataFormatError(
            f"{path}:{_concat(parts, 3)[row]}: duplicate pair "
            f"({user_names[user[row]]},{item_names[item[row]]})"))
    faults.raise_first()
    return user, item, _concat(parts, 2, np.float64), user_names, item_names


def load_ratings(path: str | Path) -> RatingsDataset:
    """Parse a ratings file; '::', tab and comma delimiters are accepted and
    a leading header row is skipped when the rating column is not numeric.
    A rating must be a finite number, and a (user, item) pair may appear
    only once."""
    user, item, ratings, user_names, item_names = _read_triples(
        path, _RATING_SEPS, "rating", np.isfinite, "is not finite", DataFormatError)
    return RatingsDataset(list(map(user_names.__getitem__, user.tolist())),
                          list(map(item_names.__getitem__, item.tolist())), ratings)


def save_ratings(dataset: RatingsDataset, path: str | Path) -> None:
    """Write ``user<TAB>item<TAB>rating`` lines, the rating in ``:g``
    format; each distinct rating of a block of rows is formatted once."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(dataset), _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            ratings = dataset.ratings[rows]
            # distinct bit patterns, so that -0.0 and 0.0 format apart
            _, first, which = np.unique(ratings.view(np.int64), return_index=True,
                                        return_inverse=True)
            ends = [f"{rating:g}\n" for rating in ratings[first].tolist()]
            fh.write("".join(map("\t".join, zip(dataset.users[rows], dataset.items[rows],
                                               map(ends.__getitem__, which.tolist())))))


def split_folds(
    ratings: RatingsDataset, spec: SplitSpec
) -> list[tuple[RatingsDataset, RatingsDataset]]:
    """Each fold's (train, test) pair, the rows ``fold_tests`` gives the
    fold's test set and the rest."""
    return [(ratings.subset(~test), ratings.subset(test)) for test in fold_tests(ratings, spec)]


def fold_tests(ratings: RatingsDataset, spec: SplitSpec):
    """Each fold's test rows, as a mask over ``ratings``, one fold at a
    time.  Fold f's test set is bucket f restricted to users with more than
    ``min_ratings`` ratings.  Users in id order each shuffle the positions
    of their ratings in item id order with one ``random.Random(seed)``; the
    rating at shuffled position p goes to bucket p mod folds."""
    bucket, eligible = _buckets(ratings, spec)
    for fold in range(spec.folds):
        yield (bucket == fold) & eligible


def _buckets(ratings: RatingsDataset, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each rating's bucket, and whether its user has a test set."""
    rng = random.Random(spec.seed)
    user_code: dict[str, int] = {}
    item_code: dict[str, int] = {}
    user = _codes(user_code, ratings.users)
    item = _codes(item_code, ratings.items)
    user = _sorted_rank(list(user_code))[user]  # users numbered in id order
    order = np.lexsort((_sorted_rank(list(item_code))[item], user))
    sizes = np.bincount(user, minlength=len(user_code))
    shuffled = []
    for size in sizes.tolist():
        positions = list(range(size))
        rng.shuffle(positions)
        shuffled += positions
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    bucket_at = np.empty(len(ratings), dtype=np.int64)  # by (user id, item id) order
    bucket_at[start + np.array(shuffled, dtype=np.int64)] = (
        (np.arange(len(ratings)) - start) % spec.folds)
    bucket = np.empty(len(ratings), dtype=np.int64)
    bucket[order] = bucket_at
    return bucket, (sizes > spec.min_ratings)[user]


def relevant_items(test: RatingsDataset, user_ids: list[str], item_ids: list[str],
                   cutoff: float) -> dict[int, set[int]]:
    """Per user of ``user_ids`` with a rating in ``test``, in order of its
    first one, the indices of the ``item_ids`` it rated at least ``cutoff``
    (the relevant items of precision)."""
    user = _indices(_positions(user_ids), test.users)
    item = _indices(_positions(item_ids), test.items)
    known = user[user >= 0]
    first_users = known[first_rows(known, len(user_ids))].tolist()
    relevant: dict[int, set[int]] = {u: set() for u in first_users}
    hit = (user >= 0) & (item >= 0) & (test.ratings >= cutoff)
    order = np.argsort(user[hit], kind="stable")
    user, item = user[hit][order], item[hit][order]
    users, starts = np.unique(user, return_index=True)
    for u, items in zip(users.tolist(), np.split(item, starts[1:])):
        relevant[u].update(items.tolist())
    return relevant


# ---------------------------------------------------------------------------
# Groupings and candidates

def load_grouping(
    path: str | Path, side: str, entity_ids: list[str]
) -> tuple[Grouping, int]:
    """Grouping over ``entity_ids``; rows naming unknown entities are
    skipped and counted.  Groups are numbered in order of first appearance.
    Returns (grouping, skipped_row_count)."""
    index_of = _positions(entity_ids)
    group_code: dict[str, int] = {}

    def convert(block):
        entity = _indices(index_of, block.columns[0])
        known = entity >= 0
        lists = list(compress(block.columns[1], known.tolist()))
        names = "|".join(lists).split("|") if lists else []
        owner = np.repeat(entity[known], np.fromiter(map(str.count, lists, repeat("|")),
                                                     np.int64, len(lists)) + 1)
        named = np.fromiter(map(bool, names), bool, len(names))
        return (owner[named], _codes(group_code, list(compress(names, named.tolist()))),
                len(entity) - int(known.sum()))

    parts, faults = _read(path, convert, 2)
    faults.raise_first()
    skipped = sum(p[2] for p in parts)
    owner, group = _concat(parts, 0), _concat(parts, 1)
    width = max(len(group_code), 1)
    owner, group = np.divmod(np.unique(owner * width + group), width)
    return Grouping(side, list(group_code), pairs=(len(entity_ids), owner, group)), skipped


def save_grouping(grouping: Grouping, entity_ids: list[str], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for eid, groups in zip(entity_ids, grouping.group_lists(len(entity_ids))):
            fh.write(f"{eid}\t{'|'.join(grouping.group_ids[g] for g in groups)}\n")


def load_candidates(
    path: str | Path,
    display_constraint: int | dict[str, int],
    top_n: int = 250,
) -> tuple[RecGraph, int]:
    """Assemble a RecGraph from a candidate file, keeping each user's top_n
    candidates by relevance (ties toward the smaller item id).  Users are
    numbered in order of first appearance, and the graph's edges are
    grouped by user, in that order, whether or not the file's rows are;
    each user's kept edges are in item id order, and items are numbered in
    order of first use by those edges.  ``display_constraint`` is either a uniform value or a
    per-user-id map.  Returns (graph, skipped_row_count) where skipped
    counts the rows of users missing from a per-user constraint map."""
    user, item, rel, user_names, item_names = _read_triples(
        path, _TAB_OR_COMMA, "relevance", lambda rel: (rel >= 0) & (rel < math.inf),
        "is negative or not finite", GraphError)

    if isinstance(display_constraint, dict):
        kept_user = np.array([u in display_constraint for u in user_names], dtype=bool)
        constraints = [display_constraint[u] for u in user_names if u in display_constraint]
    else:
        kept_user = np.ones(len(user_names), dtype=bool)
        constraints = [display_constraint] * len(user_names)
    item_rank = _sorted_rank(item_names)

    row_kept = kept_user[user]
    skipped = int(len(user) - row_kept.sum())
    user, item, rel = user[row_kept], item[row_kept], rel[row_kept]
    if len(user) and np.bincount(user).max() > top_n:
        # Per user, best relevance first (ties by item id); keep top_n.
        order = np.lexsort((item_rank[item], -rel, user))
        user, item, rel = user[order], item[order], rel[order]
        group_start = np.searchsorted(user, user)
        kept = np.arange(len(user)) - group_start < top_n
        user, item, rel = user[kept], item[kept], rel[kept]
    # The kept edges of each user in item id order (no two share a key).
    order = np.argsort(user.astype(np.int64) * len(item_names) + item_rank[item])
    user, item, rel = user[order], item[order], rel[order]

    new_user = np.cumsum(kept_user) - 1
    first_use = first_rows(item, len(item_names))
    new_item = np.empty(len(item_names), dtype=np.int64)
    new_item[item[first_use]] = np.arange(len(first_use))
    graph = RecGraph(
        [name for name, keep in zip(user_names, kept_user.tolist()) if keep],
        constraints,
        [item_names[i] for i in item[first_use].tolist()],
        columns=(new_user[user], new_item[item], rel),
    )
    return graph, skipped


# ---------------------------------------------------------------------------
# Threshold derivation

def largest_remainder(counts: dict[int, float], target: int) -> dict[int, int]:
    """Integer apportionment of ``target`` units proportionally to counts,
    preserving the target sum exactly.  Remainder ties break toward the
    larger raw count, then the lower group index."""
    total = sum(counts.values())
    if total <= 0 or target <= 0:
        return {g: 0 for g in counts}
    quotas = {g: target * c / total for g, c in counts.items()}
    floors = {g: int(q) for g, q in quotas.items()}
    leftover = target - sum(floors.values())
    order = sorted(
        counts,
        key=lambda g: (-(quotas[g] - floors[g]), -counts[g], g),
    )
    out = dict(floors)
    for g in order[:leftover]:
        out[g] += 1
    return out


def derive_user_thresholds(
    train: RatingsDataset,
    item_cats: Grouping,
    item_ids: list[str],
    user_ids: list[str],
    display_constraints: list[int],
) -> ThresholdTable:
    """Per-user category thresholds proportional to training-set category
    frequencies.  The per-user target sum is c_i when ``item_cats`` is
    disjoint, or c_i times the global average number of categories per
    training item when its categories overlap.  Users with no categorized
    training items get all-zero thresholds."""
    item = _indices(_positions(item_ids), train.items)
    user = _indices(_positions(user_ids), train.users)
    known = item >= 0
    item_total = int(known.sum())
    cat_total = len(item_cats.expand(item[known])[0])
    avg_cats = cat_total / item_total if item_total else 0.0

    targets = display_constraints
    if not item_cats.disjoint:
        targets = [round(c * avg_cats) for c in display_constraints]
    rows = known & (user >= 0)
    return ThresholdTable(tables=(_apportioned(item_cats, user[rows], item[rows], targets),
                                  np.zeros((0, 0), dtype=np.int32)))


def derive_item_thresholds(
    train: RatingsDataset,
    user_types: Grouping,
    user_ids: list[str],
    item_ids: list[str],
    display_constraints: list[int],
    budget_fraction: float = 0.2,
) -> ThresholdTable:
    """Per-item type thresholds proportional to training-interaction type
    frequencies, summing to ``budget_fraction`` of the equal-promotion share
    round(f * sum(c_i) / |catalog|).  Items with no training interactions
    get all-zero thresholds."""
    user = _indices(_positions(user_ids), train.users)
    item = _indices(_positions(item_ids), train.items)
    budget = round(budget_fraction * sum(display_constraints) / len(item_ids)) if item_ids else 0
    rows = (user >= 0) & (item >= 0)
    return ThresholdTable(tables=(np.zeros((0, 0), dtype=np.int32), _apportioned(
        user_types, item[rows], user[rows], [budget] * len(item_ids))))


def _apportioned(grouping: Grouping, owners: np.ndarray, members: np.ndarray,
                 targets: list[int]) -> np.ndarray:
    """The owner-by-group table of each owner's target, apportioned by
    largest remainder over the counts of its members' groups."""
    table = np.zeros((len(targets), grouping.num_groups), dtype=np.int32)
    for owner, counts in grouping.tally(owners, members).items():
        shares = largest_remainder(counts, targets[owner])
        table[owner, list(shares)] = np.minimum(list(shares.values()), MAX_THRESHOLD)
    return table


# ---------------------------------------------------------------------------
# Threshold and solution round-trip I/O

def save_thresholds(
    table: ThresholdTable,
    path: str | Path,
    user_ids: list[str],
    item_ids: list[str],
    user_group_ids: list[str],
    item_group_ids: list[str],
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for (u, a), v in table.user_category.items():
            fh.write(f"user\t{user_ids[u]}\t{item_group_ids[a]}\t{v}\n")
        for (j, b), v in table.item_type.items():
            fh.write(f"item\t{item_ids[j]}\t{user_group_ids[b]}\t{v}\n")


def load_thresholds(
    path: str | Path,
    user_ids: list[str],
    item_ids: list[str],
    user_group_ids: list[str],
    item_group_ids: list[str],
) -> ThresholdTable:
    """Threshold table from a thresholds file.  A repeated (side, entity,
    group) is an error.  Rows naming an unknown entity or group are
    skipped; the table's ``skipped_rows`` attribute counts them.  A value
    past 2**31 - 1 is held as 2**31 - 1."""
    entity_code: dict[str, int] = {}
    group_code: dict[str, int] = {}

    def convert(block):
        sides, entities, groups, texts = block.columns
        is_user = np.fromiter(map("user".__eq__, sides), bool, len(sides))
        block.check(~is_user & ~np.fromiter(map("item".__eq__, sides), bool, len(sides)),
                    lambda row: f"unknown side {sides[row]!r}")
        values = _numbers(block, texts, "threshold", int)
        block.check(np.fromiter(map((0).__gt__, values), bool, len(values)),
                    lambda row: f"threshold {values[row]} is negative")
        n = block.stop
        return (is_user[:n], _codes(entity_code, entities[:n]), _codes(group_code, groups[:n]),
                np.fromiter(map(min, values[:n], repeat(MAX_THRESHOLD)), np.int32, n),
                block.lines[:n])

    parts, faults = _read(path, convert, 4)
    is_user = _concat(parts, 0, bool)
    entity, group = _concat(parts, 1), _concat(parts, 2)

    def listed_twice(row):
        side = "user" if is_user[row] else "item"
        return DataFormatError(f"{path}:{_concat(parts, 4)[row]}: {side} "
                               f"{list(entity_code)[entity[row]]} group "
                               f"{list(group_code)[group[row]]} listed twice")

    faults.check(_earlier((is_user * len(entity_code) + entity) * len(group_code) + group) > 0,
                 listed_twice)
    faults.raise_first()
    values = _concat(parts, 3, np.int32)
    tables = []
    skipped = 0
    for rows, entity_ids, group_ids in ((is_user, user_ids, item_group_ids),
                                        (~is_user, item_ids, user_group_ids)):
        # each name coded in the file, looked up once among this side's ids
        ent = _indices(_positions(entity_ids), entity_code)[entity[rows]]
        grp = _indices(_positions(group_ids), group_code)[group[rows]]
        known = (ent >= 0) & (grp >= 0)
        skipped += len(known) - int(known.sum())
        side = np.zeros((len(entity_ids), len(group_ids)), dtype=np.int32)
        side[ent[known], grp[known]] = values[rows][known]
        tables.append(side)
    table = ThresholdTable(tables=tables)
    table.skipped_rows = skipped
    return table


def save_solution(sol: Solution, path: str | Path, method: str) -> None:
    """One line per selected edge, users in order, each user's edges in
    ``sol.selected`` order; only the selected edges' entries of the
    columns are read."""
    graph = sol.graph
    edges = np.fromiter(chain.from_iterable(sol.selected), np.int64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f"{graph.user_ids[u]}\t{graph.item_ids[item]}\t{rel:.10g}\t{method}\n"
            for u, item, rel in zip(graph.edge_user[edges].tolist(),
                                    graph.edge_item[edges].tolist(),
                                    graph.edge_rel[edges].tolist()))


def _edge_finder(graph: RecGraph):
    """A function of (user ids, item ids) giving the index of each
    (user, item) edge of ``graph``, or -1 where there is none."""
    user_index, item_index = _positions(graph.user_ids), _positions(graph.item_ids)
    keys = graph.edge_user.astype(np.int64) * graph.num_items + graph.edge_item
    order = np.argsort(keys)
    # a -1 key past the end, matched by no query, ends every search
    keys, order = np.append(keys[order], -1), np.append(order, -1)

    def find(users: list[str], items: list[str]) -> np.ndarray:
        user, item = _indices(user_index, users), _indices(item_index, items)
        query = np.where((user >= 0) & (item >= 0), user * graph.num_items + item, -2)
        at = np.searchsorted(keys[:-1], query)
        return np.where(keys[at] == query, order[at], -1)

    return find


def load_solution_lists(path: str | Path, graph: RecGraph) -> np.ndarray:
    """The edges of ``graph`` that a solution file lists: users in order of
    their first row, each user's rows in file order.  A row that is not a
    candidate edge, repeats an earlier row or is past its user's display
    constraint is an error, and so is a relevance that is not a number."""
    find = _edge_finder(graph)
    taken = np.zeros(graph.num_edges, dtype=bool)
    listed = np.zeros(graph.num_users, dtype=np.int64)  # rows so far per user
    limit = np.array(graph.display_constraints, dtype=np.int64)

    def convert(block):
        users, items, texts, _methods = block.columns
        edge = find(users, items)
        block.check(edge < 0, lambda row: f"user {users[row]} item {items[row]} is not a "
                                          "candidate edge")
        edge = edge[:block.stop]
        block.check(taken[edge] | (_earlier(edge) > 0),
                    lambda row: f"user {users[row]} item {items[row]} listed twice")
        user = graph.edge_user[edge[:block.stop]]
        block.check(listed[user] + _earlier(user) >= limit[user],
                    lambda row: f"user {users[row]} item {items[row]} is past the user's "
                                f"display constraint ({limit[user[row]]})")
        _numbers(block, texts, "relevance")
        edge, user = edge[:block.stop], user[:block.stop]
        taken[edge] = True
        listed[:] += np.bincount(user, minlength=len(listed))
        return edge, user

    parts, faults = _read(path, convert, 4)
    faults.raise_first()
    edge, user = _concat(parts, 0), _concat(parts, 1)
    # each row keyed by its user's first row; the stable sort keeps file order
    _, first_row, inverse = np.unique(user, return_index=True, return_inverse=True)
    return edge[np.argsort(first_row[inverse], kind="stable")]


def load_constraints(path: str | Path) -> dict[str, int]:
    """Per-user display constraints keyed by user id; a repeated user is an
    error."""
    out: dict[str, int] = {}

    def convert(block):
        users, texts = block.columns
        block.check((_earlier(_codes({}, users)) > 0)
                    | np.fromiter(map(out.__contains__, users), bool, len(users)),
                    lambda row: f"user {users[row]} listed twice")
        values = _numbers(block, texts, "constraint", int)
        block.check(np.fromiter(map((1).__gt__, values), bool, len(values)),
                    lambda row: f"constraint {values[row]} is below 1")
        out.update(zip(users, values[:block.stop]))

    _, faults = _read(path, convert, 2)
    faults.raise_first()
    return out
