"""File ingestion, train/test splitting and threshold derivation.

Formats (UTF-8, LF):

* Ratings: MovieLens ``user::item::rating[::timestamp]`` or CSV/TSV with
  columns user,item,rating (header detected); extra columns are discarded.
* Groupings: TSV ``entity_id<TAB>Group1|Group2|...``.
* Candidates: TSV ``user_id<TAB>item_id<TAB>relevance``.
* Thresholds: TSV ``side<TAB>entity_id<TAB>group_id<TAB>value`` with side
  in {user, item}.
* Solutions: TSV ``user_id<TAB>item_id<TAB>relevance<TAB>method``.
* Constraints: TSV ``user_id<TAB>display_constraint`` (a positive integer).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, GraphError
from .graph import Grouping, RecGraph, Solution, ThresholdTable


@dataclass
class RatingsDataset:
    """(user, item, rating) triples with no duplicate pairs."""

    triples: list[tuple[str, str, float]]

    def __len__(self) -> int:
        return len(self.triples)

    def by_user(self) -> dict[str, list[tuple[str, float]]]:
        out: dict[str, list[tuple[str, float]]] = {}
        for user, item, rating in self.triples:
            out.setdefault(user, []).append((item, rating))
        return out


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


def _split_tab(line: str) -> list[str]:
    return line.split("\t")


def _split_tab_or_comma(line: str) -> list[str]:
    return line.split("\t") if "\t" in line else line.split(",")


def _split_ratings(line: str) -> list[str]:
    return line.split("::") if "::" in line else _split_tab_or_comma(line)


def _read_rows(path, width: int, split=_split_tab, at_least: bool = False,
               header: bool = False):
    """Yield ``(lineno, fields)`` for each non-empty line of ``path``.

    A line must split into exactly ``width`` fields (at least ``width`` with
    ``at_least``).  With ``header``, a first line whose field ``width - 1``
    is not a number is taken as a column header and skipped."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                fields = split(line)
                if len(fields) != width and not (at_least and len(fields) > width):
                    raise DataFormatError(
                        f"{path}:{lineno}: expected {'>= ' * at_least}{width} fields, "
                        f"got {len(fields)}"
                    )
                if header and lineno == 1:
                    try:
                        float(fields[width - 1])
                    except ValueError:
                        continue
                yield lineno, fields
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_number(path, lineno: int, what: str, text: str, kind=float):
    """``kind(text)``, or a DataFormatError naming ``path:lineno``."""
    try:
        return kind(text)
    except ValueError:
        raise DataFormatError(
            f"{path}:{lineno}: {what} {text!r} is not a valid {kind.__name__}"
        ) from None


def load_ratings(path: str | Path) -> RatingsDataset:
    """Parse a ratings file; '::', tab and comma delimiters are accepted and
    a leading header row is skipped when the rating column is not numeric."""
    triples: list[tuple[str, str, float]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, fields in _read_rows(path, 3, _split_ratings, at_least=True, header=True):
        user, item = fields[0], fields[1]
        rating = _parse_number(path, lineno, "rating", fields[2])
        if (user, item) in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate pair ({user},{item})")
        seen.add((user, item))
        triples.append((user, item, rating))
    return RatingsDataset(triples)


def save_ratings(dataset: RatingsDataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user, item, rating in dataset.triples:
            fh.write(f"{user}\t{item}\t{rating:g}\n")


def load_grouping(
    path: str | Path, side: str, entity_ids: list[str]
) -> tuple[Grouping, int]:
    """Grouping over ``entity_ids``; rows naming unknown entities are
    skipped and counted.  Returns (grouping, skipped_row_count)."""
    index_of = {eid: i for i, eid in enumerate(entity_ids)}
    group_index: dict[str, int] = {}
    group_ids: list[str] = []
    membership: list[list[int]] = [[] for _ in entity_ids]
    skipped = 0
    for _lineno, (eid, group_list) in _read_rows(path, 2):
        if eid not in index_of:
            skipped += 1
            continue
        groups = [g for g in group_list.split("|") if g]
        for g in groups:
            if g not in group_index:
                group_index[g] = len(group_ids)
                group_ids.append(g)
            gi = group_index[g]
            if gi not in membership[index_of[eid]]:
                membership[index_of[eid]].append(gi)
    return Grouping(side, group_ids, membership), skipped


def save_grouping(grouping: Grouping, entity_ids: list[str], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, eid in enumerate(entity_ids):
            groups = "|".join(grouping.group_ids[g] for g in grouping.groups_of(i))
            fh.write(f"{eid}\t{groups}\n")


def split_folds(
    ratings: RatingsDataset, spec: SplitSpec
) -> list[tuple[RatingsDataset, RatingsDataset]]:
    """Per-user random partition into ``folds`` buckets; fold f's test set is
    bucket f restricted to users with more than ``min_ratings`` ratings."""
    rng = random.Random(spec.seed)
    buckets: dict[tuple[str, str], int] = {}
    per_user = ratings.by_user()
    for user in sorted(per_user):
        entries = sorted(per_user[user])
        indices = list(range(len(entries)))
        rng.shuffle(indices)
        for pos, idx in enumerate(indices):
            buckets[(user, entries[idx][0])] = pos % spec.folds
    eligible = {u for u, entries in per_user.items() if len(entries) > spec.min_ratings}
    out = []
    for fold in range(spec.folds):
        train, test = [], []
        for user, item, rating in ratings.triples:
            if buckets[(user, item)] == fold and user in eligible:
                test.append((user, item, rating))
            else:
                train.append((user, item, rating))
        out.append((RatingsDataset(train), RatingsDataset(test)))
    return out


def load_candidates(
    path: str | Path,
    display_constraint: int | dict[str, int],
    top_n: int = 250,
) -> tuple[RecGraph, int]:
    """Assemble a RecGraph from a candidate file, keeping each user's top_n
    candidates by relevance (ties toward the smaller item id).  Users are
    numbered in order of first appearance; each user's kept edges are in
    item id order, and items are numbered in order of first use by those
    edges.  ``display_constraint`` is either a uniform value or a
    per-user-id map.  Returns (graph, skipped_row_count) where skipped
    counts the rows of users missing from a per-user constraint map."""
    user_code: dict[str, int] = {}
    item_code: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    rels: list[float] = []
    seen: set[tuple[int, int]] = set()
    for lineno, fields in _read_rows(path, 3, _split_tab_or_comma, at_least=True, header=True):
        rel = _parse_number(path, lineno, "relevance", fields[2])
        if not 0 <= rel < math.inf:
            raise GraphError(f"{path}:{lineno}: relevance {rel} is negative or not finite")
        pair = (user_code.setdefault(fields[0], len(user_code)),
                item_code.setdefault(fields[1], len(item_code)))
        if pair in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate pair ({fields[0]},{fields[1]})")
        seen.add(pair)
        users.append(pair[0])
        items.append(pair[1])
        rels.append(rel)

    user_names = list(user_code)
    if isinstance(display_constraint, dict):
        kept_user = np.array([u in display_constraint for u in user_names], dtype=bool)
        constraints = [display_constraint[u] for u in user_names if u in display_constraint]
    else:
        kept_user = np.ones(len(user_names), dtype=bool)
        constraints = [display_constraint] * len(user_names)
    item_names = list(item_code)
    item_rank = np.empty(len(item_names), dtype=np.int64)
    item_rank[sorted(range(len(item_names)), key=item_names.__getitem__)] = np.arange(
        len(item_names))

    user = np.array(users, dtype=np.int64)
    item = np.array(items, dtype=np.int64)
    rel = np.array(rels, dtype=np.float64)
    row_kept = kept_user[user]
    skipped = int(len(user) - row_kept.sum())
    user, item, rel = user[row_kept], item[row_kept], rel[row_kept]
    # Per user, best relevance first (ties by item id); keep top_n.
    order = np.lexsort((item_rank[item], -rel, user))
    user, item, rel = user[order], item[order], rel[order]
    group_start = np.searchsorted(user, user)
    kept = np.arange(len(user)) - group_start < top_n
    user, item, rel = user[kept], item[kept], rel[kept]
    # The kept edges of each user in item id order.
    order = np.lexsort((item_rank[item], user))
    user, item, rel = user[order], item[order], rel[order]

    new_user = np.cumsum(kept_user) - 1
    _, first_use = np.unique(item, return_index=True)
    first_use.sort()
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
    overlapping: bool = False,
) -> ThresholdTable:
    """Per-user category thresholds proportional to training-set category
    frequencies.  The per-user target sum is c_i for disjoint categories, or
    c_i times the global average number of categories per training item for
    overlapping ones.  Users with no categorized training items get all-zero
    thresholds."""
    item_index = {iid: i for i, iid in enumerate(item_ids)}
    user_index = {uid: u for u, uid in enumerate(user_ids)}
    per_user_counts: dict[int, dict[int, int]] = {}
    cat_total = 0
    item_total = 0
    for user, item, _rating in train.triples:
        ii = item_index.get(item)
        if ii is None:
            continue
        cats = item_cats.groups_of(ii)
        item_total += 1
        cat_total += len(cats)
        u = user_index.get(user)
        if u is None:
            continue
        counts = per_user_counts.setdefault(u, {})
        for a in cats:
            counts[a] = counts.get(a, 0) + 1
    avg_cats = cat_total / item_total if item_total else 0.0

    table: dict[tuple[int, int], int] = {}
    for u, counts in per_user_counts.items():
        target = display_constraints[u]
        if overlapping:
            target = round(target * avg_cats)
        for a, rho in largest_remainder(counts, target).items():
            if rho > 0:
                table[(u, a)] = rho
    return ThresholdTable(user_category=table)


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
    user_index = {uid: u for u, uid in enumerate(user_ids)}
    item_index = {iid: i for i, iid in enumerate(item_ids)}
    budget = round(budget_fraction * sum(display_constraints) / len(item_ids)) if item_ids else 0
    per_item_counts: dict[int, dict[int, int]] = {}
    for user, item, _rating in train.triples:
        u = user_index.get(user)
        j = item_index.get(item)
        if u is None or j is None:
            continue
        counts = per_item_counts.setdefault(j, {})
        for b in user_types.groups_of(u):
            counts[b] = counts.get(b, 0) + 1
    table: dict[tuple[int, int], int] = {}
    if budget > 0:
        for j, counts in per_item_counts.items():
            for b, lam in largest_remainder(counts, budget).items():
                if lam > 0:
                    table[(j, b)] = lam
    return ThresholdTable(item_type=table)


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
        for (u, a), v in sorted(table.user_category.items()):
            fh.write(f"user\t{user_ids[u]}\t{item_group_ids[a]}\t{v}\n")
        for (j, b), v in sorted(table.item_type.items()):
            fh.write(f"item\t{item_ids[j]}\t{user_group_ids[b]}\t{v}\n")


def load_thresholds(
    path: str | Path,
    user_ids: list[str],
    item_ids: list[str],
    user_group_ids: list[str],
    item_group_ids: list[str],
) -> ThresholdTable:
    """Threshold table from a thresholds file.  Rows naming an unknown
    entity or group are skipped; a repeated (side, entity, group) is an error."""
    uidx = {x: i for i, x in enumerate(user_ids)}
    iidx = {x: i for i, x in enumerate(item_ids)}
    ugidx = {x: i for i, x in enumerate(user_group_ids)}
    igidx = {x: i for i, x in enumerate(item_group_ids)}
    uc: dict[tuple[int, int], int] = {}
    it: dict[tuple[int, int], int] = {}
    sides = {"user": (uidx, igidx, uc), "item": (iidx, ugidx, it)}
    seen: set[tuple[str, str, str]] = set()
    for lineno, (side, eid, gid, value) in _read_rows(path, 4):
        if side not in sides:
            raise DataFormatError(f"{path}:{lineno}: unknown side {side!r}")
        entities, groups, table = sides[side]
        threshold = _parse_number(path, lineno, "threshold", value, int)
        if threshold < 0:
            raise DataFormatError(f"{path}:{lineno}: threshold {threshold} is negative")
        key = (side, eid, gid)
        if key in seen:
            raise DataFormatError(f"{path}:{lineno}: {side} {eid} group {gid} listed twice")
        seen.add(key)
        if eid in entities and gid in groups:
            table[(entities[eid], groups[gid])] = threshold
    return ThresholdTable(uc, it)


def save_solution(sol: Solution, path: str | Path, method: str) -> None:
    graph = sol.graph
    item = graph.edge_item.tolist()
    rel = graph.edge_rel.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for u in range(graph.num_users):
            for eidx in sol.selected[u]:
                fh.write(
                    f"{graph.user_ids[u]}\t{graph.item_ids[item[eidx]]}\t"
                    f"{rel[eidx]:.10g}\t{method}\n"
                )


def load_solution_lists(
    path: str | Path,
    limits: dict[str, int] | None = None,
    candidates: dict[tuple[str, str], int] | None = None,
) -> dict[str, list[tuple[str, float]]]:
    """Solution rows grouped per user id, in file order.  A repeated
    (user, item) row is an error, and so is a row whose (user id, item id)
    is not a key of ``candidates`` or that is past its user's entry in
    ``limits`` (display constraints by user id), when those are given."""
    out: dict[str, list[tuple[str, float]]] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, (user, item, rel, _method) in _read_rows(path, 4):
        if (user, item) in seen:
            raise DataFormatError(f"{path}:{lineno}: user {user} item {item} listed twice")
        if candidates is not None and (user, item) not in candidates:
            raise DataFormatError(
                f"{path}:{lineno}: user {user} item {item} is not a candidate edge")
        seen.add((user, item))
        rows = out.setdefault(user, [])
        limit = limits.get(user) if limits is not None else None
        if limit is not None and len(rows) >= limit:
            raise DataFormatError(f"{path}:{lineno}: user {user} item {item} is past the "
                                  f"user's display constraint ({limit})")
        rows.append((item, _parse_number(path, lineno, "relevance", rel)))
    return out


def load_constraints(path: str | Path) -> dict[str, int]:
    """Per-user display constraints keyed by user id; a repeated user is an
    error."""
    out: dict[str, int] = {}
    for lineno, (user, value) in _read_rows(path, 2):
        if user in out:
            raise DataFormatError(f"{path}:{lineno}: user {user} listed twice")
        out[user] = _parse_number(path, lineno, "constraint", value, int)
        if out[user] < 1:
            raise DataFormatError(f"{path}:{lineno}: constraint {out[user]} is below 1")
    return out
