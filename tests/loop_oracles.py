"""Straightforward loop versions of the loaders, rerankers and
intent-aware metrics.

These are the reference oracles the fast versions in ``recdiv.data``,
``recdiv.baselines`` and ``recdiv.metrics`` are checked against, item for
item and bit for bit.  The loaders read their files one line at a time
through ``_read_rows`` and check and convert each row in a Python loop;
ratings are lists of (user, item, rating) triples.  They are the loaders
``recdiv.data`` had before its block reader, with two rules added since:
a rating must be finite, and ``loop_load_thresholds`` counts the rows it
skips in the table's ``skipped_rows``.  MMR recomputes every
candidate's distance to every pick at every pick (O(c^2 * n) per user),
xQuAD rescans every candidate's score at every pick, the intent profile and
ILD loop over items and pairs, and ERR-IA scans every listed item for every
intent category.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

from recdiv.baselines import RankedLists
from recdiv.data import SplitSpec, largest_remainder
from recdiv.errors import DataFormatError, GraphError
from recdiv.graph import Grouping, RecGraph, ThresholdTable
from recdiv.metrics import IntentProfile, _cosine_distance

from oracles import random_instance


def edge_case_instance(rng, overlapping: bool) -> tuple[RecGraph, Grouping]:
    """A random_instance graph and item grouping, plus the cases the fast
    versions must get right: one user with no candidates, display
    constraints that may exceed the candidate count, items with no
    categories, and items past the end of the membership list."""
    graph, _, item_cats, _, _ = random_instance(
        rng, max_users=5, max_items=8, max_constraint=9, overlapping=overlapping)
    empty = rng.randint(0, graph.num_users)
    constraints = list(graph.display_constraints)
    constraints.insert(empty, rng.randint(1, 9))
    graph = RecGraph([f"u{i}" for i in range(len(constraints))], constraints, graph.item_ids,
                     columns=(graph.edge_user + (graph.edge_user >= empty),
                              graph.edge_item, graph.edge_rel))
    membership = [[] if rng.random() < 0.2 else item_cats.groups_of(i)
                  for i in range(item_cats.num_entities)]
    del membership[rng.randint(0, len(membership)):]
    return graph, Grouping("item", item_cats.group_ids, membership)


def _ranked_pools(graph) -> list[list[int]]:
    rel = graph.edge_rel.tolist()
    return [sorted(graph.user_edges[u], key=lambda e: (-rel[e], e))
            for u in range(graph.num_users)]


def loop_mmr(graph, item_cats, lam: float) -> RankedLists:
    item = graph.edge_item.tolist()
    rel = graph.edge_rel.tolist()
    out = RankedLists()
    for u, pool in enumerate(_ranked_pools(graph)):
        chosen: list[int] = []
        scores: list[float] = []
        cats_of = {item[e]: item_cats.groups_of(item[e]) for e in pool}
        while pool and len(chosen) < graph.display_constraints[u]:
            if not chosen:
                best = pool[0]
                best_score = rel[best]
            else:
                best = -1
                best_score = float("-inf")
                sel_cats = [cats_of[item[e]] for e in chosen]
                for e in pool:
                    cats = cats_of[item[e]]
                    dist = min(_cosine_distance(cats, sc) for sc in sel_cats)
                    score = lam * rel[e] + (1.0 - lam) * dist
                    if score > best_score or (score == best_score and e < best):
                        best, best_score = e, score
            pool.remove(best)
            chosen.append(best)
            scores.append(best_score)
        out.items.append([item[e] for e in chosen])
        out.scores.append(scores)
    return out


def loop_xquad(graph, item_cats, intent: IntentProfile, lam: float) -> RankedLists:
    item = graph.edge_item.tolist()
    rel = graph.edge_rel.tolist()
    out = RankedLists()
    for u, pool in enumerate(_ranked_pools(graph)):
        probs = intent.category_probs[u]
        rels = intent.norm_rel[u]
        remaining = {a: 1.0 for a in probs}
        chosen: list[int] = []
        scores: list[float] = []
        while pool and len(chosen) < graph.display_constraints[u]:
            best = -1
            best_score = float("-inf")
            for e in pool:
                div_term = 0.0
                for a in item_cats.groups_of(item[e]):
                    p = probs.get(a)
                    if p:
                        div_term += p * rels.get(item[e], 0.0) * remaining[a]
                score = lam * rel[e] + (1.0 - lam) * div_term
                if score > best_score or (score == best_score and e < best):
                    best, best_score = e, score
            for a in item_cats.groups_of(item[best]):
                if a in remaining:
                    remaining[a] *= 1.0 - rels.get(item[best], 0.0)
            pool.remove(best)
            chosen.append(best)
            scores.append(best_score)
        out.items.append([item[e] for e in chosen])
        out.scores.append(scores)
    return out


def loop_intent_profile(graph, item_cats) -> IntentProfile:
    rels = graph.edge_rel.tolist()
    items = graph.edge_item.tolist()
    lo = min(rels) if rels else 0.0
    hi = max(rels) if rels else 1.0
    span = hi - lo
    norm_rel: list[dict[int, float]] = []
    probs: list[dict[int, float]] = []
    for u in range(graph.num_users):
        own = graph.user_edges[u]
        norm_rel.append({items[e]: (rels[e] - lo) / span if span > 0 else 1.0 for e in own})
        counts: dict[int, int] = {}
        for e in own:
            for a in item_cats.groups_of(items[e]):
                counts[a] = counts.get(a, 0) + 1
        total = sum(counts.values())
        probs.append({a: c / total for a, c in counts.items()} if total else {})
    return IntentProfile(probs, norm_rel)


def loop_ild(lists, item_cats, k: int | None = None) -> float:
    if not lists:
        return 0.0
    total = 0.0
    for items in lists:
        if k is not None:
            items = items[:k]
        c = len(items)
        if c < 2:
            continue
        pair_sum = 0.0
        for x in range(c):
            for y in range(c):
                if x != y:
                    pair_sum += _cosine_distance(
                        item_cats.groups_of(items[x]), item_cats.groups_of(items[y])
                    )
        total += pair_sum / (c * (c - 1))
    return total / len(lists)


def loop_err_ia(lists, intent: IntentProfile, item_cats, k: int | None = None) -> float:
    if not lists:
        return 0.0
    total = 0.0
    for u, items in enumerate(lists):
        if k is not None:
            items = items[:k]
        probs = intent.category_probs[u]
        rels = intent.norm_rel[u]
        user_score = 0.0
        for a, p in probs.items():
            remaining = 1.0
            for rank, item in enumerate(items, start=1):
                if a in item_cats.groups_of(item):
                    r = rels.get(item, 0.0)
                    user_score += p * remaining * r / rank
                    remaining *= 1.0 - r
        total += user_score
    return total / len(lists)


# ---------------------------------------------------------------------------
# File loaders, splitting and threshold derivation, one row at a time

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


def loop_load_ratings(path: str | Path) -> list[tuple[str, str, float]]:
    """Parse a ratings file; '::', tab and comma delimiters are accepted and
    a leading header row is skipped when the rating column is not numeric."""
    triples: list[tuple[str, str, float]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, fields in _read_rows(path, 3, _split_ratings, at_least=True, header=True):
        user, item = fields[0], fields[1]
        rating = _parse_number(path, lineno, "rating", fields[2])
        if not math.isfinite(rating):
            raise DataFormatError(f"{path}:{lineno}: rating {rating} is not finite")
        if (user, item) in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate pair ({user},{item})")
        seen.add((user, item))
        triples.append((user, item, rating))
    return triples


def loop_save_ratings(triples: list[tuple[str, str, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user, item, rating in triples:
            fh.write(f"{user}\t{item}\t{rating:g}\n")


def loop_load_grouping(
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


def loop_split_folds(
    triples: list[tuple[str, str, float]], spec: SplitSpec
) -> list[tuple[list, list]]:
    """Per-user random partition into ``folds`` buckets; fold f's test set is
    bucket f restricted to users with more than ``min_ratings`` ratings."""
    rng = random.Random(spec.seed)
    buckets: dict[tuple[str, str], int] = {}
    per_user: dict[str, list[tuple[str, float]]] = {}
    for user, item, rating in triples:
        per_user.setdefault(user, []).append((item, rating))
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
        for user, item, rating in triples:
            if buckets[(user, item)] == fold and user in eligible:
                test.append((user, item, rating))
            else:
                train.append((user, item, rating))
        out.append((train, test))
    return out


def loop_load_candidates(
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


def loop_derive_user_thresholds(
    train: list[tuple[str, str, float]],
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
    for user, item, _rating in train:
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


def loop_derive_item_thresholds(
    train: list[tuple[str, str, float]],
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
    for user, item, _rating in train:
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


def loop_load_thresholds(
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
    skipped = 0
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
        else:
            skipped += 1
    table = ThresholdTable(uc, it)
    table.skipped_rows = skipped
    return table


def loop_load_solution_lists(
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


def loop_load_constraints(path: str | Path) -> dict[str, int]:
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
