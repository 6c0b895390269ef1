"""The staged match pipeline: route → stab → candidates → residual → emit.

One implementation of the paper's matching procedure (module docstring
of :mod:`repro.core.predicate_index`, steps 1–4) serves every read
path:

* the per-tuple path (:meth:`MatchPipeline.match`) behind ``match`` /
  ``match_idents``;
* the batched path (:meth:`MatchPipeline.match_batch`), which stabs
  each tree once per distinct batch value in one ``stab_many`` call;
* the concurrency layer's epoch-snapshot reads, via the module-level
  :func:`snapshot_match` / :func:`snapshot_match_idents` /
  :func:`snapshot_match_batch` merge functions (base results filtered
  through tombstones, overlay results appended in insertion order).

Both scalar paths end in one residual stage, :func:`_residual_matches`,
over the entries the catalog compiles at registration
(:func:`~repro.match.catalog.compile_residual`).

Every stage reports what it did through a
:class:`~repro.match.observer.MatchObserver` — the pipeline itself
keeps no counters — so statistics, tracing, and future observability
hang off one seam instead of scattered increments.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from ..core.intervals import MINUS_INF, PLUS_INF
from ..predicates.predicate import Predicate
from .catalog import CLOSED, MULTI, SINGLE, TRIVIAL, ClauseCatalog, RelationState
from .observer import MatchObserver
from .store import STAB_CACHE_SIZE

__all__ = [
    "MatchPipeline",
    "snapshot_match",
    "snapshot_match_idents",
    "snapshot_match_batch",
]


class MatchPipeline:
    """Runs tuples through the staged match against catalog state.

    Parameters
    ----------
    catalog:
        The :class:`~repro.match.catalog.ClauseCatalog` holding the
        per-relation state (trees, predicates, compiled residuals).
    observer:
        Stage-boundary sink; swap it to change what is recorded
        without touching the pipeline.
    columnar:
        Try the vectorized columnar plane (:mod:`repro.match.columnar`)
        first on every :meth:`match_batch` call; it steps aside, and the
        scalar stages below remain the semantics of record, whenever
        NumPy is missing or the relation or batch leaves its domain.
        Ignored under multi-clause indexing.
    """

    __slots__ = ("catalog", "observer", "columnar")

    def __init__(
        self,
        catalog: ClauseCatalog,
        observer: MatchObserver,
        columnar: bool = False,
    ) -> None:
        self.catalog = catalog
        self.observer = observer
        self.columnar = bool(columnar)

    # -- per-tuple path -------------------------------------------------

    def match(self, relation: str, tup: Mapping[str, Any]) -> List[Predicate]:
        """All predicates of *relation* that fully match the tuple.

        Stabs each attribute tree with the tuple's value, then hands
        the candidates to the residual stage :meth:`match_batch` runs
        too.  A ``None``, missing or infinity-sentinel value is not
        probed: no interval contains it.  A frozen index answers a
        repeated ``(attribute, value)`` from its stab cache.
        """
        observer = self.observer
        observer.on_route(relation, 1, False)
        state = self.catalog.relations.get(relation)
        if state is None:
            return []
        # one stabbed set per probed attribute; in the paper's
        # single-clause scheme they are disjoint, so none is unioned
        groups: List[Set[Hashable]] = []
        probes = descents = cache_hits = partial = 0
        cache = state.stab_cache  # None unless frozen
        for attribute, tree in state.trees.items():
            value = tup.get(attribute)
            if value is None or value is MINUS_INF or value is PLUS_INF:
                continue  # no interval contains it: no tree entry applies
            probes += 1
            key: Optional[Tuple[str, Any]] = None
            if cache is not None:
                key = (attribute, value)
                try:
                    cached = cache.get(key)
                except TypeError:
                    key = None  # unhashable value: uncacheable
                else:
                    if cached is not None:
                        cache_hits += 1
                        if cached:
                            partial += len(cached)
                            groups.append(cached)
                        continue
            descents += 1
            try:
                stabbed = tree.stab(value)
            except TypeError:
                # incomparable with this attribute's bounds (mixed-domain
                # data): no interval clause on it can match the value
                continue
            if cache is not None and key is not None:
                stabbed = _remember(cache, key, stabbed)
            if stabbed:
                partial += len(stabbed)
                groups.append(stabbed)
        if self.catalog.multi_clause:
            groups = [_intersect(state.indexed_under, groups)]
            partial = len(groups[0])
        observer.on_stab(relation, probes, descents, cache_hits)
        observer.on_candidates(relation, partial, len(state.non_indexable))
        row = _residual_matches(tup, groups, state.residuals, _non_indexable_shapes(state))
        observer.on_residual(relation, len(row))
        return row

    # -- batched path ---------------------------------------------------

    def match_batch(
        self, relation: str, tuples: Iterable[Mapping[str, Any]]
    ) -> List[List[Predicate]]:
        """Match a batch of tuples; returns one result list per tuple.

        Semantically identical to ``[self.match(relation, t) for t in
        tuples]`` (the differential tests assert exactly that), but the
        stab stage is restructured around the batch: each attribute
        tree is stabbed **once per distinct value** in one
        ``stab_many`` call, and the stabbed sets are fanned back out
        per tuple (disjoint in the paper's single-clause scheme, so no
        per-tuple union is built) into the residual stage :meth:`match`
        runs too.

        A tuple with an unhashable value in an indexed attribute cannot
        be grouped; it alone goes through the per-tuple path while the
        rest stays batched.  ``None``-valued, missing and
        infinity-sentinel values mean "no probe" on every path and never
        force a fallback.
        """
        tuples = list(tuples)
        if not tuples:
            return []
        observer = self.observer
        state = self.catalog.relations.get(relation)
        if state is None:
            observer.on_route(relation, len(tuples), True)
            return [[] for _ in tuples]
        multi_clause = self.catalog.multi_clause
        if self.columnar and not multi_clause:
            rows = self._columnar_match_batch(relation, state, tuples)
            if rows is not None:
                return rows
        stab_tables, probes, descents, cache_hits, fallback = (
            self._batch_stab_tables(state, tuples)
        )
        if len(fallback) == len(tuples):
            # nothing batchable: a pure per-tuple run, no batch events
            return [self.match(relation, tup) for tup in tuples]
        fallback_set = frozenset(fallback)
        batched = len(tuples) - len(fallback_set)
        observer.on_route(relation, batched, True)
        observer.on_stab(relation, probes, descents, cache_hits)
        residuals = state.residuals
        shapes = _non_indexable_shapes(state)
        indexed_under = state.indexed_under
        stab_items = list(stab_tables.items())
        partial = full = 0
        results: List[List[Predicate]] = []
        for position, tup in enumerate(tuples):
            if position in fallback_set:
                # unhashable value: the per-tuple path reports its own
                # route/stab/candidate/residual events for this tuple
                results.append(self.match(relation, tup))
                continue
            tup_get = tup.get
            groups: List[Set[Hashable]] = []
            for attribute, table in stab_items:
                value = tup_get(attribute)
                if value is None:
                    continue
                # a sentinel or incomparable value has no stabbed set
                stabbed = table.get(value)
                if stabbed:
                    groups.append(stabbed)
            if multi_clause:
                groups = [_intersect(indexed_under, groups)]
            for group in groups:
                partial += len(group)
            row = _residual_matches(tup, groups, residuals, shapes)
            full += len(row)
            results.append(row)
        observer.on_candidates(relation, partial, len(state.non_indexable) * batched)
        observer.on_residual(relation, full)
        return results

    def _columnar_match_batch(
        self,
        relation: str,
        state: RelationState,
        tuples: List[Mapping[str, Any]],
    ) -> Optional[List[List[Predicate]]]:
        """Try the vectorized columnar plane; ``None`` means "use scalar".

        The plane is cached on ``state.columnar_plane`` keyed by the
        relation's mutation version: a mutable index rebuilds it after
        every catalog change, a frozen index builds it exactly once.
        The cache write is a single attribute assignment and every
        builder computes an equivalent plane, so concurrent readers of
        a frozen index race benignly.  No observer event fires unless
        the plane actually answers the batch — the scalar fallback
        must report a virgin stage sequence.  The plane bails on
        out-of-domain values; the scalar batch then takes over and
        routes only unhashable values through the per-tuple path.
        """
        from . import columnar

        if not columnar.HAVE_NUMPY:
            return None
        cached = state.columnar_plane
        if cached is not None and cached[0] == state.version:
            plane = cached[1]
        else:
            plane = columnar.build_relation_plane(state)
            state.columnar_plane = (state.version, plane)
        if plane is None:
            return None
        return plane.match_batch(tuples, self.observer, relation)

    def _batch_stab_tables(
        self, state: RelationState, tuples: List[Mapping[str, Any]]
    ) -> Tuple[Dict[str, Dict[Any, Optional[Set[Hashable]]]], int, int, int, List[int]]:
        """Stab each attribute tree once per distinct batch value.

        Returns ``(stab_tables, probes, descents, cache_hits,
        fallback)``: per attribute a table ``value -> stabbed idents``
        (``None`` for incomparable values); the stab-stage counts
        (*probes* is the logical count the per-tuple path would report,
        *descents* the ``stab_many`` calls made, one per tree per
        batch); and the ascending positions of the tuples holding an
        unhashable value in an indexed attribute, which the caller
        matches per tuple and which contribute nothing to the tables or
        counts.  ``None``, missing and sentinel values are not probed,
        as on the per-tuple path.

        ``stab_many`` is one loop of ``stab`` over the distinct values
        on every tree (:class:`~repro.core.stabbing.IntervalIndex`), so
        what grouping buys is the deduplication, and on the disk tier
        one read per tree: each disk read touches the store's LRU, and
        a budgeted frozen base has no relation stab cache, so a loop
        over :meth:`match` makes a read per tuple and attribute (160
        for a 32-tuple batch over 5 trees) where ``stab_many`` makes 5
        (2.6-3.1x a loop, 1.8-2.0x while that base cached stabs;
        EXPERIMENTS.md STABS, DISK).
        """
        trees = state.trees
        stab_tables: Dict[str, Dict[Any, Optional[Set[Hashable]]]] = {}
        attributes = list(trees)
        by_attribute: Dict[str, Set[Any]] = {a: set() for a in attributes}
        fallback: List[int] = []
        probes = 0
        for position, tup in enumerate(tuples):
            tup_get = tup.get
            staged: List[Tuple[str, Any]] = []
            for attribute in attributes:
                value = tup_get(attribute)
                if value is None or value is MINUS_INF or value is PLUS_INF:
                    continue  # no probe, as on the per-tuple path
                try:
                    hash(value)
                except TypeError:
                    fallback.append(position)
                    break
                staged.append((attribute, value))
            else:
                probes += len(staged)
                for attribute, value in staged:
                    by_attribute[attribute].add(value)
        cache = state.stab_cache  # None unless frozen
        descents = cache_hits = 0
        for attribute in attributes:
            values = by_attribute[attribute]
            if not values:
                stab_tables[attribute] = {}
                continue
            tree = trees[attribute]
            if cache is None:
                descents += 1  # one stab_many per tree per batch
                stab_tables[attribute] = tree.stab_many(values)
                continue
            # answer cached values without touching the tree; stab the
            # misses in one stab_many and remember them
            table: Dict[Any, Optional[Set[Hashable]]] = {}
            misses: List[Any] = []
            for value in values:
                cached = cache.get((attribute, value))
                if cached is None:
                    misses.append(value)
                else:
                    cache_hits += 1
                    table[value] = cached
            if misses:
                descents += 1
                for value, stabbed in tree.stab_many(misses).items():
                    table[value] = stabbed
                    if stabbed is not None:
                        _remember(cache, (attribute, value), stabbed)
            stab_tables[attribute] = table
        return stab_tables, probes, descents, cache_hits, fallback


def _remember(
    cache: Dict[Tuple[str, Any], "frozenset[Hashable]"],
    key: Tuple[str, Any],
    stabbed: Iterable[Hashable],
) -> "frozenset[Hashable]":
    """Add a stab answer to a frozen relation's cache until it is full."""
    frozen = frozenset(stabbed)
    if len(cache) < STAB_CACHE_SIZE:
        cache[key] = frozen
    return frozen


# ----------------------------------------------------------------------
# candidate intersection and the residual stage (shared by both paths)
# ----------------------------------------------------------------------


def _intersect(
    indexed_under: Mapping[Hashable, Tuple[str, ...]],
    stabbed_sets: Iterable[Iterable[Hashable]],
) -> Set[Hashable]:
    """Multi-clause candidates: idents hit in *every* indexed tree.

    *stabbed_sets* holds one stabbed set per probed attribute.  A tree
    reports an ident at most once, so an ident is a candidate exactly
    when its hit count equals the number of attributes it is indexed
    under; a NULL, sentinel or incomparable value in any of them left
    that tree unprobed, and its clause cannot match.
    """
    hits: Dict[Hashable, int] = {}
    for stabbed in stabbed_sets:
        for ident in stabbed:
            hits[ident] = hits.get(ident, 0) + 1
    return {ident for ident, count in hits.items() if count == len(indexed_under[ident])}


def _non_indexable_shapes(state: RelationState) -> Tuple[List[Any], ...]:
    """The relation's non-indexable list, as one test per distinct condition.

    Every tuple tests every non-indexable predicate, and many of them
    test the same conjunction.  Predicates whose normalized clause
    tuples are equal — same attributes, function objects and
    negations, in the same order — share the first member's compiled
    check, as a Rete network shares one test among the productions
    that contain it; keying on the *ordered* tuple keeps each member's
    short-circuit and exception behaviour.  A predicate is listed only
    when it has no interval clause, so the result is ``(single, multi,
    trivial, opaque)``: ``(attribute, check, members)`` and ``(pairs,
    members)`` groups, the TRIVIAL predicates (nothing to test), and
    the predicates ``Predicate.matches`` tests one by one.  ``()``
    when the list is empty, so the stage skips it in one test.  Built
    once per relation version and cached on ``state.version`` like the
    columnar plane: one attribute assignment, so lock-free readers of a
    frozen index race benignly.
    """
    cached = state.non_indexable_shapes
    if cached is not None and cached[0] == state.version:
        return cached[1]
    groups: Dict[Hashable, Tuple[Any, ...]] = {}
    trivial: List[Predicate] = []
    opaque: List[Predicate] = []
    residuals = state.residuals
    for ident in state.non_indexable:
        entry = residuals[ident]
        kind, predicate = entry[0], entry[1]
        if kind == TRIVIAL:
            trivial.append(predicate)
            continue
        if kind not in (SINGLE, MULTI):
            opaque.append(predicate)
            continue
        key: Hashable = predicate.clauses
        try:
            group = groups.get(key)
        except TypeError:  # an unhashable clause: a group of one
            key, group = object(), None
        if group is None:
            group = groups[key] = (kind, entry[2:], [])
        group[2].append(predicate)
    shapes: Tuple[List[Any], ...] = ()
    if state.non_indexable:
        shapes = (
            [(*test, members) for kind, test, members in groups.values() if kind == SINGLE],
            [(*test, members) for kind, test, members in groups.values() if kind == MULTI],
            trivial,
            opaque,
        )
    state.non_indexable_shapes = (state.version, shapes)
    return shapes


def _residual_matches(
    tup: Mapping[str, Any],
    groups: Iterable[Iterable[Hashable]],
    residuals: Mapping[Hashable, Tuple[Any, ...]],
    shapes: Tuple[List[Any], ...],
) -> List[Predicate]:
    """Step 4: the candidates and non-indexable predicates matching *tup*.

    Each ident in *groups* is tested by its compiled residual entry
    (see :func:`~repro.match.catalog.compile_residual`), which skips
    the clauses its index probe proved; the non-indexable predicates
    follow, one check per distinct condition, each passing check
    emitting all of its members (:func:`_non_indexable_shapes`).  Only
    OPAQUE entries fall back to ``Predicate.matches``.
    """
    tup_get = tup.get
    row: List[Predicate] = []
    append = row.append
    for group in groups:
        for ident in group:
            entry = residuals[ident]
            kind = entry[0]
            if kind == CLOSED:
                # (kind, pred, attr, low, high): the dominant shape, inlined
                # (a closure call would double this loop's cost); rejection-
                # style like Interval.contains: NaN passes, sentinels fail
                v = tup_get(entry[2])
                try:
                    ok = v is not None and not (v < entry[3] or v > entry[4])
                except TypeError:
                    ok = False  # incomparable value
                if ok:
                    append(entry[1])
            elif kind == SINGLE:  # (kind, pred, attr, check)
                if entry[3](tup_get(entry[2])):
                    append(entry[1])
            elif kind == TRIVIAL:  # every clause was proven by the probes
                append(entry[1])
            elif kind == MULTI:  # (kind, pred, ((attr, check), ...))
                for attribute, check in entry[2]:
                    if not check(tup_get(attribute)):
                        break
                else:
                    append(entry[1])
            elif entry[1].matches(tup):  # OPAQUE: unknown clause subclass
                append(entry[1])
    if not shapes:
        return row
    single, multi, trivial, opaque = shapes
    extend = row.extend
    for attribute, check, members in single:
        if check(tup_get(attribute)):
            extend(members)
    for pairs, members in multi:
        for attribute, check in pairs:
            if not check(tup_get(attribute)):
                break
        else:
            extend(members)
    extend(trivial)
    for predicate in opaque:
        if predicate.matches(tup):
            append(predicate)
    return row


# ----------------------------------------------------------------------
# epoch-snapshot merge (the concurrency read path)
# ----------------------------------------------------------------------
#
# A published EpochSnapshot is (base, overlay, removed, overlay_preds):
# a big frozen index, a small frozen index over the writes since the
# last compaction, the tombstoned idents, and the overlay's predicates
# in insertion order.  Matching against a snapshot is base results
# filtered through the tombstones, then overlay results appended in
# insertion order — a fixed order per snapshot, so concurrent and
# repeated calls agree exactly.  These functions are the single
# implementation of that merge; ``EpochSnapshot`` delegates to them, so
# the snapshot read path runs the same pipeline code as everything else
# (each frozen index's own match methods route through its
# MatchPipeline).


def snapshot_match(snapshot: Any, tup: Mapping[str, Any]) -> List[Predicate]:
    """All live predicates matching *tup*, deterministically ordered.

    Base matches come first (in the base index's order), overlay
    matches after (in insertion order).
    """
    removed = snapshot.removed
    results = [
        pred
        for pred in snapshot.base.match(snapshot.relation, tup)
        if pred.ident not in removed
    ]
    if snapshot.overlay is not None:
        overlay_hits = {
            pred.ident for pred in snapshot.overlay.match(snapshot.relation, tup)
        }
        results.extend(
            pred for pred in snapshot.overlay_preds if pred.ident in overlay_hits
        )
    return results


def snapshot_match_idents(snapshot: Any, tup: Mapping[str, Any]) -> Set[Hashable]:
    """Identifiers of all live predicates matching *tup*."""
    idents = {
        ident
        for ident in snapshot.base.match_idents(snapshot.relation, tup)
        if ident not in snapshot.removed
    }
    if snapshot.overlay is not None:
        idents.update(snapshot.overlay.match_idents(snapshot.relation, tup))
    return idents


def snapshot_match_batch(
    snapshot: Any,
    tuples: Iterable[Mapping[str, Any]],
    overlay_scan_limit: int = 8,
) -> List[List[Predicate]]:
    """Match several tuples against one epoch.

    Uses the underlying batched fast path on the base.  An overlay of
    at most *overlay_scan_limit* predicates is evaluated by a direct
    per-tuple scan instead — running the full batched pipeline (stab
    tables plus per-tuple assembly) over a second index costs more than
    testing a handful of predicates outright.  An overlay that holds a
    non-indexable predicate always goes through its own batched
    pipeline, which tests each distinct shared condition once.  Results
    are per-tuple lists in the same deterministic order as
    :func:`snapshot_match`.
    """
    tuple_list = list(tuples)
    removed = snapshot.removed
    base_rows = snapshot.base.match_batch(snapshot.relation, tuple_list)
    if removed:
        rows: List[List[Predicate]] = [
            [pred for pred in row if pred.ident not in removed]
            for row in base_rows
        ]
    else:
        rows = [list(row) for row in base_rows]
    if snapshot.overlay is not None and snapshot.overlay_preds:
        shared = snapshot.overlay._catalog.relations[snapshot.relation].non_indexable
        if len(snapshot.overlay_preds) <= overlay_scan_limit and not shared:
            overlay_preds = snapshot.overlay_preds
            for tup, row in zip(tuple_list, rows):
                for pred in overlay_preds:
                    if pred.matches(tup):
                        row.append(pred)
        else:
            overlay_rows = snapshot.overlay.match_batch(
                snapshot.relation, tuple_list
            )
            for row, overlay_row in zip(rows, overlay_rows):
                if not overlay_row:
                    continue
                hits = {pred.ident for pred in overlay_row}
                row.extend(
                    pred
                    for pred in snapshot.overlay_preds
                    if pred.ident in hits
                )
    return rows
