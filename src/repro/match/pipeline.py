"""The staged match pipeline: route → stab → candidates → residual → emit.

One implementation of the paper's matching procedure (module docstring
of :mod:`repro.core.predicate_index`, steps 1–4) serves every read
path:

* the per-tuple generator (:meth:`MatchPipeline.match_with_candidates`)
  behind ``match`` / ``match_idents``;
* the batched path (:meth:`MatchPipeline.match_batch`) with grouped
  stab descents, compiled residuals, and the per-batch memo;
* the concurrency layer's epoch-snapshot reads, via the module-level
  :func:`snapshot_match` / :func:`snapshot_match_idents` /
  :func:`snapshot_match_batch` merge functions (base results filtered
  through tombstones, overlay results appended in insertion order).

Every stage reports what it did through a
:class:`~repro.match.observer.MatchObserver` — the pipeline itself
keeps no counters — so statistics, tracing, and future observability
hang off one seam instead of scattered increments.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..core.intervals import MINUS_INF, PLUS_INF
from ..predicates.predicate import Predicate
from .catalog import CLOSED, MULTI, SINGLE, TRIVIAL, ClauseCatalog, RelationState
from .observer import MatchObserver
from .store import TreeStore

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
        per-relation state (trees, predicates, residual cache).
    store:
        The :class:`~repro.match.store.TreeStore` whose cache policy
        (``stab_cache_size``, ``cache_lru``) governs the stab stage.
    observer:
        Stage-boundary sink; swap it to change what is recorded
        without touching the pipeline.
    feedback:
        Entry-clause feedback counters
        (:class:`~repro.db.statistics.EntryClauseFeedback`); consulted
        only when ``adaptive``.
    adaptive:
        Record observed entry-clause selectivities on the match path
        (never safe on a frozen index read concurrently).
    columnar:
        Try the vectorized columnar plane
        (:mod:`repro.match.columnar`) first on every
        :meth:`match_batch` call.  The plane is built lazily per
        relation, cached on the relation's mutation version, and
        silently skipped whenever NumPy is missing, the relation's
        shape is not vectorizable, or the batch carries values outside
        the plane's numeric domain — the scalar stages below remain
        the semantics of record.  Ignored under ``adaptive`` (the
        feedback counters need the scalar path's per-candidate
        bookkeeping) and under multi-clause indexing.
    """

    __slots__ = ("catalog", "store", "observer", "feedback", "adaptive", "columnar")

    def __init__(
        self,
        catalog: ClauseCatalog,
        store: TreeStore,
        observer: MatchObserver,
        feedback: Any = None,
        adaptive: bool = False,
        columnar: bool = False,
    ) -> None:
        self.catalog = catalog
        self.store = store
        self.observer = observer
        self.feedback = feedback
        self.adaptive = bool(adaptive)
        self.columnar = bool(columnar)

    # -- per-tuple path -------------------------------------------------

    def match(self, relation: str, tup: Mapping[str, Any]) -> List[Predicate]:
        """All predicates of *relation* that fully match the tuple."""
        return [
            pred
            for pred, _ in self.match_with_candidates(relation, tup)
            if pred is not None
        ]

    def match_idents(self, relation: str, tup: Mapping[str, Any]) -> Set[Hashable]:
        """Identifiers of all fully matching predicates."""
        return {
            pred.ident
            for pred, _ in self.match_with_candidates(relation, tup)
            if pred is not None
        }

    def match_with_candidates(
        self, relation: str, tup: Mapping[str, Any]
    ) -> Iterator[Tuple[Optional[Predicate], Hashable]]:
        """Yield ``(predicate_or_None, ident)`` for each candidate.

        A candidate whose residual test fails yields ``(None, ident)``;
        a full match yields the predicate.  Exposed so benchmarks can
        count partial matches exactly as the cost model does.
        """
        observer = self.observer
        observer.on_route(relation, 1, False)
        state = self.catalog.relations.get(relation)
        if state is None:
            return
        if self.catalog.multi_clause:
            candidates = self._intersect_candidates(relation, state, tup)
        else:
            candidates = set()
            probes = descents = cache_hits = 0
            cache_size = self.store.stab_cache_size
            cache: Any = state.stab_cache
            lru = self.store.cache_lru
            for attribute, tree in state.trees.items():
                value = tup.get(attribute)
                if value is None:
                    continue  # NULL matches no clause: no tree entry applies
                probes += 1
                key = None
                if cache_size:
                    epoch = getattr(tree, "epoch", None)
                    if epoch is not None:
                        try:
                            key = (attribute, epoch, value)
                            cached = cache.get(key)
                        except TypeError:
                            key = None  # unhashable value: uncacheable
                        else:
                            if cached is not None:
                                if lru:
                                    cache.move_to_end(key)
                                cache_hits += 1
                                candidates |= cached
                                continue
                descents += 1
                try:
                    if key is None:
                        tree.stab_into(value, candidates)
                    else:
                        stabbed = frozenset(tree.stab(value))
                        candidates |= stabbed
                        if lru:
                            cache[key] = stabbed
                            if len(cache) > cache_size:
                                cache.popitem(last=False)
                        elif len(cache) < cache_size:
                            # frozen: append-only, never evict
                            cache[key] = stabbed
                except TypeError:
                    # the value's type is incomparable with this
                    # attribute's indexed bounds (mixed-domain data): no
                    # interval clause on this attribute can match it
                    continue
            observer.on_stab(relation, probes, descents, cache_hits)
            if self.adaptive:
                self.feedback.observe_tuples(relation, 1)
                if candidates:
                    self.feedback.observe_candidates(candidates)
        observer.on_candidates(relation, len(candidates), len(state.non_indexable))
        candidates |= state.non_indexable
        for ident in candidates:
            predicate = state.predicates[ident]
            if predicate.matches(tup):
                observer.on_residual(relation, 1, 0)
                yield predicate, ident
            else:
                yield None, ident

    def _intersect_candidates(
        self, relation: str, state: RelationState, tup: Mapping[str, Any]
    ) -> Set[Hashable]:
        """Multi-clause candidates: hit in *every* indexed attribute.

        An ident is a candidate only if every tree it is indexed under
        was probed and reported it — a NULL or incomparable value in
        any indexed attribute disqualifies the predicate outright
        (that clause cannot match).
        """
        hits: Dict[Hashable, int] = {}
        probed: Set[str] = set()
        probes = descents = 0
        for attribute, tree in state.trees.items():
            value = tup.get(attribute)
            if value is None:
                continue
            probes += 1
            descents += 1
            try:
                stabbed = tree.stab(value)
            except TypeError:
                continue
            probed.add(attribute)
            for ident in stabbed:
                hits[ident] = hits.get(ident, 0) + 1
        self.observer.on_stab(relation, probes, descents, 0)
        candidates: Set[Hashable] = set()
        for ident, count in hits.items():
            attributes = state.indexed_under[ident]
            if count == len(attributes) and all(a in probed for a in attributes):
                candidates.add(ident)
        return candidates

    # -- batched path ---------------------------------------------------

    def match_batch(
        self, relation: str, tuples: Iterable[Mapping[str, Any]]
    ) -> List[List[Predicate]]:
        """Match a batch of tuples; returns one result list per tuple.

        Semantically identical to ``[self.match(relation, t) for t in
        tuples]`` (the differential tests assert exactly that), but the
        work is restructured around the batch:

        1. the batch's values are grouped per indexed attribute,
           deduplicated and sorted, and each attribute tree is stabbed
           **once per distinct value** via ``stab_many`` (sorted order
           keeps the grouped descent's sibling partitions adjacent and
           shares search-path prefixes);
        2. the stab results are fanned back out per tuple (in the
           paper's single-clause scheme the per-attribute stabbed sets
           are disjoint, so no per-tuple union is built);
        3. residual tests run through **compiled evaluators** that
           skip the clauses already *proven* by the index probe — a
           stabbed candidate's entry clause is known to match, so only
           the remaining clauses are tested — and interval-only
           residuals are **memoized** per batch on ``(ident,
           restricted-tuple-projection)`` whenever the batch shows
           enough value repetition for the memo to pay off.

        Function clauses are always (re-)evaluated per tuple, exactly
        as the per-tuple path does: memoizing them on ``==``-collapsed
        keys would be unsound for type-sensitive functions (``2`` and
        ``2.0`` share a key), and the paper assumes nothing about them
        "except that it returns true or false".

        Tuples the batch stages cannot handle — an unhashable or
        infinity-sentinel value in an indexed attribute — are routed
        through the per-tuple path *individually* while the rest of the
        batch stays batched (one adversarial tuple no longer degrades
        the whole batch); the columnar plane falls back through this
        same seam when it bails out.  ``None``-valued and missing
        attributes are equivalent everywhere (the NULL rule: NULL
        matches no clause) and never force a fallback.
        """
        tuples = list(tuples)
        if not tuples:
            return []
        observer = self.observer
        state = self.catalog.relations.get(relation)
        if state is None:
            observer.on_route(relation, len(tuples), True)
            return [[] for _ in tuples]
        if self.columnar and not self.adaptive and not self.catalog.multi_clause:
            rows = self._columnar_match_batch(relation, state, tuples)
            if rows is not None:
                return rows
        stab_tables, memo_on, probes, descents, cache_hits, fallback = (
            self._batch_stab_tables(state, tuples)
        )
        if len(fallback) == len(tuples):
            # nothing batchable: a pure per-tuple run, no batch events
            return [self.match(relation, tup) for tup in tuples]
        fallback_set = frozenset(fallback)
        observer.on_route(relation, len(tuples) - len(fallback_set), True)
        observer.on_stab(relation, probes, descents, cache_hits)
        if self.catalog.multi_clause:
            per_tuple = self._batch_intersect(
                state, tuples, stab_tables, fallback_set
            )
        else:
            per_tuple = None
        non_indexable = state.non_indexable
        predicates = state.predicates
        residuals = self.catalog.ensure_residuals(state)
        # Non-indexable predicates are tested against *every* tuple:
        # resolve their entries once per batch into homogeneous
        # per-kind lists so the tuple loop runs without per-candidate
        # dict lookups or kind dispatch.
        ni_trivial: List[Predicate] = []
        ni_closed: List[Tuple[Any, ...]] = []
        ni_single: List[Tuple[Hashable, Tuple[Any, ...]]] = []
        ni_multi: List[Tuple[Hashable, Tuple[Any, ...]]] = []
        ni_opaque: List[Predicate] = []
        for ident in non_indexable:
            entry = residuals[ident]
            kind = entry[0]
            if kind == MULTI:
                ni_multi.append((ident, entry))
            elif kind == SINGLE:
                ni_single.append((ident, entry))
            elif kind == CLOSED:
                ni_closed.append(entry)
            elif kind == TRIVIAL:
                ni_trivial.append(entry[1])
            else:
                ni_opaque.append(entry[1])
        # With the memo disabled (the common case for low-repetition
        # batches) the non-indexable loops reduce to bare
        # ``check(value)`` calls over pre-extracted pairs.
        ni_single_fast = [(e[1], e[2], e[3]) for _, e in ni_single]
        ni_multi_fast = [(e[1], e[3]) for _, e in ni_multi]
        stab_items = list(stab_tables.items())
        memo: Dict[Tuple[Hashable, Any], bool] = {}
        memo_get = memo.get
        partial = full = memo_hits = 0
        results: List[List[Predicate]] = []
        for position, tup in enumerate(tuples):
            if position in fallback_set:
                # unbatchable value: the per-tuple path reports its own
                # route/stab/candidate/residual events for this tuple
                results.append(self.match(relation, tup))
                continue
            tup_get = tup.get
            row: List[Predicate] = []
            append = row.append
            # In the paper's single-clause scheme every predicate is
            # indexed under exactly one attribute, so the per-attribute
            # stabbed sets are disjoint: iterate them directly instead
            # of unioning into a per-tuple candidate set.
            if per_tuple is None:
                groups: List[Iterable[Hashable]] = []
                for attribute, table in stab_items:
                    value = tup_get(attribute)
                    if value is None:
                        continue
                    stabbed = table.get(value)
                    if stabbed:
                        partial += len(stabbed)
                        groups.append(stabbed)
            else:
                candidates = per_tuple[position]
                partial += len(candidates)
                groups = [candidates] if candidates else []
            for group in groups:
                for ident in group:
                    entry = residuals[ident]
                    kind = entry[0]
                    if kind == CLOSED:
                        # (kind, pred, attr, low, high): the dominant
                        # shape, inlined — a closure call per candidate
                        # would double the cost of this loop.  The test
                        # is rejection-style, like Interval.contains, so
                        # partially-ordered values (NaN) get the same
                        # verdict as on the per-tuple path; sentinels
                        # still fail (one bound comparison proves them
                        # outside any closed interval).
                        v = tup_get(entry[2])
                        try:
                            ok = v is not None and not (
                                v < entry[3] or v > entry[4]
                            )
                        except TypeError:
                            ok = False  # incomparable value
                        if ok:
                            append(entry[1])
                    elif kind == SINGLE:
                        # (kind, pred, attr, check, memo_ok)
                        v = tup_get(entry[2])
                        if memo_on and entry[4]:
                            key = (ident, v)
                            try:
                                verdict = memo_get(key)
                            except TypeError:
                                verdict = entry[3](v)  # unhashable value
                            else:
                                if verdict is None:
                                    verdict = memo[key] = entry[3](v)
                                else:
                                    memo_hits += 1
                            if verdict:
                                append(entry[1])
                        elif entry[3](v):
                            append(entry[1])
                    elif kind == TRIVIAL:
                        # every clause was proven by the index probes
                        append(entry[1])
                    elif kind == MULTI:
                        # (kind, pred, attrs, evaluate, memo_ok);
                        # evaluate fetches its own values, the
                        # projection tuple is built only as a memo key
                        if memo_on and entry[4]:
                            proj = tuple([tup_get(a) for a in entry[2]])
                            key = (ident, proj)
                            try:
                                verdict = memo_get(key)
                            except TypeError:
                                verdict = entry[3](tup_get)
                            else:
                                if verdict is None:
                                    verdict = memo[key] = entry[3](tup_get)
                                else:
                                    memo_hits += 1
                            if verdict:
                                append(entry[1])
                        elif entry[3](tup_get):
                            append(entry[1])
                    else:  # OPAQUE: unknown clause subclass
                        if entry[1].matches(tup):
                            append(entry[1])
            for entry in ni_closed:
                v = tup_get(entry[2])
                try:
                    ok = v is not None and not (v < entry[3] or v > entry[4])
                except TypeError:
                    ok = False
                if ok:
                    append(entry[1])
            if not memo_on:
                for predicate, attribute, check in ni_single_fast:
                    if check(tup_get(attribute)):
                        append(predicate)
                for predicate, evaluate in ni_multi_fast:
                    if evaluate(tup_get):
                        append(predicate)
            else:
                for ident, entry in ni_single:
                    v = tup_get(entry[2])
                    if entry[4]:
                        key = (ident, v)
                        try:
                            verdict = memo_get(key)
                        except TypeError:
                            verdict = entry[3](v)
                        else:
                            if verdict is None:
                                verdict = memo[key] = entry[3](v)
                            else:
                                memo_hits += 1
                        if verdict:
                            append(entry[1])
                    elif entry[3](v):
                        append(entry[1])
                for ident, entry in ni_multi:
                    if entry[4]:
                        proj = tuple([tup_get(a) for a in entry[2]])
                        key = (ident, proj)
                        try:
                            verdict = memo_get(key)
                        except TypeError:
                            verdict = entry[3](tup_get)
                        else:
                            if verdict is None:
                                verdict = memo[key] = entry[3](tup_get)
                            else:
                                memo_hits += 1
                        if verdict:
                            append(entry[1])
                    elif entry[3](tup_get):
                        append(entry[1])
            for predicate in ni_trivial:
                append(predicate)
            for predicate in ni_opaque:
                if predicate.matches(tup):
                    append(predicate)
            full += len(row)
            results.append(row)
        observer.on_candidates(
            relation, partial, len(non_indexable) * (len(tuples) - len(fallback_set))
        )
        observer.on_residual(relation, full, memo_hits)
        if self.adaptive and not self.catalog.multi_clause:
            feedback = self.feedback
            # fallback tuples already reported through the per-tuple
            # path's own adaptive hooks inside self.match
            feedback.observe_tuples(relation, len(tuples) - len(fallback_set))
            # candidate counts reconstructed from the stab tables: each
            # ident stabbed at a value was a candidate once per tuple
            # carrying that value
            for attribute, table in stab_tables.items():
                counts: Dict[Any, int] = {}
                for position, tup in enumerate(tuples):
                    if position in fallback_set:
                        continue
                    value = tup.get(attribute)
                    if value is not None:
                        counts[value] = counts.get(value, 0) + 1
                for value, stabbed in table.items():
                    if stabbed:
                        feedback.observe_candidates(stabbed, counts.get(value, 1))
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
        must report a virgin stage sequence.

        Fallbacks chain through one seam: the plane bails (``None``)
        on out-of-domain values, the scalar batch takes over, and the
        scalar batch in turn routes only the individual tuples *it*
        cannot handle (unhashable or sentinel values) through the
        per-tuple path.  ``None``-valued and missing attributes are
        equivalent at every link (the NULL rule) and bail nothing.
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
    ) -> Tuple[
        Dict[str, Dict[Any, Optional[Set[Hashable]]]],
        bool,
        int,
        int,
        int,
        List[int],
    ]:
        """Stab each attribute tree once per distinct batch value.

        Returns ``(stab_tables, memo_on, probes, descents, cache_hits,
        fallback)``: per attribute a table ``value -> stabbed idents``
        (``None`` for incomparable values); whether the batch shows
        enough value repetition (>= 10% duplicates across indexed
        attributes) for the residual memo to pay for its bookkeeping;
        the stab-stage counts for the observer (*probes* is the logical
        per-tuple per-attribute probe count — identical to what the
        per-tuple path would report — while *descents* counts the
        grouped ``stab_many`` descents actually performed); and
        *fallback* — the positions of tuples the batch stages must not
        touch, in ascending order.

        A tuple lands in *fallback* when an indexed attribute holds an
        unhashable value — the per-value grouping, the stab tables and
        the residual memo all need to hash it — or an infinity
        sentinel, for which skipping the proven entry clause would be
        unsound (``clause.matches`` rejects sentinels that a tree stab
        may admit).  The caller routes those positions through the
        per-tuple path, which needs neither hashing nor the
        proven-entry shortcut; fallback tuples contribute nothing to
        the returned tables or counts.  ``None``-valued and *missing*
        attributes are **not** fallback cases: both mean "no probe" —
        the NULL rule, NULL matches no clause — on the per-tuple, the
        batched, and the columnar path alike, so such tuples stay
        batchable.
        """
        trees = state.trees
        stab_tables: Dict[str, Dict[Any, Optional[Set[Hashable]]]] = {}
        if not trees:
            return stab_tables, False, 0, 0, 0, []
        attributes = list(trees)
        by_attribute: Dict[str, Set[Any]] = {a: set() for a in attributes}
        fallback: List[int] = []
        total = distinct = 0
        for position, tup in enumerate(tuples):
            tup_get = tup.get
            staged: List[Tuple[str, Any]] = []
            batchable = True
            for attribute in attributes:
                value = tup_get(attribute)
                if value is None:
                    continue  # NULL rule: no probe, as on the per-tuple path
                if value is MINUS_INF or value is PLUS_INF:
                    batchable = False
                    break
                try:
                    hash(value)
                except TypeError:
                    batchable = False
                    break
                staged.append((attribute, value))
            if not batchable:
                fallback.append(position)
                continue
            total += len(staged)
            for attribute, value in staged:
                by_attribute[attribute].add(value)
        plans: List[Tuple[str, List[Any]]] = []
        for attribute in attributes:
            values = by_attribute[attribute]
            distinct += len(values)
            if not values:
                stab_tables[attribute] = {}
                continue
            try:
                ordered: List[Any] = sorted(values)
            except TypeError:
                ordered = list(values)  # mixed domains: order is just locality
            plans.append((attribute, ordered))
        cache_size = self.store.stab_cache_size
        cache: Any = state.stab_cache
        lru = self.store.cache_lru
        descents = cache_hits = 0
        for attribute, ordered in plans:
            tree = trees[attribute]
            epoch = getattr(tree, "epoch", None) if cache_size else None
            if epoch is None:
                # one grouped descent per tree per batch
                descents += 1
                stab_tables[attribute] = tree.stab_many(ordered)
                continue
            # answer cached values without touching the tree; stab the
            # misses in one grouped descent and remember them
            table: Dict[Any, Optional[Set[Hashable]]] = {}
            misses: List[Any] = []
            for value in ordered:
                key = (attribute, epoch, value)
                cached = cache.get(key)
                if cached is None:
                    misses.append(value)
                else:
                    if lru:
                        cache.move_to_end(key)
                    cache_hits += 1
                    table[value] = cached
            if misses:
                descents += 1
                for value, stabbed in tree.stab_many(misses).items():
                    table[value] = stabbed
                    if stabbed is not None:
                        if lru:
                            cache[(attribute, epoch, value)] = frozenset(stabbed)
                            if len(cache) > cache_size:
                                cache.popitem(last=False)
                        elif len(cache) < cache_size:
                            # frozen: append-only, never evict
                            cache[(attribute, epoch, value)] = frozenset(stabbed)
            stab_tables[attribute] = table
        memo_on = total > 0 and (total - distinct) * 10 >= total
        return stab_tables, memo_on, total, descents, cache_hits, fallback

    def _batch_intersect(
        self,
        state: RelationState,
        tuples: List[Mapping[str, Any]],
        stab_tables: Dict[str, Dict[Any, Optional[Set[Hashable]]]],
        fallback_set: "frozenset[int]",
    ) -> List[Set[Hashable]]:
        """Multi-clause fan-out: candidates hit in *every* indexed tree.

        Positions in *fallback_set* get an empty placeholder — the emit
        loop matches those tuples per-tuple and never reads the entry
        (their values may be unhashable, so the tables cannot answer
        them).
        """
        indexed_under = state.indexed_under
        out: List[Set[Hashable]] = []
        for position, tup in enumerate(tuples):
            if position in fallback_set:
                out.append(set())
                continue
            hits: Dict[Hashable, int] = {}
            probed: Set[str] = set()
            for attribute, table in stab_tables.items():
                value = tup.get(attribute)
                if value is None:
                    continue
                stabbed = table.get(value)
                if stabbed is None:
                    continue  # incomparable value: attribute not probed
                probed.add(attribute)
                for ident in stabbed:
                    hits[ident] = hits.get(ident, 0) + 1
            candidates: Set[Hashable] = set()
            for ident, count in hits.items():
                attributes = indexed_under[ident]
                if count == len(attributes) and all(a in probed for a in attributes):
                    candidates.add(ident)
            out.append(candidates)
        return out


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
    testing a handful of predicates outright.  Results are per-tuple
    lists in the same deterministic order as :func:`snapshot_match`.
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
        if len(snapshot.overlay_preds) <= overlay_scan_limit:
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
