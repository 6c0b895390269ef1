"""The PREDICATES table layer: storage, normalization, entry clauses.

:class:`ClauseCatalog` owns everything the paper's Figure 1 files under
"the PREDICATES table" plus the registration-time decisions around it:

* per-relation predicate storage (:class:`RelationState`), the
  non-indexable list, and the ``ident -> entry attribute(s)`` map;
* predicate **normalization** (same-attribute interval clauses merged,
  contradictions rejected);
* **entry-clause selection** — the paper's "most selective clause"
  choice via a pluggable selectivity estimator, or every indexable
  clause under multi-clause indexing — and feedback-driven entry-clause
  **migration** (:meth:`ClauseCatalog.retune`);
* the **compiled-residual cache**: each predicate's residual test
  compiled once into a tagged dispatch tuple (see
  :func:`compile_residual`) and reused by every batched match.

The catalog never descends a tree itself: tree storage and lifecycle
belong to :class:`~repro.match.store.TreeStore`, which registration
methods receive as an explicit collaborator, and stabbing belongs to
:class:`~repro.match.pipeline.MatchPipeline`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    MutableMapping,
    Optional,
    Set,
    Tuple,
)

from ..core.intervals import MINUS_INF, PLUS_INF
from ..core.selectivity import (
    DefaultEstimator,
    SelectivityEstimator,
    choose_index_clause,
    rank_index_clauses,
)
from ..errors import PredicateError, UnknownIntervalError
from ..predicates.clauses import FunctionClause, IntervalClause
from ..predicates.predicate import Predicate
from .observer import MatchObserver

__all__ = [
    "RelationState",
    "ClauseCatalog",
    "compile_residual",
    "vector_residual_spec",
    "TRIVIAL",
    "CLOSED",
    "SINGLE",
    "MULTI",
    "OPAQUE",
]


class RelationState:
    """Second-level index state for one relation (Figure 1, lower half).

    One record shared by the catalog layer (``predicates``,
    ``non_indexable``, ``indexed_under``, ``residuals``) and the tree
    store (``trees``, ``stab_cache``, ``epoch_floor``): the layers are
    separated by *method ownership*, while the per-relation state stays
    one allocation so the facade's rollback paths never have to keep
    two registries in sync.
    """

    __slots__ = (
        "name",
        "trees",
        "non_indexable",
        "indexed_under",
        "predicates",
        "residuals",
        "stab_cache",
        "epoch_floor",
        "version",
        "columnar_plane",
    )

    def __init__(self, name: str = "?") -> None:
        #: the relation this record indexes — purely informational for
        #: most stores, but the disk tree store names segment files
        #: ``<relation>/<attribute>.g<N>.seg`` from it
        self.name = name
        #: attribute name -> interval index over that attribute's clauses
        self.trees: Dict[str, Any] = {}
        #: idents of predicates with no indexable clause
        self.non_indexable: Set[Hashable] = set()
        #: ident -> attributes whose trees hold the predicate's entry
        #: clause(s); a single attribute in the paper's scheme, possibly
        #: several under multi-clause indexing
        self.indexed_under: Dict[Hashable, Tuple[str, ...]] = {}
        #: the PREDICATES table: ident -> full predicate
        self.predicates: Dict[Hashable, Predicate] = {}
        #: ident -> compiled residual evaluator (built lazily by the
        #: batched pipeline); see :func:`compile_residual`
        self.residuals: Dict[Hashable, Tuple[Any, ...]] = {}
        #: LRU stab cache: ``(attribute, tree_epoch, value) ->
        #: frozenset(idents)``.  Because the tree's epoch is part of
        #: the key, a mutation invalidates every prior entry *by key
        #: mismatch* — no scan — and stale entries age out of the LRU.
        #: Cleared only when the tree map itself changes shape (a tree
        #: created or dropped), since a fresh tree restarts its epochs.
        #: ``freeze()`` replaces it with a plain ``dict`` (insertion
        #: order preserved, no LRU methods needed) so frozen-mode
        #: lock-free readers only ever do GIL-atomic dict ops.
        self.stab_cache: "MutableMapping[Tuple[str, int, Any], frozenset]" = (
            OrderedDict()
        )
        #: lowest epoch any *future* tree of this relation may carry.
        #: Raised past a tree's last epoch whenever that tree is dropped
        #: (remove/rollback/migration/rebuild), and seeded into every
        #: fresh tree, so ``(attribute, tree_epoch)`` pairs are never
        #: reused across tree generations — epoch-keyed caches and
        #: epoch-snapshot readers can rely on monotonicity.
        self.epoch_floor: int = 0
        #: monotone mutation counter, bumped by every catalog operation
        #: that changes what this relation matches (register, remove,
        #: entry-clause migration, rebuild, rollback).  Derived
        #: read-path structures — the columnar plane below — key their
        #: caches on it, so a mutation invalidates them by version
        #: mismatch instead of an explicit notification.
        self.version: int = 0
        #: ``(version, plane_or_None)`` — the relation's cached columnar
        #: batch plane (see :mod:`repro.match.columnar`), or ``None``
        #: when never built.  ``plane_or_None`` is ``None`` when the
        #: relation's shape cannot be vectorized.  A frozen relation's
        #: version never changes, so the plane is built at most once per
        #: snapshot and shared by lock-free readers (single attribute
        #: assignment; concurrent builders compute equal planes).
        self.columnar_plane: Optional[Tuple[int, Any]] = None


class ClauseCatalog:
    """Predicate storage plus the decisions made at registration time.

    Parameters
    ----------
    estimator:
        Selectivity estimator used to pick each predicate's entry
        clause; defaults to the System R style constants.
    multi_clause:
        The paper indexes exactly **one** clause per predicate — the
        most selective — and relies on the residual test for the rest.
        With ``multi_clause=True`` every indexable clause enters its
        attribute's tree and a predicate is a candidate only when *all*
        of its indexed clauses match.
    """

    def __init__(
        self,
        estimator: Optional[SelectivityEstimator] = None,
        multi_clause: bool = False,
    ) -> None:
        self.estimator: SelectivityEstimator = estimator or DefaultEstimator()
        self.multi_clause = bool(multi_clause)
        #: relation name -> per-relation state record
        self.relations: Dict[str, RelationState] = {}
        #: ident -> relation routing map
        self.relation_of: Dict[Hashable, str] = {}

    # -- normalization and entry-clause selection ----------------------

    def normalize(self, predicate: Predicate) -> Predicate:
        """Normalize *predicate*; reject the unsatisfiable."""
        normalized = predicate.normalized()
        if normalized is None:
            raise PredicateError(
                f"predicate {predicate} is unsatisfiable and cannot be indexed"
            )
        return normalized

    def entry_clauses_of(self, normalized: Predicate) -> List[IntervalClause]:
        """The clause(s) *normalized* enters into the attribute trees.

        One (the most selective) in the paper's scheme; every indexable
        clause under multi-clause indexing; empty when the predicate
        has no indexable clause.  Shared by every registration path so
        they all make the same entry-clause choice.
        """
        if self.multi_clause:
            return list(normalized.indexable_clauses())
        chosen = choose_index_clause(normalized, self.estimator)
        return [chosen] if chosen is not None else []

    # -- registration ---------------------------------------------------

    def _state_for(self, relation: str) -> RelationState:
        """The relation's state record, created on demand."""
        state = self.relations.get(relation)
        if state is None:
            state = self.relations[relation] = RelationState(relation)
        return state

    def register(self, store: Any, predicate: Predicate) -> Hashable:
        """Index *predicate*; returns its identifier.

        The predicate is normalized first; a contradictory predicate is
        rejected since it can never match.  Atomic: a failure while
        entering clauses leaves no trace of the predicate behind.
        """
        normalized = self.normalize(predicate)
        ident = normalized.ident
        if ident in self.relation_of:
            raise PredicateError(f"predicate ident {ident!r} already indexed")
        state = self._state_for(normalized.relation)
        try:
            self.enter_clauses(store, state, ident, normalized)
        except BaseException:
            # Atomic add: a failure while entering clauses (e.g. an
            # injected fault in a tree insert) must not leave the
            # predicate half-indexed.  Tree-level inserts roll
            # themselves back; here we undo entries in *other* trees
            # and drop anything this call created.
            self.rollback_add(store, normalized.relation, state, ident)
            raise
        state.predicates[ident] = normalized
        self.relation_of[ident] = normalized.relation
        state.version += 1
        return ident

    def register_many(
        self, store: Any, predicates: Iterable[Predicate]
    ) -> List[Hashable]:
        """Bulk-register *predicates*; returns their identifiers in order.

        Entry clauses destined for an attribute with **no existing
        tree** are collected and handed to the backend's ``bulk_load``
        in one pass; clauses for attributes that already have a live
        tree are inserted incrementally.  Atomic: on any failure every
        predicate this call registered is removed again before the
        exception propagates.
        """
        normalized_list: List[Predicate] = []
        seen: Set[Hashable] = set()
        for predicate in predicates:
            normalized = self.normalize(predicate)
            ident = normalized.ident
            if ident in self.relation_of or ident in seen:
                raise PredicateError(f"predicate ident {ident!r} already indexed")
            seen.add(ident)
            normalized_list.append(normalized)
        by_relation: Dict[str, List[Predicate]] = {}
        for normalized in normalized_list:
            by_relation.setdefault(normalized.relation, []).append(normalized)
        added: List[Tuple[str, Hashable]] = []
        try:
            for relation, group in by_relation.items():
                state = self._state_for(relation)
                fresh: Dict[str, List[Tuple[Any, Hashable]]] = {}
                for normalized in group:
                    ident = normalized.ident
                    state.predicates[ident] = normalized
                    self.relation_of[ident] = relation
                    added.append((relation, ident))
                    entry_clauses = self.entry_clauses_of(normalized)
                    if not entry_clauses:
                        state.non_indexable.add(ident)
                        continue
                    state.indexed_under[ident] = tuple(
                        clause.attribute for clause in entry_clauses
                    )
                    for clause in entry_clauses:
                        tree = state.trees.get(clause.attribute)
                        if tree is None:
                            fresh.setdefault(clause.attribute, []).append(
                                (clause.interval, ident)
                            )
                        else:
                            tree.insert(clause.interval, ident)
                for attribute, pairs in fresh.items():
                    state.trees[attribute] = store.build_tree(
                        state, pairs, attribute
                    )
                    state.stab_cache.clear()  # tree map changed shape
                state.version += 1
        except BaseException:
            for relation, ident in added:
                state_or_none = self.relations.get(relation)
                if state_or_none is None:
                    continue
                state_or_none.predicates.pop(ident, None)
                state_or_none.residuals.pop(ident, None)
                self.relation_of.pop(ident, None)
                self.rollback_add(store, relation, state_or_none, ident)
            raise
        return [normalized.ident for normalized in normalized_list]

    def attach_entry(
        self,
        relation: str,
        normalized: Predicate,
        under: Tuple[str, ...],
    ) -> Hashable:
        """Register *normalized* in the catalog **without touching trees**.

        Cold-start seam for the disk tier: recovery already has the
        predicate's entry attributes (recorded at checkpoint time) and
        the attribute trees arrive separately as mmap'd segments, so
        re-running entry-clause selection — or worse, re-inserting into
        trees that are about to be attached — would be wasted work and
        could disagree with the sealed segments.  *under* is the entry
        attribute tuple from the checkpoint; empty means non-indexable.
        The predicate must already be normalized.
        """
        ident = normalized.ident
        if ident in self.relation_of:
            raise PredicateError(f"predicate ident {ident!r} already indexed")
        state = self._state_for(relation)
        state.predicates[ident] = normalized
        self.relation_of[ident] = relation
        if under:
            state.indexed_under[ident] = tuple(under)
        else:
            state.non_indexable.add(ident)
        state.version += 1
        return ident

    def enter_clauses(
        self, store: Any, state: RelationState, ident: Hashable, normalized: Predicate
    ) -> None:
        """Enter *normalized*'s clause(s) into the per-attribute trees."""
        entry_clauses = self.entry_clauses_of(normalized)
        if not entry_clauses:
            state.non_indexable.add(ident)
            return
        for clause in entry_clauses:
            tree = state.trees.get(clause.attribute)
            if tree is None:
                tree = state.trees[clause.attribute] = store.new_tree(
                    state, clause.attribute
                )
                state.stab_cache.clear()  # tree map changed shape
            tree.insert(clause.interval, ident)
        state.indexed_under[ident] = tuple(
            clause.attribute for clause in entry_clauses
        )

    def rollback_add(
        self, store: Any, relation: str, state: RelationState, ident: Hashable
    ) -> None:
        """Undo a partially-applied :meth:`register` for *ident*."""
        state.version += 1
        state.non_indexable.discard(ident)
        state.indexed_under.pop(ident, None)
        for attribute in list(state.trees):
            tree = state.trees[attribute]
            if ident in tree:
                tree.delete(ident)
            if not tree:
                store.drop_tree(state, attribute)
        if not state.predicates and not state.trees:
            self.relations.pop(relation, None)

    def unregister(self, store: Any, ident: Hashable) -> Predicate:
        """Un-index and return the predicate registered under *ident*."""
        try:
            relation = self.relation_of.pop(ident)
        except KeyError:
            raise UnknownIntervalError(ident) from None
        state = self.relations[relation]
        state.version += 1
        predicate = state.predicates.pop(ident)
        state.residuals.pop(ident, None)
        attributes = state.indexed_under.pop(ident, None)
        if attributes is None:
            state.non_indexable.discard(ident)
        else:
            for attribute in attributes:
                tree = state.trees[attribute]
                tree.delete(ident)
                if not tree:
                    store.drop_tree(state, attribute)
        if not state.predicates:
            del self.relations[relation]
        return predicate

    # -- adaptive entry-clause migration --------------------------------

    def retune(
        self,
        store: Any,
        feedback: Any,
        migration_ratio: float,
        observer: MatchObserver,
        relation: Optional[str] = None,
    ) -> List[Hashable]:
        """One feedback-driven migration pass; returns migrated idents.

        For every indexed predicate of *relation* (or of every
        relation) with enough observed samples, compare the
        **observed** selectivity of its current entry clause against
        the estimated selectivity of its best indexable clause on a
        *different* attribute; when the alternative's estimate is below
        ``observed * migration_ratio`` the entry clause is migrated.
        After a pass the relation's feedback window is reset so the
        next decision rests on fresh evidence.  No-op under
        multi-clause indexing.
        """
        if self.multi_clause:
            return []
        migrated: List[Hashable] = []
        targets = [relation] if relation is not None else list(self.relations)
        for rel in targets:
            state = self.relations.get(rel)
            if state is None:
                continue
            if feedback.tuples_seen(rel) < feedback.min_samples:
                continue
            for ident in list(state.indexed_under):
                observed = feedback.observed_selectivity(rel, ident)
                if observed is None:
                    continue
                current = state.indexed_under.get(ident)
                if not current:
                    continue
                predicate = state.predicates[ident]
                alternative: Optional[Tuple[float, IntervalClause]] = None
                for score, clause in rank_index_clauses(predicate, self.estimator):
                    if clause.attribute != current[0]:
                        alternative = (score, clause)
                        break
                if alternative is None:
                    continue  # no different-attribute clause to move to
                score, clause = alternative
                if score < observed * migration_ratio:
                    if self.migrate_entry_clause(
                        store, rel, state, ident, clause, observer
                    ):
                        migrated.append(ident)
            feedback.reset(
                rel,
                list(state.indexed_under) + list(state.non_indexable),
            )
        return migrated

    def migrate_entry_clause(
        self,
        store: Any,
        relation: str,
        state: RelationState,
        ident: Hashable,
        clause: IntervalClause,
        observer: MatchObserver,
    ) -> bool:
        """Move *ident*'s entry clause into *clause*'s attribute tree.

        Transactional per predicate: the old entry is re-inserted if
        the new tree's insert fails, and if *that* also fails the
        predicate is parked on the non-indexable list (brute force is
        always sound) before the failure propagates.
        """
        old_attr = state.indexed_under[ident][0]
        new_attr = clause.attribute
        if new_attr == old_attr:
            return False
        state.version += 1
        old_tree = state.trees[old_attr]
        old_interval = next(
            entry.interval
            for entry in state.predicates[ident].indexable_clauses()
            if entry.attribute == old_attr
        )
        new_tree = state.trees.get(new_attr)
        created = new_tree is None
        if created:
            new_tree = store.new_tree(state, new_attr)
        old_tree.delete(ident)
        try:
            new_tree.insert(clause.interval, ident)
        except BaseException:
            try:
                old_tree.insert(old_interval, ident)
            except BaseException:
                # Double fault: neither tree accepted the entry.  Brute
                # force is always sound, so park the predicate on the
                # non-indexable list rather than lose it.
                state.indexed_under.pop(ident, None)
                state.residuals.pop(ident, None)
                state.non_indexable.add(ident)
                if not old_tree:
                    store.drop_tree(state, old_attr)
                raise
            raise
        if created:
            state.trees[new_attr] = new_tree
            state.stab_cache.clear()  # tree map changed shape
        if not old_tree:
            store.drop_tree(state, old_attr)
        state.indexed_under[ident] = (new_attr,)
        # the residual must re-test the old entry clause and skip the
        # new one; the batched pipeline recompiles it lazily
        state.residuals.pop(ident, None)
        observer.on_migration(relation, ident, old_attr, new_attr)
        return True

    # -- rebuild --------------------------------------------------------

    def rebuild_relation(
        self, store: Any, relation: str, state: RelationState
    ) -> None:
        """Rebuild *relation*'s trees and registries from its predicates.

        Entry clauses are grouped by attribute and each fresh tree is
        built with ``bulk_load`` — O(N) endpoint sorting plus a
        balanced build, instead of N incremental inserts.  Predicates
        are already normalized in the registry, so nothing is
        re-normalized here.
        """
        state.version += 1
        for tree in state.trees.values():
            store.retire_tree(state, tree)
        state.trees = {}
        state.non_indexable = set()
        state.indexed_under = {}
        state.residuals = {}
        state.stab_cache.clear()  # dropped trees: epochs jump past the floor
        per_attribute: Dict[str, List[Tuple[Any, Hashable]]] = {}
        for ident, predicate in state.predicates.items():
            self.relation_of[ident] = relation
            entry_clauses = self.entry_clauses_of(predicate)
            if not entry_clauses:
                state.non_indexable.add(ident)
                continue
            for clause in entry_clauses:
                per_attribute.setdefault(clause.attribute, []).append(
                    (clause.interval, ident)
                )
            state.indexed_under[ident] = tuple(
                clause.attribute for clause in entry_clauses
            )
        for attribute, pairs in per_attribute.items():
            state.trees[attribute] = store.build_tree(state, pairs, attribute)

    # -- residual cache -------------------------------------------------

    def ensure_residuals(self, state: RelationState) -> Dict[Hashable, Tuple[Any, ...]]:
        """Compile (and cache) every predicate's residual evaluator."""
        residuals = state.residuals
        predicates = state.predicates
        if len(residuals) != len(predicates):
            indexed_under = state.indexed_under
            for ident, predicate in predicates.items():
                if ident not in residuals:
                    residuals[ident] = compile_residual(
                        predicate, indexed_under.get(ident, ())
                    )
        return residuals

    # -- introspection --------------------------------------------------

    def state(self, relation: str) -> Optional[RelationState]:
        """The per-relation state record, or None."""
        return self.relations.get(relation)

    def get(self, ident: Hashable) -> Predicate:
        """Return the predicate registered under *ident*."""
        try:
            relation = self.relation_of[ident]
        except KeyError:
            raise UnknownIntervalError(ident) from None
        return self.relations[relation].predicates[ident]

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self.relation_of

    def __len__(self) -> int:
        return len(self.relation_of)

    def predicates_for(self, relation: str) -> List[Predicate]:
        """All predicates registered for *relation*."""
        state = self.relations.get(relation)
        if state is None:
            return []
        return list(state.predicates.values())

    def indexed_attributes(self, ident: Hashable) -> Tuple[str, ...]:
        """Every attribute whose tree holds this predicate (may be empty)."""
        relation = self.relation_of.get(ident)
        if relation is None:
            raise UnknownIntervalError(ident)
        return self.relations[relation].indexed_under.get(ident, ())


# ----------------------------------------------------------------------
# compiled residual evaluators (the pipeline's residual stage)
# ----------------------------------------------------------------------
#
# A residual test re-checks a candidate's conjunction against the
# tuple.  ``Predicate.matches`` pays, per clause, a dict lookup, a
# method dispatch, and ``Interval.contains``'s sentinel-aware helper
# chain — and it re-tests the entry clause the index probe already
# proved.  The compiled form drops the proven clauses (the entry
# clause in the paper's scheme; every indexed clause under
# multi-clause indexing) and shape-specializes what remains.  Entries
# are small tagged tuples dispatched inline by the batched pipeline:
#
#   (TRIVIAL, pred)                      nothing left to test
#   (CLOSED,  pred, attr, low, high)     one closed interval, inlined
#   (SINGLE,  pred, attr, check, memo)   one residual attribute
#   (MULTI,   pred, attrs, eval, memo)   several residual attributes
#   (OPAQUE,  pred)                      unknown clause subclass:
#                                        fall back to pred.matches
#
# ``memo`` marks interval-only residuals, whose verdicts depend only
# on ``==``-interchangeable values (the total-order assumption the
# tree itself rests on) and are therefore safe to memoize; function
# clauses are not (a type-sensitive function distinguishes ``2`` from
# ``2.0``, which share a memo key).  Semantics are identical to
# clause.matches(): None never matches, the infinity sentinels never
# match an interval clause, incomparable values fail the clause
# instead of raising, and function-clause exceptions propagate.
#
# Interval tests are compiled in the same *rejection* style as
# ``Interval.contains`` — fail when a bound comparison proves the
# value outside, succeed otherwise — rather than as positive
# containment tests.  The two styles agree on every totally-ordered
# value but diverge on partially-ordered ones: ``nan <= high`` and
# ``nan > high`` are both False, so a positive test rejects NaN while
# the per-tuple oracle (``contains``) accepts it.  The per-tuple path
# is the documented semantics, so the compiled form must mirror its
# branch structure exactly.

TRIVIAL, CLOSED, SINGLE, MULTI, OPAQUE = range(5)


def compile_residual(
    predicate: Predicate, proven_attrs: Tuple[str, ...]
) -> Tuple[Any, ...]:
    """Compile *predicate*'s residual into a tagged dispatch tuple.

    ``proven_attrs`` are the attributes whose interval clauses the
    index probe has already verified (the tuple stabbed them); those
    clauses are skipped.  Function clauses are never proven by a probe
    and are always kept.
    """
    residual: List[Any] = []
    for clause in predicate.clauses:
        if isinstance(clause, IntervalClause):
            if clause.attribute in proven_attrs:
                continue  # proven by the index probe
            residual.append(clause)
        elif isinstance(clause, FunctionClause):
            residual.append(clause)
        else:
            return (OPAQUE, predicate)
    if not residual:
        return (TRIVIAL, predicate)
    if len(residual) == 1:
        clause = residual[0]
        if isinstance(clause, IntervalClause):
            interval = clause.interval
            if (
                interval.low is not MINUS_INF
                and interval.high is not PLUS_INF
                and interval.low_inclusive
                and interval.high_inclusive
            ):
                return (CLOSED, predicate, clause.attribute, interval.low, interval.high)
            return (
                SINGLE,
                predicate,
                clause.attribute,
                _compile_interval_vcheck(interval),
                True,
            )
        return (
            SINGLE,
            predicate,
            clause.attribute,
            _compile_function_vcheck(clause),
            False,
        )
    attrs: List[str] = []
    for clause in residual:
        if clause.attribute not in attrs:
            attrs.append(clause.attribute)
    memo_ok = all(isinstance(clause, IntervalClause) for clause in residual)
    vchecks = [
        _compile_interval_vcheck(clause.interval)
        if isinstance(clause, IntervalClause)
        else _compile_function_vcheck(clause)
        for clause in residual
    ]
    if len(attrs) == 1:

        def combined(
            v: Any, _vchecks: Tuple[Callable[[Any], bool], ...] = tuple(vchecks)
        ) -> bool:
            for vcheck in _vchecks:
                if not vcheck(v):
                    return False
            return True

        return (SINGLE, predicate, attrs[0], combined, memo_ok)
    pairs = tuple(
        (clause.attribute, vcheck) for clause, vcheck in zip(residual, vchecks)
    )
    if len(pairs) == 2:
        (attr_a, check_a), (attr_b, check_b) = pairs

        def evaluate(
            tup_get: Callable[[str], Any],
            _a: str = attr_a,
            _ca: Callable[[Any], bool] = check_a,
            _b: str = attr_b,
            _cb: Callable[[Any], bool] = check_b,
        ) -> bool:
            return _ca(tup_get(_a)) and _cb(tup_get(_b))

    else:

        def evaluate(
            tup_get: Callable[[str], Any],
            _pairs: Tuple[Tuple[str, Callable[[Any], bool]], ...] = pairs,
        ) -> bool:
            for attribute, vcheck in _pairs:
                if not vcheck(tup_get(attribute)):
                    return False
            return True

    return (MULTI, predicate, tuple(attrs), evaluate, memo_ok)


def _compile_interval_vcheck(interval: Any) -> Callable[[Any], bool]:
    # Rejection-style tests mirroring Interval.contains: each branch
    # fails only when a comparison *proves* the value outside a bound,
    # so values incomparable under <
    # (NaN) pass exactly as the per-tuple oracle passes them.
    low, high = interval.low, interval.high
    low_inc, high_inc = interval.low_inclusive, interval.high_inclusive
    test: Optional[Callable[[Any], bool]]
    if low is MINUS_INF and high is PLUS_INF:
        test = None
    elif low is MINUS_INF:
        if high_inc:
            test = lambda v, _h=high: not v > _h  # noqa: E731
        else:
            test = lambda v, _h=high: not v >= _h  # noqa: E731
    elif high is PLUS_INF:
        if low_inc:
            test = lambda v, _l=low: not v < _l  # noqa: E731
        else:
            test = lambda v, _l=low: not v <= _l  # noqa: E731
    elif low_inc and high_inc:
        test = lambda v, _l=low, _h=high: not (v < _l or v > _h)  # noqa: E731
    elif low_inc:
        test = lambda v, _l=low, _h=high: not (v < _l or v >= _h)  # noqa: E731
    elif high_inc:
        test = lambda v, _l=low, _h=high: not (v <= _l or v > _h)  # noqa: E731
    else:
        test = lambda v, _l=low, _h=high: not (v <= _l or v >= _h)  # noqa: E731
    if test is None:

        def check_any(v: Any) -> bool:
            return v is not None and v is not MINUS_INF and v is not PLUS_INF

        return check_any

    def check(v: Any, _test: Callable[[Any], bool] = test) -> bool:
        if v is None or v is MINUS_INF or v is PLUS_INF:
            return False
        try:
            return _test(v)
        except TypeError:
            return False

    return check


# -- vectorized residual specs (the columnar plane's compiler seam) ----
#
# The columnar batch path (repro.match.columnar) evaluates residual
# conjunctions as NumPy mask expressions over per-attribute column
# arrays.  vector_residual_spec is the catalog-side half of that
# compiler: it decides, per predicate, whether the residual conjunction
# is expressible as bound comparisons over exactly-representable
# numeric constants, and emits one (attribute, low, high, low_inc,
# high_inc) row per clause.  Everything else — function clauses,
# non-numeric or float64-inexact bounds, unknown clause subclasses —
# returns None, and the plane falls back to per-candidate
# ``predicate.matches`` for that predicate, the same seam the scalar
# batch path's OPAQUE entries use.

#: Largest magnitude an int may have and still be exactly representable
#: as a float64 (columns are float64; 2**53 is the first integer with a
#: neighbour it cannot distinguish).
MAX_EXACT_FLOAT_INT = 2 ** 53


def _vectorizable_bound(value: Any) -> bool:
    """Whether *value* can be a float64 bound without changing answers."""
    kind = type(value)
    if kind is bool:
        return True
    if kind is int:
        return -MAX_EXACT_FLOAT_INT < value < MAX_EXACT_FLOAT_INT
    if kind is float:
        # NaN and infinities are excluded: NaN bounds defeat the
        # rejection-style comparisons and float infinities would
        # collide with the unbounded-side encoding.
        return value == value and value not in (float("inf"), float("-inf"))
    return False


def vector_residual_spec(
    predicate: Predicate, proven_attrs: Tuple[str, ...]
) -> Optional[List[Tuple[Any, ...]]]:
    """*predicate*'s residual as vectorizable tagged rows, or None.

    Rows are either ``("interval", attribute, low, high, low_inclusive,
    high_inclusive)`` with ``None`` standing for an unbounded side, or
    ``("function", attribute, function, negated)`` for an opaque
    predicate function the columnar plane evaluates column-wise.
    Interval clauses on ``proven_attrs`` are skipped exactly as
    :func:`compile_residual` skips them; function clauses are never
    proven by a probe and always kept.  A ``None`` return means the
    residual cannot be expressed vectorized (an unknown clause
    subclass, or interval bounds outside the exact float64 domain) and
    the caller must fall back to ``predicate.matches`` — never a
    partial spec, so the fallback decision is per predicate, not per
    clause.
    """
    spec: List[Tuple[Any, ...]] = []
    for clause in predicate.clauses:
        if isinstance(clause, IntervalClause):
            if clause.attribute in proven_attrs:
                continue  # proven by the index probe
            interval = clause.interval
            low = None if interval.low is MINUS_INF else interval.low
            high = None if interval.high is PLUS_INF else interval.high
            if low is not None and not _vectorizable_bound(low):
                return None
            if high is not None and not _vectorizable_bound(high):
                return None
            spec.append(
                (
                    "interval",
                    clause.attribute,
                    low,
                    high,
                    interval.low_inclusive,
                    interval.high_inclusive,
                )
            )
        elif isinstance(clause, FunctionClause):
            spec.append(
                ("function", clause.attribute, clause.function, clause.negated)
            )
        else:
            return None  # unknown clause subclass
    return spec


def _compile_function_vcheck(clause: Any) -> Callable[[Any], bool]:
    function = clause.function
    if clause.negated:

        def check_negated(v: Any, _fn: Callable[[Any], Any] = function) -> bool:
            if v is None:
                return False
            return not _fn(v)

        return check_negated

    def check(v: Any, _fn: Callable[[Any], Any] = function) -> bool:
        if v is None:
            return False
        return True if _fn(v) else False

    return check
