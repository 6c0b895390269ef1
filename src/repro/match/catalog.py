"""The PREDICATES table layer: storage, normalization, entry clauses.

:class:`ClauseCatalog` owns everything the paper's Figure 1 files under
"the PREDICATES table" plus the registration-time decisions around it:

* per-relation predicate storage (:class:`RelationState`), the
  non-indexable list, and the ``ident -> entry attribute(s)`` map;
* predicate **normalization** (same-attribute interval clauses merged,
  contradictions rejected);
* **entry-clause selection** — the paper's "most selective clause"
  choice via a pluggable selectivity estimator, or every indexable
  clause under multi-clause indexing — made again from the estimator's
  current answers by :meth:`ClauseCatalog.redecide`, the one decide
  step behind ``retune()`` on both facades;
* the **compiled residuals**: each predicate's residual test compiled
  into a tagged dispatch tuple (see :func:`compile_residual`) by every
  path that enters the predicate, and run by both match paths;
* **carried decisions** for the epoch-snapshot layer: a fold files
  predicates with the entry attributes and residuals an earlier index
  decided (:meth:`ClauseCatalog.register_many`), and an overlay write
  derives its successor from its predecessor
  (:meth:`ClauseCatalog.derive_relation`).

The catalog never descends a tree itself: tree storage and lifecycle
belong to :class:`~repro.match.store.TreeStore`, which registration
methods receive as an explicit collaborator, and stabbing belongs to
:class:`~repro.match.pipeline.MatchPipeline`.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..core.intervals import MINUS_INF, PLUS_INF
from ..core.selectivity import (
    DefaultEstimator,
    SelectivityEstimator,
    choose_index_clause,
)
from ..errors import PredicateError, UnknownIntervalError
from ..predicates.clauses import FunctionClause, IntervalClause
from ..predicates.predicate import Predicate

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
        "non_indexable_shapes",
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
        #: ident -> compiled residual entry (see :func:`compile_residual`),
        #: written by every registration path and only read by matching,
        #: so it always holds exactly the live predicates
        self.residuals: Dict[Hashable, Tuple[Any, ...]] = {}
        #: ``(version, shapes)`` — the non-indexable list as the match
        #: pipeline tests it, one compiled check per distinct clause
        #: tuple with its member predicates, cached on ``version`` like
        #: ``columnar_plane`` below; ``None`` until built
        self.non_indexable_shapes: Optional[Tuple[int, Tuple[List[Any], ...]]] = None
        #: stab cache, ``(attribute, value) -> frozenset(idents)``:
        #: ``None`` on a mutable index, which caches nothing; freezing
        #: turns it on as an append-only ``dict`` (see
        #: :meth:`~repro.match.store.TreeStore.freeze_state`)
        self.stab_cache: Optional[Dict[Tuple[str, Any], frozenset]] = None
        #: lowest epoch any *future* tree of this relation may carry.
        #: Raised past a tree's last epoch whenever that tree is dropped
        #: (remove/rollback/retune/rebuild), and seeded into every
        #: fresh tree, so ``(attribute, tree_epoch)`` pairs are never
        #: reused across tree generations — epoch-snapshot readers and
        #: the disk tier's segment currency can rely on monotonicity.
        self.epoch_floor: int = 0
        #: monotone mutation counter, bumped by every catalog operation
        #: that changes what this relation matches (register, remove,
        #: retune, rebuild, rollback).  Derived read-path structures —
        #: the non-indexable shapes above and the columnar plane below —
        #: key their caches on it, so a mutation invalidates them by
        #: version mismatch instead of an explicit notification.
        self.version: int = 0
        #: ``(version, plane_or_None)`` — the relation's cached columnar
        #: batch plane (see :mod:`repro.match.columnar`), or ``None``
        #: when never built.  ``plane_or_None`` is ``None`` when the
        #: relation's shape cannot be vectorized.  A frozen relation's
        #: version never changes, so the plane is built at most once per
        #: snapshot and shared by lock-free readers (single attribute
        #: assignment; concurrent builders compute equal planes).
        self.columnar_plane: Optional[Tuple[int, Any]] = None


#: A predicate's registration decisions: the attributes whose trees
#: hold its entry clause(s), and its compiled residual entry.
Decision = Tuple[Tuple[str, ...], Tuple[Any, ...]]


def _file_entry(
    state: RelationState,
    ident: Hashable,
    predicate: Predicate,
    under: Tuple[str, ...],
    residual: Optional[Tuple[Any, ...]] = None,
) -> None:
    """Record *ident*'s entry attributes and its compiled residual entry.

    *under* names the attributes whose trees hold the predicate's entry
    clause(s); empty files it on the non-indexable list.  *residual* is
    a residual already compiled for exactly this *under*, carried from
    an earlier filing; without one it is compiled here.  Every path
    that enters a predicate ends here — registration, bulk
    registration, disk cold start, rebuild, retune and the snapshot
    layer's overlay writes — so ``state.residuals`` always holds
    exactly the live predicates and no match path ever compiles.
    """
    if under:
        state.indexed_under[ident] = under
    else:
        state.non_indexable.add(ident)
    if residual is None:
        residual = compile_residual(predicate, under)
    state.residuals[ident] = residual


def _interval_on(predicate: Predicate, attribute: str) -> Any:
    """*predicate*'s entry interval on *attribute* (one per attribute
    once normalized)."""
    return next(
        clause.interval
        for clause in predicate.indexable_clauses()
        if clause.attribute == attribute
    )


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
        self,
        store: Any,
        predicates: Iterable[Predicate],
        decided: Optional[Mapping[Hashable, Decision]] = None,
    ) -> List[Hashable]:
        """Bulk-register *predicates*; returns their identifiers in order.

        Entry clauses destined for an attribute with **no existing
        tree** are collected and handed to the backend's ``bulk_load``
        in one pass; clauses for attributes that already have a live
        tree are inserted incrementally.  Atomic: on any failure every
        predicate this call registered is removed again before the
        exception propagates.

        *decided* maps idents to decisions an earlier filing made
        (``(under, residual)``, see :meth:`decisions`).  A predicate is
        filed with its carried decision, skipping entry-clause selection
        and residual compilation, only when that residual was compiled
        for this very predicate object: a decision never passes to
        another predicate that reuses the ident.
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
                    decision = decided.get(ident) if decided else None
                    residual: Optional[Tuple[Any, ...]] = None
                    if decision is not None and decision[1][1] is normalized:
                        under, residual = decision
                        entry_clauses = [
                            clause
                            for clause in normalized.indexable_clauses()
                            if clause.attribute in under
                        ]
                    else:
                        entry_clauses = self.entry_clauses_of(normalized)
                        under = tuple(clause.attribute for clause in entry_clauses)
                    _file_entry(state, ident, normalized, under, residual)
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
                state.version += 1
        except BaseException:
            for relation, ident in added:
                state_or_none = self.relations.get(relation)
                if state_or_none is None:
                    continue
                state_or_none.predicates.pop(ident, None)
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
        _file_entry(state, ident, normalized, tuple(under))
        state.version += 1
        return ident

    def enter_clauses(
        self, store: Any, state: RelationState, ident: Hashable, normalized: Predicate
    ) -> None:
        """Enter *normalized*'s clause(s) into the per-attribute trees."""
        entry_clauses = self.entry_clauses_of(normalized)
        for clause in entry_clauses:
            tree = state.trees.get(clause.attribute)
            if tree is None:
                tree = state.trees[clause.attribute] = store.new_tree(
                    state, clause.attribute
                )
            tree.insert(clause.interval, ident)
        _file_entry(
            state, ident, normalized, tuple(c.attribute for c in entry_clauses)
        )

    def rollback_add(
        self, store: Any, relation: str, state: RelationState, ident: Hashable
    ) -> None:
        """Undo a partially-applied :meth:`register` for *ident*."""
        state.version += 1
        state.non_indexable.discard(ident)
        state.indexed_under.pop(ident, None)
        state.residuals.pop(ident, None)
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

    # -- snapshot successors --------------------------------------------

    def decisions(
        self, relation: str, idents: Iterable[Hashable]
    ) -> Dict[Hashable, Decision]:
        """``ident -> (under, residual)`` as filed, for *idents* of *relation*."""
        state = self.relations.get(relation)
        if state is None:
            return {}
        under_of = state.indexed_under
        residuals = state.residuals
        return {ident: (under_of.get(ident, ()), residuals[ident]) for ident in idents}

    def derive_relation(
        self,
        store: Any,
        source: Optional[RelationState],
        relation: str,
        add: Optional[Predicate] = None,
        remove: Optional[Hashable] = None,
    ) -> None:
        """File *relation* as *source*'s entries plus one add or remove.

        The snapshot layer's overlay write.  *source* is the predecessor
        overlay's record (``None`` when it was empty) and this catalog
        must not hold *relation* yet.  The source's maps are copied as
        they stand; only *add* (a normalized predicate) is decided and
        compiled.  Only the trees of the changed entry's attributes are
        bulk-loaded again, and every other tree object is shared with
        *source* — frozen there, so an accidental mutation raises.
        """
        state = self._state_for(relation)
        if source is not None:
            state.predicates = dict(source.predicates)
            state.residuals = dict(source.residuals)
            state.indexed_under = dict(source.indexed_under)
            state.non_indexable = set(source.non_indexable)
            state.trees = dict(source.trees)
            state.epoch_floor = source.epoch_floor
        if add is not None:
            ident = add.ident
            if ident in state.predicates:
                raise PredicateError(f"predicate ident {ident!r} already indexed")
            changed = tuple(clause.attribute for clause in self.entry_clauses_of(add))
            state.predicates[ident] = add
            _file_entry(state, ident, add, changed)
        else:
            if remove not in state.predicates:
                raise UnknownIntervalError(remove)
            del state.predicates[remove]
            del state.residuals[remove]
            changed = state.indexed_under.pop(remove, ())
            state.non_indexable.discard(remove)
        for attribute in changed:
            old = state.trees.pop(attribute, None)
            if old is not None:
                store.retire_tree(state, old)
            pairs = [
                (_interval_on(state.predicates[ident], attribute), ident)
                for ident, under in state.indexed_under.items()
                if attribute in under
            ]
            if pairs:
                state.trees[attribute] = store.build_tree(state, pairs, attribute)
        self.relation_of.update(dict.fromkeys(state.predicates, relation))
        state.version += 1
        if not state.predicates:
            del self.relations[relation]

    # -- re-choosing entry clauses -------------------------------------

    def redecide(
        self, relation: str, idents: Optional[Iterable[Hashable]] = None
    ) -> Dict[Hashable, Decision]:
        """Ask the estimator again; the new decisions of the predicates that move.

        Every predicate of *relation* (or only *idents*) with more than
        one clause is decided afresh by :meth:`entry_clauses_of`; a
        one-clause predicate has nothing to choose between.  Returns
        ``ident -> (under, residual)`` for each predicate whose entry
        attribute(s) differ from the ones it is filed with, its residual
        compiled for the new attributes.  Nothing is filed here: the
        scalar index swaps the movers in with :meth:`retune`, and the
        snapshot shard folds them in beside its carried decisions.
        """
        state = self.relations.get(relation)
        if state is None:
            return {}
        predicates = state.predicates
        filed = state.indexed_under
        moved: Dict[Hashable, Decision] = {}
        for ident in predicates if idents is None else idents:
            predicate = predicates[ident]
            if len(predicate.clauses) < 2:
                continue
            under = tuple(c.attribute for c in self.entry_clauses_of(predicate))
            if under != filed.get(ident, ()):
                moved[ident] = (under, compile_residual(predicate, under))
        return moved

    def retune(self, store: Any, relation: Optional[str] = None) -> List[Hashable]:
        """Re-choose entry clauses from the estimator; returns the idents that moved.

        :meth:`redecide` runs for *relation* (or every relation).  Where
        nothing moves no tree is touched; otherwise only the trees of
        the movers' old and new attributes are rebuilt, to one side,
        and swapped in by :meth:`refile`.
        """
        moved_all: List[Hashable] = []
        targets = [relation] if relation is not None else list(self.relations)
        for rel in targets:
            moved = self.redecide(rel)
            if not moved:
                continue
            state = self.relations[rel]
            filing = self.decisions(rel, state.predicates)
            attributes: Set[str] = set()
            for ident, decision in moved.items():
                attributes.update(filing[ident][0], decision[0])
            filing.update(moved)
            self.refile(store, state, filing, attributes)
            moved_all.extend(moved)
        return moved_all

    # -- rebuild --------------------------------------------------------

    def rebuild_relation(
        self, store: Any, relation: str, state: RelationState
    ) -> None:
        """Rebuild *relation*'s trees and registries from its predicates.

        The repair path: the registries may be damaged, so every
        predicate is decided afresh and every tree is rebuilt by
        :meth:`refile`, which leaves the relation as it was if a build
        fails.  Predicates are already normalized in the registry, so
        nothing is re-normalized here.
        """
        filing: Dict[Hashable, Decision] = {}
        attributes = set(state.trees)
        for ident, predicate in state.predicates.items():
            under = tuple(c.attribute for c in self.entry_clauses_of(predicate))
            filing[ident] = (under, compile_residual(predicate, under))
            attributes.update(under)
        self.refile(store, state, filing, attributes)
        self.relation_of.update(dict.fromkeys(state.predicates, relation))

    def refile(
        self,
        store: Any,
        state: RelationState,
        filing: Mapping[Hashable, Decision],
        attributes: Iterable[str],
    ) -> None:
        """File every predicate of *state* by *filing*; rebuild *attributes*' trees.

        *filing* holds one ``(under, residual)`` per predicate.  The
        trees of *attributes* are bulk-loaded to one side first, so a
        failure while building leaves the relation exactly as it was;
        only then are the registries replaced and the new trees swapped
        in.  Trees of other attributes are kept as they are.
        """
        per_attribute: Dict[str, List[Tuple[Any, Hashable]]] = {
            attribute: [] for attribute in attributes
        }
        for ident, (under, _) in filing.items():
            for attribute in under:
                pairs = per_attribute.get(attribute)
                if pairs is not None:
                    pairs.append((_interval_on(state.predicates[ident], attribute), ident))
        for attribute in per_attribute:
            old = state.trees.get(attribute)
            if old is not None:
                # raise the floor first: no new tree reuses an old epoch
                store.retire_tree(state, old)
        built = {
            attribute: store.build_tree(state, pairs, attribute)
            for attribute, pairs in per_attribute.items()
            if pairs
        }
        # nothing below raises: swap the filing and the trees in
        trees = {a: t for a, t in state.trees.items() if a not in per_attribute}
        trees.update(built)
        state.trees = trees
        state.indexed_under = {}
        state.non_indexable = set()
        state.residuals = {}
        for ident, (under, residual) in filing.items():
            _file_entry(state, ident, state.predicates[ident], under, residual)
        state.version += 1

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
# are small tagged tuples, compiled when a predicate is registered and
# dispatched inline by the pipeline's one residual stage, which both
# match paths run:
#
#   (TRIVIAL, pred)                      nothing left to test
#   (CLOSED,  pred, attr, low, high)     one closed interval, inlined
#   (SINGLE,  pred, attr, check)         one residual clause
#   (MULTI,   pred, ((attr, check), ...))  several residual clauses,
#                                        tested in clause order
#   (OPAQUE,  pred)                      unknown clause subclass:
#                                        fall back to pred.matches
#
# Semantics are identical to clause.matches(): None never matches, the
# infinity sentinels never match an interval clause, incomparable
# values fail the clause instead of raising, and function-clause
# exceptions propagate.
#
# Interval tests are compiled in the same *rejection* style as
# ``Interval.contains`` — fail when a bound comparison proves the
# value outside, succeed otherwise — rather than as positive
# containment tests.  The two styles agree on every totally-ordered
# value but diverge on partially-ordered ones: ``nan <= high`` and
# ``nan > high`` are both False, so a positive test rejects NaN while
# ``Interval.contains`` accepts it.  ``Predicate.matches`` is the
# documented semantics, so the compiled form must mirror its branch
# structure exactly.

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
            return (SINGLE, predicate, clause.attribute, _compile_interval_vcheck(interval))
        return (SINGLE, predicate, clause.attribute, _compile_function_vcheck(clause))
    pairs = tuple(
        (
            clause.attribute,
            _compile_interval_vcheck(clause.interval)
            if isinstance(clause, IntervalClause)
            else _compile_function_vcheck(clause),
        )
        for clause in residual
    )
    return (MULTI, predicate, pairs)


def _compile_interval_vcheck(interval: Any) -> Callable[[Any], bool]:
    # Rejection-style tests mirroring Interval.contains: each branch
    # fails only when a comparison *proves* the value outside a bound,
    # so values incomparable under <
    # (NaN) pass exactly as ``Interval.contains`` passes them.
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
# residual stage's OPAQUE entries use.

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
