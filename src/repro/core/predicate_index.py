"""The paper's two-level predicate index (Figure 1).

Structure::

    inserted or modified tuples enter here
                    |
          hash on relation name
        /                       \\
    [relation R1]            [relation Rn]
      |- list of non-indexable predicates for Ri
      |- one IBS-tree per attribute with >= 1 indexable clause
      |       (each predicate's MOST SELECTIVE indexable clause
      |        is entered into the tree for its attribute)
      '- PREDICATES table: ident -> full predicate

Matching a tuple *t* of relation *R*:

1. hash on the relation name to find R's second-level index;
2. for every attribute of *t* that has an IBS-tree, stab the tree with
   t's value for that attribute, collecting *partial match* candidates;
3. add every non-indexable predicate of R as a candidate;
4. retrieve each candidate from the PREDICATES table and test the full
   conjunction against *t*; the survivors are the complete matches.

Step 4 is sound because a predicate is indexed under exactly one of its
clauses: if that clause does not match, the conjunction cannot match,
so skipping the predicate is safe; if it does match, the residual test
decides.

:class:`PredicateIndex` is a facade over the layered kernel in
:mod:`repro.match`: the :class:`~repro.match.catalog.ClauseCatalog`
(predicate storage and entry-clause decisions), the
:class:`~repro.match.store.TreeStore` (tree lifecycle and cache
policy), and the :class:`~repro.match.pipeline.MatchPipeline` (the one
staged match implementation), observed by a
:class:`~repro.match.observer.StatsObserver` feeding :attr:`stats`.
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
    Union,
)

from ..errors import PredicateError
from ..maintenance import MaintenancePolicy, MaintenanceScheduler
from ..match import health as _health
from ..match.catalog import ClauseCatalog, Decision, RelationState
from ..match.observer import MatchStatistics, StatsObserver
from ..match.pipeline import MatchPipeline
from ..match.store import TreeStore
from ..predicates.predicate import Predicate
from .ibs_tree import IBSTree
from .selectivity import SelectivityEstimator

__all__ = ["PredicateIndex", "MatchStatistics"]

TreeFactory = Callable[[], IBSTree]


class PredicateIndex:
    """Figure 1: hash on relation name + per-attribute IBS-trees.

    Parameters
    ----------
    tree_factory:
        Constructor for the per-attribute interval index, or the name
        of a backend registered in the
        :data:`~repro.match.registry.DEFAULT_REGISTRY` (``"ibs"``,
        ``"avl"``, ``"rb"``, ``"interval-list"``, …).  Defaults to the
        unbalanced :class:`~repro.core.ibs_tree.IBSTree` (as in the
        paper's measurements); pass
        :class:`~repro.core.avl_ibs_tree.AVLIBSTree` for guaranteed
        balance, or any object with the same ``insert/delete/stab``
        interface (see :mod:`repro.baselines`).
    estimator:
        Selectivity estimator used to pick each predicate's entry
        clause; defaults to the System R style constants.
    multi_clause:
        The paper indexes exactly **one** clause per predicate — the
        most selective — and relies on the residual test for the rest.
        With ``multi_clause=True`` every indexable clause enters its
        attribute's tree and a predicate is a candidate only when
        *all* of its indexed clauses match (set intersection): fewer
        residual tests at the price of more tree probes and markers.
        The ABL4 benchmark quantifies the trade-off the paper chose.
    columnar:
        Try the vectorized columnar plane
        (:mod:`repro.match.columnar`) first on every
        :meth:`match_batch` call.  The plane is swept lazily from the
        attribute trees' intervals (``items()``, which every IBS
        backend, disk included, provides), cached on the relation's
        mutation version, and silently skipped when NumPy is not
        installed or the batch leaves the plane's numeric domain; the
        scalar pipeline remains the semantics of record.  Ignored
        under multi-clause indexing.
    maintenance:
        A :class:`~repro.maintenance.MaintenancePolicy` routing every
        periodic mechanism (``retune_interval`` runs :meth:`retune`,
        ``evict_interval`` the disk tier's eviction) through one
        deterministic :class:`~repro.maintenance.MaintenanceScheduler`.
        The scheduler's clock advances once per matched tuple and once
        per predicate write, and never while the index is frozen.  See
        :meth:`maintenance_report`.
    """

    #: Strategy name (matches the PredicateMatcher convention).
    name = "ibs"

    def __init__(
        self,
        tree_factory: Union[str, TreeFactory] = IBSTree,
        estimator: Optional[SelectivityEstimator] = None,
        multi_clause: bool = False,
        columnar: bool = False,
        storage: str = "memory",
        data_dir: Optional[str] = None,
        memory_budget: Optional[int] = None,
        maintenance: Optional[MaintenancePolicy] = None,
    ):
        if isinstance(tree_factory, str):
            # Imported here, not at module top: the registry's builders
            # import this module lazily and vice versa.
            from ..match.registry import DEFAULT_REGISTRY

            tree_factory = DEFAULT_REGISTRY.tree_factory(tree_factory)
        self._tree_factory = tree_factory
        self._catalog = ClauseCatalog(estimator, multi_clause)
        if storage not in ("memory", "disk"):
            raise ValueError(
                f"unknown storage {storage!r}; expected 'memory' or 'disk'"
            )
        self._storage = storage
        self._data_dir = data_dir
        if storage == "disk":
            # Imported lazily: the disk tier is optional machinery most
            # indexes never touch.
            from ..disk.store import DiskTreeStore
            from ..disk.tree import private_directory

            if data_dir is None:
                self._data_dir = private_directory(self)
            self._store: TreeStore = DiskTreeStore(self._data_dir, memory_budget)
        else:
            if memory_budget is not None:
                raise ValueError("memory_budget requires storage='disk'")
            self._store = TreeStore(tree_factory)
        self._observer = StatsObserver(MatchStatistics())
        self._pipeline = MatchPipeline(
            self._catalog, self._observer, columnar=bool(columnar)
        )
        self._frozen = False
        self._maintenance = self._build_maintenance(maintenance)

    def _build_maintenance(
        self, policy: Optional[MaintenancePolicy]
    ) -> Optional[MaintenanceScheduler]:
        """Register this index's periodic mechanisms as scheduler tasks.

        Without a policy no scheduler is built and the hot paths skip
        ticking entirely.
        """
        if policy is None:
            return None
        scheduler = MaintenanceScheduler(
            policy=policy, observer=self._pipeline.observer
        )
        if policy.retune_interval is not None:
            scheduler.register_callback(
                "retune",
                lambda budget, relation: self.retune(relation),
                interval_ops=policy.retune_interval,
                priority=10,
                cost_class="bulk",
            )
        if policy.evict_interval is not None and hasattr(self._store, "maybe_evict"):
            scheduler.register_callback(
                "evict",
                lambda budget, relation: self._store.maybe_evict(),
                interval_ops=policy.evict_interval,
                priority=0,
                cost_class="io",
            )
        return scheduler

    def _tick(self, relation: Optional[str], count: int) -> None:
        """Advance the maintenance clock by *count* ops.

        The one op-count semantics (documented on
        :class:`~repro.maintenance.MaintenanceClock`): matched tuples
        and predicate writes tick, and a frozen index never ticks — so
        no maintenance task can run against frozen state.
        """
        if self._frozen:
            return
        self._maintenance.advance(count, relation=relation)

    @property
    def maintenance_scheduler(self) -> Optional[MaintenanceScheduler]:
        """The index's scheduler, or ``None`` without a policy."""
        return self._maintenance

    def maintenance_report(self) -> Dict[str, Any]:
        """Introspect the maintenance plane.

        Returns the clock position, the per-task table (intervals,
        runs, failures, backoff marks, quarantine flags), the active
        policy, and the dead-letter tail.  An index with no scheduler
        reports ``enabled: False``.
        """
        if self._maintenance is None:
            return {"enabled": False, "clock_ops": 0, "tasks": {}, "failures": []}
        return self._maintenance.report()

    # -- layer access (compat: tests reach into these) ---------------------

    @property
    def _relations(self) -> Dict[str, RelationState]:
        """The catalog's relation-name → state table."""
        return self._catalog.relations

    @property
    def _relation_of(self) -> Dict[Hashable, str]:
        """The catalog's ident → relation routing map."""
        return self._catalog.relation_of

    @property
    def stats(self) -> MatchStatistics:
        """Match-pipeline counters (see :class:`MatchStatistics`)."""
        return self._observer.stats

    @stats.setter
    def stats(self, value: MatchStatistics) -> None:
        self._observer.stats = value

    # -- snapshot support --------------------------------------------------

    def freeze(self) -> None:
        """Make the index permanently immutable.

        Every per-attribute tree is frozen (backends without a
        ``freeze`` method are skipped) and subsequent calls to
        :meth:`add`, :meth:`add_many`, :meth:`remove`, :meth:`retune`
        and :meth:`verify_and_rebuild` raise
        :class:`~repro.errors.PredicateError`.  Matching remains
        available — the epoch-snapshot layer (:mod:`repro.concurrency`)
        publishes frozen indexes that lock-free readers stab
        concurrently.  Freezing turns on the stab cache: a frozen tree
        never changes, so each relation remembers up to
        :data:`~repro.match.store.STAB_CACHE_SIZE` stab answers keyed on
        ``(attribute, value)`` for the index's whole life, in a plain
        ``dict`` used append-only so that every cache operation is a
        single GIL-atomic step
        (:meth:`~repro.match.store.TreeStore.freeze_state`).  This
        is what lets an epoch-snapshot base keep serving cache hits
        across writes, which land in the overlay.  A mutable index
        caches nothing.  Residuals are compiled when a predicate is
        registered, so the read path of a frozen index compiles
        nothing; the only lazily built read-path structures are the
        per-version non-indexable groups and columnar plane, each
        published by one attribute assignment.
        """
        self._frozen = True
        for state in self._catalog.relations.values():
            self._store.freeze_state(state)

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    def _check_mutable(self) -> None:
        if self._frozen:
            raise PredicateError(
                "PredicateIndex is frozen (published in an epoch snapshot); "
                "build a successor index instead of mutating"
            )

    def tree_epochs(self, relation: str) -> Dict[str, int]:
        """Current ``attribute -> tree epoch`` map for *relation*.

        Publication hook for the epoch-snapshot layer and its checker:
        thanks to the per-relation epoch floor the values are monotone
        over the index's whole life, even across tree drop/recreate and
        :meth:`verify_and_rebuild`.  Unknown relations map to ``{}``.
        """
        state = self._catalog.relations.get(relation)
        if state is None:
            return {}
        return self._store.tree_epochs(state)

    # -- disk-tier introspection --------------------------------------------

    @property
    def storage(self) -> str:
        """``"memory"`` or ``"disk"``."""
        return self._storage

    @property
    def data_dir(self) -> Optional[str]:
        """The disk tier's data directory (``None`` on the memory tier).

        Without a caller's ``data_dir`` it is a private temporary
        directory, removed when this index is garbage collected.
        """
        return self._data_dir

    def resident_bytes(self) -> int:
        """Approximate decoded-object bytes the trees hold in RAM.

        On the disk tier this is the evictable residency the store's
        ``memory_budget`` bounds — mmap'd pages are *not* counted, they
        belong to the OS page cache.  On the memory tier it is a
        per-interval/per-node approximation of the full object graph
        (there is nowhere to evict to, so the number is diagnostic).
        """
        counter = getattr(self._store, "resident_bytes", None)
        if counter is not None:
            return int(counter())
        total = 0
        for state in self._catalog.relations.values():
            for tree in state.trees.values():
                total += 200 * len(tree) + 120 * getattr(tree, "node_count", 0)
        return total

    def maybe_evict(self) -> bool:
        """Shed cold decoded trees if the store is over its budget.

        Disk-tier stores run their coldest-first eviction sweep and
        return True; memory-tier stores have nowhere to evict to and
        return False.  Safe on a frozen index (eviction drops caches,
        never structure) — the maintenance plane's ``evict`` task calls
        this on every live shard base.
        """
        sweep = getattr(self._store, "maybe_evict", None)
        if sweep is None:
            return False
        sweep()
        return True

    def seal(self, release: bool = False) -> Dict[str, Dict[str, str]]:
        """Seal every disk-backed tree to its segment file.

        Returns ``{relation: {attribute: segment path}}``.  With
        ``release`` the staging copies are dropped afterwards (they
        rehydrate on demand).  No-op trees (memory tier) are skipped.
        """
        out: Dict[str, Dict[str, str]] = {}
        for relation, state in self._catalog.relations.items():
            sealed: Dict[str, str] = {}
            for attribute, tree in state.trees.items():
                sealer = getattr(tree, "seal", None)
                if sealer is not None:
                    sealed[attribute] = sealer(release=release)
            if sealed:
                out[relation] = sealed
        return out

    def segment_catalog(self) -> Dict[str, Dict[str, Optional[str]]]:
        """``{relation: {attribute: current segment path or None}}``.

        ``None`` marks a dirty tree (staged mutations not yet sealed).
        Empty on the memory tier.
        """
        out: Dict[str, Dict[str, Optional[str]]] = {}
        for relation, state in self._catalog.relations.items():
            row: Dict[str, Optional[str]] = {}
            for attribute, tree in state.trees.items():
                if getattr(tree, "disk_backed", False):
                    row[attribute] = tree.segment_path
            if row:
                out[relation] = row
        return out

    # -- registration -------------------------------------------------------

    def add(self, predicate: Predicate) -> Hashable:
        """Index *predicate*; returns its identifier.

        The predicate is normalized first (same-attribute interval
        clauses merged); a contradictory predicate is rejected since it
        can never match.  Atomic: a failure (e.g. an injected fault in
        a tree insert) leaves no trace of the predicate behind.
        """
        self._check_mutable()
        ident = self._catalog.register(self._store, predicate)
        if self._maintenance is not None:
            self._tick(self._catalog.relation_of.get(ident), 1)
        return ident

    def add_many(self, predicates: Iterable[Predicate]) -> List[Hashable]:
        """Bulk-register *predicates*; returns their identifiers in order.

        Equivalent to ``[self.add(p) for p in predicates]`` but entry
        clauses destined for an attribute with **no existing tree** are
        collected and handed to the backend's :meth:`~IBSTree.bulk_load`
        in one pass — sorted endpoints, balanced structure, no per-insert
        rotations — which is how recovery and rule-set loading should
        register a large predicate population.  Clauses for attributes
        that already have a live tree are inserted incrementally (the
        tree is not rebuilt under its existing entries).

        Atomic: on any failure every predicate this call registered is
        removed again before the exception propagates.
        """
        return self._add_many_decided(predicates, None)

    # -- snapshot successors ------------------------------------------------
    #
    # Seams for the epoch-snapshot shard (repro.concurrency.shard): it
    # builds every successor index from the decisions its predecessor
    # parts already made, so only predicates new to the shard are decided.

    def _add_many_decided(
        self,
        predicates: Iterable[Predicate],
        decided: Optional[Mapping[Hashable, Decision]],
    ) -> List[Hashable]:
        """:meth:`add_many`, filing predicates with *decided*'s decisions
        where :meth:`ClauseCatalog.register_many` accepts them."""
        self._check_mutable()
        idents = self._catalog.register_many(self._store, predicates, decided)
        if self._maintenance is not None and idents:
            self._tick(None, len(idents))
        return idents

    def _derive(
        self,
        source: Optional["PredicateIndex"],
        relation: str,
        add: Optional[Predicate] = None,
        remove: Optional[Hashable] = None,
    ) -> None:
        """Fill this empty index with *source*'s *relation* plus one change.

        See :meth:`ClauseCatalog.derive_relation`: *source*'s entries are
        copied, only *add* is decided, and only the trees of the changed
        entry's attributes are built; the rest are shared with *source*.
        """
        self._check_mutable()
        state = None if source is None else source._catalog.relations.get(relation)
        self._catalog.derive_relation(self._store, state, relation, add, remove)

    def remove(self, ident: Hashable) -> Predicate:
        """Un-index and return the predicate registered under *ident*."""
        self._check_mutable()
        relation = self._catalog.relation_of.get(ident)
        predicate = self._catalog.unregister(self._store, ident)
        if self._maintenance is not None:
            self._tick(relation, 1)
        return predicate

    # -- matching ----------------------------------------------------------

    def match(self, relation: str, tup: Mapping[str, Any]) -> List[Predicate]:
        """All predicates of *relation* that fully match the tuple."""
        matched = self._pipeline.match(relation, tup)
        if self._maintenance is not None:
            self._tick(relation, 1)
        return matched

    def match_idents(self, relation: str, tup: Mapping[str, Any]) -> Set[Hashable]:
        """Identifiers of all fully matching predicates."""
        matched = {pred.ident for pred in self._pipeline.match(relation, tup)}
        if self._maintenance is not None:
            self._tick(relation, 1)
        return matched

    def match_batch(
        self, relation: str, tuples: Iterable[Mapping[str, Any]]
    ) -> List[List[Predicate]]:
        """Match a batch of tuples; returns one result list per tuple.

        Semantically identical to ``[self.match(relation, t) for t in
        tuples]`` (the differential tests assert exactly that), but the
        stab stage is restructured around the batch — one grouped
        descent per attribute tree — before the residual stage both
        paths share; see :meth:`MatchPipeline.match_batch`.  Tuples
        with an unhashable value in an indexed attribute fall back to
        the per-tuple path transparently.
        """
        tuple_list = list(tuples)
        results = self._pipeline.match_batch(relation, tuple_list)
        if self._maintenance is not None and tuple_list:
            self._tick(relation, len(tuple_list))
        return results

    # -- re-choosing entry clauses -----------------------------------------

    def retune(self, relation: Optional[str] = None) -> List[Hashable]:
        """Re-choose entry clauses from the estimator; returns the idents that moved.

        The paper picks each predicate's entry clause once, from the
        optimizer's estimates; rules created before their data are
        filed by the System R constants.  This asks the index's own
        estimator again for every predicate of *relation* (or of every
        relation) that has a choice to make.  When nothing moves, no
        tree is touched.  Otherwise the trees of the movers' old and new
        attributes are bulk-loaded to one side and swapped in, so a
        failure while building leaves the index as it was.  Under
        multi-clause indexing every indexable clause is already
        entered, so nothing ever moves.
        """
        self._check_mutable()
        return self._catalog.retune(self._store, relation)

    # -- introspection ---------------------------------------------------------

    def get(self, ident: Hashable) -> Predicate:
        """Return the predicate registered under *ident*."""
        return self._catalog.get(ident)

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self._catalog

    def __len__(self) -> int:
        """Total number of indexed predicates across all relations."""
        return len(self._catalog)

    def predicates_for(self, relation: str) -> List[Predicate]:
        """All predicates registered for *relation*."""
        return self._catalog.predicates_for(relation)

    def relations(self) -> List[str]:
        """Relations with at least one registered predicate."""
        return list(self._catalog.relations)

    def indexed_attribute(self, ident: Hashable) -> Optional[str]:
        """The (first) attribute whose tree holds this predicate, or None."""
        attributes = self.indexed_attributes(ident)
        return attributes[0] if attributes else None

    def indexed_attributes(self, ident: Hashable) -> Tuple[str, ...]:
        """Every attribute whose tree holds this predicate (may be empty)."""
        return self._catalog.indexed_attributes(ident)

    def tree_for(self, relation: str, attribute: str) -> Optional[IBSTree]:
        """The IBS-tree for ``relation.attribute``, if one exists."""
        state = self._catalog.relations.get(relation)
        if state is None:
            return None
        return state.trees.get(attribute)

    def describe(self) -> Dict[str, Dict[str, Any]]:
        """Structural summary per relation (for reports and debugging)."""
        summary: Dict[str, Dict[str, Any]] = {}
        for relation, state in self._catalog.relations.items():
            summary[relation] = {
                "predicates": len(state.predicates),
                "non_indexable": len(state.non_indexable),
                "trees": {
                    attr: len(tree) for attr, tree in state.trees.items()
                },
            }
        return summary

    # -- self-healing ----------------------------------------------------------

    def check_invariants(self) -> bool:
        """Validate the whole index; raise on any violation.

        Checks the cross-registry bookkeeping (predicates table,
        ``indexed_under``, ``non_indexable``, ``_relation_of``), runs
        every per-attribute tree's own invariant validator, and
        differentially probes each tree against a freshly built
        reference (see :meth:`audit`).  Returns True when healthy,
        raises :class:`~repro.errors.TreeInvariantError` otherwise.
        """
        return _health.check_invariants(self._catalog, self._tree_factory)

    def audit(self) -> List[str]:
        """Non-raising health check: a list of problem descriptions.

        An empty list means the index is healthy.  Beyond the
        registry-consistency checks and each tree's internal
        validator, every tree is *differentially* probed: a reference
        tree is rebuilt from the same intervals and both are stabbed
        at every finite clause endpoint.  This catches completeness
        corruption — markers silently lost by an interrupted
        structural delete — that is invisible to the internal
        validator, which only proves the markers still present sound.
        """
        return _health.audit(self._catalog, self._tree_factory)

    def verify_and_rebuild(self) -> Dict[str, Any]:
        """Detect index corruption and repair it in place.

        Audits every relation; for each one reporting problems,
        rebuilds its per-attribute trees and registries from the
        PREDICATES table — the durable source of truth — preserving
        identifiers, then re-audits (including the differential probe
        check) to prove the repair took.  Every entry clause is chosen
        again by the estimator, since the damaged registries cannot be
        trusted.  The new trees are built to one side and swapped in,
        so a failure while building leaves the relation as it was.
        Orphaned ``_relation_of`` entries with no backing predicate are
        pruned.

        Returns a report ``{"healthy": bool, "problems": [...],
        "rebuilt": [relation, ...]}`` where ``healthy`` reflects the
        state *before* repair.  Raises
        :class:`~repro.errors.TreeInvariantError` only if a rebuilt
        relation still fails its audit (the predicates table itself is
        damaged beyond repair).
        """
        self._check_mutable()
        return _health.verify_and_rebuild(
            self._catalog, self._store, self._tree_factory
        )

    def _rebuild_relation(self, relation: str, state: RelationState) -> None:
        """Rebuild *relation*'s trees and registries from its predicates."""
        self._catalog.rebuild_relation(self._store, relation, state)

    def __repr__(self) -> str:
        return (
            f"<PredicateIndex {len(self)} predicates over "
            f"{len(self._catalog.relations)} relations>"
        )
