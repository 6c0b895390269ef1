"""`ConcurrentPredicateIndex` — thread-safe sharded matching front-end.

Satisfies the :class:`~repro.baselines.base.PredicateMatcher` contract
(so the rule engine can select it as the ``"ibs-concurrent"`` strategy)
while allowing matching to proceed concurrently with predicate
registration, removal, compaction, and rebuilds:

* one :class:`~repro.concurrency.shard.RelationShard` per relation —
  writers to different relations never contend;
* reads are lock-free: a match loads the shard's current
  :class:`~repro.concurrency.shard.EpochSnapshot` once and works on
  that immutable state;
* :meth:`match_batch` matches the whole batch inline against one
  snapshot, so a batch never straddles a concurrent write.

Lock ordering (documented in ``docs/concurrency_model.md``): the
facade's catalog lock protects only the shard table and the ident →
relation routing map, and is never held while a shard's write lock is
taken with user code on the stack below it; shard locks are leaf locks.
Publication hooks registered via :meth:`on_publish` run under the
publishing shard's write lock and must not call back into the write
API.

On parallelism: the facade owns no threads or processes.  Callers'
own threads read concurrently; under CPython's GIL they do not
multiply CPU throughput.  The measured advantage of this layer on a
mixed read/write workload (see the CONCURRENCY benchmark) comes from
*snapshot isolation*: writes land in a small overlay instead of
mutating the big per-attribute trees, so the frozen base's decode and
residual caches stay warm where the serial index invalidates them on
every mutation.  Fanning a batch over worker threads or processes was
measured slower than this inline path (EXPERIMENTS.md PROC).
"""

from __future__ import annotations

import threading
from typing import (
    Any,
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

from ..baselines.base import PredicateMatcher
from ..core.ibs_tree import IBSTree
from ..core.predicate_index import PredicateIndex, TreeFactory
from ..core.selectivity import SelectivityEstimator
from ..errors import ConcurrencyError, PredicateError, UnknownIntervalError
from ..maintenance import MaintenancePolicy, MaintenanceScheduler
from ..match.observer import MatchStatistics, StatsObserver
from ..predicates.predicate import Predicate
from .shard import (
    DEFAULT_COMPACTION_THRESHOLD,
    EpochSnapshot,
    PublishHook,
    RelationShard,
)

__all__ = ["ConcurrentPredicateIndex"]


class ConcurrentPredicateIndex(PredicateMatcher):
    """Sharded, epoch-snapshot concurrent predicate matcher.

    Parameters
    ----------
    tree_factory / estimator / multi_clause:
        Forwarded to every internal :class:`PredicateIndex` (base and
        overlay of each shard).  ``tree_factory`` also accepts the name
        of a backend registered in the
        :data:`~repro.match.registry.DEFAULT_REGISTRY` (``"ibs"``,
        ``"avl"``, …).  The internal indexes are always built
        with ``adaptive=False`` — feedback counters mutate state on the
        read path and are unsafe under lock-free readers (see
        ``docs/concurrency_model.md``).
    snapshot_cache_size:
        Stab-cache capacity for each shard's base/overlay index.
        Freezing demotes the cache to an append-only discipline (plain
        GIL-atomic dict reads/writes, no LRU reordering, no eviction),
        so it is safe under lock-free readers — and because a frozen
        tree's epoch never moves, cached stabs stay valid for the whole
        life of the snapshot.  This is the snapshot design's main
        single-CPU win over a mutable index, whose every write bumps a
        tree epoch and strands the entire cache.  ``0`` disables it.
    compaction_threshold:
        Overlay/tombstone size at which a shard folds its overlay into
        a fresh bulk-loaded base.
    columnar:
        Forwarded to every internal index: batch reads try the
        vectorized columnar plane (:mod:`repro.match.columnar`) first.
        A natural fit for this facade — snapshot bases are frozen, so
        their mutation version never moves and the plane is built once
        per compaction.  Safe under lock-free readers: the plane cache
        is a single GIL-atomic attribute publish of an immutable
        object.  Silently inert when NumPy is not installed.
    storage / data_dir / memory_budget:
        ``storage="disk"`` selects the disk tier
        (:mod:`repro.disk`): every compacted shard base is sealed to
        segment files under ``data_dir`` and its decoded residency is
        capped by ``memory_budget``.  Overlays stay in RAM on both
        tiers, so a write between compactions touches no file.
    maintenance:
        A :class:`~repro.maintenance.MaintenancePolicy` driving this
        facade's background work off the unified maintenance clock:
        ``compact_interval`` compacts shards proactively (folding
        overlays *before* the synchronous size threshold forces a
        write-side fold), ``evict_interval`` sweeps disk-tier
        residency, and a :class:`~repro.disk.checkpoint.DiskCheckpointer`
        attached to this facade registers its budgeted checkpoint task
        here.  The policy's ``compaction_threshold`` also becomes the
        shards' synchronous backstop threshold unless the
        ``compaction_threshold`` argument overrides it explicitly.  See
        :meth:`maintenance_report`.
    """

    name = "ibs-concurrent"

    def __init__(
        self,
        tree_factory: Union[str, TreeFactory] = IBSTree,
        estimator: Optional[SelectivityEstimator] = None,
        multi_clause: bool = False,
        compaction_threshold: int = DEFAULT_COMPACTION_THRESHOLD,
        snapshot_cache_size: int = 4_096,
        columnar: bool = False,
        storage: str = "memory",
        data_dir: Optional[str] = None,
        memory_budget: Optional[int] = None,
        maintenance: Optional[MaintenancePolicy] = None,
    ):
        if isinstance(tree_factory, str):
            from ..match.registry import DEFAULT_REGISTRY

            tree_factory = DEFAULT_REGISTRY.tree_factory(tree_factory)
        if storage not in ("memory", "disk"):
            raise ConcurrencyError(
                f"unknown storage {storage!r}: expected 'memory' or 'disk'"
            )
        if storage == "disk" and data_dir is None:
            import tempfile

            data_dir = tempfile.mkdtemp(prefix="repro-disk-")
        self._storage = storage
        self._data_dir = data_dir
        self._memory_budget = memory_budget
        self._tree_factory = tree_factory
        self._estimator = estimator
        self._multi_clause = bool(multi_clause)
        self._snapshot_cache_size = max(0, int(snapshot_cache_size))
        self._columnar = bool(columnar)
        if (
            maintenance is not None
            and compaction_threshold == DEFAULT_COMPACTION_THRESHOLD
        ):
            # the policy owns the synchronous backstop threshold unless
            # the caller pinned one explicitly
            compaction_threshold = maintenance.compaction_threshold
        self._compaction_threshold = int(compaction_threshold)
        #: catalog lock: shard-table and routing-map writes only.
        self._catalog_lock = threading.Lock()
        self._shards: Dict[str, RelationShard] = {}
        #: ident -> relation routing.  Entries are *claimed* under the
        #: catalog lock before the shard add (so the same ident can
        #: never be registered under two relations) and removed with a
        #: GIL-atomic ``pop``.
        self._relation_of: Dict[Hashable, str] = {}
        #: shared by every shard; appended to by :meth:`on_publish`.
        self._publish_hooks: List[PublishHook] = []
        self._maint_observer = StatsObserver(MatchStatistics())
        self._maintenance = self._build_maintenance(maintenance)

    def _build_maintenance(
        self, policy: Optional[MaintenancePolicy]
    ) -> Optional[MaintenanceScheduler]:
        """Register the facade's background work as scheduler tasks.

        ``compact`` (closing ROADMAP item 4's follow-on: background
        compaction off one clock) registers here; the disk tier's
        ``checkpoint`` task is registered by the
        :class:`~repro.disk.checkpoint.DiskCheckpointer` that attaches
        to this facade, and ``evict`` sweeps each shard's disk store.
        The shards' synchronous size-threshold fold stays as the
        structural backstop — a write burst can always outrun any
        periodic schedule — but its threshold is sourced from the same
        policy, so there is one place to tune both.
        """
        if policy is None:
            return None
        scheduler = MaintenanceScheduler(
            policy=policy, observer=self._maint_observer
        )
        if policy.compact_interval is not None:
            scheduler.register_callback(
                "compact",
                lambda budget, relation: self.compact(relation),
                interval_ops=policy.compact_interval,
                priority=5,
                cost_class="bulk",
            )
        if policy.evict_interval is not None and self._storage == "disk":
            scheduler.register_callback(
                "evict",
                lambda budget, relation: self._evict_pass(),
                interval_ops=policy.evict_interval,
                priority=0,
                cost_class="io",
            )
        return scheduler

    def _evict_pass(self) -> int:
        """Ask every live shard base to shed cold decoded trees.

        Overlays live in RAM with nothing on disk to fall back to, so
        only bases are swept.
        """
        evicted = 0
        for _relation, shard in self._shard_items():
            if shard.snapshot.base.maybe_evict():
                evicted += 1
        return evicted

    def _tick(self, relation: Optional[str], count: int) -> None:
        """Advance the maintenance clock (one op per matched tuple or
        predicate write — the unified semantics documented on
        :class:`~repro.maintenance.MaintenanceClock`)."""
        self._maintenance.advance(count, relation=relation)

    @property
    def maintenance_scheduler(self) -> Optional[MaintenanceScheduler]:
        """The facade's scheduler, or ``None`` without a policy."""
        return self._maintenance

    @property
    def maintenance_stats(self) -> MatchStatistics:
        """Counters fed by the scheduler's ``on_maintenance`` hook."""
        return self._maint_observer.stats

    def maintenance_report(self) -> Dict[str, Any]:
        """Introspect the maintenance plane."""
        if self._maintenance is None:
            return {"enabled": False, "clock_ops": 0, "tasks": {}, "failures": []}
        return self._maintenance.report()

    # -- shard management ----------------------------------------------

    def _index_factory(self) -> PredicateIndex:
        """A fresh shard base; on the disk tier its trees seal to segments."""
        return self._new_index(sealed=self._storage == "disk")

    def _overlay_factory(self) -> PredicateIndex:
        """A fresh shard overlay, which always lives in RAM.

        The overlay is rebuilt on every write, so sealing it would cost
        one fsynced segment file per attribute per rule change.  It
        holds at most ``compaction_threshold`` predicates, and on the
        disk tier each of them is durable in the checkpointer's
        journal.  Only compacted bases are sealed.
        """
        return self._new_index(sealed=False)

    def _new_index(self, sealed: bool) -> PredicateIndex:
        return PredicateIndex(
            tree_factory=self._tree_factory,
            estimator=self._estimator,
            multi_clause=self._multi_clause,
            stab_cache_size=self._snapshot_cache_size,
            adaptive=False,
            columnar=self._columnar,
            storage="disk" if sealed else "memory",
            data_dir=self._data_dir if sealed else None,
            memory_budget=self._memory_budget if sealed else None,
        )

    def shard(self, relation: str) -> RelationShard:
        """The shard for *relation*, creating it on first use."""
        shard = self._shards.get(relation)
        if shard is not None:
            return shard
        with self._catalog_lock:
            shard = self._shards.get(relation)
            if shard is None:
                shard = self._new_shard(relation)
                self._shards[relation] = shard
            return shard

    def _new_shard(
        self,
        relation: str,
        initial_base: Optional[PredicateIndex] = None,
        initial_epoch: int = 0,
    ) -> RelationShard:
        """A shard wired to this facade's factories, threshold and hooks."""
        return RelationShard(
            relation,
            self._index_factory,
            compaction_threshold=self._compaction_threshold,
            publish_hooks=self._publish_hooks,
            initial_base=initial_base,
            initial_epoch=initial_epoch,
            overlay_factory=self._overlay_factory,
        )

    @property
    def storage(self) -> str:
        """``"memory"`` or ``"disk"``."""
        return self._storage

    @property
    def data_dir(self) -> Optional[str]:
        """The disk tier's data directory (``None`` on the memory tier)."""
        return self._data_dir

    def resident_bytes(self) -> int:
        """Decoded-object residency summed over every published snapshot.

        Counts the current epoch's base and overlay of each shard; old
        epochs still pinned by in-flight readers are unreachable from
        here and die with their readers.  On the disk tier the overlay
        is RAM-resident and outside ``memory_budget``; it is bounded by
        ``compaction_threshold`` instead.
        """
        total = 0
        for _relation, shard in self._shard_items():
            snap = shard.snapshot
            for index in (snap.base, snap.overlay):
                counter = getattr(index, "resident_bytes", None)
                if counter is not None:
                    total += counter()
        return total

    def _adopt_shard(
        self,
        relation: str,
        shard: RelationShard,
        idents: Iterable[Hashable],
    ) -> None:
        """Install a recovered shard and its ident routing (cold start).

        Recovery seam for :func:`repro.disk.checkpoint.recover_concurrent`:
        the shard arrives pre-built from checkpoint segments at its
        manifest epoch, *idents* are the predicates it already holds.
        Refuses to replace a live shard — recovery populates an empty
        facade, it never clobbers one in use.
        """
        with self._catalog_lock:
            if relation in self._shards:
                raise ConcurrencyError(
                    f"cannot adopt shard {relation!r}: relation already live"
                )
            for ident in idents:
                existing = self._relation_of.get(ident)
                if existing is not None and existing != relation:
                    raise PredicateError(
                        f"predicate ident {ident!r} already indexed under "
                        f"relation {existing!r}"
                    )
                self._relation_of[ident] = relation
            self._shards[relation] = shard

    def _shard_items(self) -> List[Tuple[str, RelationShard]]:
        """Stable snapshot of the shard table, taken under the catalog lock.

        Iterating ``self._shards`` bare can race a first-use shard
        creation and raise ``dictionary changed size during iteration``.
        """
        with self._catalog_lock:
            return list(self._shards.items())

    def _claim_ident(self, ident: Hashable, relation: str) -> bool:
        """Reserve *ident* for *relation* in the routing map.

        Returns ``True`` when this call inserted the entry (the caller
        must release it with :meth:`_release_ident` if the shard add
        fails), ``False`` when the ident is already routed to the same
        relation (the shard will reject the duplicate itself).  An
        ident routed to a *different* relation raises — without this
        guard a cross-relation duplicate would silently overwrite the
        routing entry and strand the first predicate (still matching,
        unreachable via ``get``/``remove``), diverging from the serial
        index's uniqueness contract.
        """
        with self._catalog_lock:
            existing = self._relation_of.get(ident)
            if existing is None:
                self._relation_of[ident] = relation
                return True
            if existing != relation:
                raise PredicateError(
                    f"predicate ident {ident!r} already indexed under "
                    f"relation {existing!r}"
                )
            return False

    def _release_ident(self, ident: Hashable, relation: str) -> None:
        """Undo a claim whose shard add raised.

        The entry is kept when the shard's current snapshot already
        holds the ident — the predicate *was* published despite the
        exception (a post-publish hook raised, or a racing duplicate
        add won) and must stay routable.
        """
        shard = self._shards.get(relation)
        if shard is not None and ident in shard.snapshot:
            return
        with self._catalog_lock:
            if self._relation_of.get(ident) == relation:
                del self._relation_of[ident]

    # -- publication hooks ---------------------------------------------

    def on_publish(self, hook: PublishHook) -> None:
        """Register ``hook(relation, epoch, kind, payload)``.

        Called after every epoch publication, under the publishing
        shard's write lock — the calls for one relation arrive in
        strict epoch order.  Hooks must be fast and must never call
        this facade's write API (``add``/``remove``/``retune``/…), or
        they will deadlock on the shard lock they are already under.
        """
        self._publish_hooks.append(hook)

    # -- PredicateMatcher: registration --------------------------------

    def add(self, predicate: Predicate) -> Hashable:
        """Register *predicate*; returns its identifier."""
        normalized = predicate.normalized()
        if normalized is None:
            raise PredicateError(
                f"predicate {predicate} is unsatisfiable and cannot be indexed"
            )
        relation = normalized.relation
        ident = normalized.ident
        shard = self.shard(relation)
        claimed = self._claim_ident(ident, relation)
        try:
            shard.add(normalized)
        except BaseException:
            if claimed:
                self._release_ident(ident, relation)
            raise
        if self._maintenance is not None:
            self._tick(relation, 1)
        return ident

    def add_many(self, predicates: Iterable[Predicate]) -> List[Hashable]:
        """Register many predicates grouped by relation shard."""
        by_relation: Dict[str, List[Predicate]] = {}
        ordered: List[Hashable] = []
        for predicate in predicates:
            normalized = predicate.normalized()
            if normalized is None:
                raise PredicateError(
                    f"predicate {predicate} is unsatisfiable and cannot be indexed"
                )
            by_relation.setdefault(normalized.relation, []).append(normalized)
            ordered.append(normalized.ident)
        for relation, group in by_relation.items():
            shard = self.shard(relation)
            claimed: List[Hashable] = []
            try:
                for normalized in group:
                    if self._claim_ident(normalized.ident, relation):
                        claimed.append(normalized.ident)
                shard.add_many(group)
            except BaseException:
                for ident in claimed:
                    self._release_ident(ident, relation)
                raise
            if self._maintenance is not None:
                self._tick(relation, len(group))
        return ordered

    def remove(self, ident: Hashable) -> Predicate:
        """Unregister and return the predicate under *ident*."""
        # pop() is atomic: exactly one of several racing removers of
        # the same ident proceeds to the shard; the rest raise here.
        relation = self._relation_of.pop(ident, None)
        if relation is None:
            raise UnknownIntervalError(ident)
        try:
            predicate = self._shards[relation].remove(ident)
        except BaseException:
            self._relation_of.setdefault(ident, relation)
            raise
        if self._maintenance is not None:
            self._tick(relation, 1)
        return predicate

    # -- PredicateMatcher: matching (lock-free reads) ------------------

    def snapshot(self, relation: str) -> EpochSnapshot:
        """The current epoch snapshot for *relation* (may be empty)."""
        return self.shard(relation).snapshot

    def match(self, relation: str, tup: Mapping[str, Any]) -> List[Predicate]:
        """All predicates of *relation* matching *tup* at one epoch."""
        matched = self.snapshot(relation).match(tup)
        if self._maintenance is not None:
            self._tick(relation, 1)
        return matched

    def match_idents(self, relation: str, tup: Mapping[str, Any]) -> Set[Hashable]:
        """Identifiers of all matching predicates at one epoch."""
        matched = self.snapshot(relation).match_idents(tup)
        if self._maintenance is not None:
            self._tick(relation, 1)
        return matched

    def match_idents_at(
        self, relation: str, tup: Mapping[str, Any]
    ) -> Tuple[int, frozenset]:
        """``(epoch, idents)`` — the match *and* the epoch that served it.

        The read-side half of the epoch checker protocol: a stress
        reader records this pair and the checker later validates the
        idents against a serial replay of the publication log up to
        that epoch.
        """
        snapshot = self.snapshot(relation)
        return snapshot.epoch, frozenset(snapshot.match_idents(tup))

    def match_batch(
        self, relation: str, tuples: Iterable[Mapping[str, Any]]
    ) -> List[List[Predicate]]:
        """Match several tuples against one epoch, in input order.

        The whole batch is served by a **single** snapshot — a batch
        never straddles a concurrent write.
        """
        snapshot = self.snapshot(relation)
        tuple_list = tuples if isinstance(tuples, list) else list(tuples)
        rows = snapshot.match_batch(tuple_list)
        if self._maintenance is not None and tuple_list:
            self._tick(relation, len(tuple_list))
        return rows

    # -- maintenance ---------------------------------------------------

    def compact(self, relation: Optional[str] = None) -> Dict[str, int]:
        """Force compaction; returns ``{relation: new_epoch}``."""
        if relation is not None:
            shard = self._shards.get(relation)
            items = [(relation, shard)] if shard is not None else []
        else:
            items = self._shard_items()
        return {rel: shard.compact() for rel, shard in items}

    def retune(self, relation: Optional[str] = None) -> List[Hashable]:
        """Rebuild shard bases so entry-clause choices are re-made.

        The serial index migrates individual entry clauses in place;
        under snapshot publication the equivalent safe operation is a
        per-shard compaction — the fresh base re-runs entry-clause
        selection against the current estimator for every live
        predicate, and readers only ever see the old or the new epoch.
        Returns the identifiers whose entry attribute changed.
        """
        migrated: List[Hashable] = []
        if relation is not None:
            shard = self._shards.get(relation)
            items = [(relation, shard)] if shard is not None else []
        else:
            items = self._shard_items()
        for rel, shard in items:
            before = shard.snapshot
            old_attrs = {
                pred.ident: before.base.indexed_attributes(pred.ident)
                for pred in before.base.predicates_for(rel)
            }
            shard.compact()
            after = shard.snapshot
            for pred in after.base.predicates_for(rel):
                old = old_attrs.get(pred.ident)
                if old is not None and old != after.base.indexed_attributes(
                    pred.ident
                ):
                    migrated.append(pred.ident)
        return migrated

    def verify_and_rebuild(self) -> Dict[str, Any]:
        """Audit every shard's published base; rebuild the unhealthy ones.

        Readers are never exposed to a half-repaired state: a failing
        shard keeps serving its old epoch until the verified
        replacement base is published.
        """
        problems: List[str] = []
        rebuilt: List[str] = []
        for relation, shard in self._shard_items():
            snapshot = shard.snapshot
            shard_problems = snapshot.base.audit()
            if snapshot.overlay is not None:
                shard_problems.extend(snapshot.overlay.audit())
            if not shard_problems:
                continue
            problems.extend(f"{relation}: {p}" for p in shard_problems)
            shard.rebuild()
            rebuilt.append(relation)
        return {"healthy": not problems, "problems": problems, "rebuilt": rebuilt}

    # -- introspection -------------------------------------------------

    def get(self, ident: Hashable) -> Predicate:
        """Return the predicate registered under *ident*."""
        relation = self._relation_of.get(ident)
        if relation is None:
            raise UnknownIntervalError(ident)
        return self._shards[relation].snapshot.get(ident)

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self._relation_of

    def __len__(self) -> int:
        return sum(len(shard.snapshot) for _, shard in self._shard_items())

    def relations(self) -> List[str]:
        """Relations with a shard (possibly empty after removals)."""
        return [relation for relation, _ in self._shard_items()]

    def epochs(self) -> Dict[str, int]:
        """Current published epoch per relation."""
        return {
            relation: shard.snapshot.epoch
            for relation, shard in self._shard_items()
        }

    def __repr__(self) -> str:
        return (
            f"<ConcurrentPredicateIndex {len(self)} predicates over "
            f"{len(self._shards)} shards>"
        )
