"""Per-relation shard with RCU-style immutable epoch snapshots.

The paper's :class:`~repro.core.predicate_index.PredicateIndex` is a
single-threaded structure: a stab descending an IBS-tree while another
thread splices a node out of it can observe a half-mutated tree.  The
shard fixes this without read-side locking by never mutating published
state:

* A :class:`RelationShard` owns one relation's predicates and a single
  reference to an immutable :class:`EpochSnapshot`.
* Readers load ``shard.snapshot`` — one attribute read, atomic under
  the CPython GIL — and match against it for as long as they like; the
  snapshot can never change underneath them.
* Writers serialise on the shard's write lock, build the **next**
  snapshot privately (using the existing ``bulk_load``/``tree_epoch``
  machinery), then publish it with a single reference assignment.

A snapshot is a three-part structure so that writes stay cheap:

``base``
    A frozen :class:`PredicateIndex` holding the compacted bulk of the
    relation's predicates.  Built with ``adaptive=False`` (the feedback
    counters mutate on the read path without synchronisation), then
    :meth:`~repro.core.predicate_index.PredicateIndex.freeze`-d so any
    accidental mutation raises instead of corrupting readers.  Freezing
    also demotes the stab cache to an append-only, GIL-safe discipline,
    and because frozen trees never bump epochs the cache stays warm for
    the snapshot's whole life — writes land in the overlay and never
    strand the base's cached stabs.
``overlay``
    A *small* frozen PredicateIndex over the predicates added since the
    base was compacted.  Rebuilt copy-on-write on every write — O(size
    of overlay), bounded by the compaction threshold — so a write never
    touches the big base trees and never invalidates their decode or
    stab caches.  Built by the shard's ``overlay_factory``, which may
    differ from the base's: the disk tier seals bases to segment files
    but keeps overlays in RAM, so a write never writes a file.
``removed``
    A frozenset of identifiers deleted from the base since compaction.
    Matching filters base results through it.

When the overlay or the tombstone set outgrows ``compaction_threshold``
the writer folds everything into a fresh base via ``add_many`` (which
bulk-loads each attribute tree) and starts over with an empty overlay.
Readers holding the old snapshot keep using it; they simply see the
state as of their epoch.
"""

from __future__ import annotations

import threading
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.predicate_index import PredicateIndex
from ..errors import ConcurrencyError, PredicateError, UnknownIntervalError
from ..match.pipeline import (
    snapshot_match,
    snapshot_match_batch,
    snapshot_match_idents,
)
from ..predicates.predicate import Predicate

__all__ = ["EpochSnapshot", "RelationShard"]

#: Default number of overlay entries (or tombstones) that triggers
#: folding the overlay into a fresh compacted base.
DEFAULT_COMPACTION_THRESHOLD = 64

#: Overlay size at or below which :meth:`EpochSnapshot.match_batch`
#: tests the overlay predicates directly per tuple rather than running
#: the overlay index's full batched pipeline.
OVERLAY_SCAN_LIMIT = 8

#: Publication hook signature: ``(relation, epoch, kind, payload)``
#: where *kind* is one of ``"add"`` / ``"remove"`` / ``"compact"`` /
#: ``"rebuild"``.
PublishHook = Callable[[str, int, str, Any], None]


class EpochSnapshot:
    """One immutable published state of a relation shard.

    Everything reachable from a snapshot is frozen: the base and
    overlay indexes refuse mutation, ``removed`` and ``overlay_preds``
    are immutable containers.  All match methods are therefore safe to
    call from any number of threads with no synchronisation.
    """

    __slots__ = (
        "relation",
        "epoch",
        "base",
        "overlay",
        "removed",
        "overlay_preds",
        "_rank",
    )

    def __init__(
        self,
        relation: str,
        epoch: int,
        base: PredicateIndex,
        overlay: Optional[PredicateIndex],
        removed: frozenset,
        overlay_preds: Tuple[Predicate, ...],
    ):
        self.relation = relation
        #: shard-local monotone publication counter; epoch N+1's state
        #: differs from epoch N by exactly one published operation
        #: (compaction publishes an epoch with identical contents).
        self.epoch = epoch
        self.base = base
        self.overlay = overlay
        self.removed = removed
        #: the overlay's predicates in insertion order (the overlay
        #: index loses ordering; rebuilds and iteration need it).
        self.overlay_preds = overlay_preds

    # -- contents ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.base) - len(self.removed) + len(self.overlay_preds)

    def __contains__(self, ident: Hashable) -> bool:
        if any(pred.ident == ident for pred in self.overlay_preds):
            return True
        return ident in self.base and ident not in self.removed

    def get(self, ident: Hashable) -> Predicate:
        """Return the live predicate under *ident* at this epoch."""
        for pred in self.overlay_preds:
            if pred.ident == ident:
                return pred
        if ident in self.base and ident not in self.removed:
            return self.base.get(ident)
        raise UnknownIntervalError(ident)

    def predicates(self) -> Iterator[Predicate]:
        """Iterate the live predicates (base order, then overlay order)."""
        removed = self.removed
        for pred in self.base.predicates_for(self.relation):
            if pred.ident not in removed:
                yield pred
        yield from self.overlay_preds

    def canonical_rank(self) -> Dict[Hashable, int]:
        """``ident -> position`` in this snapshot's enumeration order.

        A *value-deterministic* total order over the live predicates —
        base publication order, then overlay insertion order — unlike
        the per-row match order, which falls out of set iteration inside
        the trees and therefore depends on process memory layout and
        hash seed.  The process tier sorts every row it returns into
        this order so results are reproducible across processes.

        Cached on first use; the lazy single-assignment publish of an
        immutable dict is GIL-safe on this otherwise frozen object
        (racing builders compute identical maps).
        """
        rank = getattr(self, "_rank", None)
        if rank is None:
            rank = {
                pred.ident: position
                for position, pred in enumerate(self.predicates())
            }
            self._rank = rank
        return rank

    def canonical_rows(
        self, rows: List[List[Predicate]]
    ) -> List[List[Predicate]]:
        """Sort each match row into :meth:`canonical_rank` order."""
        rank = self.canonical_rank()
        return [sorted(row, key=lambda pred: rank[pred.ident]) for row in rows]

    # -- matching (lock-free) ------------------------------------------

    def match(self, tup: Mapping[str, Any]) -> List[Predicate]:
        """All live predicates matching *tup*, deterministically ordered.

        Base matches come first (in the base index's order), overlay
        matches after (in insertion order) — a fixed order per snapshot,
        so concurrent and repeated calls agree exactly.  The merge
        itself lives in :func:`repro.match.pipeline.snapshot_match`, so
        the snapshot read path runs the same pipeline code as every
        other entry point.
        """
        return snapshot_match(self, tup)

    def match_idents(self, tup: Mapping[str, Any]) -> Set[Hashable]:
        """Identifiers of all live predicates matching *tup*."""
        return snapshot_match_idents(self, tup)

    def match_batch(
        self, tuples: Iterable[Mapping[str, Any]]
    ) -> List[List[Predicate]]:
        """Match several tuples against this one epoch.

        Uses the underlying batched fast path on the base.  An overlay
        of at most :data:`OVERLAY_SCAN_LIMIT` predicates is evaluated by
        a direct per-tuple scan instead — running the full batched
        pipeline (stab tables plus per-tuple assembly) over a second
        index costs more than testing a handful of predicates outright.
        Results are per-tuple lists in the same deterministic order as
        :meth:`match`.
        """
        return snapshot_match_batch(self, tuples, OVERLAY_SCAN_LIMIT)

    def __repr__(self) -> str:
        return (
            f"<EpochSnapshot {self.relation!r} epoch={self.epoch} "
            f"base={len(self.base)} overlay={len(self.overlay_preds)} "
            f"removed={len(self.removed)}>"
        )


class RelationShard:
    """Thread-safe matching state for one relation.

    Lock ordering: the shard's write lock is a **leaf** lock — while
    holding it the shard only builds private structures and invokes the
    publication hooks; it never acquires another shard's lock or the
    facade's catalog lock.  Publication hooks run *inside* the write
    lock so the hook stream is totally ordered by epoch per shard; a
    hook must therefore never call back into this shard's write API.
    """

    def __init__(
        self,
        relation: str,
        index_factory: Callable[[], PredicateIndex],
        compaction_threshold: int = DEFAULT_COMPACTION_THRESHOLD,
        publish_hooks: Optional[List[PublishHook]] = None,
        initial_base: Optional[PredicateIndex] = None,
        initial_epoch: int = 0,
        overlay_factory: Optional[Callable[[], PredicateIndex]] = None,
    ):
        self.relation = relation
        self._index_factory = index_factory
        self._overlay_factory = overlay_factory or index_factory
        self._compaction_threshold = max(1, int(compaction_threshold))
        #: shared list owned by the facade; may grow concurrently
        #: (append is atomic) but is only iterated under the write lock.
        self._publish_hooks = publish_hooks if publish_hooks is not None else []
        self._lock = threading.Lock()
        # ``initial_base``/``initial_epoch`` are the disk tier's recovery
        # seam: a cold start attaches a base recovered from segment
        # files at the epoch its checkpoint manifest recorded, so the
        # journal tail replays on top of exactly the state it follows.
        if initial_base is None:
            base = index_factory()
            base.freeze()
        else:
            base = initial_base
            if not base.frozen:
                base.freeze()
        self._snapshot = EpochSnapshot(
            relation, int(initial_epoch), base, None, frozenset(), ()
        )
        self.compactions = 0

    # -- read side (lock-free) -----------------------------------------

    @property
    def snapshot(self) -> EpochSnapshot:
        """The current published epoch (a single atomic attribute read)."""
        return self._snapshot

    # -- write side ----------------------------------------------------

    def add(self, predicate: Predicate) -> Hashable:
        """Register *predicate* and publish the successor epoch."""
        normalized = predicate.normalized()
        if normalized is None:
            raise PredicateError(
                f"predicate {predicate} is unsatisfiable and cannot be indexed"
            )
        if normalized.relation != self.relation:
            raise ConcurrencyError(
                f"shard {self.relation!r} cannot index a predicate of "
                f"relation {normalized.relation!r}"
            )
        ident = normalized.ident
        with self._lock:
            snap = self._snapshot
            if ident in snap:
                raise PredicateError(f"predicate ident {ident!r} already indexed")
            overlay_preds = snap.overlay_preds + (normalized,)
            if (
                len(overlay_preds) >= self._compaction_threshold
                or len(snap.removed) >= self._compaction_threshold
            ):
                successor = self._compacted(snap, overlay_preds, snap.removed)
            else:
                successor = EpochSnapshot(
                    self.relation,
                    snap.epoch + 1,
                    snap.base,
                    self._build_overlay(overlay_preds),
                    snap.removed,
                    overlay_preds,
                )
            self._publish(successor, "add", normalized)
        return ident

    def add_many(self, predicates: Sequence[Predicate]) -> List[Hashable]:
        """Register a batch and publish once, pre-compacted.

        Equivalent to calling :meth:`add` for each predicate, but the
        whole batch is folded straight into a fresh bulk-loaded base —
        one build instead of ``len(batch)`` copy-on-write overlay
        rebuilds, and the steady state starts with an *empty* overlay
        rather than whatever the last compaction left behind.  One
        ``"add"`` hook fires per predicate, each on its own epoch (the
        op log stays strictly monotone); readers only ever observe the
        final epoch — the intermediate ones are never published.
        """
        normalized_group: List[Predicate] = []
        for predicate in predicates:
            normalized = predicate.normalized()
            if normalized is None:
                raise PredicateError(
                    f"predicate {predicate} is unsatisfiable and cannot be indexed"
                )
            if normalized.relation != self.relation:
                raise ConcurrencyError(
                    f"shard {self.relation!r} cannot index a predicate of "
                    f"relation {normalized.relation!r}"
                )
            normalized_group.append(normalized)
        if not normalized_group:
            return []
        with self._lock:
            snap = self._snapshot
            seen: set = set()
            for normalized in normalized_group:
                ident = normalized.ident
                if ident in snap or ident in seen:
                    raise PredicateError(
                        f"predicate ident {ident!r} already indexed"
                    )
                seen.add(ident)
            base = self._index_factory()
            live: List[Predicate] = [
                pred
                for pred in snap.base.predicates_for(self.relation)
                if pred.ident not in snap.removed
            ]
            live.extend(snap.overlay_preds)
            live.extend(normalized_group)
            base.add_many(live)
            base.freeze()
            self.compactions += 1
            successor = EpochSnapshot(
                self.relation,
                snap.epoch + len(normalized_group),
                base,
                None,
                frozenset(),
                (),
            )
            self._snapshot = successor
            for offset, normalized in enumerate(normalized_group, start=1):
                for hook in self._publish_hooks:
                    hook(self.relation, snap.epoch + offset, "add", normalized)
        return [normalized.ident for normalized in normalized_group]

    def remove(self, ident: Hashable) -> Predicate:
        """Unregister *ident* and publish the successor epoch."""
        with self._lock:
            snap = self._snapshot
            if any(pred.ident == ident for pred in snap.overlay_preds):
                removed_pred = next(
                    pred for pred in snap.overlay_preds if pred.ident == ident
                )
                overlay_preds = tuple(
                    pred for pred in snap.overlay_preds if pred.ident != ident
                )
                successor = EpochSnapshot(
                    self.relation,
                    snap.epoch + 1,
                    snap.base,
                    self._build_overlay(overlay_preds),
                    snap.removed,
                    overlay_preds,
                )
            elif ident in snap.base and ident not in snap.removed:
                removed_pred = snap.base.get(ident)
                removed = snap.removed | {ident}
                if len(removed) >= self._compaction_threshold:
                    successor = self._compacted(snap, snap.overlay_preds, removed)
                else:
                    successor = EpochSnapshot(
                        self.relation,
                        snap.epoch + 1,
                        snap.base,
                        snap.overlay,
                        removed,
                        snap.overlay_preds,
                    )
            else:
                raise UnknownIntervalError(ident)
            self._publish(successor, "remove", ident)
        return removed_pred

    def compact(self) -> int:
        """Fold the overlay and tombstones into a fresh base now.

        Publishes a new epoch with identical contents (the checker's
        replay treats ``"compact"`` as a no-op).  Returns the new epoch.
        """
        with self._lock:
            snap = self._snapshot
            successor = self._compacted(snap, snap.overlay_preds, snap.removed)
            self._publish(successor, "compact", None)
            return successor.epoch

    def rebuild(self) -> int:
        """Rebuild the base from the live predicate set and re-audit it.

        The concurrent counterpart of
        :meth:`~repro.core.predicate_index.PredicateIndex.verify_and_rebuild`:
        readers keep matching against the old epoch while the fresh
        base is built and checked; only a *verified* snapshot is ever
        published.  Returns the new epoch.
        """
        with self._lock:
            snap = self._snapshot
            successor = self._compacted(snap, snap.overlay_preds, snap.removed)
            if not successor.base.check_invariants():
                raise ConcurrencyError(
                    f"rebuilt base for shard {self.relation!r} failed its audit; "
                    "keeping the previous epoch published"
                )
            self._publish(successor, "rebuild", None)
            return successor.epoch

    # -- internals (call with the write lock held) ---------------------

    def _build_overlay(
        self, overlay_preds: Tuple[Predicate, ...]
    ) -> Optional[PredicateIndex]:
        if not overlay_preds:
            return None
        overlay = self._overlay_factory()
        overlay.add_many(overlay_preds)
        overlay.freeze()
        return overlay

    def _compacted(
        self,
        snap: EpochSnapshot,
        overlay_preds: Tuple[Predicate, ...],
        removed: frozenset,
    ) -> EpochSnapshot:
        base = self._index_factory()
        live: List[Predicate] = [
            pred
            for pred in snap.base.predicates_for(self.relation)
            if pred.ident not in removed
        ]
        live.extend(overlay_preds)
        base.add_many(live)
        base.freeze()
        self.compactions += 1
        return EpochSnapshot(
            self.relation, snap.epoch + 1, base, None, frozenset(), ()
        )

    def _publish(self, successor: EpochSnapshot, kind: str, payload: Any) -> None:
        # The single reference assignment below IS the publication:
        # CPython guarantees readers see either the old or the new
        # snapshot object, never a mixture.
        self._snapshot = successor
        for hook in self._publish_hooks:
            hook(self.relation, successor.epoch, kind, payload)

    def __repr__(self) -> str:
        snap = self._snapshot
        return (
            f"<RelationShard {self.relation!r} epoch={snap.epoch} "
            f"live={len(snap)} compactions={self.compactions}>"
        )
