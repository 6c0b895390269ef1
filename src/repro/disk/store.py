"""``DiskTreeStore``: the tree store whose trees live in segment files.

Drops into the :class:`~repro.match.store.TreeStore` seam — the catalog
and pipeline never know the difference — but every tree it constructs
is a :class:`~repro.disk.tree.DiskIBSTree` whose segment file lives
under a managed ``data_dir``::

    <data_dir>/<relation>/<attribute>.g<N>.seg

Relation and attribute names are percent-encoded (``quote(..., safe="")``)
so arbitrary identifiers cannot escape the directory or collide.  The
``g<N>`` generation number is monotone per data directory — allocated
from a process-wide counter seeded by scanning existing files — so a
re-sealed tree never overwrites the segment an open reader (or a
not-yet-durable checkpoint manifest) still references; superseded
generations are garbage-collected by the checkpointer once a manifest
that no longer names them is durable.

The store is also the disk tier's **eviction policy**: every tree it
creates reports reads through an ``on_touch`` hook, the store keeps an
LRU of live trees, and when decoded-object residency exceeds
``memory_budget`` the coldest *sealed* trees are asked to
:meth:`~repro.disk.tree.DiskIBSTree.release_cache` — dropping their
decoded rows and staging copies while their mmap'd pages stay with the
OS page cache.  Dirty staging trees are never evicted (their contents
exist nowhere else).  Residency is a running count per tree, so the
check on every read costs one addition per live tree, and under a
budget the readers' row caches are the only stab cache
(:meth:`DiskTreeStore.freeze_state`): all that is decoded is counted.
"""

from __future__ import annotations

import os
import re
import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, List, Optional
from urllib.parse import quote

from ..match.catalog import RelationState
from ..match.store import TreeStore
from .segment import SEGMENT_SUFFIX
from .tree import DiskIBSTree

__all__ = ["DiskTreeStore"]

_GEN_RE = re.compile(r"\.g(\d+)\.seg$")

#: per-data-directory monotone generation counters, shared process-wide
#: so two indexes (or a checkpointer) over the same directory never
#: allocate colliding segment names
_GENERATIONS: Dict[str, int] = {}
_GEN_LOCK = threading.Lock()


def _next_generation(data_dir: str) -> int:
    key = os.path.realpath(data_dir)
    with _GEN_LOCK:
        current = _GENERATIONS.get(key)
        if current is None:
            current = 0
            if os.path.isdir(data_dir):
                for root, _dirs, files in os.walk(data_dir):
                    for name in files:
                        found = _GEN_RE.search(name)
                        if found:
                            current = max(current, int(found.group(1)))
        _GENERATIONS[key] = current + 1
        return current + 1


def segment_path(data_dir: str, relation: str, attribute: str, gen: int) -> str:
    """The canonical segment path for one tree generation."""
    return os.path.join(
        data_dir,
        quote(relation, safe=""),
        f"{quote(attribute, safe='')}.g{gen}{SEGMENT_SUFFIX}",
    )


class DiskTreeStore(TreeStore):
    """A :class:`TreeStore` whose trees are disk-backed and evictable.

    Parameters
    ----------
    data_dir:
        Directory holding segment files, checkpoints, and the journal.
    memory_budget:
        Soft cap, in bytes, on decoded Python-object residency across
        all live trees (``None`` = unlimited).  Enforced by evicting
        the coldest sealed trees after each touched read.  A budgeted
        store keeps no relation stab cache (:meth:`freeze_state`).
    """

    __slots__ = ("data_dir", "memory_budget", "_lru", "_evict_lock")

    def __init__(self, data_dir: str, memory_budget: Optional[int] = None) -> None:
        super().__init__(DiskIBSTree)
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.memory_budget = memory_budget
        #: id(tree) -> weakref, most-recently-touched last
        self._lru: "OrderedDict[int, weakref.ref]" = OrderedDict()
        self._evict_lock = threading.Lock()

    # -- tree lifecycle (overrides) --------------------------------------

    def new_tree(
        self, state: RelationState, attribute: Optional[str] = None
    ) -> Any:
        """A fresh :class:`DiskIBSTree` at the next segment generation."""
        attr = attribute if attribute is not None else "_"
        gen = _next_generation(self.data_dir)
        tree = DiskIBSTree(
            segment_path(self.data_dir, state.name, attr, gen),
            relation=state.name,
            attribute=attr,
        )
        self.seed_epoch(state, tree)
        self._track(tree)
        return tree

    def freeze_state(self, state: RelationState) -> None:
        """Freeze the relation's trees and, without a budget, cache its
        stabs (under one they would copy rows that no eviction drops)."""
        super().freeze_state(state)
        if self.memory_budget is not None:
            state.stab_cache = None

    def adopt_tree(self, state: RelationState, tree: DiskIBSTree) -> DiskIBSTree:
        """Track a recovered (cold-attached) tree in the eviction LRU."""
        self._track(tree)
        return tree

    def _track(self, tree: DiskIBSTree) -> None:
        tree.on_touch = self._touched
        key = id(tree)
        ref = weakref.ref(tree, lambda _r, _k=key: self._lru.pop(_k, None))
        self._lru[key] = ref

    # -- eviction --------------------------------------------------------

    def _touched(self, tree: DiskIBSTree) -> None:
        key = id(tree)
        if key in self._lru:
            self._lru.move_to_end(key)
        if self.memory_budget is not None:
            self.maybe_evict()

    def live_trees(self) -> List[DiskIBSTree]:
        """Live tracked trees, least-recently-touched first."""
        out = []
        for ref in list(self._lru.values()):
            tree = ref()
            if tree is not None:
                out.append(tree)
        return out

    def resident_bytes(self) -> int:
        """Decoded-object residency across every live tree."""
        return sum(tree.resident_bytes() for tree in self.live_trees())

    def maybe_evict(self) -> int:
        """Release cold trees' caches until residency fits the budget.

        Walks the LRU coldest-first, skipping the most recently touched
        tree (evicting the tree being read defeats the cache entirely).
        Returns the bytes released.
        """
        budget = self.memory_budget
        if budget is None:
            return 0
        if not self._evict_lock.acquire(blocking=False):
            return 0  # another thread is already evicting
        try:
            trees = self.live_trees()
            if len(trees) <= 1:
                return 0
            resident = sum(tree.resident_bytes() for tree in trees)
            freed = 0
            for tree in trees[:-1]:  # keep the hottest tree resident
                if resident - freed <= budget:
                    break
                freed += tree.release_cache()
            return freed
        finally:
            self._evict_lock.release()
