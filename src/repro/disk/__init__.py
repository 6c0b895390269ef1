"""The disk-backed predicate tier: segments, checkpoints, recovery.

Larger-than-memory predicate sets for the matching system.  Frozen
interval-tree bases are written, as the stab plane of their intervals,
to checksummed, mmap-able **segment files** (:mod:`repro.disk.segment`),
served lazily per ``(relation, attribute)`` by
:class:`~repro.disk.tree.DiskIBSTree` behind the ordinary tree-store
seam (:mod:`repro.disk.store`), and made durable by **incremental
per-shard checkpoints** plus a journal tail
(:mod:`repro.disk.checkpoint`) — cold start attaches segments instead
of rehydrating every predicate into RAM.  On the concurrent facade only
compacted shard bases are sealed; the small copy-on-write overlay of
recent writes stays in RAM and is recovered from the journal.

Select the tier with ``PredicateIndex(storage="disk", data_dir=...)``
or the registry's ``"disk"`` backend; nothing else about the matching
API changes.

Checkpoint/recovery helpers are imported lazily so that loading a disk
backend from the registry does not drag the database layer in.
"""

from __future__ import annotations

from typing import Any

from .segment import SegmentReader, write_segment
from .store import DiskTreeStore
from .tree import DiskIBSTree

__all__ = [
    "DiskCheckpointer",
    "DiskIBSTree",
    "DiskTreeStore",
    "SegmentReader",
    "load_index",
    "recover_concurrent",
    "save_index",
    "write_segment",
]

_LAZY = {"DiskCheckpointer", "save_index", "load_index", "recover_concurrent"}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from . import checkpoint

        return getattr(checkpoint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
