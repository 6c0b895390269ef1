"""``DiskIBSTree``: an IBS-tree whose frozen form lives in a segment file.

The disk tier's interval index is a two-state machine behind the same
``IntervalIndex`` interface every RAM backend implements:

* **staging** — contents live in RAM: :meth:`bulk_load` keeps its
  ``(interval, ident)`` pairs as they came, with their endpoints sorted
  once for the seal's sweep, and the first read or mutation builds an
  in-memory :class:`~repro.core.ibs_tree.IBSTree` from them, which
  mutations then go to exactly as the ``ibs`` backend would handle
  them;
* **sealed** — :meth:`seal` writes the contents' stab plane to a
  segment file (see :mod:`repro.disk.segment`), swept straight from the
  pairs with no tree in between, and stabbing queries are answered by a
  :class:`~repro.disk.segment.SegmentReader` straight off the mmap.
  :meth:`freeze` seals *and releases* the staging state, so a frozen
  base published into an
  :class:`~repro.concurrency.shard.EpochSnapshot` holds no per-interval
  Python objects at all — the epoch-snapshot tier literally publishes
  mmap'd bases, and a fold that bulk-loads and freezes a base builds no
  tree.

A mutation against a sealed-but-unfrozen tree transparently rehydrates
the staging tree (from the kept pairs, or from the segment's interval
table, epoch preserved), mutates it, and marks the segment stale; the
next :meth:`seal` writes a fresh generation.  The invariant throughout:
*either the reader is current (its epoch equals the tree's) or the
staging pairs or tree exist* — reads never have nowhere to go.

Reads go to whichever state currently answers: ``stab`` (and the
inherited ``stab_into``) resolve it per call, ``stab_many`` once per
batch, so a grouped batch stab touches the disk store's bookkeeping
once per tree rather than once per value.

Trees created without an explicit path write their segments to a
private temporary directory (:func:`private_directory`) that is
removed when the tree is garbage collected, so ``DiskIBSTree`` works
as a drop-in registry backend even outside a managed ``data_dir``.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import weakref
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.ibs_tree import IBSTree
from ..core.intervals import Interval
from ..core.stabbing import IntervalIndex, endpoint_values
from ..errors import DuplicateIntervalError, TreeError
from ..testing.faults import fault_point
from .segment import SegmentReader, _write_pairs, write_segment

__all__ = ["DiskIBSTree", "private_directory"]


def private_directory(owner: Any) -> str:
    """A fresh ``repro-disk-*`` temporary directory that goes with *owner*.

    For a tree or index made without a place to write: nothing else
    refers to the directory, so it is removed, with everything in it,
    when *owner* is garbage collected (or at interpreter exit).  A
    caller's ``data_dir`` never comes from here and is never removed.
    """
    path = tempfile.mkdtemp(prefix="repro-disk-")
    weakref.finalize(owner, shutil.rmtree, path, True)
    return path


class DiskIBSTree(IntervalIndex):
    """Disk-backed interval index: RAM staging tree + mmap'd sealed base."""

    # capability flag read by the backend registry
    disk_backed = True

    def __init__(
        self,
        path: Optional[str] = None,
        relation: str = "?",
        attribute: str = "?",
    ) -> None:
        self._path = os.fspath(path) if path is not None else None
        self._relation = relation
        self._attribute = attribute
        #: the staging tree, built on demand from ``_pending``
        self._mem: Optional[IBSTree] = None
        #: bulk-loaded pairs not yet in a staging tree, with their sorted
        #: endpoints for the seal's sweep (``None`` once they are in a
        #: tree, or once a seal releases them)
        self._pending: Optional[Tuple[List[Tuple[Interval, Hashable]], List[Any]]] = ([], [])
        self._reader: Optional[SegmentReader] = None
        self._epoch = 0
        self._frozen = False
        self._tempdir: Optional[str] = None
        #: set by the disk tree store so eviction can track hot trees
        self.on_touch = None

    # -- epoch / freeze (same contract as IBSTree) -----------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @epoch.setter
    def epoch(self, value: int) -> None:
        self._epoch = int(value)
        if self._mem is not None:
            self._mem.epoch = self._epoch

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        """Seal to disk and drop the staging tree; then refuse mutation.

        This is what the epoch-snapshot tier calls before publishing a
        compacted base, so every frozen base a concurrent reader stabs
        is an mmap'd segment, not a Python object graph.  (Overlays are
        never disk-backed: every write derives a new one, kept in RAM.)
        """
        if not self._frozen:
            self.seal(release=True)
            self._frozen = True

    def _check_mutable(self) -> None:
        if self._frozen:
            raise TreeError(
                f"{type(self).__name__} is frozen (published in an epoch "
                "snapshot); build a new tree instead of mutating"
            )

    # -- the two-state machine -------------------------------------------

    @property
    def sealed(self) -> bool:
        """Whether the current contents are served from a segment file."""
        return self._reader is not None and self._reader.epoch == self._epoch

    @property
    def segment_path(self) -> Optional[str]:
        """Path of the current segment file, if sealed."""
        return self._reader.path if self.sealed else None

    def _target_path(self) -> str:
        if self._path is not None:
            return self._path
        if self._tempdir is None:
            self._tempdir = private_directory(self)
        return os.path.join(self._tempdir, f"anon.e{self._epoch}.seg")

    def seal(self, release: bool = False) -> str:
        """Write the current contents to a segment and serve reads from it.

        Idempotent when already sealed and current.  With ``release``
        the staging pairs and tree are dropped afterwards (rehydrated on
        demand if a later mutation needs them).  Returns the segment
        path.
        """
        if not self.sealed:
            path = self._target_path()
            if self._mem is not None:
                write_segment(path, self._mem, self._relation, self._attribute, self._epoch)
            else:
                assert self._pending is not None, "stale seal without staging"
                pairs, values = self._pending
                _write_pairs(path, pairs, values, self._relation, self._attribute, self._epoch)
            old = self._reader
            self._reader = SegmentReader(path)
            if old is not None:
                old.close()
        if release:
            self._mem = self._pending = None
        return self._reader.path  # type: ignore[union-attr]

    def _build_staging(self) -> IBSTree:
        """A staging tree over the current contents: the kept pairs, or
        the sealed segment's interval table."""
        if self._pending is not None:
            pairs = self._pending[0]
        else:
            assert self._reader is not None
            pairs = [(interval, ident) for ident, interval in self._reader.items()]
        mem = IBSTree()
        if pairs:
            mem.bulk_load(pairs)
        mem.epoch = self._epoch
        return mem

    def _ensure_mem(self) -> IBSTree:
        """The staging tree, built from the pairs or the segment if needed."""
        if self._mem is None:
            self._mem = self._build_staging()
            self._pending = None
        return self._mem

    def _read_source(self) -> Any:
        """Whoever currently answers reads: the reader when sealed-and-
        current, the staging tree otherwise."""
        if self.on_touch is not None:
            self.on_touch(self)
        if self._reader is not None and self._reader.epoch == self._epoch:
            return self._reader
        return self._ensure_mem()

    # -- residency ------------------------------------------------------

    def resident_bytes(self) -> int:
        """Decoded Python-object bytes held for this tree.

        A fully cold sealed tree (post-:meth:`release_cache`) reports 0
        even though its mmap is open — mapped pages belong to the OS
        page cache and are reclaimable without our cooperation.
        """
        total = self._reader.resident_bytes() if self._reader is not None else 0
        if self._mem is not None:
            # the staging tree holds the full object graph; approximate
            # with a per-interval + per-node constant fitted to what
            # tracemalloc traces for a bulk-loaded IBSTree (EXPERIMENTS.md
            # FLAT): an interval's registry entries and marker-location
            # set, a node's three marker sets (diagnostic, not an
            # allocator audit)
            return total + 2400 * len(self._mem) + 600 * self._mem.node_count
        pairs = self._pending[0] if self._pending is not None else ()
        return total + 64 * len(pairs)  # a tuple per kept pair

    def release_cache(self) -> int:
        """Drop decoded reader caches (and the staging state when sealed).

        Only safe state is dropped: dirty staging (segment stale or
        absent) is untouched.  Returns bytes released.
        """
        before = self.resident_bytes()
        if self.sealed:
            self._mem = self._pending = None
        if self._reader is not None:
            self._reader.release()
        return before - self.resident_bytes()

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    # -- mutation (delegates to the staging tree) ------------------------

    def insert(self, interval: Interval, ident: Optional[Hashable] = None) -> Hashable:
        self._check_mutable()
        mem = self._ensure_mem()
        result = mem.insert(interval, ident)
        self._epoch = mem.epoch
        return result

    def delete(self, ident: Hashable) -> None:
        self._check_mutable()
        mem = self._ensure_mem()
        mem.delete(ident)
        self._epoch = mem.epoch

    def bulk_load(
        self, items: Iterable[Tuple[Interval, Optional[Hashable]]]
    ) -> List[Hashable]:
        """Load many intervals into an **empty** tree, all or nothing.

        The pairs are kept as they came (``None`` idents numbered as
        ``IBSTree.bulk_load`` numbers them): :meth:`seal` writes the
        segment straight from them, and a read or mutation first builds
        the staging tree from them.
        """
        self._check_mutable()
        if len(self):
            raise TreeError("bulk_load requires an empty tree")
        pairs: List[Tuple[Interval, Hashable]] = []
        seen: Set[Hashable] = set()
        counter = itertools.count()
        for interval, ident in items:
            if ident is None:
                ident = next(i for i in counter if i not in seen)
            elif ident in seen:
                raise DuplicateIntervalError(ident)
            seen.add(ident)
            pairs.append((interval, ident))
        # sorted once: refuses incomparable endpoints now, not at the seal
        values = endpoint_values(interval for interval, _ in pairs)
        fault_point("tree.bulk_load")
        self._mem, self._pending = None, (pairs, values)
        self._epoch += 1
        return [ident for _, ident in pairs]

    def clear(self) -> None:
        self._check_mutable()
        self._mem, self._pending = None, ([], [])
        self._epoch += 1

    # -- reads (reader when sealed, staging tree otherwise) --------------

    def stab(self, x: Any) -> Set[Hashable]:
        return self._read_source().stab(x)

    find_intervals = stab

    def stab_many(self, values: Iterable[Any]) -> Dict[Any, Optional[Set[Hashable]]]:
        # one read (and one store touch) per batch, not one per value
        return self._read_source().stab_many(values)

    def overlapping(self, query: Interval) -> Set[Hashable]:
        return self._read_source().overlapping(query)

    def get(self, ident: Hashable) -> Interval:
        return self._read_source().get(ident)

    def items(self) -> Iterator[Tuple[Hashable, Interval]]:
        return iter(list(self._read_source().items()))

    def __len__(self) -> int:
        if self.sealed:
            return len(self._reader)  # type: ignore[arg-type]
        if self._mem is not None:
            return len(self._mem)
        return len(self._pending[0])  # type: ignore[index]

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self._read_source()

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Hashable]:
        return iter(list(self._read_source()))

    # -- diagnostics ----------------------------------------------------

    @property
    def node_count(self) -> int:
        if self.sealed and self._mem is None:
            return self._reader.n_values  # type: ignore[union-attr]
        return self._ensure_mem().node_count

    @property
    def height(self) -> int:
        if self.sealed and self._mem is None:
            n = self._reader.n_values  # type: ignore[union-attr]
            return max(0, n.bit_length())
        return self._ensure_mem().height

    @property
    def marker_count(self) -> int:
        return self._hydrated_for_audit().marker_count

    def markers_of(self, ident: Hashable) -> int:
        return self._hydrated_for_audit().markers_of(ident)

    def _hydrated_for_audit(self) -> IBSTree:
        """A staging tree for structural diagnostics.

        A frozen tree must not regain a resident ``_mem`` (the whole
        point of freezing is releasing it), so audits of frozen trees
        work on a throwaway rehydration.
        """
        return self._build_staging() if self._frozen else self._ensure_mem()

    def validate(self) -> None:
        self._hydrated_for_audit().validate()
        if self.sealed:
            self._reader.verify()  # type: ignore[union-attr]

    def check_invariants(self) -> bool:
        self.validate()
        return True

    def audit(self) -> List[str]:
        problems = self._hydrated_for_audit().audit()
        if self.sealed:
            try:
                self._reader.verify()  # type: ignore[union-attr]
            except Exception as exc:  # CorruptSegmentError, OSError...
                problems.append(f"segment: {exc}")
        return problems

    def dump(self) -> str:
        return self._hydrated_for_audit().dump()

    def segment_meta(self) -> Optional[Dict[str, Any]]:
        """Manifest row for the current segment (``None`` when dirty)."""
        if not self.sealed:
            return None
        reader = self._reader
        assert reader is not None
        return {
            "file": os.path.basename(reader.path),
            "crc": reader.payload_crc,
            "epoch": reader.epoch,
            "count": reader.count,
            "n_values": reader.n_values,
        }

    # -- recovery -------------------------------------------------------

    @classmethod
    def from_segment(cls, path: str) -> "DiskIBSTree":
        """Attach a tree *cold* to an existing segment file.

        The returned tree serves reads straight from the mmap without
        ever materialising per-interval objects; a mutation (on an
        unfrozen tree) rehydrates on demand.  Raises
        :class:`~repro.errors.CorruptSegmentError` if the segment fails
        its structural checks.
        """
        reader = SegmentReader(path)
        tree = cls(path, relation=reader.relation, attribute=reader.attribute)
        tree._pending = None
        tree._reader = reader
        tree._epoch = reader.epoch
        return tree

    def __repr__(self) -> str:
        state = "sealed" if self.sealed else "staging"
        return (
            f"<DiskIBSTree {self._relation}.{self._attribute} "
            f"epoch={self._epoch} intervals={len(self)} {state}>"
        )
