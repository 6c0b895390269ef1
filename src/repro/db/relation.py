"""A main-memory relation: tuple storage with statistics and scans.

Tuples are plain dicts keyed by attribute name, stored under
monotonically increasing tuple identifiers (tids).  The relation keeps
the attributes its :class:`~repro.db.statistics.RelationStatistics`
tracks up to date on every mutation, and offers simple scan/lookup
helpers used by the examples, the physical-locking baseline, and the
join layer.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..errors import TupleError
from .schema import Schema
from .statistics import RelationStatistics

__all__ = ["Relation"]


class Relation:
    """Tuple storage for one schema.

    Not usually constructed directly — use
    :meth:`repro.db.Database.create_relation`, which also wires up event
    delivery to the rule engine.

    With *threadsafe* (set from ``Database(threadsafe=True)``) one lock
    covers the stored tuples and their statistics: each mutation holds
    it across the store and the statistics update, and each statistics
    read across its fill or estimate.  Nothing else runs under it.
    Otherwise the lock is a no-op ``nullcontext()``.
    """

    __slots__ = ("schema", "_tuples", "_tid_counter", "_lock", "statistics")

    def __init__(self, schema: Schema, threadsafe: bool = False):
        self.schema = schema
        self._tuples: Dict[int, Dict[str, Any]] = {}
        self._tid_counter = 1
        self._lock: Any = threading.Lock() if threadsafe else nullcontext()
        self.statistics = RelationStatistics(
            self._tuples, schema.attribute_names, self._lock
        )

    @property
    def name(self) -> str:
        """The relation's name (from its schema)."""
        return self.schema.name

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, tid: int) -> bool:
        return tid in self._tuples

    # -- mutations ---------------------------------------------------------

    @property
    def next_tid(self) -> int:
        """The tid the next insert will receive."""
        return self._tid_counter

    def advance_tid_counter(self, floor: int) -> None:
        """Ensure future tids start at *floor* or later.

        Used when reloading persisted state: tuples restored under
        their original tids must not collide with tids handed out
        afterwards.  Never moves the counter backwards.
        """
        if floor > self._tid_counter:
            self._tid_counter = floor

    def insert(self, values: Mapping[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Validate and store a tuple; returns ``(tid, stored_tuple)``."""
        tup = self.schema.validate_tuple(values)
        with self._lock:
            tid = self._tid_counter
            self._tid_counter = tid + 1
            self._tuples[tid] = tup
            self.statistics.observe_insert(tup)
        return tid, tup

    def update(
        self, tid: int, changes: Mapping[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Apply *changes* to the tuple at *tid*; returns ``(old, new)``."""
        old = self._require(tid)
        validated = self.schema.validate_update(changes)
        new = dict(old)
        new.update(validated)
        with self._lock:
            self._tuples[tid] = new
            self.statistics.observe_update(old, new)
        return old, new

    def revert_update(self, tid: int, old: Dict[str, Any]) -> None:
        """Put back *old*, the image an :meth:`update` of *tid* replaced.

        The rollback of an update; the statistics follow.
        """
        with self._lock:
            new = self._tuples[tid]
            self._tuples[tid] = old
            self.statistics.observe_update(new, old)

    def delete(self, tid: int) -> Dict[str, Any]:
        """Remove and return the tuple at *tid*."""
        old = self._require(tid)
        with self._lock:
            del self._tuples[tid]
            self.statistics.observe_delete(old)
        return old

    def restore(self, tid: int, tup: Dict[str, Any]) -> None:
        """Re-install a tuple under its original tid (rollback, replay)."""
        if tid in self._tuples:
            raise TupleError(f"tid {tid} already present in {self.name!r}")
        self.advance_tid_counter(tid + 1)
        tup = dict(tup)
        with self._lock:
            self._tuples[tid] = tup
            self.statistics.observe_insert(tup)

    def _require(self, tid: int) -> Dict[str, Any]:
        try:
            return self._tuples[tid]
        except KeyError:
            raise TupleError(f"relation {self.name!r} has no tuple {tid}") from None

    # -- reads ---------------------------------------------------------------

    def get(self, tid: int) -> Dict[str, Any]:
        """Return (a copy of) the tuple stored at *tid*."""
        return dict(self._require(tid))

    def scan(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Iterate ``(tid, tuple)`` pairs; tuples are live references.

        Callers must not mutate the yielded dicts; use :meth:`update`.
        """
        return iter(self._tuples.items())

    def select(
        self, predicate: Callable[[Mapping[str, Any]], bool]
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """All ``(tid, tuple)`` pairs satisfying *predicate* (full scan)."""
        return [(tid, dict(tup)) for tid, tup in self._tuples.items() if predicate(tup)]

    def lookup(self, attribute: str, value: Any) -> List[int]:
        """Tids of tuples whose *attribute* equals *value* (full scan)."""
        self.schema.attribute(attribute)  # validates the name
        return [
            tid for tid, tup in self._tuples.items() if tup.get(attribute) == value
        ]

    def __repr__(self) -> str:
        return f"<Relation {self.name} ({len(self)} tuples)>"
