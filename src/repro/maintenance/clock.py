"""The one maintenance clock: op-count ticks, optional wall time.

Before this package existed the repo had several op-counters with
different ideas of what an "operation" is: ``_tuples_since_retune``
advanced on matched tuples only (and kept advancing on a frozen
index), the concurrent facade's compaction clock advanced on overlay
size, and the disk checkpointer had no counter at all (manual
cadence).  The divergence was a real bug class: two intervals set to
the same number fired at different times depending on which subset of
traffic each counter happened to see.

This clock defines **one documented op-count semantics**, shared by
every tier and pinned by ``tests/test_maintenance.py``:

* one op per matched tuple — ``match`` / ``match_idents`` advance by
  1, ``match_batch`` by ``len(batch)``;
* one op per predicate write — ``add`` / ``remove`` advance by 1,
  ``add_many`` by ``len(batch)``;
* a frozen index advances nothing — no maintenance runs while frozen,
  full stop (this closes the retune-while-frozen hole).

Wall time is strictly opt-in: ``time_source`` defaults to ``None``, in
which case the clock is a pure function of the op sequence and every
schedule derived from it is seed-reproducible.  Injecting a source
(``time.monotonic`` in production, a fake in tests) enables the
time-based half of task triggers and budgets without giving up
determinism anywhere it wasn't asked for.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["MaintenanceClock"]


class MaintenanceClock:
    """Monotone operation counter with an optional wall-clock source."""

    __slots__ = ("_ops", "time_source")

    def __init__(
        self, time_source: Optional[Callable[[], float]] = None
    ) -> None:
        self._ops = 0
        #: Optional wall-clock callable; ``None`` keeps the clock (and
        #: everything scheduled off it) deterministic.
        self.time_source = time_source

    @property
    def ops(self) -> int:
        """Total operations observed since construction."""
        return self._ops

    def advance(self, ops: int = 1) -> int:
        """Advance by *ops* operations; returns the new total.

        Negative advances are rejected — the clock is monotone, which
        is what lets the scheduler store "next due at op N" marks.
        """
        if ops < 0:
            raise ValueError(f"clock cannot run backwards (ops={ops})")
        self._ops += ops
        return self._ops

    def now(self) -> Optional[float]:
        """Current wall time, or ``None`` when no source is injected."""
        if self.time_source is None:
            return None
        return self.time_source()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        timed = "timed" if self.time_source is not None else "op-only"
        return f"MaintenanceClock(ops={self._ops}, {timed})"
