"""Maintenance tasks and the budget they run under.

A task is deliberately small: a name, a cost class (so reports and
budgets can tell a cheap in-memory pass from an fsync-heavy
checkpoint), a trigger interval in clock ops (plus an optional
interval in seconds, only live when the clock has a time source), and
a ``run(budget, relation)`` body.  Everything stateful — last-run
marks, failure counts, backoff, quarantine — lives in the scheduler,
so a task body stays a plain callable and facades can register
closures over ``self`` without ceremony.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

__all__ = [
    "COST_CLASSES",
    "CallbackTask",
    "MaintenanceBudget",
    "MaintenanceTask",
]

#: Coarse work classification, surfaced in reports and used to pick
#: sensible default priorities: ``cheap`` covers in-memory
#: bookkeeping, ``bulk`` covers structure rebuilds (retune,
#: compaction), ``io`` covers disk traffic (checkpoint, evict).
COST_CLASSES = ("cheap", "bulk", "io")


class MaintenanceBudget:
    """Op/time allowance for one task run.

    Long tasks call :meth:`charge` per unit of work and stop when
    :meth:`exhausted` turns true — the disk checkpointer charges one
    op per shard, so a preempted pass still ends on a shard boundary
    and publishes a consistent manifest.  With no limits (both
    ``None``) the budget never exhausts; with no *timer* the time
    limit is inert, keeping budget behaviour deterministic unless a
    wall clock was explicitly injected.
    """

    __slots__ = ("ops", "seconds", "_timer", "_started", "spent_ops")

    def __init__(
        self,
        ops: Optional[int] = None,
        seconds: Optional[float] = None,
        timer: Optional[Callable[[], float]] = None,
    ) -> None:
        if ops is not None and ops <= 0:
            raise ValueError(f"budget ops must be positive (got {ops})")
        if seconds is not None and seconds <= 0:
            raise ValueError(f"budget seconds must be positive (got {seconds})")
        self.ops = ops
        self.seconds = seconds
        self._timer = timer
        self._started = timer() if timer is not None else None
        self.spent_ops = 0

    def charge(self, ops: int = 1) -> None:
        """Record *ops* units of work done by the running task."""
        self.spent_ops += ops

    def exhausted(self) -> bool:
        """True once either the op or the time allowance is spent."""
        if self.ops is not None and self.spent_ops >= self.ops:
            return True
        if (
            self.seconds is not None
            and self._timer is not None
            and self._started is not None
            and self._timer() - self._started >= self.seconds
        ):
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MaintenanceBudget(ops={self.ops}, seconds={self.seconds}, "
            f"spent_ops={self.spent_ops})"
        )


@runtime_checkable
class MaintenanceTask(Protocol):
    """What the scheduler needs from a registered task."""

    name: str
    cost_class: str
    priority: int
    interval_ops: Optional[int]
    interval_seconds: Optional[float]

    def run(self, budget: MaintenanceBudget, relation: Optional[str]) -> Any:
        """Do one slice of maintenance work within *budget*.

        *relation* is the relation whose traffic triggered the tick,
        or ``None`` for a global tick (manual ``run_task``, time-based
        trigger); tasks scoped per relation use it to avoid touching
        cold shards.
        """
        ...


class CallbackTask:
    """A :class:`MaintenanceTask` wrapping a plain callable.

    The callable receives ``(budget, relation)``; its return value is
    kept as the task's ``last_result`` in the scheduler report.
    """

    __slots__ = (
        "name",
        "cost_class",
        "priority",
        "interval_ops",
        "interval_seconds",
        "_fn",
    )

    def __init__(
        self,
        name: str,
        fn: Callable[[MaintenanceBudget, Optional[str]], Any],
        interval_ops: Optional[int] = None,
        interval_seconds: Optional[float] = None,
        priority: int = 0,
        cost_class: str = "cheap",
    ) -> None:
        if not name:
            raise ValueError("task name must be non-empty")
        if cost_class not in COST_CLASSES:
            raise ValueError(
                f"unknown cost class {cost_class!r}; expected one of "
                f"{', '.join(COST_CLASSES)}"
            )
        if interval_ops is not None and interval_ops <= 0:
            raise ValueError(
                f"interval_ops must be positive (got {interval_ops})"
            )
        if interval_seconds is not None and interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive (got {interval_seconds})"
            )
        if interval_ops is None and interval_seconds is None:
            raise ValueError(
                f"task {name!r} needs an op or time interval to ever run"
            )
        self.name = name
        self.cost_class = cost_class
        self.priority = priority
        self.interval_ops = interval_ops
        self.interval_seconds = interval_seconds
        self._fn = fn

    def run(self, budget: MaintenanceBudget, relation: Optional[str]) -> Any:
        return self._fn(budget, relation)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CallbackTask({self.name!r}, interval_ops={self.interval_ops}, "
            f"cost_class={self.cost_class!r}, priority={self.priority})"
        )
