"""The user-facing knob bundle for the maintenance plane.

One frozen dataclass travels from ``Database(maintenance=...)``
through the registry into both facades, the same way ``RetryPolicy``
travels into the rule engine.  ``None`` intervals mean "don't register
that task"; a policy with every interval ``None`` still carries the
shared knobs (budgets, backoff, quarantine) for tasks the facades
register themselves.  The concurrent facade's synchronous fold
threshold is not one of them: its constructor's
``compaction_threshold`` is that threshold's one setter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Optional

__all__ = ["MaintenancePolicy"]


@dataclass(frozen=True)
class MaintenancePolicy:
    """Declarative configuration for :class:`MaintenanceScheduler`.

    Interval semantics follow the clock's documented op-count: an
    interval of ``N`` means "run once every N matched tuples +
    predicate writes".  All intervals are optional; a facade only
    registers the tasks whose intervals (or prerequisites, e.g. the
    disk tier for eviction) are present.

    ``budget_ops`` / ``budget_seconds`` bound a *single task run* —
    the disk checkpointer charges one op per shard, so
    ``budget_ops=4`` means "at most four shards per checkpoint tick".
    ``backoff_multiplier`` / ``max_backoff_intervals`` shape the
    exponential retry delay (measured in multiples of the failing
    task's own interval), and ``quarantine_failures`` consecutive
    failures move a task to the dead-letter list — the same poison-
    pill discipline :class:`repro.rules.failures.RetryPolicy` applies
    to rule actions.
    """

    enabled: bool = True
    retune_interval: Optional[int] = None
    compact_interval: Optional[int] = None
    checkpoint_interval: Optional[int] = None
    evict_interval: Optional[int] = None
    budget_ops: Optional[int] = None
    budget_seconds: Optional[float] = None
    backoff_multiplier: float = 2.0
    max_backoff_intervals: float = 8.0
    quarantine_failures: int = 3
    #: Optional wall-clock source handed to the clock; keep ``None``
    #: for fully deterministic schedules.
    time_source: Optional[Callable[[], float]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in (
            "retune_interval",
            "compact_interval",
            "checkpoint_interval",
            "evict_interval",
            "budget_ops",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (got {value})")
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ValueError(
                f"budget_seconds must be positive (got {self.budget_seconds})"
            )
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                "backoff_multiplier must be >= 1.0 "
                f"(got {self.backoff_multiplier})"
            )
        if self.max_backoff_intervals < 1.0:
            raise ValueError(
                "max_backoff_intervals must be >= 1.0 "
                f"(got {self.max_backoff_intervals})"
            )
        if self.quarantine_failures < 1:
            raise ValueError(
                "quarantine_failures must be >= 1 "
                f"(got {self.quarantine_failures})"
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view for reports and the CLI (no callables)."""
        doc: Dict[str, Any] = {}
        for spec in fields(self):
            if spec.name == "time_source":
                doc["timed"] = self.time_source is not None
                continue
            doc[spec.name] = getattr(self, spec.name)
        return doc
