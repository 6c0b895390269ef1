"""The unified maintenance plane: one clock, one scheduler, all tiers.

The repo grew separate self-maintenance mechanisms — entry-clause
retuning, the concurrent facade's compaction clock, and
the disk tier's checkpoint/eviction machinery — each with its own
bespoke op-counter, trigger condition, and failure handling.  This
package replaces every bespoke counter with a single deterministic
substrate:

* :class:`MaintenanceClock` — the one op-count clock.  Its tick
  semantics (what counts as "an operation") are documented on the
  class and pinned by regression tests; every facade advances the same
  clock for the same events.
* :class:`MaintenanceTask` / :class:`CallbackTask` — the unit of
  background work: a name, a cost class, a trigger interval, and a
  ``run(budget, relation)`` body.
* :class:`MaintenanceBudget` — op/time budget handed to each run so
  long tasks (checkpoints, eviction sweeps) can stop at a consistent
  point and resume on a later tick.
* :class:`MaintenanceScheduler` — owns registered tasks, decides
  due-ness from the clock, runs tasks under budget with per-task
  priorities, applies exponential backoff after failures, and
  quarantines a task that keeps failing (the dead-letter discipline of
  :mod:`repro.rules.failures`, applied to background work).  A failing
  task *never* breaks matching: exceptions stop at the scheduler.
* :class:`MaintenancePolicy` — the user-facing knob bundle accepted by
  ``PredicateIndex(maintenance=...)``,
  ``ConcurrentPredicateIndex(maintenance=...)``, and
  ``Database(maintenance=...)``.

Determinism contract: with no injected ``time_source`` the plane is a
pure function of the op sequence — the same workload replay triggers
the same tasks at the same ticks, which is what makes the
tick-vs-twin differential suite in ``tests/test_maintenance.py``
meaningful.
"""

from .clock import MaintenanceClock
from .policy import MaintenancePolicy
from .scheduler import MaintenanceFailure, MaintenanceScheduler, TaskState
from .tasks import CallbackTask, MaintenanceBudget, MaintenanceTask

__all__ = [
    "CallbackTask",
    "MaintenanceBudget",
    "MaintenanceClock",
    "MaintenanceFailure",
    "MaintenancePolicy",
    "MaintenanceScheduler",
    "MaintenanceTask",
    "TaskState",
]
