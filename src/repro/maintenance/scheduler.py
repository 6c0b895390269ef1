"""The maintenance scheduler: due-ness, budgets, backoff, quarantine.

Design rules, in order of importance:

1. **A failing task never breaks matching.**  ``advance()`` is called
   from the hot match/write paths; no exception a task raises (real or
   injected via ``maint.task_raises``) may escape it.  Failures are
   recorded, backed off, and eventually quarantined — the dead-letter
   discipline of :mod:`repro.rules.failures` applied to background
   work.
2. **Deterministic by default.**  Due-ness is computed from the
   op-count clock; with no injected time source, the same op sequence
   triggers the same tasks at the same ticks in the same order
   (priority desc, then registration order).
3. **Maintenance never blocks matching.**  The run lock is taken
   non-blocking: whichever thread's tick finds work runs it; every
   other thread just accumulates ops and carries on.  A task that
   itself causes ticks (compaction re-publishing snapshots) cannot
   recurse for the same reason.

Backoff is measured in op-space, in multiples of the failing task's
own interval: after the *k*-th consecutive failure the task is not due
again until ``interval_ops * min(multiplier ** (k-1), max_intervals)``
further ops, mirroring :meth:`repro.rules.failures.RetryPolicy.delay`
(which measures in seconds — wall time is not available here by
default).  ``quarantine_failures`` consecutive failures move the task
to the dead-letter list; it stays registered (and visible in
``report()``) but only an explicit :meth:`run_task` revives it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..testing.faults import fault_point
from .clock import MaintenanceClock
from .policy import MaintenancePolicy
from .tasks import CallbackTask, MaintenanceBudget, MaintenanceTask

__all__ = ["MaintenanceFailure", "MaintenanceScheduler", "TaskState"]


@dataclass
class MaintenanceFailure:
    """Dead-letter record for one failed task run.

    The same shape as :class:`repro.rules.failures.ActionFailure`
    (sequence number, name, context, error, attempt count, poison
    flag) so operators read one failure vocabulary across foreground
    rule actions and background maintenance.
    """

    seq: int
    task: str
    relation: Optional[str]
    error: Exception
    ops: int
    attempts: int
    quarantined: bool = False

    def describe(self) -> str:
        scope = self.relation if self.relation is not None else "*"
        state = "quarantined" if self.quarantined else "backing off"
        return (
            f"#{self.seq} task={self.task} relation={scope} "
            f"at op {self.ops} attempt {self.attempts}: "
            f"{type(self.error).__name__}: {self.error} ({state})"
        )


@dataclass
class TaskState:
    """Mutable per-task bookkeeping owned by the scheduler."""

    task: MaintenanceTask
    order: int
    last_run_ops: int = 0
    last_run_time: Optional[float] = None
    next_due_ops: Optional[int] = None
    runs: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    quarantined: bool = False
    last_error: Optional[str] = None
    last_result: Any = field(default=None, repr=False)

    def as_dict(self) -> Dict[str, Any]:
        task = self.task
        return {
            "name": task.name,
            "cost_class": task.cost_class,
            "priority": task.priority,
            "interval_ops": task.interval_ops,
            "interval_seconds": task.interval_seconds,
            "last_run_ops": self.last_run_ops,
            "next_due_ops": self.next_due_ops,
            "runs": self.runs,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "quarantined": self.quarantined,
            "last_error": self.last_error,
        }


class MaintenanceScheduler:
    """Runs registered :class:`MaintenanceTask`\\ s off one clock."""

    def __init__(
        self,
        policy: Optional[MaintenancePolicy] = None,
        clock: Optional[MaintenanceClock] = None,
        observer: Any = None,
    ) -> None:
        self.policy = policy if policy is not None else MaintenancePolicy()
        self.clock = (
            clock
            if clock is not None
            else MaintenanceClock(time_source=self.policy.time_source)
        )
        self._observer = observer
        self._tasks: Dict[str, TaskState] = {}
        self._failures: List[MaintenanceFailure] = []
        self._failure_seq = 0
        self._ops_lock = threading.Lock()
        self._run_lock = threading.Lock()

    # -- registration ---------------------------------------------------

    def register(self, task: MaintenanceTask) -> MaintenanceTask:
        """Register *task*; names are unique, order is significant."""
        if task.name in self._tasks:
            raise ValueError(f"task {task.name!r} already registered")
        state = TaskState(task=task, order=len(self._tasks))
        state.last_run_ops = self.clock.ops
        if task.interval_ops is not None:
            state.next_due_ops = self.clock.ops + task.interval_ops
        state.last_run_time = self.clock.now()
        self._tasks[task.name] = state
        return task

    def register_callback(
        self,
        name: str,
        fn: Callable[[MaintenanceBudget, Optional[str]], Any],
        interval_ops: Optional[int] = None,
        interval_seconds: Optional[float] = None,
        priority: int = 0,
        cost_class: str = "cheap",
    ) -> CallbackTask:
        """Convenience: wrap *fn* in a :class:`CallbackTask` and register."""
        task = CallbackTask(
            name,
            fn,
            interval_ops=interval_ops,
            interval_seconds=interval_seconds,
            priority=priority,
            cost_class=cost_class,
        )
        self.register(task)
        return task

    def tasks(self) -> List[str]:
        """Registered task names in registration order."""
        return list(self._tasks)

    @property
    def failures(self) -> List[MaintenanceFailure]:
        """Dead-letter list of failed runs, oldest first."""
        return list(self._failures)

    # -- ticking --------------------------------------------------------

    def advance(self, ops: int = 1, relation: Optional[str] = None) -> List[str]:
        """Advance the clock by *ops* and run whatever came due.

        Returns the names of tasks that ran (successfully or not) on
        this tick.  Never raises on task failure; never blocks if
        another thread is already running maintenance.
        """
        with self._ops_lock:
            self.clock.advance(ops)
        if not self.policy.enabled or not self._tasks or ops == 0:
            return []
        if not self._run_lock.acquire(blocking=False):
            return []
        try:
            return self._run_due(relation)
        finally:
            self._run_lock.release()

    def run_task(self, name: str, relation: Optional[str] = None) -> Any:
        """Run *name* immediately, ignoring interval/backoff/quarantine.

        The one escape hatch from quarantine: a manual run that
        succeeds clears the task's failure streak and re-enables it.
        Unlike :meth:`advance`, a failure here *raises*, because the
        caller explicitly asked for this task.
        """
        state = self._tasks.get(name)
        if state is None:
            raise KeyError(
                f"unknown maintenance task {name!r}; registered: "
                f"{', '.join(self._tasks) or '(none)'}"
            )
        with self._run_lock:
            error = self._run_one(state, relation)
        if error is not None:
            raise error
        return state.last_result

    def _run_due(self, relation: Optional[str]) -> List[str]:
        now_ops = self.clock.ops
        now_time = self.clock.now()
        due = [
            state
            for state in self._tasks.values()
            if self._is_due(state, now_ops, now_time)
        ]
        if not due:
            return []
        # priority first, then registration order: deterministic for
        # identical op sequences.
        due.sort(key=lambda state: (-state.task.priority, state.order))
        ran = []
        for state in due:
            self._run_one(state, relation)
            ran.append(state.task.name)
        return ran

    def _is_due(
        self,
        state: TaskState,
        now_ops: int,
        now_time: Optional[float],
    ) -> bool:
        if state.quarantined:
            return False
        task = state.task
        if state.next_due_ops is not None and now_ops >= state.next_due_ops:
            return True
        if (
            task.interval_seconds is not None
            and now_time is not None
            and state.last_run_time is not None
            and now_time - state.last_run_time >= task.interval_seconds
        ):
            return True
        return False

    def _run_one(
        self, state: TaskState, relation: Optional[str]
    ) -> Optional[Exception]:
        task = state.task
        budget = MaintenanceBudget(
            ops=self.policy.budget_ops,
            seconds=self.policy.budget_seconds,
            timer=self.clock.time_source,
        )
        error: Optional[Exception] = None
        try:
            fault_point("maint.task_raises")
            state.last_result = task.run(budget, relation)
        except Exception as exc:  # noqa: BLE001 - the whole point
            error = exc
        state.runs += 1
        state.last_run_ops = self.clock.ops
        state.last_run_time = self.clock.now()
        if error is None:
            state.consecutive_failures = 0
            state.last_error = None
            if state.quarantined:
                state.quarantined = False
            if task.interval_ops is not None:
                state.next_due_ops = self.clock.ops + task.interval_ops
        else:
            self._record_failure(state, relation, error)
        if self._observer is not None:
            self._observer.on_maintenance(
                task.name, error is None, budget.spent_ops
            )
        return error

    def _record_failure(
        self,
        state: TaskState,
        relation: Optional[str],
        error: Exception,
    ) -> None:
        policy = self.policy
        state.failures += 1
        state.consecutive_failures += 1
        state.last_error = f"{type(error).__name__}: {error}"
        quarantine = state.consecutive_failures >= policy.quarantine_failures
        state.quarantined = quarantine
        interval = state.task.interval_ops
        if interval is not None:
            scale = min(
                policy.backoff_multiplier ** (state.consecutive_failures - 1),
                policy.max_backoff_intervals,
            )
            state.next_due_ops = self.clock.ops + int(interval * scale)
        self._failure_seq += 1
        self._failures.append(
            MaintenanceFailure(
                seq=self._failure_seq,
                task=state.task.name,
                relation=relation,
                error=error,
                ops=self.clock.ops,
                attempts=state.consecutive_failures,
                quarantined=quarantine,
            )
        )

    # -- reporting ------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """One document: clock, tasks, policy, dead-letter tail."""
        return {
            "enabled": self.policy.enabled,
            "clock_ops": self.clock.ops,
            "timed": self.clock.time_source is not None,
            "tasks": {
                name: state.as_dict() for name, state in self._tasks.items()
            },
            "policy": self.policy.as_dict(),
            "failures": [f.describe() for f in self._failures],
        }
