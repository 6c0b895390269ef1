"""The agenda (conflict set) of a forward-chaining rule engine.

When a tuple event matches several rules, their instantiations enter
the agenda and fire in *conflict-resolution order*: higher priority
first, and among equal priorities most-recent-first (the OPS5 recency
heuristic, which makes rule cascades depth-first).

The agenda also enforces the engine's firing limit: a rule cascade that
exceeds it raises :class:`~repro.errors.RuleCycleError` rather than
looping forever.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Iterator, List, Tuple

from ..errors import RuleCycleError
from .rule import Rule, RuleContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .failures import ActionFailure

__all__ = ["Agenda", "DeadLetterQueue"]


class Agenda:
    """A priority queue of pending rule instantiations.

    Within one priority, most-recent-first is a stack, so each priority
    has one LIFO *level*: parallel lists of rules and contexts.
    ``_priorities`` holds the priorities whose level is not empty, in
    ascending order; the next firing is the top of the last one's level.
    Posting is two list appends.
    """

    def __init__(self, max_firings: int = 10_000):
        self._levels: Dict[int, Tuple[List[Rule], List[RuleContext]]] = {}
        self._priorities: List[int] = []
        self.max_firings = max_firings
        self.total_fired = 0

    def post(self, rule: Rule, context: RuleContext) -> None:
        """Add one instantiation to the agenda."""
        level = self._levels.get(rule.priority)
        if level is None:
            level = self._levels[rule.priority] = ([], [])
        if not level[0]:
            insort(self._priorities, rule.priority)
        level[0].append(rule)
        level[1].append(context)

    def mark(self) -> Dict[int, int]:
        """The length of every level, for :meth:`truncate`."""
        return {priority: len(rules) for priority, (rules, _) in self._levels.items()}

    def truncate(self, mark: Dict[int, int]) -> None:
        """Drop every instantiation posted since *mark* was taken.

        A post appends to its level, so the posts since the mark sit
        past the marked lengths as long as nothing was popped since —
        which holds while one action runs: the drain that pops waits
        for it.
        """
        for priority, (rules, contexts) in self._levels.items():
            keep = mark.get(priority, 0)
            if len(rules) > keep:
                del rules[keep:]
                del contexts[keep:]
                if not rules:
                    self._priorities.remove(priority)

    def __len__(self) -> int:
        return sum(len(rules) for rules, _ in self._levels.values())

    def __bool__(self) -> bool:
        return bool(self._priorities)

    def pop(self) -> Tuple[Rule, RuleContext]:
        """Remove and return the next instantiation to fire."""
        if not self._priorities:
            raise IndexError("pop from an empty agenda")
        priority = self._priorities[-1]
        rules, contexts = self._levels[priority]
        rule = rules.pop()
        context = contexts.pop()
        if not rules:
            self._priorities.pop()
        return rule, context

    def drain(self) -> Iterator[Tuple[Rule, RuleContext]]:
        """Yield instantiations in firing order until the agenda is empty.

        New instantiations posted while draining (by rule actions) are
        included.  Raises :class:`~repro.errors.RuleCycleError` when the
        cumulative firing count passes :attr:`max_firings`.  The
        instantiations already pending when the drain starts are the
        triggering mutation's own firings, not a cascade, so they do not
        count against the limit.
        """
        limit = self.max_firings + len(self)
        while self._priorities:
            self.total_fired += 1
            if self.total_fired > limit:
                self.clear()
                raise RuleCycleError(
                    f"rule firing did not reach a fixpoint within "
                    f"{self.max_firings} firings (likely a rule cycle)"
                )
            yield self.pop()

    def clear(self) -> None:
        """Discard all pending instantiations."""
        self._levels.clear()
        self._priorities.clear()

    def reset_counter(self) -> None:
        """Reset the cumulative firing count (new top-level transaction)."""
        self.total_fired = 0


class DeadLetterQueue:
    """Quarantined rule firings, in quarantine order.

    A bounded deque: when *capacity* is exceeded the **oldest** failure
    is dropped, so a rule failing in a tight loop cannot grow memory
    without bound — the most recent evidence is what debugging needs.
    """

    def __init__(self, capacity: int = 1000):
        if capacity < 1:
            raise ValueError("dead-letter capacity must be >= 1")
        self.capacity = capacity
        self._entries: Deque["ActionFailure"] = deque(maxlen=capacity)
        self.total_quarantined = 0
        self.dropped = 0

    def add(self, failure: "ActionFailure") -> None:
        """Record one quarantined firing."""
        if len(self._entries) == self.capacity:
            self.dropped += 1
        self._entries.append(failure)
        self.total_quarantined += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator["ActionFailure"]:
        return iter(list(self._entries))

    def by_rule(self) -> Dict[str, List["ActionFailure"]]:
        """Failures grouped by rule name, preserving quarantine order."""
        grouped: Dict[str, List["ActionFailure"]] = {}
        for failure in self._entries:
            grouped.setdefault(failure.rule_name, []).append(failure)
        return grouped

    def drain_entries(self) -> List["ActionFailure"]:
        """Remove and return all failures, oldest first."""
        entries = list(self._entries)
        self._entries.clear()
        return entries

    def clear(self) -> None:
        """Discard all recorded failures."""
        self._entries.clear()

    def __repr__(self) -> str:
        return (
            f"<DeadLetterQueue {len(self._entries)}/{self.capacity} "
            f"(total {self.total_quarantined}, dropped {self.dropped})>"
        )
