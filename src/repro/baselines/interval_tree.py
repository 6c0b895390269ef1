"""Static centered interval tree (Edelsbrunner / McCreight style).

The second classic static structure the paper contrasts with the
IBS-tree (Section 4.1).  Each node holds a *center* value; intervals
containing the center live at the node in two sorted lists (ascending
lows, descending highs), intervals entirely below go left, entirely
above go right.  A stabbing query for ``x`` walks one root-to-leaf
path; at each node it scans the appropriate sorted list, stopping at
the first interval that can no longer contain ``x`` — giving
``O(log N + L)`` total.

Like the segment tree this structure is static: ``insert``/``delete``
raise, and the ablation harness charges full rebuilds.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..core.intervals import MINUS_INF, PLUS_INF, Interval, is_infinite
from ..errors import TreeError
from .base import IntervalIndex

__all__ = ["StaticIntervalTree"]


class _IntervalNode:
    __slots__ = ("center", "by_low", "by_high", "left", "right")

    def __init__(self, center: Any):
        self.center = center
        #: intervals containing center, ascending by low bound
        self.by_low: List[Tuple[Interval, Hashable]] = []
        #: same intervals, descending by high bound
        self.by_high: List[Tuple[Interval, Hashable]] = []
        self.left: Optional["_IntervalNode"] = None
        self.right: Optional["_IntervalNode"] = None


def _low_key(interval: Interval) -> Tuple[int, Any, int]:
    """Sort key for low bounds: -inf first, then value, open after closed."""
    if is_infinite(interval.low):
        return (0, 0, 0)
    return (1, interval.low, 0 if interval.low_inclusive else 1)


def _high_key(interval: Interval) -> Tuple[int, Any, int]:
    """Sort key for high bounds (descending order uses reverse=True)."""
    if is_infinite(interval.high):
        return (1, 0, 1)
    return (0, interval.high, 1 if interval.high_inclusive else 0)


class StaticIntervalTree(IntervalIndex):
    """A centered interval tree built from a fixed interval collection."""

    name = "interval"
    supports_dynamic_insert = False
    supports_dynamic_delete = False

    def __init__(self, intervals: Iterable[Tuple[Interval, Hashable]] = ()):
        self._intervals: Dict[Hashable, Interval] = {}
        for interval, ident in intervals:
            if ident in self._intervals:
                raise TreeError(f"duplicate interval ident {ident!r}")
            self._intervals[ident] = interval
        self._root = self._build(list(self._intervals.items()))

    def _build(
        self, items: List[Tuple[Hashable, Interval]]
    ) -> Optional[_IntervalNode]:
        if not items:
            return None
        center = self._pick_center(items)
        node = _IntervalNode(center)
        below: List[Tuple[Hashable, Interval]] = []
        above: List[Tuple[Hashable, Interval]] = []
        here: List[Tuple[Interval, Hashable]] = []
        for ident, interval in items:
            if self._entirely_below(interval, center):
                below.append((ident, interval))
            elif self._entirely_above(interval, center):
                above.append((ident, interval))
            else:
                here.append((interval, ident))
        node.by_low = sorted(here, key=lambda pair: _low_key(pair[0]))
        node.by_high = sorted(here, key=lambda pair: _high_key(pair[0]), reverse=True)
        node.left = self._build(below)
        node.right = self._build(above)
        return node

    @staticmethod
    def _pick_center(items: List[Tuple[Hashable, Interval]]) -> Any:
        """Median of the finite endpoints (balanced split heuristic)."""
        endpoints: List[Any] = []
        for _, interval in items:
            if not is_infinite(interval.low):
                endpoints.append(interval.low)
            if not is_infinite(interval.high):
                endpoints.append(interval.high)
        if not endpoints:
            return 0  # all-unbounded set: any center works
        endpoints.sort()
        return endpoints[len(endpoints) // 2]

    @staticmethod
    def _entirely_below(interval: Interval, center: Any) -> bool:
        # Strict: intervals merely *touching* the center (even with an
        # open endpoint) stay at the node.  This guarantees the median
        # endpoint keeps at least one interval, so recursion always
        # makes progress; the query filters the x == center case.
        if is_infinite(interval.high):
            return False
        return interval.high < center

    @staticmethod
    def _entirely_above(interval: Interval, center: Any) -> bool:
        if is_infinite(interval.low):
            return False
        return interval.low > center

    # -- queries ----------------------------------------------------------

    def stab(self, x: Any) -> Set[Hashable]:
        result: Set[Hashable] = set()
        if x is MINUS_INF or x is PLUS_INF:
            return result  # no interval contains a sentinel
        node = self._root
        while node is not None:
            if x == node.center:
                # intervals here span the center but may exclude the
                # point itself through an open endpoint: filter exactly
                result.update(
                    ident
                    for interval, ident in node.by_low
                    if interval.contains(x)
                )
                break
            if x < node.center:
                # scan ascending lows until one starts above x
                for interval, ident in node.by_low:
                    if not is_infinite(interval.low):
                        if interval.low > x:
                            break
                        if interval.low == x and not interval.low_inclusive:
                            break
                    result.add(ident)
                node = node.left
            else:
                # scan descending highs until one ends below x
                for interval, ident in node.by_high:
                    if not is_infinite(interval.high):
                        if interval.high < x:
                            break
                        if interval.high == x and not interval.high_inclusive:
                            break
                    result.add(ident)
                node = node.right
        return result

    # -- static-structure behaviour ----------------------------------------

    def insert(self, interval: Interval, ident: Optional[Hashable] = None) -> Hashable:
        raise TreeError(
            "interval trees are static: rebuild with the full interval set"
        )

    def delete(self, ident: Hashable) -> None:
        raise TreeError(
            "interval trees are static: rebuild with the reduced interval set"
        )

    def rebuilt_with(self, interval: Interval, ident: Hashable) -> "StaticIntervalTree":
        """A new tree containing this tree's intervals plus one more."""
        items = list(self._intervals.items()) + [(ident, interval)]
        return StaticIntervalTree((iv, i) for i, iv in items)

    def rebuilt_without(self, ident: Hashable) -> "StaticIntervalTree":
        """A new tree containing this tree's intervals minus one."""
        if ident not in self._intervals:
            raise TreeError(f"unknown interval ident {ident!r}")
        return StaticIntervalTree(
            (iv, i) for i, iv in self._intervals.items() if i != ident
        )

    def __len__(self) -> int:
        return len(self._intervals)
