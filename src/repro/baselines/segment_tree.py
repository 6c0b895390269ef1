"""Static segment tree for stabbing queries.

"Data structures for indexing intervals in a static environment where
all intervals are known in advance include segment trees and interval
trees ... they do not allow dynamic insertion and deletion of
predicates."  — paper, Section 4.1.

The segment tree is built once over the *elementary intervals* induced
by the endpoint set: for sorted endpoints ``v1 < v2 < ... < vm`` the
elementary intervals are::

    (-inf, v1), [v1, v1], (v1, v2), [v2, v2], ..., [vm, vm], (vm, +inf)

Each input interval decomposes into O(log m) canonical nodes; a
stabbing query descends to the elementary interval containing the query
value, collecting the canonical sets on the path.  Because elementary
intervals separate each endpoint *point* from the open gaps around it,
open/closed/unbounded semantics are all answered exactly.

``insert``/``delete`` raise :class:`~repro.errors.TreeError` —
faithfully modelling the property that motivated the IBS-tree.  The
ABL1 ablation charges this structure its full rebuild cost on every
modification.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.intervals import MINUS_INF, PLUS_INF, Interval, is_infinite
from ..errors import TreeError
from .base import IntervalIndex

__all__ = ["SegmentTree"]


class _SegmentNode:
    __slots__ = ("lo", "hi", "left", "right", "canon")

    def __init__(self, lo: int, hi: int):
        # Elementary-slot range [lo, hi] (inclusive indices).
        self.lo = lo
        self.hi = hi
        self.left: Optional["_SegmentNode"] = None
        self.right: Optional["_SegmentNode"] = None
        self.canon: Set[Hashable] = set()


class SegmentTree(IntervalIndex):
    """A classic segment tree built from a fixed interval collection."""

    name = "segment"
    supports_dynamic_insert = False
    supports_dynamic_delete = False

    def __init__(self, intervals: Iterable[Tuple[Interval, Hashable]] = ()):
        self._intervals: Dict[Hashable, Interval] = {}
        for interval, ident in intervals:
            if ident in self._intervals:
                raise TreeError(f"duplicate interval ident {ident!r}")
            self._intervals[ident] = interval
        self._build()

    @classmethod
    def from_index(cls, items: Iterable[Tuple[Hashable, Interval]]) -> "SegmentTree":
        """Build from ``(ident, interval)`` pairs (e.g. ``tree.items()``)."""
        return cls((interval, ident) for ident, interval in items)

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        endpoints: List[Any] = sorted(
            {
                value
                for interval in self._intervals.values()
                for value in (interval.low, interval.high)
                if not is_infinite(value)
            }
        )
        self._endpoints = endpoints
        # Elementary slots: even index 2k = open gap before endpoint k,
        # odd index 2k+1 = the endpoint point itself; final even slot is
        # the open gap above the last endpoint.
        slot_count = 2 * len(endpoints) + 1
        self._root = self._build_node(0, slot_count - 1)
        for ident, interval in self._intervals.items():
            lo_slot, hi_slot = self._slot_range(interval)
            if lo_slot <= hi_slot:
                self._insert_canonical(self._root, lo_slot, hi_slot, ident)

    def _build_node(self, lo: int, hi: int) -> _SegmentNode:
        node = _SegmentNode(lo, hi)
        if lo < hi:
            mid = (lo + hi) // 2
            node.left = self._build_node(lo, mid)
            node.right = self._build_node(mid + 1, hi)
        return node

    def _slot_range(self, interval: Interval) -> Tuple[int, int]:
        """The inclusive range of elementary slots the interval covers."""
        import bisect

        if is_infinite(interval.low):
            lo_slot = 0
        else:
            k = bisect.bisect_left(self._endpoints, interval.low)
            lo_slot = 2 * k + 1 if interval.low_inclusive else 2 * k + 2
        if is_infinite(interval.high):
            hi_slot = 2 * len(self._endpoints)
        else:
            k = bisect.bisect_left(self._endpoints, interval.high)
            hi_slot = 2 * k + 1 if interval.high_inclusive else 2 * k
        return lo_slot, hi_slot

    def _insert_canonical(
        self, node: _SegmentNode, lo: int, hi: int, ident: Hashable
    ) -> None:
        if lo <= node.lo and node.hi <= hi:
            node.canon.add(ident)
            return
        mid = (node.lo + node.hi) // 2
        if lo <= mid:
            self._insert_canonical(node.left, lo, min(hi, mid), ident)
        if hi > mid:
            self._insert_canonical(node.right, max(lo, mid + 1), hi, ident)

    # -- queries -------------------------------------------------------------

    def stab(self, x: Any) -> Set[Hashable]:
        result: Set[Hashable] = set()
        if x is MINUS_INF or x is PLUS_INF:
            return result  # no interval contains a sentinel
        slot = self._slot_of(x)
        node: Optional[_SegmentNode] = self._root
        while node is not None:
            result |= node.canon
            if node.lo == node.hi:
                break
            mid = (node.lo + node.hi) // 2
            node = node.left if slot <= mid else node.right
        return result

    def _slot_of(self, x: Any) -> int:
        import bisect

        k = bisect.bisect_left(self._endpoints, x)
        if k < len(self._endpoints) and self._endpoints[k] == x:
            return 2 * k + 1  # the endpoint's own point slot
        return 2 * k  # the open gap below endpoint k

    # -- static-structure behaviour --------------------------------------------

    def insert(self, interval: Interval, ident: Optional[Hashable] = None) -> Hashable:
        raise TreeError(
            "segment trees are static: rebuild with the full interval set "
            "(use SegmentTree(intervals) or rebuilt_with())"
        )

    def delete(self, ident: Hashable) -> None:
        raise TreeError(
            "segment trees are static: rebuild with the reduced interval set "
            "(use rebuilt_without())"
        )

    def rebuilt_with(self, interval: Interval, ident: Hashable) -> "SegmentTree":
        """A new tree containing this tree's intervals plus one more."""
        items = list(self._intervals.items()) + [(ident, interval)]
        return SegmentTree((iv, i) for i, iv in items)

    def rebuilt_without(self, ident: Hashable) -> "SegmentTree":
        """A new tree containing this tree's intervals minus one."""
        if ident not in self._intervals:
            raise TreeError(f"unknown interval ident {ident!r}")
        return SegmentTree(
            (iv, i) for i, iv in self._intervals.items() if i != ident
        )

    def __len__(self) -> int:
        return len(self._intervals)

    @property
    def canonical_set_total(self) -> int:
        """Total canonical-set entries (the O(N log N) space figure)."""

        def count(node: Optional[_SegmentNode]) -> int:
            if node is None:
                return 0
            return len(node.canon) + count(node.left) + count(node.right)

        return count(self._root)
