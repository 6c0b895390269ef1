"""Dynamic priority search tree for stabbing queries (McCreight [McC85]).

A priority search tree stores points ``(x, y)`` so that the query
"all points with x <= q and y >= q" runs in ``O(log N + L)``.  Mapping
each interval ``[low, high]`` to the point ``(low, high)`` makes that
query exactly the stabbing query ``low <= q <= high``.

This implementation keeps the structure McCreight describes — a binary
search tree on x that is simultaneously a max-heap on y — maintaining
it dynamically with rotations (insert bubbles a new leaf up while the
heap order is violated; delete rotates the node down to a leaf and
unlinks it).

The paper (Section 4.1) lists two practical drawbacks relative to the
IBS-tree, both of which this implementation exhibits honestly:

* **non-unique lower bounds** need "a special transformation from pairs
  with non-unique lower bounds to pairs with unique lower bounds ...
  created for each different data type to be indexed".  We apply the
  generic transformation of extending the BST key to ``(low, seq)``
  with a per-insert sequence number — note that unlike the paper's
  per-type scheme this needs the domain to tolerate tuple extension,
  which is exactly the kind of adapter code the IBS-tree avoids;
* **endpoint semantics** are closed-closed only: the tree treats open
  endpoints as closed (``supports_open_bounds = False``), so
  :meth:`~PrioritySearchTree.stab` post-filters its candidates by each
  interval's true semantics, as the R-tree baselines do;
  :meth:`~PrioritySearchTree.stab_candidates` returns the raw
  closed-bound answer.

Unbounded ends are supported through the infinity sentinels, which
order correctly against every domain value.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from ..core.intervals import Interval
from ..errors import DuplicateIntervalError, TreeError, UnknownIntervalError
from .base import IntervalIndex

__all__ = ["PrioritySearchTree"]


class _PSTNode:
    __slots__ = ("key", "high", "ident", "left", "right", "parent")

    def __init__(self, key: Tuple[Any, int], high: Any, ident: Hashable):
        self.key = key          # (low bound, sequence number): unique BST key
        self.high = high        # heap priority: the interval's high bound
        self.ident = ident
        self.left: Optional["_PSTNode"] = None
        self.right: Optional["_PSTNode"] = None
        self.parent: Optional["_PSTNode"] = None


class PrioritySearchTree(IntervalIndex):
    """Dynamic stabbing index: BST on interval lows, max-heap on highs."""

    name = "pst"
    supports_open_bounds = False

    def __init__(self) -> None:
        self._root: Optional[_PSTNode] = None
        self._nodes: Dict[Hashable, _PSTNode] = {}
        self._intervals: Dict[Hashable, Interval] = {}
        self._seq = itertools.count()
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._intervals)

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self._intervals

    # -- insertion ----------------------------------------------------------

    def insert(self, interval: Interval, ident: Optional[Hashable] = None) -> Hashable:
        if ident is None:
            ident = next(self._counter)
            while ident in self._intervals:
                ident = next(self._counter)
        if ident in self._intervals:
            raise DuplicateIntervalError(ident)
        # The uniqueness transformation the paper mentions: extend the
        # low bound with a sequence number so BST keys never collide.
        node = _PSTNode((interval.low, next(self._seq)), interval.high, ident)
        self._bst_insert(node)
        self._bubble_up(node)
        self._intervals[ident] = interval
        self._nodes[ident] = node
        return ident

    def _bst_insert(self, node: _PSTNode) -> None:
        if self._root is None:
            self._root = node
            return
        current = self._root
        while True:
            if self._key_less(node.key, current.key):
                if current.left is None:
                    current.left = node
                    node.parent = current
                    return
                current = current.left
            else:
                if current.right is None:
                    current.right = node
                    node.parent = current
                    return
                current = current.right

    @staticmethod
    def _key_less(a: Tuple[Any, int], b: Tuple[Any, int]) -> bool:
        # Compare low bounds first (sentinels order against anything),
        # breaking exact ties with the sequence number.
        if a[0] is b[0]:
            return a[1] < b[1]
        if a[0] < b[0]:
            return True
        if b[0] < a[0]:
            return False
        return a[1] < b[1]

    def _bubble_up(self, node: _PSTNode) -> None:
        while node.parent is not None and self._high_less(node.parent.high, node.high):
            self._rotate_up(node)

    @staticmethod
    def _high_less(a: Any, b: Any) -> bool:
        if a is b:
            return False
        return a < b

    def _rotate_up(self, node: _PSTNode) -> None:
        """Single rotation lifting *node* above its parent."""
        parent = node.parent
        grand = parent.parent
        if parent.left is node:
            parent.left = node.right
            if node.right is not None:
                node.right.parent = parent
            node.right = parent
        else:
            parent.right = node.left
            if node.left is not None:
                node.left.parent = parent
            node.left = parent
        parent.parent = node
        node.parent = grand
        if grand is None:
            self._root = node
        elif grand.left is parent:
            grand.left = node
        else:
            grand.right = node

    # -- deletion ---------------------------------------------------------------

    def delete(self, ident: Hashable) -> None:
        try:
            node = self._nodes.pop(ident)
        except KeyError:
            raise UnknownIntervalError(ident) from None
        del self._intervals[ident]
        # Rotate the node down (promoting the higher-priority child)
        # until it is a leaf, then unlink it.
        while node.left is not None or node.right is not None:
            if node.left is None:
                child = node.right
            elif node.right is None:
                child = node.left
            elif self._high_less(node.right.high, node.left.high):
                child = node.left
            else:
                child = node.right
            self._rotate_up(child)
        parent = node.parent
        if parent is None:
            self._root = None
        elif parent.left is node:
            parent.left = None
        else:
            parent.right = None
        node.parent = None

    # -- queries ------------------------------------------------------------------

    def stab(self, x: Any) -> Set[Hashable]:
        """Exact stabbing: closed-bound candidates filtered by true semantics."""
        intervals = self._intervals
        return {ident for ident in self.stab_candidates(x) if intervals[ident].contains(x)}

    def stab_candidates(self, x: Any) -> Set[Hashable]:
        """All intervals with ``low <= x <= high`` (closed semantics, no filtering)."""
        result: Set[Hashable] = set()
        self._search(self._root, x, result)
        return result

    def _search(self, node: Optional[_PSTNode], x: Any, result: Set[Hashable]) -> None:
        if node is None:
            return
        # Heap prune: every high in this subtree is <= node.high.
        if self._high_less(node.high, x):
            return
        low = node.key[0]
        if not self._value_greater(low, x):
            # low <= x: the node qualifies, and both subtrees may too.
            result.add(node.ident)
            self._search(node.left, x, result)
            self._search(node.right, x, result)
        else:
            # low > x: everything in the right subtree has larger lows.
            self._search(node.left, x, result)

    @staticmethod
    def _value_greater(a: Any, b: Any) -> bool:
        if a is b:
            return False
        return a > b

    # -- validation (used by tests) -------------------------------------------

    def validate(self) -> None:
        """Check BST-on-key and max-heap-on-high invariants."""
        self._validate_node(self._root, None, None, None)

    def _validate_node(
        self,
        node: Optional[_PSTNode],
        parent: Optional[_PSTNode],
        low_key: Optional[Tuple[Any, int]],
        high_key: Optional[Tuple[Any, int]],
    ) -> None:
        if node is None:
            return
        if node.parent is not parent:
            raise TreeError(f"bad parent pointer at PST node {node.ident!r}")
        if low_key is not None and self._key_less(node.key, low_key):
            raise TreeError(f"BST violation at PST node {node.ident!r}")
        if high_key is not None and self._key_less(high_key, node.key):
            raise TreeError(f"BST violation at PST node {node.ident!r}")
        if parent is not None and self._high_less(parent.high, node.high):
            raise TreeError(f"heap violation at PST node {node.ident!r}")
        self._validate_node(node.left, node, low_key, node.key)
        self._validate_node(node.right, node, node.key, high_key)
