"""A flat, array-backed IBS-tree with integer-bitset marker sets.

:class:`FlatIBSTree` answers exactly the same stabbing queries as
:class:`~repro.core.ibs_tree.IBSTree` — the paper's Section 4.2
structure — but trades the pointer-per-node object layout for a
cache-friendlier representation tuned to CPython:

* **parallel arrays** — node values, left/right/parent links, and
  heights live in plain Python lists indexed by a dense node id, so a
  root-to-leaf descent touches a handful of list cells instead of
  chasing attribute lookups through heap objects;
* **interned interval identifiers** — every identifier is mapped to a
  dense small integer (its *bit*) on insertion, with freed bits
  recycled on deletion;
* **bitset marker sets** — each node's ``<`` / ``=`` / ``>`` marker
  set is a single Python int whose bit *k* is set when interval *k*
  is marked there.  A stabbing descent then unions markers with
  integer ``|`` — one arbitrary-precision OR per visited node —
  instead of building intermediate ``set`` objects, and the result is
  decoded back to identifiers once, at the end.

The flat layout is inspired by the array-packed search trees of the
cache-efficiency literature (e.g. *Zipping Segment Trees*, Barth &
Wagner 2020): the win is not asymptotic — insert, delete, and stab
keep the paper's bounds — but constant-factor, which is exactly where
a per-tuple hot path spends its time.

The class is interface-compatible with :class:`IBSTree` (``insert`` /
``delete`` / ``stab`` / ``overlapping`` / ``validate`` / statistics,
with the batch forms ``stab_into`` and ``stab_many`` the shared
:class:`~repro.core.stabbing.IntervalIndex` loops over ``stab``), so
it drops into ``PredicateIndex(tree_factory=FlatIBSTree)`` and the
existing differential and property test suites unchanged.  Like the
paper's measured variant it is unbalanced; balance comes from random
insertion order.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import (
    DuplicateIntervalError,
    TreeError,
    TreeInvariantError,
    UnknownIntervalError,
)
from ..testing.faults import fault_point
from .ibs_tree import EQ, GT, LT, _strictly_less
from .intervals import MINUS_INF, PLUS_INF, Interval, is_infinite
from .stabbing import IntervalIndex

__all__ = ["FlatIBSTree"]

#: Null link in the parallel arrays.
NIL = -1

_SLOT_NAMES = ("<", "=", ">")


class FlatIBSTree(IntervalIndex):
    """Array-backed IBS-tree: same queries, flat storage, bitset markers.

    Example::

        >>> from repro import FlatIBSTree, Interval
        >>> tree = FlatIBSTree()
        >>> tree.insert(Interval.closed(9, 19), "A")
        'A'
        >>> tree.insert(Interval.closed_open(2, 7), "B")
        'B'
        >>> tree.insert(Interval.at_most(17), "G")
        'G'
        >>> sorted(tree.stab(5))
        ['B', 'G']
        >>> tree.delete("B")
        >>> sorted(tree.stab(5))
        ['G']
    """

    def __init__(self) -> None:
        # -- node storage: parallel arrays indexed by node id ----------
        self._value: List[Any] = []
        self._left: List[int] = []
        self._right: List[int] = []
        self._parent: List[int] = []
        self._node_height: List[int] = []
        #: per-node marker bitsets, one int per slot kind
        self._marks: Tuple[List[int], List[int], List[int]] = ([], [], [])
        self._free_nodes: List[int] = []
        self._root: int = NIL
        # -- identifier interning --------------------------------------
        #: ident -> dense bit index
        self._bit_of: Dict[Hashable, int] = {}
        #: bit index -> ident (None while the bit is free)
        self._ident_of: List[Optional[Hashable]] = []
        #: bit index -> interval
        self._interval_of: List[Optional[Interval]] = []
        self._free_bits: List[int] = []
        #: bit index -> exact (node, slot) marker locations
        self._marker_locs: List[Set[Tuple[int, int]]] = []
        #: endpoint value -> bits of intervals anchored there
        self._endpoint_bits: Dict[Any, Set[int]] = {}
        self._ident_counter = itertools.count()
        #: decoded marker sets, keyed ``node * 3 + slot``; invalidated
        #: wholesale on any mutation.  Decoding a sparse bitset costs
        #: O(words) big-int work per set bit, so stab-heavy phases
        #: decode each hot node once and union cached frozensets at C
        #: speed afterwards.
        self._slot_cache: Dict[int, frozenset] = {}
        #: monotone mutation counter (see :attr:`IBSTree.epoch`); unlike
        #: :attr:`_slot_cache` it survives :meth:`clear`, so external
        #: epoch-keyed stab caches stay coherent across resets.
        self.epoch = 0
        #: set by :meth:`freeze`; mutators refuse to run afterwards (see
        #: :meth:`IBSTree.freeze`).  Note the :attr:`_slot_cache` decode
        #: cache still fills lazily on reads — per-key dict writes are
        #: atomic under the GIL and every thread computes the same
        #: frozenset for a given key, so concurrent stabs stay safe.
        self._frozen = False

    def freeze(self) -> None:
        """Make the tree permanently immutable (see :meth:`IBSTree.freeze`)."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    def _check_mutable(self) -> None:
        if self._frozen:
            raise TreeError(
                f"{type(self).__name__} is frozen (published in an epoch "
                "snapshot); build a new tree instead of mutating"
            )

    # ------------------------------------------------------------------
    # public API (mirrors IBSTree)
    # ------------------------------------------------------------------

    def insert(self, interval: Interval, ident: Optional[Hashable] = None) -> Hashable:
        """Insert *interval* under identifier *ident* and return the identifier."""
        if ident is None:
            ident = next(self._ident_counter)
            while ident in self._bit_of:
                ident = next(self._ident_counter)
        if ident in self._bit_of:
            raise DuplicateIntervalError(ident)
        self._check_mutable()
        self.epoch += 1
        self._slot_cache.clear()
        bit = self._intern(ident, interval)
        for value in (interval.low, interval.high):
            self._endpoint_bits.setdefault(value, set()).add(bit)
        try:
            self._place_markers(bit, interval)
        except BaseException:
            self._rollback_insert(ident, bit, interval)
            raise
        return ident

    def _rollback_insert(self, ident: Hashable, bit: int, interval: Interval) -> None:
        """Undo a partially applied :meth:`insert` after a mid-placement failure.

        Exact inverse of the registration above: markers placed so far
        are removed via the marker registry, endpoint nodes created for
        this interval alone are structurally deleted, and the interned
        bit is released back to the free list.
        """
        self._slot_cache.clear()
        self._remove_markers(bit)
        for value in {interval.low, interval.high}:
            anchored = self._endpoint_bits.get(value)
            if anchored is None:
                continue
            anchored.discard(bit)
            if not anchored:
                del self._endpoint_bits[value]
                if self._find_node(value) >= 0:
                    self._delete_endpoint_node(value)
        self._bit_of.pop(ident, None)
        self._ident_of[bit] = None
        self._interval_of[bit] = None
        self._free_bits.append(bit)

    def delete(self, ident: Hashable) -> None:
        """Remove the interval registered under *ident*."""
        self._check_mutable()
        try:
            bit = self._bit_of.pop(ident)
        except KeyError:
            raise UnknownIntervalError(ident) from None
        self.epoch += 1
        self._slot_cache.clear()
        interval = self._interval_of[bit]
        self._remove_markers(bit)
        for value in {interval.low, interval.high}:
            anchored = self._endpoint_bits[value]
            anchored.discard(bit)
            if not anchored:
                del self._endpoint_bits[value]
                self._delete_endpoint_node(value)
        self._ident_of[bit] = None
        self._interval_of[bit] = None
        self._free_bits.append(bit)

    def bulk_load(
        self, items: Iterable[Tuple[Interval, Optional[Hashable]]]
    ) -> List[Hashable]:
        """Load many intervals into an **empty** tree in one pass.

        Flat-storage counterpart of :meth:`IBSTree.bulk_load`: interns
        every identifier to a dense bit, sorts the distinct endpoints
        once, lays a perfectly balanced tree into the parallel arrays by
        midpoint recursion, and then places markers with the final
        structure already in place — no per-insert height fixups.
        All-or-nothing: any failure resets the tree to empty.
        """
        self._check_mutable()
        if self._bit_of or self._root >= 0:
            raise TreeError("bulk_load requires an empty tree")
        self.epoch += 1
        resolved: List[Tuple[int, Interval]] = []
        idents: List[Hashable] = []
        try:
            for interval, ident in items:
                if ident is None:
                    ident = next(self._ident_counter)
                    while ident in self._bit_of:
                        ident = next(self._ident_counter)
                if ident in self._bit_of:
                    raise DuplicateIntervalError(ident)
                bit = self._intern(ident, interval)
                for value in (interval.low, interval.high):
                    self._endpoint_bits.setdefault(value, set()).add(bit)
                resolved.append((bit, interval))
                idents.append(ident)
            ordered = self._sorted_endpoint_values()
            slots: List[int] = [NIL] * len(ordered)
            self._root = self._build_balanced(ordered, slots)
            fault_point("tree.bulk_load")
            self._bulk_place_markers(ordered, slots, resolved)
        except BaseException:
            # The tree was empty on entry, so wholesale reset is an
            # exact rollback.
            self.clear()
            raise
        return idents

    def _bulk_place_markers(
        self,
        ordered: List[Any],
        slots: List[int],
        resolved: List[Tuple[int, Interval]],
    ) -> None:
        """Index-space ``addLeft``/``addRight`` over the midpoint build.

        Same scheme as :meth:`IBSTree._bulk_place_markers`: because
        every interval endpoint sits at a known position in *ordered*
        and the midpoint build makes each search path a binary chop over
        index ranges, all marker-rule comparisons reduce to integer
        compares, the pre-fork prefix provably places no marks (it is a
        bare binary search), and marks are OR-ed straight into the
        bitmask arrays.
        """
        n = len(ordered)
        if n == 0:
            return
        index_of = {value: i for i, value in enumerate(ordered)}
        iminus = 0 if ordered[0] is MINUS_INF else -7
        iplus = n - 1 if ordered[n - 1] is PLUS_INF else -7
        lt_bits, eq_bits, gt_bits = self._marks
        # Shared (node, slot) location tuples per sorted position: each
        # mark is then one bitmask OR and one bound-method call, with no
        # per-mark attribute lookups or tuple allocations.
        lt_loc = [(node, LT) for node in slots]
        eq_loc = [(node, EQ) for node in slots]
        gt_loc = [(node, GT) for node in slots]
        marker_locs = self._marker_locs
        top = n - 1
        for bit, interval in resolved:
            lo_i = index_of[interval.low]
            hi_i = index_of[interval.high]
            low_inc = interval.low_inclusive
            high_inc = interval.high_inclusive
            mask = 1 << bit
            locs_add = marker_locs[bit].add
            # -- shared prefix: pure binary chop to the fork -----------
            l, h = 0, top
            while True:
                m = (l + h) >> 1
                if m < lo_i:
                    l = m + 1
                elif m > hi_i:
                    h = m - 1
                else:
                    break
            fork_l, fork_h = l, h
            # -- addLeft suffix: fork down to lo_i ---------------------
            rb_le_high = hi_i == iplus  # unchanged through the prefix
            while True:
                m = (l + h) >> 1
                if m < lo_i:
                    l = m + 1
                elif m > lo_i:
                    if m != iplus:
                        node = slots[m]
                        if m < hi_i or high_inc:
                            eq_bits[node] |= mask
                            locs_add(eq_loc[m])
                        if rb_le_high:
                            gt_bits[node] |= mask
                            locs_add(gt_loc[m])
                    rb_le_high = True  # lo_i < m <= hi_i after the fork
                    h = m - 1
                else:
                    node = slots[m]
                    if rb_le_high and m != iplus:
                        gt_bits[node] |= mask
                        locs_add(gt_loc[m])
                    if low_inc:
                        eq_bits[node] |= mask
                        locs_add(eq_loc[m])
                    break
            # -- addRight suffix: fork down to hi_i --------------------
            l, h = fork_l, fork_h
            lb_ge_low = lo_i == iminus  # unchanged through the prefix
            while True:
                m = (l + h) >> 1
                if m > hi_i:
                    h = m - 1
                elif m < hi_i:
                    if m != iminus:
                        node = slots[m]
                        if m > lo_i or low_inc:
                            eq_bits[node] |= mask
                            locs_add(eq_loc[m])
                        if lb_ge_low:
                            lt_bits[node] |= mask
                            locs_add(lt_loc[m])
                    lb_ge_low = True  # lo_i <= m < hi_i after the fork
                    l = m + 1
                else:
                    node = slots[m]
                    if lb_ge_low and m != iminus:
                        lt_bits[node] |= mask
                        locs_add(lt_loc[m])
                    if high_inc:
                        eq_bits[node] |= mask
                        locs_add(eq_loc[m])
                    break

    def _sorted_endpoint_values(self) -> List[Any]:
        """Distinct endpoint values in tree order, sentinels at the ends."""
        finite = sorted(v for v in self._endpoint_bits if not is_infinite(v))
        ordered: List[Any] = []
        if MINUS_INF in self._endpoint_bits:
            ordered.append(MINUS_INF)
        ordered.extend(finite)
        if PLUS_INF in self._endpoint_bits:
            ordered.append(PLUS_INF)
        return ordered

    def _build_balanced(self, ordered: List[Any], slots: List[int]) -> int:
        """Lay *ordered* values into the arrays as a balanced tree.

        Fills ``slots[i]`` with the array index of the node holding
        ``ordered[i]`` so the bulk marker pass can address nodes by
        sorted position.
        """
        left, right, heights = self._left, self._right, self._node_height

        def build(lo: int, hi: int, parent: int) -> int:
            if lo > hi:
                return NIL
            mid = (lo + hi) // 2
            idx = self._new_node(ordered[mid], parent)
            slots[mid] = idx
            left[idx] = build(lo, mid - 1, idx)
            right[idx] = build(mid + 1, hi, idx)
            # a midpoint-balanced subtree over k values has height
            # floor(log2 k) + 1 = k.bit_length()
            heights[idx] = (hi - lo + 1).bit_length()
            return idx

        return build(0, len(ordered) - 1, NIL)

    def stab(self, x: Any) -> Set[Hashable]:
        """Identifiers of all intervals containing *x* (``findIntervals``)."""
        if x is MINUS_INF or x is PLUS_INF:
            return set()  # no interval contains a sentinel
        return set().union(*self._stab_sets(x))

    # The paper's name for the stabbing query.
    find_intervals = stab

    def stab_mask(self, x: Any) -> int:
        """The stabbing answer as a raw bitset (bit *k* = interval *k*).

        This is the flat backend's native answer shape: callers that
        combine several stabs (:meth:`overlapping`) can OR masks and
        decode identifiers once.
        """
        values = self._value
        left, right = self._left, self._right
        lt_bits, eq_bits, gt_bits = self._marks
        mask = 0
        node = self._root
        while node >= 0:
            value = values[node]
            if x == value:
                mask |= eq_bits[node]
                break
            if x < value:
                mask |= lt_bits[node]
                node = left[node]
            else:
                mask |= gt_bits[node]
                node = right[node]
        return mask

    def _stab_sets(self, x: Any) -> List[frozenset]:
        """Decoded marker sets along the stab path of *x* (cached)."""
        values = self._value
        left, right = self._left, self._right
        lt_bits, eq_bits, gt_bits = self._marks
        slot_set = self._slot_set
        parts: List[frozenset] = []
        node = self._root
        while node >= 0:
            value = values[node]
            if x == value:
                if eq_bits[node]:
                    parts.append(slot_set(node, EQ, eq_bits[node]))
                break
            if x < value:
                if lt_bits[node]:
                    parts.append(slot_set(node, LT, lt_bits[node]))
                node = left[node]
            else:
                if gt_bits[node]:
                    parts.append(slot_set(node, GT, gt_bits[node]))
                node = right[node]
        return parts

    def overlapping(self, query: Interval) -> Set[Hashable]:
        """Identifiers of all intervals overlapping the *query* interval."""
        mask = 0
        if not is_infinite(query.low):
            mask |= self.stab_mask(query.low)
        if not is_infinite(query.high):
            mask |= self.stab_mask(query.high)
        for value in self._values_in_range(query.low, query.high):
            for bit in self._endpoint_bits.get(value, ()):
                mask |= 1 << bit
        return {
            self._ident_of[bit]
            for bit in self._iter_bits(mask)
            if self._interval_of[bit].overlaps(query)
        }

    stab_interval = overlapping

    def get(self, ident: Hashable) -> Interval:
        """Return the interval registered under *ident*."""
        try:
            return self._interval_of[self._bit_of[ident]]
        except KeyError:
            raise UnknownIntervalError(ident) from None

    def __len__(self) -> int:
        return len(self._bit_of)

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self._bit_of

    def __bool__(self) -> bool:
        return bool(self._bit_of)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._bit_of)

    def items(self) -> Iterator[Tuple[Hashable, Interval]]:
        """Iterate over ``(identifier, interval)`` pairs."""
        for ident, bit in self._bit_of.items():
            yield ident, self._interval_of[bit]

    def clear(self) -> None:
        """Remove every interval and node (the epoch survives, bumped)."""
        self._check_mutable()
        epoch = self.epoch
        self.__init__()
        self.epoch = epoch + 1

    # -- statistics ------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of endpoint nodes in the tree."""
        return len(self._endpoint_bits)

    @property
    def marker_count(self) -> int:
        """Total number of markers across all node slots."""
        return sum(len(self._marker_locs[bit]) for bit in self._bit_of.values())

    @property
    def height(self) -> int:
        """Height of the tree (0 when empty)."""
        return self._node_height[self._root] if self._root >= 0 else 0

    def markers_of(self, ident: Hashable) -> int:
        """Number of markers currently placed for *ident*."""
        try:
            return len(self._marker_locs[self._bit_of[ident]])
        except KeyError:
            raise UnknownIntervalError(ident) from None

    # ------------------------------------------------------------------
    # identifier interning and bit decoding
    # ------------------------------------------------------------------

    def _intern(self, ident: Hashable, interval: Interval) -> int:
        if self._free_bits:
            bit = self._free_bits.pop()
            self._ident_of[bit] = ident
            self._interval_of[bit] = interval
        else:
            bit = len(self._ident_of)
            self._ident_of.append(ident)
            self._interval_of.append(interval)
            self._marker_locs.append(set())
        self._bit_of[ident] = bit
        return bit

    @staticmethod
    def _iter_bits(mask: int) -> Iterator[int]:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _decode(self, mask: int) -> Set[Hashable]:
        ident_of = self._ident_of
        out: Set[Hashable] = set()
        while mask:
            low = mask & -mask
            out.add(ident_of[low.bit_length() - 1])
            mask ^= low
        return out

    def _slot_set(self, node: int, slot: int, mask: int) -> frozenset:
        """The decoded identifier set of one node slot, memoized.

        ``mask`` must be the slot's current bitset (callers already
        have it in hand); the cache is cleared on every mutation, so a
        cached entry is always in sync with it.
        """
        key = node * 3 + slot
        cache = self._slot_cache
        cached = cache.get(key)
        if cached is None:
            cached = cache[key] = frozenset(self._decode(mask))
        return cached

    # ------------------------------------------------------------------
    # node allocation
    # ------------------------------------------------------------------

    def _new_node(self, value: Any, parent: int) -> int:
        lt_bits, eq_bits, gt_bits = self._marks
        if self._free_nodes:
            idx = self._free_nodes.pop()
            self._value[idx] = value
            self._left[idx] = NIL
            self._right[idx] = NIL
            self._parent[idx] = parent
            self._node_height[idx] = 1
            lt_bits[idx] = eq_bits[idx] = gt_bits[idx] = 0
        else:
            idx = len(self._value)
            self._value.append(value)
            self._left.append(NIL)
            self._right.append(NIL)
            self._parent.append(parent)
            self._node_height.append(1)
            lt_bits.append(0)
            eq_bits.append(0)
            gt_bits.append(0)
        return idx

    def _update_heights_upward(self, node: int) -> None:
        heights = self._node_height
        left, right, parent = self._left, self._right, self._parent
        while node >= 0:
            lh = heights[left[node]] if left[node] >= 0 else 0
            rh = heights[right[node]] if right[node] >= 0 else 0
            heights[node] = 1 + (lh if lh >= rh else rh)
            node = parent[node]

    # ------------------------------------------------------------------
    # marker placement: the paper's addLeft / addRight on flat storage
    # ------------------------------------------------------------------

    def _place_markers(self, bit: int, interval: Interval) -> None:
        created = self._add_left(bit, interval)
        if created >= 0:
            self._update_heights_upward(self._parent[created])
        fault_point("tree.insert")
        created = self._add_right(bit, interval)
        if created >= 0:
            self._update_heights_upward(self._parent[created])

    def _add_left(self, bit: int, interval: Interval) -> int:
        low = interval.low
        high = interval.high
        created = NIL
        node = self._root
        right_bound: Any = PLUS_INF
        if node < 0:
            self._root = created = self._new_node(low, NIL)
            node = created
        values, left, right = self._value, self._left, self._right
        while True:
            value = values[node]
            if value == low or (is_infinite(low) and value is low):
                if right_bound <= high and value is not PLUS_INF:
                    self._add_mark(bit, node, GT)
                if interval.low_inclusive:
                    self._add_mark(bit, node, EQ)
                return created
            if value < low:
                if right[node] < 0:
                    right[node] = created = self._new_node(low, node)
                node = right[node]
                continue
            if interval.contains(value):
                self._add_mark(bit, node, EQ)
            if right_bound <= high and value is not PLUS_INF:
                self._add_mark(bit, node, GT)
            right_bound = value
            if left[node] < 0:
                left[node] = created = self._new_node(low, node)
            node = left[node]

    def _add_right(self, bit: int, interval: Interval) -> int:
        low = interval.low
        high = interval.high
        created = NIL
        node = self._root
        left_bound: Any = MINUS_INF
        if node < 0:
            self._root = created = self._new_node(high, NIL)
            node = created
        values, left, right = self._value, self._left, self._right
        while True:
            value = values[node]
            if value == high or (is_infinite(high) and value is high):
                if left_bound >= low and value is not MINUS_INF:
                    self._add_mark(bit, node, LT)
                if interval.high_inclusive:
                    self._add_mark(bit, node, EQ)
                return created
            if value > high:
                if left[node] < 0:
                    left[node] = created = self._new_node(high, node)
                node = left[node]
                continue
            if interval.contains(value):
                self._add_mark(bit, node, EQ)
            if left_bound >= low and value is not MINUS_INF:
                self._add_mark(bit, node, LT)
            left_bound = value
            if right[node] < 0:
                right[node] = created = self._new_node(high, node)
            node = right[node]

    # -- marker bookkeeping ---------------------------------------------

    def _add_mark(self, bit: int, node: int, slot: int) -> None:
        marks = self._marks[slot]
        mask = 1 << bit
        if not marks[node] & mask:
            marks[node] |= mask
            self._marker_locs[bit].add((node, slot))

    def _remove_markers(self, bit: int) -> None:
        mask = ~(1 << bit)
        marks = self._marks
        for node, slot in self._marker_locs[bit]:
            marks[slot][node] &= mask
        self._marker_locs[bit].clear()

    def _lift_markers(self, node: int, lifted: Dict[int, Interval]) -> None:
        lt_bits, eq_bits, gt_bits = self._marks
        union = lt_bits[node] | eq_bits[node] | gt_bits[node]
        for bit in self._iter_bits(union):
            if bit not in lifted:
                lifted[bit] = self._interval_of[bit]
                self._remove_markers(bit)

    # ------------------------------------------------------------------
    # structural deletion of endpoint nodes
    # ------------------------------------------------------------------

    def _delete_endpoint_node(self, value: Any) -> None:
        node = self._find_node(value)
        if node < 0:
            raise TreeInvariantError(
                f"endpoint node for value {value!r} not found during delete"
            )
        lifted: Dict[int, Interval] = {}
        self._lift_markers(node, lifted)
        left, right = self._left, self._right
        if left[node] >= 0 and right[node] >= 0:
            pred = left[node]
            while right[pred] >= 0:
                pred = right[pred]
            self._lift_markers(pred, lifted)
            self._value[node] = self._value[pred]
            node = pred  # splice out the (now markerless) predecessor slot
        self._splice(node)
        fault_point("tree.delete")
        for bit, interval in lifted.items():
            self._place_markers(bit, interval)

    def _find_node(self, value: Any) -> int:
        values = self._value
        left, right = self._left, self._right
        node = self._root
        while node >= 0:
            current = values[node]
            if value == current or (is_infinite(value) and current is value):
                return node
            if is_infinite(current):
                node = right[node] if current is MINUS_INF else left[node]
            elif value < current:
                node = left[node]
            else:
                node = right[node]
        return NIL

    def _splice(self, node: int) -> None:
        left, right, parent = self._left, self._right, self._parent
        child = left[node] if left[node] >= 0 else right[node]
        up = parent[node]
        if child >= 0:
            parent[child] = up
        if up < 0:
            self._root = child
        elif left[up] == node:
            left[up] = child
        else:
            right[up] = child
        left[node] = right[node] = parent[node] = NIL
        self._value[node] = None
        self._free_nodes.append(node)
        self._update_heights_upward(up)

    # ------------------------------------------------------------------
    # in-order range iteration (for overlapping queries)
    # ------------------------------------------------------------------

    def _values_in_range(self, low: Any, high: Any) -> Iterator[Any]:
        """Node values v with low <= v <= high, in-order (sentinel-aware)."""
        values = self._value
        left, right = self._left, self._right
        node = self._root
        stack: List[int] = []
        while stack or node >= 0:
            if node >= 0:
                if _strictly_less(values[node], low):
                    node = right[node]
                else:
                    stack.append(node)
                    node = left[node]
                continue
            node = stack.pop()
            if not _strictly_less(high, values[node]):
                if not _strictly_less(values[node], low):
                    yield values[node]
                node = right[node]
            else:
                node = NIL

    # ------------------------------------------------------------------
    # validation (used by the test suite)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every structural and marker invariant; raise on violation.

        Performs the same checks as :meth:`IBSTree.validate` — BST
        ordering, parent/height consistency, marker soundness, registry
        sync, endpoint reference counts — plus flat-storage checks:
        free-list disjointness and dense-bit interning consistency.
        """
        live_nodes = self._collect_live_nodes()
        free = set(self._free_nodes)
        if live_nodes & free:
            raise TreeInvariantError("free-list node still linked into the tree")
        if len(live_nodes) + len(free) != len(self._value):
            raise TreeInvariantError("node arrays leak slots")
        for ident, bit in self._bit_of.items():
            if self._ident_of[bit] != ident:
                raise TreeInvariantError(f"bit interning out of sync for {ident!r}")
        for bit in self._free_bits:
            if self._ident_of[bit] is not None or self._marker_locs[bit]:
                raise TreeInvariantError(f"freed bit {bit} still carries state")
        seen_locs: Dict[int, Set[Tuple[int, int]]] = {
            bit: set() for bit in self._bit_of.values()
        }
        self._validate_node(self._root, NIL, None, None, seen_locs)
        for bit, locs in seen_locs.items():
            if locs != self._marker_locs[bit]:
                raise TreeInvariantError(
                    f"marker registry out of sync for interval {self._ident_of[bit]!r}"
                )
        expected: Dict[Any, Set[int]] = {}
        for bit in self._bit_of.values():
            interval = self._interval_of[bit]
            for value in {interval.low, interval.high}:
                expected.setdefault(value, set()).add(bit)
        if expected != self._endpoint_bits:
            raise TreeInvariantError("endpoint bit registry out of sync")

    def check_invariants(self) -> bool:
        """Public invariant check shared by every tree backend.

        Returns True when every structural, marker, and flat-storage
        invariant holds; raises
        :class:`~repro.errors.TreeInvariantError` otherwise.
        """
        self.validate()
        return True

    def audit(self) -> List[str]:
        """Non-raising invariant check: a list of problem descriptions.

        An empty list means the tree is healthy.  Structural wreckage
        severe enough to crash the validator itself (link cycles,
        incomparable values, dangling registry entries) is reported as
        a problem rather than propagated.
        """
        try:
            self.validate()
        except TreeInvariantError as exc:
            return [str(exc)]
        except (RecursionError, TypeError, KeyError, IndexError, AttributeError) as exc:
            return [f"validator crashed: {type(exc).__name__}: {exc}"]
        return []

    def _collect_live_nodes(self) -> Set[int]:
        live: Set[int] = set()
        stack = [self._root] if self._root >= 0 else []
        while stack:
            node = stack.pop()
            if node in live:
                raise TreeInvariantError("cycle in tree links")
            live.add(node)
            for child in (self._left[node], self._right[node]):
                if child >= 0:
                    stack.append(child)
        return live

    def _validate_node(
        self,
        node: int,
        parent: int,
        low_bound: Any,
        high_bound: Any,
        seen_locs: Dict[int, Set[Tuple[int, int]]],
    ) -> int:
        if node < 0:
            return 0
        if self._parent[node] != parent:
            raise TreeInvariantError(f"bad parent link at node {self._value[node]!r}")
        value = self._value[node]
        low_ok = low_bound is None or _strictly_less(low_bound, value)
        high_ok = high_bound is None or _strictly_less(value, high_bound)
        if not (low_ok and high_ok):
            raise TreeInvariantError(
                f"BST ordering violated at node {value!r} "
                f"(bounds {low_bound!r}..{high_bound!r})"
            )
        for slot, marks in enumerate(self._marks):
            for bit in self._iter_bits(marks[node]):
                if self._ident_of[bit] is None or bit not in seen_locs:
                    raise TreeInvariantError(f"stale marker bit {bit} at {value!r}")
                seen_locs[bit].add((node, slot))
                interval = self._interval_of[bit]
                if slot == EQ:
                    if not interval.contains(value):
                        raise TreeInvariantError(
                            f"unsound '=' marker {self._ident_of[bit]!r} at {value!r}"
                        )
                elif slot == LT:
                    self._check_range_mark(bit, interval, low_bound, value)
                else:
                    self._check_range_mark(bit, interval, value, high_bound)
        left_h = self._validate_node(self._left[node], node, low_bound, value, seen_locs)
        right_h = self._validate_node(self._right[node], node, value, high_bound, seen_locs)
        height = 1 + max(left_h, right_h)
        if self._node_height[node] != height:
            raise TreeInvariantError(f"stale height at node {value!r}")
        return height

    def _check_range_mark(
        self, bit: int, interval: Interval, low: Any, high: Any
    ) -> None:
        if low is None:
            low = MINUS_INF
        if high is None:
            high = PLUS_INF
        if not _strictly_less(low, high):
            return  # empty range: vacuously covered
        covered = Interval(low, high, False, False)
        if not interval.covers(covered):
            raise TreeInvariantError(
                f"unsound range marker {self._ident_of[bit]!r}: {interval} does "
                f"not cover open range ({low!r}, {high!r})"
            )

    # -- debugging helpers ----------------------------------------------

    def dump(self) -> str:
        """Return an indented textual rendering of the tree (for debugging)."""
        lines: List[str] = []

        def walk(node: int, depth: int) -> None:
            if node < 0:
                return
            walk(self._right[node], depth + 1)
            sets = " ".join(
                f"{name}{{{','.join(sorted(str(self._ident_of[b]) for b in self._iter_bits(marks[node])))}}}"
                for name, marks in zip(_SLOT_NAMES, self._marks)
                if marks[node]
            )
            lines.append("    " * depth + f"{self._value[node]!r} {sets}".rstrip())
            walk(self._left[node], depth + 1)

        walk(self._root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<FlatIBSTree {len(self._bit_of)} intervals, "
            f"{self.node_count} nodes, height {self.height}>"
        )
