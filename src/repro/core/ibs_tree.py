"""The Interval Binary Search Tree (IBS-tree) of Hanson et al.

The IBS-tree (paper Section 4.2) is a binary search tree over interval
*endpoints*, augmented so that every node carries three sets of interval
identifiers:

``eq``
    identifiers of intervals that contain the node's value;
``lt``
    identifiers of intervals that contain **every value insertable into
    the node's left subtree** (i.e. the whole open range between the
    node's nearest smaller ancestor value and the node's own value);
``gt``
    symmetric to ``lt`` for the right subtree.

With these invariants, a *stabbing query* — find all intervals that
overlap a point ``x`` — is a single root-to-leaf descent that unions the
``lt`` (going left), ``gt`` (going right), and ``eq`` (on exact match)
sets along the search path for ``x``: the paper's ``findIntervals``
procedure, ``O(log N + L)`` on a balanced tree.

Unlike segment trees and interval trees, the IBS-tree supports **dynamic
insertion and deletion** of intervals, and unlike priority search trees
it needs no per-domain endpoint transformation: it works unchanged on
any totally ordered domain and accommodates many intervals sharing an
endpoint.

This class implements the unbalanced tree exactly as benchmarked in the
paper's Section 5.2 ("the balancing scheme using rotations was not
implemented, but as with ordinary binary search trees, the tree is
normally balanced if data is inserted in random order").  The balanced
variant with rotation marker-fixups lives in
:mod:`repro.core.avl_ibs_tree`.

Implementation notes beyond the paper
-------------------------------------

* The paper represents open-ended intervals by endpoint constants of
  -infinity / +infinity; we do the same, inserting sentinel-valued nodes
  (:data:`~repro.core.intervals.MINUS_INF` /
  :data:`~repro.core.intervals.PLUS_INF`) that participate in the total
  order.
* The paper says markers are removed "using the reverse of the procedure
  for insertion".  Retracing the insertion descent is not sound once
  rotations (or earlier endpoint deletions) have moved marks off the
  original search path, so we maintain a **marker registry** mapping
  each interval identifier to its exact set of ``(node, slot)``
  locations.  Deletion then removes precisely the markers that exist.
  The registry also provides the marker counts analysed in the paper's
  Section 5.1 (``O(N log N)`` worst case, ``O(N)`` for disjoint
  intervals) at zero extra cost.
* Endpoint nodes are reference-counted; a node is structurally removed
  only when the last interval using its value is deleted, following the
  paper's predecessor-swap procedure.  All intervals with markers on an
  affected node are lifted out before the structural change and
  re-installed afterwards, which is the conservative reading of the
  procedure justified in the companion technical report [KC89].
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..errors import (
    DuplicateIntervalError,
    TreeError,
    TreeInvariantError,
    UnknownIntervalError,
)
from ..testing.faults import fault_point
from .intervals import MINUS_INF, PLUS_INF, Interval, is_infinite
from .stabbing import IntervalIndex

__all__ = ["IBSNode", "IBSTree", "LT", "EQ", "GT"]

# Slot indices into IBSNode.slots.  The order mirrors the paper's
# upside-down-T node drawing: <, =, > from left to right.
LT = 0
EQ = 1
GT = 2

_SLOT_NAMES = ("<", "=", ">")


class IBSNode:
    """A node of an IBS-tree: a value, three marker sets, and links.

    ``height`` is maintained by every variant (cheap, and lets
    ``validate()`` cross-check structure); ``red`` is used only by the
    red-black variant and is simply True on freshly created nodes, as
    red-black insertion wants.  ``locs`` holds the node's three
    ``(node, slot)`` marker locations once the node takes its first
    incremental mark, so later marks there share them.
    """

    __slots__ = ("value", "slots", "left", "right", "parent", "height", "red", "locs")

    def __init__(self, value: Any, parent: Optional["IBSNode"] = None):
        self.value = value
        self.slots: Tuple[Set[Hashable], Set[Hashable], Set[Hashable]] = (
            set(),
            set(),
            set(),
        )
        self.left: Optional[IBSNode] = None
        self.right: Optional[IBSNode] = None
        self.parent: Optional[IBSNode] = parent
        self.height = 1
        self.red = True
        self.locs: Optional[Tuple[Tuple["IBSNode", int], ...]] = None

    @property
    def lt(self) -> Set[Hashable]:
        """Intervals covering every value insertable into the left subtree."""
        return self.slots[LT]

    @property
    def eq(self) -> Set[Hashable]:
        """Intervals containing this node's value."""
        return self.slots[EQ]

    @property
    def gt(self) -> Set[Hashable]:
        """Intervals covering every value insertable into the right subtree."""
        return self.slots[GT]

    def marker_count(self) -> int:
        """Total number of markers stored on this node."""
        return len(self.slots[LT]) + len(self.slots[EQ]) + len(self.slots[GT])

    def __repr__(self) -> str:
        sets = ", ".join(
            f"{name}:{sorted(map(str, s))}" for name, s in zip(_SLOT_NAMES, self.slots)
        )
        return f"<IBSNode {self.value!r} {sets}>"


class IBSTree(IntervalIndex):
    """Dynamic index over intervals supporting stabbing queries.

    Example::

        >>> from repro import IBSTree, Interval
        >>> tree = IBSTree()
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

    Identifiers may be any hashable value; if none is given a fresh
    integer is assigned.  The same interval bounds may be inserted under
    many identifiers.  The batch forms ``stab_into`` and ``stab_many``
    are :class:`~repro.core.stabbing.IntervalIndex`'s loops over
    :meth:`stab`.
    """

    def __init__(self) -> None:
        self._root: Optional[IBSNode] = None
        self._intervals: Dict[Hashable, Interval] = {}
        self._marker_locs: Dict[Hashable, Set[Tuple[IBSNode, int]]] = {}
        #: endpoint value -> idents of intervals anchored there; a node
        #: exists for a value exactly while this set is non-empty, and
        #: the mapping doubles as the index behind interval-overlap
        #: queries (:meth:`overlapping`).
        self._endpoint_idents: Dict[Any, Set[Hashable]] = {}
        self._ident_counter = itertools.count()
        #: monotone mutation counter: bumped by every operation that can
        #: change a stab answer (insert/delete/bulk_load/clear).  Callers
        #: caching stab results key them on ``(value, epoch)`` so stale
        #: entries die by key mismatch instead of invalidation scans.
        self.epoch = 0
        #: set by :meth:`freeze`; mutators refuse to run afterwards so a
        #: tree published inside an immutable epoch snapshot (see
        #: ``repro.concurrency``) cannot be changed under lock-free
        #: readers.
        self._frozen = False

    def freeze(self) -> None:
        """Make the tree permanently immutable.

        After freezing, :meth:`insert`, :meth:`delete`,
        :meth:`bulk_load` and :meth:`clear` raise :class:`TreeError`.
        Read paths (``stab``/``stab_many``/``overlapping``/statistics)
        are unaffected.  There is deliberately no thaw: snapshot readers
        hold references to this object with no synchronisation, so the
        only safe way to mutate again is to build a fresh tree.
        """
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
    # public API
    # ------------------------------------------------------------------

    def insert(self, interval: Interval, ident: Optional[Hashable] = None) -> Hashable:
        """Insert *interval* under identifier *ident* and return the identifier.

        Raises :class:`DuplicateIntervalError` if *ident* is already
        present.  Equality predicates are inserted as degenerate point
        intervals (``Interval.point(c)``).
        """
        if ident is None:
            ident = next(self._ident_counter)
            while ident in self._intervals:
                ident = next(self._ident_counter)
        if ident in self._intervals:
            raise DuplicateIntervalError(ident)
        self._check_mutable()
        self.epoch += 1
        self._intervals[ident] = interval
        self._marker_locs[ident] = set()
        for value in self._node_values(interval):
            self._endpoint_idents.setdefault(value, set()).add(ident)
        try:
            self._place_markers(ident, interval)
        except BaseException:
            self._rollback_insert(ident, interval)
            raise
        return ident

    def _rollback_insert(self, ident: Hashable, interval: Interval) -> None:
        """Undo a partially applied :meth:`insert` after a mid-placement failure.

        The marker registry records exactly the markers placed so far
        (wherever rotation fixups moved them), so removal is exact; any
        endpoint node created for this interval alone is structurally
        deleted again, leaving the tree as it was before the insert.
        """
        self._remove_markers(ident)
        self._marker_locs.pop(ident, None)
        self._intervals.pop(ident, None)
        for value in self._node_values(interval):
            anchored = self._endpoint_idents.get(value)
            if anchored is None:
                continue
            anchored.discard(ident)
            if not anchored:
                del self._endpoint_idents[value]
                if self._find_node(value) is not None:
                    self._delete_endpoint_node(value)

    def delete(self, ident: Hashable) -> None:
        """Remove the interval registered under *ident*.

        All of the interval's markers are removed, and any endpoint node
        no longer referenced by a remaining interval is structurally
        deleted from the tree (the paper's Section 4.2 deletion
        procedure).
        """
        self._check_mutable()
        try:
            interval = self._intervals.pop(ident)
        except KeyError:
            raise UnknownIntervalError(ident) from None
        self.epoch += 1
        self._remove_markers(ident)
        del self._marker_locs[ident]
        for value in self._node_values(interval):
            anchored = self._endpoint_idents[value]
            anchored.discard(ident)
            if not anchored:
                del self._endpoint_idents[value]
                self._delete_endpoint_node(value)

    def bulk_load(
        self, items: Iterable[Tuple[Interval, Optional[Hashable]]]
    ) -> List[Hashable]:
        """Load many intervals into an **empty** tree in one pass.

        *items* is an iterable of ``(interval, ident)`` pairs (``None``
        idents get fresh integers, as with :meth:`insert`).  The distinct
        endpoint values are sorted once and linked into a perfectly
        height-balanced tree by midpoint recursion; markers are then
        placed by replaying ``addLeft``/``addRight`` in *index space*:
        every endpoint is a position in the sorted array, the midpoint
        structure makes each search path a pure binary chop over index
        ranges, and the sorted order turns every value comparison the
        marker rules need (``contains``, ``right_bound <= high``,
        sentinel checks) into an integer index comparison.  No nodes are
        created, no rotations or retraces run, and no generic
        comparisons fire — which is where the speedup over N incremental
        :meth:`insert` calls comes from.

        The midpoint split leaves sibling subtree heights differing by
        at most one, so the result satisfies the AVL balance rule as
        built; the red-black variant recolours it in one extra pass.

        All-or-nothing: on any failure (including an injected fault at
        the ``tree.bulk_load`` site) the tree is reset to empty before
        the exception propagates.  Raises :class:`TreeError` if the tree
        is not empty, and :class:`DuplicateIntervalError` on duplicate
        identifiers within *items*.  Returns the identifiers in input
        order.
        """
        self._check_mutable()
        if self._intervals or self._root is not None:
            raise TreeError("bulk_load requires an empty tree")
        self.epoch += 1
        resolved: List[Tuple[Hashable, Interval]] = []
        intervals_map = self._intervals
        marker_locs = self._marker_locs
        endpoint_idents = self._endpoint_idents
        try:
            for interval, ident in items:
                if ident is None:
                    ident = next(self._ident_counter)
                    while ident in intervals_map:
                        ident = next(self._ident_counter)
                if ident in intervals_map:
                    raise DuplicateIntervalError(ident)
                intervals_map[ident] = interval
                marker_locs[ident] = set()
                # inlined _node_values: anchor the ident at both
                # endpoints (once, for a point interval)
                low, high = interval.low, interval.high
                anchored = endpoint_idents.get(low)
                if anchored is None:
                    endpoint_idents[low] = {ident}
                else:
                    anchored.add(ident)
                if high != low:
                    anchored = endpoint_idents.get(high)
                    if anchored is None:
                        endpoint_idents[high] = {ident}
                    else:
                        anchored.add(ident)
                resolved.append((ident, interval))
            ordered = self._sorted_endpoint_values()
            nodes: List[IBSNode] = [None] * len(ordered)  # type: ignore[list-item]
            self._root = self._build_balanced(ordered, nodes)
            self._after_bulk_build()
            fault_point("tree.bulk_load")
            self._bulk_place_markers(ordered, nodes, resolved)
        except BaseException:
            # The tree was empty on entry, so wholesale reset is an
            # exact rollback.
            self.clear()
            raise
        return [ident for ident, _ in resolved]

    def _bulk_place_markers(
        self,
        ordered: List[Any],
        nodes: List[IBSNode],
        resolved: List[Tuple[Hashable, Interval]],
    ) -> None:
        """Index-space ``addLeft``/``addRight`` over the midpoint build.

        The midpoint recursion makes node positions deterministic: the
        node for ``ordered[m]`` is reached by binary-chopping ``[l, h]``
        index ranges, so the search path for an endpoint is a loop over
        integers.  Both interval endpoints are themselves in *ordered*,
        so each marker-rule comparison maps to an index comparison:

        * ``value < low``            ⟺  ``m < lo_i``
        * ``interval.contains(value)``  (for a path value strictly
          inside) ⟺ ``m < hi_i`` or (``m == hi_i`` and the high end is
          inclusive), plus "not a sentinel" via the sentinel indices
        * ``right_bound <= high``    ⟺  ``rb_i <= hi_i`` (an initial
          ``right_bound`` of +inf means "only when high is +inf")

        Three exact simplifications make the loop cheap:

        * Until the two search paths fork (some ``m`` with
          ``lo_i <= m <= hi_i``), no mark condition can hold, and the
          boundary flags keep their initial values — the shared prefix
          is a bare binary search.
        * On the post-fork left descent every case-3 node satisfies
          ``m <= hi_i``, so its right-bound flag is simply "not the
          first step unless high is +inf"; symmetrically for the right
          descent's left-bound flag.
        * :meth:`_add_mark` is unrolled into direct set inserts because
          this loop runs a hundred thousand times for a 10k bulk load.
        """
        n = len(ordered)
        if n == 0:
            return
        index_of = {value: i for i, value in enumerate(ordered)}
        # sentinel positions; -7 is an impossible index meaning "absent"
        iminus = 0 if ordered[0] is MINUS_INF else -7
        iplus = n - 1 if ordered[n - 1] is PLUS_INF else -7
        # Pre-bound slot adders and shared (node, slot) location tuples:
        # each mark is then two bound-method calls and one list index,
        # with no per-mark attribute lookups or tuple allocations.
        lt_add = [node.slots[LT].add for node in nodes]
        eq_add = [node.slots[EQ].add for node in nodes]
        gt_add = [node.slots[GT].add for node in nodes]
        lt_loc = [(node, LT) for node in nodes]
        eq_loc = [(node, EQ) for node in nodes]
        gt_loc = [(node, GT) for node in nodes]
        marker_locs = self._marker_locs
        top = n - 1
        for ident, interval in resolved:
            lo_i = index_of[interval.low]
            hi_i = index_of[interval.high]
            low_inc = interval.low_inclusive
            high_inc = interval.high_inclusive
            locs_add = marker_locs[ident].add
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
                        if m < hi_i or high_inc:
                            eq_add[m](ident)
                            locs_add(eq_loc[m])
                        if rb_le_high:
                            gt_add[m](ident)
                            locs_add(gt_loc[m])
                    rb_le_high = True  # lo_i < m <= hi_i after the fork
                    h = m - 1
                else:
                    if rb_le_high and m != iplus:
                        gt_add[m](ident)
                        locs_add(gt_loc[m])
                    if low_inc:
                        eq_add[m](ident)
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
                        if m > lo_i or low_inc:
                            eq_add[m](ident)
                            locs_add(eq_loc[m])
                        if lb_ge_low:
                            lt_add[m](ident)
                            locs_add(lt_loc[m])
                    lb_ge_low = True  # lo_i <= m < hi_i after the fork
                    l = m + 1
                else:
                    if lb_ge_low and m != iminus:
                        lt_add[m](ident)
                        locs_add(lt_loc[m])
                    if high_inc:
                        eq_add[m](ident)
                        locs_add(eq_loc[m])
                    break

    def _sorted_endpoint_values(self) -> List[Any]:
        """Distinct endpoint values in tree order, sentinels at the ends."""
        finite = sorted(v for v in self._endpoint_idents if not is_infinite(v))
        ordered: List[Any] = []
        if MINUS_INF in self._endpoint_idents:
            ordered.append(MINUS_INF)
        ordered.extend(finite)
        if PLUS_INF in self._endpoint_idents:
            ordered.append(PLUS_INF)
        return ordered

    def _build_balanced(
        self, ordered: List[Any], nodes: List[IBSNode]
    ) -> Optional[IBSNode]:
        """Link *ordered* values into a height-balanced node structure.

        Fills ``nodes[i]`` with the node holding ``ordered[i]`` so the
        bulk marker pass can address nodes by sorted position.
        """

        def build(lo: int, hi: int, parent: Optional[IBSNode]) -> Optional[IBSNode]:
            if lo > hi:
                return None
            mid = (lo + hi) // 2
            node = IBSNode(ordered[mid], parent=parent)
            nodes[mid] = node
            node.left = build(lo, mid - 1, node)
            node.right = build(mid + 1, hi, node)
            # a midpoint-balanced subtree over k values has height
            # floor(log2 k) + 1 = k.bit_length()
            node.height = (hi - lo + 1).bit_length()
            return node

        return build(0, len(ordered) - 1, None)

    def _after_bulk_build(self) -> None:
        """Hook run after :meth:`bulk_load` links the balanced structure.

        Heights are already exact and the midpoint build satisfies the
        AVL rule, so the base and AVL trees need nothing; the red-black
        variant recolours here.
        """

    def stab(self, x: Any) -> Set[Hashable]:
        """Return the identifiers of all intervals containing the value *x*.

        This is the paper's ``findIntervals`` procedure: descend the
        search path for *x*, accumulating the ``<`` sets when branching
        left, the ``>`` sets when branching right, and the ``=`` set on
        an exact value match.  No interval contains an infinity
        sentinel, so a stab of one is empty.
        """
        result: Set[Hashable] = set()
        if x is MINUS_INF or x is PLUS_INF:
            return result
        node = self._root
        while node is not None:
            value = node.value
            if x == value:
                result |= node.slots[EQ]
                break
            if x < value:
                result |= node.slots[LT]
                node = node.left
            else:
                result |= node.slots[GT]
                node = node.right
        return result

    # The paper's name for the stabbing query.
    find_intervals = stab

    def overlapping(self, query: Interval) -> Set[Hashable]:
        """Identifiers of all intervals overlapping the *query* interval.

        An extension beyond the paper's point queries (useful for
        predicate subsumption checks and windowed monitoring): an
        interval overlaps the query iff it contains one of the query's
        finite endpoints, or has one of its own endpoints inside the
        query range — both checks the tree answers in
        ``O(log N + nodes in range + L)``.
        """
        candidates: Set[Hashable] = set()
        if not is_infinite(query.low):
            candidates |= self.stab(query.low)
        if not is_infinite(query.high):
            candidates |= self.stab(query.high)
        for value in self._values_in_range(query.low, query.high):
            candidates |= self._endpoint_idents.get(value, set())
        return {
            ident
            for ident in candidates
            if self._intervals[ident].overlaps(query)
        }

    # Alias matching the stab() naming convention.
    stab_interval = overlapping

    def _values_in_range(self, low: Any, high: Any) -> Iterator[Any]:
        """Node values v with low <= v <= high, in-order (sentinel-aware)."""
        node = self._root
        stack: List[IBSNode] = []
        while stack or node is not None:
            if node is not None:
                if _strictly_less(node.value, low):
                    node = node.right  # whole left subtree below range
                else:
                    stack.append(node)
                    node = node.left
                continue
            node = stack.pop()
            above = _strictly_less(high, node.value)
            if not above:
                if not _strictly_less(node.value, low):
                    yield node.value
                node = node.right
            else:
                node = None  # everything further right is above range

    def get(self, ident: Hashable) -> Interval:
        """Return the interval registered under *ident*."""
        try:
            return self._intervals[ident]
        except KeyError:
            raise UnknownIntervalError(ident) from None

    def __len__(self) -> int:
        """Number of intervals currently indexed."""
        return len(self._intervals)

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self._intervals

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._intervals)

    def items(self) -> Iterator[Tuple[Hashable, Interval]]:
        """Iterate over ``(identifier, interval)`` pairs."""
        return iter(self._intervals.items())

    def clear(self) -> None:
        """Remove every interval and node."""
        self._check_mutable()
        self.epoch += 1
        self._root = None
        self._intervals.clear()
        self._marker_locs.clear()
        self._endpoint_idents.clear()

    # -- statistics (used by the Section 5.1 space experiments) --------

    @property
    def node_count(self) -> int:
        """Number of endpoint nodes in the tree."""
        return len(self._endpoint_idents)

    @property
    def marker_count(self) -> int:
        """Total number of markers across all node slots."""
        return sum(len(locs) for locs in self._marker_locs.values())

    @property
    def height(self) -> int:
        """Height of the tree (0 when empty)."""
        return self._root.height if self._root is not None else 0

    def markers_of(self, ident: Hashable) -> int:
        """Number of markers currently placed for *ident*."""
        try:
            return len(self._marker_locs[ident])
        except KeyError:
            raise UnknownIntervalError(ident) from None

    # ------------------------------------------------------------------
    # marker placement: the paper's addLeft / addRight procedures
    # ------------------------------------------------------------------

    @staticmethod
    def _node_values(interval: Interval) -> Set[Any]:
        """The tree-node values an interval's markers are anchored to.

        Open-ended intervals anchor to the infinity sentinels, exactly as
        the paper sets ``const1``/``const2`` to -inf/+inf.
        """
        return {interval.low, interval.high}

    def _place_markers(self, ident: Hashable, interval: Interval) -> None:
        """Run ``addLeft`` then ``addRight`` for *interval*.

        Each ``add*`` pass runs to completion — leaving a valid IBS-tree —
        before the post-insert hook fires, so a balancing subclass
        rotates only ever on a valid marker configuration.
        """
        created = self._add_left(ident, interval)
        if created is not None:
            self._after_endpoint_insert(created)
        fault_point("tree.insert")
        created = self._add_right(ident, interval)
        if created is not None:
            self._after_endpoint_insert(created)

    def _add_left(self, ident: Hashable, interval: Interval) -> Optional[IBSNode]:
        """Insert the left end of *interval*: the paper's ``addLeft``.

        Descends the search path for ``interval.low``, adding ``=`` marks
        on path nodes inside the interval and ``>`` marks on path nodes
        whose entire right subtree range lies inside the interval.
        Returns the endpoint node if one had to be created, else None.
        """
        low = interval.low
        high = interval.high
        created: Optional[IBSNode] = None
        node = self._root
        right_bound: Any = PLUS_INF  # value of rightUp(node), +inf if none
        if node is None:
            self._root = created = IBSNode(low)
            node = self._root
        while True:
            value = node.value
            if value == low or (is_infinite(low) and value is low):
                # Case 1: node holds the interval's left boundary.
                if right_bound <= high and value is not PLUS_INF:
                    self._add_mark(ident, node, GT)
                if interval.low_inclusive:
                    self._add_mark(ident, node, EQ)
                return created
            if value < low:
                # Case 2: keep searching in the right subtree.
                if node.right is None:
                    node.right = created = IBSNode(low, parent=node)
                node = node.right
                continue
            # Case 3: node value exceeds the boundary.
            if interval.contains(value):
                self._add_mark(ident, node, EQ)
            if right_bound <= high and value is not PLUS_INF:
                self._add_mark(ident, node, GT)
            right_bound = value
            if node.left is None:
                node.left = created = IBSNode(low, parent=node)
            node = node.left

    def _add_right(self, ident: Hashable, interval: Interval) -> Optional[IBSNode]:
        """Insert the right end of *interval*: symmetric to ``addLeft``."""
        low = interval.low
        high = interval.high
        created: Optional[IBSNode] = None
        node = self._root
        left_bound: Any = MINUS_INF  # value of leftUp(node), -inf if none
        if node is None:
            self._root = created = IBSNode(high)
            node = self._root
        while True:
            value = node.value
            if value == high or (is_infinite(high) and value is high):
                # Case 1: node holds the interval's right boundary.
                if left_bound >= low and value is not MINUS_INF:
                    self._add_mark(ident, node, LT)
                if interval.high_inclusive:
                    self._add_mark(ident, node, EQ)
                return created
            if value > high:
                # Case 2: keep searching in the left subtree.
                if node.left is None:
                    node.left = created = IBSNode(high, parent=node)
                node = node.left
                continue
            # Case 3: node value is below the boundary.
            if interval.contains(value):
                self._add_mark(ident, node, EQ)
            if left_bound >= low and value is not MINUS_INF:
                self._add_mark(ident, node, LT)
            left_bound = value
            if node.right is None:
                node.right = created = IBSNode(high, parent=node)
            node = node.right

    def _after_endpoint_insert(self, node: IBSNode) -> None:
        """Hook invoked after an endpoint node is inserted and marked.

        A freshly linked leaf needs no marker fixups of its own: any
        interval covering its value already covers it through an ancestor
        ``<``/``>`` mark on the search path.  The unbalanced tree just
        refreshes cached heights; the AVL variant retraces and rotates.
        """
        self._update_heights_upward(node.parent)

    @staticmethod
    def _update_heights_upward(node: Optional[IBSNode]) -> None:
        while node is not None:
            left_h = node.left.height if node.left is not None else 0
            right_h = node.right.height if node.right is not None else 0
            node.height = 1 + max(left_h, right_h)
            node = node.parent

    # -- marker bookkeeping ---------------------------------------------

    def _add_mark(self, ident: Hashable, node: IBSNode, slot: int) -> None:
        node.slots[slot].add(ident)
        locs = node.locs
        if locs is None:
            # made at the first mark, not in IBSNode(): most nodes a
            # bulk load links are marked through _bulk_place_markers
            locs = node.locs = ((node, LT), (node, EQ), (node, GT))
        self._marker_locs[ident].add(locs[slot])

    def _remove_markers(self, ident: Hashable) -> None:
        """Remove every marker of *ident*, wherever rotations left them."""
        for node, slot in self._marker_locs[ident]:
            node.slots[slot].discard(ident)
        self._marker_locs[ident].clear()

    def _lift_markers(self, node: IBSNode, lifted: Dict[Hashable, Interval]) -> None:
        """Remove all markers of every interval marked on *node*.

        The affected intervals are accumulated into *lifted* so the
        caller can re-install them once the structural change is done.
        """
        idents = set().union(*node.slots)
        for ident in idents:
            if ident not in lifted:
                lifted[ident] = self._intervals[ident]
                self._remove_markers(ident)

    # ------------------------------------------------------------------
    # structural deletion of endpoint nodes
    # ------------------------------------------------------------------

    def _delete_endpoint_node(self, value: Any) -> None:
        """Remove the node holding *value* (no interval references it).

        Follows the paper's procedure: when the node has two children its
        value is swapped with its in-order predecessor (which, being the
        rightmost node of the left subtree, has no right child) and the
        predecessor position is spliced out.  Every interval with markers
        on an affected node is lifted out first and re-installed after,
        so the marker invariants are re-established from scratch exactly
        where the structure changed.
        """
        node = self._find_node(value)
        if node is None:
            raise TreeInvariantError(
                f"endpoint node for value {value!r} not found during delete"
            )
        lifted: Dict[Hashable, Interval] = {}
        self._lift_markers(node, lifted)
        if node.left is not None and node.right is not None:
            pred = node.left
            while pred.right is not None:
                pred = pred.right
            self._lift_markers(pred, lifted)
            node.value = pred.value
            node = pred  # splice out the (now markerless) predecessor slot
        self._splice(node)
        fault_point("tree.delete")
        for ident, interval in lifted.items():
            self._place_markers(ident, interval)

    def _find_node(self, value: Any) -> Optional[IBSNode]:
        node = self._root
        while node is not None:
            current = node.value
            if value == current or (is_infinite(value) and current is value):
                return node
            if is_infinite(current):
                node = node.right if current is MINUS_INF else node.left
            elif value < current:
                node = node.left
            else:
                node = node.right
        return None

    def _splice(self, node: IBSNode) -> None:
        """Unlink *node*, which has at most one child."""
        child = node.left if node.left is not None else node.right
        parent = node.parent
        if child is not None:
            child.parent = parent
        if parent is None:
            self._root = child
        elif parent.left is node:
            parent.left = child
        else:
            parent.right = child
        node.left = node.right = node.parent = None
        self._after_splice(parent)

    def _after_splice(self, parent: Optional[IBSNode]) -> None:
        """Hook invoked after a node is spliced out; AVL retraces here."""
        self._update_heights_upward(parent)

    # ------------------------------------------------------------------
    # validation (used by the test suite)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every structural and marker invariant; raise on violation.

        Checks performed:

        1. binary-search-tree ordering (strict, sentinels included);
        2. parent pointers and cached heights are consistent;
        3. marker soundness — each ``=`` mark's interval contains the
           node value; each ``<``/``>`` mark's interval covers the whole
           insertable range of the corresponding subtree;
        4. the marker registry agrees exactly with the node slots;
        5. endpoint reference counts agree with the stored intervals.

        (Completeness of stabbing queries is validated separately, by
        comparison with brute force, in the property-based tests.)
        """
        seen_locs: Dict[Hashable, Set[Tuple[IBSNode, int]]] = {
            ident: set() for ident in self._intervals
        }
        # None means "no bound on this side" (distinct from a sentinel
        # *value*: a node may legitimately hold -inf or +inf itself).
        self._validate_node(self._root, None, None, None, seen_locs)
        for ident, locs in seen_locs.items():
            if locs != self._marker_locs[ident]:
                raise TreeInvariantError(
                    f"marker registry out of sync for interval {ident!r}"
                )
        expected: Dict[Any, Set[Hashable]] = {}
        for ident, interval in self._intervals.items():
            for value in self._node_values(interval):
                expected.setdefault(value, set()).add(ident)
        if expected != self._endpoint_idents:
            raise TreeInvariantError("endpoint ident registry out of sync")

    def check_invariants(self) -> bool:
        """Public invariant check shared by every tree backend.

        Returns True when every structural and marker invariant holds;
        raises :class:`~repro.errors.TreeInvariantError` otherwise.
        Balanced variants extend :meth:`validate` with their balance
        rules, so this single entry point covers them all.
        """
        self.validate()
        return True

    def audit(self) -> List[str]:
        """Non-raising invariant check: a list of problem descriptions.

        An empty list means the tree is healthy.  Structural wreckage
        severe enough to crash the validator itself (link cycles,
        incomparable values, dangling registry entries) is reported as
        a problem rather than propagated, so callers can always audit
        a suspect tree without a try/except of their own.
        """
        try:
            self.validate()
        except TreeInvariantError as exc:
            return [str(exc)]
        except (RecursionError, TypeError, KeyError, IndexError, AttributeError) as exc:
            return [f"validator crashed: {type(exc).__name__}: {exc}"]
        return []

    def _validate_node(
        self,
        node: Optional[IBSNode],
        parent: Optional[IBSNode],
        low_bound: Any,
        high_bound: Any,
        seen_locs: Dict[Hashable, Set[Tuple[IBSNode, int]]],
    ) -> int:
        if node is None:
            return 0
        if node.parent is not parent:
            raise TreeInvariantError(f"bad parent pointer at node {node.value!r}")
        value = node.value
        low_ok = low_bound is None or _strictly_less(low_bound, value)
        high_ok = high_bound is None or _strictly_less(value, high_bound)
        if not (low_ok and high_ok):
            raise TreeInvariantError(
                f"BST ordering violated at node {value!r} "
                f"(bounds {low_bound!r}..{high_bound!r})"
            )
        for slot, idents in enumerate(node.slots):
            for ident in idents:
                if ident not in self._intervals:
                    raise TreeInvariantError(
                        f"stale marker {ident!r} at node {value!r}"
                    )
                seen_locs[ident].add((node, slot))
                interval = self._intervals[ident]
                if slot == EQ:
                    if not interval.contains(value):
                        raise TreeInvariantError(
                            f"unsound '=' marker {ident!r} at node {value!r}"
                        )
                elif slot == LT:
                    self._check_range_mark(ident, interval, low_bound, value)
                else:
                    self._check_range_mark(ident, interval, value, high_bound)
        left_h = self._validate_node(node.left, node, low_bound, value, seen_locs)
        right_h = self._validate_node(node.right, node, value, high_bound, seen_locs)
        height = 1 + max(left_h, right_h)
        if node.height != height:
            raise TreeInvariantError(f"stale height at node {value!r}")
        return height

    @staticmethod
    def _check_range_mark(
        ident: Hashable, interval: Interval, low: Any, high: Any
    ) -> None:
        """A ``<``/``>`` mark must cover the whole open range (low, high).

        ``low``/``high`` of None mean the range is unbounded on that side.
        """
        if low is None:
            low = MINUS_INF
        if high is None:
            high = PLUS_INF
        if not _strictly_less(low, high):
            return  # empty range: vacuously covered
        covered = Interval(low, high, False, False)
        if not interval.covers(covered):
            raise TreeInvariantError(
                f"unsound range marker {ident!r}: {interval} does not cover "
                f"open range ({low!r}, {high!r})"
            )

    # -- debugging helpers ----------------------------------------------

    def dump(self) -> str:
        """Return an indented textual rendering of the tree (for debugging)."""
        lines: List[str] = []

        def walk(node: Optional[IBSNode], depth: int) -> None:
            if node is None:
                return
            walk(node.right, depth + 1)
            sets = " ".join(
                f"{name}{{{','.join(sorted(map(str, s)))}}}"
                for name, s in zip(_SLOT_NAMES, node.slots)
                if s
            )
            lines.append("    " * depth + f"{node.value!r} {sets}".rstrip())
            walk(node.left, depth + 1)

        walk(self._root, 0)
        return "\n".join(lines)


def _strictly_less(a: Any, b: Any) -> bool:
    """Total-order strict comparison treating sentinels as extreme values."""
    if a is MINUS_INF:
        return b is not MINUS_INF
    if b is PLUS_INF:
        return a is not PLUS_INF
    if a is PLUS_INF or b is MINUS_INF:
        return False
    return a < b
