"""The vectorized columnar batch plane (NumPy ``searchsorted`` stabs).

A frozen (or momentarily unchanging) relation's matching problem can be
answered column-at-a-time instead of tuple-at-a-time.  The key fact is
that a stab of a fixed set of intervals has only ``2n + 1`` distinct
outcomes (one per endpoint value, one per gap between consecutive
values), so one sweep over the intervals
(:func:`~repro.core.stabbing.stab_plane`) enumerates them and a whole
batch of values is stabbed with a single ``np.searchsorted`` plus one
row gather from a packed outcome bitmatrix — the Section 4.2
semantics, precomputed.

:func:`build_relation_plane` compiles one
:class:`~repro.match.catalog.RelationState` into a
:class:`ColumnarRelationPlane` holding three kinds of vectorized
evaluators:

* **entry planes** — one :class:`ColumnarIBSIndex` per indexed
  attribute, swept from the intervals of the relation's live tree
  (``items()``, so any IBS backend, disk included, serves); their stab
  rows OR into a packed candidates-per-tuple bitmatrix (the paper's
  partial matches);
* **residual planes** — one :class:`ColumnarIBSIndex` per attribute
  carrying residual interval clauses, swept from those clauses with no
  tree at all: interval containment *is* a stabbing query, so the
  residual conjunction is evaluated by the same searchsorted-plus-gather
  kernel instead of per-candidate Python;
* **function groups** — clauses sharing ``(function, attribute,
  negated)`` are evaluated once per batch into a verdict vector over
  the *original* tuple values (functions must never see the float64
  projection), then AND-ed into every owning predicate's column.

Every outcome row is pre-baked at the **full relation width** (one bit
per registered predicate, packed little-endian into bytes): the sweep
puts each interval on its predicate's column bit, so a row is one
Python int that packs with ``int.to_bytes``.  Entry rows
carry only the bits their tree owns, so composing attributes is a plain
byte-wise OR of row gathers; residual rows carry ones on every *foreign*
bit, so composing them is a byte-wise AND that cannot disturb other
predicates' verdicts.  That trades plane memory (each row spans the
relation) for a kernel with no per-column scatter — the batch loop is
gathers, ORs and ANDs over contiguous bytes, unpacked exactly once at
emit time.

Predicates whose residual :func:`~repro.match.catalog.vector_residual_spec`
cannot express (unknown clause subclasses, bounds outside the exact
float64 domain) fall back to per-candidate ``predicate.matches`` at
emit time — the same seam the scalar residual stage's OPAQUE entries use —
so the plane never guesses.

Correctness boundaries, all enforced here:

* **numeric domain** — plane values and batch values must be exactly
  representable as float64 (bool / int within ±2**53 / finite-or-NaN
  float, by exact type).  A batch carrying anything else makes
  :meth:`ColumnarRelationPlane.match_batch` return ``None`` and the
  caller falls back to the scalar pipeline: foreign comparable types
  (``Decimal``, strings, big ints) may legitimately match in the
  scalar trees, so treating them as non-matching would diverge.
* **NaN** — a NaN stab descends rightward at every finite node (all
  ``<`` comparisons are False) and lands in the top gap, which is
  exactly where ``searchsorted`` places it; for *residual* intervals
  the per-tuple oracle (``Interval.contains``, rejection-style)
  accepts NaN, so residual stab rows are overridden to the all-ones
  outcome for NaN values.
* **None / missing attributes** — both project to the same "absent"
  lane: no entry probe, the absent outcome row (no candidate on entry
  planes, every owned bit cleared on residual planes), mirroring the
  scalar paths' ``tup.get(attr) is None`` convention.
* **function clauses** — evaluated column-wise, so a function is
  called once per tuple per ``(function, attribute, negated)`` group
  rather than once per candidate, and may be called on tuples a
  short-circuiting per-tuple evaluation would have skipped.  Any
  exception from such a call abandons the plane for the batch
  (``None`` return): the scalar pipeline then re-runs the batch and
  raises exactly where the per-tuple semantics say an exception is
  reachable.

The module imports cleanly without NumPy (:data:`HAVE_NUMPY` is False
and :func:`build_relation_plane` is never called) — NumPy is the
optional ``[columnar]`` extra, not a dependency.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..core.intervals import MINUS_INF, PLUS_INF, Interval
from ..core.stabbing import endpoint_values, stab_plane
from ..predicates.predicate import Predicate
from .catalog import (
    RelationState,
    _vectorizable_bound,
    vector_residual_spec,
)
from .observer import MatchObserver

try:  # pragma: no cover - exercised via the no-NumPy CI leg
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = [
    "HAVE_NUMPY",
    "ColumnarIBSIndex",
    "ColumnarRelationPlane",
    "build_relation_plane",
]

_MAX_EXACT = float(2 ** 53)

#: Bits-set-per-byte lookup, for counting partial matches without
#: unpacking the candidate matrix.
_POPCOUNT = (
    np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)
    if HAVE_NUMPY
    else None
)

#: Row ``v`` lists the set-bit offsets of byte value ``v`` in ascending
#: order (little-endian bit numbering), zero-padded to 8; together with
#: :data:`_POPCOUNT` it expands non-zero bytes to bit positions with
#: pure arithmetic (no ``np.nonzero`` scan over the unpacked matrix).
_BITPOS = (
    np.array(
        [
            ([bit for bit in range(8) if value >> bit & 1] + [0] * 8)[:8]
            for value in range(256)
        ],
        dtype=np.uint8,
    ).reshape(-1)
    if HAVE_NUMPY
    else None
)


class _OutOfDomain(Exception):
    """Internal: a batch value falls outside the plane's float64 domain."""


class ColumnarIBSIndex:
    """One attribute's stab outcomes as sorted arrays plus packed rows.

    ``values`` is the intervals' distinct finite endpoints as an
    ascending float64 array; ``packed`` holds every distinct stab
    outcome as a little-endian packed bit row (``uint8``) spanning the
    full relation width, laid out as::

        row i          (0 <= i <= n)   gap outcome strictly below
                                       values[i] (row n: above all)
        row n + 1 + i  (0 <= i <  n)   exact hit on values[i]
        row 2n + 1                     absent value (None / missing)
        row 2n + 2                     all-one (NaN on residual planes)

    so :meth:`stab_rows` is one ``searchsorted`` plus one equality mask
    over the whole batch, and :meth:`gather` yields the batch's packed
    verdict rows ready for byte-wise OR (entry planes: foreign bits are
    zero) or AND (residual planes: foreign bits are one).
    """

    __slots__ = ("values", "packed", "n")

    def __init__(self, values: Any, packed: Any) -> None:
        self.values = values
        self.packed = packed
        self.n = int(values.shape[0])

    def stab_rows(self, column: Any, isnone: Any, nan_passes: bool) -> Any:
        """Outcome-row index per batch value (one vectorized stab).

        ``nan_passes`` selects the residual-plane NaN semantics (the
        rejection-style oracle accepts NaN, so NaN rows map to the
        all-ones outcome); entry planes leave NaN in the top gap, which
        is where a scalar descent lands it.
        """
        n = self.n
        idx = np.searchsorted(self.values, column, side="left")
        if n:
            eq = np.zeros(column.shape[0], dtype=bool)
            in_bounds = idx < n
            eq[in_bounds] = self.values[idx[in_bounds]] == column[in_bounds]
            rows = np.where(eq, idx + n + 1, idx)
        else:
            rows = idx
        rows[isnone] = 2 * n + 1
        if nan_passes:
            rows[column != column] = 2 * n + 2
        return rows

    def gather(self, column: Any, isnone: Any, nan_passes: bool) -> Any:
        """The batch's packed verdict rows (batch × relation bytes)."""
        return self.packed[self.stab_rows(column, isnone, nan_passes)]


def _byte_mask(cols: List[int], n_bytes: int) -> Any:
    """A full-width packed mask with the given column bits set."""
    bits = np.zeros(n_bytes * 8, dtype=bool)
    bits[cols] = True
    return np.packbits(bits, bitorder="little")


def _stab_index(
    pairs: List[Tuple[Interval, int]], n_bytes: int, residual: bool
) -> Optional[ColumnarIBSIndex]:
    """A :class:`ColumnarIBSIndex` over ``(interval, column)`` *pairs*.

    One sweep (:func:`~repro.core.stabbing.stab_plane`) with each
    interval on its predicate's column bit yields every outcome row at
    the full relation width, so each packs with ``int.to_bytes``.
    ``residual`` selects the AND-composable layout: foreign bits one,
    the absent row clearing only owned bits, and the all-ones NaN row.

    Returns ``None`` when any endpoint falls outside the exact float64
    domain — the relation then cannot be vectorized, because
    ``searchsorted`` over inexact values would disagree with the
    tree's total order.
    """
    values = endpoint_values(interval for interval, _ in pairs)
    if not all(_vectorizable_bound(value) for value in values):
        return None
    _, eq_rows, gap_rows = stab_plane(pairs, values)
    foreign = nan = 0
    if residual:  # an absent value fails the owned bits only; NaN passes
        nan = (1 << 8 * n_bytes) - 1
        owned = _byte_mask([col for _, col in pairs], n_bytes)
        foreign = nan ^ int.from_bytes(owned.tobytes(), "little")
    rows = gap_rows + eq_rows + [0, nan]  # then the absent and the NaN row
    # filled in place, one row at a time, so the rows never exist twice
    packed = np.empty((len(rows), n_bytes), dtype=np.uint8)
    out = packed.reshape(-1).data
    for i, row in enumerate(rows):
        out[i * n_bytes : (i + 1) * n_bytes] = (row | foreign).to_bytes(n_bytes, "little")
    return ColumnarIBSIndex(np.asarray(values, dtype=np.float64), packed)


class ColumnarRelationPlane:
    """Everything needed to answer ``match_batch`` for one relation.

    Built by :func:`build_relation_plane` against one mutation version
    of the relation's state and cached there; immutable afterwards, so
    concurrent readers of a frozen index share it freely.
    """

    __slots__ = (
        "preds_by_col",
        "pred_array",
        "n_cols",
        "n_bytes",
        "entry_planes",
        "residual_planes",
        "function_groups",
        "ni_mask",
        "fallback_mask",
        "fallback_inv",
        "ni_fallback_preds",
        "float_attrs",
        "ni_count",
    )

    def __init__(
        self,
        preds_by_col: List[Predicate],
        entry_planes: List[Tuple[str, ColumnarIBSIndex]],
        residual_planes: List[Tuple[str, ColumnarIBSIndex]],
        function_groups: List[Tuple[str, Callable[[Any], Any], bool, Any]],
        ni_mask: Optional[Any],
        fallback_mask: Optional[Any],
        ni_fallback_preds: List[Predicate],
        ni_count: int,
    ) -> None:
        self.preds_by_col = preds_by_col
        self.n_cols = len(preds_by_col)
        self.n_bytes = max(1, (self.n_cols + 7) // 8)
        # object-dtype copy for C-level gathers at emit time
        self.pred_array = np.empty(self.n_cols, dtype=object)
        self.pred_array[:] = preds_by_col
        self.entry_planes = entry_planes
        self.residual_planes = residual_planes
        #: per-group (attribute, function, negated, inverse byte mask);
        #: rows whose verdict is false AND with the inverse mask
        self.function_groups = function_groups
        #: non-indexable predicates whose whole conjunction vectorized:
        #: their candidate bit is forced on (they are always tested)
        self.ni_mask = ni_mask
        #: indexed predicates the spec compiler bailed on: candidate
        #: bits survive to emit, verdicts come from predicate.matches
        self.fallback_mask = fallback_mask
        self.fallback_inv = (
            np.bitwise_not(fallback_mask) if fallback_mask is not None else None
        )
        #: non-indexable predicates the compiler bailed on: tested
        #: against every tuple by predicate.matches, like the scalar NI loop
        self.ni_fallback_preds = ni_fallback_preds
        self.float_attrs = sorted(
            {attr for attr, _ in entry_planes}
            | {attr for attr, _ in residual_planes}
        )
        self.ni_count = ni_count

    # -- batch evaluation ----------------------------------------------

    def _columns(
        self, tuples: List[Mapping[str, Any]]
    ) -> Dict[str, Tuple[Any, Any]]:
        """Extract ``(float64 column, isnone mask)`` per needed attribute.

        Raises :class:`_OutOfDomain` on any value the float64
        projection cannot represent exactly — the caller then falls
        back to the scalar pipeline for the whole batch.
        """
        size = len(tuples)
        out: Dict[str, Tuple[Any, Any]] = {}
        for attr in self.float_attrs:
            column = np.zeros(size, dtype=np.float64)
            isnone = np.zeros(size, dtype=bool)
            for i, tup in enumerate(tuples):
                value = tup.get(attr)
                kind = type(value)
                if value is None:
                    isnone[i] = True
                elif kind is float or kind is bool:
                    column[i] = value
                elif kind is int:
                    if not -_MAX_EXACT < value < _MAX_EXACT:
                        raise _OutOfDomain(attr)
                    column[i] = value
                else:
                    raise _OutOfDomain(attr)
            out[attr] = (column, isnone)
        return out

    def _function_vectors(
        self, tuples: List[Mapping[str, Any]]
    ) -> Optional[List[Tuple[Any, Any]]]:
        """One verdict vector per ``(function, attribute, negated)`` group.

        Functions see the original tuple values.  ``None`` on any
        exception: the scalar pipeline re-runs the batch and raises
        exactly where per-tuple short-circuit semantics reach the
        failing call.
        """
        vectors: List[Tuple[Any, Any]] = []
        for attr, function, negated, inv_mask in self.function_groups:
            verdicts = np.zeros(len(tuples), dtype=bool)
            try:
                for i, tup in enumerate(tuples):
                    value = tup.get(attr)
                    if value is None:
                        continue  # None never matches a clause
                    if bool(function(value)) != negated:
                        verdicts[i] = True
            except Exception:
                return None
            vectors.append((inv_mask, verdicts))
        return vectors

    def match_batch(
        self,
        tuples: List[Mapping[str, Any]],
        observer: MatchObserver,
        relation: str,
    ) -> Optional[List[List[Predicate]]]:
        """Vectorized route→stab→intersect→residual→emit over the batch.

        Returns ``None`` (before any observer event fires) when the
        batch leaves the plane's domain; otherwise the same rows — and
        the same logical observer counts — as the scalar pipeline.
        """
        try:
            columns = self._columns(tuples)
        except _OutOfDomain:
            return None
        function_vectors = self._function_vectors(tuples)
        if function_vectors is None:
            return None
        size = len(tuples)
        n_cols = self.n_cols
        # -- stab: one searchsorted + row gather per indexed attribute,
        #    OR-composed (entry rows carry only their own tree's bits) -
        matrix: Optional[Any] = None
        probes = 0
        for attr, plane in self.entry_planes:
            column, isnone = columns[attr]
            probes += size - int(isnone.sum())
            gathered = plane.gather(column, isnone, False)
            if matrix is None:
                matrix = gathered  # fancy gather: already a fresh array
            else:
                np.bitwise_or(matrix, gathered, out=matrix)
        if matrix is None:
            matrix = np.zeros((size, self.n_bytes), dtype=np.uint8)
        partial = int(_POPCOUNT[matrix].sum())
        # -- residual: stab planes over residual intervals, function
        #    verdict vectors, both AND-ed into the candidate matrix ----
        if self.ni_mask is not None:
            np.bitwise_or(matrix, self.ni_mask, out=matrix)
        fallback_hits: Optional[Tuple[Any, Any]] = None
        if self.fallback_mask is not None:
            candidates = np.unpackbits(
                matrix & self.fallback_mask,
                axis=1,
                count=n_cols,
                bitorder="little",
            )
            fallback_hits = np.nonzero(candidates)
            np.bitwise_and(matrix, self.fallback_inv, out=matrix)
        for attr, plane in self.residual_planes:
            column, isnone = columns[attr]
            np.bitwise_and(
                matrix, plane.gather(column, isnone, True), out=matrix
            )
        for inv_mask, verdicts in function_vectors:
            failed = np.flatnonzero(~verdicts)
            if failed.shape[0]:
                matrix[failed] &= inv_mask
        # -- emit: decode the verdict matrix into per-tuple rows.
        #    Matches are sparse, so scan the packed bytes (n_cols/8 per
        #    tuple) and expand only the non-zero ones; padding bits can
        #    never be set (entry rows leave them zero and everything
        #    after only ANDs or ORs real columns).
        n_bytes = self.n_bytes
        flat_bytes = matrix.reshape(-1)
        hit_bytes = np.flatnonzero(flat_bytes)
        values = flat_bytes[hit_bytes].astype(np.intp)
        counts = _POPCOUNT[values].astype(np.intp)
        total = int(counts.sum())
        which_byte = np.repeat(hit_bytes, counts)
        starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.intp) - np.repeat(starts, counts)
        bit_offs = _BITPOS[np.repeat(values, counts) * 8 + within]
        hit_rows = which_byte // n_bytes
        hit_cols = (which_byte - hit_rows * n_bytes) * 8 + bit_offs
        flat = self.pred_array[hit_cols].tolist()
        splits = np.cumsum(np.bincount(hit_rows, minlength=size)).tolist()
        results: List[List[Predicate]] = []
        start = 0
        for end in splits:
            results.append(flat[start:end])
            start = end
        full = len(flat)
        if fallback_hits is not None:
            preds_by_col = self.preds_by_col
            for row, col in zip(
                fallback_hits[0].tolist(), fallback_hits[1].tolist()
            ):
                predicate = preds_by_col[col]
                if predicate.matches(tuples[row]):
                    results[row].append(predicate)
                    full += 1
        if self.ni_fallback_preds:
            for row, tup in enumerate(tuples):
                append = results[row].append
                for predicate in self.ni_fallback_preds:
                    if predicate.matches(tup):
                        append(predicate)
                        full += 1
        observer.on_route(relation, size, True)
        observer.on_stab(relation, probes, 0, 0)
        observer.on_candidates(relation, partial, self.ni_count * size)
        observer.on_residual(relation, full)
        return results


def build_relation_plane(
    state: RelationState,
) -> Optional[ColumnarRelationPlane]:
    """Compile *state* into a :class:`ColumnarRelationPlane`, or ``None``.

    ``None`` means the relation's *shape* cannot be vectorized — a tree
    backend without ``items()`` (the baselines), or endpoints outside
    the exact float64 domain.  Individual predicates whose residuals
    the spec compiler rejects do not disqualify the relation; they ride
    along on the per-candidate fallback seam.
    """
    if not HAVE_NUMPY:
        return None
    idents = list(state.predicates)
    col_of = {ident: col for col, ident in enumerate(idents)}
    preds_by_col = [state.predicates[ident] for ident in idents]
    n_cols = len(preds_by_col)
    n_bytes = max(1, (n_cols + 7) // 8)
    entry_planes: List[Tuple[str, ColumnarIBSIndex]] = []
    for attr, tree in state.trees.items():
        if not hasattr(tree, "items"):
            return None
        pairs = [(interval, col_of[ident]) for ident, interval in tree.items()]
        plane = _stab_index(pairs, n_bytes, False)
        if plane is None:
            return None
        entry_planes.append((attr, plane))
    residual_items: Dict[str, List[Tuple[Interval, int]]] = {}
    function_cols: Dict[Tuple[Any, str, bool], List[int]] = {}
    trivial_ni_cols: List[int] = []
    fallback_cols: List[int] = []
    ni_fallback_preds: List[Predicate] = []
    non_indexable = state.non_indexable
    indexed_under = state.indexed_under
    for ident, predicate in state.predicates.items():
        col = col_of[ident]
        spec = vector_residual_spec(predicate, indexed_under.get(ident, ()))
        if spec is None:
            if ident in non_indexable:
                ni_fallback_preds.append(predicate)
            else:
                fallback_cols.append(col)
            continue
        if ident in non_indexable:
            trivial_ni_cols.append(col)
        for row in spec:
            if row[0] == "interval":
                _, attr, low, high, low_inc, high_inc = row
                interval = Interval(
                    MINUS_INF if low is None else low,
                    PLUS_INF if high is None else high,
                    low_inc,
                    high_inc,
                )
                residual_items.setdefault(attr, []).append((interval, col))
            else:
                _, attr, function, negated = row
                function_cols.setdefault((function, attr, negated), []).append(
                    col
                )
    residual_planes: List[Tuple[str, ColumnarIBSIndex]] = []
    for attr, pairs in residual_items.items():
        plane = _stab_index(pairs, n_bytes, True)
        if plane is None:  # pragma: no cover - bounds pre-checked by spec
            return None
        residual_planes.append((attr, plane))
    function_groups = [
        (
            attr,
            function,
            negated,
            np.bitwise_not(_byte_mask(cols, n_bytes)),
        )
        for (function, attr, negated), cols in function_cols.items()
    ]
    return ColumnarRelationPlane(
        preds_by_col,
        entry_planes,
        residual_planes,
        function_groups,
        _byte_mask(trivial_ni_cols, n_bytes) if trivial_ni_cols else None,
        _byte_mask(fallback_cols, n_bytes) if fallback_cols else None,
        ni_fallback_preds,
        len(non_indexable),
    )
