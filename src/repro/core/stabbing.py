"""What every stabbing index shares: its contract and its stab plane.

:class:`IntervalIndex` is the contract of a one-dimensional stabbing
index: insert/delete intervals under identifiers, and return all
identifiers whose interval contains a query value.  The IBS-trees, the
disk tier's segment reader and the alternative interval structures of
the ABL1 ablation (:mod:`repro.baselines`) implement it, and each
answers the batch forms, :meth:`~IntervalIndex.stab_into` and
:meth:`~IntervalIndex.stab_many`, with the one loop over ``stab``
defined here.

A stab of a fixed set of intervals has only ``2n + 1`` distinct answers
for ``n`` distinct finite endpoints: one per endpoint value and one per
gap between neighbouring values — a segment tree's elementary
intervals, called the **stab plane** here.  :func:`stab_plane` builds
it from one sweep over the intervals, with no tree in between; the disk
tier writes it to segment files and the columnar batch plane packs it
into NumPy rows.
"""

from __future__ import annotations

from itertools import accumulate
from operator import xor
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from .intervals import MINUS_INF, PLUS_INF, Interval, is_infinite

__all__ = ["IntervalIndex", "endpoint_values", "stab_plane"]


class IntervalIndex:
    """Abstract base for one-dimensional interval (stabbing) indexes."""

    #: Short machine name used in ablation tables.
    name: str = "abstract"

    #: Whether intervals can be added after construction.
    supports_dynamic_insert: bool = True

    #: Whether intervals can be removed.
    supports_dynamic_delete: bool = True

    #: Whether open/half-open endpoint semantics are honoured exactly.
    supports_open_bounds: bool = True

    #: Whether -inf/+inf endpoints are honoured exactly.
    supports_unbounded: bool = True

    def insert(self, interval, ident: Hashable = None) -> Hashable:
        raise NotImplementedError

    def delete(self, ident: Hashable) -> None:
        raise NotImplementedError

    def stab(self, x: Any) -> Set[Hashable]:
        """Identifiers of all intervals containing *x*."""
        raise NotImplementedError

    def stab_into(self, x: Any, out: Set[Hashable]) -> Set[Hashable]:
        """Union the identifiers of intervals containing *x* into *out*.

        All-or-nothing: a ``TypeError`` from the probe leaves *out*
        untouched.
        """
        out.update(self.stab(x))
        return out

    def stab_many(self, values: Iterable[Any]) -> Dict[Any, Optional[Set[Hashable]]]:
        """Stab several values; ``{value: idents}`` per distinct value.

        Values for which :meth:`stab` raises ``TypeError`` (incomparable
        with the indexed endpoints) map to ``None``, and so does
        ``None`` itself, unconditionally — SQL NULL stabs nothing, even
        on an empty index (the NULL rule shared with the match
        pipeline's pre-probe skip).  Unhashable values raise
        ``TypeError``: the result is keyed by value.
        """
        out: Dict[Any, Optional[Set[Hashable]]] = {}
        for v in values:
            if v in out:
                continue
            if v is None:
                out[v] = None  # NULL rule: NULL stabs nothing
                continue
            try:
                out[v] = self.stab(v)
            except TypeError:
                out[v] = None
        return out

    def __len__(self) -> int:
        raise NotImplementedError


def endpoint_values(intervals: Iterable[Interval]) -> List[Any]:
    """The distinct finite endpoints of *intervals*, sorted as a tree sorts them.

    Of equal endpoints (``1`` and ``1.0``) the first stands for both, as
    a tree node does.  Incomparable endpoints raise ``TypeError``, as a
    tree build does.
    """
    endpoints = dict.fromkeys(v for interval in intervals for v in (interval.low, interval.high))
    return sorted(v for v in endpoints if not is_infinite(v))


def stab_plane(
    pairs: Sequence[Tuple[Interval, int]], values: Optional[List[Any]] = None
) -> Tuple[List[Any], List[int], List[int]]:
    """Every distinct stab outcome of ``(interval, bit)`` *pairs*, from one sweep.

    Returns ``(values, eq_rows, gap_rows)``: *values* are
    :func:`endpoint_values` of the intervals (pass them when already
    sorted), ``eq_rows[i]`` is the bitset a stab of exactly
    ``values[i]`` answers, and ``gap_rows[i]`` the answer strictly
    between ``values[i - 1]`` and ``values[i]`` (``gap_rows[0]`` below
    every value, ``gap_rows[n]`` above — also where NaN lands, since
    every comparison with it is False).  The caller numbers the bits,
    one interval per bit.

    Outcome ``2i`` is gap *i* and ``2i + 1`` is ``values[i]``; each
    interval covers one run of outcomes, so it toggles its bit at the
    run's start and one past its end in a difference array, and a
    running XOR yields the rows.
    """
    if values is None:
        values = endpoint_values(interval for interval, _ in pairs)
    position = {value: i for i, value in enumerate(values)}
    top = 2 * len(values)
    diff = [0] * (top + 2)
    for interval, bit in pairs:
        low, high = interval.low, interval.high
        # an inclusive end takes in the value's outcome, 2i + 1
        start = 0 if low is MINUS_INF else 2 * position[low] + 2 - interval.low_inclusive
        end = top if high is PLUS_INF else 2 * position[high] + interval.high_inclusive
        mask = 1 << bit
        diff[start] ^= mask
        diff[end + 1] ^= mask
    rows = list(accumulate(diff[: top + 1], xor))
    return values, rows[1::2], rows[0::2]
