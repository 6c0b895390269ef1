"""The on-disk segment format: one frozen interval tree as flat arrays.

A **segment** is the durable form of one ``(relation, attribute)``
interval tree.  It stores the tree's *stab plane* — the ``2n + 1``
distinct stabbing-query outcomes of a fixed set of intervals (see
:func:`~repro.core.stabbing.stab_plane`) — as flat arrays that can be
served straight from an ``mmap`` without rehydrating the tree into
Python objects::

    +-----------------------------------------------------------+
    | magic "RSEGMT01" | u32 header_len | header JSON           |
    +-----------------------------------------------------------+
    | values   : n_values x f64 LE   (or pickled list)          |
    | eq_masks : n_values x mask_bytes   (bitset rows, LE)      |
    | gap_masks: (n_values + 1) x mask_bytes                    |
    | idents   : pickled list  (bit index -> identifier)        |
    | intervals: pickled list  (bit index -> Interval)          |
    +-----------------------------------------------------------+
    | footer "RSEGEND." | u32 payload crc32 | u64 payload len   |
    +-----------------------------------------------------------+

The header names every section's offset and length, the payload CRC,
and the tree's identity (relation, attribute, epoch, interval count).
The footer repeats the CRC and length so a *torn* write — a crash that
truncated the file — is detectable from the last 20 bytes alone,
without reading the payload.  Writers never expose a torn segment at
the target path: the bytes go to a temp file in the same directory,
are fsynced, and are renamed into place atomically (the
``disk.torn_segment`` fault site fires between the two payload halves,
so crash drills exercise exactly the wreckage a real kill produces).

A writer needs no tree: :func:`~repro.core.stabbing.stab_plane` sweeps
the ``(interval, ident)`` pairs once, numbering the bits by pair
position, so the same pairs in the same order always write the same
bytes.  A stab against a :class:`SegmentReader` is one ``bisect`` over
the values section (a zero-copy float64 view of the mapping in the
common numeric layout) followed by one mask-row read; decoded
identifier sets are memoised per row, so repeated probes of hot values
cost one dict hit.
Everything the reader materialises in RAM — decoded rows, the lazily
unpickled identifier and interval tables — is kept as a running count,
:meth:`SegmentReader.resident_bytes`, and is droppable via
:meth:`SegmentReader.release`; the mapped pages themselves belong to
the OS page cache, which is the point of the tier.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import pickle
import struct
import sys
import tempfile
import threading
import zlib
from bisect import bisect_right
from collections.abc import Callable, Sequence
from typing import Any, Dict, Hashable, Iterator, List, Optional, Set, Tuple

from ..core.intervals import MINUS_INF, PLUS_INF, Interval
from ..core.stabbing import IntervalIndex, stab_plane
from ..errors import CorruptSegmentError, UnknownIntervalError
from ..testing.faults import fault_point

__all__ = [
    "SEGMENT_MAGIC",
    "SEGMENT_SUFFIX",
    "SEGMENT_VERSION",
    "SegmentReader",
    "write_segment",
]

SEGMENT_MAGIC = b"RSEGMT01"
SEGMENT_FOOTER_MAGIC = b"RSEGEND."
SEGMENT_VERSION = 1
#: Every segment file ends with this suffix; the CLI and the checkpoint
#: garbage collector discover segments by it.
SEGMENT_SUFFIX = ".seg"

_FOOTER = struct.Struct("<8sIQ")

#: Largest magnitude at which every int is exactly a float64.
_EXACT_INT = 2**53

#: A ``memoryview`` cast reads the little-endian float64 values natively.
_NATIVE_F64 = sys.byteorder == "little"

#: What a reader's two empty row caches weigh (see ``resident_bytes``).
_EMPTY_CACHES = 2 * sys.getsizeof({})


def _numeric_values(values: List[Any]) -> bool:
    """True when *values* can live in a fixed-width float64 array.

    ``bool`` is excluded (it is an ``int`` subclass but a different
    domain value), as are ints beyond the 2**53 exact-float64 range —
    two distinct big ints could collide after conversion and corrupt
    the search order.  Python compares ``int`` to ``float`` exactly,
    so queries of either type binary-search correctly over the array.
    """
    for v in values:
        if type(v) is float:
            continue
        if type(v) is int and -_EXACT_INT <= v <= _EXACT_INT:
            continue
        return False
    return True


def write_segment(
    path: str,
    pairs: Any,
    relation: str,
    attribute: str,
    epoch: Optional[int] = None,
) -> Dict[str, Any]:
    """Serialise ``(interval, ident)`` *pairs* to a segment at *path*.

    *pairs* may also be an interval index (its ``items()`` and
    ``epoch``); no tree is built either way: bit *k* of every row is
    the *k*-th pair (:func:`~repro.core.stabbing.stab_plane`).
    Returns the manifest entry for the written segment: file name,
    payload CRC, total length, epoch, and interval count.  The write is
    atomic (temp + fsync + rename); the ``disk.torn_segment`` fault
    site fires between the two payload halves of the temp file, so an
    injected crash leaves the target untouched.
    """
    if hasattr(pairs, "items"):  # an interval index
        epoch = getattr(pairs, "epoch", 0) if epoch is None else epoch
        pairs = [(interval, ident) for ident, interval in pairs.items()]
    return _write_pairs(path, list(pairs), None, relation, attribute, epoch)


def _write_pairs(
    path: str,
    pairs: List[Tuple[Interval, Hashable]],
    values: Optional[List[Any]],
    relation: str,
    attribute: str,
    epoch: Optional[int],
) -> Dict[str, Any]:
    """:func:`write_segment` for a list of pairs whose sorted endpoints
    the caller may already have (*values*: a disk fold sorts them once,
    at its bulk load)."""
    interval_of = [interval for interval, _ in pairs]
    ident_of = [ident for _, ident in pairs]
    values, eq_masks, gap_masks = stab_plane(
        [(interval, bit) for bit, interval in enumerate(interval_of)], values
    )
    n_bits = len(ident_of)
    mask_bytes = max(1, (n_bits + 7) // 8)
    numeric = _numeric_values(values)

    buf = io.BytesIO()
    sections: Dict[str, Tuple[int, int]] = {}

    def section(name: str, data: bytes) -> None:
        sections[name] = (buf.tell(), len(data))
        buf.write(data)

    if numeric:
        section("values", struct.pack(f"<{len(values)}d", *values))
    else:
        section("values", pickle.dumps(values, protocol=4))
    section(
        "eq", b"".join(mask.to_bytes(mask_bytes, "little") for mask in eq_masks)
    )
    section(
        "gap", b"".join(mask.to_bytes(mask_bytes, "little") for mask in gap_masks)
    )
    section("idents", pickle.dumps(ident_of, protocol=4))
    section("intervals", pickle.dumps(interval_of, protocol=4))
    payload = buf.getvalue()
    crc = zlib.crc32(payload) & 0xFFFFFFFF

    header = {
        "format": "repro-segment",
        "version": SEGMENT_VERSION,
        "relation": relation,
        "attribute": attribute,
        "epoch": int(epoch or 0),
        "count": len(ident_of),
        "n_values": len(values),
        "n_bits": n_bits,
        "mask_bytes": mask_bytes,
        "numeric": numeric,
        "sections": sections,
        "payload_len": len(payload),
        "payload_crc": crc,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    footer = _FOOTER.pack(SEGMENT_FOOTER_MAGIC, crc, len(payload))

    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(SEGMENT_MAGIC)
            handle.write(struct.pack("<I", len(header_bytes)))
            handle.write(header_bytes)
            # two writes with a fault point between them: an injected
            # crash leaves a *torn* temp file — the exact wreckage of a
            # real kill mid-write — and never touches the target
            mid = len(payload) // 2
            handle.write(payload[:mid])
            fault_point("disk.torn_segment")
            handle.write(payload[mid:])
            handle.write(footer)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    total_len = len(SEGMENT_MAGIC) + 4 + len(header_bytes) + len(payload) + _FOOTER.size
    return {
        "file": os.path.basename(path),
        "crc": crc,
        "length": total_len,
        "epoch": header["epoch"],
        "count": header["count"],
        "n_values": header["n_values"],
    }


class SegmentReader(IntervalIndex):
    """Serve stabbing queries straight from an mmap'd segment file.

    A read-only :class:`~repro.core.stabbing.IntervalIndex`: its batch
    forms ``stab_into`` and ``stab_many`` are the shared loops over
    :meth:`stab`.

    Opening validates the cheap structural invariants — magic, version,
    header shape, file length, and that the footer's CRC/length agree
    with the header's — which is what catches a torn or truncated
    write without touching the payload pages.  :meth:`verify` addition-
    ally recomputes the payload CRC (the CLI and crash drills use it).

    The backing file may be unlinked while the reader is open: POSIX
    keeps the mapping valid until it is closed, which is what lets a
    checkpoint garbage-collect superseded generations under live
    readers (and what the ``disk.mmap_unlink`` drill proves).
    """

    def __init__(self, path: str, verify_payload: bool = False):
        self.path = os.fspath(path)
        try:
            with open(self.path, "rb") as handle:
                prelude = handle.read(len(SEGMENT_MAGIC) + 4)
                if len(prelude) < len(SEGMENT_MAGIC) + 4:
                    raise CorruptSegmentError(
                        f"segment {self.path!r} is truncated before its header"
                    )
                if prelude[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
                    raise CorruptSegmentError(
                        f"segment {self.path!r} has a bad magic "
                        f"{prelude[:len(SEGMENT_MAGIC)]!r}"
                    )
                (header_len,) = struct.unpack_from("<I", prelude, len(SEGMENT_MAGIC))
                header_bytes = handle.read(header_len)
                if len(header_bytes) < header_len:
                    raise CorruptSegmentError(
                        f"segment {self.path!r} is truncated inside its header"
                    )
                try:
                    header = json.loads(header_bytes.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise CorruptSegmentError(
                        f"segment {self.path!r} header is not decodable: {exc}"
                    ) from exc
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except FileNotFoundError:
            raise
        except OSError as exc:
            if isinstance(exc, CorruptSegmentError):
                raise
            raise CorruptSegmentError(
                f"segment {self.path!r} cannot be opened: {exc}"
            ) from exc
        try:
            self._load_header(header, header_len)
        except BaseException:
            self._mmap.close()
            raise
        if verify_payload:
            try:
                self.verify()
            except BaseException:
                self._mmap.close()
                raise
        #: zero-copy view of a float64 values section the host reads
        #: natively; not resident, released only by :meth:`close`
        self._view: Optional[memoryview] = None
        if self.numeric and _NATIVE_F64:
            off, length = self._sections["values"]
            self._view = memoryview(self._mmap)[off : off + length].cast("d")
        # -- lazily materialised, droppable state (resident accounting) --
        self._ident_of: Optional[List[Optional[Hashable]]] = None
        self._interval_of: Optional[List[Optional[Interval]]] = None
        self._values_list: Optional[List[Any]] = None
        self._bit_of: Optional[Dict[Hashable, int]] = None
        self._eq_cache: Dict[int, frozenset] = {}
        self._gap_cache: Dict[int, frozenset] = {}
        #: bytes of the state above, kept as it is decoded and dropped;
        #: frozen readers decode concurrently, so changes take the lock
        self._resident = _EMPTY_CACHES
        self._lock = threading.RLock()

    def _load_header(self, header: Dict[str, Any], header_len: int) -> None:
        if header.get("format") != "repro-segment":
            raise CorruptSegmentError(
                f"segment {self.path!r} is not a repro segment"
            )
        if header.get("version") != SEGMENT_VERSION:
            raise CorruptSegmentError(
                f"segment {self.path!r} has unsupported version "
                f"{header.get('version')!r} (this build reads {SEGMENT_VERSION})"
            )
        try:
            self.relation: str = header["relation"]
            self.attribute: str = header["attribute"]
            self.epoch: int = int(header["epoch"])
            self.count: int = int(header["count"])
            self.n_values: int = int(header["n_values"])
            self.n_bits: int = int(header["n_bits"])
            self.mask_bytes: int = int(header["mask_bytes"])
            self.numeric: bool = bool(header["numeric"])
            payload_len = int(header["payload_len"])
            self.payload_crc: int = int(header["payload_crc"])
            sections = {
                name: (int(off), int(length))
                for name, (off, length) in header["sections"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptSegmentError(
                f"segment {self.path!r} header is malformed: {exc}"
            ) from exc
        self._payload_start = len(SEGMENT_MAGIC) + 4 + header_len
        self._payload_len = payload_len
        expected_total = self._payload_start + payload_len + _FOOTER.size
        if len(self._mmap) != expected_total:
            raise CorruptSegmentError(
                f"segment {self.path!r} is {len(self._mmap)} bytes, "
                f"expected {expected_total} — torn or truncated write"
            )
        magic, crc, length = _FOOTER.unpack_from(
            self._mmap, self._payload_start + payload_len
        )
        if magic != SEGMENT_FOOTER_MAGIC or crc != self.payload_crc or (
            length != payload_len
        ):
            raise CorruptSegmentError(
                f"segment {self.path!r} footer disagrees with its header — "
                "torn or truncated write"
            )
        self._sections = {
            name: (self._payload_start + off, length)
            for name, (off, length) in sections.items()
        }
        for name in ("values", "eq", "gap", "idents", "intervals"):
            if name not in self._sections:
                raise CorruptSegmentError(
                    f"segment {self.path!r} is missing section {name!r}"
                )

    # -- integrity -------------------------------------------------------

    def verify(self) -> bool:
        """Recompute the payload CRC; raises on mismatch, returns True."""
        actual = (
            zlib.crc32(
                self._mmap[self._payload_start : self._payload_start + self._payload_len]
            )
            & 0xFFFFFFFF
        )
        if actual != self.payload_crc:
            raise CorruptSegmentError(
                f"segment {self.path!r} payload checksum mismatch: recorded "
                f"{self.payload_crc:08x}, computed {actual:08x}"
            )
        return True

    # -- lazy tables -----------------------------------------------------

    def _pickled(self, name: str) -> Any:
        off, length = self._sections[name]
        try:
            return pickle.loads(self._mmap[off : off + length])
        except Exception as exc:  # pickle raises a zoo of types
            raise CorruptSegmentError(
                f"segment {self.path!r} section {name!r} is not decodable: {exc}"
            ) from exc

    def _table(self, name: str, decode: Callable[[], Any]) -> Any:
        """Table attribute *name*, decoded on first use and counted once."""
        table = getattr(self, name)
        if table is None:
            with self._lock:
                table = getattr(self, name)
                if table is None:
                    table = decode()
                    setattr(self, name, table)
                    self._resident += sys.getsizeof(table) + 32 * len(table)
        return table

    def ident_table(self) -> List[Optional[Hashable]]:
        return self._table("_ident_of", lambda: self._pickled("idents"))

    def interval_table(self) -> List[Optional[Interval]]:
        return self._table("_interval_of", lambda: self._pickled("intervals"))

    def _bits(self) -> Dict[Hashable, int]:
        return self._table(
            "_bit_of",
            lambda: {i: bit for bit, i in enumerate(self.ident_table()) if i is not None},
        )

    def _values(self) -> Sequence[Any]:
        """The sorted values: the view, else the decoded list."""
        if self._view is not None:
            return self._view
        return self._table("_values_list", self._decode_values)

    def _decode_values(self) -> List[Any]:
        if not self.numeric:
            return self._pickled("values")
        off, _ = self._sections["values"]  # a host that reads float64 otherwise
        return list(struct.unpack_from(f"<{self.n_values}d", self._mmap, off))

    # -- stabbing --------------------------------------------------------

    def _locate(self, x: Any) -> Tuple[bool, int]:
        """Bisect *x*: ``(True, i)`` on an exact value hit,
        ``(False, gap_index)`` otherwise.

        Agrees with a tree descent: *x* lands right of every value it
        is not less than, so NaN-like values — every comparison False —
        reach the top gap as they do in the tree, and incomparable
        values raise ``TypeError`` like a tree stab.
        """
        values = self._values()
        i = bisect_right(values, x)
        if i and x == values[i - 1]:
            return True, i - 1
        return False, i

    def _mask_row(self, section: str, i: int) -> int:
        off, _ = self._sections[section]
        start = off + i * self.mask_bytes
        return int.from_bytes(self._mmap[start : start + self.mask_bytes], "little")

    def _decode(self, mask: int) -> frozenset:
        ident_of = self.ident_table()
        out = []
        while mask:
            low = mask & -mask
            out.append(ident_of[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def stab(self, x: Any) -> Set[Hashable]:
        """Identifiers of all intervals containing *x*."""
        if x is MINUS_INF or x is PLUS_INF:
            return set()  # no interval contains a sentinel
        exact, i = self._locate(x)
        cache = self._eq_cache if exact else self._gap_cache
        hit = cache.get(i)
        if hit is None:
            hit = self._decode(self._mask_row("eq" if exact else "gap", i))
            with self._lock:  # count the row once, in the live cache
                cache = self._eq_cache if exact else self._gap_cache
                before = sys.getsizeof(cache)
                if cache.setdefault(i, hit) is hit:
                    self._resident += sys.getsizeof(hit) + sys.getsizeof(cache) - before
        return set(hit)

    def overlapping(self, query: Interval) -> Set[Hashable]:
        """Identifiers of all intervals overlapping *query* (table scan)."""
        ident_of = self.ident_table()
        return {
            ident_of[bit]
            for bit, interval in enumerate(self.interval_table())
            if interval is not None and interval.overlaps(query)
        }

    # -- table access ----------------------------------------------------

    def get(self, ident: Hashable) -> Interval:
        try:
            bit = self._bits()[ident]
        except KeyError:
            raise UnknownIntervalError(ident) from None
        interval = self.interval_table()[bit]
        assert interval is not None
        return interval

    def items(self) -> Iterator[Tuple[Hashable, Interval]]:
        intervals = self.interval_table()
        for ident, bit in self._bits().items():
            interval = intervals[bit]
            if interval is not None:
                yield ident, interval

    def __len__(self) -> int:
        return self.count

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self._bits()

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._bits())

    # -- residency -------------------------------------------------------

    def resident_bytes(self) -> int:
        """Approximate bytes of decoded state held in Python memory.

        Mapped pages (and the view over them) are *not* counted — they
        are reclaimable by the OS at any time; this measures what
        :meth:`release` can drop, as a running count kept where state is
        decoded or dropped.
        """
        return self._resident

    def release(self) -> int:
        """Drop every decoded cache; returns the bytes released."""
        with self._lock:
            freed = self._resident
            self._eq_cache = {}
            self._gap_cache = {}
            self._ident_of = None
            self._interval_of = None
            self._values_list = None
            self._bit_of = None
            self._resident = _EMPTY_CACHES
        return freed

    def close(self) -> None:
        self.release()
        if self._view is not None:
            self._view.release()  # the mmap refuses to close under a view
            self._view = None
        try:
            self._mmap.close()
        except ValueError:
            pass

    def __repr__(self) -> str:
        return (
            f"<SegmentReader {self.relation}.{self.attribute} "
            f"epoch={self.epoch} intervals={self.count} "
            f"values={self.n_values} path={self.path!r}>"
        )
