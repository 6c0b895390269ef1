"""Incremental per-shard checkpoints, the predicate journal, and recovery.

The disk tier's durability story replaces PR 2's whole-database
snapshots with three files that together always name a consistent
state::

    <data_dir>/
        MANIFEST.json                 checksummed; names everything below
        journal.log                   CRC-per-line op tail (add/remove)
        <relation>/
            predicates.e<N>.pkl       CRC-gated pickled predicate records
            <attribute>.g<G>.seg      mmap-able segment files

**Checkpointing** (:class:`DiskCheckpointer`) is *incremental per
shard*: a shard whose published epoch already matches the manifest is
skipped entirely; a dirty shard is compacted (folding overlay +
tombstones into a fresh sealed base — the compaction pass that merges
them into a new on-disk base), its predicate records are rewritten, and
only then is a new manifest published atomically.  Files the new
manifest no longer references are garbage-collected *after* it is
durable — and thanks to POSIX unlink semantics, live readers still
mmap-ing a collected generation keep working until they close.

**The journal** is written by the facade's publication hooks, one CRC
line per ``add``/``remove`` at its publication epoch, so the journal
tail deterministically extends whatever epoch the manifest captured.
Recovery replays only ops whose epoch exceeds the manifest's for their
relation.  The journal is also the only durable copy of a shard's
overlay, which the facade keeps in RAM: segments are written for
compacted bases alone.

**Recovery** (:func:`recover_concurrent` / :func:`load_index`) is a
cold start, not a rehydration: predicates are attached to the catalog
without rebuilding trees (:meth:`ClauseCatalog.attach_entry`), segment
files are attached as cold mmap readers, and only a segment that fails
its checksum — or is missing outright — is rebuilt from the predicate
records (always sound: the records are the authoritative state, the
segments an acceleration).  Resident memory after recovery is bounded
by what is actually read, not by the predicate count.

Crash-drill fault sites: ``disk.torn_segment`` (inside the segment
writer), ``disk.partial_checkpoint`` (mid-manifest-write, leaving the
old manifest in place), and ``disk.mmap_unlink`` (converted into a real
unlink of a manifest-referenced segment during GC).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import struct
import tempfile
import threading
import zlib
from typing import Any, Dict, Hashable, List, Optional, Tuple
from urllib.parse import quote

from ..core.intervals import MINUS_INF, PLUS_INF, Interval
from ..core.predicate_index import PredicateIndex
from ..db.persistence import (
    crc_line,
    read_journal,
    write_checksummed_lines,
    write_json_atomic,
)
from ..errors import (
    CorruptSegmentError,
    CorruptSnapshotError,
    DatabaseError,
    InjectedFault,
)
from ..predicates.clauses import EqualityClause, FunctionClause, IntervalClause
from ..predicates.predicate import Predicate
from ..testing.faults import fault_point
from .segment import SEGMENT_SUFFIX, SegmentReader
from .store import DiskTreeStore
from .tree import DiskIBSTree

__all__ = [
    "DiskCheckpointer",
    "load_index",
    "predicate_from_dict",
    "predicate_to_dict",
    "recover_concurrent",
    "save_index",
]

MANIFEST_NAME = "MANIFEST.json"
JOURNAL_NAME = "journal.log"
MANIFEST_FORMAT = "repro-disk-manifest"
MANIFEST_VERSION = 1

#: predicates-file prelude: magic, payload CRC32, payload length.
#: The records are a pickled list of ``(predicate, under)`` pairs —
#: binary, CRC-gated, and loaded in one C-speed pass, which is what
#: keeps cold start an order of magnitude under journal replay (the
#: journal stays line-oriented JSON because *it* needs torn-tail
#: semantics; a predicates file is written atomically and is either
#: fully present or not referenced by any manifest).
PREDICATES_MAGIC = b"RPREDS01"
_PRED_PRELUDE = struct.Struct("<8sIQ")


# ----------------------------------------------------------------------
# predicate codec: JSON-safe records with a pickle escape hatch
# ----------------------------------------------------------------------


def _enc(value: Any) -> Any:
    """Encode one scalar (bound, equality constant, or ident)."""
    if value is PLUS_INF:
        return {"$inf": 1}
    if value is MINUS_INF:
        return {"$inf": -1}
    if value is None or type(value) in (int, float, str, bool):
        return value
    # arbitrary hashables (tuples, Decimals, ...) round-trip via pickle
    return {"$pickle": base64.b64encode(pickle.dumps(value, protocol=4)).decode()}


def _dec(value: Any) -> Any:
    if isinstance(value, dict):
        if "$inf" in value:
            return PLUS_INF if value["$inf"] > 0 else MINUS_INF
        if "$pickle" in value:
            return pickle.loads(base64.b64decode(value["$pickle"]))
    return value


def predicate_to_dict(predicate: Predicate) -> Dict[str, Any]:
    """Serialise *predicate* into a JSON-safe record.

    Interval and equality clauses round-trip exactly, ±infinity
    sentinels included.  Function clauses hold arbitrary callables and
    are rejected with :class:`~repro.errors.DatabaseError` — a
    disk-tier index cannot persist them (register such predicates on a
    memory-tier index, or re-register them after recovery).
    """
    clauses: List[Dict[str, Any]] = []
    for clause in predicate.clauses:
        if isinstance(clause, EqualityClause):
            clauses.append(
                {"kind": "eq", "attribute": clause.attribute, "value": _enc(clause.value)}
            )
        elif isinstance(clause, IntervalClause):
            interval = clause.interval
            clauses.append(
                {
                    "kind": "interval",
                    "attribute": clause.attribute,
                    "low": _enc(interval.low),
                    "high": _enc(interval.high),
                    "low_inc": interval.low_inclusive,
                    "high_inc": interval.high_inclusive,
                }
            )
        elif isinstance(clause, FunctionClause):
            raise DatabaseError(
                f"cannot persist function clause on {clause.attribute!r}: "
                "callables are not serialisable; the disk tier only "
                "checkpoints interval/equality predicates"
            )
        else:
            raise DatabaseError(
                f"cannot persist unknown clause type {type(clause).__name__}"
            )
    record: Dict[str, Any] = {
        "relation": predicate.relation,
        "ident": _enc(predicate.ident),
        "clauses": clauses,
    }
    if predicate.source is not None:
        record["source"] = predicate.source
    return record


def predicate_from_dict(record: Dict[str, Any]) -> Predicate:
    """Rebuild a predicate from :func:`predicate_to_dict` output."""
    try:
        clauses: List[Any] = []
        for spec in record["clauses"]:
            kind = spec["kind"]
            if kind == "eq":
                clauses.append(EqualityClause(spec["attribute"], _dec(spec["value"])))
            elif kind == "interval":
                clauses.append(
                    IntervalClause(
                        spec["attribute"],
                        Interval(
                            _dec(spec["low"]),
                            _dec(spec["high"]),
                            bool(spec["low_inc"]),
                            bool(spec["high_inc"]),
                        ),
                    )
                )
            else:
                raise DatabaseError(f"unknown clause kind {kind!r}")
        predicate = Predicate(
            record["relation"],
            clauses,
            ident=_dec(record["ident"]),
            source=record.get("source"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptSnapshotError(
            f"predicate record is malformed: {exc}"
        ) from exc
    # records are written from the catalog, which stores *normalized*
    # predicates; skip re-normalisation on the (hot) recovery path
    predicate._normal = True
    return predicate


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------


def _manifest_checksum(relations: Dict[str, Any]) -> str:
    blob = json.dumps(relations, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _write_manifest(
    data_dir: str, relations: Dict[str, Any], fault_site: Optional[str] = None
) -> None:
    write_json_atomic(
        os.path.join(data_dir, MANIFEST_NAME),
        {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "checksum": _manifest_checksum(relations),
            "relations": relations,
        },
        fault_site=fault_site,
    )


def read_manifest(data_dir: str) -> Dict[str, Any]:
    """The manifest's ``relations`` map; ``{}`` when no manifest exists.

    A torn or checksum-mismatched manifest raises
    :class:`~repro.errors.CorruptSnapshotError` — the caller decides
    whether to fall back to journal-only recovery.
    """
    path = os.path.join(data_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return {}
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptSnapshotError(
            f"manifest {path!r} is not decodable (torn write?): {exc}"
        ) from exc
    if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
        raise CorruptSnapshotError(f"{path!r} is not a disk-tier manifest")
    if data.get("version") != MANIFEST_VERSION:
        raise CorruptSnapshotError(
            f"manifest version {data.get('version')!r} unsupported "
            f"(this build reads {MANIFEST_VERSION})"
        )
    relations = data.get("relations", {})
    if _manifest_checksum(relations) != data.get("checksum"):
        raise CorruptSnapshotError(
            f"manifest {path!r} checksum mismatch — corrupt or hand-edited"
        )
    return relations


# ----------------------------------------------------------------------
# shared relation snapshot/attach helpers
# ----------------------------------------------------------------------


def _predicates_file(relation: str, epoch: int) -> str:
    return os.path.join(quote(relation, safe=""), f"predicates.e{epoch}.pkl")


def _check_persistable(predicate: Predicate) -> None:
    for clause in predicate.clauses:
        if isinstance(clause, FunctionClause):
            raise DatabaseError(
                f"cannot persist function clause on {clause.attribute!r}: "
                "callables are not serialisable; the disk tier only "
                "checkpoints interval/equality predicates"
            )


def _relation_records(
    index: PredicateIndex, relation: str
) -> List[Tuple[Predicate, Tuple[str, ...]]]:
    """``(predicate, indexed-under)`` pairs for *relation* in *index*."""
    catalog = index._catalog
    state = catalog.relations.get(relation)
    if state is None:
        return []
    records = []
    for ident, predicate in state.predicates.items():
        _check_persistable(predicate)
        records.append((predicate, tuple(state.indexed_under.get(ident, ()))))
    return records


def _write_predicates(
    path: str, records: List[Tuple[Predicate, Tuple[str, ...]]]
) -> None:
    """Atomically write a CRC-gated pickled predicates file."""
    payload = pickle.dumps(records, protocol=4)
    blob = (
        _PRED_PRELUDE.pack(PREDICATES_MAGIC, zlib.crc32(payload), len(payload))
        + payload
    )
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _read_predicates(path: str) -> List[Tuple[Predicate, Tuple[str, ...]]]:
    """Read a predicates file back; CRC-gated, corruption raises."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError as exc:
        raise CorruptSnapshotError(f"predicates file {path!r} is missing") from exc
    if len(blob) < _PRED_PRELUDE.size:
        raise CorruptSnapshotError(f"predicates file {path!r} is truncated")
    magic, crc, length = _PRED_PRELUDE.unpack_from(blob)
    payload = blob[_PRED_PRELUDE.size :]
    if magic != PREDICATES_MAGIC:
        raise CorruptSnapshotError(f"{path!r} is not a predicates file")
    if len(payload) != length or zlib.crc32(payload) != crc:
        raise CorruptSnapshotError(
            f"predicates file {path!r} fails its checksum (torn write?)"
        )
    try:
        records = pickle.loads(payload)
    except Exception as exc:
        raise CorruptSnapshotError(
            f"predicates file {path!r} does not unpickle: {exc}"
        ) from exc
    return records


def _relation_entry(
    index: PredicateIndex, relation: str, epoch: int, data_dir: str
) -> Dict[str, Any]:
    """Write *relation*'s predicate records; return its manifest entry.

    Every disk-backed tree must already be sealed (``index.seal()`` or
    ``freeze()``); a dirty tree raises — checkpointing unsealed state
    would record segments that do not exist.
    """
    records = _relation_records(index, relation)
    predicates_file = _predicates_file(relation, epoch)
    _write_predicates(os.path.join(data_dir, predicates_file), records)
    segments: Dict[str, Any] = {}
    state = index._catalog.relations.get(relation)
    if state is not None:
        for attribute, tree in state.trees.items():
            meta = tree.segment_meta() if hasattr(tree, "segment_meta") else None
            if meta is None:
                raise DatabaseError(
                    f"tree {relation}.{attribute} is not sealed; "
                    "seal() the index before checkpointing"
                )
            meta["file"] = os.path.join(
                quote(relation, safe=""), meta["file"]
            )
            segments[attribute] = meta
    return {
        "epoch": int(epoch),
        "predicates": predicates_file,
        "segments": segments,
    }


def _attach_relation(
    index: PredicateIndex, relation: str, entry: Dict[str, Any], data_dir: str
) -> List[Hashable]:
    """Cold-attach one manifest relation into *index*; returns its idents.

    Predicates land in the catalog without tree building; segments are
    attached as cold mmap readers.  A segment that is missing, torn, or
    checksum-divergent from its manifest row is **rebuilt** from the
    predicate records — the records are authoritative, segments are an
    acceleration — so recovery never fails on a damaged segment, it
    just pays a rebuild for that one attribute.
    """
    catalog = index._catalog
    store = index._store
    assert isinstance(store, DiskTreeStore)
    records = _read_predicates(os.path.join(data_dir, entry["predicates"]))
    idents: List[Hashable] = []
    decoded: Dict[Hashable, Tuple[Predicate, Tuple[str, ...]]] = {}
    for predicate, under in records:
        catalog.attach_entry(relation, predicate, under)
        decoded[predicate.ident] = (predicate, under)
        idents.append(predicate.ident)
    state = catalog._state_for(relation)
    max_epoch = 0
    for attribute, meta in entry.get("segments", {}).items():
        path = os.path.join(data_dir, meta["file"])
        tree: Optional[DiskIBSTree] = None
        try:
            tree = DiskIBSTree.from_segment(path)
            recorded_crc = meta.get("crc")
            if recorded_crc is not None and tree.segment_meta()["crc"] != recorded_crc:
                raise CorruptSegmentError(
                    f"segment {path!r} does not match its manifest checksum"
                )
        except (FileNotFoundError, OSError, CorruptSegmentError):
            # checksum-gated sound fallback: rebuild this attribute's
            # tree from the authoritative predicate records
            if tree is not None:
                tree.close()
            pairs = []
            for predicate, under in decoded.values():
                if attribute not in under:
                    continue
                for clause in predicate.clauses:
                    if (
                        isinstance(clause, IntervalClause)
                        and clause.attribute == attribute
                    ):
                        pairs.append((clause.interval, predicate.ident))
                        break
            rebuilt = store.build_tree(state, pairs, attribute)
            rebuilt.epoch = max(rebuilt.epoch, int(meta.get("epoch", 0)))
            tree = rebuilt
        else:
            store.adopt_tree(state, tree)
        state.trees[attribute] = tree
        max_epoch = max(max_epoch, tree.epoch)
    state.epoch_floor = max(state.epoch_floor, max_epoch + 1)
    state.version += 1
    return idents


# ----------------------------------------------------------------------
# serial index: save / lazy load
# ----------------------------------------------------------------------


def save_index(index: PredicateIndex, data_dir: Optional[str] = None) -> str:
    """Checkpoint a serial disk-tier index; returns the data directory.

    Seals every tree, writes per-relation predicate records, and
    publishes the manifest atomically.  The index keeps working after
    the save (it is *not* frozen).
    """
    if index.storage != "disk":
        raise DatabaseError("save_index requires PredicateIndex(storage='disk')")
    if data_dir is not None and os.path.realpath(data_dir) != os.path.realpath(
        index.data_dir or ""
    ):
        raise DatabaseError(
            "save_index writes to the index's own data_dir; build the index "
            f"with data_dir={data_dir!r} instead"
        )
    directory = index.data_dir
    assert directory is not None
    index.seal()
    relations: Dict[str, Any] = {}
    for relation in index._catalog.relations:
        relations[relation] = _relation_entry(index, relation, 0, directory)
    _write_manifest(directory, relations, fault_site="disk.partial_checkpoint")
    _collect_garbage(directory, relations)
    return directory


def load_index(data_dir: str, **options: Any) -> PredicateIndex:
    """Cold-start a serial index from segment files — no rehydration.

    The returned index serves matches straight off the mmap'd segments;
    ``options`` are forwarded to :class:`PredicateIndex` (``storage``
    and ``data_dir`` are forced).  This is the fast path
    ``BENCH_rebuild``'s cold-start experiment measures against full
    journal-style re-registration.
    """
    options.pop("storage", None)
    options.pop("data_dir", None)
    index = PredicateIndex(storage="disk", data_dir=data_dir, **options)
    for relation, entry in read_manifest(data_dir).items():
        _attach_relation(index, relation, entry, data_dir)
    return index


# ----------------------------------------------------------------------
# concurrent facade: journaling checkpointer + recovery
# ----------------------------------------------------------------------


class DiskCheckpointer:
    """Incremental checkpoints + op journal for a concurrent disk index.

    Subscribes to the facade's publication hook stream and journals
    every ``add``/``remove`` at its publication epoch (compactions and
    rebuilds change no contents and are skipped).  :meth:`checkpoint`
    makes the current state durable shard-by-shard; untouched shards
    cost nothing.

    The journal file handle is guarded by a lock because hooks fire
    from writer threads while :meth:`checkpoint` may be rewriting the
    retained tail.
    """

    def __init__(self, index: Any, data_dir: Optional[str] = None):
        if getattr(index, "storage", "memory") != "disk":
            raise DatabaseError(
                "DiskCheckpointer requires an index built with storage='disk'"
            )
        self.index = index
        self.data_dir: str = data_dir or index.data_dir
        os.makedirs(self.data_dir, exist_ok=True)
        self._journal_path = os.path.join(self.data_dir, JOURNAL_NAME)
        self._journal_lock = threading.Lock()
        self._journal_handle: Optional[Any] = None
        self._manifest: Dict[str, Any] = {}
        try:
            self._manifest = read_manifest(self.data_dir)
        except CorruptSnapshotError:
            self._manifest = {}
        index.on_publish(self._on_publish)
        # Route the checkpoint cadence through the maintenance plane:
        # when the facade carries a scheduler whose policy names a
        # checkpoint interval, background incremental checkpoints run
        # off the unified clock (budgeted, so one tick never turns into
        # a stop-the-world pass) instead of manual checkpoint() calls.
        scheduler = getattr(index, "maintenance_scheduler", None)
        if (
            scheduler is not None
            and scheduler.policy.checkpoint_interval is not None
        ):
            scheduler.register_callback(
                "checkpoint",
                lambda budget, relation: self.checkpoint(budget=budget),
                interval_ops=scheduler.policy.checkpoint_interval,
                priority=1,
                cost_class="io",
            )

    # -- journaling (runs inside shard write locks; keep it short) ------

    def _on_publish(self, relation: str, epoch: int, kind: str, payload: Any) -> None:
        if kind == "add":
            record = {
                "op": "add",
                "relation": relation,
                "epoch": int(epoch),
                "pred": predicate_to_dict(payload),
            }
        elif kind == "remove":
            record = {
                "op": "remove",
                "relation": relation,
                "epoch": int(epoch),
                "ident": _enc(payload),
            }
        else:  # compact / rebuild change no contents
            return
        with self._journal_lock:
            handle = self._journal_handle
            if handle is None or handle.closed:
                handle = self._journal_handle = open(
                    self._journal_path, "a", encoding="utf-8"
                )
            handle.write(crc_line(record))
            handle.flush()
            fault_point("journal.append")
            os.fsync(handle.fileno())

    # -- checkpointing ---------------------------------------------------

    def checkpoint(
        self, relation: Optional[str] = None, budget: Optional[Any] = None
    ) -> Dict[str, int]:
        """Make the current state durable; returns ``relation -> epoch``.

        Per shard: compact if the overlay or tombstone set is non-empty
        (merging them into a fresh sealed base), skip entirely if the
        published epoch already matches the manifest, otherwise rewrite
        the predicate records and segment rows.  The new manifest is
        published atomically at the end; a crash before that point
        (the ``disk.partial_checkpoint`` drill) leaves the previous
        manifest — and therefore a consistent recovery point — intact.

        A :class:`~repro.maintenance.MaintenanceBudget` caps the work
        of one pass: each checkpointed shard charges one op, and when
        the budget exhausts the pass stops *between* shards and still
        publishes its manifest.  That partial-coverage manifest is
        consistent by construction — every entry it carries is an
        individually sealed shard state, and :meth:`compact_journal`
        keeps the journal tail for every shard whose entry is older —
        so a preempted background checkpoint (the
        ``maint.checkpoint_preempted`` drill) narrows coverage, never
        correctness.  The skipped shards are simply first in line on
        the next tick.
        """
        shards = self.index._shard_items()
        if relation is not None:
            shards = [(name, shard) for name, shard in shards if name == relation]
        relations = dict(self._manifest)
        checkpointed: Dict[str, int] = {}
        for name, shard in shards:
            snap = shard.snapshot
            previous = relations.get(name)
            if previous is not None and previous.get("epoch") == snap.epoch:
                checkpointed[name] = snap.epoch
                continue  # incremental skip: nothing changed since
            if budget is not None and budget.exhausted():
                break  # between shards: the manifest below stays consistent
            fault_point("maint.checkpoint_preempted")
            if snap.overlay_preds or snap.removed:
                shard.compact()
                snap = shard.snapshot
            base = snap.base
            relations[name] = _relation_entry(base, name, snap.epoch, self.data_dir)
            checkpointed[name] = snap.epoch
            if budget is not None:
                budget.charge(1)
        _write_manifest(
            self.data_dir, relations, fault_site="disk.partial_checkpoint"
        )
        self._manifest = relations
        self.compact_journal()
        _collect_garbage(self.data_dir, relations)
        return checkpointed

    def compact_journal(self) -> int:
        """Drop journal ops the manifest already covers; returns kept count."""
        with self._journal_lock:
            ops = read_journal(self._journal_path)
            kept = [op for op in ops if self._op_is_tail(op)]
            if len(kept) == len(ops):
                return len(kept)
            if self._journal_handle is not None and not self._journal_handle.closed:
                self._journal_handle.close()
            self._journal_handle = None
            write_checksummed_lines(self._journal_path, kept)
            return len(kept)

    def _op_is_tail(self, op: Dict[str, Any]) -> bool:
        entry = self._manifest.get(op.get("relation"))
        if entry is None:
            return True
        return int(op.get("epoch", 0)) > int(entry.get("epoch", 0))

    def close(self) -> None:
        with self._journal_lock:
            if self._journal_handle is not None and not self._journal_handle.closed:
                self._journal_handle.close()
            self._journal_handle = None


def _collect_garbage(data_dir: str, relations: Dict[str, Any]) -> List[str]:
    """Unlink segment/predicate generations the manifest no longer names.

    Runs only after the manifest is durable.  Readers still mmap-ing a
    collected segment keep working (POSIX keeps the mapping alive past
    the unlink); the files simply stop being part of any future
    recovery.  The ``disk.mmap_unlink`` fault site is converted into
    the *real* failure here — an actual unlink of a manifest-referenced
    segment — so the recovery it drills (reads served from the
    surviving mapping now, a predicate-record rebuild at the next cold
    start) is genuine, not simulated.
    """
    referenced = {MANIFEST_NAME, JOURNAL_NAME}
    for entry in relations.values():
        referenced.add(os.path.normpath(entry["predicates"]))
        for meta in entry.get("segments", {}).values():
            referenced.add(os.path.normpath(meta["file"]))
    try:
        fault_point("disk.mmap_unlink")
    except InjectedFault:
        victims = sorted(
            name for name in referenced if name.endswith(SEGMENT_SUFFIX)
        )
        if victims:
            try:
                os.unlink(os.path.join(data_dir, victims[0]))
            except OSError:
                pass
    removed: List[str] = []
    for root, _dirs, files in os.walk(data_dir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.normpath(os.path.relpath(path, data_dir))
            if rel in referenced:
                continue
            if (
                name.endswith(SEGMENT_SUFFIX)
                or name.startswith("predicates.")
                or name.endswith(".tmp")
            ):
                try:
                    os.unlink(path)
                    removed.append(rel)
                except OSError:
                    pass
    return removed


def recover_concurrent(data_dir: str, **options: Any) -> Any:
    """Cold-start a concurrent index from segments + journal tail.

    Builds a fresh :class:`~repro.concurrency.ConcurrentPredicateIndex`
    (options forwarded; ``storage``/``data_dir`` forced), attaches each
    manifest relation as a shard whose base reads straight from the
    mmap'd segments at the manifest epoch, then replays the journal
    tail — only ops newer than each relation's checkpointed epoch —
    through the ordinary write path.  The result matches exactly what a
    never-crashed index holding the same predicates would answer.
    """
    from ..concurrency.facade import ConcurrentPredicateIndex

    options.pop("storage", None)
    options.pop("data_dir", None)
    index = ConcurrentPredicateIndex(storage="disk", data_dir=data_dir, **options)
    try:
        manifest = read_manifest(data_dir)
    except CorruptSnapshotError:
        manifest = {}  # torn manifest: journal-only recovery below
    for relation, entry in manifest.items():
        base = index._index_factory()
        idents = _attach_relation(base, relation, entry, data_dir)
        base.freeze()
        shard = index._new_shard(
            relation, initial_base=base, initial_epoch=int(entry["epoch"])
        )
        index._adopt_shard(relation, shard, idents)
    manifest_epochs = {
        relation: int(entry["epoch"]) for relation, entry in manifest.items()
    }
    for op in read_journal(os.path.join(data_dir, JOURNAL_NAME)):
        relation = op.get("relation")
        if int(op.get("epoch", 0)) <= manifest_epochs.get(relation, 0):
            continue
        if op.get("op") == "add":
            index.add(predicate_from_dict(op["pred"]))
        elif op.get("op") == "remove":
            index.remove(_dec(op["ident"]))
    return index
