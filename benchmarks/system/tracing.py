"""Per-layer spans timed from outside the program.

The benchmark wraps public functions of each layer (tree stabs, the
matcher's ``match``/``add``/``remove``, ``Relation.insert``, shard
compaction, the maintenance scheduler, the disk tier) with wrappers
from this module.  A wrapper only appends ``(name, start, end, depth)``
to a list; when the op's root span closes, the list is turned into
spans with a parent and an op id, and each span's self time is its
duration minus the durations of its direct children.  Per op, the self
times of all its spans sum to the op's span.

Wrappers sit on whole calls only, never on per-candidate functions such
as ``Predicate.matches``; candidate counts come from the matcher's
``stats``.
"""

from __future__ import annotations

import functools
import gc
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans whose truthy results are counted (bytes freed by an eviction).
COUNT_POSITIVE = frozenset({"disk.evict"})


class Tracer:
    """Span recorder with install/uninstall of class-level wrappers.

    Spans are recorded only inside an op (:meth:`op`) on the thread
    that created the tracer; any other call goes straight through.
    """

    def __init__(self, keep_spans: int = 100_000) -> None:
        self._stack: List[str] = []
        self._events: List[tuple] = []
        self._thread = threading.get_ident()
        self._patches: Dict[Tuple[type, str], tuple] = {}
        self._next_id = 0
        self._op = 0
        self._gc_start: Optional[float] = None
        self.keep_spans = keep_spans
        #: duration of the last op, seconds
        self.last = 0.0
        #: op kind -> traced ops / seconds inside them
        self.ops: Counter = Counter()
        self.op_s: Dict[str, float] = defaultdict(float)
        #: (op kind, span) -> self seconds, calls
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: (op kind, span) -> inclusive seconds of the outermost spans of a name
        self.incl_s: Dict[Tuple[str, str], float] = defaultdict(float)
        #: span -> calls with a truthy result (spans in COUNT_POSITIVE)
        self.positive: Counter = Counter()
        #: largest |op span - sum of self times| over all ops, seconds
        self.max_gap = 0.0
        #: raw spans (name, start, end, parent id, op id) of the first ops
        self.spans: List[tuple] = []
        self.gc_s = 0.0
        self.gc_collections = 0

    # -- wrappers ----------------------------------------------------------

    def patch(self, owner: type, attr: str, span: str) -> None:
        """Register a wrapper for ``owner.attr``; :meth:`install` applies it."""
        original = owner.__dict__.get(attr)
        self._patches[(owner, attr)] = (original, self.wrap(span, getattr(owner, attr)))

    def install(self) -> None:
        for (owner, attr), (_, wrapper) in self._patches.items():
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for (owner, attr), (original, _) in self._patches.items():
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def wrap(self, span: str, fn: Callable) -> Callable:
        stack, events, thread = self._stack, self._events, self._thread
        positive = self.positive if span in COUNT_POSITIVE else None
        clock, get_ident = perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack or get_ident() != thread:
                return fn(*args, **kwargs)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                events.append((span, start, end, len(stack)))
            if positive is not None and result:
                positive[span] += 1
            return result

        return traced

    # -- ops -----------------------------------------------------------------

    def op(self, kind: str, fn: Callable, args: tuple) -> Any:
        """Run one client op as the root span ``op.<kind>``.

        Its duration is left in :attr:`last`.
        """
        name = "op." + kind
        self._stack.append(name)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._events.append((name, start, end, 0))
            self.last = end - start
            self._close(kind)

    def _close(self, kind: str) -> None:
        """Turn the op's events into spans and add up their self times."""
        events = sorted(self._events, key=lambda event: (event[1], event[3]))
        self._events.clear()
        self._op += 1
        keep = len(self.spans) < self.keep_spans
        open_frames: List[list] = []  # [name, id, duration, children]
        total_self = 0.0

        def finish(frame: list) -> float:
            name, _, duration, children = frame
            key = (kind, name)
            own = duration - children
            self.self_s[key] += own
            self.calls[key] += 1
            if not any(other[0] == name for other in open_frames):
                self.incl_s[key] += duration
            return own

        for name, start, end, depth in events:
            while len(open_frames) > depth:
                total_self += finish(open_frames.pop())
            self._next_id += 1
            parent = 0
            if open_frames:
                open_frames[-1][3] += end - start
                parent = open_frames[-1][1]
            open_frames.append([name, self._next_id, end - start, 0.0])
            if keep:
                self.spans.append((name, start, end, parent, self._op))
        while open_frames:
            total_self += finish(open_frames.pop())
        self.max_gap = max(self.max_gap, abs(self.last - total_self))
        self.ops[kind] += 1
        self.op_s[kind] += self.last

    # -- garbage collector -----------------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def watch_gc(self, on: bool) -> None:
        if on:
            gc.callbacks.append(self._on_gc)
        else:
            gc.callbacks.remove(self._on_gc)

    # -- summaries ---------------------------------------------------------------

    def span_names(self) -> List[str]:
        return sorted({span for _, span in self.self_s})

    def per_op(self, table: Dict[Tuple[str, str], float], span: str, kind: Optional[str] = None) -> float:
        """Total of *table* for *span* per traced op (of *kind*, or of all)."""
        kinds = [kind] if kind is not None else list(self.ops)
        ops = sum(self.ops[k] for k in kinds)
        if not ops:
            return 0.0
        return sum(table.get((k, span), 0.0) for k in kinds) / ops


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op."""

    def noop() -> None:
        return None

    def loop(fn: Callable) -> float:
        start = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - start

    tracer = Tracer(keep_spans=0)
    traced = tracer.wrap("noop", noop)
    plain = min(loop(noop) for _ in range(3))
    wrapped = min(tracer.op("calibrate", loop, (traced,)) for _ in range(3))
    return max(0.0, (wrapped - plain) / calls)


def install_layers(tracer: Tracer, matcher: Any, action_type: type) -> None:
    """Register a wrapper on the public entry points of every layer."""
    from repro.concurrency.shard import RelationShard
    from repro.core.flat_ibs_tree import FlatIBSTree
    from repro.core.ibs_tree import IBSTree
    from repro.db.relation import Relation
    from repro.disk.checkpoint import DiskCheckpointer
    from repro.disk.store import DiskTreeStore
    from repro.disk.tree import DiskIBSTree
    from repro.maintenance.scheduler import MaintenanceScheduler

    for tree in (IBSTree, FlatIBSTree, DiskIBSTree):
        for attr in ("stab", "stab_into", "stab_many"):
            tracer.patch(tree, attr, "core.stab")
    tracer.patch(Relation, "insert", "db.store")
    tracer.patch(Relation, "update", "db.store")
    matcher_type = type(matcher)
    tracer.patch(matcher_type, "match", "match.match")
    tracer.patch(matcher_type, "match_batch", "match.match")
    tracer.patch(matcher_type, "add", "match.add")
    tracer.patch(matcher_type, "remove", "match.remove")
    tracer.patch(RelationShard, "compact", "concurrency.compact")
    tracer.patch(MaintenanceScheduler, "advance", "maintenance.advance")
    tracer.patch(DiskCheckpointer, "checkpoint", "disk.checkpoint")
    tracer.patch(DiskIBSTree, "seal", "disk.seal")
    tracer.patch(DiskTreeStore, "maybe_evict", "disk.evict")
    tracer.patch(action_type, "__call__", "rules.action")
