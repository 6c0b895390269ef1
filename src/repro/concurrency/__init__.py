"""Thread-safe sharded matching over the paper's predicate index.

The paper evaluates its algorithm single-threaded; this package is the
"beyond the paper" layer that lets stabs proceed concurrently with
predicate registration, removal, and index maintenance:

* :class:`~repro.concurrency.shard.RelationShard` — per-relation write
  lock + immutable :class:`~repro.concurrency.shard.EpochSnapshot`
  published RCU-style (readers are lock-free);
* :class:`~repro.concurrency.facade.ConcurrentPredicateIndex` — the
  :class:`~repro.baselines.base.PredicateMatcher`-compatible facade
  that routes predicates to shards and matches each batch against one
  snapshot.  It owns no threads: concurrency comes from the callers'
  own reader threads.

The deterministic test harness that exercises this layer lives in
:mod:`repro.testing.concurrency`; the model and its guarantees are
documented in ``docs/concurrency_model.md``.
"""

from .facade import ConcurrentPredicateIndex
from .shard import DEFAULT_COMPACTION_THRESHOLD, EpochSnapshot, RelationShard

__all__ = [
    "ConcurrentPredicateIndex",
    "EpochSnapshot",
    "RelationShard",
    "DEFAULT_COMPACTION_THRESHOLD",
]
