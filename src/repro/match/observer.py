"""Match-stage observation: counters and the observer seam.

Every stage of the :class:`~repro.match.pipeline.MatchPipeline` reports
what it did through a narrow :class:`MatchObserver` interface — one
call per stage boundary, not one per candidate — so instrumentation
(statistics, tracing, future observability exporters) plugs in without
touching the hot loops.  The default observer,
:class:`StatsObserver`, maintains the :class:`MatchStatistics`
counters that feed the paper's Section 5.2 cost model.

Counter semantics
-----------------

The counters split into two groups:

**logical** — describe the matching *problem*, so a per-tuple run and
a batched run over the same workload report identical values (the
symmetry tests assert exactly that):

* ``tuples_matched`` — tuples routed through the index;
* ``probes`` — per-tuple per-attribute index probes attempted (the
  tuple carried a non-NULL value for an indexed attribute);
* ``partial_matches`` — candidates admitted by the index probes and
  sent to the residual test;
* ``non_indexable_tested`` — brute-force tests of predicates with no
  indexable clause (one per such predicate per tuple);
* ``full_matches`` — candidates whose full conjunction matched.

**physical** — describe the *work actually done*, which the batched
and cached paths deliberately reduce:

* ``trees_searched`` — tree searches: one per uncached per-tuple
  probe, and one ``stab_many`` call per tree per batch, however many
  distinct values it stabs (a stab-cache hit searches nothing);
* ``stab_cache_hits`` — probes answered from a frozen index's stab
  cache;
* ``batches_matched`` — :meth:`match_batch` invocations;
* ``maintenance_runs`` / ``maintenance_failures`` — scheduled
  maintenance-task executions and how many of them failed (see
  :mod:`repro.maintenance`).
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "MatchStatistics",
    "MatchObserver",
    "StatsObserver",
]


class MatchStatistics:
    """Counters describing the work done by the match pipeline.

    These feed the cost model of the paper's Section 5.2 (hash probes,
    per-attribute tree searches, partial matches requiring a residual
    test, and non-indexable predicates tested by brute force).  See the
    module docstring for the logical/physical split; the
    :data:`LOGICAL_COUNTERS` subset is path-independent.
    """

    __slots__ = (
        "tuples_matched",
        "probes",
        "trees_searched",
        "partial_matches",
        "non_indexable_tested",
        "full_matches",
        "batches_matched",
        "stab_cache_hits",
        "maintenance_runs",
        "maintenance_failures",
    )

    #: Counters whose value depends only on the workload, never on the
    #: execution path (per-tuple loop vs batch vs snapshot merge).
    LOGICAL_COUNTERS = (
        "tuples_matched",
        "probes",
        "partial_matches",
        "non_indexable_tested",
        "full_matches",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters."""
        self.tuples_matched = 0
        self.probes = 0
        self.trees_searched = 0
        self.partial_matches = 0
        self.non_indexable_tested = 0
        self.full_matches = 0
        self.batches_matched = 0
        self.stab_cache_hits = 0
        self.maintenance_runs = 0
        self.maintenance_failures = 0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (for reports)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def logical_counts(self) -> Dict[str, int]:
        """The path-independent counters only (for symmetry checks)."""
        return {name: getattr(self, name) for name in self.LOGICAL_COUNTERS}

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<MatchStatistics {body}>"


class MatchObserver:
    """Stage-boundary hooks for the match pipeline.

    The pipeline batches its bookkeeping and calls each hook **once per
    stage per tuple or batch** with aggregated counts — implementations
    must be cheap, but they are not on the per-candidate fast path.
    The default implementation of every hook is a no-op, so observers
    override only the boundaries they care about.
    """

    __slots__ = ()

    def on_route(self, relation: str, count: int, batched: bool) -> None:
        """*count* tuples of *relation* entered the pipeline.

        ``batched`` is True when they arrived as one ``match_batch``
        call (fired once per batch), False for the per-tuple path.
        """

    def on_stab(
        self, relation: str, probes: int, descents: int, cache_hits: int
    ) -> None:
        """The stab stage ran: *probes* logical attribute probes were
        answered by *descents* actual tree descents plus *cache_hits*
        stab-cache hits."""

    def on_candidates(
        self, relation: str, partial: int, non_indexable: int
    ) -> None:
        """The candidate stage admitted *partial* index candidates and
        scheduled *non_indexable* brute-force residual tests."""

    def on_residual(self, relation: str, full: int) -> None:
        """The residual stage confirmed *full* complete matches."""

    def on_maintenance(self, task: str, ok: bool, spent_ops: int) -> None:
        """The maintenance scheduler ran *task*: ``ok`` says whether it
        completed, *spent_ops* is the work it charged to its budget
        (see :mod:`repro.maintenance`)."""


class StatsObserver(MatchObserver):
    """The default observer: maintains a :class:`MatchStatistics`."""

    __slots__ = ("stats",)

    def __init__(self, stats: Optional[MatchStatistics] = None) -> None:
        self.stats = stats if stats is not None else MatchStatistics()

    def on_route(self, relation: str, count: int, batched: bool) -> None:
        stats = self.stats
        stats.tuples_matched += count
        if batched:
            stats.batches_matched += 1

    def on_stab(
        self, relation: str, probes: int, descents: int, cache_hits: int
    ) -> None:
        stats = self.stats
        stats.probes += probes
        stats.trees_searched += descents
        stats.stab_cache_hits += cache_hits

    def on_candidates(
        self, relation: str, partial: int, non_indexable: int
    ) -> None:
        stats = self.stats
        stats.partial_matches += partial
        stats.non_indexable_tested += non_indexable

    def on_residual(self, relation: str, full: int) -> None:
        self.stats.full_matches += full

    def on_maintenance(self, task: str, ok: bool, spent_ops: int) -> None:
        stats = self.stats
        stats.maintenance_runs += 1
        if not ok:
            stats.maintenance_failures += 1

