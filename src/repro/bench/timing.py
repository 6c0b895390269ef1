"""The one clock of the benchmark harness.

The paper reports *average* per-operation times (total time divided by
operation count).  Every timed region of :mod:`repro.bench` and of the
benchmark modules is read here: :func:`measure` times a callable in
this process with the collector off, and :func:`compare` times
configurations that are compared with each other, each in a spawned
process of its own, at reference host speed.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Hashable, NamedTuple, Optional, Sequence

__all__ = ["Timing", "measure", "compare", "host_probe", "PROBE_REFERENCE_S"]

#: :func:`host_probe`'s time on the reference host (a 2-CPU Xeon VM at
#: 2.1 GHz), the same task and reference as the system benchmark's
#: ``HostProbe`` (``benchmarks/system/run.py``).
PROBE_REFERENCE_S = 80e-6


class Timing(NamedTuple):
    """One timed region: its best repeat, with the collector's share apart."""

    #: Seconds in the region, with the garbage collector off.
    seconds: float
    #: Seconds of one full collection right after the region.
    gc_seconds: float
    #: The longest step of a region timed in steps (else ``seconds``).
    worst_step: float
    #: What the timed call (its last step) returned.
    result: Any = None
    #: The :func:`host_probe` reading the times were scaled by; set by
    #: :func:`compare`, whose times are at reference host speed.
    probe_seconds: Optional[float] = None


def measure(fn: Callable[..., Any], repeats: int = 1, steps: int = 0) -> Timing:
    """Time *fn* in this process; the best of *repeats* runs.

    The young generations are collected first, then the heap that
    existed is frozen (``gc.freeze``) until the call returns, so each
    later collection sees only what the runs allocated: a full
    collection's cost grows with the whole heap, not with the run.
    Each run goes with the collector off (its previous state is
    restored after) and is followed by one timed collection,
    :attr:`Timing.gc_seconds`, which also clears the run's garbage
    before the next run.  With *steps*, a run is ``fn(0) ...
    fn(steps - 1)``, each call timed: :attr:`~Timing.seconds` is their
    sum and :attr:`~Timing.worst_step` the longest.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    gc.collect(1)
    gc.freeze()
    try:
        return min((_run(fn, steps) for _ in range(repeats)), key=lambda timing: timing.seconds)
    finally:
        gc.unfreeze()


def _run(fn: Callable[..., Any], steps: int) -> Timing:
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if steps:
            laps = []
            for step in range(steps):
                start = time.perf_counter()
                result = fn(step)
                laps.append(time.perf_counter() - start)
            seconds, worst = sum(laps), max(laps)
        else:
            start = time.perf_counter()
            result = fn()
            seconds = worst = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    start = time.perf_counter()
    gc.collect()
    return Timing(seconds, time.perf_counter() - start, worst, result)


def host_probe() -> float:
    """Seconds of a fixed pure-Python task: the best of three passes.

    The task reads a small, cache-resident table, so the program's own
    memory use does not move it, and allocates no containers, so it
    never runs the garbage collector.
    """
    rng = random.Random(0)
    table = {key: {"v": rng.randint(1, 10_000)} for key in range(256)}
    keys = list(range(256)) * 8
    best = float("inf")
    for _ in range(3):
        total = 0
        start = time.perf_counter()
        for key in keys:
            total += table[key]["v"]
        best = min(best, time.perf_counter() - start)
    return best


def compare(
    job: Callable[[Any, Any], Timing],
    configurations: Sequence[Hashable],
    scenario: Any,
    repeats: int = 3,
) -> Dict[Hashable, Timing]:
    """Time each configuration in its own spawned process; the best of *repeats*.

    ``job(configuration, scenario)`` runs in the child.  It builds the
    configuration, checks its answers (an exception it raises is raised
    again here), warms it up and returns :func:`measure`'s timing.  The
    job, the configurations, the scenario and the timing's result are
    pickled, so *job* is a module-level function and the result is
    small.  One child runs at a time, and the order rotates by one per
    repeat, so a figure depends neither on the configurations timed
    before it nor on the garbage they left.

    Each child also times :func:`host_probe` before and after the job
    and keeps the lower reading.  Every returned timing is scaled by
    :data:`PROBE_REFERENCE_S` over the median reading of the call (its
    :attr:`~Timing.probe_seconds`), so rows from different hosts or
    moments compare and ratios within a call stay as measured.  A
    script calling this needs an ``if __name__ == "__main__"`` guard.
    """
    context = multiprocessing.get_context("spawn")
    order = list(configurations)
    best: Dict[Hashable, Timing] = {}
    probes = []
    for repeat in range(repeats):
        shift = repeat % len(order)
        for configuration in order[shift:] + order[:shift]:
            with ProcessPoolExecutor(1, mp_context=context) as pool:
                timing = pool.submit(_child, job, configuration, scenario).result()
            probes.append(timing.probe_seconds)
            if configuration not in best or timing.seconds < best[configuration].seconds:
                best[configuration] = timing
    probe = statistics.median(probes)
    scale = PROBE_REFERENCE_S / probe
    return {  # in *configurations* order: the first repeat is unrotated
        configuration: Timing(
            timing.seconds * scale, timing.gc_seconds * scale, timing.worst_step * scale,
            timing.result, probe,
        )
        for configuration, timing in best.items()
    }


def _child(job: Callable[[Any, Any], Timing], configuration: Any, scenario: Any) -> Timing:
    before = host_probe()
    timing = job(configuration, scenario)
    return timing._replace(probe_seconds=min(before, host_probe()))
