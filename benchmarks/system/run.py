#!/usr/bin/env python3
"""System benchmark: rule-engine latency and throughput on four workloads.

Run from the repository root::

    python3 benchmarks/system/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--scale F]

Without ``--workload`` all four workloads run.  Each workload runs in a
fresh child process as a closed loop: one client thread issues the next
call only after the previous one returned.  ``--seconds`` sets the op
count (each workload issues a fixed number of steps per second of it),
so a faster program finishes sooner rather than doing more work.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
public functions of each layer and prints the per-layer metrics, a
per-op table of layer self times, and writes the spans to
``benchmarks/system/out/``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any checked fired-rule set is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"
#: scratch space of a child (the disk workload's data directories)
TMP = OUT / "tmp"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A child stops issuing steps this long after it started, so that it
#: always exits within the three minutes a run may take.
LOOP_DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 175.0
#: The host probe runs this many times per nominal second of steps.
PROBES_PER_SECOND = 50
#: The probe's time on the host the bounds were measured on (a 2-CPU
#: Xeon VM at 2.1 GHz); times are reported at that host speed.
PROBE_REFERENCE_S = 80e-6
#: Trace runs alternate untraced and traced blocks of steps; this many
#: blocks in all.
TRACE_BLOCKS = 100
#: A trace overhead above this names the wrapper that inflates it.
OVERHEAD_LIMIT_PCT = 15.0

WORKLOAD_NAMES = ("paper-point", "bulk-columnar", "rule-churn", "disk-maintained")

#: name -> unit, printed with ``--trace 0``
END_TO_END = {
    "setup_s": "s",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "tuples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: name -> unit, printed with ``--trace 1``
PER_LAYER = {
    "core.stab_us": "us",
    "core.descents": "count",
    "core.stab_cache_hits": "count",
    "match.match_us": "us",
    "match.self_us": "us",
    "match.candidates": "count",
    "match.yield": "ratio",
    "match.add_us": "us",
    "match.remove_us": "us",
    "rules.self_us": "us",
    "rules.action_us": "us",
    "rules.firings": "count",
    "db.store_us": "us",
    "concurrency.compact_us": "us",
    "concurrency.compactions": "count",
    "concurrency.publishes": "count",
    "maintenance.advance_us": "us",
    "maintenance.runs": "count",
    "maintenance.failures": "count",
    "disk.checkpoint_us": "us",
    "disk.seal_us": "us",
    "disk.evict_us": "us",
    "disk.seals": "count",
    "disk.evictions": "count",
    "disk.resident_kb": "KiB",
    "disk.data_mb": "MB",
    "python.gc_us": "us",
    "python.gc_collections": "count",
    "trace_overhead_pct": "%",
}
#: per-layer time metric -> the span whose self time it reports
SELF_TIME_SPANS = {
    "core.stab_us": "core.stab",
    "match.self_us": "match.match",
    "match.add_us": "match.add",
    "match.remove_us": "match.remove",
    "rules.action_us": "rules.action",
    "db.store_us": "db.store",
    "concurrency.compact_us": "concurrency.compact",
    "maintenance.advance_us": "maintenance.advance",
    "disk.checkpoint_us": "disk.checkpoint",
    "disk.seal_us": "disk.seal",
    "disk.evict_us": "disk.evict",
}
#: op kind -> (unit, scale from seconds) of its printed latencies
OP_UNITS = {
    "insert": ("us", 1e6),
    "update": ("us", 1e6),
    "bulk": ("ms", 1e3),
    "rule_change": ("us", 1e6),
}


def percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class HostProbe:
    """A fixed pure-Python task, timed between steps to track host speed.

    The host this benchmark was sized on slows down by up to 2x for
    seconds at a time.  Every time is scaled by PROBE_REFERENCE_S over
    the probe's latest time, which takes most of that out.  The probe
    reads a small, cache-resident table, so the program's own memory
    use does not move it; it allocates no containers, so it never runs
    the garbage collector.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.table = {key: {"v": rng.randint(1, 10_000)} for key in range(256)}
        self.keys = list(range(256)) * 8

    def __call__(self) -> float:
        """Seconds of the best of three passes over the table."""
        table, keys = self.table, self.keys
        best = float("inf")
        for _ in range(3):
            total = 0
            start = time.perf_counter()
            for key in keys:
                total += table[key]["v"]
            best = min(best, time.perf_counter() - start)
        return best


# ----------------------------------------------------------------------
# child: one workload in this process
# ----------------------------------------------------------------------


class Runner:
    """Times each API call of the closed loop; traced or not per block.

    Times are kept at reference host speed (see :class:`HostProbe`).
    """

    def __init__(self, probe: HostProbe, tracer: Any = None) -> None:
        self.probe = probe
        self.tracer = tracer
        self.traced = False
        self.scale = 1.0
        self.probes: List[float] = []
        #: op kind -> call latencies (s), split by traced / untraced
        self.calls: Dict[bool, Dict[str, List[float]]] = {
            False: defaultdict(list),
            True: defaultdict(list),
        }
        #: (latency, tuples mutated, seconds in mutation calls) per step
        self.steps: Dict[bool, List[tuple]] = {False: [], True: []}
        self._step = [0.0, 0, 0.0]

    def sample_host(self) -> None:
        seconds = self.probe()
        self.probes.append(seconds)
        self.scale = PROBE_REFERENCE_S / seconds

    def call(self, kind: str, tuples: int, fn: Any, *args: Any) -> Any:
        if self.traced:
            result = self.tracer.op(kind, fn, args)
            elapsed = self.tracer.last
        else:
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        elapsed *= self.scale
        self.calls[self.traced][kind].append(elapsed)
        step = self._step
        step[0] += elapsed
        if tuples:
            step[1] += tuples
            step[2] += elapsed
        return result

    def end_step(self, ok: bool) -> None:
        if ok:
            self.steps[self.traced].append(tuple(self._step))
        self._step = [0.0, 0, 0.0]

    def latencies(self, traced: bool) -> List[float]:
        return [step[0] for step in self.steps[traced]]


def timed_set_up(workload: Any, probe: HostProbe) -> float:
    """One set-up, in seconds at reference host speed.

    The workload pauses between chunks of rules; the probe runs in the
    pauses and is not timed.
    """
    elapsed = 0.0
    probes: List[float] = []
    start = time.perf_counter()

    def pause() -> None:
        nonlocal elapsed, start
        elapsed += time.perf_counter() - start
        probes.append(probe())
        start = time.perf_counter()

    workload.set_up(pause)
    pause()
    return elapsed * PROBE_REFERENCE_S / statistics.median(probes)


def counters(workload: Any, publishes: List[int]) -> Dict[str, float]:
    """Counts the program exposes publicly, read between steps."""
    from workloads import RELATION

    matcher = workload.engine.matcher
    out: Dict[str, float] = {"publishes": publishes[0]}
    stats = getattr(matcher, "stats", None)
    if stats is not None:
        out["descents"] = stats.trees_searched
        out["cache_hits"] = stats.stab_cache_hits
        out["candidates"] = stats.partial_matches + stats.non_indexable_tested
        out["full"] = stats.full_matches
    if hasattr(matcher, "shard"):
        out["compactions"] = matcher.shard(RELATION).compactions
    if hasattr(matcher, "maintenance_report"):
        tasks = matcher.maintenance_report()["tasks"].values()
        out["maint_runs"] = sum(task["runs"] for task in tasks)
        out["maint_failures"] = sum(task["failures"] for task in tasks)
    return out


def end_to_end(runner: Runner, workload: Any, setups: List[float], attempted: int, failed: int) -> Dict[str, Any]:
    steps = runner.latencies(False)
    tuples = sum(step[1] for step in runner.steps[False])
    mutation_s = sum(step[2] for step in runner.steps[False])
    metrics = {
        "setup_s": statistics.median(setups),
        "step_p50_us": percentile(steps, 50) * 1e6,
        "step_p99_us": percentile(steps, 99) * 1e6,
        "tuples_per_s": tuples / mutation_s if mutation_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    probe_us = statistics.median(runner.probes) * 1e6
    print(
        f"{workload.name}: end-to-end (untraced), {len(steps)} steps; times at reference "
        f"host speed (host probe {probe_us:.1f} us, reference {PROBE_REFERENCE_S * 1e6:.1f} us)"
    )
    print(f"  {'setup_s':<22}{metrics['setup_s']:>14.4f} s    (median of {len(setups)} set-ups)")
    for kind, samples in runner.calls[False].items():
        unit, scale = OP_UNITS[kind]
        for q in (50, 99):
            label = f"{kind}_p{q}_{unit}"
            print(f"  {label:<22}{percentile(samples, q) * scale:>14.1f} {unit:<4} (n={len(samples)})")
    print(f"  {'step_p50_us':<22}{metrics['step_p50_us']:>14.1f} us   (n={len(steps)})")
    print(f"  {'step_p99_us':<22}{metrics['step_p99_us']:>14.1f} us   (n={len(steps)})")
    print(f"  {'tuples_per_s':<22}{metrics['tuples_per_s']:>14.1f} 1/s  ({tuples} tuples)")
    print(f"  {'error_rate':<22}{failed / max(1, attempted):>14.4f} ratio ({failed} of {attempted} steps raised)")
    print(f"  {'peak_rss_mb':<22}{metrics['peak_rss_mb']:>14.1f} MB")
    if workload.disk_bytes():
        print(f"  {'disk_mb':<22}{workload.disk_bytes() / 1e6:>14.3f} MB")
    return metrics


def per_layer(
    runner: Runner,
    tracer: Any,
    workload: Any,
    before: Dict[str, float],
    after: Dict[str, float],
    steps: int,
    cost: float,
) -> Dict[str, Any]:
    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    def per_step(key: str) -> float:
        return delta(key) / steps if steps else 0.0

    traced_ops = sum(tracer.ops.values())
    metrics: Dict[str, Any] = {
        metric: tracer.per_op(tracer.self_s, span) * 1e6
        for metric, span in SELF_TIME_SPANS.items()
    }
    metrics["match.match_us"] = tracer.per_op(tracer.incl_s, "match.match") * 1e6
    metrics["rules.self_us"] = sum(
        tracer.per_op(tracer.self_s, "op." + kind) for kind in tracer.ops
    ) * 1e6
    metrics["core.descents"] = per_step("descents")
    metrics["core.stab_cache_hits"] = per_step("cache_hits")
    metrics["match.candidates"] = per_step("candidates")
    metrics["match.yield"] = delta("full") / delta("candidates") if delta("candidates") else 0.0
    metrics["rules.firings"] = workload.firings
    metrics["concurrency.compactions"] = per_step("compactions")
    metrics["concurrency.publishes"] = per_step("publishes")
    metrics["maintenance.runs"] = per_step("maint_runs")
    metrics["maintenance.failures"] = delta("maint_failures")
    metrics["disk.seals"] = tracer.per_op(tracer.calls, "disk.seal")
    metrics["disk.evictions"] = tracer.positive["disk.evict"] / traced_ops if traced_ops else 0.0
    matcher = workload.engine.matcher
    disk = getattr(matcher, "storage", "memory") == "disk"
    metrics["disk.resident_kb"] = matcher.resident_bytes() / 1024.0 if disk else 0.0
    metrics["disk.data_mb"] = workload.disk_bytes() / 1e6
    metrics["python.gc_us"] = tracer.gc_s / steps * 1e6 if steps else 0.0
    metrics["python.gc_collections"] = tracer.gc_collections / steps if steps else 0.0
    untraced, traced = runner.latencies(False), runner.latencies(True)
    overhead = 0.0
    if untraced and traced:
        overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    metrics["trace_overhead_pct"] = overhead

    # the per-op table: layer self times per op kind, summing to the op span
    kinds = list(tracer.ops)
    spans = [s for s in tracer.span_names() if not s.startswith("op.")]
    print(f"{workload.name}: layer self time per op (us, as measured), {traced_ops} traced ops")
    print(f"  {'span':<22}" + "".join(f"{kind:>14}" for kind in kinds))
    rows = [("rules (op self)", ["op." + kind for kind in kinds])]
    rows += [(span, [span] * len(kinds)) for span in spans]
    for label, names in rows:
        cells = [tracer.per_op(tracer.self_s, name, kind) * 1e6 for name, kind in zip(names, kinds)]
        print(f"  {label:<22}" + "".join(f"{value:>14.1f}" for value in cells))
    sums = [
        sum(tracer.per_op(tracer.self_s, s, kind) for s in ["op." + kind] + spans) * 1e6
        for kind in kinds
    ]
    print(f"  {'= sum of self':<22}" + "".join(f"{value:>14.1f}" for value in sums))
    print(f"  {'op span':<22}" + "".join(
        f"{tracer.op_s[kind] / tracer.ops[kind] * 1e6:>14.1f}" for kind in kinds
    ))
    print(f"  largest |op span - sum of self| over all ops: {tracer.max_gap * 1e6:.6f} us")
    for kind in kinds:
        plain, with_trace = runner.calls[False].get(kind), runner.calls[True].get(kind)
        if plain and with_trace:
            pct = (statistics.median(with_trace) / statistics.median(plain) - 1.0) * 100.0
            print(f"  trace overhead on {kind}: {pct:+.1f}% (median traced vs untraced)")
    print(f"  trace overhead per step: {overhead:+.1f}%")
    if overhead > OVERHEAD_LIMIT_PCT:
        worst = max(spans, key=lambda s: tracer.per_op(tracer.calls, s))
        calls = tracer.per_op(tracer.calls, worst)
        print(
            f"  overhead above {OVERHEAD_LIMIT_PCT:.0f}%: wrapper {worst!r} runs "
            f"{calls:.1f} times per op, about {calls * cost * 1e6:.1f} us per op; coarsen it"
        )
    print(f"{workload.name}: per-layer metrics")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<26}{metrics[name]:>16.3f} {unit}")
    return metrics


def run_child(args: argparse.Namespace, plant: Optional[Callable[[Any], None]] = None) -> int:
    """Run one workload in this process; returns the exit code.

    *plant*, when given, is called with the rule engine after set-up;
    the self-test uses it to plant a wrong answer.
    """
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import WORKLOADS

    started = time.perf_counter()
    TMP.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.scale, TMP)
    probe = HostProbe()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            setups.append(timed_set_up(workload, probe))
        workload.firings = 0
        if plant is not None:
            plant(workload.engine)
        gc.collect()

        tracer = cost = None
        publishes = [0]
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install_layers(tracer, workload.engine.matcher, type(workload.log))
            cost = tracing.wrapper_cost()
            if hasattr(workload.engine.matcher, "on_publish"):

                def count_publish(*_: Any) -> None:
                    publishes[0] += 1

                workload.engine.matcher.on_publish(count_publish)
            tracer.watch_gc(True)
            before = counters(workload, publishes)
        runner = Runner(probe, tracer)
        probe_every = max(1, workload.steps_per_second // PROBES_PER_SECOND)
        n_steps = workload.n_steps(args.seconds, args.scale)
        block = max(1, n_steps // TRACE_BLOCKS)
        attempted = failed = 0
        for index in range(n_steps):
            if time.perf_counter() - started > LOOP_DEADLINE_S:
                print(f"{args.workload}: stopped after {index} of {n_steps} steps", file=sys.stderr)
                break
            if tracer is not None and runner.traced != ((index // block) % 2 == 1):
                runner.traced = not runner.traced
                if runner.traced:
                    tracer.install()
                else:
                    tracer.uninstall()
            if index % probe_every == 0:
                runner.sample_host()
            attempted += 1
            try:
                workload.step(index, runner.call)
            except Exception as exc:  # noqa: BLE001 - counted toward error_rate
                failed += 1
                workload.log.clear()
                print(f"{args.workload}: step {index} raised {exc!r}", file=sys.stderr)
                runner.end_step(ok=False)
            else:
                runner.end_step(ok=True)
        if tracer is not None:
            if runner.traced:
                tracer.uninstall()
            tracer.watch_gc(False)
            metrics = per_layer(
                runner, tracer, workload, before, counters(workload, publishes), attempted, cost
            )
            if tracer.max_gap > 1e-6:
                workload.mismatches.append(
                    f"layer self times miss an op span by {tracer.max_gap * 1e6:.3f} us"
                )
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": tracer.spans,
            }))
            print(f"{args.workload}: {len(tracer.spans)} spans written to {spans_path}")
        else:
            metrics = end_to_end(runner, workload, setups, attempted, failed)
    finally:
        workload.tear_down()
    for problem in workload.mismatches[:10]:
        print(f"{args.workload}: WRONG {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not workload.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# parent: one child process per workload
# ----------------------------------------------------------------------


def run_parent(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cannot find the program: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results: Dict[str, Any] = {}
    code = 0
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", str(args.scale),
        ]
        try:
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
            return 1
        finally:
            # a killed child leaves its scratch space behind
            shutil.rmtree(TMP, ignore_errors=True)
        lines = child.stdout.splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            sys.stdout.write(child.stdout)
            print(f"{name}: exited with code {child.returncode} and no result", file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = result
        code = code or child.returncode
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=10.0, help="sets the op count of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the full rule and op counts (the self-test uses 0.01)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return run_child(args)
    return run_parent(args)


if __name__ == "__main__":
    sys.exit(main())
