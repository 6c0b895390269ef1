#!/usr/bin/env python3
"""Benchmark regression guard: fresh measurements vs the committed BENCH files.

For each committed ``BENCH_*.json`` the tool re-measures the same
experiment at the same scenario scale (read from the file's own
``scenario`` block, so the committed file is the single source of
truth), matches rows by their configuration fields, and compares the
throughput metric of each pair.  A fresh row more than ``--threshold``
(default 25 %) slower than its committed counterpart fails the run —
this is the CI tripwire for "the refactor quietly destroyed the batch
path".

Usage::

    python benchmarks/compare_bench.py                 # every experiment
    python benchmarks/compare_bench.py batch           # just BENCH_batch.json
    python benchmarks/compare_bench.py --threshold 0.1
    python benchmarks/compare_bench.py --against DIR   # diff two file sets,
                                                       # no re-measurement

``--against DIR`` compares the repo-root files (treated as fresh)
against the copies in *DIR* (treated as baseline) — useful after a
manual re-measure, or in CI where the committed files are copied aside
before the benchmark modules overwrite them.

Throughput metrics: rows carrying ``tuples_per_s`` compare on it
directly (higher is better); rebuild rows compare on ``1 / bulk_ms``
(bulk-load latency, lower is better); disk-tier cold-start rows
compare on ``1 / coldstart_s``.  Rows are matched on every
non-float field (backend, mode, order, workers, …); a fresh/baseline
row without a partner is an error, not a skip — silent shape drift is
how regressions hide.
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: experiment key -> (file name, callable(scenario) -> fresh rows)
EXPERIMENTS = {}


def _measure_batch(scenario):
    from repro.bench.runner import run_batch

    return run_batch(
        predicates=scenario["predicates"], batch_size=scenario["batch_size"]
    )


def _measure_rebuild(scenario):
    from repro.bench.runner import run_rebuild

    return run_rebuild(
        intervals=scenario["intervals"],
        point_fraction=scenario.get("point_fraction", 0.5),
    )


def _measure_coldstart(scenario):
    from repro.bench.runner import run_coldstart

    return run_coldstart(
        predicates=scenario["predicates"], probes=scenario.get("probes", 100)
    )


def _measure_concurrency(scenario):
    from repro.bench.runner import run_concurrency

    return run_concurrency(
        predicates=scenario["predicates"],
        batch_size=scenario["batch_size"],
        rounds=scenario["rounds"],
        workers=scenario["workers"],
        workers_curve=scenario.get("workers_curve"),
    )


#: experiment key -> (file name, measure, optional sub-document key).
#: A sub-document key means the experiment's scenario/rows live under
#: that key of the file instead of at top level (BENCH_rebuild.json
#: carries the rebuild rows at top level and the cold-start experiment
#: under "coldstart").
EXPERIMENTS["batch"] = ("BENCH_batch.json", _measure_batch, None)
EXPERIMENTS["rebuild"] = ("BENCH_rebuild.json", _measure_rebuild, None)
EXPERIMENTS["coldstart"] = ("BENCH_rebuild.json", _measure_coldstart, "coldstart")
EXPERIMENTS["concurrency"] = ("BENCH_concurrency.json", _measure_concurrency, None)


def _measure_maint(scenario):
    from repro.bench.runner import run_maintenance

    return run_maintenance(
        predicates=scenario["predicates"],
        distinct_values=scenario["distinct_values"],
        batch_size=scenario["batch_size"],
        rounds=scenario["rounds"],
        checkpoint_every=scenario.get("checkpoint_every", 6),
        seed=scenario.get("seed", 53),
    )


EXPERIMENTS["maint"] = ("BENCH_maint.json", _measure_maint, None)


def row_key(row):
    """Configuration identity: every non-float field of the row."""
    return tuple(
        sorted((k, v) for k, v in row.items() if not isinstance(v, float))
    )


def throughput(row):
    """(metric name, higher-is-better value) for one row."""
    if "tuples_per_s" in row:
        return "tuples_per_s", float(row["tuples_per_s"])
    if "bulk_ms" in row:
        return "1/bulk_ms", 1.0 / float(row["bulk_ms"])
    if "coldstart_s" in row:
        # cold-start latency, lower is better — guards the lazy
        # segment-attach path against quietly re-growing a rebuild
        return "1/coldstart_s", 1.0 / float(row["coldstart_s"])
    raise SystemExit(f"row has no throughput metric: {row!r}")


def compare_rows(name, baseline_rows, fresh_rows, threshold):
    """Return a list of (line, regressed) report entries."""
    baseline = {row_key(r): r for r in baseline_rows}
    fresh = {row_key(r): r for r in fresh_rows}
    missing = [k for k in baseline if k not in fresh]
    if missing:
        # a committed row without a fresh counterpart means coverage
        # was silently dropped — that is exactly the drift this guard
        # exists to catch, so it stays fatal
        raise SystemExit(
            f"{name}: baseline rows missing from fresh measurements\n"
            f"  only in baseline: {missing}"
        )
    report = []
    for key in fresh:
        if key not in baseline:
            # a freshly added configuration has no baseline yet: report
            # it (so additions are visible) without failing the guard —
            # it becomes load-bearing once its row is committed
            label = ", ".join(
                f"{k}={v}" for k, v in key if k not in ("intervals",)
            )
            metric, value = throughput(fresh[key])
            report.append(
                (
                    f"  {label:<42} {metric:>12}  "
                    f"{value:10.2f} (new row, no baseline)  ok",
                    False,
                )
            )
    for key in baseline:
        metric, base_value = throughput(baseline[key])
        _, fresh_value = throughput(fresh[key])
        ratio = fresh_value / base_value if base_value else float("inf")
        regressed = ratio < 1.0 - threshold
        label = ", ".join(f"{k}={v}" for k, v in key if k not in ("intervals",))
        flag = "REGRESSED" if regressed else "ok"
        report.append(
            (
                f"  {label:<42} {metric:>12}  "
                f"{ratio:6.2f}x of baseline  {flag}",
                regressed,
            )
        )
    report.sort()
    return report


def load(path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SystemExit(f"missing benchmark file: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"unparseable benchmark file {path}: {exc}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare fresh benchmark measurements against committed BENCH_*.json"
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=[*EXPERIMENTS, []],
        help="subset to check (default: all)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated fractional throughput loss (default 0.25)",
    )
    parser.add_argument(
        "--against",
        metavar="DIR",
        help="compare repo-root files against baseline copies in DIR "
        "instead of re-measuring",
    )
    args = parser.parse_args(argv)
    selected = args.experiments or list(EXPERIMENTS)

    failures = 0
    for key in selected:
        file_name, measure, section = EXPERIMENTS[key]
        label = file_name if section is None else f"{file_name}[{section}]"
        if args.against:
            baseline_doc = load(Path(args.against) / file_name)
            fresh_doc = load(REPO_ROOT / file_name)
            baseline_part = baseline_doc if section is None else baseline_doc[section]
            fresh_rows = (
                fresh_doc if section is None else fresh_doc[section]
            )["rows"]
        else:
            baseline_doc = load(REPO_ROOT / file_name)
            baseline_part = baseline_doc if section is None else baseline_doc[section]
            print(f"{label}: re-measuring at scenario scale "
                  f"{baseline_part['scenario']} ...")
            fresh_rows = measure(baseline_part["scenario"])
        print(f"{label} (threshold {args.threshold:.0%}):")
        for line, regressed in compare_rows(
            label, baseline_part["rows"], fresh_rows, args.threshold
        ):
            print(line)
            failures += regressed
    if failures:
        print(f"\n{failures} row(s) regressed beyond the threshold", file=sys.stderr)
        return 1
    print("\nno regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
