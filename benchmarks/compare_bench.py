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
non-float field (backend, mode, order, pool, …); a fresh/baseline
row without a partner is an error, not a skip — silent shape drift is
how regressions hide.

Both sides are at reference host speed (``repro.bench.timing.compare``;
each row keeps its host probe reading as ``probe_us``), so a slower
host, or a row timed after another, does not read as a regression.
Each file's median probe reading is printed next to the fresh run's,
and a baseline without them (recorded before reference-speed rows) is
refused.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: experiment key -> (file name, key of its sub-document or None for
#: the top level, ``repro.bench.runner`` function, the scenario fields
#: it takes; a field missing from the file takes the runner's default).
EXPERIMENTS = {
    "batch": ("BENCH_batch.json", None, "run_batch", ("predicates", "batch_size")),
    "rebuild": ("BENCH_rebuild.json", None, "run_rebuild", ("intervals", "point_fraction")),
    "coldstart": ("BENCH_rebuild.json", "coldstart", "run_coldstart", ("predicates", "probes")),
    "concurrency": (
        "BENCH_concurrency.json", None, "run_concurrency", ("predicates", "batch_size", "rounds")
    ),
    "maint": (
        "BENCH_maint.json",
        None,
        "run_maintenance",
        ("predicates", "distinct_values", "batch_size", "rounds", "checkpoint_every", "seed"),
    ),
}


def measure(key, scenario):
    """Fresh rows of experiment *key* at the file's *scenario* scale."""
    from repro.bench import runner

    _, _, function, fields = EXPERIMENTS[key]
    return getattr(runner, function)(
        **{field: scenario[field] for field in fields if field in scenario}
    )


def probe_us(label, rows):
    """Median host-probe reading of *rows*; refuses rows without one."""
    readings = [row.get("probe_us") for row in rows]
    if None in readings:
        raise SystemExit(
            f"{label}: rows carry no probe_us, so they were recorded before "
            "rows were kept at reference host speed; re-record the file with "
            "its benchmark module before comparing against it"
        )
    return statistics.median(readings)


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
        file_name, section, _, _ = EXPERIMENTS[key]
        label = file_name if section is None else f"{file_name}[{section}]"
        baseline_doc = load((Path(args.against) if args.against else REPO_ROOT) / file_name)
        baseline_part = baseline_doc if section is None else baseline_doc[section]
        baseline_probe = probe_us(label, baseline_part["rows"])
        if args.against:
            fresh_doc = load(REPO_ROOT / file_name)
            fresh_rows = (
                fresh_doc if section is None else fresh_doc[section]
            )["rows"]
        else:
            print(f"{label}: re-measuring at scenario scale "
                  f"{baseline_part['scenario']} ...")
            fresh_rows = measure(key, baseline_part["scenario"])
        print(
            f"{label} (threshold {args.threshold:.0%}; host probe: baseline "
            f"{baseline_probe:.1f} us, fresh {probe_us(label, fresh_rows):.1f} us):"
        )
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
