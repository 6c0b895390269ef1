"""MAINT — the unified maintenance plane must be (nearly) free.

The maintenance plane (``repro.maintenance``, see ``docs/maintenance.md``)
puts one op-count tick on every hot path — `match`, `match_batch`, and
the predicate writes.  That tick buys deterministic retuning,
compaction, checkpointing, and eviction, but it must
not buy them with matching throughput.  This module runs
``repro.bench.runner.run_maintenance`` and holds it to:

* **tick overhead** — the ``scheduler-idle`` row (policy installed,
  no task ever due: pure clock-and-due-scan cost) loses at most 5 %
  throughput against the ``scheduler-off`` row
  (``test_idle_overhead_within_bar``);
* **pause spreading** — the ``ckpt-background`` row (scheduler-driven
  checkpoints with ``budget_ops=1``) must not stall a single round
  longer than the ``ckpt-stop-world`` row's inline full checkpoint
  does (``test_background_checkpoint_spreads_pauses``);
* every configuration's match answers agree with the scheduler-free
  index before timing (enforced inside ``run_maintenance`` itself — a
  disagreement raises).

Running this module rewrites ``BENCH_maint.json`` at the repo root.

Set ``MAINT_BENCH_SCALE`` (e.g. ``0.1``) for a quick smoke run: the
workload shrinks, the acceptance bars are skipped (a smoke is not a
measurement), and the JSON is left untouched.
"""

import os
from pathlib import Path

import pytest

from repro.bench.reporting import write_bench
from repro.bench.runner import run_maintenance

SEED = 53
SCALE = float(os.environ.get("MAINT_BENCH_SCALE", "1.0"))
FULL_SCALE = SCALE == 1.0
SCENARIO = {
    "predicates": max(50, int(5_000 * SCALE)),
    "distinct_values": max(32, int(1_000 * SCALE)),
    "batch_size": max(20, int(400 * SCALE)),
    "rounds": max(4, int(24 * SCALE)),
    "checkpoint_every": 6 if FULL_SCALE else 2,
}
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_maint.json"

MODES = (
    "scheduler-off",
    "scheduler-idle",
    "scheduler-active",
    "ckpt-stop-world",
    "ckpt-background",
)


@pytest.fixture(scope="module")
def bench():
    rows = run_maintenance(
        seed=SEED, repeats=3 if FULL_SCALE else 1, **SCENARIO
    )
    if FULL_SCALE:
        write_bench(
            RESULT_PATH,
            {
                "experiment": "maintenance_overhead",
                "scenario": {"seed": SEED, **SCENARIO},
                "baseline": "scheduler-off (no maintenance plane)",
                "rows": rows,
            },
        )
    return rows


def by_mode(rows):
    return {row["mode"]: row for row in rows}


def test_every_mode_measured(bench):
    assert tuple(row["mode"] for row in bench) == MODES
    for row in bench:
        assert row["tuples_per_s"] > 0


def test_idle_overhead_within_bar(bench):
    """An idle scheduler costs <= 5 % of matching throughput."""
    if not FULL_SCALE:
        pytest.skip("acceptance bars apply at full scale only")
    idle = by_mode(bench)["scheduler-idle"]
    assert idle["overhead_pct"] <= 5.0, (
        f"idle maintenance plane costs {idle['overhead_pct']:.1f}% "
        f"(bar is 5%)"
    )


def test_background_checkpoint_spreads_pauses(bench):
    """Budgeted background checkpoints never stall longer than
    stop-the-world ones (that is their entire reason to exist)."""
    if not FULL_SCALE:
        pytest.skip("acceptance bars apply at full scale only")
    modes = by_mode(bench)
    stop = modes["ckpt-stop-world"]["max_pause_ms"]
    background = modes["ckpt-background"]["max_pause_ms"]
    assert background <= stop, (
        f"background checkpoint worst pause {background:.1f}ms exceeds "
        f"stop-the-world's {stop:.1f}ms"
    )
