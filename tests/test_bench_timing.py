"""Tests for the benchmark timing primitive, the regression guard, and
working-memory internals."""

import gc
import importlib.util
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.bench.timing import PROBE_REFERENCE_S, Timing, compare, measure
from repro.errors import RuleError
from repro.production.memory import WorkingMemory


def record_and_time(configuration, log_path):
    """A ``compare`` job: log the configuration and the process, and
    return a fixed timing whose result is the process id."""
    with open(log_path, "a") as log:
        log.write(f"{configuration} {os.getpid()}\n")
    if configuration == "wrong":
        raise AssertionError(f"{configuration} disagrees with the reference")
    return Timing(0.002, 0.001, 0.0005, os.getpid())


class TestTiming:
    def test_measure_reports_collector_time_apart(self):
        enabled = []
        timing = measure(lambda: enabled.append(gc.isenabled()))
        assert enabled == [False]
        assert timing.seconds > 0 and timing.gc_seconds > 0
        assert timing.worst_step == timing.seconds

    def test_best_of_takes_minimum(self):
        pauses = iter([0.05, 0.0, 0.05])

        def nap():
            pause = next(pauses)
            time.sleep(pause)
            return pause

        timing = measure(nap, repeats=3)
        assert timing.result == 0.0 and timing.seconds < 0.05
        with pytest.raises(ValueError):
            measure(nap, repeats=0)

    def test_steps_are_summed_and_the_worst_kept(self):
        pauses = [0.0, 0.03, 0.0]
        timing = measure(lambda step: time.sleep(pauses[step]), steps=3)
        assert timing.worst_step >= 0.03
        assert timing.worst_step <= timing.seconds < 2 * timing.worst_step

    def test_gc_state_restored(self):
        assert gc.isenabled()
        measure(lambda: None)
        assert gc.isenabled()
        gc.disable()
        try:
            measure(lambda: None)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestCompare:
    def test_each_configuration_runs_in_a_fresh_process_in_rotated_order(self, tmp_path):
        log = tmp_path / "runs.log"
        timings = compare(record_and_time, ("a", "b"), str(log), repeats=2)
        runs = [line.split() for line in log.read_text().splitlines()]
        assert [configuration for configuration, _ in runs] == ["a", "b", "b", "a"]
        pids = {int(pid) for _, pid in runs}
        assert len(pids) == 4 and os.getpid() not in pids
        assert list(timings) == ["a", "b"]
        probe = timings["a"].probe_seconds
        assert 0 < probe < 0.1
        scale = PROBE_REFERENCE_S / probe
        for timing in timings.values():
            assert timing.result in pids
            assert timing[:3] == pytest.approx((0.002 * scale, 0.001 * scale, 0.0005 * scale))
            assert timing.probe_seconds == probe  # one scale for the whole call
        assert multiprocessing.active_children() == []

    def test_a_failed_answer_check_is_raised_in_the_caller(self, tmp_path):
        with pytest.raises(AssertionError, match="wrong disagrees with the reference"):
            compare(record_and_time, ("wrong",), str(tmp_path / "runs.log"), repeats=1)
        assert multiprocessing.active_children() == []


def load_guard():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "compare_bench.py"
    spec = importlib.util.spec_from_file_location("compare_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareBench:
    ROW = {"backend": "ibs", "mode": "single", "tuples_per_s": 1000.0, "probe_us": 80.0}

    def test_flags_a_baseline_row_30_percent_faster(self):
        report = load_guard().compare_rows(
            "BENCH_x.json", [self.ROW], [dict(self.ROW, tuples_per_s=700.0)], 0.25
        )
        assert [regressed for _, regressed in report] == [True]
        assert "0.70x of baseline  REGRESSED" in report[0][0]

    def test_passes_equal_rows(self):
        report = load_guard().compare_rows("BENCH_x.json", [self.ROW], [dict(self.ROW)], 0.25)
        assert [regressed for _, regressed in report] == [False]

    def test_fails_on_a_missing_row(self):
        with pytest.raises(SystemExit, match="missing from fresh measurements"):
            load_guard().compare_rows(
                "BENCH_x.json", [self.ROW, dict(self.ROW, mode="batch")], [self.ROW], 0.25
            )

    def test_refuses_a_baseline_recorded_before_reference_speed_rows(self):
        guard = load_guard()
        readings = [dict(self.ROW, probe_us=us) for us in (100.0, 80.0, 90.0)]
        assert guard.probe_us("BENCH_x.json", readings) == 90.0
        unscaled = {key: value for key, value in self.ROW.items() if key != "probe_us"}
        with pytest.raises(SystemExit, match="reference host speed"):
            guard.probe_us("BENCH_x.json", [self.ROW, unscaled])


class TestWorkingMemory:
    def test_insert_assigns_ids_and_timetags(self):
        wm = WorkingMemory()
        a = wm.insert("t", {"v": 1})
        b = wm.insert("t", {"v": 2})
        assert b.wme_id > a.wme_id
        assert b.timetag > a.timetag
        assert len(wm) == 2
        assert a.wme_id in wm

    def test_remove(self):
        wm = WorkingMemory()
        wme = wm.insert("t", {})
        assert wm.remove(wme.wme_id) is wme
        with pytest.raises(RuleError):
            wm.remove(wme.wme_id)
        assert wm.get(wme.wme_id) is None

    def test_touch_refreshes_timetag(self):
        wm = WorkingMemory()
        wme = wm.insert("t", {"v": 1, "w": 2})
        old, new = wm.touch(wme.wme_id, {"v": 9})
        assert old.attributes == {"v": 1, "w": 2}
        assert new.attributes == {"v": 9, "w": 2}
        assert new.timetag > old.timetag
        assert new.wme_id == old.wme_id
        assert wm.get(wme.wme_id) is new

    def test_by_type(self):
        wm = WorkingMemory()
        wm.insert("a", {})
        wm.insert("b", {})
        wm.insert("a", {})
        assert len(list(wm.by_type("a"))) == 2
        assert len(list(wm.by_type("c"))) == 0

    def test_type_validated(self):
        with pytest.raises(RuleError):
            WorkingMemory().insert("", {})

    def test_iteration(self):
        wm = WorkingMemory()
        wm.insert("a", {"k": 1})
        assert [w.wme_type for w in wm] == ["a"]
