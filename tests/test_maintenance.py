"""The unified maintenance plane: scheduler, clock semantics, differentials.

Four layers of assurance, mirroring the disk tier's test discipline:

* **scheduler unit behaviour** — deterministic due-ness off the op
  clock, priority-then-registration run order, op-space exponential
  backoff, quarantine after repeated failure with manual revival, task
  budgets, and a json-serializable ``report()``;
* **unified op-count semantics** (satellite 1) — exactly one clock per
  index, one tick per matched tuple and per predicate write, batch ops
  tick ``len(batch)``, and a frozen index never ticks;
* **differential guarantee** — a maintained index (retune,
  compaction, checkpointing, eviction all firing mid-stream) must
  answer every match exactly like a never-ticked twin, across the
  scalar (IBS- and red-black-tree), columnar, concurrent, and disk
  configurations, over every seeded scenario family — and stay
  equivalent when each ``maint.*`` fault site fires;
* **crash drills** — ``maint.task_raises`` is contained as a
  dead-letter entry, and ``maint.checkpoint_preempted`` /
  budget-preempted checkpoints leave a manifest a cold start still
  recovers from.

Environment knobs (CI's maintenance-stress job turns them up):

* ``MAINT_SEEDS`` — comma-separated differential/drill seeds
  (default 0,1,2).
"""

import json
import os
import random

import pytest

from repro.concurrency.facade import ConcurrentPredicateIndex
from repro.core.intervals import Interval
from repro.core.predicate_index import PredicateIndex
from repro.db import Database
from repro.disk.checkpoint import DiskCheckpointer, recover_concurrent
from repro.maintenance import (
    CallbackTask,
    MaintenanceBudget,
    MaintenanceClock,
    MaintenancePolicy,
    MaintenanceScheduler,
)
from repro.match.observer import MatchStatistics, StatsObserver
from repro.predicates.clauses import IntervalClause
from repro.predicates.predicate import Predicate
from repro.rules import RuleEngine
from repro.testing.concurrency import InterleavingScheduler
from repro.testing.faults import FAULT_SITES, FaultInjector, injected
from repro.workloads.scenarios import scenario_names, synthesize
from tests.conftest import SteeredEstimator

MAINT_SEEDS = [int(s) for s in os.environ.get("MAINT_SEEDS", "0,1,2").split(",")]

MAINT_SITES = [
    "maint.task_raises",
    "maint.checkpoint_preempted",
]


def make_pred(rng, relation, i):
    a, b = sorted(round(rng.uniform(-100, 100), 3) for _ in range(2))
    return Predicate(
        relation, [IntervalClause("x", Interval.closed(a, b))], ident=f"{relation}-{i}"
    )


def match_table(index, relation, tuples):
    return [sorted(index.match(relation, t), key=repr) for t in tuples]


def sorted_rows(rows):
    return [sorted(row, key=repr) for row in rows]


# ----------------------------------------------------------------------
# scheduler unit behaviour
# ----------------------------------------------------------------------


class TestSchedulerUnit:
    def test_all_maint_sites_registered(self):
        for site in MAINT_SITES:
            assert site in FAULT_SITES

    def test_fires_on_interval_deterministically(self):
        sched = MaintenanceScheduler()
        fired = []
        sched.register_callback(
            "t", lambda budget, relation: fired.append(sched.clock.ops), interval_ops=10
        )
        for _ in range(35):
            sched.advance(1)
        assert fired == [10, 20, 30]

    def test_bulk_advance_runs_task_once_per_tick(self):
        # a single advance(25) crosses the interval twice but runs the
        # task once — due-ness is re-anchored at the run, not replayed
        sched = MaintenanceScheduler()
        fired = []
        sched.register_callback(
            "t", lambda budget, relation: fired.append(sched.clock.ops), interval_ops=10
        )
        sched.advance(25)
        assert fired == [25]
        sched.advance(10)
        assert fired == [25, 35]

    def test_priority_then_registration_order(self):
        sched = MaintenanceScheduler()
        order = []
        sched.register_callback(
            "low", lambda b, r: order.append("low"), interval_ops=5, priority=1
        )
        sched.register_callback(
            "high", lambda b, r: order.append("high"), interval_ops=5, priority=9
        )
        sched.register_callback(
            "tie", lambda b, r: order.append("tie"), interval_ops=5, priority=1
        )
        sched.advance(5)
        assert order == ["high", "low", "tie"]

    def test_backoff_is_exponential_in_op_space(self):
        policy = MaintenancePolicy(
            backoff_multiplier=2.0, max_backoff_intervals=8.0, quarantine_failures=99
        )
        sched = MaintenanceScheduler(policy)

        def boom(budget, relation):
            raise RuntimeError("maintenance exploded")

        sched.register_callback("boom", boom, interval_ops=5)
        expected_scale = [1, 2, 4, 8, 8]  # capped at max_backoff_intervals
        for scale in expected_scale:
            state = sched._tasks["boom"]
            target = state.next_due_ops
            sched.advance(target - sched.clock.ops)
            assert sched._tasks["boom"].next_due_ops == sched.clock.ops + 5 * scale

    def test_quarantine_and_manual_revival(self):
        policy = MaintenancePolicy(quarantine_failures=2)
        sched = MaintenanceScheduler(policy)
        healthy = {"value": False}

        def flaky(budget, relation):
            if not healthy["value"]:
                raise RuntimeError("still broken")
            return "ok"

        sched.register_callback("flaky", flaky, interval_ops=3)
        for _ in range(30):
            sched.advance(1)
        state = sched._tasks["flaky"]
        assert state.quarantined
        assert state.failures == 2  # quarantine stopped the bleeding
        assert sched.failures[-1].quarantined
        # advance never revives a quarantined task ...
        runs_before = state.runs
        sched.advance(100)
        assert state.runs == runs_before
        # ... a failing manual run raises and stays quarantined ...
        with pytest.raises(RuntimeError):
            sched.run_task("flaky")
        assert sched._tasks["flaky"].quarantined
        # ... and a successful manual run clears it for good
        healthy["value"] = True
        assert sched.run_task("flaky") == "ok"
        assert not sched._tasks["flaky"].quarantined
        sched.advance(3)
        assert sched._tasks["flaky"].runs > runs_before + 1

    def test_advance_never_raises_and_dead_letters(self):
        sched = MaintenanceScheduler()

        def boom(budget, relation):
            raise ValueError("kaboom")

        sched.register_callback("boom", boom, interval_ops=2)
        ran = sched.advance(2, relation="emp")
        assert ran == ["boom"]
        failure = sched.failures[0]
        assert failure.task == "boom"
        assert failure.relation == "emp"
        assert "ValueError" in failure.describe()

    def test_budget_caps_spent_ops(self):
        policy = MaintenancePolicy(budget_ops=3)
        sched = MaintenanceScheduler(policy)
        seen = []

        def worker(budget, relation):
            while not budget.exhausted():
                budget.charge(1)
            seen.append(budget.spent_ops)

        sched.register_callback("worker", worker, interval_ops=1)
        sched.advance(1)
        assert seen == [3]

    def test_timed_trigger_with_injected_clock(self):
        fake = {"now": 0.0}
        policy = MaintenancePolicy(time_source=lambda: fake["now"])
        sched = MaintenanceScheduler(policy)
        fired = []
        sched.register_callback(
            "timed", lambda b, r: fired.append(fake["now"]), interval_seconds=5.0
        )
        sched.advance(1)
        assert fired == []
        fake["now"] = 6.0
        sched.advance(1)
        assert fired == [6.0]

    def test_observer_counts_runs_and_failures(self):
        observer = StatsObserver(MatchStatistics())
        sched = MaintenanceScheduler(observer=observer)
        calls = {"n": 0}

        def flaky(budget, relation):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("no")

        sched.register_callback("flaky", flaky, interval_ops=2)
        for _ in range(4):
            sched.advance(1)
        assert observer.stats.maintenance_runs == 2
        assert observer.stats.maintenance_failures == 1

    def test_report_is_json_serializable(self):
        sched = MaintenanceScheduler(MaintenancePolicy(budget_ops=4))
        sched.register_callback("t", lambda b, r: None, interval_ops=7)
        sched.register_callback(
            "boom", lambda b, r: 1 / 0, interval_ops=3, cost_class="io"
        )
        sched.advance(9)
        doc = json.loads(json.dumps(sched.report()))
        assert doc["clock_ops"] == 9
        assert set(doc["tasks"]) == {"t", "boom"}
        assert doc["tasks"]["boom"]["failures"] == 1
        assert doc["failures"]

    def test_registration_errors(self):
        sched = MaintenanceScheduler()
        sched.register_callback("t", lambda b, r: None, interval_ops=1)
        with pytest.raises(ValueError):
            sched.register_callback("t", lambda b, r: None, interval_ops=1)
        with pytest.raises(ValueError):
            CallbackTask("", lambda b, r: None, interval_ops=1)
        with pytest.raises(ValueError):
            CallbackTask("x", lambda b, r: None)  # no trigger at all
        with pytest.raises(ValueError):
            CallbackTask("x", lambda b, r: None, interval_ops=0)
        with pytest.raises(ValueError):
            CallbackTask("x", lambda b, r: None, interval_ops=1, cost_class="warp")
        with pytest.raises(KeyError):
            sched.run_task("missing")

    def test_clock_rejects_negative_advance(self):
        clock = MaintenanceClock()
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_disabled_policy_runs_nothing(self):
        sched = MaintenanceScheduler(MaintenancePolicy(enabled=False))
        fired = []
        sched.register_callback("t", lambda b, r: fired.append(1), interval_ops=1)
        sched.advance(10)
        assert fired == []
        assert sched.clock.ops == 10  # the clock still counts

    def test_budget_time_limit_uses_injected_timer(self):
        fake = {"now": 0.0}
        budget = MaintenanceBudget(seconds=1.0, timer=lambda: fake["now"])
        assert not budget.exhausted()
        fake["now"] = 2.0
        assert budget.exhausted()
        # without a timer a seconds limit is inert, never a crash
        assert not MaintenanceBudget(seconds=0.001).exhausted()


# ----------------------------------------------------------------------
# unified op-count semantics (satellite 1)
# ----------------------------------------------------------------------


class TestUnifiedOpSemantics:
    def _index(self):
        return PredicateIndex(maintenance=MaintenancePolicy(retune_interval=10_000))

    def test_one_tick_per_write_and_per_matched_tuple(self):
        rng = random.Random(0)
        index = self._index()
        clock = index.maintenance_scheduler.clock
        preds = [make_pred(rng, "emp", i) for i in range(6)]
        index.add(preds[0])
        assert clock.ops == 1
        index.add_many(preds[1:5])
        assert clock.ops == 5
        index.remove(preds[4].ident)
        assert clock.ops == 6
        index.match("emp", {"x": 1.0})
        assert clock.ops == 7
        index.match_idents("emp", {"x": 1.0})
        assert clock.ops == 8
        index.match_batch("emp", [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}])
        assert clock.ops == 11
        index.match_batch("emp", [])
        assert clock.ops == 11

    def test_frozen_index_never_ticks(self):
        rng = random.Random(1)
        index = self._index()
        for i in range(4):
            index.add(make_pred(rng, "emp", i))
        index.freeze()
        before = index.maintenance_scheduler.clock.ops
        index.match("emp", {"x": 0.0})
        index.match_batch("emp", [{"x": 0.0}] * 5)
        assert index.maintenance_scheduler.clock.ops == before

    def test_no_bespoke_counters_remain(self):
        # the pre-refactor per-feature counters are gone: one clock only
        index = PredicateIndex(maintenance=MaintenancePolicy(retune_interval=16))
        assert not hasattr(index, "_tuples_since_retune")
        assert index.maintenance_report()["tasks"]["retune"]["interval_ops"] == 16

    def test_plain_index_has_no_scheduler(self):
        index = PredicateIndex()
        assert index.maintenance_scheduler is None
        report = index.maintenance_report()
        assert report == {"enabled": False, "clock_ops": 0, "tasks": {}, "failures": []}

    def test_scalar_stats_count_maintenance_runs(self):
        rng = random.Random(3)
        index = PredicateIndex(maintenance=MaintenancePolicy(retune_interval=8))
        for i in range(4):
            index.add(make_pred(rng, "emp", i))
        for _ in range(20):
            index.match("emp", {"x": 0.0})
        assert index.stats.maintenance_runs >= 1
        assert index.stats.maintenance_failures == 0


# ----------------------------------------------------------------------
# determinism under an adversarial interleaving
# ----------------------------------------------------------------------


class TestInterleavedDeterminism:
    @staticmethod
    def _drive(seed):
        sched = MaintenanceScheduler(MaintenancePolicy())
        log = []
        sched.register_callback(
            "tick", lambda b, r: log.append(sched.clock.ops), interval_ops=7, priority=1
        )
        sched.register_callback(
            "slow", lambda b, r: log.append(-sched.clock.ops), interval_ops=13
        )
        il = InterleavingScheduler(seed=seed)

        def worker():
            for _ in range(40):
                sched.advance(1)
                il.step()

        il.spawn(worker, name="a")
        il.spawn(worker, name="b")
        il.run()
        return log, sched.report()["tasks"]

    @pytest.mark.parametrize("seed", MAINT_SEEDS)
    def test_same_seed_same_schedule_same_maintenance(self, seed):
        first = self._drive(seed)
        second = self._drive(seed)
        assert first == second
        log, tasks = first
        assert sum(tasks[name]["runs"] for name in tasks) == len(log)
        assert tasks["tick"]["runs"] + tasks["slow"]["runs"] > 0

    @pytest.mark.parametrize("seed", MAINT_SEEDS)
    def test_concurrent_ticks_are_never_lost(self, seed):
        sched = MaintenanceScheduler(MaintenancePolicy())
        sched.register_callback("t", lambda b, r: None, interval_ops=9)
        il = InterleavingScheduler(seed=seed)

        def worker(n):
            for _ in range(n):
                sched.advance(1)
                il.step()

        il.spawn(worker, 30, name="a")
        il.spawn(worker, 30, name="b")
        il.spawn(worker, 30, name="c")
        il.run()
        assert sched.clock.ops == 90


# ----------------------------------------------------------------------
# the differential guarantee: maintained index ≡ never-ticked twin
# ----------------------------------------------------------------------

CONFIGS = ["scalar", "balanced", "columnar", "concurrent", "disk"]


def build_index(config, maintained, tmp_path, tag):
    """``(index, checkpointer or None, estimator)`` for one configuration.

    Every index gets its own steered estimator, preferring ``x`` until
    :func:`drive_and_collect` shifts it.
    """
    estimator = SteeredEstimator("x")
    policy = (
        MaintenancePolicy(
            retune_interval=48,
            compact_interval=64,
            checkpoint_interval=96,
            evict_interval=80,
        )
        if maintained
        else None
    )
    checkpointer = None
    if config == "scalar":
        index = PredicateIndex(estimator=estimator, maintenance=policy)
    elif config == "balanced":
        index = PredicateIndex(
            tree_factory="rb", estimator=estimator, maintenance=policy
        )
    elif config == "columnar":
        index = PredicateIndex(
            columnar=True, estimator=estimator, maintenance=policy
        )
    elif config == "concurrent":
        index = ConcurrentPredicateIndex(estimator=estimator, maintenance=policy)
    elif config == "disk":
        index = ConcurrentPredicateIndex(
            storage="disk",
            data_dir=str(tmp_path / f"{tag}-disk"),
            compaction_threshold=16,
            estimator=estimator,
            maintenance=policy,
        )
        if maintained:
            checkpointer = DiskCheckpointer(index)
    else:  # pragma: no cover - parametrize guards this
        raise AssertionError(config)
    return index, checkpointer, estimator


def drive_and_collect(index, scenario, rng, estimator):
    """Apply one scenario and return every answer the index gave.

    Besides the scenario's own predicates, eight two-clause predicates
    on the scenario's first attribute and ``x`` are filed under ``x``;
    then *estimator* shifts to the first attribute, so every retune that
    runs during the reads moves them.
    """
    relation = scenario.spec.relation
    first = scenario.spec.attributes[0]
    outputs = []
    for predicate in scenario.predicates():
        index.add(predicate)
    for i in range(8):
        low, edge = rng.randint(1, 8_000), rng.uniform(-120, 60)
        index.add(
            Predicate(
                relation,
                [
                    IntervalClause(first, Interval.closed(low, low + 2_000)),
                    IntervalClause("x", Interval.closed(edge, edge + 60)),
                ],
                ident=-1 - i,  # scenario idents are non-negative
            )
        )
    for op, payload in scenario.churn():
        if op == "add":
            index.add(payload)
        else:
            index.remove(payload)
    estimator.preferred = first
    for batch in scenario.batches():
        outputs.append(sorted_rows(index.match_batch(relation, batch)))
    sweep = [
        {"x": rng.uniform(-120, 120), first: rng.randint(1, 10_000)}
        for _ in range(60)
    ]
    outputs.append(match_table(index, relation, sweep))
    outputs.append([sorted(index.match_idents(relation, t)) for t in sweep[:10]])
    return outputs


#: the tasks each maintained configuration registers: one scheduler
#: carries whatever applies to the index's tiers and nothing else
CONFIG_TASKS = {
    "scalar": {"retune"},
    "balanced": {"retune"},
    "columnar": {"retune"},
    "concurrent": {"retune", "compact"},
    "disk": {"retune", "compact", "evict", "checkpoint"},
}


class TestTickVsTwinDifferential:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_each_configuration_registers_its_own_tasks(self, tmp_path, config):
        ticked, checkpointer, _ = build_index(config, True, tmp_path, "t")
        twin, _, _ = build_index(config, False, tmp_path, "n")
        report = ticked.maintenance_report()
        assert report["enabled"]
        assert set(report["tasks"]) == CONFIG_TASKS[config]
        assert twin.maintenance_report()["tasks"] == {}
        if checkpointer is not None:
            checkpointer.close()

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("seed", MAINT_SEEDS)
    def test_maintained_index_equals_never_ticked_twin(
        self, tmp_path, config, seed
    ):
        for family in scenario_names():
            scenario = synthesize(family, seed=seed, scale=0.2)
            ticked, checkpointer, steer = build_index(
                config, True, tmp_path, f"{family}-{seed}-t"
            )
            twin, _, twin_steer = build_index(
                config, False, tmp_path, f"{family}-{seed}-n"
            )
            got = drive_and_collect(ticked, scenario, random.Random(seed), steer)
            want = drive_and_collect(twin, scenario, random.Random(seed), twin_steer)
            assert got == want, (config, family, seed)
            if config != "disk":
                report = ticked.maintenance_report()
                assert report["enabled"] and report["clock_ops"] > 0
                assert not report["failures"], (config, family, report["failures"])
            if checkpointer is not None:
                checkpointer.close()

    @pytest.mark.parametrize("site", MAINT_SITES)
    @pytest.mark.parametrize("seed", MAINT_SEEDS)
    def test_equivalence_survives_every_maint_fault_site(
        self, tmp_path, site, seed
    ):
        # each site fires on its natural configuration: the scheduler
        # absorbs the injected fault and matching must not notice
        config = {
            "maint.task_raises": "scalar",
            "maint.checkpoint_preempted": "disk",
        }[site]
        scenario = synthesize("churn-heavy", seed=seed, scale=0.2)
        ticked, checkpointer, steer = build_index(
            config, True, tmp_path, f"{site}-{seed}-t"
        )
        twin, _, twin_steer = build_index(config, False, tmp_path, f"{site}-{seed}-n")
        with injected(FaultInjector(seed=seed)) as injector:
            injector.arm(site, at_hit=1)
            got = drive_and_collect(ticked, scenario, random.Random(seed), steer)
        want = drive_and_collect(twin, scenario, random.Random(seed), twin_steer)
        assert got == want, (site, seed)
        if injector.fired and site == "maint.task_raises":
            report = ticked.maintenance_report()
            assert report["failures"], site
        if checkpointer is not None:
            checkpointer.close()


# ----------------------------------------------------------------------
# crash drills per fault site
# ----------------------------------------------------------------------


class TestMaintCrashDrills:
    @pytest.mark.parametrize("seed", MAINT_SEEDS)
    def test_task_raises_is_contained_and_dead_lettered(self, seed):
        rng = random.Random(seed)
        estimator = SteeredEstimator("x")
        index = PredicateIndex(
            estimator=estimator,
            maintenance=MaintenancePolicy(retune_interval=8, quarantine_failures=99),
        )
        for i in range(6):
            index.add(make_pred(rng, "emp", i))
        for i in range(3):
            index.add(
                Predicate(
                    "emp",
                    [
                        IntervalClause("x", Interval.closed(-50, 50)),
                        IntervalClause("y", Interval.closed(i, i + 10)),
                    ],
                    ident=f"emp-pair-{i}",
                )
            )
        estimator.preferred = "y"  # the next retune that runs moves the pairs
        with injected(FaultInjector(seed=seed)) as injector:
            injector.arm("maint.task_raises", at_hit=1)
            for _ in range(20):
                index.match("emp", {"x": rng.uniform(-100, 100)})
            assert injector.fired
        report = index.maintenance_report()
        assert any("InjectedFault" in line for line in report["failures"])
        # matching carried on; a later tick runs maintenance again
        for _ in range(20):
            index.match("emp", {"x": rng.uniform(-100, 100)})
        after = index.maintenance_report()
        assert after["tasks"]["retune"]["runs"] > report["tasks"]["retune"]["runs"]
        for i in range(3):
            assert index.indexed_attributes(f"emp-pair-{i}") == ("y",)

    @pytest.mark.parametrize("seed", MAINT_SEEDS)
    def test_checkpoint_preempted_recovers_to_twin(self, tmp_path, seed):
        rng = random.Random(seed)
        victim_dir = str(tmp_path / "victim")
        victim = ConcurrentPredicateIndex(
            storage="disk",
            data_dir=victim_dir,
            compaction_threshold=16,
            maintenance=MaintenancePolicy(checkpoint_interval=40),
        )
        ck = DiskCheckpointer(victim)
        assert "checkpoint" in victim.maintenance_scheduler.tasks()
        twin = ConcurrentPredicateIndex(
            storage="disk", data_dir=str(tmp_path / "twin"), compaction_threshold=16
        )
        preds = [make_pred(rng, "emp", i) for i in range(30)]
        preds += [make_pred(rng, "dept", i) for i in range(30)]
        with injected(FaultInjector(seed=seed)) as injector:
            injector.arm("maint.checkpoint_preempted", at_hit=1)
            for p in preds:
                victim.add(p)
            for _ in range(60):
                victim.match("emp", {"x": rng.uniform(-100, 100)})
            assert injector.fired
        # the scheduler dead-lettered the preempted checkpoint run
        assert any(
            "InjectedFault" in line
            for line in victim.maintenance_report()["failures"]
        )
        ck.close()
        for p in preds:
            twin.add(p)
        recovered = recover_concurrent(victim_dir, compaction_threshold=16)
        tuples = [{"x": rng.uniform(-120, 120)} for _ in range(150)]
        for rel in ("emp", "dept"):
            assert match_table(recovered, rel, tuples) == match_table(
                twin, rel, tuples
            ), (seed, rel)

    @pytest.mark.parametrize("seed", MAINT_SEEDS)
    def test_budgeted_checkpoint_partial_coverage_recovers(self, tmp_path, seed):
        rng = random.Random(seed)
        victim_dir = str(tmp_path / "budget")
        victim = ConcurrentPredicateIndex(storage="disk", data_dir=victim_dir)
        ck = DiskCheckpointer(victim)
        for i in range(20):
            victim.add(make_pred(rng, "emp", i))
        for i in range(20):
            victim.add(make_pred(rng, "dept", i))
        # a budget of one op checkpoints at most one shard per pass;
        # the manifest it publishes must still be a valid recovery point
        ck.checkpoint(budget=MaintenanceBudget(ops=1))
        ck.close()
        # an identical twin rebuilt from the same deterministic stream
        twin = ConcurrentPredicateIndex(
            storage="disk", data_dir=str(tmp_path / "twin")
        )
        rng2 = random.Random(seed)
        for i in range(20):
            twin.add(make_pred(rng2, "emp", i))
        for i in range(20):
            twin.add(make_pred(rng2, "dept", i))
        recovered = recover_concurrent(victim_dir)
        tuples = [{"x": rng.uniform(-120, 120)} for _ in range(120)]
        for rel in ("emp", "dept"):
            assert match_table(recovered, rel, tuples) == match_table(
                twin, rel, tuples
            ), (seed, rel)


# ----------------------------------------------------------------------
# facade and database surfaces
# ----------------------------------------------------------------------


class TestFacadeMaintenance:
    def test_compact_task_fires_and_stats_count(self):
        rng = random.Random(9)
        index = ConcurrentPredicateIndex(
            maintenance=MaintenancePolicy(compact_interval=20)
        )
        for i in range(10):
            index.add(make_pred(rng, "emp", i))
        for _ in range(15):
            index.match("emp", {"x": 0.0})
        report = index.maintenance_report()
        assert report["tasks"]["compact"]["runs"] >= 1
        assert index.maintenance_stats.maintenance_runs >= 1
        assert index.maintenance_stats.maintenance_failures == 0

    def test_evict_task_only_registers_on_disk_storage(self, tmp_path):
        memory = ConcurrentPredicateIndex(
            maintenance=MaintenancePolicy(compact_interval=20, evict_interval=20)
        )
        assert "evict" not in memory.maintenance_scheduler.tasks()
        disk = ConcurrentPredicateIndex(
            storage="disk",
            data_dir=str(tmp_path / "d"),
            maintenance=MaintenancePolicy(evict_interval=20),
        )
        assert "evict" in disk.maintenance_scheduler.tasks()

    def test_policy_threshold_feeds_shard_compaction(self):
        # the constructor argument is the threshold's one setter; a
        # policy does not override it, not even at the default value
        for threshold in (99, 64):
            index = ConcurrentPredicateIndex(
                compaction_threshold=threshold,
                maintenance=MaintenancePolicy(compact_interval=20),
            )
            assert index._compaction_threshold == threshold

    def test_facade_without_policy_has_no_scheduler(self):
        index = ConcurrentPredicateIndex()
        assert index.maintenance_scheduler is None
        assert index.maintenance_report()["enabled"] is False


class TestDatabaseSurface:
    def test_policy_threads_through_to_engine_matcher(self):
        policy = MaintenancePolicy(retune_interval=8)
        db = Database(matcher="ibs", maintenance=policy)
        db.create_relation("emp", ["salary"])
        engine = RuleEngine(db)
        sched = engine.matcher.maintenance_scheduler
        assert sched is not None and sched.policy is policy
        engine.create_rule(
            "r",
            on="emp",
            condition="10 <= salary <= 20",
            action=lambda ctx: None,
        )
        for _ in range(10):
            db.insert("emp", {"salary": 15})
        assert sched.clock.ops > 0

    def test_baseline_matchers_ignore_the_policy(self):
        db = Database(
            matcher="sequential", maintenance=MaintenancePolicy(retune_interval=8)
        )
        db.create_relation("emp", ["salary"])
        engine = RuleEngine(db)
        assert not hasattr(engine.matcher, "maintenance_scheduler")
