"""Seeded workloads for the system benchmark, and the oracle that checks them.

Each workload drives the public API only: ``Database`` mutations,
``RuleEngine.create_rule``/``drop_rule``, and rule actions that fire.
Conditions are generated from specs this module keeps (per-attribute
``(lo, hi)`` ranges or ``is_odd``), so the oracle can evaluate the live
rule set by brute force without calling into ``repro``.

The four workloads put different layers on the blocking path; the
docstring of each says which.  Every op count is a fixed function of the
command line, so a faster program finishes sooner instead of doing
more work.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import Database, RuleEngine
from repro.core.selectivity import StatisticsEstimator
from repro.disk.checkpoint import DiskCheckpointer
from repro.maintenance import MaintenancePolicy
from repro.match.registry import DEFAULT_REGISTRY

RELATION = "r0"
#: The Section 5.2 scenario: 15 attributes, a third of them carry clauses.
ATTRIBUTES = tuple(f"a{k}" for k in range(15))
PREDICATE_ATTRIBUTES = ATTRIBUTES[:5]
LOW, HIGH = 1, 10_000
CLAUSES_PER_RULE = 2
#: Every CHECK_EVERY-th step is checked in full against the oracle.
CHECK_EVERY = 100
#: The first BATCH_CHECK tuples of every batch are checked too.
BATCH_CHECK = 20
#: Set-up pauses after every SETUP_CHUNK rules.
SETUP_CHUNK = 100

#: A clause: (index into PREDICATE_ATTRIBUTES, lo, hi); lo is None for is_odd.
Clause = Tuple[int, Optional[int], Optional[int]]
Spec = Tuple[Clause, ...]


def is_odd(value: Any) -> bool:
    """The opaque, non-indexable test of the paper's running example."""
    return value % 2 == 1


def random_spec(rng: random.Random, selectivity: float, indexable: bool) -> Spec:
    """One rule condition spec on two distinct predicate attributes."""
    attrs = rng.sample(range(len(PREDICATE_ATTRIBUTES)), CLAUSES_PER_RULE)
    if not indexable:
        return tuple((a, None, None) for a in attrs)
    width = round((HIGH - LOW + 1) * selectivity)
    spec = []
    for a in attrs:
        lo = rng.randint(LOW, HIGH)
        spec.append((a, lo, lo + width - 1))
    return tuple(spec)


def condition(spec: Spec) -> str:
    """The rule-language text of *spec*."""
    parts = []
    for a, lo, hi in spec:
        attr = PREDICATE_ATTRIBUTES[a]
        if lo is None:
            parts.append(f"is_odd({attr})")
        else:
            parts.append(f"{attr} >= {lo} and {attr} <= {hi}")
    return " and ".join(parts)


class RuleTable:
    """The oracle: the live rule set as arrays, evaluated by brute force.

    One row per rule slot and one column per clause.  An empty slot has
    ``hi < lo`` and never matches.  A dropped rule's slot is reused by
    the next rule created, so *capacity* is the size of the live set.
    """

    def __init__(self, capacity: int) -> None:
        shape = (capacity, CLAUSES_PER_RULE)
        self._attr = np.zeros(shape, dtype=np.intp)
        self._lo = np.ones(shape, dtype=np.int64)
        self._hi = np.zeros(shape, dtype=np.int64)
        self._odd = np.zeros(shape, dtype=bool)
        self._names: List[Optional[str]] = [None] * capacity
        self._slot: Dict[str, int] = {}
        self._free = list(range(capacity - 1, -1, -1))

    def __len__(self) -> int:
        return len(self._slot)

    def add(self, name: str, spec: Spec) -> None:
        slot = self._free.pop()
        for column, (a, lo, hi) in enumerate(spec):
            self._attr[slot, column] = a
            self._odd[slot, column] = lo is None
            self._lo[slot, column] = LOW if lo is None else lo
            self._hi[slot, column] = HIGH if hi is None else hi
        self._names[slot] = name
        self._slot[name] = slot

    def indexable(self, name: str) -> bool:
        return not self._odd[self._slot[name]].any()

    def remove(self, name: str) -> None:
        slot = self._slot.pop(name)
        self._names[slot] = None
        self._lo[slot] = 1
        self._hi[slot] = 0
        self._free.append(slot)

    def expected(self, images: Sequence[Dict[str, Any]]) -> List[List[str]]:
        """Sorted names of the rules each image satisfies."""
        out: List[List[str]] = []
        for start in range(0, len(images), BATCH_CHECK):
            chunk = images[start : start + BATCH_CHECK]
            x = np.array(
                [[image[attr] for attr in PREDICATE_ATTRIBUTES] for image in chunk],
                dtype=np.int64,
            )
            ok = np.ones((len(chunk), len(self._names)), dtype=bool)
            for column in range(CLAUSES_PER_RULE):
                v = x[:, self._attr[:, column]]
                ok &= (self._lo[:, column] <= v) & (v <= self._hi[:, column])
                odd = self._odd[:, column]
                if odd.any():
                    ok &= ~odd | (v % 2 == 1)
            for row in ok:
                out.append(sorted(self._names[slot] for slot in np.flatnonzero(row)))
        return out


class FiringLog(list):
    """The action of every rule: logs ``(tid, rule name)`` per firing."""

    def __call__(self, context: Any) -> None:
        self.append((context.event.tid, context.rule.name))


#: ``call(kind, tuples, fn, *args)`` runs one timed API call.
Call = Callable[..., Any]


class Workload:
    """Base class: one seeded rule system and its closed-loop steps."""

    name = ""
    matcher: Optional[str] = None
    threadsafe = False
    rules = 0
    selectivity = 0.1
    indexable = 1.0
    #: steps issued per second of ``--seconds``
    steps_per_second = 0

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.n_rules = max(10, round(self.rules * scale))
        self.rng = random.Random(f"{self.name}:{seed}:ops")
        self.log = FiringLog()
        self.firings = 0
        self.mismatches: List[str] = []
        self.db: Any = None
        self.engine: Any = None

    def n_steps(self, seconds: float, scale: float) -> int:
        return max(10, round(self.steps_per_second * seconds * scale))

    # -- set-up ----------------------------------------------------------

    def set_up(self, pause: Callable[[], None]) -> None:
        """Relation, every rule, and the warm-up; timed as ``setup_s``.

        Calls *pause* between chunks of SETUP_CHUNK rules and before the
        warm-up, so the caller can sample the host outside the timing.
        """
        self.tear_down()
        rng = random.Random(f"{self.name}:{self.seed}:rules")
        self.table = RuleTable(self.n_rules)
        self.live: deque = deque()
        self.next_rule = 0
        self.db = Database(threadsafe=self.threadsafe)
        self.db.create_relation(RELATION, ATTRIBUTES)
        self.engine = RuleEngine(
            self.db, matcher=self.make_matcher(), functions={"is_odd": is_odd}
        )
        # an exact share of indexable rules, so seeds differ only in
        # where the ranges fall, not in how many rules test is_odd
        indexable = round(self.n_rules * self.indexable)
        kinds = [True] * indexable + [False] * (self.n_rules - indexable)
        rng.shuffle(kinds)
        for count, kind in enumerate(kinds, start=1):
            self._create(self._next_name(), random_spec(rng, self.selectivity, kind))
            if count % SETUP_CHUNK == 0:
                pause()
        pause()
        self.warm_up()

    def make_matcher(self) -> Any:
        return self.matcher

    def warm_up(self) -> None:
        pass

    def tear_down(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.db = self.engine = None

    # -- rule changes -----------------------------------------------------

    def _next_name(self) -> str:
        name = f"q{self.next_rule}"
        self.next_rule += 1
        return name

    def _create(self, name: str, spec: Spec) -> None:
        self.engine.create_rule(name, RELATION, condition(spec), self.log)
        self.table.add(name, spec)
        self.live.append(name)

    def change_rule(self, call: Call) -> None:
        """Drop the oldest rule and create a fresh one, timed as one op."""
        old = self.live[0]
        name = self._next_name()
        spec = random_spec(self.rng, self.selectivity, self.table.indexable(old))
        text = condition(spec)
        call("rule_change", 0, self._swap, old, name, text)
        self.live.popleft()
        self.table.remove(old)
        self.table.add(name, spec)
        self.live.append(name)
        if len(self.engine) != len(self.table):
            self.mismatches.append(
                f"rule count {len(self.engine)} != oracle {len(self.table)}"
            )

    def _swap(self, old: str, name: str, text: str) -> None:
        self.engine.drop_rule(old)
        self.engine.create_rule(name, RELATION, text, self.log)

    # -- inputs and checks --------------------------------------------------

    def fresh_tuple(self) -> Dict[str, int]:
        randint = self.rng.randint
        return {attr: randint(LOW, HIGH) for attr in ATTRIBUTES}

    def step(self, index: int, call: Call) -> None:
        raise NotImplementedError

    def settle(self, checked: Iterable[Tuple[int, Dict[str, Any]]]) -> None:
        """Check *checked* ``(tid, image)`` pairs against the firing log."""
        checked = list(checked)
        if checked:
            got: Dict[int, List[str]] = {tid: [] for tid, _ in checked}
            for tid, name in self.log:
                names = got.get(tid)
                if names is not None:
                    names.append(name)
            expected = self.table.expected([image for _, image in checked])
            for (tid, _), want in zip(checked, expected):
                if sorted(got[tid]) != want:
                    self.mismatches.append(
                        f"tid {tid}: fired {sorted(got[tid])}, oracle {want}"
                    )
        self.firings += len(self.log)
        self.log.clear()

    def disk_bytes(self) -> int:
        return 0


class PaperPoint(Workload):
    """The paper's design point, the Section 5.2 scenario, one insert at a time.

    Per-tuple stabs, residual tests and about 33 firings per insert
    block the caller; batch, columnar, snapshot and disk code is
    bypassed.
    """

    name = "paper-point"
    rules = 1_000
    selectivity = 0.1
    indexable = 0.9
    steps_per_second = 2_500

    def step(self, index: int, call: Call) -> None:
        values = self.fresh_tuple()
        tid = call("insert", 1, self.db.insert, RELATION, values)
        self.settle([(tid, values)] if index % CHECK_EVERY == 0 else ())


class BulkColumnar(Workload):
    """The set-oriented path: 250-tuple batches on the columnar matcher.

    The vectorized plane matches each batch and the engine's work per
    firing (about 9 per tuple) dominates; the per-tuple trees are
    bypassed.  Values come from a pool of 1,000 per attribute, so the
    tuples of a batch share stab work.
    """

    name = "bulk-columnar"
    matcher = "columnar"
    rules = 10_000
    selectivity = 0.03
    batch = 250
    pool_size = 1_000
    steps_per_second = 100

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        pool_rng = random.Random(f"{self.name}:{seed}:pool")
        self.pool = {
            attr: [pool_rng.randint(LOW, HIGH) for _ in range(self.pool_size)]
            for attr in ATTRIBUTES
        }

    def rows(self, rng: random.Random) -> List[Dict[str, int]]:
        columns = [rng.choices(self.pool[attr], k=self.batch) for attr in ATTRIBUTES]
        return [dict(zip(ATTRIBUTES, values)) for values in zip(*columns)]

    def warm_up(self) -> None:
        # the first batch builds the columnar plane
        rows = self.rows(random.Random(f"{self.name}:{self.seed}:warm-up"))
        tids = self.db.bulk_insert(RELATION, rows)
        self.settle(list(zip(tids, rows))[:BATCH_CHECK])

    def step(self, index: int, call: Call) -> None:
        rows = self.rows(self.rng)
        tids = call("bulk", len(rows), self.db.bulk_insert, RELATION, rows)
        checked = list(zip(tids, rows))
        self.settle(checked if index % CHECK_EVERY == 0 else checked[:BATCH_CHECK])


class RuleChurn(Workload):
    """Rule changes beside tuple writes on the concurrent matcher.

    Condition compile, tree inserts and deletes, shard compaction and
    snapshot publication block the caller, so a read-side gain that
    costs writes shows here.
    """

    name = "rule-churn"
    matcher = "ibs-concurrent"
    threadsafe = True
    rules = 2_000
    selectivity = 0.03
    steps_per_second = 1_000
    #: one block of ten steps, shuffled per block
    block = ("insert",) * 7 + ("update",) * 2 + ("rule_change",)

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.tids: List[int] = []
        self.kinds: List[str] = []

    def step(self, index: int, call: Call) -> None:
        if not self.kinds:
            self.kinds = list(self.block)
            self.rng.shuffle(self.kinds)
        kind = self.kinds.pop()
        check = index % CHECK_EVERY == 0
        if kind == "rule_change":
            self.change_rule(call)
            self.settle(())
        elif kind == "update" and self.tids:
            tid = self.rng.choice(self.tids)
            changes = {
                attr: self.rng.randint(LOW, HIGH)
                for attr in self.rng.sample(ATTRIBUTES, 2)
            }
            image = call("update", 1, self.db.update, RELATION, tid, changes)
            self.settle([(tid, image)] if check else ())
        else:
            values = self.fresh_tuple()
            tid = call("insert", 1, self.db.insert, RELATION, values)
            self.tids.append(tid)
            self.settle([(tid, values)] if check else ())


class DiskMaintained(Workload):
    """The disk tier under a maintenance policy, larger than its cache.

    The only workload where compaction, checkpoints, segment sealing
    and eviction block the caller, so their pauses show in the p99.
    The flush policy is the checkpointer's own.
    """

    name = "disk-maintained"
    threadsafe = True
    rules = 2_000
    selectivity = 0.03
    batch = 32
    steps_per_second = 100
    policy = MaintenancePolicy(
        compact_interval=1000, checkpoint_interval=2000, evict_interval=500, budget_ops=1
    )
    memory_budget = 64 * 1024

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.data_dir: Optional[str] = None
        self.checkpointer: Any = None

    def make_matcher(self) -> Any:
        self.data_dir = tempfile.mkdtemp(prefix="disk-", dir=self.workdir)
        return DEFAULT_REGISTRY.create_matcher(
            "disk-concurrent",
            estimator=StatisticsEstimator(self.db),
            data_dir=self.data_dir,
            memory_budget=self.memory_budget,
            maintenance=self.policy,
        )

    def warm_up(self) -> None:
        self.checkpointer = DiskCheckpointer(self.engine.matcher)
        self.checkpointer.checkpoint()

    def tear_down(self) -> None:
        if self.checkpointer is not None:
            self.checkpointer.close()
            self.checkpointer = None
        super().tear_down()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    def step(self, index: int, call: Call) -> None:
        rows = [self.fresh_tuple() for _ in range(self.batch)]
        tids = call("bulk", len(rows), self.db.bulk_insert, RELATION, rows)
        checked = list(zip(tids, rows))
        self.settle(checked if index % CHECK_EVERY == 0 else checked[:BATCH_CHECK])
        self.change_rule(call)

    def disk_bytes(self) -> int:
        if self.data_dir is None:
            return 0
        return sum(p.stat().st_size for p in Path(self.data_dir).rglob("*") if p.is_file())


WORKLOADS = {cls.name: cls for cls in (PaperPoint, BulkColumnar, RuleChurn, DiskMaintained)}
