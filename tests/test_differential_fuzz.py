"""Differential fuzzing: every matcher strategy against brute force.

Random schemas, random conditions (using every clause shape the
language supports), and random mutation scripts, replayed against the
full rule engine under every matcher the default registry holds.  The brute-force oracle
recomputes matches per event by direct evaluation.  Any divergence —
between strategies, or from the oracle — fails.
"""

import random
from typing import Dict, List, Tuple

import pytest

from repro import CollectAction, Database, RuleEngine
from repro.lang import compile_condition
from repro.match.registry import DEFAULT_REGISTRY

STRATEGIES = DEFAULT_REGISTRY.matchers()
FNS = {"isodd": lambda x: x % 2 == 1}
DEPTS = ["Shoe", "Toy", "Food", "Garden"]


def random_condition(rng: random.Random) -> str:
    """One random condition using the full clause vocabulary."""
    def atom() -> str:
        kind = rng.random()
        if kind < 0.2:
            return f"a {rng.choice(['<', '<=', '>', '>='])} {rng.randint(0, 30)}"
        if kind < 0.4:
            lo = rng.randint(0, 20)
            return f"{lo} <= b <= {lo + rng.randint(0, 10)}"
        if kind < 0.55:
            return f'dept = "{rng.choice(DEPTS)}"'
        if kind < 0.65:
            return f"a <> {rng.randint(0, 30)}"
        if kind < 0.75:
            return "isodd(b)"
        if kind < 0.85:
            prefix = rng.choice(["S", "T", "F", "G"])
            return f'dept like "{prefix}%"'
        return f'dept in ("{rng.choice(DEPTS)}", "{rng.choice(DEPTS)}")'

    parts = [atom() for _ in range(rng.randint(1, 3))]
    joiner = " and " if rng.random() < 0.7 else " or "
    body = joiner.join(parts)
    if rng.random() < 0.2:
        body = f"not ({body})"
    return body


def random_script(rng: random.Random, length: int) -> List[Tuple]:
    ops = []
    for _ in range(length):
        roll = rng.random()
        tup = {
            "a": rng.randint(0, 30),
            "b": rng.randint(0, 30),
            "dept": rng.choice(DEPTS),
        }
        if roll < 0.6:
            ops.append(("insert", tup))
        elif roll < 0.85:
            ops.append(("update", tup))
        else:
            ops.append(("delete", None))
    return ops


def build_matcher(strategy: str, tmp_path):
    """The registered *strategy*; disk-backed ones write under *tmp_path*."""
    capabilities = DEFAULT_REGISTRY.describe_matcher(strategy)["capabilities"]
    if capabilities.get("disk_backed"):
        return DEFAULT_REGISTRY.create_matcher(
            strategy, data_dir=str(tmp_path / strategy)
        )
    return strategy


def engine_transcript(strategy, conditions, script, fns, step_seed, tmp_path):
    """Replay *script* through the rule engine on *strategy*; the firings."""
    db = Database()
    db.create_relation("r", ["a", "b", "dept"])
    collect = CollectAction()
    engine = RuleEngine(
        db, matcher=build_matcher(strategy, tmp_path), functions=fns
    )
    for index, text in enumerate(conditions):
        engine.create_rule(
            f"rule{index}", on="r", condition=text, action=collect,
            on_events=("insert", "update"),
        )
    live: List[int] = []
    step_rng = random.Random(step_seed)
    for op, tup in script:
        if op == "insert":
            live.append(db.insert("r", dict(tup)))
        elif op == "update" and live:
            db.update("r", step_rng.choice(live), dict(tup))
        elif op == "delete" and live:
            tid = live.pop(step_rng.randrange(len(live)))
            db.delete("r", tid)
    engine.close()
    return [(name, tuple(sorted(tup.items()))) for name, tup in collect.records]


def oracle_transcript(conditions, script, fns, step_seed):
    """The firings *script* should cause, by direct evaluation."""
    compiled = [
        (f"rule{index}", compile_condition("r", text, fns))
        for index, text in enumerate(conditions)
    ]
    oracle: List = []
    store: Dict[int, Dict] = {}
    live: List[int] = []
    next_tid = 1
    step_rng = random.Random(step_seed)
    for op, tup in script:
        if op == "insert":
            tid = next_tid
            next_tid += 1
            image = {"a": tup["a"], "b": tup["b"], "dept": tup["dept"]}
            store[tid] = image
            live.append(tid)
        elif op == "update" and live:
            tid = step_rng.choice(live)
            image = dict(tup)
            store[tid] = image
        elif op == "delete" and live:
            tid = live.pop(step_rng.randrange(len(live)))
            del store[tid]
            continue
        else:
            continue
        for name, condition in compiled:
            if condition.matches(image):
                oracle.append((name, tuple(sorted(image.items()))))
    return oracle


@pytest.mark.parametrize("seed", range(6))
def test_differential_matchers(seed, tmp_path):
    rng = random.Random(seed)
    conditions = []
    while len(conditions) < 8:
        text = random_condition(rng)
        # skip conditions that can never match (engine rejects them)
        compiled = compile_condition("r", text, FNS)
        if not compiled.group.is_empty:
            conditions.append(text)
    script = random_script(rng, 60)

    expected = sorted(oracle_transcript(conditions, script, FNS, seed + 999))
    for strategy in STRATEGIES:
        transcript = engine_transcript(
            strategy, conditions, script, FNS, seed + 999, tmp_path
        )
        assert sorted(transcript) == expected, (
            f"strategy {strategy!r} diverged on seed {seed}"
        )


#: Two functions over two attributes: the non-indexable list's shapes.
LIST_FNS = {"isodd": lambda x: x % 2 == 1, "big": lambda x: x > 15}


def function_condition(rng: random.Random) -> List[str]:
    """A function-only conjunction, in both clause orders when it has two
    or more clauses, each clause negated at random."""
    atoms = [
        f"{'not ' if rng.random() < 0.3 else ''}"
        f"{rng.choice(sorted(LIST_FNS))}({rng.choice(['a', 'b'])})"
        for _ in range(rng.randint(1, 3))
    ]
    orders = [atoms, atoms[::-1]] if len(atoms) > 1 else [atoms]
    return [" and ".join(order) for order in orders]


@pytest.mark.parametrize("seed", range(3))
def test_function_only_conditions_share_tests(seed, tmp_path):
    """Many rules on the non-indexable list, drawn from few distinct
    clauses so that clause tuples repeat: every matcher fires exactly
    what direct evaluation fires."""
    rng = random.Random(f"function-only:{seed}")
    conditions: List[str] = []
    while len(conditions) < 16:
        conditions.extend(function_condition(rng))
    script = random_script(rng, 60)

    expected = sorted(oracle_transcript(conditions, script, LIST_FNS, seed))
    assert expected, "the script fired no rule: the comparison would be vacuous"
    for strategy in STRATEGIES:
        transcript = engine_transcript(
            strategy, conditions, script, LIST_FNS, seed, tmp_path
        )
        assert sorted(transcript) == expected, (
            f"strategy {strategy!r} diverged on seed {seed}"
        )


def random_tuple(rng: random.Random) -> Dict:
    return {"a": rng.randint(0, 30), "b": rng.randint(0, 30), "dept": rng.choice(DEPTS)}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_bulk_scripts_match_oracle(strategy, tmp_path):
    """Batched mutations through each matcher's ``match_batch`` path.

    Every round bulk-inserts a batch, bulk-updates a random subset of
    the live tuples, and deletes one; the firings must equal direct
    evaluation of each condition on each event's tuple image.
    """
    rng = random.Random(41)
    conditions = []
    while len(conditions) < 8:
        text = random_condition(rng)
        if not compile_condition("r", text, FNS).group.is_empty:
            conditions.append(text)
    compiled = [
        (f"rule{index}", compile_condition("r", text, FNS))
        for index, text in enumerate(conditions)
    ]

    db = Database()
    db.create_relation("r", ["a", "b", "dept"])
    collect = CollectAction()
    engine = RuleEngine(db, matcher=build_matcher(strategy, tmp_path), functions=FNS)
    for name, text in zip((name for name, _ in compiled), conditions):
        engine.create_rule(
            name, on="r", condition=text, action=collect,
            on_events=("insert", "update"),
        )
    oracle: List = []

    def expect(image: Dict) -> None:
        for name, condition in compiled:
            if condition.matches(image):
                oracle.append((name, tuple(sorted(image.items()))))

    live: List[int] = []
    for _ in range(6):
        rows = [random_tuple(rng) for _ in range(rng.randint(1, 10))]
        live.extend(db.bulk_insert("r", rows))
        for row in rows:
            expect(row)
        changes = {
            tid: random_tuple(rng) for tid in rng.sample(live, rng.randint(1, len(live)))
        }
        db.bulk_update("r", changes)
        for change in changes.values():
            expect(change)
        db.delete("r", live.pop(rng.randrange(len(live))))
    engine.close()

    transcript = [(name, tuple(sorted(tup.items()))) for name, tup in collect.records]
    assert oracle, "the script fired no rule: the comparison would be vacuous"
    assert sorted(transcript) == sorted(oracle), f"strategy {strategy!r} diverged"
