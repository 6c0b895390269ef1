"""Seeded scenario families beyond the paper's fixed workload.

:mod:`repro.workloads.generator` reproduces the paper's Section 5.2
micro-workload; this module synthesizes the *shapes* the paper's fixed
workload never exercises — the shapes on which tree backends and
maintenance policies could differ.  The maintenance differential tests
and ``python -m repro maintenance`` play them:

``uniform-stabs``
    The paper's baseline: uniform predicates, uniform query points.
    A control row — every reasonable backend should price similarly.
``zipf-stabs``
    Query values drawn Zipf-fashion from a small hot set, so the stab
    cache and repeated-descent costs dominate.
``hot-attribute``
    Predicates spread over three attributes but ~85 % of stabs hit one
    of them — skewed per-attribute load.
``churn-heavy``
    Adds and removes dominate reads; cheap insertion wins over
    balanced lookup.
``interval-dense``
    Long, heavily overlapping intervals: every stab traverses many
    containing intervals, stressing result collection.
``adversarial-unbalanced``
    Interval endpoints inserted in ascending order — the degeneration
    case of Section 4.2's unbalanced IBS-tree, where incremental
    insertion builds a linked list and only a balanced (or rebuilt)
    backend restores O(log N) stabs.

Every family draws from its own ``random.Random(f"{family}:{seed}")``
instance — scenario generation never reads or perturbs the ambient
``random`` module state, and two scenarios with the same family and
seed are identical across processes and platforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..core.intervals import Interval
from ..errors import WorkloadError
from ..predicates.clauses import EqualityClause, IntervalClause
from ..predicates.predicate import Predicate

__all__ = [
    "ScenarioSpec",
    "SyntheticScenario",
    "SCENARIO_FAMILIES",
    "scenario_names",
    "synthesize",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """Size and shape knobs of one synthesized scenario.

    ``scaled`` produces a smaller or larger copy of the same scenario
    (used by ``--quick`` modes and the tests); the family and seed — and
    therefore the workload's *shape* — are unchanged.
    """

    family: str
    seed: int = 0
    relation: str = "r"
    attributes: Tuple[str, ...] = ("a",)
    predicates: int = 400
    batches: int = 24
    batch_size: int = 64
    churn_ops: int = 0
    value_low: int = 1
    value_high: int = 10_000

    def scaled(self, factor: float) -> "ScenarioSpec":
        """The same scenario at *factor* times the size."""
        if factor <= 0:
            raise WorkloadError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            predicates=max(8, round(self.predicates * factor)),
            batches=max(2, round(self.batches * factor)),
            churn_ops=round(self.churn_ops * factor),
        )


class SyntheticScenario:
    """One fully materialized scenario: predicates, batches, churn.

    Everything is generated eagerly in the constructor from a private
    ``random.Random`` seeded with ``f"{family}:{seed}"``, so instances
    are immutable-in-practice and deterministic.

    * :meth:`predicates` — the initial predicate set, idents ``0..n-1``;
    * :meth:`batches` — tuple batches for the read phase;
    * :meth:`churn` — ``("add", Predicate)`` / ``("remove", ident)``
      events applied between read batches (empty for read-only
      families).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        predicates: List[Predicate],
        batches: List[List[Dict[str, Any]]],
        churn: List[Tuple[str, Any]],
    ) -> None:
        self.spec = spec
        self._predicates = predicates
        self._batches = batches
        self._churn = churn

    @property
    def name(self) -> str:
        return self.spec.family

    def predicates(self) -> List[Predicate]:
        return list(self._predicates)

    def batches(self) -> List[List[Dict[str, Any]]]:
        return [list(batch) for batch in self._batches]

    def churn(self) -> List[Tuple[str, Any]]:
        return list(self._churn)

    def total_stabs(self) -> int:
        """Logical read volume: tuples across every batch."""
        return sum(len(batch) for batch in self._batches)

    def __repr__(self) -> str:
        return (
            f"<SyntheticScenario {self.name!r}: "
            f"{len(self._predicates)} predicates, "
            f"{len(self._batches)}x{self.spec.batch_size} batches, "
            f"{len(self._churn)} churn ops>"
        )


# ----------------------------------------------------------------------
# shared building blocks
# ----------------------------------------------------------------------


def _interval_predicate(
    spec: ScenarioSpec,
    rng: random.Random,
    ident: Hashable,
    attribute: str,
    point_fraction: float = 0.5,
    length_low: int = 1,
    length_high: int = 1_000,
) -> Predicate:
    start = rng.randint(spec.value_low, spec.value_high)
    if rng.random() < point_fraction:
        clause: Any = EqualityClause(attribute, start)
    else:
        length = rng.randint(length_low, length_high)
        clause = IntervalClause(attribute, Interval.closed(start, start + length))
    return Predicate(spec.relation, [clause], ident=ident)


def _uniform_batches(
    spec: ScenarioSpec,
    rng: random.Random,
    attributes: Optional[Tuple[str, ...]] = None,
) -> List[List[Dict[str, Any]]]:
    attrs = attributes if attributes is not None else spec.attributes
    return [
        [
            {attr: rng.randint(spec.value_low, spec.value_high) for attr in attrs}
            for _ in range(spec.batch_size)
        ]
        for _ in range(spec.batches)
    ]


def _zipf_values(
    rng: random.Random, spec: ScenarioSpec, hot: int = 64
) -> Tuple[List[int], List[float]]:
    """A hot value set with 1/rank weights (classic Zipf, s = 1)."""
    population = [
        rng.randint(spec.value_low, spec.value_high) for _ in range(hot)
    ]
    weights = [1.0 / rank for rank in range(1, hot + 1)]
    return population, weights


# ----------------------------------------------------------------------
# the families
# ----------------------------------------------------------------------


def _build_uniform(spec: ScenarioSpec) -> SyntheticScenario:
    rng = random.Random(f"{spec.family}:{spec.seed}")
    attr = spec.attributes[0]
    predicates = [
        _interval_predicate(spec, rng, i, attr) for i in range(spec.predicates)
    ]
    return SyntheticScenario(spec, predicates, _uniform_batches(spec, rng), [])


def _build_zipf(spec: ScenarioSpec) -> SyntheticScenario:
    rng = random.Random(f"{spec.family}:{spec.seed}")
    attr = spec.attributes[0]
    predicates = [
        _interval_predicate(spec, rng, i, attr) for i in range(spec.predicates)
    ]
    population, weights = _zipf_values(rng, spec)
    batches = [
        [
            {attr: value}
            for value in rng.choices(population, weights, k=spec.batch_size)
        ]
        for _ in range(spec.batches)
    ]
    return SyntheticScenario(spec, predicates, batches, [])


def _build_hot_attribute(spec: ScenarioSpec) -> SyntheticScenario:
    rng = random.Random(f"{spec.family}:{spec.seed}")
    attrs = spec.attributes
    predicates = [
        _interval_predicate(spec, rng, i, attrs[i % len(attrs)])
        for i in range(spec.predicates)
    ]
    hot = attrs[0]
    batches: List[List[Dict[str, Any]]] = []
    for _ in range(spec.batches):
        batch: List[Dict[str, Any]] = []
        for _ in range(spec.batch_size):
            if rng.random() < 0.85:
                batch.append({hot: rng.randint(spec.value_low, spec.value_high)})
            else:
                batch.append(
                    {
                        attr: rng.randint(spec.value_low, spec.value_high)
                        for attr in attrs[1:]
                    }
                )
        batches.append(batch)
    return SyntheticScenario(spec, predicates, batches, [])


def _build_churn(spec: ScenarioSpec) -> SyntheticScenario:
    rng = random.Random(f"{spec.family}:{spec.seed}")
    attr = spec.attributes[0]
    predicates = [
        _interval_predicate(spec, rng, i, attr) for i in range(spec.predicates)
    ]
    churn: List[Tuple[str, Any]] = []
    next_ident = spec.predicates
    live = list(range(spec.predicates))
    for _ in range(spec.churn_ops):
        if live and rng.random() < 0.5:
            victim = live.pop(rng.randrange(len(live)))
            churn.append(("remove", victim))
        else:
            churn.append(
                ("add", _interval_predicate(spec, rng, next_ident, attr))
            )
            live.append(next_ident)
            next_ident += 1
    return SyntheticScenario(spec, predicates, _uniform_batches(spec, rng), churn)


def _build_interval_dense(spec: ScenarioSpec) -> SyntheticScenario:
    rng = random.Random(f"{spec.family}:{spec.seed}")
    attr = spec.attributes[0]
    predicates = [
        _interval_predicate(
            spec,
            rng,
            i,
            attr,
            point_fraction=0.0,
            length_low=max(1, (spec.value_high - spec.value_low) // 20),
            length_high=max(2, (spec.value_high - spec.value_low) // 4),
        )
        for i in range(spec.predicates)
    ]
    return SyntheticScenario(spec, predicates, _uniform_batches(spec, rng), [])


def _build_adversarial(spec: ScenarioSpec) -> SyntheticScenario:
    rng = random.Random(f"{spec.family}:{spec.seed}")
    attr = spec.attributes[0]
    # strictly ascending endpoints, inserted in order: incremental
    # insertion into the paper's unbalanced IBS-tree builds a path
    step = 7
    predicates = [
        Predicate(
            spec.relation,
            [
                IntervalClause(
                    attr,
                    Interval.closed(
                        spec.value_low + i * step,
                        spec.value_low + i * step + rng.randint(1, step - 2),
                    ),
                )
            ],
            ident=i,
        )
        for i in range(spec.predicates)
    ]
    high = spec.value_low + spec.predicates * step
    batches = [
        [
            {attr: rng.randint(spec.value_low, high)}
            for _ in range(spec.batch_size)
        ]
        for _ in range(spec.batches)
    ]
    return SyntheticScenario(spec, predicates, batches, [])


#: family name -> (builder, default spec overrides)
SCENARIO_FAMILIES: Dict[
    str, Tuple[Callable[[ScenarioSpec], SyntheticScenario], Dict[str, Any]]
] = {
    "uniform-stabs": (_build_uniform, {}),
    "zipf-stabs": (_build_zipf, {}),
    "hot-attribute": (_build_hot_attribute, {"attributes": ("a", "b", "c")}),
    "churn-heavy": (_build_churn, {"churn_ops": 400, "batches": 8}),
    "interval-dense": (_build_interval_dense, {"predicates": 300}),
    "adversarial-unbalanced": (_build_adversarial, {"predicates": 600}),
}


def scenario_names() -> List[str]:
    """Registered family names, in registration order."""
    return list(SCENARIO_FAMILIES)


def synthesize(
    family: str,
    seed: int = 0,
    scale: float = 1.0,
    **overrides: Any,
) -> SyntheticScenario:
    """Build the *family* scenario at *seed*, optionally rescaled.

    *overrides* replace :class:`ScenarioSpec` fields (e.g.
    ``predicates=2_000``) after the family's own defaults are applied;
    unknown fields raise.  The same ``(family, seed, scale,
    overrides)`` always yields an identical scenario.
    """
    try:
        builder, defaults = SCENARIO_FAMILIES[family]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario family {family!r}; registered: "
            f"{', '.join(SCENARIO_FAMILIES)}"
        ) from None
    fields: Dict[str, Any] = {"family": family, "seed": seed}
    fields.update(defaults)
    fields.update(overrides)
    try:
        spec = ScenarioSpec(**fields)
    except TypeError as exc:
        raise WorkloadError(f"bad scenario override: {exc}") from None
    if scale != 1.0:
        spec = spec.scaled(scale)
    return builder(spec)
