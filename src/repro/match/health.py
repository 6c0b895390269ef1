"""Index health: registry audits, differential probing, self-repair.

These functions are the corruption-detection and self-healing layer
behind :meth:`PredicateIndex.audit` / :meth:`check_invariants` /
:meth:`verify_and_rebuild`.  They operate on a
:class:`~repro.match.catalog.ClauseCatalog` plus a
:class:`~repro.match.store.TreeStore` and keep three kinds of checks:

* **registry consistency** — every ident routed to a relation appears
  in its predicates table; ``indexed_under`` / ``non_indexable``
  entries have backing predicates; tree entries have backing
  ``indexed_under`` rows;
* **per-tree invariants** — each backend's own ``audit``/``validate``;
* **differential probing** — every tree is rebuilt from its own
  entries into a reference and both are stabbed at every finite clause
  endpoint, catching completeness corruption (markers silently lost by
  an interrupted structural delete) that is invisible to the internal
  validator, which only proves the markers still present sound.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Set

from ..core.intervals import is_infinite
from ..errors import TreeInvariantError
from .catalog import ClauseCatalog, RelationState
from .store import TreeStore

__all__ = ["audit", "audit_relation", "check_invariants", "verify_and_rebuild"]


def check_invariants(catalog: ClauseCatalog, tree_factory: Callable[[], Any]) -> bool:
    """Validate the whole index; raise on any violation.

    Returns True when healthy, raises
    :class:`~repro.errors.TreeInvariantError` otherwise.
    """
    problems = audit(catalog, tree_factory)
    if problems:
        raise TreeInvariantError(
            f"predicate index corrupt ({len(problems)} problem"
            f"{'s' if len(problems) != 1 else ''}): " + "; ".join(problems)
        )
    return True


def audit(catalog: ClauseCatalog, tree_factory: Callable[[], Any]) -> List[str]:
    """Non-raising health check: a list of problem descriptions.

    An empty list means the index is healthy.
    """
    problems: List[str] = []
    for ident, relation in catalog.relation_of.items():
        state = catalog.relations.get(relation)
        if state is None or ident not in state.predicates:
            problems.append(
                f"orphaned ident {ident!r}: registered for relation "
                f"{relation!r} but missing from its predicates table"
            )
    for relation, state in catalog.relations.items():
        problems.extend(audit_relation(catalog, relation, state, tree_factory))
    return problems


def audit_relation(
    catalog: ClauseCatalog,
    relation: str,
    state: RelationState,
    tree_factory: Callable[[], Any],
) -> List[str]:
    """Audit one relation's registries and trees."""
    problems: List[str] = []
    for ident in state.predicates:
        if catalog.relation_of.get(ident) != relation:
            problems.append(
                f"{relation}: predicate {ident!r} missing from the "
                f"relation-of registry"
            )
    for ident in state.non_indexable:
        if ident not in state.predicates:
            problems.append(
                f"{relation}: stale non-indexable entry {ident!r}"
            )
    for ident, attributes in state.indexed_under.items():
        if ident not in state.predicates:
            problems.append(
                f"{relation}: stale indexed-under entry {ident!r}"
            )
        for attribute in attributes:
            tree = state.trees.get(attribute)
            if tree is None or not _holds(tree, ident):
                problems.append(
                    f"{relation}.{attribute}: predicate {ident!r} "
                    f"indexed under the attribute but absent from its tree"
                )
    for attribute, tree in state.trees.items():
        # a foreign backend that cannot list its entries skips this check
        for ident in tree if hasattr(tree, "__iter__") else ():
            if attribute not in state.indexed_under.get(ident, ()):
                problems.append(
                    f"{relation}.{attribute}: stray tree entry {ident!r}"
                )
        for problem in _tree_problems(tree):
            problems.append(f"{relation}.{attribute}: {problem}")
        for problem in _tree_divergence(tree, tree_factory):
            problems.append(f"{relation}.{attribute}: {problem}")
    return problems


def _holds(tree: Any, ident: Hashable) -> bool:
    """Whether *tree* holds *ident*; assumed for a foreign backend
    without a membership test."""
    return ident in tree if hasattr(tree, "__contains__") else True


def _tree_problems(tree: Any) -> List[str]:
    """The tree's own invariant report (tolerant of foreign backends)."""
    auditor = getattr(tree, "audit", None)
    if auditor is not None:
        return list(auditor())
    validator = getattr(tree, "validate", None)
    if validator is None:
        return []
    try:
        validator()
    except Exception as exc:
        return [f"{type(exc).__name__}: {exc}"]
    return []


def _tree_divergence(tree: Any, tree_factory: Callable[[], Any]) -> List[str]:
    """Differentially probe *tree* against a freshly built reference.

    Probes are the finite endpoints of every indexed interval: any
    lost (or phantom) marker changes the stab answer at one of them
    for the interval's own clauses.  Structure may legally differ
    between the two trees — only the answers are compared.
    """
    items = getattr(tree, "items", None)
    if items is None:
        return []  # foreign backend without introspection: skip
    reference = tree_factory()
    entries = list(items())
    loader = getattr(reference, "bulk_load", None)
    if loader is not None:
        loader((interval, ident) for ident, interval in entries)
    else:
        for ident, interval in entries:
            reference.insert(interval, ident)
    probes: Set[Any] = set()
    for _, interval in entries:
        for value in (interval.low, interval.high):
            if not is_infinite(value):
                try:
                    probes.add(value)
                except TypeError:
                    pass  # unhashable endpoint: skip the probe
    problems: List[str] = []
    for value in probes:
        try:
            expected = reference.stab(value)
            got = tree.stab(value)
        except TypeError:
            continue  # mixed domains: nothing to compare at this probe
        if got != expected:
            missing = expected - got
            extra = got - expected
            detail = []
            if missing:
                detail.append(f"missing {sorted(map(repr, missing))}")
            if extra:
                detail.append(f"extra {sorted(map(repr, extra))}")
            problems.append(
                f"stab({value!r}) diverges from rebuilt reference "
                f"({', '.join(detail)})"
            )
    return problems


def verify_and_rebuild(
    catalog: ClauseCatalog, store: TreeStore, tree_factory: Callable[[], Any]
) -> Dict[str, Any]:
    """Detect index corruption and repair it in place.

    Audits every relation; for each one reporting problems, rebuilds
    its per-attribute trees and registries from the PREDICATES table —
    the durable source of truth — preserving identifiers, then
    re-audits (including the differential probe check) to prove the
    repair took.  Every entry clause is chosen again by the estimator
    (:meth:`~repro.match.catalog.ClauseCatalog.rebuild_relation`), and
    a failure while building leaves the relation as it was.  Orphaned
    routing entries with no backing predicate are pruned.

    Returns a report ``{"healthy": bool, "problems": [...], "rebuilt":
    [relation, ...]}`` where ``healthy`` reflects the state *before*
    repair.  Raises :class:`~repro.errors.TreeInvariantError` only if
    a rebuilt relation still fails its audit (the predicates table
    itself is damaged beyond repair).
    """
    problems: List[str] = []
    rebuilt: List[str] = []
    for ident, relation in list(catalog.relation_of.items()):
        state = catalog.relations.get(relation)
        if state is None or ident not in state.predicates:
            problems.append(
                f"orphaned ident {ident!r} for relation {relation!r}: pruned"
            )
            del catalog.relation_of[ident]
    for relation, state in list(catalog.relations.items()):
        relation_problems = audit_relation(catalog, relation, state, tree_factory)
        if not relation_problems:
            continue
        problems.extend(relation_problems)
        catalog.rebuild_relation(store, relation, state)
        rebuilt.append(relation)
        remaining = audit_relation(catalog, relation, state, tree_factory)
        if remaining:
            raise TreeInvariantError(
                f"relation {relation!r} still corrupt after rebuild: "
                + "; ".join(remaining)
            )
    return {"healthy": not problems, "problems": problems, "rebuilt": rebuilt}
