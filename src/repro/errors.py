"""Exception hierarchy for the ``repro`` package.

Every exception raised by this library derives from :class:`ReproError`,
so callers can catch the whole family with a single ``except`` clause.
The hierarchy mirrors the package layout: interval/tree errors, predicate
and language errors, database errors, and rule-engine errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "IntervalError",
    "TreeError",
    "UnknownIntervalError",
    "DuplicateIntervalError",
    "TreeInvariantError",
    "PredicateError",
    "ClauseError",
    "ParseError",
    "LexError",
    "DatabaseError",
    "SchemaError",
    "UnknownRelationError",
    "UnknownAttributeError",
    "TupleError",
    "TransactionError",
    "CorruptSnapshotError",
    "CorruptSegmentError",
    "RuleError",
    "UnknownRuleError",
    "DuplicateRuleError",
    "RuleCycleError",
    "ActionQuarantinedError",
    "WorkloadError",
    "RegistryError",
    "ConcurrencyError",
    "ConcurrencyViolation",
    "InjectedFault",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class IntervalError(ReproError, ValueError):
    """An interval was constructed with inconsistent bounds.

    Raised, for example, when ``low > high`` or when a degenerate
    interval (``low == high``) has an open endpoint, which would denote
    the empty set.
    """


class TreeError(ReproError):
    """Base class for errors raised by interval index structures."""


class UnknownIntervalError(TreeError, KeyError):
    """An operation referenced an interval identifier not in the index."""


class DuplicateIntervalError(TreeError, KeyError):
    """An interval identifier was inserted twice into the same index."""


class TreeInvariantError(TreeError, AssertionError):
    """An internal structural invariant of a tree was violated.

    This is raised only by explicit ``validate()`` calls (used heavily in
    the test suite); it indicates a bug in the library, never bad user
    input.
    """


class PredicateError(ReproError):
    """Base class for errors in predicate construction or evaluation."""


class ClauseError(PredicateError, ValueError):
    """A predicate clause was malformed (bad operator, bad bounds...)."""


class LexError(PredicateError, ValueError):
    """The predicate-language lexer met an unexpected character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(PredicateError, ValueError):
    """The predicate-language parser met an unexpected token."""

    def __init__(self, message: str, position: int = -1):
        if position >= 0:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class DatabaseError(ReproError):
    """Base class for errors raised by the main-memory DBMS substrate."""


class SchemaError(DatabaseError, ValueError):
    """A relation schema was malformed or violated."""


class UnknownRelationError(DatabaseError, KeyError):
    """A relation name was referenced that is not in the catalog."""


class UnknownAttributeError(DatabaseError, KeyError):
    """An attribute name was referenced that is not in a schema."""


class TupleError(DatabaseError, ValueError):
    """A tuple did not conform to its relation's schema."""


class TransactionError(DatabaseError, RuntimeError):
    """A transactional mutation context was misused.

    Raised, for example, when rollback is requested on a transaction
    that already committed, or when transaction bookkeeping detects it
    cannot undo an applied operation.
    """


class CorruptSnapshotError(DatabaseError, ValueError):
    """A persisted snapshot or journal failed its integrity checks.

    Raised by :mod:`repro.db.persistence` when a snapshot is torn
    (truncated or otherwise not decodable) or its checksum does not
    match its payload — the typed alternative to silently loading
    garbage data after a crash mid-write.
    """


class CorruptSegmentError(CorruptSnapshotError):
    """A disk-tier segment file failed its integrity checks.

    Raised by :mod:`repro.disk.segment` when a segment is torn
    (truncated mid-write), carries a bad magic/version, or its payload
    checksum does not match its header and footer.  Subclasses
    :class:`CorruptSnapshotError` so recovery code that already treats
    corrupt persistence artifacts as "rebuild from the journal" handles
    segments the same way.
    """


class RuleError(ReproError):
    """Base class for errors raised by the rule engine."""


class UnknownRuleError(RuleError, KeyError):
    """A rule name was referenced that is not registered."""


class DuplicateRuleError(RuleError, KeyError):
    """A rule name was registered twice."""


class RuleCycleError(RuleError, RuntimeError):
    """Rule firing failed to reach a fixpoint within the firing limit."""


class ActionQuarantinedError(RuleError, RuntimeError):
    """A rule action exhausted its retries and was quarantined.

    Not raised during normal draining — quarantine is silent by design
    so one bad rule cannot abort the agenda — but available for callers
    that re-fire dead-letter entries synchronously and want failures
    surfaced as exceptions.
    """


class WorkloadError(ReproError, ValueError):
    """A workload generator was configured with inconsistent parameters."""


class RegistryError(ReproError, KeyError):
    """An unknown or duplicate name in the backend registry."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep the message
        return self.args[0] if self.args else ""


class ConcurrencyError(ReproError, RuntimeError):
    """Base class for errors raised by the concurrent matching layer."""


class ConcurrencyViolation(ConcurrencyError, AssertionError):
    """An observed read is inconsistent with the epoch that served it.

    Raised by the epoch checker (:mod:`repro.testing.concurrency`) when
    a recorded observation does not equal the serial replay of the
    operation log up to the observation's epoch — the concurrent
    structure let a reader see a state no sequential execution of the
    published operations could produce.  Carries the full violation
    list so a stress-run failure shows every divergent read, not just
    the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        more = len(self.violations) - 5
        if more > 0:
            lines += f"; … and {more} more"
        super().__init__(
            f"{len(self.violations)} observation(s) diverge from their epoch: {lines}"
        )


class InjectedFault(ReproError, RuntimeError):
    """An artificial failure raised by the fault-injection harness.

    Only ever raised when a :class:`repro.testing.faults.FaultInjector`
    is installed and armed — production code paths never construct it
    themselves.  Carries the injection site name and the hit counter at
    which the fault fired, so tests can assert exactly where a failure
    was introduced.
    """

    def __init__(self, site: str, hit: int = 0):
        super().__init__(f"injected fault at site {site!r} (hit #{hit})")
        self.site = site
        self.hit = hit
