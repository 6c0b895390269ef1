"""repro — reproduction of Hanson et al., SIGMOD 1990.

*A Predicate Matching Algorithm for Database Rule Systems.*

The package provides:

* the **IBS-tree** (interval binary search tree), a dynamic index over
  intervals and points answering stabbing queries in ``O(log N + L)``;
* the paper's **two-level predicate index** (hash on relation name, one
  IBS-tree per indexed attribute, residual test against a predicate
  table);
* a main-memory relational **database substrate** with a
  forward-chaining **rule engine** (triggers) built on the index;
* the paper's **baselines** (sequential search, hash + sequential,
  physical locking, R-trees) and related interval indexes (segment
  tree, interval tree, priority search tree) for comparison;
* **workload generators** and a benchmark harness reproducing every
  figure of the paper's evaluation.

Quickstart::

    from repro import Database, RuleEngine

    db = Database()
    db.create_relation("emp", ["name", "age", "salary", "dept"])
    engine = RuleEngine(db)
    engine.create_rule(
        "raise_alert",
        on="emp",
        condition="salary >= 20000 and salary <= 30000",
        action=lambda ctx: print("matched:", ctx.tuple),
    )
    db.insert("emp", {"name": "Lee", "age": 41, "salary": 25000,
                      "dept": "Shoe"})
"""

from .core import (
    AVLIBSTree,
    DefaultEstimator,
    IBSNode,
    IBSTree,
    RBIBSTree,
    Interval,
    MatchStatistics,
    MINUS_INF,
    PLUS_INF,
    PredicateIndex,
    StatisticsEstimator,
    is_infinite,
    rank_index_clauses,
)
from .db import (
    AbortMutation,
    Attribute,
    BatchEvent,
    Database,
    Domain,
    OperationJournal,
    Relation,
    Schema,
    Transaction,
    load_database,
    recover_database,
    save_database,
)
from .concurrency import ConcurrentPredicateIndex, EpochSnapshot, RelationShard
from .lang import CompiledCondition, compile_condition, parse_condition
from .predicates import (
    Clause,
    EqualityClause,
    FunctionClause,
    IntervalClause,
    Predicate,
    PredicateBuilder,
    PredicateGroup,
)
from .rules import (
    AbortAction,
    ActionFailure,
    CollectAction,
    DeleteAction,
    InsertAction,
    JoinRule,
    RetryPolicy,
    Rule,
    RuleContext,
    RuleEngine,
    UpdateAction,
    chain,
)
from .errors import (
    ActionQuarantinedError,
    ClauseError,
    ConcurrencyError,
    ConcurrencyViolation,
    CorruptSnapshotError,
    DatabaseError,
    InjectedFault,
    IntervalError,
    ParseError,
    PredicateError,
    ReproError,
    RuleError,
    SchemaError,
    TransactionError,
    TreeError,
    TreeInvariantError,
    TupleError,
)

__version__ = "1.0.0"

__all__ = [
    # core data structures
    "Interval",
    "MINUS_INF",
    "PLUS_INF",
    "is_infinite",
    "IBSTree",
    "IBSNode",
    "AVLIBSTree",
    "RBIBSTree",
    "PredicateIndex",
    "MatchStatistics",
    "DefaultEstimator",
    "StatisticsEstimator",
    "rank_index_clauses",
    # concurrent matching layer
    "ConcurrentPredicateIndex",
    "EpochSnapshot",
    "RelationShard",
    # predicates and language
    "Clause",
    "IntervalClause",
    "EqualityClause",
    "FunctionClause",
    "Predicate",
    "PredicateGroup",
    "PredicateBuilder",
    "compile_condition",
    "parse_condition",
    "CompiledCondition",
    # database substrate
    "Database",
    "Relation",
    "Schema",
    "Attribute",
    "Domain",
    "AbortMutation",
    "BatchEvent",
    "Transaction",
    "OperationJournal",
    "save_database",
    "load_database",
    "recover_database",
    # rule system
    "RuleEngine",
    "Rule",
    "RuleContext",
    "JoinRule",
    "InsertAction",
    "UpdateAction",
    "DeleteAction",
    "AbortAction",
    "CollectAction",
    "chain",
    "RetryPolicy",
    "ActionFailure",
    # errors
    "ReproError",
    "IntervalError",
    "TreeError",
    "TreeInvariantError",
    "PredicateError",
    "ClauseError",
    "ParseError",
    "DatabaseError",
    "SchemaError",
    "TupleError",
    "TransactionError",
    "CorruptSnapshotError",
    "RuleError",
    "ActionQuarantinedError",
    "ConcurrencyError",
    "ConcurrencyViolation",
    "InjectedFault",
    "__version__",
]
