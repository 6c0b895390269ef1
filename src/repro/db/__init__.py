"""Main-memory relational database substrate.

The rule system (and the paper's Figure 1 index) sits on this small
DBMS: schemas with typed attribute domains, tuple storage with
incremental statistics, and a synchronous mutation-event bus.
"""

from .database import AbortMutation, Database, Transaction
from .events import BatchEvent, DeleteEvent, Event, InsertEvent, UpdateEvent
from .persistence import (
    OperationJournal,
    database_from_dict,
    database_to_dict,
    load_database,
    read_journal,
    recover_database,
    replay_journal,
    save_database,
)
from .relation import Relation
from .schema import Attribute, Schema
from .statistics import AttributeStatistics, RelationStatistics
from .types import ANY, BOOLEAN, FLOAT, INTEGER, NUMBER, STRING, Domain, integer_range

__all__ = [
    "Database",
    "AbortMutation",
    "Transaction",
    "Relation",
    "Schema",
    "Attribute",
    "Domain",
    "INTEGER",
    "FLOAT",
    "NUMBER",
    "STRING",
    "BOOLEAN",
    "ANY",
    "integer_range",
    "Event",
    "InsertEvent",
    "UpdateEvent",
    "DeleteEvent",
    "BatchEvent",
    "RelationStatistics",
    "AttributeStatistics",
    "save_database",
    "load_database",
    "database_to_dict",
    "database_from_dict",
    "OperationJournal",
    "read_journal",
    "replay_journal",
    "recover_database",
]
