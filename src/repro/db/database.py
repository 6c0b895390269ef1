"""The main-memory database: catalog, mutations, and event delivery.

:class:`Database` is the substrate the rule system sits on: a catalog of
:class:`~repro.db.relation.Relation` objects plus a synchronous event
bus.  Every successful insert/update/delete produces an event delivered
to subscribers in registration order — the rule engine subscribes to
drive predicate matching, exactly the "inserted or deleted tuples enter
here" arrow at the top of the paper's Figure 1.

A subscriber may veto a mutation by raising
:class:`~repro.db.database.AbortMutation` (used by integrity rules):
the database rolls the mutation back and re-raises, so the caller sees
the mutation never happened.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import (
    DatabaseError,
    RegistryError,
    SchemaError,
    TransactionError,
    UnknownRelationError,
)
from .events import BatchEvent, DeleteEvent, Event, InsertEvent, UpdateEvent, as_compensating
from .relation import Relation
from .schema import AttributeSpec, Schema

__all__ = ["Database", "AbortMutation", "Transaction"]

#: Subscribers receive every per-tuple :class:`Event` — and, from the
#: bulk mutation APIs, a single :class:`BatchEvent` wrapping the batch.
Subscriber = Callable[[Any], None]


class AbortMutation(DatabaseError):
    """Raised by a subscriber (e.g. an integrity rule) to veto a mutation.

    The database undoes the mutation before propagating this exception,
    so state is as if the call never happened.
    """

    def __init__(self, reason: str = "mutation aborted by rule"):
        super().__init__(reason)
        self.reason = reason


class Transaction:
    """A journal of applied mutations supporting all-or-nothing rollback.

    Obtained from :meth:`Database.transaction`; while active, every
    mutation on the database — including cascades triggered by rule
    actions — appends an undo record *before* its event is delivered,
    so :meth:`rollback_to` can restore any earlier state by undoing
    records in strict LIFO order (a cascade that updates a tuple the
    outer operation created is unwound update-first).

    Undoing an operation fires a *compensating* event (the inverse
    image, flagged ``compensating=True``) so subscribers that maintain
    derived state — rule-engine monitors, join alpha memories — track
    the restored contents instead of silently drifting.  Compensating
    events cannot be vetoed: an :class:`AbortMutation` raised against
    one is ignored, because the rollback it announces already happened.
    """

    __slots__ = ("_db", "_ops", "state")

    def __init__(self, db: "Database"):
        self._db = db
        self._ops: List[Tuple] = []
        #: ``"active"`` -> ``"committed"`` or ``"rolled-back"``
        self.state = "active"

    @property
    def active(self) -> bool:
        return self.state == "active"

    def __len__(self) -> int:
        """Number of not-yet-undone operations journaled so far."""
        return len(self._ops)

    def savepoint(self) -> int:
        """A marker for partial rollback: the current journal length."""
        return len(self._ops)

    def _record(self, op: Tuple) -> None:
        if self.state != "active":
            raise TransactionError(
                f"cannot mutate through a {self.state} transaction"
            )
        self._ops.append(op)

    def rollback(self) -> None:
        """Undo every journaled operation and close the transaction."""
        self.rollback_to(0)
        self.state = "rolled-back"

    def rollback_to(self, savepoint: int) -> None:
        """Undo journaled operations back to *savepoint*, newest first.

        Each undo restores the relation's stored tuple (and its
        statistics) and fires the matching compensating event.  A
        subscriber error during compensation does not stop the
        rollback — every remaining operation is still undone, and the
        first such error is re-raised wrapped in
        :class:`~repro.errors.TransactionError` once the state is
        restored.
        """
        if self.state != "active":
            raise TransactionError(f"cannot roll back a {self.state} transaction")
        if savepoint < 0 or savepoint > len(self._ops):
            raise TransactionError(
                f"savepoint {savepoint} out of range (journal has {len(self._ops)} ops)"
            )
        db = self._db
        first_error: Optional[BaseException] = None
        while len(self._ops) > savepoint:
            op = self._ops.pop()
            kind = op[0]
            if kind == "insert":
                _, relation, name, tid = op
                old = relation.delete(tid)
                event: Event = DeleteEvent(name, tid, dict(old))
            elif kind == "update":
                _, relation, name, tid, old, new = op
                relation.revert_update(tid, old)
                event = UpdateEvent(name, tid, dict(new), dict(old))
            else:  # "delete"
                _, relation, name, tid, old = op
                relation.restore(tid, old)
                event = InsertEvent(name, tid, dict(old))
            try:
                db._notify(as_compensating(event))
            except AbortMutation:
                pass  # a rollback cannot be vetoed
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise TransactionError(
                "a subscriber failed while handling a compensating event; "
                "relation state was fully rolled back regardless"
            ) from first_error

    def __repr__(self) -> str:
        return f"<Transaction {self.state}, {len(self._ops)} ops>"


class _TransactionScope:
    """The ``with`` scope returned by :meth:`Database.transaction`.

    A plain class rather than a ``@contextmanager`` generator, because
    the rule engine opens one scope per agenda drain, which outside a
    transaction is one per triggering mutation (each firing takes only
    a savepoint of it).  ``__enter__`` takes the mutation lock and
    either begins a transaction or, inside one, marks a savepoint;
    ``__exit__`` commits or rolls back to match, then releases the
    lock.  An unlocked database's lock is a no-op
    ``nullcontext``, so the scope skips it rather than call it twice.
    """

    __slots__ = ("_db", "_txn", "_savepoint")

    _txn: Transaction
    #: journal length at entry when nested; None for the outermost scope
    _savepoint: Optional[int]

    def __init__(self, db: "Database") -> None:
        self._db = db

    def __enter__(self) -> Transaction:
        db = self._db
        if db.threadsafe:
            db._mutation_lock.acquire()
        outer = db._txn
        if outer is not None:
            self._txn = outer
            self._savepoint = outer.savepoint()
            return outer
        txn = self._txn = db._txn = Transaction(db)
        self._savepoint = None
        return txn

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        db = self._db
        txn = self._txn
        try:
            if self._savepoint is not None:
                if exc_type is not None and txn.active:
                    txn.rollback_to(self._savepoint)
            elif exc_type is not None:
                try:
                    if txn.active:
                        txn.rollback()
                finally:
                    db._txn = None
            else:
                db._txn = None
                if txn.active:
                    txn.state = "committed"
        finally:
            if db.threadsafe:
                db._mutation_lock.release()


class Database:
    """A catalog of main-memory relations with synchronous mutation events.

    Parameters
    ----------
    threadsafe:
        When set, every mutation (and every open :meth:`transaction`
        scope) runs under one reentrant mutation lock, so concurrent
        threads cannot interleave half-applied mutations or their event
        deliveries.  Reentrancy keeps rule-action cascades working: a
        subscriber reacting to an event may mutate again on the same
        thread.  Each relation also gets its own lock over its tuples
        and their statistics, so a selectivity estimate never reads a
        record a writer is changing.  Other reads are not locked — pair
        this with a matcher that reads published snapshots
        (``"ibs-concurrent"``) for a fully thread-safe rule system.  Off
        by default: the single-threaded paper configuration pays no
        locking overhead.
    matcher:
        Default predicate-matcher strategy for rule engines created
        over this database: a name registered in the
        :data:`~repro.match.registry.DEFAULT_REGISTRY` (``"ibs"``,
        ``"ibs-concurrent"``, ``"sequential"``, …) or a ready
        :class:`~repro.baselines.base.PredicateMatcher` instance.  A
        :class:`~repro.rules.engine.RuleEngine` constructed without an
        explicit ``matcher`` picks this up; ``None`` (the default)
        leaves the engine's own default (``"ibs"``) in charge.  Unknown
        names raise :class:`~repro.errors.RegistryError` here, at
        configuration time, rather than when the first engine attaches.
    maintenance:
        A :class:`~repro.maintenance.MaintenancePolicy` forwarded (via
        the registry) to every matcher a rule engine builds over this
        database, routing its periodic work — retune, shard
        compaction, disk checkpoints, eviction — through one
        deterministic scheduler.  ``None`` (the default)
        leaves every mechanism manual or on its legacy per-matcher
        sugar.
    """

    def __init__(
        self,
        threadsafe: bool = False,
        matcher: Optional[Any] = None,
        maintenance: Optional[Any] = None,
    ) -> None:
        if isinstance(matcher, str):
            # Imported here: the db layer must stay importable while
            # repro.core (which db depends on) is still initialising.
            from ..match.registry import DEFAULT_REGISTRY

            if matcher not in DEFAULT_REGISTRY.matchers():
                raise RegistryError(
                    f"unknown matcher {matcher!r}; registered: "
                    f"{', '.join(DEFAULT_REGISTRY.matchers())}"
                )
        #: Default matcher spec for rule engines over this database.
        self.default_matcher = matcher
        #: Default maintenance policy for those engines' matchers.
        self.default_maintenance = maintenance
        self._relations: Dict[str, Relation] = {}
        self._subscribers: List[Subscriber] = []
        self._txn: Optional[Transaction] = None
        self.threadsafe = bool(threadsafe)
        # nullcontext() is reusable and reentrant, so the unlocked
        # default costs one no-op __enter__/__exit__ per mutation.
        self._mutation_lock: Any = (
            threading.RLock() if threadsafe else nullcontext()
        )

    # -- catalog --------------------------------------------------------

    def create_relation(
        self,
        name: str,
        attributes: Iterable[AttributeSpec],
    ) -> Relation:
        """Create and register a relation; returns it.

        ``attributes`` accepts the same specs as
        :class:`~repro.db.schema.Schema`: names, ``(name, Domain)``
        pairs, or :class:`~repro.db.schema.Attribute` objects.
        """
        if name in self._relations:
            raise SchemaError(f"relation {name!r} already exists")
        relation = Relation(Schema(name, attributes), self.threadsafe)
        self._relations[name] = relation
        return relation

    def drop_relation(self, name: str) -> None:
        """Remove a relation and all its tuples from the catalog."""
        if name not in self._relations:
            raise UnknownRelationError(name)
        del self._relations[name]

    def relation(self, name: str) -> Relation:
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def relations(self) -> List[str]:
        """Names of all relations, in creation order."""
        return list(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    # -- event bus ---------------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> Callable[[], None]:
        """Register an event callback; returns an unsubscribe function."""
        self._subscribers.append(subscriber)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

        return unsubscribe

    def _notify(self, event: Event) -> None:
        for subscriber in list(self._subscribers):
            subscriber(event)

    # -- transactions ------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """Whether a transactional mutation context is currently open."""
        return self._txn is not None

    @property
    def current_transaction(self) -> Optional[Transaction]:
        """The open :class:`Transaction`, if any."""
        return self._txn

    def transaction(self) -> _TransactionScope:
        """All-or-nothing scope for a group of mutations.

        Every mutation inside the ``with`` block — including cascades
        fired by rule actions reacting to those mutations — is
        journaled; if the block raises, the whole journal is undone in
        LIFO order (firing compensating events to subscribers) and the
        exception propagates.  On normal exit the journal is discarded
        and the transaction commits.

        Nesting is savepoint-based: a ``transaction()`` opened while
        one is already active yields the *same* transaction, and a
        failure inside the inner block rolls back only the operations
        the inner block performed.

        Note that a subscriber veto (:class:`AbortMutation`) on one
        mutation still only undoes that mutation; the transaction stays
        open, and the caller may catch the veto inside the block and
        continue.

        With ``threadsafe=True`` the mutation lock is held for the
        whole scope: transactions from different threads serialise
        rather than interleave their journals (the reentrant lock still
        admits same-thread nesting and rule-action cascades).
        """
        return _TransactionScope(self)

    # -- mutations ------------------------------------------------------------

    def insert(self, relation_name: str, values: Mapping[str, Any]) -> int:
        """Insert a tuple; fires an InsertEvent; returns the new tid.

        If a subscriber raises :class:`AbortMutation` the tuple is
        removed again — announcing the removal with a compensating
        DeleteEvent — and the exception propagates.
        """
        with self._mutation_lock:
            return self._insert(relation_name, values)

    def _insert(self, relation_name: str, values: Mapping[str, Any]) -> int:
        relation = self.relation(relation_name)
        txn = self._txn
        if txn is not None:
            sp = txn.savepoint()
            tid, tup = relation.insert(values)
            txn._record(("insert", relation, relation_name, tid))
            try:
                self._notify(InsertEvent(relation_name, tid, dict(tup)))
            except AbortMutation:
                txn.rollback_to(sp)
                raise
            return tid
        tid, tup = relation.insert(values)
        try:
            self._notify(InsertEvent(relation_name, tid, dict(tup)))
        except AbortMutation:
            old = relation.delete(tid)
            self._notify_compensating(DeleteEvent(relation_name, tid, dict(old)))
            raise
        return tid

    def update(
        self, relation_name: str, tid: int, changes: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """Update a tuple; fires an UpdateEvent; returns the new image."""
        with self._mutation_lock:
            return self._update(relation_name, tid, changes)

    def _update(
        self, relation_name: str, tid: int, changes: Mapping[str, Any]
    ) -> Dict[str, Any]:
        relation = self.relation(relation_name)
        txn = self._txn
        if txn is not None:
            sp = txn.savepoint()
            old, new = relation.update(tid, changes)
            txn._record(("update", relation, relation_name, tid, old, new))
            try:
                self._notify(UpdateEvent(relation_name, tid, dict(old), dict(new)))
            except AbortMutation:
                txn.rollback_to(sp)
                raise
            return dict(new)
        old, new = relation.update(tid, changes)
        try:
            self._notify(UpdateEvent(relation_name, tid, dict(old), dict(new)))
        except AbortMutation:
            relation.revert_update(tid, old)
            self._notify_compensating(
                UpdateEvent(relation_name, tid, dict(new), dict(old))
            )
            raise
        return dict(new)

    def delete(self, relation_name: str, tid: int) -> Dict[str, Any]:
        """Delete a tuple; fires a DeleteEvent; returns its final image."""
        with self._mutation_lock:
            return self._delete(relation_name, tid)

    def _delete(self, relation_name: str, tid: int) -> Dict[str, Any]:
        relation = self.relation(relation_name)
        txn = self._txn
        if txn is not None:
            sp = txn.savepoint()
            old = relation.delete(tid)
            txn._record(("delete", relation, relation_name, tid, old))
            try:
                self._notify(DeleteEvent(relation_name, tid, dict(old)))
            except AbortMutation:
                txn.rollback_to(sp)
                raise
            return dict(old)
        old = relation.delete(tid)
        try:
            self._notify(DeleteEvent(relation_name, tid, dict(old)))
        except AbortMutation:
            relation.restore(tid, old)
            self._notify_compensating(InsertEvent(relation_name, tid, dict(old)))
            raise
        return dict(old)

    def _notify_compensating(self, event: Event) -> None:
        """Deliver a rollback notification; vetoes are meaningless here."""
        try:
            self._notify(as_compensating(event))
        except AbortMutation:
            pass

    # -- convenience ------------------------------------------------------------

    def insert_many(
        self, relation_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> List[int]:
        """Insert several tuples; returns their tids.

        Fires one event per row (each row can be vetoed independently).
        For one batched notification — and one batched rule-matching
        pass — use :meth:`bulk_insert`.
        """
        return [self.insert(relation_name, row) for row in rows]

    def bulk_insert(
        self, relation_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> List[int]:
        """Insert a batch of tuples as **one** event; returns their tids.

        All rows are stored first, then a single
        :class:`~repro.db.events.BatchEvent` carrying one
        ``InsertEvent`` per row is delivered, letting the rule engine
        match the whole batch in one :meth:`PredicateIndex.match_batch`
        pass.  All-or-nothing: the batch runs in a
        :meth:`transaction`, so a validation error or a subscriber veto
        (:class:`AbortMutation`) rolls back the entire batch — plus any
        cascaded mutations rule actions made in response — and fires
        compensating events for the rollback.
        """
        relation = self.relation(relation_name)
        inserted: List[Tuple[int, Dict[str, Any]]] = []
        with self.transaction() as txn:
            for row in rows:
                tid, tup = relation.insert(row)
                txn._record(("insert", relation, relation_name, tid))
                inserted.append((tid, tup))
            if inserted:
                events = tuple(
                    InsertEvent(relation_name, tid, dict(tup))
                    for tid, tup in inserted
                )
                self._notify(BatchEvent(relation_name, events))
        return [tid for tid, _ in inserted]

    def bulk_update(
        self, relation_name: str, changes: Mapping[int, Mapping[str, Any]]
    ) -> Dict[int, Dict[str, Any]]:
        """Update a batch of tuples as **one** event; returns new images.

        ``changes`` maps tid -> attribute changes.  Like
        :meth:`bulk_insert`, the batch is applied first and announced
        with a single :class:`~repro.db.events.BatchEvent` (one
        ``UpdateEvent`` per tuple), all inside a :meth:`transaction`:
        a missing tuple, a validation failure, or a subscriber veto
        rolls the whole batch (and any rule-action cascades) back and
        announces the rollback with compensating events.
        """
        relation = self.relation(relation_name)
        applied: List[Tuple[int, Dict[str, Any], Dict[str, Any]]] = []
        with self.transaction() as txn:
            for tid, change in changes.items():
                old, new = relation.update(tid, change)
                txn._record(("update", relation, relation_name, tid, old, new))
                applied.append((tid, old, new))
            if applied:
                events = tuple(
                    UpdateEvent(relation_name, tid, dict(old), dict(new))
                    for tid, old, new in applied
                )
                self._notify(BatchEvent(relation_name, events))
        return {tid: dict(new) for tid, _, new in applied}

    def select(
        self,
        relation_name: str,
        condition: Optional[str] = None,
        functions: Optional[Mapping[str, Callable[[Any], bool]]] = None,
    ) -> List[Dict[str, Any]]:
        """Scan a relation, optionally filtered by a condition string.

        This is a convenience for examples and tests, not a query
        engine: the condition is compiled with
        :func:`repro.lang.compile_condition` and evaluated per tuple.
        """
        relation = self.relation(relation_name)
        if condition is None:
            return [dict(tup) for _, tup in relation.scan()]
        from ..lang import compile_condition

        compiled = compile_condition(relation_name, condition, functions)
        return [dict(tup) for _, tup in relation.scan() if compiled.matches(tup)]

    def count(self, relation_name: str) -> int:
        """Number of tuples currently in the relation."""
        return len(self.relation(relation_name))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}({len(rel)})" for name, rel in self._relations.items()
        )
        return f"<Database {parts or '(empty)'}>"
