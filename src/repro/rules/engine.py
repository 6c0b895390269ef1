"""The forward-chaining rule engine (trigger subsystem).

:class:`RuleEngine` subscribes to a
:class:`~repro.db.database.Database`'s mutation events and, for every
inserted or modified tuple, finds the matching rules through a
pluggable *predicate matcher* — by default the paper's two-level
IBS-tree index, optionally any of the Section 2 baselines — and fires
their actions in conflict-resolution order.

Firing modes:

``immediate`` (default)
    Rules fire synchronously inside the mutation call, and their
    actions' own mutations cascade until a fixpoint.  Integrity rules
    may veto the outermost mutation with
    :class:`~repro.rules.actions.AbortAction`.

``deferred``
    Matches accumulate on the agenda; nothing fires until
    :meth:`RuleEngine.run` is called (set-oriented batch processing).

Example::

    db = Database()
    db.create_relation("emp", ["name", "age", "salary", "dept"])
    engine = RuleEngine(db)
    engine.create_rule(
        "well_paid",
        on="emp",
        condition="20000 <= salary <= 30000",
        action=lambda ctx: print("matched", ctx.tuple["name"]),
    )
    db.insert("emp", {"name": "Lee", "age": 41, "salary": 25000,
                      "dept": "Shoe"})     # prints: matched Lee
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Union,
)

from ..baselines.base import PredicateMatcher
from ..core.selectivity import StatisticsEstimator
from ..db.database import AbortMutation, Database
from ..db.events import BatchEvent, Event
from ..errors import (
    ActionQuarantinedError,
    DuplicateRuleError,
    RegistryError,
    RuleCycleError,
    RuleError,
    UnknownRuleError,
)
from ..match.registry import DEFAULT_REGISTRY
from ..lang.compiler import compile_condition
from ..testing.faults import fault_point
from .agenda import Agenda, DeadLetterQueue
from .failures import ActionFailure, RetryPolicy
from .rule import Rule, RuleContext

__all__ = ["RuleEngine", "MATCHER_STRATEGIES"]

#: Named matcher strategies accepted by ``RuleEngine(matcher=...)`` —
#: every matcher registered in the
#: :data:`~repro.match.registry.DEFAULT_REGISTRY` at import time.
MATCHER_STRATEGIES = tuple(DEFAULT_REGISTRY.matchers())


class RuleEngine:
    """Forward-chaining trigger engine over a database.

    Parameters
    ----------
    db:
        The database to watch.
    matcher:
        A strategy name from :data:`MATCHER_STRATEGIES` or a ready
        :class:`~repro.baselines.base.PredicateMatcher` instance.
        ``None`` (the default) uses the database's
        ``Database(matcher=...)`` default when one was configured,
        falling back to ``"ibs"`` — the paper's algorithm with
        data-driven selectivity estimates.  Strategy names resolve
        through the :data:`~repro.match.registry.DEFAULT_REGISTRY`.
    functions:
        Opaque boolean functions available to rule conditions, by name.
    mode:
        ``"immediate"`` or ``"deferred"`` (see module docstring).
    max_firings:
        Cascade limit before :class:`~repro.errors.RuleCycleError`.
    retry_policy:
        How failing actions are retried before quarantine; defaults to
        :class:`~repro.rules.failures.RetryPolicy` (no retries, poison
        after 3 consecutive quarantines).
    on_error:
        ``"quarantine"`` (default): a rule action that raises is
        retried per the policy, then recorded on the dead-letter queue
        (see :meth:`failures`) while the drain continues — one bad rule
        cannot abort the agenda.  Each action runs in a nested database
        transaction, so a failed action's own mutations are rolled back
        before quarantine.  ``"propagate"``: legacy behaviour — the
        exception aborts the drain and reaches the mutating caller
        (the action's mutations are still rolled back).
        :class:`~repro.db.database.AbortMutation` and
        :class:`~repro.errors.RuleCycleError` always propagate; they
        are control flow, not failures.
    dead_letter_capacity:
        Bound on retained failures; beyond it the oldest are dropped.
    """

    def __init__(
        self,
        db: Database,
        matcher: Optional[Union[str, PredicateMatcher]] = None,
        functions: Optional[Mapping[str, Callable[[Any], bool]]] = None,
        mode: str = "immediate",
        max_firings: int = 10_000,
        retry_policy: Optional[RetryPolicy] = None,
        on_error: str = "quarantine",
        dead_letter_capacity: int = 1000,
    ):
        if mode not in ("immediate", "deferred"):
            raise RuleError(f"unknown firing mode {mode!r}")
        if on_error not in ("quarantine", "propagate"):
            raise RuleError(f"unknown on_error policy {on_error!r}")
        self.db = db
        self.mode = mode
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.on_error = on_error
        self.dead_letters = DeadLetterQueue(dead_letter_capacity)
        self._failure_seq = 0
        self._failure_streaks: Dict[str, int] = {}
        self.functions: Dict[str, Callable[[Any], bool]] = dict(functions or {})
        if matcher is None:
            matcher = getattr(db, "default_matcher", None)
            if matcher is None:
                matcher = "ibs"
        self.matcher = self._build_matcher(matcher)
        self.agenda = Agenda(max_firings=max_firings)
        self._rules: Dict[str, Rule] = {}
        self._rule_of_ident: Dict[Hashable, Rule] = {}
        self._idents_of_rule: Dict[str, List[Hashable]] = {}
        self._draining = False
        #: optional tracer called with (rule, context) as each rule fires
        self.on_fire: Optional[Callable[[Any, RuleContext], Any]] = None
        from .join_layer import JoinLayer

        self.joins = JoinLayer(self)
        self._monitors: Dict[str, Any] = {}
        self._unsubscribe = db.subscribe(self._on_event)

    def _build_matcher(self, matcher: Union[str, PredicateMatcher]) -> PredicateMatcher:
        options: Dict[str, Any] = {"estimator": StatisticsEstimator(self.db)}
        # A database-level maintenance policy rides along to every
        # matcher built for it; builders that have no maintenance plane
        # (the sequential baselines) simply drop the option.
        maintenance = getattr(self.db, "default_maintenance", None)
        if maintenance is not None:
            options["maintenance"] = maintenance
        try:
            return DEFAULT_REGISTRY.create_matcher(matcher, **options)
        except RegistryError:
            raise RuleError(
                f"unknown matcher strategy {matcher!r}; "
                f"choose one of {', '.join(DEFAULT_REGISTRY.matchers())}"
            ) from None

    # -- rule management -------------------------------------------------

    def create_rule(
        self,
        name: str,
        on: str,
        condition: Optional[str],
        action: Callable[[RuleContext], Any],
        priority: int = 0,
        on_events: Optional[Iterable[str]] = None,
        when_old: Optional[str] = None,
    ) -> Rule:
        """Compile and register a trigger; returns the Rule.

        ``condition`` of None (or ``"true"``) matches every tuple of the
        relation.  A condition that can never match (e.g.
        ``"age > 9 and age < 3"``) is rejected, since the rule would be
        dead weight in the index.

        ``when_old`` turns the rule into an Ariel-style *transition*
        rule: it fires only on updates whose **pre-update** image
        matched ``when_old`` and whose new image matches ``condition``
        — e.g. ``condition="salary > 30000",
        when_old="salary <= 30000"`` fires exactly when a salary
        crosses the threshold upward.  Transition rules default to
        update events only.
        """
        if name in self._rules:
            raise DuplicateRuleError(name)
        self.db.relation(on)  # validates the relation exists
        source = condition if condition is not None else "true"
        compiled = compile_condition(on, source, self.functions)
        group = compiled.group
        if group.is_empty:
            raise RuleError(
                f"rule {name!r} condition {source!r} can never match any tuple"
            )
        old_group = None
        if when_old is not None:
            old_compiled = compile_condition(on, when_old, self.functions)
            old_group = old_compiled.group
            if old_group.is_empty:
                raise RuleError(
                    f"rule {name!r} old-condition {when_old!r} can never match"
                )
            if on_events is None:
                on_events = ("update",)
        events = frozenset(on_events) if on_events is not None else None
        rule = Rule(
            name,
            on,
            group,
            action,
            priority=priority,
            on_events=events,
            source=source,
            old_group=old_group,
            old_source=when_old,
        )
        idents: List[Hashable] = []
        try:
            for predicate in group:
                self.matcher.add(predicate)
                idents.append(predicate.ident)
        except Exception:
            for ident in idents:
                self.matcher.remove(ident)
            raise
        for ident in idents:
            self._rule_of_ident[ident] = rule
        self._idents_of_rule[name] = idents
        self._rules[name] = rule
        return rule

    def drop_rule(self, name: str) -> None:
        """Unregister a rule and all its predicates."""
        try:
            del self._rules[name]
        except KeyError:
            raise UnknownRuleError(name) from None
        for ident in self._idents_of_rule.pop(name):
            self.matcher.remove(ident)
            del self._rule_of_ident[ident]

    def rule(self, name: str) -> Rule:
        """Look up a rule by name."""
        try:
            return self._rules[name]
        except KeyError:
            raise UnknownRuleError(name) from None

    def rules(self) -> List[Rule]:
        """All registered rules, in creation order."""
        return list(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def close(self) -> None:
        """Detach from the database's event bus.

        Also calls the matcher's ``close``, if it has one, so a
        user-registered matcher can release what it holds; the built-in
        matchers have none.
        """
        self._unsubscribe()
        closer = getattr(self.matcher, "close", None)
        if closer is not None:
            closer()

    # -- matching and firing -------------------------------------------------

    def match_tuple(self, relation: str, tup: Mapping[str, Any]) -> List[Rule]:
        """The rules whose condition matches *tup* (no firing).

        A rule matches if any of its disjunct predicates matches; each
        rule is reported once.
        """
        matched: List[Rule] = []
        seen: Set[str] = set()
        for predicate in self.matcher.match(relation, tup):
            rule = self._rule_of_ident.get(predicate.ident)
            if rule is not None and rule.name not in seen:
                seen.add(rule.name)
                matched.append(rule)
        return matched

    def create_join_rule(
        self,
        name: str,
        left: str,
        right: str,
        condition: str,
        action: Callable[[RuleContext], Any],
        priority: int = 0,
    ):
        """Register a two-relation rule (see :mod:`repro.rules.join_layer`).

        The condition must qualify every attribute with its relation
        (``"emp.dept = dept.name and emp.salary > 50000"``); the
        single-relation parts enter the selection index and the
        inter-relation comparisons are tested TREAT-style against alpha
        memories.
        """
        return self.joins.create_rule(name, left, right, condition, action, priority)

    def drop_join_rule(self, name: str) -> None:
        """Unregister a join rule."""
        self.joins.drop_rule(name)

    def explain(self, relation: str, tup: Mapping[str, Any]) -> List[Dict[str, Any]]:
        """Explain how *tup* would match: one record per rule of *relation*.

        Each record reports whether the rule's condition matches and,
        when it does, the disjunct predicate(s) it matched through —
        handy when debugging why a trigger did or did not fire::

            >>> engine.explain("emp", {"age": 60, "salary": 1000})
            [{'rule': 'senior_low_pay', 'matched': True,
              'via': ['emp: salary < 20000 and age > 50'], ...}]
        """
        matched_idents = {
            pred.ident for pred in self.matcher.match(relation, tup)
        }
        report: List[Dict[str, Any]] = []
        for rule in self._rules.values():
            if rule.relation != relation:
                continue
            via = [
                str(predicate)
                for predicate in rule.group
                if predicate.ident in matched_idents
            ]
            report.append(
                {
                    "rule": rule.name,
                    "matched": bool(via),
                    "via": via,
                    "enabled": rule.enabled,
                    "events": sorted(rule.on_events),
                    "condition": rule.source,
                }
            )
        return report

    def monitor(self, name: str, on: str, condition: Optional[str] = None):
        """Create a live view of *on* tuples satisfying *condition*.

        Returns a :class:`~repro.rules.monitor.Monitor` that tracks the
        matching tuple set continuously (seeded from current contents)
        and offers edge-triggered ``on_enter`` / ``on_leave`` hooks.
        """
        from .monitor import Monitor

        if name in self._monitors:
            raise DuplicateRuleError(name)
        self.db.relation(on)
        compiled = compile_condition(on, condition or "true", self.functions)
        live = Monitor(self, name, on, compiled)
        self._monitors[name] = live
        return live

    def _drop_monitor(self, live) -> None:
        self._monitors.pop(live.name, None)

    def monitors(self) -> List[Any]:
        """The currently active monitors."""
        return list(self._monitors.values())

    def _on_event(self, event: Event) -> None:
        if isinstance(event, BatchEvent):
            self._on_batch(event)
            return
        for live in list(self._monitors.values()):
            live._handle(event)
        image = event.tuple
        if image is None:
            return
        matched_predicates = self.matcher.match(event.relation, image)
        matched_idents = {pred.ident for pred in matched_predicates}
        if event.compensating:
            # A rollback notification: bring derived state (join alpha
            # memories; monitors already handled above) back in line
            # with the restored relation contents, but fire no rules —
            # the mutation being compensated officially never happened.
            self.joins.process(event, matched_idents, post=False)
            return
        posted = False
        old = getattr(event, "old", None)
        seen: Set[str] = set()
        for predicate in matched_predicates:
            rule = self._rule_of_ident.get(predicate.ident)
            if rule is None or rule.name in seen or not rule.reacts_to(event):
                continue
            seen.add(rule.name)
            context = RuleContext(self.db, self, rule, event, dict(image), old)
            self.agenda.post(rule, context)
            posted = True
        if self.joins.process(event, matched_idents):
            posted = True
        if posted and self.mode == "immediate":
            self._drain()

    def _on_batch(self, batch: BatchEvent) -> None:
        """Consume a bulk mutation: one matching pass, one agenda drain.

        Monitors and the join layer still see the per-tuple sub-events
        (their semantics are inherently per tuple), but predicate
        matching runs once over the whole batch through the matcher's
        :meth:`~repro.baselines.base.PredicateMatcher.match_batch`, and
        in immediate mode the agenda is drained once after the entire
        batch is posted — the set-oriented processing the bulk APIs
        exist for.
        """
        events = batch.events
        for live in list(self._monitors.values()):
            for event in events:
                live._handle(event)
        images = [event.tuple for event in events]
        matched_lists = self.matcher.match_batch(batch.relation, images)
        posted = False
        for event, image, matched_predicates in zip(events, images, matched_lists):
            matched_idents = {pred.ident for pred in matched_predicates}
            old = getattr(event, "old", None)
            seen: Set[str] = set()
            for predicate in matched_predicates:
                rule = self._rule_of_ident.get(predicate.ident)
                if rule is None or rule.name in seen or not rule.reacts_to(event):
                    continue
                seen.add(rule.name)
                context = RuleContext(self.db, self, rule, event, dict(image), old)
                self.agenda.post(rule, context)
                posted = True
            if self.joins.process(event, matched_idents):
                posted = True
        if posted and self.mode == "immediate":
            self._drain()

    def _drain(self) -> int:
        """Fire until the agenda is empty; returns the number fired.

        Reentrancy-safe: rule actions whose mutations re-enter
        ``_on_event`` merely post to the agenda, and the outer drain
        loop picks the new instantiations up.  Each top-level drain
        gets a fresh firing budget.

        Each firing is *isolated*: the action runs inside a nested
        database transaction and, under the default
        ``on_error="quarantine"`` policy, an action that raises is
        retried per :attr:`retry_policy` and then quarantined onto
        :attr:`dead_letters` — its mutations rolled back, the drain
        continuing with the next instantiation.
        """
        if self._draining:
            return 0
        self._draining = True
        self.agenda.reset_counter()
        try:
            for rule, context in self.agenda.drain():
                rule.fire_count += 1
                if self.on_fire is not None:
                    self.on_fire(rule, context)
                self._fire_isolated(rule, context)
        finally:
            self._draining = False
        return self.agenda.total_fired

    def _fire_isolated(self, rule: Any, context: RuleContext) -> None:
        """Run one action: transactional, retried, quarantined on failure."""
        policy = self.retry_policy
        attempt = 0
        while True:
            attempt += 1
            try:
                with self.db.transaction():
                    fault_point("engine.action")
                    rule.action(context)
            except (AbortMutation, RuleCycleError, RuleError):
                # control flow (vetoes, firing limit) and rule-system
                # misconfiguration are not action failures: propagate
                raise
            except Exception as exc:
                if self.on_error == "propagate":
                    raise
                if attempt < policy.max_attempts:
                    delay = policy.delay(attempt + 1)
                    if delay > 0:
                        policy.sleep(delay)
                    continue
                self._quarantine(rule, context, exc, attempt)
                return
            else:
                self._failure_streaks.pop(rule.name, None)
                return

    def _quarantine(
        self, rule: Any, context: RuleContext, error: BaseException, attempts: int
    ) -> None:
        self._failure_seq += 1
        streak = self._failure_streaks.get(rule.name, 0) + 1
        self._failure_streaks[rule.name] = streak
        poisoned = streak >= self.retry_policy.poison_threshold
        if poisoned:
            # poison pill: this rule keeps failing; stop feeding it the
            # agenda so it cannot starve everyone else
            rule.enabled = False
        self.dead_letters.add(
            ActionFailure(
                seq=self._failure_seq,
                rule_name=rule.name,
                context=context,
                error=error,
                attempts=attempts,
                poisoned=poisoned,
            )
        )

    # -- failure inspection and recovery ---------------------------------

    def failures(self) -> List[ActionFailure]:
        """Quarantined firings, oldest first (see :class:`ActionFailure`)."""
        return list(self.dead_letters)

    def clear_failures(self) -> None:
        """Forget all quarantined firings (keeps rules' enabled state)."""
        self.dead_letters.clear()
        self._failure_streaks.clear()

    def requeue_failures(self, strict: bool = False) -> int:
        """Re-fire quarantined instantiations; returns how many were queued.

        Failures whose rule is still disabled (poisoned) stay on the
        dead-letter queue — re-enable the rule first.  Requeued rules
        get a fresh poison budget.  In immediate mode the agenda drains
        right away; with ``strict=True`` a firing that fails *again*
        raises :class:`~repro.errors.ActionQuarantinedError` instead of
        being silently re-quarantined.
        """
        entries = self.dead_letters.drain_entries()
        requeued = 0
        for failure in entries:
            rule = self._rules.get(failure.rule_name) or self.joins._rules.get(
                failure.rule_name
            )
            if rule is None or not rule.enabled:
                self.dead_letters.add(failure)
                continue
            self._failure_streaks.pop(failure.rule_name, None)
            self.agenda.post(rule, failure.context)
            requeued += 1
        before = self.dead_letters.total_quarantined
        if requeued and self.mode == "immediate":
            self._drain()
            if strict and self.dead_letters.total_quarantined > before:
                refailed = self.failures()[-1]
                raise ActionQuarantinedError(refailed.describe()) from refailed.error
        return requeued

    def run(self) -> int:
        """Deferred mode: fire everything on the agenda; returns the count."""
        return self._drain()

    def __repr__(self) -> str:
        return (
            f"<RuleEngine {len(self._rules)} rules, "
            f"matcher={getattr(self.matcher, 'name', type(self.matcher).__name__)}, "
            f"mode={self.mode}>"
        )
