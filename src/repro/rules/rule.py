"""Rule and rule-context objects.

A rule in this system is a trigger of the paper's form::

    if condition then action

where the condition is a single-relation selection (compiled into a
:class:`~repro.predicates.PredicateGroup`) and the action is a Python
callable or a declarative action from :mod:`repro.rules.actions`.
Join rules — two-relation conditions — are handled by the extension in
:mod:`repro.rules.join_layer`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Optional

from ..db.events import Event
from ..errors import RuleError
from ..predicates.predicate import PredicateGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.database import Database
    from .engine import RuleEngine

__all__ = ["Rule", "RuleContext", "VALID_EVENT_KINDS"]

VALID_EVENT_KINDS: FrozenSet[str] = frozenset({"insert", "update", "delete"})


class RuleContext:
    """Everything an action needs: the event, the tuple, and handles.

    Attributes
    ----------
    db / engine / rule:
        The database, the engine that fired the rule, and the rule.
    event:
        The triggering :class:`~repro.db.events.Event`.
    tuple:
        The tuple image the condition matched (the new image for
        inserts/updates, the old image for deletes).
    old:
        The pre-update image (None for inserts).
    bindings:
        For join rules, the matched tuple of each relation, by
        relation name; empty for selection rules.

    ``tuple`` and each image in ``bindings`` are the action's own
    copies, made on first read from the image the event matched,
    which the program never mutates; a firing that reads neither
    copies nothing.  An action may edit its copies, or assign
    ``tuple``, without touching the stored tuple or a join's memory.
    """

    __slots__ = (
        "db",
        "engine",
        "rule",
        "event",
        "old",
        "_image",
        "_tuple",
        "_bound",
        "_bindings",
    )

    def __init__(
        self,
        db: "Database",
        engine: "RuleEngine",
        rule: "Rule",
        event: Event,
        matched_tuple: Dict[str, Any],
        old: Optional[Dict[str, Any]] = None,
        bindings: Optional[Dict[str, Dict[str, Any]]] = None,
    ):
        self.db = db
        self.engine = engine
        self.rule = rule
        self.event = event
        self.old = old
        #: the matched and bound images, shared and never written
        self._image = matched_tuple
        self._bound = bindings
        #: the action's copies, made on first read
        self._tuple: Optional[Dict[str, Any]] = None
        self._bindings: Optional[Dict[str, Dict[str, Any]]] = None

    @property
    def tuple(self) -> Dict[str, Any]:
        tup = self._tuple
        if tup is None:
            tup = self._tuple = dict(self._image)
        return tup

    @tuple.setter
    def tuple(self, value: Dict[str, Any]) -> None:
        self._tuple = value

    @property
    def bindings(self) -> Dict[str, Dict[str, Any]]:
        bound = self._bindings
        if bound is None:
            images = self._bound or {}
            bound = self._bindings = {
                name: dict(image) for name, image in images.items()
            }
        return bound

    @bindings.setter
    def bindings(self, value: Dict[str, Dict[str, Any]]) -> None:
        self._bindings = value

    @property
    def tid(self) -> int:
        """Tuple identifier of the triggering tuple."""
        return self.event.tid

    @property
    def relation(self) -> str:
        """Relation of the triggering tuple."""
        return self.event.relation

    def __repr__(self) -> str:
        return (
            f"<RuleContext rule={self.rule.name!r} {self.event.kind} "
            f"{self.relation}#{self.tid}>"
        )


class Rule:
    """A compiled trigger: name, condition group, action, priority.

    Rules are created through :meth:`repro.rules.RuleEngine.create_rule`
    rather than directly, so that their predicates are registered with
    the engine's matcher.
    """

    __slots__ = (
        "name",
        "relation",
        "group",
        "old_group",
        "action",
        "priority",
        "on_events",
        "enabled",
        "source",
        "old_source",
        "fire_count",
    )

    def __init__(
        self,
        name: str,
        relation: str,
        group: PredicateGroup,
        action: Callable[[RuleContext], Any],
        priority: int = 0,
        on_events: Optional[FrozenSet[str]] = None,
        source: Optional[str] = None,
        old_group: Optional[PredicateGroup] = None,
        old_source: Optional[str] = None,
    ):
        if not callable(action):
            raise RuleError(f"rule {name!r} action must be callable")
        events = frozenset(on_events) if on_events is not None else frozenset(
            {"insert", "update"}
        )
        bad = events - VALID_EVENT_KINDS
        if bad:
            raise RuleError(f"rule {name!r} has unknown event kinds {sorted(bad)}")
        if not events:
            raise RuleError(f"rule {name!r} must subscribe to at least one event kind")
        self.name = name
        self.relation = relation
        self.group = group
        self.old_group = old_group
        self.action = action
        self.priority = priority
        self.on_events = events
        self.enabled = True
        self.source = source
        self.old_source = old_source
        self.fire_count = 0

    @property
    def is_transition(self) -> bool:
        """True if this rule also constrains the *pre-update* image.

        Transition rules (Ariel-style ``when_old``) fire only when a
        tuple crosses from the old condition into the new one — e.g.
        "salary was <= 30000 and is now > 30000".
        """
        return self.old_group is not None

    def reacts_to(self, event: Event) -> bool:
        """True if this rule listens for the event's kind (and is enabled).

        A transition rule additionally requires the event's ``old``
        image to match its old-condition.  An update carries the
        pre-update image there; a delete carries the tuple's final
        image, which must then satisfy both conditions; an insert has
        no old image, so a transition rule never fires on one.
        """
        if not (self.enabled and event.kind in self.on_events):
            return False
        if self.old_group is None:
            return True
        old = getattr(event, "old", None)
        return old is not None and self.old_group.matches(old)

    def __repr__(self) -> str:
        return (
            f"<Rule {self.name!r} on {self.relation} "
            f"({'/'.join(sorted(self.on_events))}) priority={self.priority}>"
        )
