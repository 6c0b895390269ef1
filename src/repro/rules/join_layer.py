"""Two-layer discrimination network: selection layer + join layer.

The paper's Section 6: "the discrimination network described in this
paper will be used as the first layer of a two-layer network which will
test both the selection and the join conditions of rules.  This
two-layer approach is being implemented in the rule processing engine
of the Ariel database system."

This module implements that second layer for **two-relation rules**, in
the TREAT style [Mir87]: no intermediate beta memories, just one *alpha
memory* per rule side holding the tuples that pass the side's selection
condition, probed on each event.

How a join rule is processed:

1. the condition is split into three parts: selection clauses on the
   left relation, selection clauses on the right relation, and *join
   clauses* (comparisons between attributes of the two relations);
2. each side's selection part compiles into ordinary predicates that
   enter the engine's matcher — the IBS-tree index is literally the
   first layer;
3. when a tuple event passes a side's selection, the side's alpha
   memory is updated, and the other side's memory is probed for join
   partners: by hash on the equi-join key when at least one join
   clause is an equality, by scan otherwise;
4. the rule fires once per new joined pair, with both tuples available
   to the action through ``ctx.bindings``.

Self-joins are not supported (the two sides must name distinct
relations); conditions must be a conjunction at the top level (no
``or`` spanning both relations).
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..db.events import Event
from ..errors import ParseError, RuleError
from ..lang.ast_nodes import AndNode, ComparisonNode, LiteralNode, Node
from ..lang.compiler import compile_ast
from ..lang.parser import parse_condition
from ..predicates.predicate import Predicate
from .rule import Rule, RuleContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import RuleEngine

__all__ = ["JoinRule", "JoinClause", "JoinLayer"]

_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_MIRRORED_OP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class JoinClause:
    """One inter-relation comparison: ``left.attr op right.attr``."""

    __slots__ = ("left_attr", "op", "right_attr")

    def __init__(self, left_attr: str, op: str, right_attr: str):
        if op not in _COMPARATORS:
            raise RuleError(f"unsupported join operator {op!r}")
        self.left_attr = left_attr
        self.op = op
        self.right_attr = right_attr

    @property
    def is_equi(self) -> bool:
        return self.op == "="

    def test(self, left_tup: Mapping[str, Any], right_tup: Mapping[str, Any]) -> bool:
        left = left_tup.get(self.left_attr)
        right = right_tup.get(self.right_attr)
        if left is None or right is None:
            return False
        return _COMPARATORS[self.op](left, right)

    def __str__(self) -> str:
        return f"left.{self.left_attr} {self.op} right.{self.right_attr}"


class JoinRule:
    """A compiled two-relation rule."""

    __slots__ = (
        "name",
        "left",
        "right",
        "join_clauses",
        "action",
        "priority",
        "enabled",
        "source",
        "fire_count",
        "left_memory",
        "right_memory",
        "left_hash",
        "right_hash",
        "equi_clauses",
    )

    def __init__(
        self,
        name: str,
        left: str,
        right: str,
        join_clauses: List[JoinClause],
        action: Callable[[RuleContext], Any],
        priority: int = 0,
        source: Optional[str] = None,
    ):
        if not callable(action):
            raise RuleError(f"join rule {name!r} action must be callable")
        self.name = name
        self.left = left
        self.right = right
        self.join_clauses = join_clauses
        self.equi_clauses = [c for c in join_clauses if c.is_equi]
        self.action = action
        self.priority = priority
        self.enabled = True
        self.source = source
        self.fire_count = 0
        #: alpha memories: tid -> tuple image passing the side's selection
        self.left_memory: Dict[int, Dict[str, Any]] = {}
        self.right_memory: Dict[int, Dict[str, Any]] = {}
        #: equi-join hash indexes: join key -> set of tids
        self.left_hash: Dict[Tuple, Set[int]] = {}
        self.right_hash: Dict[Tuple, Set[int]] = {}

    # -- alpha memory maintenance ----------------------------------------

    def _key(self, tup: Mapping[str, Any], side: str) -> Optional[Tuple]:
        """The equi-join key of a tuple, or None if any part is NULL."""
        values = []
        for clause in self.equi_clauses:
            attr = clause.left_attr if side == "left" else clause.right_attr
            value = tup.get(attr)
            if value is None:
                return None
            values.append(value)
        return tuple(values)

    def remember(self, side: str, tid: int, tup: Dict[str, Any]) -> None:
        """Install a tuple in the side's alpha memory."""
        memory = self.left_memory if side == "left" else self.right_memory
        hash_index = self.left_hash if side == "left" else self.right_hash
        memory[tid] = tup
        if self.equi_clauses:
            key = self._key(tup, side)
            if key is not None:
                hash_index.setdefault(key, set()).add(tid)

    def forget(self, side: str, tid: int) -> None:
        """Remove a tuple from the side's alpha memory (if present)."""
        memory = self.left_memory if side == "left" else self.right_memory
        hash_index = self.left_hash if side == "left" else self.right_hash
        tup = memory.pop(tid, None)
        if tup is None or not self.equi_clauses:
            return
        key = self._key(tup, side)
        if key is not None:
            bucket = hash_index.get(key)
            if bucket is not None:
                bucket.discard(tid)
                if not bucket:
                    del hash_index[key]

    def partners(
        self, side: str, tup: Mapping[str, Any]
    ) -> Iterable[Tuple[int, Dict[str, Any]]]:
        """Tuples of the *other* side joining with *tup*.

        Uses the equi-join hash when available, narrowing with the
        remaining clauses; falls back to a memory scan for pure theta
        joins.
        """
        other_memory = self.right_memory if side == "left" else self.left_memory
        other_hash = self.right_hash if side == "left" else self.left_hash
        if self.equi_clauses:
            key = self._key(tup, side)
            if key is None:
                return
            candidates = other_hash.get(key, ())
            items = ((tid, other_memory[tid]) for tid in candidates)
        else:
            items = iter(other_memory.items())
        for tid, other in items:
            left_tup, right_tup = (tup, other) if side == "left" else (other, tup)
            if all(clause.test(left_tup, right_tup) for clause in self.join_clauses):
                yield tid, other

    def __repr__(self) -> str:
        return f"<JoinRule {self.name!r} {self.left} x {self.right}>"


class _SideHook:
    """One join-rule side: its selection predicates and their idents."""

    __slots__ = ("rule", "side", "idents", "predicates")

    def __init__(self, rule: JoinRule, side: str):
        self.rule = rule
        self.side = side
        self.idents: Set[Hashable] = set()
        self.predicates: List[Predicate] = []


class JoinLayer:
    """Hosts all join rules of one engine and reacts to tuple events."""

    def __init__(self, engine: "RuleEngine"):
        self._engine = engine
        self._rules: Dict[str, JoinRule] = {}
        #: relation name -> side hooks watching it
        self._watchers: Dict[str, List[_SideHook]] = {}

    def __len__(self) -> int:
        return len(self._rules)

    def rules(self) -> List[JoinRule]:
        return list(self._rules.values())

    def watches(self, relation: str) -> bool:
        """True if some join rule has a side on *relation*."""
        return bool(self._watchers.get(relation))

    def rule(self, name: str) -> JoinRule:
        try:
            return self._rules[name]
        except KeyError:
            from ..errors import UnknownRuleError

            raise UnknownRuleError(name) from None

    # -- rule creation ----------------------------------------------------

    def create_rule(
        self,
        name: str,
        left: str,
        right: str,
        condition: str,
        action: Callable[[RuleContext], Any],
        priority: int = 0,
    ) -> JoinRule:
        """Split, compile, and register a two-relation rule.

        The condition must qualify every attribute with its relation
        name (``emp.dept = dept.name and emp.salary > 50000``) and be a
        conjunction at the top level.
        """
        if name in self._rules or name in self._engine._rules:
            from ..errors import DuplicateRuleError

            raise DuplicateRuleError(name)
        if left == right:
            raise RuleError(
                f"join rule {name!r}: self-joins are not supported "
                f"(both sides are {left!r})"
            )
        self._engine.db.relation(left)
        self._engine.db.relation(right)
        selections, join_clauses = self._split(condition, left, right)
        if not join_clauses:
            raise RuleError(
                f"join rule {name!r} has no inter-relation comparison; "
                f"use create_rule() for single-relation conditions"
            )
        rule = JoinRule(
            name, left, right, join_clauses, action, priority, source=condition
        )
        hooks: List[_SideHook] = []
        registered: List[Hashable] = []
        try:
            for side, relation in (("left", left), ("right", right)):
                hook = _SideHook(rule, side)
                compiled = compile_ast(
                    relation, selections[side], self._engine.functions, source=condition
                )
                if compiled.group.is_empty:
                    raise RuleError(
                        f"join rule {name!r}: the selection on {relation!r} "
                        f"can never match"
                    )
                for predicate in compiled.group:
                    self._engine.matcher.add(predicate)
                    registered.append(predicate.ident)
                    hook.idents.add(predicate.ident)
                    hook.predicates.append(predicate)
                hooks.append(hook)
        except Exception:
            for ident in registered:
                self._engine.matcher.remove(ident)
            raise
        for hook in hooks:
            relation = rule.left if hook.side == "left" else rule.right
            self._watchers.setdefault(relation, []).append(hook)
        self._rules[name] = rule
        self._seed(rule, hooks)
        return rule

    def drop_rule(self, name: str) -> None:
        """Unregister a join rule and its selection predicates."""
        rule = self.rule(name)
        del self._rules[name]
        for relation in (rule.left, rule.right):
            watchers = self._watchers.get(relation, [])
            for hook in watchers:
                if hook.rule is rule:
                    for ident in hook.idents:
                        self._engine.matcher.remove(ident)
            self._watchers[relation] = [h for h in watchers if h.rule is not rule]

    def _split(
        self, condition: str, left: str, right: str
    ) -> Tuple[Dict[str, Node], List[JoinClause]]:
        """Partition a conjunction into per-side selections + join clauses."""
        ast = parse_condition(condition)
        conjuncts = ast.children if isinstance(ast, AndNode) else (ast,)
        left_parts: List[Node] = []
        right_parts: List[Node] = []
        join_clauses: List[JoinClause] = []
        for conjunct in conjuncts:
            owner = self._classify(conjunct, left, right)
            if owner == "join":
                join_clauses.append(self._to_join_clause(conjunct, left, right))
            elif owner == "left":
                left_parts.append(conjunct)
            elif owner == "right":
                right_parts.append(conjunct)
            else:  # constant conjunct: attach anywhere
                left_parts.append(conjunct)
        return (
            {
                "left": self._conjunction(left_parts),
                "right": self._conjunction(right_parts),
            },
            join_clauses,
        )

    @staticmethod
    def _conjunction(parts: List[Node]) -> Node:
        if not parts:
            return LiteralNode(True)
        if len(parts) == 1:
            return parts[0]
        return AndNode(tuple(parts))

    def _classify(self, node: Node, left: str, right: str) -> str:
        """Which relation(s) a conjunct references: left/right/join/const."""
        refs = {qualifier for qualifier in self._qualifiers(node)}
        unqualified = self._has_unqualified(node)
        if unqualified:
            raise ParseError(
                "join rule conditions must qualify every attribute "
                f"(e.g. {left}.attr); found unqualified reference in {node}"
            )
        unknown = refs - {left, right}
        if unknown:
            raise ParseError(
                f"condition references unknown relation(s) {sorted(unknown)}; "
                f"the rule joins {left!r} and {right!r}"
            )
        if refs == {left}:
            return "left"
        if refs == {right}:
            return "right"
        if refs == {left, right}:
            return "join"
        return "const"

    def _qualifiers(self, node: Node) -> Iterable[str]:
        for ref in self._attr_refs(node):
            if "." in ref:
                yield ref.split(".", 1)[0]

    def _has_unqualified(self, node: Node) -> bool:
        return any("." not in ref for ref in self._attr_refs(node))

    def _attr_refs(self, node: Node) -> Iterable[str]:
        from ..lang.ast_nodes import FunctionNode, NotNode, OrNode

        if isinstance(node, ComparisonNode):
            for position in node.attr_positions:
                yield node.operands[position]
        elif isinstance(node, FunctionNode):
            yield node.attribute
        elif isinstance(node, (AndNode, OrNode)):
            for child in node.children:
                yield from self._attr_refs(child)
        elif isinstance(node, NotNode):
            yield from self._attr_refs(node.child)

    def _to_join_clause(self, node: Node, left: str, right: str) -> JoinClause:
        if not isinstance(node, ComparisonNode) or len(node.operators) != 1:
            raise ParseError(
                f"inter-relation conjunct {node} must be a simple binary "
                f"comparison between one attribute of each relation"
            )
        if len(node.attr_positions) != 2:
            raise ParseError(
                f"join comparison {node} must reference exactly two attributes"
            )
        lhs, rhs = node.operands
        op = node.operators[0]
        lhs_rel, lhs_attr = lhs.split(".", 1)
        rhs_rel, rhs_attr = rhs.split(".", 1)
        if lhs_rel == left and rhs_rel == right:
            return JoinClause(lhs_attr, op, rhs_attr)
        if lhs_rel == right and rhs_rel == left:
            return JoinClause(rhs_attr, _MIRRORED_OP[op], lhs_attr)
        raise ParseError(
            f"join comparison {node} must compare {left!r} with {right!r}"
        )

    # -- runtime -------------------------------------------------------------

    def _seed(self, rule: JoinRule, hooks: List[_SideHook]) -> None:
        """Populate alpha memories from tuples already in the database.

        Rules created after data has loaded see consistent join state;
        no pairs are *fired* for pre-existing data (triggers react to
        future events), but pre-existing tuples can join with future
        ones.
        """
        for hook in hooks:
            relation_name = rule.left if hook.side == "left" else rule.right
            relation = self._engine.db.relation(relation_name)
            for tid, tup in relation.scan():
                if any(pred.matches(tup) for pred in hook.predicates):
                    rule.remember(hook.side, tid, dict(tup))

    def process(
        self, event: Event, matched_idents: Set[Hashable], post: bool = True
    ) -> int:
        """React to a tuple event; returns the number of pairs posted.

        ``matched_idents`` are the predicate identifiers the selection
        layer reported for the event's tuple image.  Joined pairs are
        posted to the engine's agenda, which fires them in
        conflict-resolution order alongside ordinary rules.

        With ``post=False`` only the alpha memories are maintained and
        nothing reaches the agenda — used for compensating (rollback)
        events, whose restored images must be remembered but must not
        trigger firings.
        """
        watchers = self._watchers.get(event.relation)
        if not watchers:
            return 0
        posted = 0
        for hook in watchers:
            posted += self._process_side(hook, event, matched_idents, post)
        return posted

    def _process_side(
        self,
        hook: _SideHook,
        event: Event,
        matched_idents: Set[Hashable],
        post: bool = True,
    ) -> int:
        rule = hook.rule
        side = hook.side
        if not rule.enabled:
            return 0
        tid = event.tid
        if event.kind == "delete" or not (hook.idents & matched_idents):
            rule.forget(side, tid)
            return 0
        tup = dict(event.tuple)
        rule.forget(side, tid)  # refresh the image on updates
        rule.remember(side, tid, tup)
        if not post:
            return 0
        posted = 0
        # the contexts hold the memories' own images; an action reads
        # copies of them (RuleContext), so it cannot edit a memory
        for _, other in list(rule.partners(side, tup)):
            bindings = (
                {rule.left: tup, rule.right: other}
                if side == "left"
                else {rule.left: other, rule.right: tup}
            )
            context = RuleContext(
                self._engine.db,
                self._engine,
                rule,  # type: ignore[arg-type]
                event,
                tup,
                getattr(event, "old", None),
                bindings,
            )
            self._engine.agenda.post(rule, context)  # type: ignore[arg-type]
            posted += 1
        return posted
