"""Relation schemas: attribute lists with domains.

Real relational applications — per the survey the paper cites — have
anywhere from one to over a hundred attributes, most commonly 5 to 25;
the workload generators in :mod:`repro.workloads` default to the
paper's assumption of 15 attributes per relation.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import SchemaError, TupleError, UnknownAttributeError
from .types import ANY, Domain

__all__ = ["Attribute", "Schema"]


class Attribute:
    """A named, typed attribute of a relation."""

    __slots__ = ("name", "domain")

    def __init__(self, name: str, domain: Domain = ANY):
        if not name or not isinstance(name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {name!r}")
        if not (name[0].isalpha() or name[0] == "_") or not all(
            c.isalnum() or c == "_" for c in name
        ):
            raise SchemaError(f"attribute name {name!r} is not a valid identifier")
        if not isinstance(domain, Domain):
            raise SchemaError(f"attribute domain must be a Domain, got {domain!r}")
        self.name = name
        self.domain = domain

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}, {self.domain.name})"


AttributeSpec = Union[str, Attribute, Tuple[str, Domain]]


class Schema:
    """An ordered set of attributes for one relation.

    Attribute specs may be bare names (domain ``ANY``), ``(name,
    Domain)`` pairs, or :class:`Attribute` instances::

        Schema("emp", ["name", ("age", INTEGER), ("salary", NUMBER), "dept"])
    """

    __slots__ = ("name", "attributes", "_by_name", "_checked")

    def __init__(self, name: str, attributes: Iterable[AttributeSpec]):
        if not name or not isinstance(name, str):
            raise SchemaError(f"relation name must be a non-empty string, got {name!r}")
        attrs: List[Attribute] = []
        by_name: Dict[str, Attribute] = {}
        for spec in attributes:
            attr = self._coerce(spec)
            if attr.name in by_name:
                raise SchemaError(f"duplicate attribute {attr.name!r} in schema {name!r}")
            attrs.append(attr)
            by_name[attr.name] = attr
        if not attrs:
            raise SchemaError(f"schema {name!r} must have at least one attribute")
        self.name = name
        self.attributes = tuple(attrs)
        self._by_name = by_name
        #: the attributes whose domain can reject a value
        self._checked = tuple(attr for attr in attrs if _constrains(attr.domain))

    @staticmethod
    def _coerce(spec: AttributeSpec) -> Attribute:
        if isinstance(spec, Attribute):
            return spec
        if isinstance(spec, str):
            return Attribute(spec)
        if isinstance(spec, tuple) and len(spec) == 2:
            return Attribute(spec[0], spec[1])
        raise SchemaError(f"cannot interpret attribute spec {spec!r}")

    # -- lookups ----------------------------------------------------------

    @property
    def attribute_names(self) -> List[str]:
        """Attribute names in declaration order."""
        return [attr.name for attr in self.attributes]

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttributeError(
                f"relation {self.name!r} has no attribute {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.attributes)

    # -- tuple validation --------------------------------------------------

    def validate_tuple(self, values: Mapping[str, Any]) -> Dict[str, Any]:
        """Check *values* against the schema and return a complete dict.

        Unknown attributes are rejected; missing attributes become None
        (NULL).  Domain checks run on every non-NULL value of an attribute
        whose domain can reject one.
        """
        if not isinstance(values, Mapping):
            raise TupleError(f"tuple must be a mapping, got {type(values).__name__}")
        by_name = self._by_name
        if not values.keys() <= by_name.keys():
            for key in values:
                if key not in by_name:
                    raise TupleError(
                        f"relation {self.name!r} has no attribute {key!r} "
                        f"(known: {', '.join(self.attribute_names)})"
                    )
        get = values.get
        normalized = {name: get(name) for name in by_name}
        for attr in self._checked:
            try:
                attr.domain.validate(normalized[attr.name])
            except SchemaError as exc:
                raise TupleError(f"attribute {attr.name!r}: {exc}") from None
        return normalized

    def validate_update(self, changes: Mapping[str, Any]) -> Dict[str, Any]:
        """Check a partial update dict; returns a plain copy."""
        if not isinstance(changes, Mapping):
            raise TupleError(f"update must be a mapping, got {type(changes).__name__}")
        validated: Dict[str, Any] = {}
        for key, value in changes.items():
            attr = self.attribute(key)
            try:
                attr.domain.validate(value)
            except SchemaError as exc:
                raise TupleError(f"attribute {key!r}: {exc}") from None
            validated[key] = value
        return validated

    def __repr__(self) -> str:
        cols = ", ".join(f"{a.name}:{a.domain.name}" for a in self.attributes)
        return f"Schema({self.name!r}: {cols})"


def _constrains(domain: Domain) -> bool:
    """Whether ``domain.validate`` can reject a value.

    A plain :class:`Domain` with no check and no bound accepts
    everything (``ANY``); a subclass that overrides ``validate`` is
    assumed to check something.
    """
    return (
        domain.check is not None
        or domain.low is not None
        or domain.high is not None
        or type(domain).validate is not Domain.validate
    )
