"""The backend registry: every pluggable index and matcher, by name.

Two string-keyed namespaces:

**tree backends** (:meth:`BackendRegistry.register_backend`) —
zero-argument factories producing a per-attribute interval index
satisfying the :class:`~repro.baselines.base.IntervalIndex` contract.
The IBS-tree variants (unbalanced, AVL, red-black, disk) and the
Section 4.1/6 alternatives register here, so
``PredicateIndex(tree_factory="avl")`` and the bench runner's backend
selection resolve through one table instead of ad-hoc imports.

**matchers** (:meth:`BackendRegistry.register_matcher`) — builders
producing a complete :class:`~repro.baselines.base.PredicateMatcher`.
The rule engine's ``matcher="ibs-concurrent"`` strings, the database's
``Database(matcher=...)`` option, and the end-to-end benchmarks all
resolve here.

A process-wide :data:`DEFAULT_REGISTRY` is pre-populated with every
built-in backend; tests and extensions may register additional entries
(or build private registries) without touching the core.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from ..baselines.interval_tree import StaticIntervalTree
from ..baselines.priority_search_tree import PrioritySearchTree
from ..baselines.rplus_tree import RPlusTree1D
from ..baselines.rtree import RTree1D
from ..baselines.segment_tree import SegmentTree
from ..baselines.sequential import IntervalList
from ..core.avl_ibs_tree import AVLIBSTree
from ..core.ibs_tree import IBSTree
from ..core.rb_ibs_tree import RBIBSTree
from ..errors import RegistryError

__all__ = [
    "BackendRegistry",
    "DEFAULT_REGISTRY",
    "register_backend",
    "register_matcher",
]

#: Zero-argument constructor for an interval-index backend.
TreeFactory = Callable[[], Any]
#: Keyword-options builder for a complete predicate matcher.  Builders
#: receive every option the caller passed (``estimator``, ``storage``,
#: …) and use the ones that apply to their backend.
MatcherBuilder = Callable[..., Any]

#: Capability flags declared by :class:`~repro.baselines.base.IntervalIndex`
#: implementations (absent flags default to True).
_CAPABILITY_FLAGS = (
    "supports_dynamic_insert",
    "supports_dynamic_delete",
    "supports_open_bounds",
    "supports_unbounded",
)

#: Flags that default to *False* when a backend doesn't declare them —
#: opting in is the exception (e.g. ``disk_backed`` on the disk tier's
#: segment-file tree), so absence must not read as capability.
_OPT_IN_FLAGS = ("disk_backed",)


class BackendRegistry:
    """String-keyed registry of interval-index backends and matchers."""

    def __init__(self) -> None:
        self._tree_backends: Dict[str, Dict[str, Any]] = {}
        self._matchers: Dict[str, Dict[str, Any]] = {}

    # -- registration ---------------------------------------------------

    def register_backend(
        self,
        name: str,
        factory: TreeFactory,
        description: str = "",
        replace: bool = False,
    ) -> None:
        """Register a tree backend under *name*.

        *factory* must be callable with no arguments and produce an
        object satisfying the ``IntervalIndex`` contract.  Re-using a
        name raises unless ``replace`` is set.
        """
        if name in self._tree_backends and not replace:
            raise RegistryError(f"tree backend {name!r} already registered")
        self._tree_backends[name] = {
            "factory": factory,
            "description": description,
        }

    def register_matcher(
        self,
        name: str,
        builder: MatcherBuilder,
        description: str = "",
        replace: bool = False,
        capabilities: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Register a matcher builder under *name*.

        *builder* is called with the caller's keyword options (e.g.
        ``estimator``) and must return a ``PredicateMatcher``; builders
        ignore options that do not apply to their backend.

        *capabilities* is a free-form flag mapping surfaced by
        :meth:`describe_matcher` and the ``backends`` CLI — e.g.
        ``{"requires_numpy": True}`` for strategies whose fast path
        depends on an optional extra.  The flags are declarative: a
        strategy whose optional dependency is absent must still build
        and answer correctly through its fallback path.
        """
        if name in self._matchers and not replace:
            raise RegistryError(f"matcher {name!r} already registered")
        self._matchers[name] = {
            "builder": builder,
            "description": description,
            "capabilities": dict(capabilities or {}),
        }

    # -- resolution -----------------------------------------------------

    def tree_backends(self) -> List[str]:
        """Registered tree-backend names, in registration order."""
        return list(self._tree_backends)

    def matchers(self) -> List[str]:
        """Registered matcher names, in registration order."""
        return list(self._matchers)

    def tree_factory(self, name: str) -> TreeFactory:
        """The factory registered under *name*; raises on unknown names."""
        try:
            return self._tree_backends[name]["factory"]
        except KeyError:
            raise RegistryError(
                f"unknown tree backend {name!r}; registered: "
                f"{', '.join(self._tree_backends) or '(none)'}"
            ) from None

    def resolve_tree_factory(
        self,
        spec: Union[str, TreeFactory, None],
        default: Optional[TreeFactory] = None,
    ) -> TreeFactory:
        """Resolve *spec* to a tree factory.

        Accepts a registered backend name, an explicit factory
        callable (returned as-is), or ``None`` for *default* (the
        paper's unbalanced IBS-tree when no default is given).
        """
        if spec is None:
            return default if default is not None else IBSTree
        if isinstance(spec, str):
            return self.tree_factory(spec)
        return spec

    def create_matcher(self, spec: Union[str, Any], **options: Any) -> Any:
        """Build the matcher registered under *spec*.

        A non-string *spec* is assumed to already be a matcher instance
        and is returned unchanged, so call sites accept "name or
        instance" uniformly.
        """
        if not isinstance(spec, str):
            return spec
        try:
            entry = self._matchers[spec]
        except KeyError:
            raise RegistryError(
                f"unknown matcher {spec!r}; registered: "
                f"{', '.join(self._matchers) or '(none)'}"
            ) from None
        return entry["builder"](**options)

    # -- introspection --------------------------------------------------

    def describe_backend(self, name: str) -> Dict[str, Any]:
        """Metadata for one tree backend: factory, description, flags."""
        factory = self.tree_factory(name)
        info: Dict[str, Any] = {
            "name": name,
            "factory": getattr(factory, "__name__", repr(factory)),
            "description": self._tree_backends[name]["description"],
        }
        for flag in _CAPABILITY_FLAGS:
            info[flag] = bool(getattr(factory, flag, True))
        for flag in _OPT_IN_FLAGS:
            info[flag] = bool(getattr(factory, flag, False))
        return info

    def describe_matcher(self, name: str) -> Dict[str, Any]:
        """Metadata for one matcher: builder and description."""
        try:
            entry = self._matchers[name]
        except KeyError:
            raise RegistryError(
                f"unknown matcher {name!r}; registered: "
                f"{', '.join(self._matchers) or '(none)'}"
            ) from None
        builder = entry["builder"]
        return {
            "name": name,
            "builder": getattr(builder, "__name__", repr(builder)),
            "description": entry["description"],
            "capabilities": dict(entry["capabilities"]),
        }

    def __contains__(self, name: str) -> bool:
        return name in self._tree_backends or name in self._matchers

    def __repr__(self) -> str:
        return (
            f"<BackendRegistry {len(self._tree_backends)} tree backends, "
            f"{len(self._matchers)} matchers>"
        )


# ----------------------------------------------------------------------
# built-in matcher builders
# ----------------------------------------------------------------------
#
# PredicateIndex and ConcurrentPredicateIndex are imported inside the
# builders: this module is imported while ``repro.core.predicate_index``
# is still initialising (it re-exports the match layer), so a
# module-level import would see a half-built module.
#
# Callers pass one uniform option set (``estimator``, ``storage``, …);
# each builder keeps only the options its backend understands, so e.g.
# the rule engine can hand its estimator to every strategy and the
# baselines simply don't use it.

#: Options the PredicateIndex-based builders forward.
_IBS_OPTIONS = (
    "tree_factory",
    "estimator",
    "multi_clause",
    "columnar",
    "storage",
    "data_dir",
    "memory_budget",
    "maintenance",
)

#: Options the concurrent facade builder forwards.
_CONCURRENT_OPTIONS = (
    "tree_factory",
    "estimator",
    "multi_clause",
    "compaction_threshold",
    "columnar",
    "storage",
    "data_dir",
    "memory_budget",
    "maintenance",
)


def _accept(options: Dict[str, Any], names: tuple) -> Dict[str, Any]:
    return {name: options[name] for name in names if name in options}


def _build_ibs(**options: Any) -> Any:
    from ..core.predicate_index import PredicateIndex

    return PredicateIndex(**_accept(options, _IBS_OPTIONS))


def _build_ibs_avl(**options: Any) -> Any:
    from ..core.predicate_index import PredicateIndex

    kwargs = _accept(options, _IBS_OPTIONS)
    kwargs.setdefault("tree_factory", AVLIBSTree)
    return PredicateIndex(**kwargs)


def _build_ibs_rb(**options: Any) -> Any:
    from ..core.predicate_index import PredicateIndex

    kwargs = _accept(options, _IBS_OPTIONS)
    kwargs.setdefault("tree_factory", RBIBSTree)
    return PredicateIndex(**kwargs)


def _build_columnar(**options: Any) -> Any:
    from ..core.predicate_index import PredicateIndex

    kwargs = _accept(options, _IBS_OPTIONS)
    kwargs.setdefault("columnar", True)
    return PredicateIndex(**kwargs)


def _disk_tree() -> Any:
    """Zero-argument factory for the disk tier's segment-backed tree.

    Imported lazily: the registry is populated while the core package
    is still initialising, and the disk tier pulls in the match-layer
    store.  A bare ``DiskIBSTree()`` writes its segments to a private
    temporary directory; managed placement comes from
    ``PredicateIndex(storage="disk", data_dir=...)``.
    """
    from ..disk.tree import DiskIBSTree

    return DiskIBSTree()


# declarative mirror of DiskIBSTree's flags, so `describe_backend` can
# answer without importing the disk tier
_disk_tree.supports_dynamic_insert = True  # type: ignore[attr-defined]
_disk_tree.supports_dynamic_delete = True  # type: ignore[attr-defined]
_disk_tree.supports_open_bounds = True  # type: ignore[attr-defined]
_disk_tree.supports_unbounded = True  # type: ignore[attr-defined]
_disk_tree.disk_backed = True  # type: ignore[attr-defined]
_disk_tree.__name__ = "DiskIBSTree"


def _build_disk(**options: Any) -> Any:
    from ..core.predicate_index import PredicateIndex

    kwargs = _accept(options, _IBS_OPTIONS)
    kwargs["storage"] = "disk"
    return PredicateIndex(**kwargs)


def _build_disk_concurrent(**options: Any) -> Any:
    from ..concurrency import ConcurrentPredicateIndex

    kwargs = _accept(options, _CONCURRENT_OPTIONS)
    kwargs["storage"] = "disk"
    return ConcurrentPredicateIndex(**kwargs)


def _build_ibs_concurrent(**options: Any) -> Any:
    # Imported here: building the concurrent matcher must not drag the
    # concurrency layer in for the common single-threaded strategies.
    from ..concurrency import ConcurrentPredicateIndex

    return ConcurrentPredicateIndex(**_accept(options, _CONCURRENT_OPTIONS))


def _build_sequential(**options: Any) -> Any:
    from ..baselines.sequential import SequentialMatcher

    return SequentialMatcher()


def _build_hash(**options: Any) -> Any:
    from ..baselines.hash_sequential import HashSequentialMatcher

    return HashSequentialMatcher()


def _build_locking(**options: Any) -> Any:
    from ..baselines.physical_locking import PhysicalLockingMatcher

    # ``estimator`` is deliberately not forwarded: the simulated
    # optimizer's lock choices use the scheme's own default constants,
    # matching the paper's description of existing systems.
    return PhysicalLockingMatcher(
        indexed_attributes=options.get("indexed_attributes")
    )


def _build_rtree(**options: Any) -> Any:
    from ..baselines.rtree import RTreeMatcher

    return RTreeMatcher()


#: The process-wide registry, pre-populated with every built-in
#: backend.  ``PredicateIndex(tree_factory="avl")``, the rule engine's
#: matcher strings, and the bench runner all resolve through it.
DEFAULT_REGISTRY = BackendRegistry()

DEFAULT_REGISTRY.register_backend(
    "ibs", IBSTree, "unbalanced IBS-tree (Section 4.2, the paper's measurements)"
)
DEFAULT_REGISTRY.register_backend(
    "avl", AVLIBSTree, "AVL-balanced IBS-tree (Section 4.3 marker rewrites)"
)
DEFAULT_REGISTRY.register_backend(
    "rb", RBIBSTree, "red-black-balanced IBS-tree"
)
DEFAULT_REGISTRY.register_backend(
    "interval-list", IntervalList, "linear-scan interval list (Figure 9 baseline)"
)
DEFAULT_REGISTRY.register_backend(
    "rtree-1d", RTree1D, "1-D R-tree (Section 2.4; closed bounds only)"
)
DEFAULT_REGISTRY.register_backend(
    "pst", PrioritySearchTree, "priority search tree (closed bounds only)"
)
DEFAULT_REGISTRY.register_backend(
    "segment", SegmentTree, "static segment tree (rebuilt on change)"
)
DEFAULT_REGISTRY.register_backend(
    "static-interval", StaticIntervalTree, "static interval tree (rebuilt on change)"
)
DEFAULT_REGISTRY.register_backend(
    "rplus", RPlusTree1D, "1-D R+-tree (non-overlapping leaf regions)"
)
DEFAULT_REGISTRY.register_backend(
    "disk",
    _disk_tree,
    "disk-backed IBS-tree: RAM staging tree sealed into mmap'd segment files",
)

DEFAULT_REGISTRY.register_matcher(
    "ibs", _build_ibs, "the paper's two-level predicate index"
)
DEFAULT_REGISTRY.register_matcher(
    "ibs-avl", _build_ibs_avl, "predicate index over AVL-balanced trees"
)
DEFAULT_REGISTRY.register_matcher(
    "ibs-rb", _build_ibs_rb, "predicate index over red-black trees"
)
DEFAULT_REGISTRY.register_matcher(
    "columnar",
    _build_columnar,
    "predicate index with a vectorized columnar batch plane over IBS-trees",
    capabilities={"requires_numpy": True, "vectorized_batch": True},
)
DEFAULT_REGISTRY.register_matcher(
    "ibs-concurrent",
    _build_ibs_concurrent,
    "sharded epoch-snapshot concurrent predicate index",
)
DEFAULT_REGISTRY.register_matcher(
    "disk",
    _build_disk,
    "disk-tier predicate index: mmap'd segment bases with bounded "
    "resident memory and cold-start from segment files",
    capabilities={"disk_backed": True},
)
DEFAULT_REGISTRY.register_matcher(
    "disk-concurrent",
    _build_disk_concurrent,
    "concurrent disk-tier index: compaction publishes mmap'd bases, "
    "checkpoints are incremental per shard",
    capabilities={"disk_backed": True},
)
DEFAULT_REGISTRY.register_matcher(
    "sequential", _build_sequential, "Section 2.1: one flat predicate list"
)
DEFAULT_REGISTRY.register_matcher(
    "hash", _build_hash, "Section 2.2: hash on relation + per-relation list"
)
DEFAULT_REGISTRY.register_matcher(
    "locking", _build_locking, "Section 2.3: POSTGRES-style predicate locks"
)
DEFAULT_REGISTRY.register_matcher(
    "rtree", _build_rtree, "Section 2.4: predicates as k-d boxes"
)


def register_backend(
    name: str,
    factory: TreeFactory,
    description: str = "",
    replace: bool = False,
) -> None:
    """Register a tree backend in the :data:`DEFAULT_REGISTRY`."""
    DEFAULT_REGISTRY.register_backend(
        name, factory, description=description, replace=replace
    )


def register_matcher(
    name: str,
    builder: MatcherBuilder,
    description: str = "",
    replace: bool = False,
    capabilities: Optional[Dict[str, Any]] = None,
) -> None:
    """Register a matcher builder in the :data:`DEFAULT_REGISTRY`."""
    DEFAULT_REGISTRY.register_matcher(
        name,
        builder,
        description=description,
        replace=replace,
        capabilities=capabilities,
    )
