"""The layered matching kernel behind the paper's predicate index.

The monolithic two-level index of :mod:`repro.core.predicate_index`
decomposes into four cooperating layers, each separately testable:

* :mod:`~repro.match.catalog` — :class:`ClauseCatalog`, the PREDICATES
  table: predicate storage, normalization, entry-clause
  selection and re-choice, and the residuals compiled at registration;
* :mod:`~repro.match.store` — :class:`TreeStore`, tree lifecycle
  (epoch continuity, bulk construction) and freezing, which turns on
  the stab cache;
* :mod:`~repro.match.pipeline` — :class:`MatchPipeline`, the one
  staged route → stab → candidate → residual → emit implementation
  shared by every read path (per-tuple, batched, and the concurrency
  layer's epoch-snapshot merge), instrumented through
  :class:`MatchObserver`;
* :mod:`~repro.match.registry` — :class:`BackendRegistry`, the
  string-keyed table of tree backends and matchers every entry point
  resolves through;
* :mod:`~repro.match.columnar` — the optional vectorized batch plane
  (NumPy ``searchsorted`` stabs over precomputed outcome rows), tried
  first by ``match_batch`` when a pipeline is built with
  ``columnar=True`` and NumPy is available.

:class:`~repro.core.predicate_index.PredicateIndex` survives as a thin
facade composing these layers; its public API is unchanged.
"""

# Import order matters: this package is (re-)exported by
# ``repro.core.predicate_index`` mid-initialisation, and the modules
# below only import core *submodules* (never the half-built
# ``repro.core`` attributes).  The registry comes last — its builders
# import PredicateIndex lazily.
from .observer import MatchObserver, MatchStatistics, StatsObserver
from .catalog import ClauseCatalog, RelationState, compile_residual
from .store import TreeFactory, TreeStore
from .pipeline import (
    MatchPipeline,
    snapshot_match,
    snapshot_match_batch,
    snapshot_match_idents,
)
from . import health
from .columnar import HAVE_NUMPY, build_relation_plane
from .registry import (
    BackendRegistry,
    DEFAULT_REGISTRY,
    register_backend,
    register_matcher,
)

__all__ = [
    "MatchStatistics",
    "MatchObserver",
    "StatsObserver",
    "ClauseCatalog",
    "RelationState",
    "compile_residual",
    "TreeStore",
    "TreeFactory",
    "MatchPipeline",
    "snapshot_match",
    "snapshot_match_idents",
    "snapshot_match_batch",
    "health",
    "HAVE_NUMPY",
    "build_relation_plane",
    "BackendRegistry",
    "DEFAULT_REGISTRY",
    "register_backend",
    "register_matcher",
]
