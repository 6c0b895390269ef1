"""Core data structures: intervals, the IBS-tree, and the predicate index.

This subpackage contains the paper's primary contribution:

* :class:`~repro.core.intervals.Interval` — intervals over any totally
  ordered domain, with independently open/closed/unbounded ends;
* :class:`~repro.core.ibs_tree.IBSTree` — the interval binary search
  tree (Section 4.2), a dynamic index answering stabbing queries;
* :class:`~repro.core.avl_ibs_tree.AVLIBSTree` — the balanced variant
  using the rotation marker rewrites of Section 4.3;
* :mod:`~repro.core.stabbing` — the interval-index contract every tree
  shares, and the one sweep that builds a stab plane;
* :class:`~repro.core.predicate_index.PredicateIndex` — the two-level
  predicate matching scheme of Figure 1.
"""

from .intervals import MINUS_INF, PLUS_INF, Interval, is_infinite
from .ibs_tree import IBSNode, IBSTree
from .avl_ibs_tree import AVLIBSTree
from .rb_ibs_tree import RBIBSTree
from .rotations import rotate_left, rotate_right
from .predicate_index import MatchStatistics, PredicateIndex
from .subsumption import (
    clause_subsumes,
    find_subsumed,
    predicate_subsumes,
    predicates_disjoint,
)
from .selectivity import (
    DefaultEstimator,
    SelectivityEstimator,
    StatisticsEstimator,
    choose_index_clause,
    rank_index_clauses,
)

__all__ = [
    "Interval",
    "MINUS_INF",
    "PLUS_INF",
    "is_infinite",
    "IBSTree",
    "IBSNode",
    "AVLIBSTree",
    "RBIBSTree",
    "rotate_left",
    "rotate_right",
    "PredicateIndex",
    "MatchStatistics",
    "SelectivityEstimator",
    "DefaultEstimator",
    "StatisticsEstimator",
    "choose_index_clause",
    "rank_index_clauses",
    "clause_subsumes",
    "predicate_subsumes",
    "predicates_disjoint",
    "find_subsumed",
]
