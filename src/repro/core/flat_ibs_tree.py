"""``FlatIBSTree``: another name of :class:`~repro.core.ibs_tree.IBSTree`.

Kept so that imports of ``repro.core.flat_ibs_tree.FlatIBSTree`` still
resolve; the name is not exported from :mod:`repro`.
"""

from .ibs_tree import IBSTree as FlatIBSTree  # noqa: F401
