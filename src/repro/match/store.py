"""Tree lifecycle and cache policy: the backend-facing layer.

:class:`TreeStore` is the one place that constructs, retires, freezes
and bulk-loads the per-attribute interval indexes.  It is stateless
with respect to relations — the per-relation records
(:class:`~repro.match.catalog.RelationState`) are owned by the
catalog and passed in — but it owns the three policies every tree
shares:

* **epoch continuity**: fresh trees are seeded with the relation's
  ``epoch_floor`` and dropped trees raise it, so ``(attribute,
  tree_epoch)`` pairs are never reused across tree generations;
* **bulk construction**: a backend's ``bulk_load`` is used when
  available, incremental inserts otherwise (foreign backends);
* **the stab cache**: only a frozen index caches stabs.  Freezing
  freezes every tree and gives the relation an append-only ``dict``
  of at most :data:`STAB_CACHE_SIZE` answers, which lock-free
  concurrent readers share.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Tuple

from .catalog import RelationState

__all__ = ["TreeStore", "TreeFactory", "STAB_CACHE_SIZE"]

#: Constructor for a per-attribute interval index backend.
TreeFactory = Callable[[], Any]

#: Stab answers each relation of a frozen index caches; past it the
#: cache stops adding (see :meth:`TreeStore.freeze_state`).
STAB_CACHE_SIZE = 4_096


class TreeStore:
    """Owns interval-index construction, retirement, and freezing.

    Parameters
    ----------
    tree_factory:
        Constructor for the per-attribute interval index (any object
        with the ``IntervalIndex`` interface: ``insert/delete/stab``
        at minimum; ``stab_into/stab_many/bulk_load/freeze/epoch`` are
        used when present).
    """

    __slots__ = ("tree_factory",)

    def __init__(self, tree_factory: TreeFactory) -> None:
        self.tree_factory = tree_factory

    # -- tree lifecycle -------------------------------------------------

    def new_tree(
        self, state: RelationState, attribute: Optional[str] = None
    ) -> Any:
        """Create a tree whose epochs continue from the relation's floor.

        Fresh backends start at epoch 0; without the floor a tree
        dropped at epoch 40 and recreated one mutation later would
        reissue epochs 1, 2, 3 … and an epoch-snapshot reader, or the
        disk tier's segment currency, could silently confuse the two
        generations.

        Every tree comes from the store's one factory.  *attribute* is
        only a name: the disk store uses it for the segment file.
        """
        tree = self.tree_factory()
        self.seed_epoch(state, tree)
        return tree

    @staticmethod
    def seed_epoch(state: RelationState, tree: Any) -> Any:
        """Continue *tree*'s epochs from the relation's floor (see above)."""
        floor = state.epoch_floor
        if floor and hasattr(tree, "epoch"):
            tree.epoch = floor
        return tree

    @staticmethod
    def retire_tree(state: RelationState, tree: Any) -> None:
        """Record a dropped tree's last epoch in the relation's floor."""
        epoch = getattr(tree, "epoch", None)
        if epoch is not None:
            state.epoch_floor = max(state.epoch_floor, epoch + 1)

    def drop_tree(self, state: RelationState, attribute: str) -> None:
        """Retire and remove *attribute*'s tree."""
        tree = state.trees.pop(attribute, None)
        if tree is not None:
            self.retire_tree(state, tree)

    def build_tree(
        self,
        state: RelationState,
        pairs: Iterable[Tuple[Any, Hashable]],
        attribute: Optional[str] = None,
    ) -> Any:
        """A fresh tree over ``(interval, ident)`` *pairs*.

        Uses the backend's ``bulk_load`` when it has one — sorted
        endpoints, balanced structure, no per-insert rotations — and
        falls back to incremental construction for foreign backends.
        *attribute* is passed on to :meth:`new_tree`.
        """
        tree = self.new_tree(state, attribute)
        loader = getattr(tree, "bulk_load", None)
        if loader is not None:
            loader(pairs)
        else:  # foreign backend: incremental construction
            for interval, ident in pairs:
                tree.insert(interval, ident)
        return tree

    # -- snapshot support -----------------------------------------------

    def freeze_state(self, state: RelationState) -> None:
        """Freeze one relation's trees and turn on its stab cache.

        A frozen tree never changes, so a stab answer keyed on
        ``(attribute, value)`` stays valid for the index's whole life:
        nothing is ever invalidated or evicted.  The cache is a plain
        ``dict`` used append-only, because frozen-mode readers do bare
        get/set with no lock and only plain-dict operations are single
        GIL-atomic steps; since no key is ever deleted, a looked-up key
        cannot vanish mid-read.  It stops adding at
        :data:`STAB_CACHE_SIZE` answers.  Backends without a ``freeze``
        method are skipped.
        """
        if state.stab_cache is None:
            state.stab_cache = {}
        for tree in state.trees.values():
            freezer = getattr(tree, "freeze", None)
            if freezer is not None:
                freezer()

    @staticmethod
    def tree_epochs(state: RelationState) -> Dict[str, int]:
        """Current ``attribute -> tree epoch`` map for one relation.

        Publication hook for the epoch-snapshot layer and its checker:
        thanks to the per-relation epoch floor the values are monotone
        over the index's whole life, even across tree drop/recreate
        and rebuilds.
        """
        return {
            attribute: getattr(tree, "epoch", 0)
            for attribute, tree in state.trees.items()
        }
