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
* **freeze demotion**: freezing swaps the LRU stab cache for a plain
  append-only ``dict`` and freezes every tree, which is what makes the
  frozen index safe for lock-free concurrent readers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Tuple

from .catalog import RelationState

__all__ = ["TreeStore", "TreeFactory"]

#: Constructor for a per-attribute interval index backend.
TreeFactory = Callable[[], Any]


class TreeStore:
    """Owns interval-index construction, retirement, and cache policy.

    Parameters
    ----------
    tree_factory:
        Constructor for the per-attribute interval index (any object
        with the ``IntervalIndex`` interface: ``insert/delete/stab``
        at minimum; ``stab_into/stab_many/bulk_load/freeze/epoch`` are
        used when present).
    stab_cache_size:
        Capacity of each relation's LRU stab cache; ``0`` disables
        caching entirely.
    """

    __slots__ = ("tree_factory", "stab_cache_size", "cache_lru")

    def __init__(self, tree_factory: TreeFactory, stab_cache_size: int = 0) -> None:
        self.tree_factory = tree_factory
        self.stab_cache_size = int(stab_cache_size)
        #: LRU maintenance on the stab caches (move-to-end on hit,
        #: evict on overflow).  :meth:`freeze_state` turns it off: a
        #: frozen index is read by many threads at once, and the only
        #: GIL-safe cache discipline is append-only — plain ``dict``
        #: get/set with no reordering and no eviction (a concurrent
        #: ``move_to_end`` / ``popitem`` pair can raise ``KeyError``
        #: mid-read).
        self.cache_lru = True

    # -- tree lifecycle -------------------------------------------------

    def new_tree(
        self, state: RelationState, attribute: Optional[str] = None
    ) -> Any:
        """Create a tree whose epochs continue from the relation's floor.

        Fresh backends start at epoch 0; without the floor a tree
        dropped at epoch 40 and recreated one mutation later would
        reissue epochs 1, 2, 3 … and an ``(attribute, tree_epoch)``
        cache key (or an epoch-snapshot reader) could silently confuse
        the two generations.

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
        """Retire and remove *attribute*'s tree; invalidate the cache.

        The stab cache is cleared because the tree map changed shape:
        a future tree for the same attribute restarts its epochs (from
        the raised floor), and cached keys for *other* attributes
        remain correct but the cheap uniform policy is to clear.
        """
        tree = state.trees.pop(attribute, None)
        if tree is None:
            return
        self.retire_tree(state, tree)
        state.stab_cache.clear()

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
        """Freeze one relation's trees and demote its cache.

        The LRU odict becomes a plain dict: frozen-mode readers do bare
        get/set with no lock, and only plain-dict ops are single
        GIL-atomic operations — ``OrderedDict.__setitem__`` also
        appends to a C-level linked list (with Python-level key hashing
        possibly interleaving), so concurrent inserts could corrupt it.
        Backends without a ``freeze`` method are skipped.
        """
        state.stab_cache = dict(state.stab_cache)
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
