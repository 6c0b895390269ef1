"""Deterministic fault injection for failure-handling tests.

The fault-tolerance layer (transactions, retry/quarantine, crash-safe
persistence, index self-healing) is only trustworthy if failures can be
*provoked on demand* at the exact moments the code is most vulnerable:
between the two marker-placement passes of an IBS-tree insert, after a
snapshot's temp file is written but before it is renamed into place,
halfway through a structural node deletion.  This module provides that
provocation, deterministically.

Production modules declare **injection sites** by calling
:func:`fault_point` with a site name from :data:`FAULT_SITES`.  With no
injector installed (the normal case) a fault point is a global load and
a ``None`` check — cheap enough to live on mutation paths, and absent
from the stabbing-query hot path entirely.  Tests install a
:class:`FaultInjector` and arm sites either

* **deterministically** — ``injector.arm("tree.insert", at_hit=3)``
  raises :class:`~repro.errors.InjectedFault` on exactly the third time
  that site is reached; or
* **pseudo-randomly** — ``FaultInjector(seed=7, rate=0.05,
  sites=["tree.delete"])`` fires with probability 0.05 per hit, from a
  seeded RNG, so a failing schedule is perfectly reproducible from its
  seed.

Example::

    from repro.testing import FaultInjector, injected

    injector = FaultInjector()
    injector.arm("persist.replace")          # first rename attempt dies
    with injected(injector):
        with pytest.raises(InjectedFault):
            save_database(db, path)
    assert load_database(path)               # old snapshot intact

By default an injector stops after one fault (``max_faults=1``) so
recovery code that re-runs an instrumented path — e.g. a rebuild that
re-inserts intervals — does not trip the same site again while healing.
"""

from __future__ import annotations

import difflib
import random
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import InjectedFault

__all__ = [
    "FAULT_SITES",
    "FaultInjector",
    "active_injector",
    "fault_point",
    "injected",
    "install",
    "uninstall",
]

#: Every injection site compiled into the production code, by layer.
#: Tests iterate this registry to prove each site has a recovery story.
FAULT_SITES: Tuple[str, ...] = (
    # index layer: between addLeft and addRight of an interval insert,
    # mid structural node deletion, mid rotation marker rewrite, and
    # after a bulk load links its balanced structure but before any
    # markers are placed
    "tree.insert",
    "tree.delete",
    "tree.rotate",
    "tree.bulk_load",
    # persistence layer: while writing the temp snapshot, before fsync,
    # before the atomic rename, and while appending a journal record
    "persist.write",
    "persist.fsync",
    "persist.replace",
    "journal.append",
    # engine layer: at the moment a rule action is invoked
    "engine.action",
    # process-parallel matching tier: a shard worker SIGKILLed after a
    # batch is dispatched but before it replies, a worker that hangs
    # past the per-batch deadline, a torn/corrupted IPC frame, and a
    # shared-memory segment unlinked while a worker still needs it.
    # These sites fire on the supervisor side and are converted into
    # the *real* failure (an actual SIGKILL, an actual oversized sleep,
    # an actually corrupted frame, an actual early unlink), so the
    # recovery they exercise is genuine, not simulated.
    "worker.kill_before_reply",
    "worker.hang",
    "ipc.corrupt_frame",
    "shm.unlink_early",
    # disk tier: a segment write torn halfway through its payload (the
    # temp file is abandoned, the target untouched), a checkpoint that
    # crashes after writing new-generation segments but before the
    # manifest is published, and a segment file unlinked while a reader
    # still has it mmap'd.  Like the worker sites, ``disk.mmap_unlink``
    # is converted into the *real* failure — an actual unlink of a
    # manifest-referenced segment — so the recovery it exercises
    # (serving reads from the surviving mapping, then rebuilding the
    # attribute from the predicate log at the next cold start) is
    # genuine.
    "disk.torn_segment",
    "disk.partial_checkpoint",
    "disk.mmap_unlink",
    # maintenance plane: a scheduled task that raises just as the
    # scheduler dispatches it (must land in the dead-letter list, never
    # in the match path), and a budgeted checkpoint preempted between
    # shards (the manifest published so far plus the journal tail must
    # still recover every predicate).
    "maint.task_raises",
    "maint.checkpoint_preempted",
)

_FAULT_SITE_SET = frozenset(FAULT_SITES)

#: The installed injector; ``None`` means every fault point is inert.
_ACTIVE: Optional["FaultInjector"] = None


class FaultInjector:
    """A seedable source of :class:`~repro.errors.InjectedFault` failures.

    Parameters
    ----------
    seed:
        Seed for the pseudo-random firing mode; the full fault schedule
        is a pure function of ``(seed, rate, sites, hit order)``.
    rate:
        Per-hit firing probability for sites enabled via ``sites``.
        Zero (the default) disables random firing; deterministic
        :meth:`arm` triggers still apply.
    sites:
        The sites subject to random firing.  Ignored when ``rate`` is 0.
    max_faults:
        Total faults this injector will ever raise; ``None`` means
        unlimited.  The default of 1 keeps recovery paths that re-run
        instrumented code from being re-injected mid-heal.
    """

    def __init__(
        self,
        seed: int = 0,
        rate: float = 0.0,
        sites: Optional[Iterable[str]] = None,
        max_faults: Optional[int] = 1,
    ):
        self.seed = seed
        self.rate = rate
        self.sites: Set[str] = set(sites) if sites is not None else set()
        for site in self.sites:
            _check_site(site)
        self.max_faults = max_faults
        self._rng = random.Random(seed)
        self._armed: Dict[str, List[int]] = {}
        #: site -> how many times the site has been reached
        self.hits: Dict[str, int] = {}
        #: ``(site, hit_number)`` of every fault actually raised
        self.fired: List[Tuple[str, int]] = []
        self._suspended = 0

    # -- arming ---------------------------------------------------------

    def arm(self, site: str, at_hit: int = 1, count: int = 1) -> "FaultInjector":
        """Schedule deterministic faults at *site*.

        The fault fires on the ``at_hit``-th time the site is reached
        (1-based, counted from installation) and on the ``count - 1``
        following hits.  Returns ``self`` so arms can be chained.
        """
        _check_site(site)
        if at_hit < 1 or count < 1:
            raise ValueError("at_hit and count must be >= 1")
        self._armed.setdefault(site, []).extend(
            range(at_hit, at_hit + count)
        )
        return self

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Temporarily disable firing (hits are still counted)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # -- firing ---------------------------------------------------------

    def hit(self, site: str) -> None:
        """Record one arrival at *site*; raise if a fault is due."""
        n = self.hits.get(site, 0) + 1
        self.hits[site] = n
        if self._suspended:
            return
        if self.max_faults is not None and len(self.fired) >= self.max_faults:
            return
        due = self._armed.get(site)
        if due and n in due:
            due.remove(n)
        elif not (
            self.rate > 0.0
            and site in self.sites
            and self._rng.random() < self.rate
        ):
            return
        self.fired.append((site, n))
        raise InjectedFault(site, n)

    @property
    def fault_count(self) -> int:
        """Number of faults raised so far."""
        return len(self.fired)

    def __repr__(self) -> str:
        return (
            f"<FaultInjector seed={self.seed} rate={self.rate} "
            f"fired={len(self.fired)} hits={sum(self.hits.values())}>"
        )


def _check_site(site: str) -> None:
    """Reject unknown site names (called at construction AND arm time).

    Validating when a site is *armed* — not just when it is eventually
    hit — means a seeded CI drill that misspells a site fails loudly at
    setup instead of silently never firing.  The message names the
    nearest registered site so the typo is diagnosable from the CI log
    alone.
    """
    if site not in _FAULT_SITE_SET:
        close = difflib.get_close_matches(site, FAULT_SITES, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ValueError(
            f"unknown fault site {site!r}{hint}; registered sites: "
            f"{', '.join(FAULT_SITES)}"
        )


# ----------------------------------------------------------------------
# installation: one process-wide injector, explicitly scoped
# ----------------------------------------------------------------------


def install(injector: FaultInjector) -> FaultInjector:
    """Make *injector* the active injector for all fault points."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Deactivate fault injection; every fault point becomes inert."""
    global _ACTIVE
    _ACTIVE = None


def active_injector() -> Optional[FaultInjector]:
    """The currently installed injector, if any."""
    return _ACTIVE


@contextmanager
def injected(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install *injector* for the duration of a ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    install(injector)
    try:
        yield injector
    finally:
        _ACTIVE = previous


def fault_point(site: str) -> None:
    """Declare an injection site; raises only when an injector is armed.

    This is the single hook production code calls.  Inert unless a
    :class:`FaultInjector` is installed, in which case the injector
    decides — deterministically — whether this particular arrival
    fails.
    """
    injector = _ACTIVE
    if injector is not None:
        injector.hit(site)
