"""Deterministic fault injection for the durable serving layer.

The recovery test suite (``tests/test_recovery.py``) and the CI chaos job
need to kill the service at *every* interesting point of the write path —
mid-journal-write, mid-fit, between publish and checkpoint — and then prove
that :func:`~repro.serving.recovery.recover` restores exactly the truths of
the journaled accepted prefix. Random ``kill -9`` style testing cannot pin
those points; this module can: the service, worker and journal call
:meth:`FaultInjector.check` at named **injection sites**, and a test arms a
site to fire on its N-th hit. Everything is seeded and counted, so a failing
``(site, hit)`` pair is a reproducible command line, not a flake.

Sites (the order below is the order they are hit during one worker batch):

===================  =======================================================
``journal.append``   before any byte of a base/batch record is written
``journal.torn``     write a seeded *prefix* of the frame, then fail — the
                     canonical torn-tail crash recovery must truncate
``journal.fsync``    at ``os.fsync`` time (the bytes are already written,
                     their durability is what failed)
``worker.apply``     after the batch is journaled, before it is applied to
                     the live dataset
``worker.fit``       inside the model fit (runs on the fit executor
                     thread); with ``delay=`` and no ``exc=`` it is a pure
                     slowdown — the responsiveness regression test
``worker.publish``   after the fit, before the snapshot-store swap
``journal.checkpoint``  before the epoch-checkpoint marker is written
``journal.compact``  before the compaction temp file is written
``journal.compact.rename``  after the temp file is durable, before the
                     atomic rename swaps it over the live journal
===================  =======================================================

A plan is **one-shot** by default: once fired it disarms, so the same
injector can be carried into the recovery path without re-killing it.
The self-healing suite needs more than one-shot — a batch is only
quarantined when it kills the worker repeatedly — so :meth:`arm` also
takes repeatable modes:

* ``hits_remaining=k`` — fire on the ``hit``-th check **and every check
  after it** until ``k`` firings happened, then disarm. This is the
  "poison batch" shape: the same batch crashes the worker on every retry.
* ``every_nth=n`` — fire on the ``hit``-th check and every ``n``-th check
  from there on (``hit``, ``hit+n``, ``hit+2n``, ...), never disarming
  unless ``hits_remaining`` bounds it. This is the "flaky site" shape: a
  retry lands between firings and succeeds, so the supervisor restarts
  but never quarantines.

``fired`` records the ``(site, hit)`` pairs that actually triggered, letting
tests distinguish "the run crashed where I asked" from "the run never
reached that site" (both are legal matrix outcomes — an unfired plan must
yield a clean, lossless run).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class InjectedFault(RuntimeError):
    """The error raised at an armed injection site (unless ``exc`` overrides)."""

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"injected fault at {site!r} (hit {hit})")
        self.site = site
        self.hit = hit


@dataclass
class _Plan:
    site: str
    hit: int
    exc: Optional[BaseException]
    delay: float
    torn: bool
    hits_remaining: Optional[int] = None
    every_nth: Optional[int] = None

    def matches(self, count: int) -> bool:
        """Whether this plan fires on the ``count``-th check of its site."""
        if count < self.hit:
            return False
        if self.every_nth is not None:
            return (count - self.hit) % self.every_nth == 0
        if self.hits_remaining is not None:
            return True  # repeatable: every check from ``hit`` on
        return count == self.hit  # one-shot


class FaultInjector:
    """Seeded fault plans (one-shot or repeatable) over the named sites."""

    SITES: Tuple[str, ...] = (
        "journal.append",
        "journal.torn",
        "journal.fsync",
        "journal.checkpoint",
        "journal.compact",
        "journal.compact.rename",
        "worker.apply",
        "worker.fit",
        "worker.publish",
    )

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._plans: Dict[str, _Plan] = {}
        #: hits per site, counted whether or not a plan is armed.
        self.counts: Dict[str, int] = {}
        #: ``(site, hit)`` pairs that actually fired, in firing order.
        self.fired: List[Tuple[str, int]] = []

    def arm(
        self,
        site: str,
        hit: int = 1,
        *,
        exc: Optional[BaseException] = None,
        delay: float = 0.0,
        torn: bool = False,
        hits_remaining: Optional[int] = None,
        every_nth: Optional[int] = None,
    ) -> "FaultInjector":
        """Arm ``site`` to fire on its ``hit``-th check.

        ``exc``: raise this instead of :class:`InjectedFault`.
        ``delay``: sleep this many seconds first; with no ``exc`` and
        ``torn=False`` the plan is a *pure slowdown* (no raise).
        ``torn``: journal-only — persist a seeded prefix of the frame, then
        fail, leaving a torn record on disk for recovery to truncate.
        ``hits_remaining``: repeatable — fire on the ``hit``-th check and
        every later one until this many firings happened (the poison-batch
        shape: crashes every retry too).
        ``every_nth``: periodic — fire on checks ``hit, hit+n, hit+2n, ...``
        (the flaky-site shape: a retry lands between firings and succeeds);
        combine with ``hits_remaining`` to bound the total firings.

        Returns ``self`` so arming chains.
        """
        if site not in self.SITES:
            raise ValueError(f"unknown injection site {site!r} (sites: {self.SITES})")
        if hit < 1:
            raise ValueError("hit must be >= 1")
        if hits_remaining is not None and hits_remaining < 1:
            raise ValueError("hits_remaining must be >= 1")
        if every_nth is not None and every_nth < 1:
            raise ValueError("every_nth must be >= 1")
        self._plans[site] = _Plan(
            site, hit, exc, delay, torn,
            hits_remaining=hits_remaining, every_nth=every_nth,
        )
        return self

    def disarm(self, site: str) -> None:
        """Drop ``site``'s plan (no-op when nothing is armed there)."""
        self._plans.pop(site, None)

    def armed(self, site: str) -> bool:
        """Whether ``site`` still has an unfired plan."""
        return site in self._plans

    def check(self, site: str, *, frame_len: Optional[int] = None) -> Optional[int]:
        """Count one pass through ``site``; fire its plan when the hit matches.

        Normally returns ``None``. A firing ``torn`` plan instead *returns*
        the seeded number of prefix bytes the journal must write before
        raising (the caller owns the file handle); every other firing plan
        raises here. A one-shot plan disarms after firing; a repeatable one
        disarms once ``hits_remaining`` firings are spent (``every_nth``
        without a bound never disarms).
        """
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        plan = self._plans.get(site)
        if plan is None or not plan.matches(count):
            return None
        if plan.hits_remaining is not None:
            plan.hits_remaining -= 1
            if plan.hits_remaining == 0:
                del self._plans[site]
        elif plan.every_nth is None:
            del self._plans[site]
        self.fired.append((site, count))
        if plan.delay:
            time.sleep(plan.delay)
        if plan.torn:
            if frame_len is None or frame_len <= 1:
                raise InjectedFault(site, count)
            return self._rng.randrange(1, frame_len)
        if plan.exc is not None:
            raise plan.exc
        if plan.delay:
            return None  # pure slowdown: the site survives, just late
        raise InjectedFault(site, count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector(armed={sorted(self._plans)}, fired={self.fired},"
            f" counts={self.counts})"
        )
