"""Supervision: the self-healing layer that owns the EM worker's lifecycle.

PRs 7–9 made the truth service durable but left its runtime **fail-stop**:
one exception in the batch loop kills the worker forever and every later
write gets ``ServiceClosed`` — recovery from the journal, in a new process,
is the only way back. This module replaces that policy with *containment*,
the transactional process-lifecycle discipline DB-nets formalise for
data-aware processes: a failure is rolled back, retried, and — when it keeps
happening — isolated, while the rest of the service keeps running.

One :class:`Supervisor` wraps one :class:`~repro.serving.worker.EMWorker`
and, per crash of the batch loop:

1. **rolls the dataset back** to the last *published* state. The published
   snapshot is the transaction boundary — readers saw it, tickets resolved
   against it — so it is the only state worth restoring. The rollback
   replays the journal minus the in-flight batch and minus every batch this
   supervisor quarantined; it keeps those sequence numbers itself, so a
   ``quarantine`` record that never reached the file cannot bring a poison
   batch back. A service built without a journal opens a private one at
   ``start()``, so the journal is the only rollback source. The rebuilt
   stamps must equal the published ones exactly — that equality is
   asserted, not assumed. A rebuild that raises or does not match is an
   *impossible rollback*: the parked and queued tickets fail with it and
   the supervisor ends;
2. **restarts the worker** with bounded exponential backoff plus seeded
   jitter (``backoff_base`` · 2ⁿ, capped at ``backoff_cap``); the
   consecutive-crash budget (``max_restarts``) resets on every committed
   publish, so only an *unbroken* run of failures can exhaust it;
3. **quarantines poison**: the crashed batch stays parked on the worker and
   is retried first, so the batch that triggered each crash is known by
   identity, not inference. A batch whose retries crash the worker
   ``quarantine_after`` consecutive times is quarantined — its tickets
   resolve with :class:`BatchQuarantined` (carrying the cause), a
   ``quarantine`` record is journaled so recovery replay excludes the same
   evidence deterministically, and the stream moves on. Epochs stay dense:
   a quarantine publishes nothing;
4. **repairs post-commit damage**: a crash *after* ``SnapshotStore.publish``
   (a failed checkpoint append, a failed compaction) must never retry the
   batch — it is already visible. Its tickets resolve with the committed
   epoch and the missing checkpoint marker is re-appended after the
   restart.

While the worker is down or restarting the service is **degraded, not
closed**: reads keep serving the last published snapshot (stamped
``degraded=True`` with ``time_in_degraded``), and writes queue within
``max_pending`` or are shed with a typed
:class:`~repro.serving.service.Overloaded` — the read path never raises
``ServiceClosed``. Only an exhausted restart budget (or an impossible
rollback) ends the supervisor, failing the parked and queued tickets and
closing the write side.

The **fit watchdog** rides on the same machinery: the worker raises
:class:`~repro.serving.worker.FitTimeout` when an off-loop fit outlives
``fit_timeout``, and the supervisor treats it exactly like any other crash —
restart, then quarantine of the batch whose fits keep hanging.

Everything here runs on the event loop inside the supervisor task (the
service's former worker task slot), so the single-mutator invariant is
untouched: rollback swaps the dataset only while the worker coroutine is
parked in this very call stack.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from .recovery import rebuild_dataset
from .snapshots import PublishedResult
from .worker import PendingBatch

if TYPE_CHECKING:
    from .service import TruthService


class BatchQuarantined(RuntimeError):
    """The resolution of every ticket in a quarantined (poison) batch.

    ``seq`` is the batch's journal sequence number (for a batch whose append
    never completed, the number the supervisor burned for it); ``cause``
    describes the crash that kept recurring.
    """

    def __init__(self, seq: int, cause: str) -> None:
        super().__init__(
            f"batch seq={seq} quarantined after repeated worker crashes ({cause})"
        )
        self.seq = seq
        self.cause = cause


@dataclass(frozen=True)
class SupervisionPolicy:
    """The healing knobs. Frozen so one policy can configure many services.

    ``max_restarts`` bounds *consecutive* crashes (the budget resets on
    every committed publish); ``backoff_base``/``backoff_cap`` shape the
    exponential restart delay, ``jitter`` adds a seeded random fraction on
    top (0.25 = up to +25%); ``quarantine_after`` is how many consecutive
    crashes one batch may cause before it is quarantined;``fit_timeout``
    arms the fit watchdog (``None`` = fits may run forever).
    """

    max_restarts: int = 8
    backoff_base: float = 0.02
    backoff_cap: float = 1.0
    quarantine_after: int = 3
    fit_timeout: Optional[float] = None
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_cap")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.fit_timeout is not None and self.fit_timeout <= 0:
            raise ValueError("fit_timeout must be > 0 (or None to disable)")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


class Supervisor:
    """Crash containment around one service's EM worker (see module doc)."""

    def __init__(self, service: "TruthService", policy: SupervisionPolicy) -> None:
        self._service = service
        self._policy = policy
        self._worker = service.worker
        self._store = service._store
        self._queue = service._queue
        self._journal = service._journal
        self._metrics = service.metrics
        self._rng = random.Random(policy.seed)
        self._consecutive_crashes = 0
        self._repair_checkpoint_needed = False
        #: monotonic instant the current degraded period began (None =
        #: healthy); the read path stamps `degraded`/`time_in_degraded`
        #: off this single attribute.
        self.degraded_since: Optional[float] = None
        self.last_crash: Optional[BaseException] = None
        #: every batch sequence number this supervisor quarantined; each
        #: rollback skips them whether or not the quarantine record landed.
        self._quarantined_seqs: List[int] = []
        self._worker.commit_listener = self._on_commit

    # ------------------------------------------------------------------
    # the supervised loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """The supervisor task body: heal-aware steps until cancelled."""
        while True:
            await self.step()

    async def step(self) -> Optional[PublishedResult]:
        """One worker step plus crash containment.

        Returns the step's published snapshot (``None`` for an all-rejected
        batch *and* for a contained crash — the parked batch retries on the
        next call). Exposed so tests drive healing deterministically with
        ``start(run_worker=False)``.
        """
        try:
            result = await self._worker.step()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            await self._handle_crash(exc)
            return None
        self._clear_degraded()
        return result

    async def _handle_crash(self, exc: BaseException) -> None:
        self.last_crash = exc
        if self.degraded_since is None:
            self.degraded_since = time.monotonic()
        self._consecutive_crashes += 1
        pending = self._worker.pending
        if pending is not None and pending.published_epoch is not None:
            # Post-commit crash (checkpoint append, compaction): the batch
            # is visible to readers — resolve with its epoch, never retry,
            # re-append the lost checkpoint once the worker is back.
            for write in pending.writes:
                if not write.ticket.done():
                    write.ticket.set_result(pending.published_epoch)
            self._worker._finalize_pending(pending)
            self._repair_checkpoint_needed = True
        else:
            try:
                self._rollback(pending)
            except Exception as rollback_failure:
                # An impossible rollback: no state to retry from, so fail
                # the parked batch and the queue before the supervisor dies.
                self.abandon_pending(rollback_failure)
                raise
            if (
                pending is not None
                and pending.crashes >= self._policy.quarantine_after
            ):
                self._quarantine(pending, exc)
        if self._consecutive_crashes > self._policy.max_restarts:
            # An unbroken run of failures exhausted the budget: fail the
            # parked batch and everything queued behind it, then die — the
            # service's write side closes, reads keep the last snapshot.
            self.abandon_pending(exc)
            raise exc
        await asyncio.sleep(self._backoff_delay())
        self._metrics.worker_restarts += 1
        self._repair_checkpoint()

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def _rollback(self, pending: Optional[PendingBatch]) -> None:
        """Restore the dataset to the last published (= committed) state."""
        dataset = self._worker.dataset
        latest = self._store.latest  # start() published before supervising
        if (
            dataset.version == latest.dataset_version
            and dataset.records_version == latest.records_version
        ):
            return  # crash preceded any mutation — the cheap common case
        skip = list(self._quarantined_seqs)
        if pending is not None and pending.seq is not None:
            skip.append(pending.seq)
        restored, _stats = rebuild_dataset(self._journal.path, skip_seqs=skip)
        if (
            restored.version != latest.dataset_version
            or restored.records_version != latest.records_version
        ):
            raise RuntimeError(
                "rollback reconstruction does not match the published state:"
                f" rebuilt v{restored.version}/r{restored.records_version} vs"
                f" published v{latest.dataset_version}/r{latest.records_version}"
            )
        self._service._adopt_dataset(restored)

    # ------------------------------------------------------------------
    # quarantine & terminal teardown
    # ------------------------------------------------------------------
    def _quarantine(self, pending: PendingBatch, exc: BaseException) -> None:
        cause = f"{type(exc).__name__}: {exc}"
        seq = pending.seq
        if seq is None:
            # The append "failed", but a crash after the frame was written
            # (an fsync fault, a torn prefix) can still have left bytes on
            # disk carrying the current — never bumped — sequence number.
            # Quarantine that speculative seq and burn it so the next batch
            # cannot collide with it.
            seq = self._journal.batch_seq
            self._journal.batch_seq = seq + 1
        self._quarantined_seqs.append(seq)
        try:
            self._journal.append_quarantine(seq, cause)
        except Exception:
            # The decision stands even if recording it failed: rollbacks
            # skip the seq from memory; only a recovery of this exact
            # journal would re-accept the batch — counted, not fatal.
            self._metrics.journal_failures += 1
        err = BatchQuarantined(seq, cause)
        for write in pending.writes:
            if not write.ticket.done():
                write.ticket.set_exception(err)
                write.ticket.exception()  # fire-and-forget writers stay quiet
        self._metrics.quarantines += 1
        self._metrics.quarantined_writes += len(pending.writes)
        self._worker._finalize_pending(pending)

    def abandon_pending(self, exc: BaseException) -> None:
        """Fail the parked batch and everything queued (terminal teardown).

        Every unresolved ticket gets ``exc`` and its deferred ``task_done``,
        so drain barriers release and no writer awaits forever.
        """
        pending = self._worker.pending
        if pending is not None:
            for write in pending.writes:
                if not write.ticket.done():
                    write.ticket.set_exception(exc)
                    write.ticket.exception()
            self._worker._finalize_pending(pending)
        while True:
            try:
                write = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if write.ticket is not None and not write.ticket.done():
                write.ticket.set_exception(exc)
                write.ticket.exception()
            self._queue.task_done()

    # ------------------------------------------------------------------
    # hooks & bookkeeping
    # ------------------------------------------------------------------
    def _on_commit(self, published: PublishedResult) -> None:
        # A committed publish is the proof of progress: the crash budget
        # resets.
        self._consecutive_crashes = 0
        self._clear_degraded()

    def _clear_degraded(self) -> None:
        if self.degraded_since is not None:
            self._metrics.degraded_seconds_total += (
                time.monotonic() - self.degraded_since
            )
            self.degraded_since = None

    def _backoff_delay(self) -> float:
        n = max(1, self._consecutive_crashes)
        delay = min(
            self._policy.backoff_cap, self._policy.backoff_base * (2.0 ** (n - 1))
        )
        return delay * (1.0 + self._policy.jitter * self._rng.random())

    def _repair_checkpoint(self) -> None:
        """Re-append the checkpoint a post-commit crash swallowed.

        Idempotent from recovery's point of view (a duplicate checkpoint
        with identical stamps is harmless — the last one wins); a repair
        that fails stays flagged and is retried after the next heal.
        """
        if not self._repair_checkpoint_needed:
            return
        self._repair_checkpoint_needed = False
        journal = self._journal
        latest = self._store.latest
        if journal.closed:
            return
        try:
            journal.append_checkpoint(
                epoch=latest.epoch,
                dataset_version=latest.dataset_version,
                records_version=latest.records_version,
                applied_writes=latest.applied_writes,
            )
        except Exception:
            self._metrics.journal_failures += 1
            self._repair_checkpoint_needed = True

    def stats(self) -> Dict[str, object]:
        """Plain-dict healing state for ``service.stats()``."""
        degraded = self.degraded_since is not None
        return {
            "consecutive_crashes": self._consecutive_crashes,
            "degraded": degraded,
            "time_in_degraded": (
                time.monotonic() - self.degraded_since if degraded else 0.0
            ),
            "pending_batch": self._worker.pending is not None,
            "last_crash": repr(self.last_crash) if self.last_crash else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Supervisor(crashes={self._consecutive_crashes},"
            f" degraded={self.degraded_since is not None},"
            f" policy={self._policy})"
        )
