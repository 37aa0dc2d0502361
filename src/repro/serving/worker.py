"""The background EM worker: journal, batch-apply, off-loop refit, publish.

One worker per service, one consumer: every mutation of the dataset happens
inside this single task, which is what makes the service deterministic under
a fixed write order and lets the reader side stay lock-free (readers only
ever touch immutable published snapshots). The *fit* itself, though, never
runs on the event loop: ``fit_and_publish`` ships it to a
single-thread executor (``loop.run_in_executor``), so a cold refit cannot
freeze reads or enqueues — the worker coroutine simply awaits the executor
future while the loop keeps scheduling readers and writers. No locking
changes: the worker is suspended for exactly as long as the fit thread owns
the dataset, so there is still only ever one mutator.

Per batch the worker does exactly five things:

1. drain a micro-batch off the write queue (first write awaited, the rest
   taken greedily up to ``batch_max``, so a backlog amortises one fit over
   many writes);
2. **journal the batch** (when a :class:`~repro.serving.journal.
   WriteAheadJournal` is attached) *before* applying anything — classic WAL
   order: a write that could ever become visible is durable first. A failed
   journal append rejects the whole batch onto its tickets and fail-stops
   the worker (durability is broken; recovery is the way back);
3. apply each write through the ordinary dataset mutators — an invalid
   write (:class:`~repro.data.model.DatasetError`) is rejected onto its
   ticket without poisoning the batch, and replay rejects it identically;
4. refit off-loop: ``fit(dataset, warm_start=previous_published)``. With an
   incremental-capable model this is the dirty-frontier path, and it now
   covers slot growth too: record appends (new objects, brand-new candidate
   values) are spliced into the frontier fit instead of degrading the seed,
   so mixed claim+answer traffic stays incremental. What still degrades to
   a cold fit — counted per structured reason
   (:class:`~repro.inference.base.WarmStartDegradation`), not surfaced —
   is a warm start the gate cannot trust at all: a cloned dataset or an
   in-place record overwrite. Saturated frontiers delegate to the full
   warm fit;
5. publish the result as the next :class:`~repro.serving.snapshots.
   PublishedResult` epoch, append the epoch-checkpoint marker to the
   journal, and resolve the batch's tickets.

The default failure policy is **fail-stop**: any exception in the batch loop
(injected or real) resolves the in-flight batch's tickets with the error,
re-raises, and kills the worker task. The service then refuses further
writes; the journal holds every accepted batch, so ``recover()`` restores
exactly the accepted prefix. ``queue.task_done`` is called once per write
*after* its batch's publish, so ``queue.join()`` is exactly the service's
drain barrier.

Under a :class:`~repro.serving.supervisor.Supervisor` (``supervised=True``)
the worker becomes *restartable* instead: a crashed batch stays parked as
:attr:`EMWorker.pending` — its tickets unresolved, its ``task_done`` calls
deferred — while the supervisor rolls the dataset back to the last published
state and re-runs :meth:`step`, which retries the pending batch (without
re-journaling it if the append already landed; ``append_batch`` only bumps
``batch_seq`` after the frame is fully written, so a retried append reuses
the same sequence number). The *commit point* is ``SnapshotStore.publish``:
once it lands, ``pending.published_epoch`` is set and a later crash (the
checkpoint append, a compaction) must **not** retry the batch — the
supervisor resolves its tickets with that epoch and repairs the checkpoint
instead. Attempt-local metric increments are reversed on a pre-commit crash
so counters always describe committed state. A ``fit_timeout`` arms the
**fit watchdog**: an off-loop fit that outlives it is abandoned (its
executor is discarded; the stuck thread can finish into the void — it only
ever reads the dataset object it was handed) and :class:`FitTimeout` is
raised, which the supervisor treats like any other crash.
"""

from __future__ import annotations

import asyncio
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from ..data.model import Answer, DatasetError, Record, TruthDiscoveryDataset
from ..inference.base import TruthInferenceAlgorithm, WarmStartDegradation
from .faults import FaultInjector
from .journal import WriteAheadJournal
from .metrics import ServiceMetrics
from .snapshots import PublishedResult, SnapshotStore


@dataclass
class Write:
    """One queued mutation plus the ticket its writer may await.

    The ticket resolves to the publishing epoch once the write is readable,
    or raises the :class:`DatasetError` that rejected it (or the crash that
    killed its batch). Awaiting is optional — valid writes resolve with a
    result, which asyncio never complains about dropping.
    """

    claim: Union[Record, Answer]
    ticket: "asyncio.Future[int]" = field(repr=False, default=None)  # type: ignore[assignment]

    def apply(self, dataset: TruthDiscoveryDataset) -> None:
        if isinstance(self.claim, Record):
            dataset.add_record(self.claim)
        else:
            dataset.add_answer(self.claim)


class FitTimeout(RuntimeError):
    """An off-loop fit outlived ``fit_timeout`` and was abandoned.

    Raised on the worker coroutine (the executor future is discarded); under
    supervision it is handled like any other batch-loop crash — rollback,
    restart, and eventual quarantine of the batch whose fits keep hanging.
    """

    def __init__(self, timeout: float) -> None:
        super().__init__(f"fit exceeded fit_timeout={timeout:g}s and was abandoned")
        self.timeout = timeout


@dataclass
class PendingBatch:
    """The batch a supervised worker is processing, parked across retries.

    ``journaled``/``seq`` make the journal append idempotent across retries;
    ``published_epoch`` marks the commit point (set the instant
    ``SnapshotStore.publish`` succeeds — a batch with it set is *never*
    retried); ``crashes`` drives quarantine; the ``attempt_*`` fields are
    this attempt's metric increments, reversed on a pre-commit crash.
    """

    writes: List[Write]
    seq: Optional[int] = None
    journaled: bool = False
    published_epoch: Optional[int] = None
    crashes: int = 0
    attempt_applied: int = 0
    attempt_rejected: int = 0
    attempt_batched: bool = False


class EMWorker:
    """Single-consumer batch loop between the write queue and the store."""

    def __init__(
        self,
        dataset: TruthDiscoveryDataset,
        model: TruthInferenceAlgorithm,
        queue: "asyncio.Queue[Write]",
        store: SnapshotStore,
        metrics: ServiceMetrics,
        *,
        accepts_warm_start: bool,
        batch_max: int = 256,
        journal: Optional[WriteAheadJournal] = None,
        faults: Optional[FaultInjector] = None,
        supervised: bool = False,
        fit_timeout: Optional[float] = None,
    ) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if fit_timeout is not None and fit_timeout <= 0:
            raise ValueError("fit_timeout must be > 0 (or None to disable)")
        self._dataset = dataset
        self._model = model
        self._queue = queue
        self._store = store
        self._metrics = metrics
        self._accepts_warm_start = accepts_warm_start
        self._batch_max = batch_max
        self._journal = journal
        self._faults = faults
        self._fit_pool: Optional[ThreadPoolExecutor] = None
        self._supervised = supervised
        self._fit_timeout = fit_timeout
        #: the batch currently being processed (supervised mode only) —
        #: parked here across crash/rollback/retry until finalized.
        self.pending: Optional[PendingBatch] = None
        #: called with the PublishedResult the instant a publish commits
        #: (the supervisor's crash-budget reset hook).
        self.commit_listener: Optional[Callable[[PublishedResult], None]] = None

    @property
    def dataset(self) -> TruthDiscoveryDataset:
        return self._dataset

    def replace_dataset(self, dataset: TruthDiscoveryDataset) -> None:
        """Swap in a rolled-back dataset (supervisor-only, worker parked)."""
        self._dataset = dataset

    # ------------------------------------------------------------------
    # fitting & publication
    # ------------------------------------------------------------------
    def _fit(self) -> Tuple[object, float, List[str]]:
        """Run one refit; executor-thread-safe (sole dataset toucher while
        the worker coroutine awaits it). Returns (result, seconds, and the
        structured reasons of any warm-start degradations)."""
        if self._faults is not None:
            self._faults.check("worker.fit")
        previous = self._store.latest
        warm = previous.result if (previous and self._accepts_warm_start) else None
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if self._accepts_warm_start:
                result = self._model.fit(self._dataset, warm_start=warm)
            else:
                result = self._model.fit(self._dataset)
        fit_seconds = time.perf_counter() - t0
        # Warm-start degradations are tolerated operation here (a clone or
        # an in-place overwrite can legitimately force one); count them per
        # structured reason instead of spamming the log, but re-emit
        # anything else the fit warned about. In steady state — mixed
        # claim+answer append traffic — the fits stay incremental and this
        # list stays empty (asserted by tests and the serving benchmark).
        degraded: List[str] = []
        for caught_warning in caught:
            if isinstance(caught_warning.message, WarmStartDegradation):
                degraded.append(caught_warning.message.reason)
            else:
                warnings.warn_explicit(
                    caught_warning.message,
                    caught_warning.category,
                    caught_warning.filename,
                    caught_warning.lineno,
                )
        return result, fit_seconds, degraded

    def _publish(self, fitted: Tuple[object, float, List[str]]) -> PublishedResult:
        """Wrap a fit into the next epoch, swap it in, checkpoint the journal."""
        result, fit_seconds, degraded = fitted
        if self._faults is not None:
            self._faults.check("worker.publish")
        frontier_size = getattr(result, "frontier_size", None)
        self._metrics.note_fit(
            fit_seconds, incremental=frontier_size is not None, degraded=degraded
        )
        previous = self._store.latest
        snapshot = PublishedResult(
            result=result,
            truths=result.truths(),
            epoch=previous.epoch + 1 if previous else self._store.base_epoch,
            dataset_version=self._dataset.version,
            records_version=self._dataset.records_version,
            applied_writes=self._metrics.writes_applied,
            incremental=frontier_size is not None,
            frontier_size=frontier_size,
            fit_seconds=fit_seconds,
            published_at=time.monotonic(),
        )
        published = self._store.publish(snapshot)
        # The commit point: the snapshot is visible to readers. A crash past
        # this line must resolve the batch's tickets with this epoch, never
        # retry it (double-apply); the supervisor keys off published_epoch.
        if self.pending is not None:
            self.pending.published_epoch = published.epoch
        if self.commit_listener is not None:
            self.commit_listener(published)
        if self._journal is not None:
            # Checkpoint *after* the publish it marks: a surviving checkpoint
            # implies its batches are journaled (they precede it in the file),
            # so recovery resuming at checkpoint-epoch + 1 never skips data.
            self._journal.append_checkpoint(
                epoch=published.epoch,
                dataset_version=published.dataset_version,
                records_version=published.records_version,
                applied_writes=published.applied_writes,
            )
            self._maybe_auto_compact(published)
        return published

    def _maybe_auto_compact(self, published: PublishedResult) -> None:
        """Compact the journal when it outgrew ``auto_compact_bytes``.

        Only called right after a checkpoint, the one program point where the
        live dataset and the journal's replay state provably coincide.
        """
        journal = self._journal
        if journal is None or journal.auto_compact_bytes is None or journal.closed:
            return
        try:
            size = journal.path.stat().st_size
        except OSError:
            return
        if size <= journal.auto_compact_bytes:
            return
        journal.compact(
            self._dataset,
            epoch=published.epoch,
            dataset_version=published.dataset_version,
            records_version=published.records_version,
            applied_writes=published.applied_writes,
        )
        self._metrics.compactions += 1

    async def fit_and_publish(self) -> PublishedResult:
        """Refit warm-started from the latest publish, then publish.

        The fit always runs in a lazily created single-thread executor, so
        readers and writers stay responsive during cold refits; the publish
        runs back on the loop. Also used by ``TruthService.start`` for the
        initial fit, before the worker task exists.
        """
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor(), self._fit)
        if self._fit_timeout is not None:
            try:
                fitted = await asyncio.wait_for(future, self._fit_timeout)
            except asyncio.TimeoutError:
                # Watchdog expiry: abandon the executor wholesale — a fresh
                # pool serves future fits while the wedged thread finishes
                # into the void (it only reads the dataset object it was
                # handed; nothing consumes its result).
                self._metrics.fit_timeouts += 1
                self.shutdown()
                raise FitTimeout(self._fit_timeout) from None
        else:
            fitted = await future
        return self._publish(fitted)

    def _executor(self) -> ThreadPoolExecutor:
        if self._fit_pool is None:
            self._fit_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="truth-service-fit"
            )
        return self._fit_pool

    def shutdown(self) -> None:
        """Release the fit executor (idempotent; in-flight fits finish)."""
        if self._fit_pool is not None:
            self._fit_pool.shutdown(wait=False)
            self._fit_pool = None

    # ------------------------------------------------------------------
    # the batch loop
    # ------------------------------------------------------------------
    async def _take_batch(self) -> List[Write]:
        first = await self._queue.get()
        batch = [first]
        while len(batch) < self._batch_max and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        return batch

    async def step(self) -> Optional[PublishedResult]:
        """Process one batch: journal, apply, refit, publish, resolve tickets.

        Returns the published snapshot, or ``None`` when every write in the
        batch was rejected (nothing changed, so nothing is re-fitted).
        Exposed so tests can drive the worker deterministically
        (``TruthService.start(run_worker=False)``).

        Supervised mode re-enters here after a rollback: the parked
        :attr:`pending` batch is retried instead of taking a new one, its
        tickets stay unresolved across the crash (writers keep awaiting
        through the heal), and ``task_done`` is deferred to finalization so
        ``queue.join()`` still means "fully resolved".
        """
        if self._supervised and self.pending is not None:
            pending = self.pending  # retry after rollback — same batch
        else:
            pending = PendingBatch(writes=await self._take_batch())
            if self._supervised:
                self.pending = pending
        batch = pending.writes
        pending.attempt_applied = 0
        pending.attempt_rejected = 0
        pending.attempt_batched = False
        try:
            if self._journal is not None and not pending.journaled:
                try:
                    # append_batch bumps batch_seq only after the frame is
                    # fully written, so a retried append reuses the seq.
                    pending.seq = self._journal.append_batch(
                        [w.claim for w in batch]
                    )
                    pending.journaled = True
                except Exception:
                    self._metrics.journal_failures += 1
                    raise
            if self._faults is not None:
                self._faults.check("worker.apply")
            applied: List[Write] = []
            for write in batch:
                try:
                    write.apply(self._dataset)
                except DatasetError as exc:
                    self._metrics.writes_rejected += 1
                    pending.attempt_rejected += 1
                    if not write.ticket.done():
                        write.ticket.set_exception(exc)
                else:
                    self._metrics.writes_applied += 1
                    pending.attempt_applied += 1
                    applied.append(write)
            self._metrics.batches += 1
            self._metrics.last_batch_size = len(batch)
            pending.attempt_batched = True
            if not applied:
                self._finalize_pending(pending)
                return None
            snapshot = await self.fit_and_publish()
            for write in applied:
                if not write.ticket.done():  # a writer may have cancelled
                    write.ticket.set_result(snapshot.epoch)
            self._finalize_pending(pending)
            return snapshot
        except Exception as exc:
            self._metrics.worker_failures += 1
            if self._supervised:
                # Park the batch for the supervisor: tickets stay pending
                # (writers wait through the heal), task_done is deferred.
                # Reverse this attempt's metric increments unless the
                # publish committed — counters describe committed state.
                pending.crashes += 1
                if pending.published_epoch is None:
                    self._metrics.writes_applied -= pending.attempt_applied
                    self._metrics.writes_rejected -= pending.attempt_rejected
                    if pending.attempt_batched:
                        self._metrics.batches -= 1
                raise
            # Fail-stop: surface the crash on every unresolved ticket (so
            # awaiting writers unblock), then kill the worker. The journal
            # holds the accepted prefix; recovery is the way back.
            for write in batch:
                if write.ticket is not None and not write.ticket.done():
                    write.ticket.set_exception(exc)
                    # Mark retrieved: fire-and-forget writers must not spam
                    # "exception was never retrieved" at GC; awaiting writers
                    # still see the exception raised.
                    write.ticket.exception()
            raise
        finally:
            if not self._supervised:
                # After publication, so queue.join() == "all accepted writes
                # are readable or rejected" — the drain barrier.
                for _ in batch:
                    self._queue.task_done()

    def _finalize_pending(self, pending: PendingBatch) -> None:
        """Retire a fully resolved batch (supervised bookkeeping only)."""
        if not self._supervised:
            return
        for _ in pending.writes:
            self._queue.task_done()
        if self.pending is pending:
            self.pending = None

    async def run(self) -> None:
        """The worker task body: loop until cancelled (or fail-stopped)."""
        while True:
            await self.step()
