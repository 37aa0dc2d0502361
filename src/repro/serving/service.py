"""`TruthService`: the always-on asyncio truth-serving layer.

The per-script lifecycle everywhere else in this package is *load → fit →
report*. This module turns the same engine into a long-running service:

```
 writers ──append_claim/append_answer──▶ asyncio.Queue (maxsize = backpressure)
                                            │  micro-batches
                                            ▼
                                    EMWorker (one task)
          journal batch (WAL) → apply → off-loop warm/incremental fit
                        → publish → journal epoch checkpoint
                                            │
                                            ▼
                              SnapshotStore.latest  (atomic pointer)
                                            ▲
 readers ◀──get_truth/get_truths────────────┘   lock-free, version-stamped
```

With a :class:`~repro.serving.journal.WriteAheadJournal` attached the
accepted write stream is durable (journaled before it is applied) and the
service is crash-recoverable via :func:`~repro.serving.recovery.recover`;
fits always run in a single-thread executor, so a cold refit never freezes
the event loop.

Consistency contract (see ``docs/serving.md`` for the full statement):

* **atomic snapshots** — a read resolves entirely against one immutable
  :class:`~repro.serving.snapshots.PublishedResult`; a multi-object
  ``get_truths`` never mixes epochs;
* **monotonic epochs** — successive reads observe non-decreasing
  ``epoch`` / ``dataset_version`` stamps (enforced at publish);
* **read-your-writes-eventually** — an accepted write is visible to readers
  after its ticket resolves, and after ``drain()`` returns every accepted
  write is visible (or rejected onto its ticket);
* **bounded ingest** — at most ``max_pending`` writes queue ahead of the EM
  worker; beyond that ``append_*`` awaits, which is the backpressure that
  keeps a write burst from outrunning fits unboundedly.

Reads are synchronous plain calls (no ``await``): the hot path is a dict
lookup on the latest snapshot plus staleness bookkeeping, so readers never
contend with the worker for anything but the GIL.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional

from ..data.model import (
    Answer,
    ObjectId,
    Record,
    SourceId,
    TruthDiscoveryDataset,
    WorkerId,
)
from ..hierarchy.tree import Value
from ..inference.base import TruthInferenceAlgorithm
from ..inference.tdh import TDHModel
from .faults import FaultInjector
from .journal import WriteAheadJournal
from .metrics import ServiceMetrics
from .snapshots import PublishedResult, SnapshotStore
from .supervisor import SupervisionPolicy, Supervisor
from .worker import EMWorker, Write


class ServiceNotStarted(RuntimeError):
    """A read or write arrived before ``start()`` published epoch 0."""


class ServiceClosed(RuntimeError):
    """A write arrived after ``stop()`` began refusing new writes."""


class Overloaded(RuntimeError):
    """A write was shed: the queue is full while the service is degraded.

    Healthy services apply backpressure instead (``append_*`` awaits queue
    space); a degraded one — worker down, mid-restart — must not let writers
    block on a queue nothing is consuming, so beyond ``max_pending`` it
    fails fast with this typed error. Counted in ``metrics.writes_shed``.
    """


@dataclass(frozen=True)
class TruthRead:
    """One lock-free read: the truth plus the stamps that date it.

    ``lag_writes`` is the number of writes the service had accepted but not
    yet published when the read happened — 0 means the reader saw a fully
    caught-up snapshot. ``staleness_seconds`` is the snapshot's age.
    ``degraded`` is True while a supervised service's worker is down or
    restarting (the snapshot is still the last published truth — reads
    never fail over a worker crash), and ``time_in_degraded`` is how long
    the current degraded period has lasted at read time.
    """

    object: ObjectId
    value: Value
    confidence: float
    epoch: int
    dataset_version: int
    records_version: int
    incremental: bool
    lag_writes: int
    staleness_seconds: float
    degraded: bool = False
    time_in_degraded: float = 0.0


class TruthService:
    """Always-on truth discovery over one live dataset.

    Parameters
    ----------
    dataset:
        The live dataset; must already hold at least one record (the service
        appends onto it, it does not bootstrap an empty corpus).
    model:
        Any truth-inference algorithm. Defaults to
        ``TDHModel(incremental=True)`` — the dirty-frontier
        configuration, so steady-state answer traffic costs O(frontier) per
        batch. Models whose ``fit`` accepts ``warm_start`` are warm-started
        from the latest publish; others are simply refitted.
    max_pending:
        Write-queue capacity — the backpressure knob. ``append_*`` awaits
        once this many writes are queued ahead of the EM worker.
    batch_max:
        Micro-batching: up to ``batch_max`` queued writes are folded into one
        fit.
    journal:
        Optional :class:`~repro.serving.journal.WriteAheadJournal`. When
        attached, every micro-batch is journaled *before* it is applied
        (WAL order) and every publish appends an epoch checkpoint, making
        the accepted write stream crash-recoverable via
        :func:`~repro.serving.recovery.recover`. A fresh journal gets the
        full base dataset written at ``start()`` so recovery is
        self-contained.
    faults:
        Optional :class:`~repro.serving.faults.FaultInjector` — the
        deterministic crash harness threaded through journal/worker sites.
        Production services leave it ``None``.
    initial_epoch:
        The epoch the first publish carries — 0 for a fresh service;
        recovery passes the journaled checkpoint epoch + 1 so epochs stay
        dense across restarts.
    supervision:
        Optional :class:`~repro.serving.supervisor.SupervisionPolicy`.
        When given, the worker runs under a
        :class:`~repro.serving.supervisor.Supervisor` — batch-loop crashes
        roll back to the last published state and restart with backoff,
        poison batches are quarantined, fits are watchdogged, and reads
        stay live (``degraded`` stamps) while the worker heals. Rollback
        replays the journal, so a supervised service built without one
        opens a private journal at ``start()`` (``fsync="never"``, in a
        temporary directory that ``stop()`` and ``crash()`` remove).
        ``None`` keeps the fail-stop policy.
    """

    def __init__(
        self,
        dataset: TruthDiscoveryDataset,
        model: Optional[TruthInferenceAlgorithm] = None,
        *,
        max_pending: int = 1024,
        batch_max: int = 256,
        journal: Optional[WriteAheadJournal] = None,
        faults: Optional[FaultInjector] = None,
        initial_epoch: int = 0,
        supervision: Optional[SupervisionPolicy] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._dataset = dataset
        self._model = model if model is not None else TDHModel(incremental=True)
        self._accepts_warm_start = (
            "warm_start" in inspect.signature(self._model.fit).parameters
        )
        self._max_pending = max_pending
        self._batch_max = batch_max
        self._journal = journal
        #: the temporary directory of a supervised service's private
        #: journal (None when the caller attached one or supervision is off).
        self._private_journal_dir: Optional[str] = None
        self._faults = faults
        self._store = SnapshotStore(base_epoch=initial_epoch)
        self.metrics = ServiceMetrics()
        self._supervision = supervision
        self._queue: Optional["asyncio.Queue[Write]"] = None
        self.worker: Optional[EMWorker] = None
        self.supervisor: Optional[Supervisor] = None
        self._worker_task: Optional["asyncio.Task[None]"] = None
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, *, run_worker: bool = True) -> "TruthService":
        """Publish the epoch-0 cold fit and (by default) spawn the worker.

        ``run_worker=False`` leaves the batch loop unscheduled so tests can
        drive it deterministically via ``service.worker.step()``.
        """
        if self._started:
            raise RuntimeError("TruthService.start() called twice")
        if self._closed:
            raise ServiceClosed("service already stopped")
        if not self._dataset.objects:
            raise ValueError("TruthService needs a dataset with at least one record")
        if self._supervision is not None and self._journal is None:
            # The supervisor rolls back by replaying the journal; without a
            # caller's journal it gets a private, unsynced one.
            self._private_journal_dir = tempfile.mkdtemp(prefix="repro-rollback-")
            self._journal = WriteAheadJournal(
                Path(self._private_journal_dir) / "rollback.wal",
                fsync="never",
                faults=self._faults,
            )
        if self._journal is not None and self._journal.is_fresh:
            # A fresh journal opens with the full base dataset, making the
            # file self-contained: recover(path) needs no external corpus.
            self._journal.append_base(self._dataset)
        self._queue = asyncio.Queue(maxsize=self._max_pending)
        self.worker = EMWorker(
            self._dataset,
            self._model,
            self._queue,
            self._store,
            self.metrics,
            accepts_warm_start=self._accepts_warm_start,
            batch_max=self._batch_max,
            journal=self._journal,
            faults=self._faults,
            supervised=self._supervision is not None,
            fit_timeout=(
                self._supervision.fit_timeout
                if self._supervision is not None
                else None
            ),
        )
        if self._supervision is not None:
            # Built before the initial fit so its commit hook sees every
            # publish.
            self.supervisor = Supervisor(self, self._supervision)
        # The initial fit before any write is accepted: readers never see
        # "no data". Epoch 0 on a fresh service; the journaled resume epoch
        # on a recovered one. Startup is not supervised: a crash here is a
        # configuration problem, not a runtime fault to heal around.
        await self.worker.fit_and_publish()
        self._started = True
        if run_worker:
            runner = (
                self.supervisor.run() if self.supervisor is not None
                else self.worker.run()
            )
            self._worker_task = asyncio.create_task(
                runner, name="truth-service-em-worker"
            )
        return self

    async def drain(self) -> PublishedResult:
        """Wait until every accepted write is published (or rejected).

        Requires the worker task (or an external driver calling
        ``worker.step()``) to be consuming the queue. Returns the snapshot
        that is latest once the queue is fully processed.

        If the worker task has died — a fail-stop crash, or a supervised
        service exhausting its restart budget or failing a rollback — this
        raises the worker's own failure instead of hanging on writes nothing
        will publish (``ServiceClosed`` if it was cancelled mid-drain).
        """
        self._require_started()
        join = asyncio.ensure_future(self._queue.join())
        sentinel = self._worker_task
        if sentinel is None:
            # Manually driven service (run_worker=False): there is no task
            # whose death could strand the barrier — the driver is us.
            await join
            return self._store.latest
        await asyncio.wait({join, sentinel}, return_when=asyncio.FIRST_COMPLETED)
        failure = None
        if sentinel.done() and not sentinel.cancelled():
            failure = sentinel.exception()
        if join.done() and failure is None:
            return self._store.latest
        # A dead worker's failure wins even over a completed barrier: a
        # supervisor that gives up resolves the writes it abandons, so the
        # queue empties although none of them was published.
        join.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await join
        if failure is not None:
            raise failure
        raise ServiceClosed("EM worker was cancelled mid-drain")

    async def stop(self, *, drain: bool = True) -> None:
        """Refuse new writes, optionally drain, then tear down cleanly.

        The journal (when attached) is closed with a final fsync, a private
        journal's directory is removed, and the fit executor is released. A
        fail-stopped worker's exception is swallowed here — it already
        surfaced on the crashed batch's tickets.
        """
        if not self._started or self._queue is None:
            self._closed = True
            self._remove_private_journal()
            return
        self._closed = True
        if drain and (self._worker_task is not None and not self._worker_task.done()):
            # The guarded barrier: a worker dying mid-drain raises instead
            # of hanging; during teardown that failure is swallowed here —
            # it already surfaced on the crashed batch's tickets.
            with contextlib.suppress(Exception):
                await self.drain()
        if self._worker_task is not None:
            if self._worker_task.done():
                if not self._worker_task.cancelled():
                    self._worker_task.exception()  # mark retrieved
            else:
                self._worker_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._worker_task
            self._worker_task = None
        if self.supervisor is not None:
            # A stop while degraded may leave a parked batch (and queued
            # writes) with unresolved tickets; fail them so no writer
            # awaits a heal that will never come.
            self.supervisor.abandon_pending(
                ServiceClosed("service stopped while writes were pending")
            )
        if self.worker is not None:
            self.worker.shutdown()
        self._remove_private_journal()
        if self._journal is not None and not self._journal.closed:
            self._journal.close()

    def crash(self) -> None:
        """Simulate abrupt process death (the fault harness's kill switch).

        No drain, no final journal sync, no ticket resolution: the worker
        task is cancelled where it stands, the journal handle is dropped,
        and the service refuses everything from here on. Whatever the
        journal already holds is what :func:`~repro.serving.recovery.
        recover` will restore — exactly the accepted durable prefix. A
        private journal has no later reader, so its directory is removed.
        """
        self._closed = True
        if self._worker_task is not None:
            if self._worker_task.done() and not self._worker_task.cancelled():
                self._worker_task.exception()  # mark retrieved
            else:
                self._worker_task.cancel()
            self._worker_task = None
        if self.worker is not None:
            self.worker.shutdown()
        if self._journal is not None and not self._journal.closed:
            self._journal.abort()
        self._remove_private_journal()

    def _remove_private_journal(self) -> None:
        """Drop a private journal unsynced: nothing reads it after the end."""
        if self._private_journal_dir is not None:
            self._journal.abort()
            shutil.rmtree(self._private_journal_dir, ignore_errors=True)
            self._private_journal_dir = None

    async def __aenter__(self) -> "TruthService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        # On a clean exit drain first (read-your-writes for the block's
        # writers); on an exception just tear down.
        await self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    async def append_claim(
        self, obj: ObjectId, source: SourceId, value: Value
    ) -> "asyncio.Future[int]":
        """Enqueue a source claim; returns the write's awaitable ticket.

        A record append moves ``records_version`` and may add an object or a
        candidate value; the covering fit still runs incrementally, with
        the new slots spliced into the dirty frontier. Validation happens at
        apply time, as for :meth:`append_answer`.
        """
        return await self._enqueue(Write(Record(obj, source, value)))

    async def append_answer(
        self, obj: ObjectId, worker: WorkerId, value: Value
    ) -> "asyncio.Future[int]":
        """Enqueue a crowd answer; returns the write's awaitable ticket.

        Validation happens at apply time against the dataset state the write
        actually lands on (an answer must name an existing candidate value);
        a rejected write resolves its ticket with the ``DatasetError``.
        """
        return await self._enqueue(Write(Answer(obj, worker, value)))

    async def _enqueue(self, write: Write) -> "asyncio.Future[int]":
        self._require_started()
        if self._closed:
            raise ServiceClosed("service is stopping; write refused")
        if self._worker_task is not None and self._worker_task.done():
            # Fail-stop aftermath: the worker died (journal append failed,
            # fit raised, ...). Accepting more writes would queue them into
            # nowhere — refuse loudly; recovery from the journal is the way
            # back to a writable service.
            failure = (
                None
                if self._worker_task.cancelled()
                else self._worker_task.exception()
            )
            raise ServiceClosed(f"EM worker has stopped ({failure!r}); write refused")
        write.ticket = asyncio.get_running_loop().create_future()
        if (
            self.supervisor is not None
            and self.supervisor.degraded_since is not None
        ):
            # Degraded mode: nothing is consuming the queue right now, so
            # blocking on backpressure could block on a heal that takes
            # arbitrarily long. Queue within capacity, shed loudly beyond.
            try:
                self._queue.put_nowait(write)
            except asyncio.QueueFull:
                self.metrics.writes_shed += 1
                raise Overloaded(
                    f"queue full ({self._queue.maxsize} pending) while the"
                    " worker is restarting; write shed"
                ) from None
        else:
            await self._queue.put(write)  # backpressure point
        self.metrics.writes_accepted += 1
        self.metrics.note_queue_depth(self._queue.qsize())
        return write.ticket

    # ------------------------------------------------------------------
    # read side (synchronous, lock-free)
    # ------------------------------------------------------------------
    @property
    def latest(self) -> PublishedResult:
        """The latest published snapshot (raises before ``start()``)."""
        self._require_started()
        return self._store.latest

    @property
    def history(self):
        """Recent publishes, oldest first (the store keeps the last 8)."""
        return self._store.history

    def get_truth(self, obj: ObjectId) -> TruthRead:
        """Resolve one object's truth against the latest snapshot."""
        return self._read(self._snapshot(), obj)

    def get_truths(
        self, ids: Optional[Iterable[ObjectId]] = None
    ) -> Dict[ObjectId, TruthRead]:
        """Resolve many truths against ONE snapshot (never mixed epochs).

        ``ids=None`` reads every object the snapshot covers.
        """
        snapshot = self._snapshot()
        if ids is None:
            ids = snapshot.truths.keys()
        return {obj: self._read(snapshot, obj) for obj in ids}

    def _snapshot(self) -> PublishedResult:
        self._require_started()
        # The single pointer load every read in a call resolves against.
        return self._store.latest

    def _read(self, snapshot: PublishedResult, obj: ObjectId) -> TruthRead:
        try:
            value = snapshot.truths[obj]
        except KeyError:
            raise KeyError(
                f"object {obj!r} is not covered by snapshot epoch"
                f" {snapshot.epoch} (it may have been appended after the"
                " latest publish)"
            ) from None
        self.metrics.reads += 1
        lag = (
            self.metrics.writes_accepted
            - self.metrics.writes_rejected
            - snapshot.applied_writes
        )
        degraded_since = (
            self.supervisor.degraded_since if self.supervisor is not None else None
        )
        return TruthRead(
            object=obj,
            value=value,
            confidence=snapshot.result.confidence(obj).get(value, 0.0),
            epoch=snapshot.epoch,
            dataset_version=snapshot.dataset_version,
            records_version=snapshot.records_version,
            incremental=snapshot.incremental,
            lag_writes=max(0, lag),
            staleness_seconds=snapshot.age_seconds(),
            degraded=degraded_since is not None,
            time_in_degraded=(
                time.monotonic() - degraded_since
                if degraded_since is not None
                else 0.0
            ),
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _adopt_dataset(self, dataset: TruthDiscoveryDataset) -> None:
        """Swap in a rolled-back dataset (supervisor-only, worker parked)."""
        self._dataset = dataset
        self.worker.replace_dataset(dataset)

    async def compact(self) -> Dict[str, int]:
        """Drain, then rewrite the journal as base = the current dataset.

        The drain is what makes the rewrite legal: once every accepted write
        is published, the live dataset *is* the journal's replay state, so
        replacing history with it loses nothing. Returns ``compact()``'s
        ``{before_bytes, after_bytes}``. Raises when no journal is attached
        (a supervised service always has one: its own or a private one).
        """
        self._require_started()
        if self._journal is None:
            raise ValueError("compact() needs a journal-backed service")
        await self.drain()
        latest = self._store.latest
        info = self._journal.compact(
            self._dataset,
            epoch=latest.epoch,
            dataset_version=latest.dataset_version,
            records_version=latest.records_version,
            applied_writes=latest.applied_writes,
        )
        self.metrics.compactions += 1
        return info

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Metrics plus the latest snapshot's stamps, as one plain dict."""
        latest = self._store.latest
        extra: Dict[str, object] = {
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "started": self._started,
            "closed": self._closed,
            "worker_alive": bool(
                self._worker_task is not None and not self._worker_task.done()
            ),
            "supervised": self.supervisor is not None,
        }
        if self.supervisor is not None:
            extra["supervisor"] = self.supervisor.stats()
        if self._journal is not None:
            extra["journal"] = self._journal.stats()
        if latest is not None:
            extra.update(
                epoch=latest.epoch,
                dataset_version=latest.dataset_version,
                records_version=latest.records_version,
                frontier_size=latest.frontier_size,
                snapshot_age_seconds=latest.age_seconds(),
            )
        return self.metrics.snapshot(extra)

    def _require_started(self) -> None:
        if not self._started or self._store.latest is None:
            raise ServiceNotStarted(
                "TruthService.start() has not published an initial snapshot yet"
            )
