"""Self-healing: supervised restarts, quarantine, watchdog, compaction.

The second axis of the kill matrix (the first lives in
``tests/test_recovery.py``): the *same* injected faults, but instead of
proving that an out-of-process ``recover()`` restores the accepted prefix,
these tests prove the service heals **in-process** — the supervisor rolls
back, restarts, quarantines poison — and that the final drained truths
equal a cold fit of exactly the acknowledged writes, with dense epochs and
monotone stamps across every worker restart, and zero acknowledged writes
lost.

Also here: the ``FaultInjector`` repeatable-mode unit tests, the
``drain()``-raises-on-worker-death regression, degraded-read semantics,
the restart budget, the fit watchdog, journal-less rollback through a
private journal, impossible rollbacks, and compaction crash-safety.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import numpy as np
import pytest

from repro.data.model import Answer, Record
from repro.datasets import make_heritages
from repro.inference import TDHModel
from repro.serving import (
    BatchQuarantined,
    FaultInjector,
    FitTimeout,
    InjectedFault,
    JournalError,
    Overloaded,
    ServiceClosed,
    SupervisionPolicy,
    TruthService,
    WriteAheadJournal,
    recover,
    scan_journal,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _small():
    return make_heritages(size=24, n_sources=40, seed=2)


def _model():
    return TDHModel(max_iter=60, tol=1e-7, incremental=True)


def _cold():
    return TDHModel(max_iter=60, tol=1e-7)


def _seeded_answers(dataset, n, seed, n_workers=5, p_truth=0.7):
    rng = np.random.default_rng(seed)
    objects = dataset.objects
    writes = []
    for i in range(n):
        obj = objects[int(rng.integers(len(objects)))]
        ctx = dataset.context(obj)
        truth = dataset.gold.get(obj)
        if truth is not None and truth in ctx.index and rng.random() < p_truth:
            value = truth
        else:
            value = ctx.values[int(rng.integers(len(ctx.values)))]
        writes.append(Answer(obj, f"sw{i % n_workers}", value))
    return writes


def _fast_policy(**overrides):
    base = dict(
        max_restarts=10,
        backoff_base=0.0,
        backoff_cap=0.0,
        quarantine_after=3,
        jitter=0.0,
        seed=3,
    )
    base.update(overrides)
    return SupervisionPolicy(**base)


def run(coro):
    return asyncio.run(coro)


async def _append(service, claim):
    if isinstance(claim, Record):
        return await service.append_claim(claim.object, claim.source, claim.value)
    return await service.append_answer(claim.object, claim.worker, claim.value)


# ---------------------------------------------------------------------------
# FaultInjector repeatable modes (unit level)
# ---------------------------------------------------------------------------
class TestRepeatableFaults:
    def test_one_shot_default_still_disarms(self):
        faults = FaultInjector().arm("worker.fit", hit=2)
        assert faults.check("worker.fit") is None
        with pytest.raises(InjectedFault):
            faults.check("worker.fit")
        assert not faults.armed("worker.fit")
        assert faults.check("worker.fit") is None  # hit 3: disarmed
        assert faults.fired == [("worker.fit", 2)]

    def test_hits_remaining_fires_every_check_then_disarms(self):
        faults = FaultInjector().arm("worker.apply", hit=2, hits_remaining=3)
        assert faults.check("worker.apply") is None  # hit 1: below hit
        for expected_hit in (2, 3, 4):  # the poison-batch shape
            with pytest.raises(InjectedFault):
                faults.check("worker.apply")
        assert not faults.armed("worker.apply")
        assert faults.check("worker.apply") is None  # hit 5: spent
        assert faults.fired == [("worker.apply", h) for h in (2, 3, 4)]

    def test_every_nth_skips_between_firings(self):
        faults = FaultInjector().arm("worker.publish", hit=1, every_nth=3)
        fired = []
        for hit in range(1, 8):
            try:
                faults.check("worker.publish")
            except InjectedFault:
                fired.append(hit)
        assert fired == [1, 4, 7]  # the flaky-site shape
        assert faults.armed("worker.publish")  # unbounded: never disarms

    def test_every_nth_bounded_by_hits_remaining(self):
        faults = FaultInjector().arm(
            "worker.fit", hit=2, every_nth=2, hits_remaining=2
        )
        fired = []
        for hit in range(1, 10):
            try:
                faults.check("worker.fit")
            except InjectedFault:
                fired.append(hit)
        assert fired == [2, 4]
        assert not faults.armed("worker.fit")

    def test_disarm_drops_a_plan(self):
        faults = FaultInjector().arm("worker.fit", hit=1, hits_remaining=5)
        faults.disarm("worker.fit")
        assert not faults.armed("worker.fit")
        assert faults.check("worker.fit") is None
        faults.disarm("worker.fit")  # idempotent on an empty slot

    def test_arm_validates_repeatable_params(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("worker.fit", hits_remaining=0)
        with pytest.raises(ValueError):
            FaultInjector().arm("worker.fit", every_nth=0)

    def test_compaction_sites_are_registered(self):
        assert "journal.compact" in FaultInjector.SITES
        assert "journal.compact.rename" in FaultInjector.SITES


# ---------------------------------------------------------------------------
# the healing kill matrix (the tentpole property)
# ---------------------------------------------------------------------------
#: The sites a private journal (``fsync="never"``, no auto-compaction) can
#: reach under the matrix: it never fsyncs a batch and never compacts.
PRIVATE_JOURNAL_SITES = tuple(
    site
    for site in FaultInjector.SITES
    if site not in ("journal.fsync", "journal.compact", "journal.compact.rename")
)


@pytest.mark.parametrize(
    "journal_kind, site",
    [pytest.param("file", site, id=site) for site in FaultInjector.SITES]
    + [
        pytest.param("private", site, id=f"private-{site}")
        for site in PRIVATE_JOURNAL_SITES
    ],
)
def test_healing_kill_matrix(tmp_path, journal_kind, site):
    """Every injection site × 3 repeated hits: the service heals in-process.

    Contract: after drain, ``get_truths`` equals a cold fit of exactly the
    acknowledged writes (quarantined batches excluded, their tickets
    resolved with ``BatchQuarantined``), epochs are dense, stamps monotone,
    and the worker is alive again. With a file journal, a recovery of the
    journal the run left behind agrees with the live service; a service
    built without one heals through its private journal, which ``stop()``
    removes.
    """
    run(_healing_case(tmp_path, site, journal_kind))


async def _healing_case(tmp_path, site, journal_kind):
    faults = FaultInjector(seed=7)
    compaction_site = site.startswith("journal.compact")
    journal = None
    if journal_kind == "file":
        journal = WriteAheadJournal(
            tmp_path / "heal.wal",
            fsync="always",
            faults=faults,
            # Compaction sites are only reachable during a compaction; a
            # 1-byte threshold makes every checkpoint trigger one.
            auto_compact_bytes=1 if compaction_site else None,
        )
    dataset = _small()
    mirror = dataset.copy()
    service = TruthService(
        dataset,
        _model(),
        batch_max=3,
        journal=journal,
        faults=faults,
        supervision=_fast_policy(),
    )
    await service.start()
    # Arm *after* start so the repeated faults land under supervision (the
    # startup fit is deliberately unsupervised), targeting the very next
    # pass through the site.
    faults.arm(site, hit=faults.counts.get(site, 0) + 1, hits_remaining=3)
    writes = _seeded_answers(dataset, 12, seed=101)
    obj = dataset.objects[0]
    writes.append(Record(obj, "heal-src", dataset.candidates(obj)[0]))
    tickets = [await _append(service, claim) for claim in writes]
    await service.drain()

    acknowledged = []
    quarantined = 0
    for claim, ticket in zip(writes, tickets):
        try:
            epoch = await ticket
        except BatchQuarantined as exc:
            assert site in str(exc.cause) or exc.cause  # cause is carried
            quarantined += 1
        else:
            assert epoch >= 1
            acknowledged.append(claim)
    assert len(faults.fired) >= 1, f"site {site} was never reached"
    assert quarantined + len(acknowledged) == len(writes)

    # Zero acknowledged writes lost: the live truths are a cold fit of
    # exactly the acknowledged stream.
    for claim in acknowledged:
        if isinstance(claim, Record):
            mirror.add_record(claim)
        else:
            mirror.add_answer(claim)
    expected = _cold().fit(mirror).truths()
    live = {obj: r.value for obj, r in service.get_truths().items()}
    assert live == expected

    # Dense epochs and monotone stamps across every restart.
    history = service.history
    epochs = [snap.epoch for snap in history]
    assert epochs == list(range(epochs[0], epochs[0] + len(epochs)))
    versions = [snap.dataset_version for snap in history]
    assert versions == sorted(versions)

    # The service healed in-process: the worker is alive and writes flow.
    stats = service.stats()
    assert stats["worker_alive"] is True
    assert stats["closed"] is False
    probe = dataset.objects[1]
    ticket = await service.append_answer(
        probe, "heal-probe", dataset.candidates(probe)[0]
    )
    assert await ticket >= 1
    live = {obj: r.value for obj, r in service.get_truths().items()}

    if journal is None:
        # Nothing reads a private journal after the service: stop() drops it.
        private_dir = Path(stats["journal"]["path"]).parent
        await service.stop()
        assert not private_dir.exists()
        return

    # And the journal the whole ordeal left behind recovers to the same
    # truths — quarantine records replay, duplicates dedup, torn spans skip.
    service.crash()
    restored, report = await recover(journal.path, _cold(), run_worker=False)
    recovered = {obj: r.value for obj, r in restored.get_truths().items()}
    assert recovered == live
    if quarantined and not compaction_site:
        # The decision itself is journaled (frames may or may not exist on
        # disk for the poisoned batch — journal.append dies before writing).
        assert scan_journal(journal.path).quarantined_seqs
        assert report.batches_quarantined + report.writes_quarantined >= 0
    await restored.stop(drain=False)


def test_healing_without_journal_uses_a_private_journal(tmp_path):
    """Journal-less supervised services roll back via their private journal."""

    async def main():
        faults = FaultInjector(seed=5)
        dataset = _small()
        mirror = dataset.copy()
        service = TruthService(
            dataset,
            _model(),
            batch_max=4,
            faults=faults,
            supervision=_fast_policy(),
        )
        await service.start()
        faults.arm(
            "worker.publish",
            hit=faults.counts["worker.publish"] + 1,
            hits_remaining=2,  # two crashes, then the retry heals: no quarantine
        )
        writes = _seeded_answers(dataset, 10, seed=33)
        tickets = [await _append(service, claim) for claim in writes]
        await service.drain()
        for claim, ticket in zip(writes, tickets):
            assert await ticket >= 1
            mirror.add_answer(claim)
        expected = _cold().fit(mirror).truths()
        live = {obj: r.value for obj, r in service.get_truths().items()}
        assert live == expected
        stats = service.stats()
        assert stats["worker_restarts"] >= 1
        assert stats["quarantines"] == 0
        await service.stop()

    run(main())


def test_private_journal_shows_in_stats_compacts_and_is_removed():
    """A supervised service built without a journal opens a private one at
    ``start()``: ``stats()`` shows it, ``compact()`` compacts it, and
    ``stop()`` and ``crash()`` remove its directory."""

    async def main():
        dataset = _small()
        service = TruthService(
            dataset, _model(), batch_max=2, supervision=_fast_policy()
        )
        await service.start()
        journal = service.stats()["journal"]
        assert journal["fsync"] == "never"
        wal = Path(journal["path"])
        assert wal.parent.name.startswith("repro-rollback-")
        for claim in _seeded_answers(dataset, 6, seed=53):
            await _append(service, claim)
        info = await service.compact()
        assert info["before_bytes"] > 0
        assert [e["kind"] for e in scan_journal(wal).entries] == [
            "base", "checkpoint"
        ]
        stats = service.stats()
        assert stats["compactions"] == 1 and stats["journal"]["fsyncs"] == 1
        await service.stop()
        assert not wal.parent.exists()

        crashed = TruthService(_small(), _model(), supervision=_fast_policy())
        await crashed.start()
        private_dir = Path(crashed.stats()["journal"]["path"]).parent
        crashed.crash()
        assert not private_dir.exists()

        # Unsupervised services keep running without any journal.
        plain = TruthService(_small(), _model())
        await plain.start()
        assert "journal" not in plain.stats()
        await plain.stop()

    run(main())


# ---------------------------------------------------------------------------
# quarantine semantics
# ---------------------------------------------------------------------------
def test_quarantine_resolves_tickets_and_stream_moves_on(tmp_path):
    async def main():
        faults = FaultInjector(seed=1)
        journal = WriteAheadJournal(tmp_path / "q.wal", faults=faults)
        dataset = _small()
        service = TruthService(
            dataset,
            _model(),
            batch_max=2,
            journal=journal,
            faults=faults,
            supervision=_fast_policy(quarantine_after=2),
        )
        await service.start()
        faults.arm(
            "worker.fit",
            hit=faults.counts["worker.fit"] + 1,
            hits_remaining=2,
        )
        a, b, c = dataset.objects[:3]
        poisoned = [
            await service.append_answer(a, "w0", dataset.candidates(a)[0]),
            await service.append_answer(b, "w1", dataset.candidates(b)[0]),
        ]
        await service.drain()
        for ticket in poisoned:
            with pytest.raises(BatchQuarantined) as err:
                await ticket
            assert err.value.seq == 0
            assert "InjectedFault" in err.value.cause
        stats = service.stats()
        assert stats["quarantines"] == 1
        assert stats["quarantined_writes"] == 2
        assert stats["worker_restarts"] >= 1
        # The quarantine decision is journaled for deterministic replay.
        scan = scan_journal(journal.path)
        assert scan.quarantined_seqs == [0]
        # The stream moves on: the next batch publishes at the next epoch.
        survivor = await service.append_answer(c, "w2", dataset.candidates(c)[0])
        epoch = await survivor
        assert epoch == service.latest.epoch >= 1
        await service.stop()

    run(main())


def test_crash_budget_resets_on_progress_but_exhausts_terminally(tmp_path):
    """`max_restarts` bounds *consecutive* crashes; exhaustion closes writes."""

    async def main():
        faults = FaultInjector(seed=2)
        dataset = _small()
        service = TruthService(
            dataset,
            _model(),
            batch_max=1,
            faults=faults,
            supervision=_fast_policy(max_restarts=2, quarantine_after=99),
        )
        await service.start()
        obj = dataset.objects[0]
        # One contained crash, then progress: the budget must reset.
        faults.arm("worker.fit", hit=faults.counts["worker.fit"] + 1)
        t1 = await service.append_answer(obj, "w0", dataset.candidates(obj)[0])
        assert await t1 >= 1
        assert service.stats()["worker_restarts"] == 1
        # Now an unbroken run of crashes (> max_restarts): the supervisor
        # gives up, failing the parked ticket with the crash itself.
        faults.arm(
            "worker.fit",
            hit=faults.counts["worker.fit"] + 1,
            hits_remaining=10,
        )
        t2 = await service.append_answer(obj, "w1", dataset.candidates(obj)[1])
        with pytest.raises(InjectedFault):
            await t2
        # Writes are refused terminally; reads still serve the snapshot.
        with pytest.raises(ServiceClosed):
            await service.append_answer(obj, "w2", dataset.candidates(obj)[0])
        assert service.get_truth(obj).value is not None
        await service.stop(drain=False)

    run(main())


def test_impossible_rollback_fails_pending_tickets_and_closes_writes(tmp_path):
    """A rollback that cannot rebuild the published state ends the
    supervisor at once: the parked and queued tickets raise instead of
    hanging until ``stop()``, ``drain()`` raises, writes are refused, and
    reads keep serving the last epoch."""

    async def main():
        faults = FaultInjector(seed=14)
        path = tmp_path / "impossible.wal"
        dataset = _small()
        service = TruthService(
            dataset,
            _model(),
            batch_max=1,
            journal=WriteAheadJournal(path, faults=faults),
            faults=faults,
            supervision=_fast_policy(),
        )
        await service.start()
        a, b, c = dataset.objects[:3]
        assert await (await service.append_answer(a, "ir0", dataset.candidates(a)[0])) >= 1
        published = service.latest.epoch
        # Flip one byte inside the base frame's payload: from here on no
        # rebuild of this journal can succeed.
        start, end = scan_journal(path).spans[0]
        flip_at = (start + end) // 2
        with open(path, "r+b") as fh:
            fh.seek(flip_at)
            byte = fh.read(1)[0]
            fh.seek(flip_at)
            fh.write(bytes([byte ^ 0xFF]))
        faults.arm("worker.fit", hit=faults.counts["worker.fit"] + 1)
        parked = await service.append_answer(b, "ir1", dataset.candidates(b)[0])
        queued = await service.append_answer(c, "ir2", dataset.candidates(c)[0])
        for ticket in (parked, queued):
            with pytest.raises(JournalError, match="no decodable base"):
                await asyncio.wait_for(ticket, 5)
        with pytest.raises(JournalError):
            await service.drain()
        with pytest.raises(ServiceClosed):
            await service.append_answer(a, "ir3", dataset.candidates(a)[0])
        reads = service.get_truths()
        assert {r.epoch for r in reads.values()} == {published}
        await service.stop(drain=False)

    run(main())


def test_lost_quarantine_record_does_not_break_a_later_rollback(tmp_path):
    """A quarantine record torn on its way to the file is counted, not
    fatal: the supervisor still skips the poison batch in every later
    rollback, so a crash after it heals to exactly the acknowledged
    writes."""

    async def main():
        faults = FaultInjector(seed=15)
        journal = WriteAheadJournal(tmp_path / "lost.wal", faults=faults)
        dataset = _small()
        mirror = dataset.copy()
        service = TruthService(
            dataset,
            _model(),
            batch_max=1,
            journal=journal,
            faults=faults,
            supervision=_fast_policy(quarantine_after=2),
        )
        await service.start()
        healthy, poison, later = _seeded_answers(dataset, 3, seed=47)
        assert await (await _append(service, healthy)) >= 1
        # The poison batch's fit crashes twice, so it is quarantined. Its
        # batch frame is the next pass through journal.torn, and its
        # quarantine record the one after: tear the record.
        faults.arm(
            "worker.fit", hit=faults.counts["worker.fit"] + 1, hits_remaining=2
        )
        faults.arm(
            "journal.torn", hit=faults.counts["journal.torn"] + 2, torn=True
        )
        with pytest.raises(BatchQuarantined):
            await (await _append(service, poison))
        assert not faults.armed("journal.torn")
        assert scan_journal(journal.path).quarantined_seqs == []
        # One crash of a later batch: its rollback must still skip the
        # poison batch, whose record never reached the file.
        faults.arm("worker.fit", hit=faults.counts["worker.fit"] + 1)
        assert await (await _append(service, later)) >= 1
        await service.drain()
        mirror.add_answer(healthy)
        mirror.add_answer(later)
        expected = _cold().fit(mirror).truths()
        live = {obj: r.value for obj, r in service.get_truths().items()}
        assert live == expected
        stats = service.stats()
        assert stats["journal_failures"] == 1
        assert stats["quarantines"] == 1
        assert stats["worker_restarts"] == 3
        assert stats["worker_alive"] is True
        await service.stop()

    run(main())


# ---------------------------------------------------------------------------
# fit watchdog
# ---------------------------------------------------------------------------
def test_fit_watchdog_times_out_and_quarantines(tmp_path):
    async def main():
        faults = FaultInjector(seed=4)
        dataset = _small()
        service = TruthService(
            dataset,
            _model(),
            batch_max=2,
            faults=faults,
            supervision=_fast_policy(fit_timeout=0.08, quarantine_after=2),
        )
        await service.start()
        # A pure slowdown (delay, no exception) far past the timeout: the
        # watchdog must abandon the fit and treat it as a crash, twice,
        # then quarantine the batch that keeps hanging the fit.
        faults.arm(
            "worker.fit",
            hit=faults.counts["worker.fit"] + 1,
            delay=0.4,
            hits_remaining=2,
        )
        obj = dataset.objects[0]
        ticket = await service.append_answer(obj, "wd", dataset.candidates(obj)[0])
        await service.drain()
        with pytest.raises(BatchQuarantined) as err:
            await ticket
        assert "FitTimeout" in err.value.cause
        stats = service.stats()
        assert stats["fit_timeouts"] == 2
        assert stats["quarantines"] == 1
        # A fresh executor serves the next fit: the service still publishes.
        other = dataset.objects[1]
        t2 = await service.append_answer(other, "wd2", dataset.candidates(other)[0])
        assert await t2 >= 1
        await service.stop()

    run(main())


def test_fit_timeout_validation():
    with pytest.raises(ValueError):
        SupervisionPolicy(fit_timeout=0.0)
    with pytest.raises(ValueError):
        SupervisionPolicy(max_restarts=0)
    with pytest.raises(ValueError):
        SupervisionPolicy(backoff_base=2.0, backoff_cap=1.0)
    with pytest.raises(ValueError):
        SupervisionPolicy(quarantine_after=0)
    with pytest.raises(ValueError):
        SupervisionPolicy(jitter=-0.1)
    assert isinstance(FitTimeout(1.5), RuntimeError)


# ---------------------------------------------------------------------------
# degraded reads & write shedding
# ---------------------------------------------------------------------------
def test_degraded_reads_stay_live_and_writes_shed(tmp_path):
    """While the worker is down, reads serve the last snapshot with
    ``degraded`` stamps — never ``ServiceClosed`` — and writes beyond
    ``max_pending`` shed with a typed ``Overloaded``."""

    async def main():
        faults = FaultInjector(seed=6)
        dataset = _small()
        service = TruthService(
            dataset,
            _model(),
            batch_max=1,
            max_pending=1,
            faults=faults,
            supervision=_fast_policy(quarantine_after=99),
        )
        await service.start(run_worker=False)  # deterministic manual driving
        obj = dataset.objects[0]
        healthy = service.get_truth(obj)
        assert healthy.degraded is False and healthy.time_in_degraded == 0.0

        faults.arm("worker.fit", hit=faults.counts["worker.fit"] + 1)
        ticket = await service.append_answer(obj, "d0", dataset.candidates(obj)[0])
        await service.supervisor.step()  # contained crash: now degraded
        assert not ticket.done()  # the writer waits through the heal
        degraded = service.get_truth(obj)
        assert degraded.degraded is True
        assert degraded.time_in_degraded > 0.0
        assert degraded.epoch == healthy.epoch  # same last-published snapshot
        multi = service.get_truths([obj, dataset.objects[1]])
        assert all(r.degraded for r in multi.values())

        # Degraded writes queue within capacity...
        other = dataset.objects[1]
        queued = await service.append_answer(other, "d1", dataset.candidates(other)[0])
        # ... and shed loudly beyond it (the crashed batch is parked on the
        # worker, so capacity is exactly the queue: one slot, now taken).
        with pytest.raises(Overloaded):
            await service.append_answer(other, "d2", dataset.candidates(other)[0])
        assert service.stats()["writes_shed"] == 1

        # The next step retries the parked batch and heals; reads clear.
        await service.supervisor.step()
        assert await ticket >= 1
        await service.supervisor.step()
        assert await queued >= 1
        healed = service.get_truth(obj)
        assert healed.degraded is False and healed.time_in_degraded == 0.0
        stats = service.stats()
        assert stats["degraded_seconds_total"] > 0.0
        assert stats["supervised"] is True
        await service.stop(drain=False)

    run(main())


# ---------------------------------------------------------------------------
# the drain() hang regression (satellite)
# ---------------------------------------------------------------------------
def test_drain_raises_when_worker_fail_stops_mid_drain():
    """Pre-fix, ``drain()`` awaited ``queue.join()`` unconditionally: a
    fail-stopped worker never calls ``task_done`` for writes it will never
    take, so the await hung forever. It must raise the worker's failure."""

    async def main():
        faults = FaultInjector(seed=8)
        dataset = _small()
        service = TruthService(dataset, _model(), batch_max=1, faults=faults)
        await service.start()
        faults.arm("worker.fit", hit=faults.counts["worker.fit"] + 1)
        obj = dataset.objects[0]
        tickets = [
            await service.append_answer(obj, f"h{i}", dataset.candidates(obj)[0])
            for i in range(3)
        ]
        # Batch 1 kills the worker (fail-stop, unsupervised); writes 2 and 3
        # are stranded in the queue — the old barrier could never complete.
        with pytest.raises(InjectedFault):
            await asyncio.wait_for(service.drain(), timeout=10)
        for ticket in tickets:
            if ticket.done() and not ticket.cancelled():
                ticket.exception()  # sweep: no unretrieved-exception noise
            else:
                ticket.cancel()
        await service.stop(drain=False)

    run(main())


def test_drain_still_returns_when_queue_empties_normally():
    async def main():
        dataset = _small()
        service = TruthService(dataset, _model(), batch_max=4)
        await service.start()
        obj = dataset.objects[0]
        await service.append_answer(obj, "ok", dataset.candidates(obj)[0])
        final = await asyncio.wait_for(service.drain(), timeout=10)
        assert final.epoch >= 1
        await service.stop()

    run(main())


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------
def test_manual_compaction_preserves_truths_and_resume(tmp_path):
    async def main():
        path = tmp_path / "c.wal"
        dataset = _small()
        service = TruthService(
            dataset, _model(), batch_max=2, journal=WriteAheadJournal(path)
        )
        await service.start()
        writes = _seeded_answers(dataset, 10, seed=9)
        for claim in writes:
            await _append(service, claim)
        await service.drain()
        before = scan_journal(path)
        info = await service.compact()
        after = scan_journal(path)
        # History collapsed to base + checkpoint; nothing semantic lost.
        assert len(after.entries) == 2
        assert after.entries[0]["kind"] == "base"
        assert after.entries[1]["kind"] == "checkpoint"
        assert len(before.entries) > len(after.entries)
        assert info["before_bytes"] > 0 and info["after_bytes"] > 0
        assert service.stats()["compactions"] == 1
        live = {obj: r.value for obj, r in service.get_truths().items()}
        epoch = service.latest.epoch
        service.crash()
        restored, report = await recover(path, _cold(), run_worker=False)
        recovered = {obj: r.value for obj, r in restored.get_truths().items()}
        assert recovered == live
        assert report.resume_epoch == epoch + 1  # epochs stay dense
        assert report.batches_replayed == 0  # replay is history-free now
        await restored.stop(drain=False)

    run(main())


def test_compaction_requires_a_journal():
    async def main():
        service = TruthService(_small(), _model())
        await service.start()
        with pytest.raises(ValueError):
            await service.compact()
        await service.stop()

    run(main())


@pytest.mark.parametrize("site", ["journal.compact", "journal.compact.rename"])
def test_kill_during_compaction_never_loses_the_journal(tmp_path, site):
    """A crash at either compaction step leaves a usable journal: the old
    file before the atomic rename, the new one after — never neither."""

    async def main():
        path = tmp_path / "kc.wal"
        dataset = _small()
        service = TruthService(
            dataset, _model(), batch_max=2, journal=WriteAheadJournal(path)
        )
        await service.start()
        for claim in _seeded_answers(dataset, 8, seed=19):
            await _append(service, claim)
        await service.drain()
        live = {obj: r.value for obj, r in service.get_truths().items()}
        # Arm the kill on the journal directly (the service was built
        # without an injector; compaction is what we are killing).
        faults = FaultInjector(seed=0).arm(site, hit=1)
        service._journal._faults = faults
        with pytest.raises(InjectedFault):
            await service.compact()
        assert faults.fired
        service.crash()
        restored, _report = await recover(path, _cold(), run_worker=False)
        recovered = {obj: r.value for obj, r in restored.get_truths().items()}
        assert recovered == live
        await restored.stop(drain=False)

    run(main())


def test_auto_compaction_bounds_the_file(tmp_path):
    async def main():
        path = tmp_path / "auto.wal"
        dataset = _small()
        journal = WriteAheadJournal(path, auto_compact_bytes=1)
        service = TruthService(dataset, _model(), batch_max=1, journal=journal)
        await service.start()
        mirror = dataset.copy()
        writes = _seeded_answers(dataset, 6, seed=29)
        for claim in writes:
            await _append(service, claim)
            mirror.add_answer(claim)
        await service.drain()
        # Every checkpoint triggered a compaction: the file never holds
        # more than base + checkpoint (+ the in-flight tail).
        scan = scan_journal(path)
        assert len(scan.entries) == 2
        assert journal.compactions >= 6
        assert service.stats()["compactions"] == journal.compactions
        expected = _cold().fit(mirror).truths()
        live = {obj: r.value for obj, r in service.get_truths().items()}
        assert live == expected
        await service.stop()

    run(main())


def test_supervised_rollback_after_auto_compaction_rebuilds_exactly(tmp_path):
    """After a compaction, a later rollback must anchor at the compacted
    base and still reconstruct exactly."""

    async def main():
        faults = FaultInjector(seed=12)
        path = tmp_path / "reb.wal"
        journal = WriteAheadJournal(path, faults=faults, auto_compact_bytes=1)
        dataset = _small()
        mirror = dataset.copy()
        service = TruthService(
            dataset,
            _model(),
            batch_max=2,
            journal=journal,
            faults=faults,
            supervision=_fast_policy(),
        )
        await service.start()
        writes = _seeded_answers(dataset, 8, seed=41)
        first, rest = writes[:4], writes[4:]
        for claim in first:
            await _append(service, claim)
        await service.drain()  # several auto-compactions have happened
        assert journal.compactions >= 1
        # Now crash a fit mid-batch: rollback must rebuild from the
        # compacted journal and retry cleanly.
        faults.arm("worker.fit", hit=faults.counts["worker.fit"] + 1)
        tickets = [await _append(service, claim) for claim in rest]
        await service.drain()
        for claim, ticket in zip(writes, [None] * 4 + tickets):
            if ticket is not None:
                assert await ticket >= 1
            mirror.add_answer(claim)
        expected = _cold().fit(mirror).truths()
        live = {obj: r.value for obj, r in service.get_truths().items()}
        assert live == expected
        assert service.stats()["worker_restarts"] >= 1
        await service.stop()

    run(main())
