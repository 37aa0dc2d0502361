"""Durability: the write-ahead journal, crash recovery, and the fault matrix.

Four layers:

1. **Journal unit level** — frame round-trips, magic/closed-handle/fsync
   policy edges, scan/truncate semantics on hand-damaged files.
2. **The kill matrix** (the tentpole property): a seeded write stream is
   driven through a journaled service while a :class:`FaultInjector` kills
   the run at *every* named injection site × hit number. Whatever the crash
   point, ``recover()`` must serve **exactly** the truths of a cold fit of
   the journaled accepted prefix — compared bitwise against
   ``rebuild_dataset`` of the very file the crash left behind — with dense
   epochs and non-regressing version stamps across the restart.
3. **Torn tails and flipped bytes** — random byte-offset truncation and
   mid-file corruption cost exactly the damaged record (counted in
   ``truncated_records``); everything after a mid-file flip still replays.
4. **Liveness** — reads stay responsive while a slow fit runs off-loop,
   and a fail-stopped worker refuses writes loudly instead of queueing them
   into nowhere.
"""

from __future__ import annotations

import asyncio
import random
import time

import numpy as np
import pytest

from repro.data.model import Answer, DatasetError, Record
from repro.datasets import make_heritages
from repro.inference import TDHModel
from repro.serving import (
    FaultInjector,
    InjectedFault,
    InjectedTornWrite,
    JournalError,
    ServiceClosed,
    TruthService,
    WriteAheadJournal,
    rebuild_dataset,
    recover,
    scan_journal,
    truncate_torn_tail,
)
from repro.serving.journal import MAGIC, decode_claim, encode_claim

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _sparse_heritages():
    return make_heritages(size=160, n_sources=350, seed=11)


def _small():
    return make_heritages(size=24, n_sources=40, seed=2)


def _model():
    return TDHModel(max_iter=60, tol=1e-7, incremental=True)


def _cold():
    return TDHModel(max_iter=60, tol=1e-7)


def _seeded_writes(dataset, n, seed, n_workers=5, p_truth=0.7):
    """Same construction as tests/test_serving.py: a seeded crowd round."""
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


def run(coro):
    return asyncio.run(coro)


def _sweep(tickets):
    """Retrieve every resolved ticket so no 'exception never retrieved'
    reaches the loop's exception handler at GC time."""
    for ticket in tickets:
        if ticket is None:
            continue
        if ticket.done():
            if not ticket.cancelled():
                ticket.exception()
        else:
            ticket.cancel()


# ---------------------------------------------------------------------------
# journal unit level
# ---------------------------------------------------------------------------
def test_journal_round_trip_and_counters(tmp_path):
    path = tmp_path / "j.wal"
    dataset = _small()
    journal = WriteAheadJournal(path, fsync="always")
    assert journal.is_fresh
    journal.append_base(dataset)
    obj = dataset.objects[0]
    value = dataset.candidates(obj)[0]
    claims = [Answer(obj, "w0", value), Record(obj, "src-x", value)]
    assert journal.append_batch(claims) == 0
    assert journal.append_batch([Answer(obj, "w1", value)]) == 1
    journal.append_checkpoint(
        epoch=1, dataset_version=7, records_version=3, applied_writes=3
    )
    assert journal.fsyncs >= journal.records_appended == 4
    journal.close()
    assert journal.closed

    scan = scan_journal(path)
    assert [e["kind"] for e in scan.entries] == ["base", "batch", "batch", "checkpoint"]
    assert scan.truncated_records == 0 and scan.truncated_bytes == 0
    assert scan.valid_end == scan.file_bytes
    assert scan.base["records"] == [
        [r.object, r.source, r.value] for r in dataset.iter_records()
    ]
    assert [decode_claim(i) for i in scan.entries[1]["writes"]] == claims
    assert scan.last_checkpoint["epoch"] == 1
    assert truncate_torn_tail(path, scan) == 0  # clean file: nothing to cut


def test_journal_refuses_bad_policy_closed_handle_and_foreign_files(tmp_path):
    with pytest.raises(ValueError, match="fsync must be one of"):
        WriteAheadJournal(tmp_path / "x.wal", fsync="sometimes")
    journal = WriteAheadJournal(tmp_path / "x.wal")
    journal.close()
    with pytest.raises(JournalError, match="closed"):
        journal.append_batch([])
    foreign = tmp_path / "notes.txt"
    foreign.write_bytes(b"just some text, definitely not a journal")
    with pytest.raises(JournalError, match="not a truth-service journal"):
        WriteAheadJournal(foreign)
    with pytest.raises(JournalError, match="bad magic"):
        scan_journal(foreign)
    with pytest.raises(JournalError, match="cannot read"):
        scan_journal(tmp_path / "never-written.wal")


def test_encode_decode_claim_edges():
    answer = Answer("o", "w", "v")
    record = Record("o", "s", "v")
    assert decode_claim(encode_claim(answer)) == answer
    assert decode_claim(encode_claim(record)) == record
    with pytest.raises(TypeError, match="cannot journal"):
        encode_claim(("o", "s", "v"))
    with pytest.raises(JournalError, match="unknown write tag"):
        decode_claim(["z", "o", "s", "v"])


def test_fsync_policy_counts(tmp_path):
    dataset = _small()
    counts = {}
    for policy in ("always", "checkpoint", "never"):
        journal = WriteAheadJournal(tmp_path / f"{policy}.wal", fsync=policy)
        journal.append_base(dataset)
        journal.append_batch([Answer(dataset.objects[0], "w", dataset.candidates(dataset.objects[0])[0])])
        journal.append_checkpoint(
            epoch=1, dataset_version=1, records_version=0, applied_writes=1
        )
        counts[policy] = journal.fsyncs
        journal.abort()  # no final sync: the policy's count stays visible
    assert counts["always"] == 3  # every record
    assert counts["checkpoint"] == 1  # the checkpoint only
    assert counts["never"] == 0


def test_abort_after_partial_append_leaves_a_truncatable_tail(tmp_path):
    """`abort()` right after a torn append: the file carries a partial
    frame, the handle is dead, and the counters never claimed the record."""
    path = tmp_path / "partial.wal"
    dataset = _small()
    faults = FaultInjector(seed=13)
    journal = WriteAheadJournal(path, fsync="always", faults=faults)
    journal.append_base(dataset)
    obj = dataset.objects[0]
    claim = Answer(obj, "w0", dataset.candidates(obj)[0])
    journal.append_batch([claim])
    appended_before = journal.records_appended
    bytes_before = journal.bytes_appended
    faults.arm("journal.torn", hit=faults.counts["journal.torn"] + 1, torn=True)
    with pytest.raises(InjectedTornWrite):
        journal.append_batch([Answer(obj, "w1", dataset.candidates(obj)[0])])
    # The partial frame was never accounted as appended...
    assert journal.records_appended == appended_before
    assert journal.bytes_appended == bytes_before
    # ... but seq was consumed only by the *complete* append.
    assert journal.batch_seq == 1
    journal.abort()
    assert journal.closed
    with pytest.raises(JournalError, match="closed"):
        journal.append_batch([claim])
    # The file really is longer than its valid prefix; truncation heals it.
    scan = scan_journal(path)
    assert scan.truncated_records == 1
    assert scan.truncated_bytes > 0
    assert scan.valid_end < scan.file_bytes
    assert [e["kind"] for e in scan.entries] == ["base", "batch"]
    cut = truncate_torn_tail(path, scan)
    assert cut == scan.truncated_bytes
    healed = scan_journal(path)
    assert healed.truncated_records == 0
    assert healed.valid_end == healed.file_bytes
    assert [decode_claim(w) for w in healed.entries[1]["writes"]] == [claim]


def test_stats_survive_close(tmp_path):
    """`stats()` is a post-mortem tool too: it must work on a closed (or
    aborted) journal and keep reporting the on-disk size."""
    path = tmp_path / "postmortem.wal"
    dataset = _small()
    journal = WriteAheadJournal(path, fsync="checkpoint")
    journal.append_base(dataset)
    obj = dataset.objects[0]
    journal.append_batch([Answer(obj, "w0", dataset.candidates(obj)[0])])
    live = journal.stats()
    assert live["closed"] is False
    journal.close()
    dead = journal.stats()
    assert dead["closed"] is True
    assert dead["records_appended"] == live["records_appended"] == 2
    assert dead["bytes_appended"] == live["bytes_appended"]
    assert dead["file_bytes"] == path.stat().st_size > 0
    assert dead["fsync"] == "checkpoint"
    journal.close()  # idempotent
    assert journal.stats()["closed"] is True
    # And on a file deleted out from under it, stats degrade to zero bytes
    # instead of raising — it is a diagnostics call.
    path.unlink()
    assert journal.stats()["file_bytes"] == 0


def test_fsync_never_torn_tail_accounting(tmp_path):
    """Under ``fsync="never"`` a torn tail can span *several* buffered
    records. Scan accounting must charge every lost record, and
    ``truncate_torn_tail`` must cut exactly the invalid span."""
    path = tmp_path / "never.wal"
    dataset = _small()
    journal = WriteAheadJournal(path, fsync="never")
    journal.append_base(dataset)
    obj = dataset.objects[0]
    value = dataset.candidates(obj)[0]
    for i in range(4):
        journal.append_batch([Answer(obj, f"w{i}", value)])
    journal.abort()  # simulated power cut: nothing was ever fsynced
    assert journal.fsyncs == 0
    # Flush still happened per-append (write() to the page cache), so the
    # frames are in the file; hand-cut the tail 3 bytes into the
    # second-to-last frame to model the cache half-making it to disk —
    # one record torn mid-frame, one vanished entirely.
    blob = path.read_bytes()
    clean = scan_journal(path)
    assert len(clean.entries) == 5
    torn_at = clean.spans[3][0] + 3
    path.write_bytes(blob[:torn_at])
    scan = scan_journal(path)
    assert len(scan.entries) == 3
    assert scan.truncated_records == 1  # one contiguous invalid span
    assert scan.valid_end == clean.spans[2][1]
    assert scan.truncated_bytes == torn_at - scan.valid_end
    cut = truncate_torn_tail(path, scan)
    assert cut == scan.truncated_bytes
    healed = scan_journal(path)
    assert healed.truncated_records == 0
    assert healed.file_bytes == scan.valid_end
    assert [e["kind"] for e in healed.entries] == ["base", "batch", "batch"]
    # The healed journal replays: exactly the surviving writes.
    _rebuilt, stats = rebuild_dataset(healed)
    assert stats["batches"] == 2
    assert stats["applied"] == 2


# ---------------------------------------------------------------------------
# the kill matrix: every injection site, recovered == cold(journaled prefix)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("hit", [1, 2, 3])
@pytest.mark.parametrize("site", FaultInjector.SITES)
def test_kill_matrix_recovers_exactly_the_journaled_prefix(tmp_path, site, hit):
    """Crash at (site, hit); the recovered service must serve exactly a cold
    fit of ``rebuild_dataset`` of the file the crash left, resume with dense
    epochs, and keep serving fresh writes."""
    path = tmp_path / "svc.wal"
    stream_src = _sparse_heritages()

    async def scenario():
        base = _sparse_heritages()
        faults = FaultInjector(seed=13).arm(site, hit)
        journal = WriteAheadJournal(path, fsync="always", faults=faults)
        service = TruthService(
            base, _model(), batch_max=64, journal=journal, faults=faults
        )
        tickets = []
        crashed = False
        pre_crash = None
        try:
            await service.start(run_worker=False)
            pre_crash = service.latest
        except Exception:
            crashed = True
        if not crashed:
            for round_no in range(3):
                for a in _seeded_writes(stream_src, 12, seed=round_no):
                    tickets.append(
                        await service.append_answer(a.object, a.worker, a.value)
                    )
                if round_no == 1:  # journaled, then rejected — live and on replay
                    tickets.append(
                        await service.append_answer(
                            stream_src.objects[0], "bad", "no-such-value"
                        )
                    )
                try:
                    await service.worker.step()
                    pre_crash = service.latest
                except Exception:
                    crashed = True
                    break
        service.crash()
        _sweep(tickets)

        scan = scan_journal(path)
        if scan.base is None:
            # The crash predated base durability: nothing recoverable, and
            # recovery must refuse loudly instead of serving an empty corpus.
            with pytest.raises(JournalError, match="no decodable base"):
                await recover(path, _model(), run_worker=False)
            return None

        recovered, report = await recover(path, _model(), run_worker=False)
        reads = recovered.get_truths()
        confidences = {
            o: recovered.latest.result.confidences[o] for o in recovered.latest.truths
        }
        # the oracle: the journaled prefix as it stood at recovery time —
        # captured now, before the fresh round below extends the journal
        expected_ds, replay = rebuild_dataset(scan_journal(path))
        # the recovered service keeps serving: a fresh round lands at the
        # next dense epoch
        fresh_tickets = []
        for a in _seeded_writes(stream_src, 8, seed=99):
            fresh_tickets.append(
                await recovered.append_answer(a.object, a.worker, a.value)
            )
        next_snap = await recovered.worker.step()
        _sweep(fresh_tickets)
        await recovered.stop()
        return (
            faults, crashed, pre_crash, report, reads, confidences,
            expected_ds, replay, next_snap,
        )

    out = run(scenario())
    if out is None:
        return
    (
        faults, crashed, pre_crash, report, reads, confidences,
        expected_ds, replay, next_snap,
    ) = out
    # a fired plan crashed the run; an unfired plan must have left it clean
    assert crashed == bool(faults.fired)

    expected = _cold().fit(expected_ds)
    assert {o: r.value for o, r in reads.items()} == expected.truths()
    for obj, conf in confidences.items():  # bitwise, not merely close
        assert np.array_equal(conf, expected.confidences[obj])
    assert report.writes_replayed == replay["applied"]
    assert report.writes_rejected == replay["rejected"]

    # dense epochs and non-regressing stamps across the restart
    stamps = {(r.epoch, r.dataset_version, r.records_version) for r in reads.values()}
    assert stamps == {
        (report.resume_epoch, expected_ds.version, expected_ds.records_version)
    }
    if pre_crash is not None:
        assert report.resume_epoch >= pre_crash.epoch
        assert expected_ds.version >= pre_crash.dataset_version
    assert next_snap.epoch == report.resume_epoch + 1


def test_clean_shutdown_recovery_replays_rejects_identically(tmp_path):
    """No faults at all: recover a cleanly stopped journal; replay rejects
    exactly the writes the live service rejected, and the recovered truths
    equal the live drained truths."""
    path = tmp_path / "clean.wal"
    stream_src = _sparse_heritages()

    async def scenario():
        base = _sparse_heritages()
        service = TruthService(
            base, _model(), batch_max=64, journal=WriteAheadJournal(path)
        )
        await service.start(run_worker=False)
        bad_tickets = []
        for round_no in range(3):
            for a in _seeded_writes(stream_src, 10, seed=round_no):
                await service.append_answer(a.object, a.worker, a.value)
            bad_tickets.append(
                await service.append_answer(
                    stream_src.objects[round_no], "bad", "not-a-candidate"
                )
            )
            await service.worker.step()
        live_final = service.latest
        await service.stop()
        for ticket in bad_tickets:
            with pytest.raises(DatasetError):
                ticket.result()

        recovered, report = await recover(path, _model(), run_worker=False)
        reads = recovered.get_truths()
        await recovered.stop()
        return service, live_final, report, reads

    service, live_final, report, reads = run(scenario())
    assert service.metrics.writes_rejected == 3
    assert report.writes_rejected == 3  # identical rejections on replay
    assert report.writes_replayed == service.metrics.writes_applied
    assert report.truncated_records == 0 and report.tail_bytes_dropped == 0
    assert report.checkpoint_epoch == live_final.epoch == 3
    assert report.resume_epoch == 4
    assert {o: r.value for o, r in reads.items()} == live_final.truths


def test_double_recovery_keeps_epochs_dense(tmp_path):
    """Crash, recover, write, crash again, recover again: epochs stay dense
    across both restarts and the final truths equal the accepted stream."""
    path = tmp_path / "twice.wal"
    stream_src = _sparse_heritages()

    async def scenario():
        base = _sparse_heritages()
        service = TruthService(
            base, _model(), batch_max=64, journal=WriteAheadJournal(path)
        )
        await service.start(run_worker=False)
        for a in _seeded_writes(stream_src, 10, seed=0):
            await service.append_answer(a.object, a.worker, a.value)
        await service.worker.step()
        service.crash()  # epoch 1 published + checkpointed, then death

        first, report1 = await recover(path, _model(), run_worker=False)
        for a in _seeded_writes(stream_src, 10, seed=1):
            await first.append_answer(a.object, a.worker, a.value)
        snap = await first.worker.step()
        first.crash()

        second, report2 = await recover(path, _model(), run_worker=False)
        reads = second.get_truths()
        await second.stop()
        return report1, snap, report2, reads

    report1, snap, report2, reads = run(scenario())
    assert report1.resume_epoch == 2  # checkpoints 0 and 1 survived
    assert snap.epoch == 3
    assert report2.resume_epoch == 4  # ... and 2 (recovery publish) and 3
    assert report2.batches_replayed == 2
    expected_ds, _ = rebuild_dataset(scan_journal(path))
    assert {o: r.value for o, r in reads.items()} == _cold().fit(expected_ds).truths()


# ---------------------------------------------------------------------------
# torn tails & flipped bytes
# ---------------------------------------------------------------------------
def _clean_journaled_run(path, rounds=3, per_round=10):
    base = _sparse_heritages()
    stream_src = _sparse_heritages()

    async def scenario():
        service = TruthService(
            base, _model(), batch_max=64, journal=WriteAheadJournal(path, fsync="always")
        )
        await service.start(run_worker=False)
        for round_no in range(rounds):
            for a in _seeded_writes(stream_src, per_round, seed=round_no):
                await service.append_answer(a.object, a.worker, a.value)
            await service.worker.step()
        final = service.latest
        await service.stop()
        return final

    return run(scenario())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_torn_tail_random_truncation_drops_only_the_torn_record(tmp_path, seed):
    path = tmp_path / "torn.wal"
    _clean_journaled_run(path)
    whole = scan_journal(path)
    assert whole.truncated_records == 0
    last_start, last_end = whole.spans[-1]
    cut = random.Random(seed).randrange(last_start + 1, last_end)
    with open(path, "r+b") as fh:
        fh.truncate(cut)

    torn = scan_journal(path)
    assert torn.entries == whole.entries[:-1]  # only the torn record is lost
    assert torn.truncated_records == 1
    assert torn.truncated_bytes == cut - last_start

    async def scenario():
        recovered, report = await recover(path, _model(), run_worker=False)
        reads = recovered.get_truths()
        await recovered.stop()
        return report, reads

    report, reads = run(scenario())
    assert report.truncated_records == 1
    assert report.tail_bytes_dropped == cut - last_start
    expected_ds, _ = rebuild_dataset(scan_journal(path))
    assert {o: r.value for o, r in reads.items()} == _cold().fit(expected_ds).truths()
    # the tail was physically cut, then the recovered service's own initial
    # publish appended a fresh checkpoint right at the old valid end — the
    # file is whole again, no corrupt spans left behind
    healed = scan_journal(path)
    assert healed.truncated_records == 0
    assert healed.spans[-1][0] == torn.valid_end
    assert healed.entries[-1]["kind"] == "checkpoint"
    assert healed.entries[-1]["epoch"] == report.resume_epoch


def test_mid_file_flipped_byte_costs_exactly_that_record(tmp_path):
    path = tmp_path / "flip.wal"
    _clean_journaled_run(path)
    whole = scan_journal(path)
    victim = next(
        i for i, e in enumerate(whole.entries) if e["kind"] == "batch"
    )
    start, end = whole.spans[victim]
    buf = bytearray(path.read_bytes())
    flip_at = (start + end) // 2
    buf[flip_at] ^= 0xFF
    path.write_bytes(bytes(buf))

    damaged = scan_journal(path)
    assert len(damaged.entries) == len(whole.entries) - 1
    assert damaged.entries == whole.entries[:victim] + whole.entries[victim + 1 :]
    assert damaged.truncated_records == 1  # one contiguous corrupt span
    assert damaged.valid_end == whole.valid_end  # the tail still verifies

    async def scenario():
        recovered, report = await recover(path, _model(), run_worker=False)
        reads = recovered.get_truths()
        await recovered.stop()
        return report, reads

    report, reads = run(scenario())
    assert report.truncated_records == 1
    assert report.tail_bytes_dropped == 0  # mid-file damage: nothing to cut
    assert report.batches_replayed == len(whole.batches) - 1
    expected_ds, _ = rebuild_dataset(scan_journal(path))
    assert {o: r.value for o, r in reads.items()} == _cold().fit(expected_ds).truths()


def test_corrupt_base_record_refuses_recovery(tmp_path):
    path = tmp_path / "nobase.wal"
    _clean_journaled_run(path, rounds=1)
    whole = scan_journal(path)
    start, end = whole.spans[0]
    buf = bytearray(path.read_bytes())
    buf[(start + end) // 2] ^= 0xFF
    path.write_bytes(bytes(buf))
    assert scan_journal(path).base is None
    with pytest.raises(JournalError, match="no decodable base"):
        rebuild_dataset(path)

    async def scenario():
        with pytest.raises(JournalError, match="no decodable base"):
            await recover(path, _model())

    run(scenario())


def test_garbage_between_magic_and_nothing_else(tmp_path):
    path = tmp_path / "garbage.wal"
    path.write_bytes(MAGIC + b"\xde\xad\xbe\xef" * 16)
    scan = scan_journal(path)
    assert scan.entries == [] and scan.truncated_records == 1
    assert truncate_torn_tail(path, scan) == 64
    assert path.read_bytes() == MAGIC


# ---------------------------------------------------------------------------
# liveness: off-loop fits, fail-stop refusal
# ---------------------------------------------------------------------------
def _max_read_gap():
    """Drive one slow (0.5 s injected) refit with the worker task live and a
    reader polling; return the reader's worst inter-read wall-clock gap."""
    base = _sparse_heritages()

    async def scenario():
        faults = FaultInjector().arm("worker.fit", hit=2, delay=0.5)
        service = TruthService(base, _model(), faults=faults)
        await service.start()
        obj = base.objects[0]
        await service.append_answer(obj, "slow", base.candidates(obj)[0])
        gaps = []
        t_prev = time.perf_counter()
        deadline = t_prev + 5.0
        while time.perf_counter() < deadline:
            # gap measured at the top so the iteration *after* a stalled
            # sleep still records the stall before the loop exits
            read = service.get_truth(obj)
            assert read.epoch >= 0
            now = time.perf_counter()
            gaps.append(now - t_prev)
            t_prev = now
            if service.latest.epoch != 0:
                break
            await asyncio.sleep(0.005)
        assert service.latest.epoch == 1  # the slow fit did land
        await service.stop()
        return max(gaps)

    return run(scenario())


def test_reads_stay_responsive_during_off_loop_fit():
    assert _max_read_gap() < 0.25


def test_failed_journal_append_fail_stops_and_refuses_writes(tmp_path):
    path = tmp_path / "failstop.wal"
    base = _sparse_heritages()

    async def scenario():
        faults = FaultInjector().arm("journal.append", hit=2)  # 1 = base record
        service = TruthService(
            base,
            _model(),
            journal=WriteAheadJournal(path, faults=faults),
            faults=faults,
        )
        await service.start()
        obj = base.objects[0]
        ticket = await service.append_answer(obj, "fs", base.candidates(obj)[0])
        with pytest.raises(InjectedFault, match="journal.append"):
            await ticket
        for _ in range(50):  # let the worker task finish dying
            if not service.stats()["worker_alive"]:
                break
            await asyncio.sleep(0.01)
        assert not service.stats()["worker_alive"]
        with pytest.raises(ServiceClosed, match="EM worker has stopped"):
            await service.append_answer(obj, "fs2", base.candidates(obj)[0])
        # reads survive the fail-stop: the last published snapshot serves on
        assert service.get_truth(obj).epoch == 0
        service.crash()

        recovered, report = await recover(path, _model(), run_worker=False)
        reads = recovered.get_truths()
        await recovered.stop()
        return service, report, reads

    service, report, reads = run(scenario())
    assert service.metrics.journal_failures == 1
    assert service.metrics.worker_failures == 1
    assert report.batches_replayed == 0  # the batch never became durable
    expected_ds, _ = rebuild_dataset(scan_journal(path))
    assert {o: r.value for o, r in reads.items()} == _cold().fit(expected_ds).truths()


def test_crash_with_live_worker_mid_stream_recovers_a_prefix(tmp_path):
    path = tmp_path / "midstream.wal"
    base = _sparse_heritages()
    stream_src = _sparse_heritages()

    async def scenario():
        service = TruthService(
            base,
            _model(),
            batch_max=8,
            journal=WriteAheadJournal(path, fsync="always"),
        )
        await service.start()
        sent = 0
        for a in _seeded_writes(stream_src, 40, seed=4):
            await service.append_answer(a.object, a.worker, a.value)
            sent += 1
            if sent % 10 == 0:
                await asyncio.sleep(0.002)  # let some batches journal + land
        service.crash()  # kill-9 mid-stream: enqueued-but-unjournaled writes die

        recovered, report = await recover(path, _model(), run_worker=False)
        reads = recovered.get_truths()
        await recovered.stop()
        return sent, report, reads

    sent, report, reads = run(scenario())
    assert report.writes_replayed + report.writes_rejected <= sent
    expected_ds, _ = rebuild_dataset(scan_journal(path))
    assert {o: r.value for o, r in reads.items()} == _cold().fit(expected_ds).truths()


def test_recovery_report_round_trips_to_plain_dict(tmp_path):
    path = tmp_path / "report.wal"
    _clean_journaled_run(path, rounds=1)

    async def scenario():
        recovered, report = await recover(path, _model(), run_worker=False)
        await recovered.stop()
        return report

    report = run(scenario())
    as_dict = report.as_dict()
    assert as_dict["path"] == str(path)
    assert as_dict["batches_replayed"] == 1
    assert as_dict["resume_epoch"] == 2
    assert as_dict["replay_seconds"] > 0
    assert set(as_dict) >= {
        "entries",
        "writes_replayed",
        "writes_rejected",
        "truncated_records",
        "truncated_bytes",
        "tail_bytes_dropped",
        "checkpoint_epoch",
        "dataset_version",
        "records_version",
    }


def test_fault_injector_refuses_unknown_sites_and_bad_hits():
    faults = FaultInjector()
    with pytest.raises(ValueError, match="unknown injection site"):
        faults.arm("journal.reticulate")
    with pytest.raises(ValueError, match="hit must be"):
        faults.arm("worker.fit", hit=0)
    faults.arm("worker.fit", hit=2)
    assert faults.armed("worker.fit")
    assert faults.check("worker.fit") is None  # hit 1: not yet
    with pytest.raises(InjectedFault):
        faults.check("worker.fit")
    assert not faults.armed("worker.fit")  # one-shot
    assert faults.check("worker.fit") is None  # disarmed: clean passes
    assert faults.fired == [("worker.fit", 2)]
    assert faults.counts["worker.fit"] == 3
