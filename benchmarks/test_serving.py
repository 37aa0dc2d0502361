"""Serving-layer load benchmark: sustained write throughput + read latency.

Drives a live :class:`~repro.serving.TruthService` (real worker task, real
asyncio scheduling) over the same sparse 5,000-object substrate the
incremental-EM benchmark uses — 5 uniform claims per object from a 15,000
source pool, so a micro-batch's dirty frontier stays a small fraction of the
dataset and the steady-state refits run on the incremental path.

The load shape is deliberately *append-only*: each concurrent writer owns a
disjoint partition of the objects and a private worker id, so no
``(object, worker)`` pair repeats and the write stream never triggers the
in-place-overwrite oplog clear (overwrite handling is covered functionally
in ``tests/test_serving.py``; here we benchmark the hot path). Concurrent
readers time ``get_truths`` over a fixed 32-object sample throughout the run.

A *mixed-traffic* fixture then reruns a smaller load with answer writers
plus a claims writer appending records that grow the slot layout — fresh
sources naming brand-new candidate values, plus brand-new objects. Its
``mixed_traffic`` artifact section records the steady-state incremental
fraction (1.0 = every post-startup batch rode the frontier), the
``warm_start_degradations`` counter (0 = the slot-growth splice served every
record append warm), and truth agreement against a cold fit of a mirror
dataset fed the identical stream.

Results land in ``BENCH_service.json`` (at the repo root with
``REPRO_WRITE_BENCH=1``, else in a session temp directory; a separate artifact
from ``BENCH_columnar.json`` — this one is service-level: writes/sec and
read-latency percentiles, not per-engine speedups). Deterministic shape
assertions (every write applied, truths match a cold fit of the identical
final state) run in the default suite; the throughput/latency thresholds are
``slow``-marked so only the non-blocking CI bench job can fail on a loaded
runner.

A second module fixture reruns the identical load with a write-ahead journal
attached (``fsync="checkpoint"``), then times a full crash recovery of the
resulting 5k-object journal — the ``journal`` / ``recovery`` sections of the
artifact quantify what durability costs (journal-on vs journal-off
writes/sec) and what a restart costs (replay seconds vs the recovery's total
including its initial refit).
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.data.model import Answer, Record, TruthDiscoveryDataset
from repro.datasets.geography import make_geography, sample_truths
from repro.datasets.synthetic import _claim_value, _wrong_pool
from repro.inference import TDHModel
from repro.serving import (
    LatencyRecorder,
    TruthService,
    WriteAheadJournal,
    rebuild_dataset,
    recover,
    scan_journal,
)


N_OBJECTS = 5000
N_SOURCES = 15000
CLAIMS_PER_OBJECT = 5
N_WRITERS = 4
WRITES_PER_WRITER = 48
TOTAL_WRITES = N_WRITERS * WRITES_PER_WRITER
BATCH_MAX = 64
READ_SAMPLE = 32
MIN_WRITES_PER_SEC = 20.0
MAX_READ_P99_US = 50_000.0
MIN_JOURNAL_WRITES_PER_SEC = 10.0
MAX_REPLAY_SECONDS = 30.0
MIXED_WRITES_PER_WRITER = 24
MIXED_CLAIMS = 12
COMPACT_HISTORY = 8000  # single-write batches: a long-history journal
MIN_COMPACTION_REPLAY_REDUCTION = 5.0


def make_sparse_dataset(seed: int = 29) -> TruthDiscoveryDataset:
    """The incremental benchmark's substrate (duplicated: benchmarks/ is not
    a package): uniform sparse claims, claimant degree ~O(1)."""
    rng = np.random.default_rng(seed)
    hierarchy = make_geography(
        height=5, branching=(4, 6, 5, 4, 2), rng=rng, max_nodes=3000
    )
    truths = sample_truths(hierarchy, N_OBJECTS, rng, min_depth=2)
    objects = [f"entity_{i}" for i in range(N_OBJECTS)]
    gold = dict(zip(objects, truths))
    pool = _wrong_pool(hierarchy, rng)
    records: List[Record] = []
    for obj, truth in zip(objects, truths):
        misinformation = pool[int(rng.integers(len(pool)))]
        chosen = rng.choice(N_SOURCES, size=CLAIMS_PER_OBJECT, replace=False)
        for idx in chosen:
            value = _claim_value(
                truth, hierarchy, (0.7, 0.2, 0.1), misinformation, pool, rng
            )
            records.append(Record(obj, f"src_{idx}", value))
    return TruthDiscoveryDataset(hierarchy, records, gold=gold, name="sparse5k")


def writer_stream(dataset: TruthDiscoveryDataset, writer_id: int, seed: int = 41):
    """``(object, worker, value)`` triples for one writer: a disjoint object
    partition and a private worker id keep the combined stream append-only."""
    rng = np.random.default_rng(seed + writer_id)
    partition = dataset.objects[writer_id::N_WRITERS]
    picks = rng.choice(len(partition), size=WRITES_PER_WRITER, replace=False)
    stream = []
    for i in picks:
        obj = partition[int(i)]
        candidates = sorted(dataset.candidates(obj), key=str)
        truth = dataset.gold[obj]
        value = (
            truth
            if truth in candidates and rng.random() < 0.7
            else candidates[int(rng.integers(len(candidates)))]
        )
        stream.append((obj, f"bench_w{writer_id}", value))
    return stream


def claim_stream(dataset: TruthDiscoveryDataset, seed: int = 97):
    """``(object, source, value)`` triples that grow the slot layout: fresh
    sources naming a candidate value brand-new to each picked object, plus
    two brand-new objects — every one an append (no overwrites), so the
    warm-start gate must serve all of them incrementally."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(dataset.objects), size=MIXED_CLAIMS - 2, replace=False)
    claims = []
    for n, i in enumerate(picks):
        obj = dataset.objects[int(i)]
        candidates = dataset.candidates(obj)
        fresh = next(
            v for v in dataset.hierarchy.non_root_nodes() if v not in candidates
        )
        claims.append((obj, f"mx_src_{n}", fresh))
    value = next(iter(dataset.hierarchy.non_root_nodes()))
    claims.append(("mx_entity_a", "mx_src_new_a", value))
    claims.append(("mx_entity_b", "mx_src_new_b", value))
    return claims


@pytest.fixture(scope="module")
def artifact(bench_artifact_dir) -> Path:
    return bench_artifact_dir / "BENCH_service.json"


@pytest.fixture(scope="module")
def serving_report(artifact) -> Dict[str, object]:
    base = make_sparse_dataset()
    mirror = make_sparse_dataset()
    streams = [writer_stream(base, k) for k in range(N_WRITERS)]
    read_latency = LatencyRecorder()
    sample = base.objects[:: N_OBJECTS // READ_SAMPLE][:READ_SAMPLE]

    async def load() -> Dict[str, object]:
        service = TruthService(
            base,
            TDHModel(incremental=True),
            max_pending=512,
            batch_max=BATCH_MAX,
        )
        writing = True

        async def writer(stream) -> None:
            for n, (obj, worker, value) in enumerate(stream):
                await service.append_answer(obj, worker, value)
                if n % 8 == 0:
                    await asyncio.sleep(0)

        async def reader() -> None:
            while writing:
                t0 = time.perf_counter()
                reads = service.get_truths(sample)
                read_latency.record(time.perf_counter() - t0)
                assert len({r.epoch for r in reads.values()}) == 1
                await asyncio.sleep(0)

        async with service:
            t_start = time.perf_counter()
            reader_task = asyncio.create_task(reader())
            await asyncio.gather(*(writer(s) for s in streams))
            final = await service.drain()
            run_seconds = time.perf_counter() - t_start
            writing = False
            await reader_task
        stats = service.stats()
        return {
            "stats": stats,
            "final_epoch": final.epoch,
            "final_truths": dict(final.truths),
            "run_seconds": run_seconds,
        }

    outcome = asyncio.run(load())
    stats = outcome["stats"]

    for stream in streams:  # identical stream onto the mirror, then cold-fit it
        for obj, worker, value in stream:
            mirror.add_answer(Answer(obj, worker, value))
    cold_truths = TDHModel().fit(mirror).truths()
    final_truths = outcome["final_truths"]
    agreement = float(
        np.mean([final_truths[o] == t for o, t in cold_truths.items()])
    )

    latency = read_latency.summary()
    report: Dict[str, object] = {
        "objects": N_OBJECTS,
        "claims": N_OBJECTS * CLAIMS_PER_OBJECT,
        "writers": N_WRITERS,
        "writes": TOTAL_WRITES,
        "batch_max": BATCH_MAX,
        "run_seconds": outcome["run_seconds"],
        "writes_applied": stats["writes_applied"],
        "writes_per_sec": stats["writes_applied"] / outcome["run_seconds"],
        "batches": stats["batches"],
        "final_epoch": outcome["final_epoch"],
        "fits_incremental": stats["fits_incremental"],
        "fits_cold": stats["fits_cold"],
        "fit_seconds_total": stats["fit_seconds_total"],
        "read_latency": {
            "sample_objects": len(sample),
            "count": latency.get("count", 0),
            "p50_us": latency.get("p50_us"),
            "p99_us": latency.get("p99_us"),
        },
        "truth_agreement": agreement,
    }
    artifact.write_text(json.dumps(report, indent=2) + "\n")
    return report


@pytest.fixture(scope="module")
def journal_report(serving_report, artifact, tmp_path_factory) -> Dict[str, object]:
    """The identical load journal-on vs journal-off, then a timed recovery.

    Both runs happen back-to-back inside this fixture (after
    ``serving_report`` has already warmed the process) so the journal-on /
    journal-off writes/sec comparison is like for like — comparing against
    the *first* load of the process would mostly measure warm-up. Merges
    ``journal`` and ``recovery`` sections into the artifact.
    """
    path = tmp_path_factory.mktemp("wal") / "bench.wal"

    async def load(journal) -> Dict[str, object]:
        base = make_sparse_dataset()
        streams = [writer_stream(base, k) for k in range(N_WRITERS)]
        sample = base.objects[:: N_OBJECTS // READ_SAMPLE][:READ_SAMPLE]
        service = TruthService(
            base,
            TDHModel(incremental=True),
            max_pending=512,
            batch_max=BATCH_MAX,
            journal=journal,
        )
        writing = True

        async def writer(stream) -> None:
            for n, (obj, worker, value) in enumerate(stream):
                await service.append_answer(obj, worker, value)
                if n % 8 == 0:
                    await asyncio.sleep(0)

        async def reader() -> None:
            while writing:
                reads = service.get_truths(sample)
                assert len({r.epoch for r in reads.values()}) == 1
                await asyncio.sleep(0)

        async with service:
            t_start = time.perf_counter()
            reader_task = asyncio.create_task(reader())
            await asyncio.gather(*(writer(s) for s in streams))
            final = await service.drain()
            run_seconds = time.perf_counter() - t_start
            writing = False
            await reader_task
        return {
            "stats": service.stats(),
            "final_epoch": final.epoch,
            "final_truths": dict(final.truths),
            "run_seconds": run_seconds,
        }

    async def recover_timed() -> Dict[str, object]:
        t_recover = time.perf_counter()
        recovered, recovery = await recover(
            path, TDHModel(incremental=True), run_worker=False
        )
        recover_total_seconds = time.perf_counter() - t_recover
        recovered_truths = {o: r.value for o, r in recovered.get_truths().items()}
        await recovered.stop()
        return {
            "recovery": recovery,
            "recover_total_seconds": recover_total_seconds,
            "recovered_truths": recovered_truths,
        }

    baseline = asyncio.run(load(None))
    outcome = asyncio.run(load(WriteAheadJournal(path, fsync="checkpoint")))
    recovered = asyncio.run(recover_timed())
    stats = outcome["stats"]
    recovery = recovered["recovery"]
    baseline_wps = baseline["stats"]["writes_applied"] / baseline["run_seconds"]
    journal_wps = stats["writes_applied"] / outcome["run_seconds"]
    sections: Dict[str, object] = {
        "journal": {
            "fsync": "checkpoint",
            "writes": TOTAL_WRITES,
            "writes_applied": stats["writes_applied"],
            "run_seconds": outcome["run_seconds"],
            "writes_per_sec": journal_wps,
            "baseline_writes_per_sec": baseline_wps,
            "overhead_pct": 100.0 * (1.0 - journal_wps / baseline_wps),
            "records_appended": stats["journal"]["records_appended"],
            "bytes_appended": stats["journal"]["bytes_appended"],
            "fsyncs": stats["journal"]["fsyncs"],
            "file_bytes": stats["journal"]["file_bytes"],
        },
        "recovery": {
            "objects": N_OBJECTS,
            "entries": recovery.entries,
            "batches_replayed": recovery.batches_replayed,
            "writes_replayed": recovery.writes_replayed,
            "truncated_records": recovery.truncated_records,
            "resume_epoch": recovery.resume_epoch,
            "replay_seconds": recovery.replay_seconds,
            "total_recover_seconds": recovered["recover_total_seconds"],
        },
    }
    data = json.loads(artifact.read_text())
    data.update(sections)
    artifact.write_text(json.dumps(data, indent=2) + "\n")
    return {
        "final_epoch": outcome["final_epoch"],
        "final_truths": outcome["final_truths"],
        "recovered_truths": recovered["recovered_truths"],
        "recovery_report": recovery,
        **sections,
    }


@pytest.fixture(scope="module")
def mixed_report(serving_report, artifact) -> Dict[str, object]:
    """Mixed claim+answer traffic: answer writers plus a claims writer whose
    records grow the slot layout (brand-new candidate values, brand-new
    objects). Steady state must stay on the incremental path — the
    slot-growth splice, not a cold refit, absorbs each record append — and
    the served truths must track a cold fit of the identical final state.
    Merges a ``mixed_traffic`` section into the artifact."""
    base = make_sparse_dataset()
    mirror = make_sparse_dataset()
    answer_streams = [
        writer_stream(base, k)[:MIXED_WRITES_PER_WRITER] for k in range(N_WRITERS)
    ]
    claims = claim_stream(base)
    total_writes = N_WRITERS * MIXED_WRITES_PER_WRITER + MIXED_CLAIMS

    async def load() -> Dict[str, object]:
        service = TruthService(
            base,
            TDHModel(incremental=True),
            max_pending=512,
            batch_max=BATCH_MAX,
        )

        async def answer_writer(stream) -> None:
            for n, (obj, worker, value) in enumerate(stream):
                await service.append_answer(obj, worker, value)
                if n % 8 == 0:
                    await asyncio.sleep(0)

        async def claims_writer() -> None:
            for obj, source, value in claims:
                await service.append_claim(obj, source, value)
                await asyncio.sleep(0)  # interleave with the answer writers

        async with service:
            t_start = time.perf_counter()
            await asyncio.gather(
                claims_writer(), *(answer_writer(s) for s in answer_streams)
            )
            final = await service.drain()
            run_seconds = time.perf_counter() - t_start
        return {
            "stats": service.stats(),
            "final_truths": dict(final.truths),
            "run_seconds": run_seconds,
        }

    outcome = asyncio.run(load())
    stats = outcome["stats"]

    for stream in answer_streams:
        for obj, worker, value in stream:
            mirror.add_answer(Answer(obj, worker, value))
    for obj, source, value in claims:
        mirror.add_record(Record(obj, source, value))
    cold_truths = TDHModel().fit(mirror).truths()
    final_truths = outcome["final_truths"]
    agreement = float(
        np.mean([final_truths[o] == t for o, t in cold_truths.items()])
    )

    section: Dict[str, object] = {
        "objects": N_OBJECTS,
        "answers": N_WRITERS * MIXED_WRITES_PER_WRITER,
        "claims": MIXED_CLAIMS,
        "new_objects": 2,
        "writes": total_writes,
        "writes_applied": stats["writes_applied"],
        "run_seconds": outcome["run_seconds"],
        "writes_per_sec": stats["writes_applied"] / outcome["run_seconds"],
        "batches": stats["batches"],
        "fits_incremental": stats["fits_incremental"],
        "fits_cold": stats["fits_cold"],
        "incremental_fraction": stats["fits_incremental"] / max(stats["batches"], 1),
        "warm_start_degradations": stats["warm_start_degradations"],
        "warm_start_degradation_reasons": stats["warm_start_degradation_reasons"],
        "truth_agreement": agreement,
    }
    data = json.loads(artifact.read_text())
    data["mixed_traffic"] = section
    artifact.write_text(json.dumps(data, indent=2) + "\n")
    return section


@pytest.fixture(scope="module")
def compaction_report(serving_report, artifact, tmp_path_factory) -> Dict[str, object]:
    """Compaction bounds recovery replay by data size, not history length.

    Builds a deliberately long-history journal over the 5k-object substrate —
    ``COMPACT_HISTORY`` single-write batches, each followed by its
    checkpoint, the worst case frames-per-write shape a long supervised run
    produces — then times a full ``rebuild_dataset`` replay before and after
    ``compact()``. The post-compaction file is two entries (base +
    checkpoint) whatever the history was; the rebuilt claim state and
    version stamps must be identical either way. Merges a ``compaction``
    section into the artifact.
    """
    path = tmp_path_factory.mktemp("compact") / "compact.wal"
    dataset = make_sparse_dataset()
    journal = WriteAheadJournal(path, fsync="never")
    journal.append_base(dataset)
    rng = np.random.default_rng(71)
    objects = dataset.objects
    for b in range(COMPACT_HISTORY):
        obj = objects[int(rng.integers(len(objects)))]
        candidates = dataset.candidates(obj)
        claim = Answer(obj, f"cw{b}", candidates[int(rng.integers(len(candidates)))])
        journal.append_batch([claim])
        dataset.add_answer(claim)
        journal.append_checkpoint(
            epoch=b + 1,
            dataset_version=dataset.version,
            records_version=dataset.records_version,
            applied_writes=b + 1,
        )
    entries_before = len(scan_journal(path).entries)

    t0 = time.perf_counter()
    rebuilt_before, replay_before = rebuild_dataset(path)
    replay_seconds_before = time.perf_counter() - t0

    info = journal.compact(
        dataset,
        epoch=COMPACT_HISTORY,
        dataset_version=dataset.version,
        records_version=dataset.records_version,
        applied_writes=COMPACT_HISTORY,
    )
    entries_after = len(scan_journal(path).entries)

    t0 = time.perf_counter()
    rebuilt_after, replay_after = rebuild_dataset(path)
    replay_seconds_after = time.perf_counter() - t0
    journal.close()

    lossless = (
        rebuilt_before._records_by_object == rebuilt_after._records_by_object
        and rebuilt_before._answers_by_object == rebuilt_after._answers_by_object
        and rebuilt_before.version == rebuilt_after.version == dataset.version
        and rebuilt_before.records_version
        == rebuilt_after.records_version
        == dataset.records_version
    )
    section: Dict[str, object] = {
        "objects": N_OBJECTS,
        "history_batches": COMPACT_HISTORY,
        "entries_before": entries_before,
        "entries_after": entries_after,
        "bytes_before": info["before_bytes"],
        "bytes_after": info["after_bytes"],
        "batches_replayed_before": replay_before["batches"],
        "batches_replayed_after": replay_after["batches"],
        "replay_seconds_before": replay_seconds_before,
        "replay_seconds_after": replay_seconds_after,
        "replay_reduction": replay_seconds_before / replay_seconds_after,
        "lossless": lossless,
    }
    data = json.loads(artifact.read_text())
    data["compaction"] = section
    artifact.write_text(json.dumps(data, indent=2) + "\n")
    return section


def test_every_write_applied_and_truths_match_cold_fit(serving_report, artifact):
    """Deterministic half: the load was fully absorbed (no rejects, every
    write published), the steady state ran incrementally, and the served
    truths equal a cold fit of the identical final dataset."""
    assert serving_report["writes_applied"] == TOTAL_WRITES
    assert serving_report["final_epoch"] == serving_report["batches"]
    assert serving_report["fits_incremental"] > 0
    assert serving_report["truth_agreement"] >= 0.999
    assert artifact.exists()
    assert json.loads(artifact.read_text())["writes"] == TOTAL_WRITES


def test_journaled_load_is_durable_and_recovery_is_exact(journal_report, artifact):
    """Deterministic half of the durability bench: every write absorbed with
    the journal attached, recovery replayed the whole accepted stream with
    nothing truncated, and the recovered truths track the live ones."""
    assert journal_report["journal"]["writes_applied"] == TOTAL_WRITES
    report = journal_report["recovery_report"]
    assert report.writes_replayed == TOTAL_WRITES
    assert report.writes_rejected == 0
    assert report.truncated_records == 0 and report.tail_bytes_dropped == 0
    assert report.resume_epoch == journal_report["final_epoch"] + 1
    final = journal_report["final_truths"]
    recovered = journal_report["recovered_truths"]
    agreement = float(np.mean([recovered[o] == t for o, t in final.items()]))
    assert agreement >= 0.999
    data = json.loads(artifact.read_text())
    assert data["journal"]["writes"] == TOTAL_WRITES
    assert data["recovery"]["writes_replayed"] == TOTAL_WRITES


def test_mixed_traffic_stays_incremental_with_zero_degradations(mixed_report, artifact):
    """Deterministic half of the fixed cliff, service-level: under mixed
    claim+answer traffic every write is absorbed, every post-startup batch
    is served on the incremental path (the slot-growth splice — the record
    appends never degrade the warm start), and the served truths track a
    cold fit of the identical final state."""
    assert mixed_report["writes_applied"] == mixed_report["writes"]
    assert mixed_report["fits_cold"] == 1  # the epoch-0 startup fit, only
    assert mixed_report["incremental_fraction"] == 1.0, mixed_report
    assert mixed_report["warm_start_degradations"] == 0, mixed_report
    assert mixed_report["warm_start_degradation_reasons"] == {}, mixed_report
    assert mixed_report["truth_agreement"] >= 0.999, mixed_report
    data = json.loads(artifact.read_text())
    assert data["mixed_traffic"]["warm_start_degradations"] == 0


@pytest.mark.slow  # wall-clock assertion: only the non-blocking CI bench job
def test_sustained_throughput_and_read_latency(serving_report):
    """Timing half: the service sustains the write load while readers stay
    fast — thresholds are deliberately loose (shared CI runners)."""
    assert serving_report["writes_per_sec"] >= MIN_WRITES_PER_SEC, serving_report
    assert serving_report["read_latency"]["p99_us"] <= MAX_READ_P99_US, serving_report
    assert serving_report["read_latency"]["count"] > 0


def test_compaction_is_lossless_and_collapses_history(compaction_report, artifact):
    """Deterministic half: whatever the history length, the compacted file
    is exactly base + checkpoint, nothing is replayed after it, and the
    rebuilt claim state and version stamps are bitwise those of the
    long-history replay."""
    assert compaction_report["entries_before"] == 2 * COMPACT_HISTORY + 1
    assert compaction_report["entries_after"] == 2
    assert compaction_report["batches_replayed_before"] == COMPACT_HISTORY
    assert compaction_report["batches_replayed_after"] == 0
    assert compaction_report["lossless"] is True
    data = json.loads(artifact.read_text())
    assert data["compaction"]["history_batches"] == COMPACT_HISTORY


@pytest.mark.slow  # wall-clock assertion: only the non-blocking CI bench job
def test_compaction_bounds_replay_time(compaction_report):
    """Timing half: replaying the compacted journal beats replaying the
    long history by a wide margin — replay cost is bounded by data size,
    not history length."""
    assert (
        compaction_report["replay_reduction"] >= MIN_COMPACTION_REPLAY_REDUCTION
    ), compaction_report


@pytest.mark.slow  # wall-clock assertion: only the non-blocking CI bench job
def test_journal_throughput_and_replay_time(journal_report):
    """Durability must stay affordable: journaled writes/sec above a loose
    floor, and replaying the whole 5k-object journal within a loose ceiling."""
    assert (
        journal_report["journal"]["writes_per_sec"] >= MIN_JOURNAL_WRITES_PER_SEC
    ), journal_report["journal"]
    assert (
        journal_report["recovery"]["replay_seconds"] <= MAX_REPLAY_SECONDS
    ), journal_report["recovery"]
