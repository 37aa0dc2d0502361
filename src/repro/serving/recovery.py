"""Crash recovery: replay the journal, restart the service at the right epoch.

The recovery contract (the "Conditioning Probabilistic Databases" framing in
PAPERS.md): the truths a recovered service serves must be exactly those
conditioned on the **accepted durable evidence** — the journaled prefix —
never a torn suffix and never a half-applied batch. Concretely:

* :func:`scan_journal` verifies every frame (length + CRC + JSON); a torn
  or corrupt record is skipped and counted, and tail garbage is physically
  truncated before the journal is reopened for append;
* :func:`rebuild_dataset` reconstructs the base dataset from the journal's
  self-contained base record and pushes every journaled write through the
  *same validating mutators* the live worker used — a write rejected live
  is rejected identically on replay, so the rebuilt dataset equals the
  accepted prefix exactly. The same function is the supervisor's one
  in-process rollback path (:mod:`repro.serving.supervisor`);
* :func:`recover` restarts a :class:`~repro.serving.service.TruthService`
  over the rebuilt dataset with its first publish at
  ``last checkpoint epoch + 1`` and the dataset's version counters restored
  from the journal, so :class:`~repro.serving.snapshots.SnapshotStore`
  monotonicity (dense epochs, non-regressing versions) holds *across*
  process restarts, not just within one.

The recovered initial fit is a plain cold fit of the rebuilt dataset — the
property the recovery test suite pins bitwise against an out-of-band cold
fit of the same journaled prefix.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple, Union

from ..data.model import DatasetError, Record, TruthDiscoveryDataset
from ..hierarchy.tree import Hierarchy
from ..inference.base import TruthInferenceAlgorithm
from .faults import FaultInjector
from .journal import (
    JournalError,
    JournalScan,
    WriteAheadJournal,
    decode_claim,
    scan_journal,
    truncate_torn_tail,
)

if TYPE_CHECKING:  # imported lazily in recover(): the supervisor's rollback
    from .service import TruthService  # path reuses rebuild_dataset, and the
    from .supervisor import SupervisionPolicy  # service module imports it.


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery did, for logs/metrics/assertions.

    ``truncated_records``/``truncated_bytes`` count journal content lost to
    torn or corrupt frames (``tail_bytes_dropped`` of it physically cut from
    the file); ``writes_rejected`` counts journaled writes the validating
    mutators refused on replay — by construction the same writes the live
    worker refused. ``resume_epoch`` is the recovered service's first
    published epoch (last surviving checkpoint + 1, or 0 when the crash
    predated the first checkpoint).
    """

    path: str
    entries: int
    batches_replayed: int
    writes_replayed: int
    writes_rejected: int
    truncated_records: int
    truncated_bytes: int
    tail_bytes_dropped: int
    checkpoint_epoch: Optional[int]
    resume_epoch: int
    dataset_version: int
    records_version: int
    replay_seconds: float
    #: batches journaled as poison (``quarantine`` records) and excluded
    #: from the rebuilt dataset, plus the writes they carried.
    batches_quarantined: int = 0
    writes_quarantined: int = 0
    #: batch frames sharing an already-replayed sequence number (a retried
    #: append whose first frame actually survived) — applied once.
    duplicate_batches: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


def rebuild_dataset(
    source: Union[str, Path, JournalScan],
    *,
    skip_seqs: Iterable[int] = (),
) -> Tuple[TruthDiscoveryDataset, Dict[str, int]]:
    """Reconstruct the accepted-prefix dataset from a journal (or its scan).

    Returns ``(dataset, replay_stats)`` where ``replay_stats`` counts the
    batches/writes replayed and rejected plus the next batch sequence
    number. Raises :class:`JournalError` when no decodable base record
    survived (nothing can be conditioned on evidence that is gone).

    Batches named by journaled ``quarantine`` records — or by the caller's
    ``skip_seqs`` (the supervisor's rollback excludes the in-flight batch
    and every batch it quarantined this way, including one whose
    ``quarantine`` record never reached the file) — are skipped wholesale:
    a live service that quarantined a poison batch and a recovery of its
    journal condition on the same evidence. A batch frame whose sequence
    number was already replayed (a retried append whose "failed" first
    frame actually reached the file) is applied once and counted as a
    duplicate.
    """
    scan = source if isinstance(source, JournalScan) else scan_journal(source)
    base = scan.base
    if base is None:
        raise JournalError(
            f"journal {scan.path} has no decodable base record; cannot rebuild"
        )
    hierarchy = Hierarchy(root=base["root"])
    for child, parent in base["edges"]:
        hierarchy.add_edge(child, parent)
    # The base is a trusted dump (CRC-verified frame, written from a dataset
    # that validated every claim on ingestion), so it restores through the
    # bulk path: base cost stays O(data) with a small constant, and only the
    # *batches* below go through the validating mutators — they must reject
    # exactly as the live service did.
    dataset = TruthDiscoveryDataset.from_trusted_claims(
        hierarchy,
        base["records"],
        base["answers"],
        gold={o: v for o, v in base["gold"]},
        name=base.get("name", ""),
    )
    # Restore the journaled version counters: rebuilding via the constructor
    # replays only the *final* claim state, so the raw mutation count can
    # undershoot the original's (which may have seen overwrites during
    # ingestion). Pinning the counters to the journaled values makes every
    # later stamp — and therefore the checkpoint arithmetic — identical to
    # the pre-crash service's. Safe: no encoding/oplog exists yet.
    dataset._version = base["version"]
    dataset._records_version = base["records_version"]
    skip = {int(s) for s in skip_seqs}
    for entry in scan.entries[1:]:
        if entry.get("kind") == "quarantine" and isinstance(entry.get("seq"), int):
            skip.add(entry["seq"])
    batches = applied = rejected = 0
    quarantined_batches = quarantined_writes = duplicates = 0
    next_seq = 0
    replayed_seqs = set()
    for entry in scan.entries[1:]:
        if entry.get("kind") != "batch":
            continue
        seq = int(entry.get("seq", -1))
        next_seq = max(next_seq, seq + 1)
        if seq in skip:
            quarantined_batches += 1
            quarantined_writes += len(entry["writes"])
            continue
        if seq >= 0 and seq in replayed_seqs:
            duplicates += 1
            continue
        replayed_seqs.add(seq)
        batches += 1
        for item in entry["writes"]:
            claim = decode_claim(item)
            try:
                if isinstance(claim, Record):
                    dataset.add_record(claim)
                else:
                    dataset.add_answer(claim)
            except DatasetError:
                rejected += 1  # rejected live, rejected identically here
            else:
                applied += 1
    return dataset, {
        "batches": batches,
        "applied": applied,
        "rejected": rejected,
        "next_seq": next_seq,
        "quarantined_batches": quarantined_batches,
        "quarantined_writes": quarantined_writes,
        "duplicate_batches": duplicates,
    }


async def recover(
    path: Union[str, Path],
    model: Optional[TruthInferenceAlgorithm] = None,
    *,
    run_worker: bool = True,
    fsync: str = "checkpoint",
    faults: Optional[FaultInjector] = None,
    max_pending: int = 1024,
    batch_max: int = 256,
    supervision: Optional["SupervisionPolicy"] = None,
    auto_compact_bytes: Optional[int] = None,
) -> Tuple["TruthService", RecoveryReport]:
    """Recover a crashed journaled service from disk and start it.

    Scans ``path`` (truncating any torn tail), rebuilds the accepted-prefix
    dataset, reopens the journal for append, and starts a fresh
    :class:`TruthService` whose first publish lands at the journaled
    checkpoint epoch + 1. ``model`` defaults to the service default
    (incremental columnar TDH); pass the same model configuration the
    crashed service ran for stamp-for-stamp continuity.

    Returns ``(service, report)`` with the service already started (reads
    work immediately; ``run_worker=False`` leaves the batch loop to manual
    ``service.worker.step()`` driving, as in the tests). Pass a
    :class:`~repro.serving.supervisor.SupervisionPolicy` as ``supervision``
    to recover straight into self-healing mode, and ``auto_compact_bytes``
    to bound the reopened journal's growth.
    """
    from .service import TruthService

    t0 = time.perf_counter()
    scan = scan_journal(path)
    tail_dropped = truncate_torn_tail(path, scan)
    dataset, replay = rebuild_dataset(scan)
    last_checkpoint = scan.last_checkpoint
    resume_epoch = (
        int(last_checkpoint["epoch"]) + 1 if last_checkpoint is not None else 0
    )
    replay_seconds = time.perf_counter() - t0
    journal = WriteAheadJournal(
        path, fsync=fsync, faults=faults, auto_compact_bytes=auto_compact_bytes
    )
    journal.batch_seq = replay["next_seq"]
    service = TruthService(
        dataset,
        model,
        max_pending=max_pending,
        batch_max=batch_max,
        journal=journal,
        faults=faults,
        initial_epoch=resume_epoch,
        supervision=supervision,
    )
    await service.start(run_worker=run_worker)
    report = RecoveryReport(
        path=str(path),
        entries=len(scan.entries),
        batches_replayed=replay["batches"],
        writes_replayed=replay["applied"],
        writes_rejected=replay["rejected"],
        truncated_records=scan.truncated_records,
        truncated_bytes=scan.truncated_bytes,
        tail_bytes_dropped=tail_dropped,
        checkpoint_epoch=(
            int(last_checkpoint["epoch"]) if last_checkpoint is not None else None
        ),
        resume_epoch=resume_epoch,
        dataset_version=dataset.version,
        records_version=dataset.records_version,
        replay_seconds=replay_seconds,
        batches_quarantined=replay["quarantined_batches"],
        writes_quarantined=replay["quarantined_writes"],
        duplicate_batches=replay["duplicate_batches"],
    )
    return service, report
