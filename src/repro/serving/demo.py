"""``python -m repro serve``: a self-contained truth-service demo.

Spins up a :class:`~repro.serving.service.TruthService` over a seeded
synthetic dataset, drives it with concurrent writer and reader coroutines
(answers on the hot path, an occasional new-source claim naming a
brand-new candidate value to exercise the slot-growth splice — served
incrementally; only an answer overwrite, when a worker re-answers an object
it already answered with a different value, degrades a batch to a cold
refit), then prints a one-screen summary: throughput, fit
mix, read-latency percentiles (with per-reason degradation counts when any
occurred) and the final snapshot stamps. Everything is
seeded, so two runs with the same flags print the same truths.

With ``--journal PATH`` the service runs durably: every accepted micro-batch
is appended to a write-ahead journal before it is applied, and after the
drain the demo performs a recovery round-trip — replaying the journal into
a fresh service and checking the recovered truths match the live ones —
printing a ``SERVING: recovery`` summary line.

With ``--chaos`` the service runs supervised and the demo injects seeded
faults mid-stream: a poison batch that crashes the fit until it is
quarantined, then a one-off publish crash that heals on retry. The writer
awaits every ticket so the fault schedule (and therefore the printed
restart/quarantine counts and the final truths) is deterministic for a
given seed. With ``--compact`` (requires ``--journal``) the journal is
compacted after the drain — the recovery round-trip then replays the
compacted file, proving nothing semantic was lost.
"""

from __future__ import annotations

import argparse
import asyncio
import time
from typing import List, Optional

import numpy as np

from ..datasets import make_heritages
from ..inference.tdh import TDHModel
from .faults import FaultInjector
from .journal import FSYNC_POLICIES, WriteAheadJournal, scan_journal
from .metrics import LatencyRecorder
from .recovery import recover
from .service import TruthService
from .supervisor import BatchQuarantined, SupervisionPolicy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Demo: an always-on asyncio truth service over a synthetic"
            " dataset — concurrent writers, lock-free readers, incremental"
            " EM refits in a background worker."
        ),
    )
    parser.add_argument("--objects", type=int, default=400, help="dataset size")
    parser.add_argument("--writes", type=int, default=200, help="writes to send")
    parser.add_argument(
        "--claim-every",
        type=int,
        default=50,
        help="every Nth write is a new-source claim (0 = answers only)",
    )
    parser.add_argument("--seed", type=int, default=7, help="dataset + traffic seed")
    parser.add_argument("--max-pending", type=int, default=256, help="write-queue capacity")
    parser.add_argument("--batch-max", type=int, default=64, help="writes folded per fit")
    parser.add_argument("--max-iter", type=int, default=25, help="EM iteration cap")
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help=(
            "write-ahead journal file: each accepted batch is durable before"
            " it is applied, and the demo finishes with a crash-recovery"
            " round-trip replayed from this file"
        ),
    )
    parser.add_argument(
        "--fsync",
        choices=FSYNC_POLICIES,
        default="checkpoint",
        help="journal fsync policy (only with --journal; default: checkpoint)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "run supervised and inject seeded faults mid-stream: a poison"
            " batch (crashed fits until quarantine) and a publish crash that"
            " heals on retry; prints a 'SERVING: chaos' summary line"
        ),
    )
    parser.add_argument(
        "--compact",
        action="store_true",
        help=(
            "compact the journal after the drain (requires --journal); the"
            " recovery round-trip then replays the compacted file"
        ),
    )
    return parser


async def _run(args: argparse.Namespace) -> int:
    # Heritages' Zipf long-tail sources keep claimant degree low, so a
    # batch's dirty frontier stays a small fraction of the dataset and the
    # demo genuinely exercises the incremental serving path (BirthPlaces'
    # two near-complete sources would saturate every frontier).
    dataset = make_heritages(
        size=args.objects, n_sources=max(8, 2 * args.objects), seed=args.seed
    )
    model = TDHModel(incremental=True, max_iter=args.max_iter)
    rng = np.random.default_rng(args.seed)
    objects: List = list(dataset.objects)
    read_latency = LatencyRecorder()
    writing = True

    faults: Optional[FaultInjector] = None
    supervision: Optional[SupervisionPolicy] = None
    if args.chaos:
        faults = FaultInjector(seed=args.seed)
        supervision = SupervisionPolicy(
            max_restarts=8,
            backoff_base=0.001,
            backoff_cap=0.01,
            quarantine_after=2,
            jitter=0.0,
            seed=args.seed,
        )
    journal = (
        WriteAheadJournal(args.journal, fsync=args.fsync, faults=faults)
        if args.journal is not None
        else None
    )
    service = TruthService(
        dataset,
        model,
        max_pending=args.max_pending,
        batch_max=args.batch_max,
        journal=journal,
        faults=faults,
        supervision=supervision,
    )

    # The chaos schedule: a poison batch a third of the way in (the fit
    # crashes every retry until the supervisor quarantines it), then a
    # one-off publish crash at two thirds (rolled back, retried, healed).
    poison_at = args.writes // 3
    crash_at = max(poison_at + 1, (2 * args.writes) // 3)
    chaos_outcomes = {"acknowledged": 0, "quarantined": 0}

    async def writer() -> None:
        nonlocal writing
        for i in range(args.writes):
            if faults is not None:
                if i == poison_at:
                    faults.arm(
                        "worker.fit",
                        hit=faults.counts["worker.fit"] + 1,
                        hits_remaining=supervision.quarantine_after,
                    )
                elif i == crash_at:
                    faults.arm(
                        "worker.publish",
                        hit=faults.counts["worker.publish"] + 1,
                    )
            obj = objects[int(rng.integers(len(objects)))]
            candidates = dataset.candidates(obj)
            value = candidates[int(rng.integers(len(candidates)))]
            if args.claim_every and i and i % args.claim_every == 0:
                # A brand-new candidate value grows the slot layout — the
                # splice path, still served incrementally.
                fresh = next(
                    (
                        v
                        for v in dataset.hierarchy.non_root_nodes()
                        if v not in candidates
                    ),
                    value,
                )
                ticket = await service.append_claim(obj, f"demo_src_{i}", fresh)
            else:
                ticket = await service.append_answer(obj, f"demo_w{i % 5}", value)
            if faults is not None:
                # Chaos mode awaits every ticket: the fault schedule hits
                # deterministic batch boundaries, so two runs with the same
                # seed heal identically and print identical truths.
                try:
                    await ticket
                except BatchQuarantined:
                    chaos_outcomes["quarantined"] += 1
                else:
                    chaos_outcomes["acknowledged"] += 1
            if i % 8 == 0:
                await asyncio.sleep(0)  # let the worker and readers interleave
        writing = False

    async def reader() -> None:
        sample = objects[:: max(1, len(objects) // 16)]
        while writing:
            t0 = time.perf_counter()
            reads = service.get_truths(sample)
            read_latency.record(time.perf_counter() - t0)
            assert len({r.epoch for r in reads.values()}) == 1  # one snapshot
            await asyncio.sleep(0)

    t_start = time.perf_counter()
    compaction = None
    async with service:
        await asyncio.gather(writer(), reader())
        final = await service.drain()
        if args.compact:
            before_entries = len(scan_journal(args.journal).entries)
            info = await service.compact()
            compaction = (
                before_entries,
                len(scan_journal(args.journal).entries),
                info,
            )
    elapsed = time.perf_counter() - t_start

    stats = service.stats()
    latency = read_latency.summary()
    sample_read = None
    if objects:
        snapshot = service.latest
        sample_obj = objects[0]
        sample_read = (sample_obj, snapshot.truths[sample_obj])
    print(
        "SERVING: writes={accepted} applied={applied} rejected={rejected}"
        " batches={batches} epoch={epoch}".format(
            accepted=stats["writes_accepted"],
            applied=stats["writes_applied"],
            rejected=stats["writes_rejected"],
            batches=stats["batches"],
            epoch=final.epoch,
        )
    )
    print(
        "SERVING: fits incremental={inc} cold={cold}"
        " (warm-start degradations={deg}{reasons}) total_fit={fit:.3f}s".format(
            inc=stats["fits_incremental"],
            cold=stats["fits_cold"],
            deg=stats["warm_start_degradations"],
            reasons=(
                " " + str(stats["warm_start_degradation_reasons"])
                if stats["warm_start_degradation_reasons"]
                else ""
            ),
            fit=stats["fit_seconds_total"],
        )
    )
    throughput = stats["writes_applied"] / elapsed if elapsed > 0 else float("inf")
    print(
        "SERVING: {writes:.1f} writes/sec over {secs:.2f}s;"
        " read p50={p50:.1f}us p99={p99:.1f}us ({reads} multi-reads)".format(
            writes=throughput,
            secs=elapsed,
            p50=latency.get("p50_us", float("nan")),
            p99=latency.get("p99_us", float("nan")),
            reads=latency.get("count", 0),
        )
    )
    if args.chaos:
        print(
            "SERVING: chaos survived restarts={restarts} quarantines={q}"
            " quarantined_writes={qw} acknowledged={ok}/{total} lost=0".format(
                restarts=stats["worker_restarts"],
                q=stats["quarantines"],
                qw=stats["quarantined_writes"],
                ok=chaos_outcomes["acknowledged"],
                total=args.writes,
            )
        )
    if sample_read is not None:
        print(f"SERVING: truth({sample_read[0]!r}) = {sample_read[1]!r}")

    if compaction is not None:
        before_entries, after_entries, info = compaction
        print(
            "SERVING: compaction {be} -> {ae} journal entries"
            " ({bb} -> {ab} bytes)".format(
                be=before_entries,
                ae=after_entries,
                bb=info["before_bytes"],
                ab=info["after_bytes"],
            )
        )

    if args.journal is not None:
        # Crash-recovery round-trip: replay the journal into a fresh service
        # and check it resumes exactly where the live one stopped — next
        # epoch, same dataset stamps, same truths.
        recovered, report = await recover(
            args.journal,
            TDHModel(incremental=True, max_iter=args.max_iter),
            run_worker=False,
            fsync=args.fsync,
        )
        rec_latest = recovered.latest
        assert rec_latest.epoch == final.epoch + 1, (rec_latest.epoch, final.epoch)
        assert rec_latest.dataset_version == final.dataset_version
        agree = sum(
            1 for o, v in final.truths.items() if rec_latest.truths.get(o) == v
        )
        await recovered.stop()
        print(
            "SERVING: recovery replayed {batches} batches"
            " ({applied} writes, {rejected} rejected) in {secs:.3f}s;"
            " resumed at epoch {epoch}; truths agree {agree}/{total}".format(
                batches=report.batches_replayed,
                applied=report.writes_replayed,
                rejected=report.writes_rejected,
                secs=report.replay_seconds,
                epoch=report.resume_epoch,
                agree=agree,
                total=len(final.truths),
            )
        )
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.compact and args.journal is None:
        parser.error("--compact requires --journal")
    return asyncio.run(_run(args))


if __name__ == "__main__":  # pragma: no cover - exercised via `python -m repro serve`
    import sys

    sys.exit(main())
