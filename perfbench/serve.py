"""``serve_saturated``, driven through ``TruthService``'s public API.

Each episode restarts a journaled, supervised service with ``recover()``
and runs it at capacity: a closed loop keeps ``BATCH_MAX`` writes
outstanding, so every batch is full and the work repeats batch after batch,
while a light open-loop reader calls ``get_truths``. Every episode recovers
from the same journal and sends the same writes; a run repeats episodes
until its seconds have passed. Throughput and every p50 are medians over
episodes; the p90 and p99 are taken over the samples of all episodes.

Everything is timed from the benchmark's side of the API: a write is
visible when its ticket resolves with its publishing epoch, and a read
lasts until ``get_truths`` returns.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.eval.metrics import evaluate
from repro.inference.tdh import TDHModel
from repro.serving import SupervisionPolicy, TruthService, rebuild_dataset, recover

import inputs
from spans import SpanRecorder, TracedTDH, median_over, pct, pooled, traced_journal

#: Micro-batch cap of the saturated service; its closed loop keeps exactly
#: this many writes outstanding, so every batch is full.
BATCH_MAX = 64
#: Full batches per episode: 5,120 writes, enough for every p99 to have
#: fifty samples beyond it.
EPISODE_BATCHES = 80
#: Single-write batches (each with its checkpoint) in the journal that
#: ``serve_saturated`` recovers from.
HISTORY_BATCHES = 2000
MIN_EPISODES = 2
#: Set-ups per run (episodes plus set-up-only probes); ``setup_s`` is their
#: median.
SETUP_REPEATS = 5
#: About 1,000 reads per episode, so a read p99 has ten samples beyond it.
READS_PER_S = 100.0
#: Share of objects whose served truth must equal a cold fit's.
AGREEMENT_BAR = 0.999


def _model(recorder: Optional[SpanRecorder], initial_epoch: int) -> TDHModel:
    """The production TDH configuration; traced when ``recorder`` is set."""
    if recorder is None:
        return TDHModel(use_columnar=True, incremental=True)
    model = TracedTDH(use_columnar=True, incremental=True)
    model.recorder = recorder
    model.initial_epoch = initial_epoch
    model.paths = []
    return model


async def _append(service: TruthService, write: inputs.Write):
    kind, obj, claimant, value = write
    if kind == "answer":
        return await service.append_answer(obj, claimant, value)
    return await service.append_claim(obj, claimant, value)


@dataclass
class Window:
    """One episode's measured window: what the benchmark saw, then what it
    checked."""

    recorder: Optional[SpanRecorder]
    sent: int = 0
    failed_writes: int = 0
    reads: int = 0
    failed_reads: int = 0
    mixed_epoch_reads: int = 0
    start: float = 0.0
    last_resolved: float = 0.0
    #: from each write's send to its ticket resolving
    visible: List[float] = field(default_factory=list)
    read_latency: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    epoch_first_seen: Dict[int, float] = field(default_factory=dict)
    #: (write index, epoch) of every applied write
    applied: List[tuple] = field(default_factory=list)
    setup: float = 0.0
    fit_seconds: float = 0.0
    stats: Dict[str, object] = field(default_factory=dict)
    agreement: float = 0.0
    accuracy: float = 0.0
    problems: List[str] = field(default_factory=list)

    def resolved(self, index: int, origin: float, call_start: float,
                 call_end: float, epoch: Optional[int]) -> None:
        now = time.perf_counter()
        self.last_resolved = max(self.last_resolved, now)
        if epoch is None:
            self.failed_writes += 1
            return
        self.visible.append(now - origin)
        self.epoch_first_seen.setdefault(epoch, now)
        self.applied.append((index, epoch))
        if self.recorder is not None:
            visible = self.recorder.add(
                "serving.service.write_visible", origin, now, request=index,
                epoch=epoch,
            )
            self.recorder.add(
                "serving.service.append", call_start, call_end, parent=visible,
                request=index,
            )

    def read(self, service: TruthService, sample: List[str], origin: float,
             index: int) -> None:
        self.reads += 1
        c0 = time.perf_counter()
        try:
            reads = service.get_truths(sample)
        except Exception:
            self.failed_reads += 1
            return
        c1 = time.perf_counter()
        self.read_latency.append(c1 - origin)
        if self.recorder is not None:
            self.recorder.add("serving.service.get_truths", c0, c1, request=index)
        if len({r.epoch for r in reads.values()}) != 1:
            self.mixed_epoch_reads += 1

    def wall(self) -> float:
        return self.last_resolved - self.start

    def epoch_intervals(self) -> List[float]:
        seen = self.epoch_first_seen
        return [seen[e + 1] - seen[e] for e in sorted(seen) if e + 1 in seen]

    def counters(self) -> Dict[str, int]:
        return {
            key: int(self.stats[key])
            for key in ("fits_cold", "fits_incremental", "warm_start_degradations",
                        "batches")
        }


async def _open_loop(rate: float, start: float, more: Callable[[], bool],
                     window: Window, action: Callable[[float, int], None]) -> None:
    """Call ``action(due, n)`` at ``start + n / rate`` while ``more()``."""
    n = 0
    while more():
        due = start + n / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        window.lateness.append(time.perf_counter() - due)
        action(due, n)
        n += 1


async def _saturate(service: TruthService, writes: List[inputs.Write],
                    sample: List[str], initial_epoch: int, window: Window) -> None:
    """Closed loop: BATCH_MAX clients, each sending its next write once its
    previous one is visible, until EPISODE_BATCHES batches have published."""
    cursor = iter(range(len(writes)))
    writing = True

    async def client() -> None:
        while True:
            index = next(cursor, None)
            if index is None:  # batches were not all full; the check reports it
                return
            c0 = time.perf_counter()
            window.sent += 1
            try:
                ticket = await _append(service, writes[index])
            except Exception:  # refused at the door: shed or closed
                window.failed_writes += 1
                return
            c1 = time.perf_counter()
            try:
                epoch = await ticket
            except Exception:
                window.resolved(index, c0, c0, c1, None)
                epoch = service.latest.epoch
            else:
                window.resolved(index, c0, c0, c1, epoch)
            if epoch - initial_epoch >= EPISODE_BATCHES:
                return

    window.start = time.perf_counter()
    reading = asyncio.ensure_future(
        _open_loop(
            READS_PER_S, window.start, lambda: writing, window,
            lambda due, n: window.read(service, sample, due, n),
        )
    )
    await asyncio.gather(*(client() for _ in range(BATCH_MAX)))
    writing = False
    await reading


async def _finish(service: TruthService, window: Window, fit_before: float):
    """Drain and stop the service; returns the drained truths."""
    final = await service.drain()
    window.stats = service.stats()
    window.fit_seconds = window.stats["fit_seconds_total"] - fit_before
    served = final.truths
    await service.stop()
    return served


def _compare(window: Window, served, dataset) -> None:
    """Cold-fit ``dataset`` (the accepted state) and score the served truths."""
    cold = TDHModel(use_columnar=True).fit(dataset).truths()
    window.agreement = sum(served[o] == t for o, t in cold.items()) / len(cold)
    window.accuracy = evaluate(dataset, served).accuracy


def _check(window: Window) -> None:
    w, stats, problems = window, window.stats, window.problems
    acked = len(w.applied)
    if w.failed_writes or w.failed_reads:
        problems.append(f"{w.failed_writes} writes and {w.failed_reads} reads failed")
    if acked + w.failed_writes != w.sent:
        problems.append(f"{w.sent - acked - w.failed_writes} tickets never resolved")
    if w.mixed_epoch_reads:
        problems.append(f"{w.mixed_epoch_reads} get_truths calls mixed epochs")
    if w.agreement < AGREEMENT_BAR:
        problems.append(f"truth_agreement {w.agreement:.5f} < {AGREEMENT_BAR}")
    for key in ("warm_start_degradations", "worker_restarts", "quarantines"):
        if stats[key]:
            problems.append(f"{key} = {stats[key]}")
    if stats["fits_cold"] != 1 or stats["fits_incremental"] != stats["batches"]:
        problems.append(
            "path: expected one cold startup fit and an incremental fit per batch,"
            f" got {stats['fits_cold']} cold / {stats['fits_incremental']}"
            f" incremental for {stats['batches']} batches"
        )
    if stats["batches"] != EPISODE_BATCHES or acked != EPISODE_BATCHES * BATCH_MAX:
        problems.append(
            f"{acked} writes in {stats['batches']} batches: expected"
            f" {EPISODE_BATCHES} full batches of {BATCH_MAX}"
        )


@dataclass
class Phase:
    """The windows of one untraced or traced pass, and its set-up times."""

    windows: List[Window]
    setup: List[float]
    recovery: Optional[object] = None

    @property
    def problems(self) -> List[str]:
        return [
            f"episode {n}: {p}"
            for n, w in enumerate(self.windows, start=1)
            for p in w.problems
        ]


def _journal_spans(recorder: Optional[SpanRecorder]):
    """Journal appends are spans while tracing; ``recover()`` builds its own
    journal, so the wrapper sits on the class for the block's duration."""
    if recorder is None:
        return contextlib.nullcontext()
    return traced_journal(recorder)


async def _recover_timed(pristine: Path, path: Path, model):
    shutil.copyfile(pristine, path)
    gc.collect()
    t0 = time.perf_counter()
    service, report = await recover(
        path, model, supervision=SupervisionPolicy(), batch_max=BATCH_MAX
    )
    return service, report, time.perf_counter() - t0


async def _run(seed: int, seconds: float, workdir: Path,
               recorder: Optional[SpanRecorder]) -> Phase:
    substrate_seed, history_seed, stream_seed = inputs.seeds(seed, 3)
    base = inputs.sparse_substrate(substrate_seed)
    sample = inputs.read_sample(base)
    stream = inputs.WriteStream(base.copy(), stream_seed, tag="sat", claims=True)
    stream.extend(EPISODE_BATCHES * BATCH_MAX)
    pristine = workdir / "history.wal"
    inputs.write_history_journal(pristine, base, history_seed, HISTORY_BATCHES)
    del base
    path = workdir / "service.wal"
    initial_epoch = HISTORY_BATCHES + 1

    windows: List[Window] = []
    report = None
    start = time.perf_counter()
    while not windows or (recorder is None and (
        len(windows) < MIN_EPISODES or time.perf_counter() - start < seconds
    )):
        model = _model(recorder, initial_epoch)
        with _journal_spans(recorder):
            service, report, setup = await _recover_timed(pristine, path, model)
            window = Window(recorder, setup=setup)
            fit_before = service.metrics.fit_seconds_total
            gc.collect()
            await _saturate(service, stream.writes, sample, initial_epoch, window)
            served = await _finish(service, window, fit_before)
        _compare(window, served, rebuild_dataset(path)[0])
        if report.resume_epoch != initial_epoch:
            window.problems.append(f"recovery resumed at epoch {report.resume_epoch}")
        _check(window)
        windows.append(window)
    setup = [w.setup for w in windows]
    while len(setup) < SETUP_REPEATS:
        # Traced passes trace every set-up, so the set-up overhead compares
        # like with like; only the measured episode's spans are kept.
        probe = None if recorder is None else SpanRecorder()
        with _journal_spans(probe):
            service, _, seconds_taken = await _recover_timed(
                pristine, path, _model(probe, initial_epoch)
            )
        setup.append(seconds_taken)
        await service.stop()
    return Phase(windows, setup, report)


def run_phase(seed: int, seconds: float, workdir: Path,
              recorder: Optional[SpanRecorder] = None) -> Phase:
    """One untraced or traced pass, in a fresh event loop."""
    return asyncio.run(_run(seed, seconds, workdir, recorder))


def end_to_end(phase: Phase) -> Dict[str, float]:
    """The end-to-end metrics of one pass (peak RSS is added by the caller,
    which owns the process)."""
    windows = phase.windows
    visible = [w.visible for w in windows]
    return {
        "setup_s": statistics.median(phase.setup),
        "writes_per_s": statistics.median(len(w.applied) / w.wall() for w in windows),
        "write_visible_p50_ms": median_over(visible, 50) * 1e3,
        "write_visible_p90_ms": pooled(visible, 90) * 1e3,
        "write_visible_p99_ms": pooled(visible, 99) * 1e3,
        "read_p50_us": median_over((w.read_latency for w in windows), 50) * 1e6,
        "round_p50_ms": median_over((w.epoch_intervals() for w in windows), 50) * 1e3,
        "final_accuracy": min(w.accuracy for w in windows),
        "truth_agreement": min(w.agreement for w in windows),
    }


def calibration(phase: Phase) -> Dict[str, object]:
    """Load figures that say whether a run measured what it meant to."""
    windows = phase.windows
    sizes = [n for w in windows for n in Counter(e for _, e in w.applied).values()]
    return {
        "windows": len(windows),
        "writes": sum(len(w.applied) for w in windows),
        "reads": sum(w.reads for w in windows),
        "batches": sum(w.stats["batches"] for w in windows),
        "batch_size_p50": pct(sizes, 50),
        "fit_busy_ratio": statistics.median(w.fit_seconds / w.wall() for w in windows),
        "generator_lateness_p99_ms": pct([x for w in windows for x in w.lateness], 99) * 1e3,
        "queue_high_watermark": max(w.stats["queue_high_watermark"] for w in windows),
        "truth_agreement": [w.agreement for w in windows],
        "writes_per_s_by_episode": [len(w.applied) / w.wall() for w in windows],
        "write_visible_p99_ms_by_episode": [pct(w.visible, 99) * 1e3 for w in windows],
        "read_p99_us_by_episode": [pct(w.read_latency, 99) * 1e6 for w in windows],
    }


def per_layer(phase: Phase, recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer metrics of a traced pass (one window), from its spans."""
    w = phase.windows[0]
    stats = w.stats
    fits = {s.request: s for s in recorder.named("inference.tdh.fit")}
    startup = min(fits)
    window_fits = [s for epoch, s in fits.items() if epoch != startup]
    queue_wait, publish = [], []
    for write in recorder.named("serving.service.write_visible"):
        fit = fits.get(write.attrs["epoch"])
        if fit is not None:
            queue_wait.append(fit.start - write.start)
            publish.append(write.end - fit.end)
    sizes = Counter(epoch for _, epoch in w.applied)
    journal = stats.get("journal", {})
    report = phase.recovery
    get_truths = recorder.durations("serving.service.get_truths")
    return {
        "serving.service.get_truths_p50_us": pct(get_truths, 50) * 1e6,
        "serving.service.get_truths_p99_us": pct(get_truths, 99) * 1e6,
        "serving.service.append_wait_p99_ms":
            pct(recorder.durations("serving.service.append"), 99) * 1e3,
        "serving.service.queue_high_watermark": stats["queue_high_watermark"],
        "serving.worker.batches": stats["batches"],
        "serving.worker.batch_size_p50": pct(list(sizes.values()), 50),
        "serving.worker.queue_wait_p50_ms": pct(queue_wait, 50) * 1e3,
        "serving.worker.publish_p50_ms": pct(publish, 50) * 1e3,
        "serving.worker.fit_busy_ratio":
            sum(s.duration for s in window_fits) / w.wall(),
        "serving.journal.append_batch_p50_ms":
            pct(recorder.durations("serving.journal.append_batch"), 50) * 1e3,
        "serving.journal.append_checkpoint_p50_ms":
            pct(recorder.durations("serving.journal.append_checkpoint"), 50) * 1e3,
        "serving.journal.fsyncs": journal.get("fsyncs", 0),
        "serving.journal.bytes_appended": journal.get("bytes_appended", 0),
        "serving.recovery.replay_s": report.replay_seconds if report else 0.0,
        "serving.recovery.batches_replayed": report.batches_replayed if report else 0,
        "serving.supervisor.restarts": stats["worker_restarts"],
        "serving.supervisor.quarantines": stats["quarantines"],
        **tdh_layer(list(fits.values()), window_fits, stats["warm_start_degradations"]),
    }


def tdh_layer(all_fits, timed_fits, degradations: int) -> Dict[str, float]:
    """``inference.tdh`` metrics: timings over ``timed_fits`` (the fits of
    the measured part), path counters over every fit."""
    wall = [s.duration for s in timed_fits]
    cpu = [s.attrs["cpu"] for s in timed_fits]
    return {
        "inference.tdh.fit_p50_ms": pct(wall, 50) * 1e3,
        "inference.tdh.fit_p99_ms": pct(wall, 99) * 1e3,
        "inference.tdh.fit_cpu_p50_ms": pct(cpu, 50) * 1e3,
        "inference.tdh.gil_wait_p50_ms":
            pct([a - b for a, b in zip(wall, cpu)], 50) * 1e3,
        "inference.tdh.frontier_objects_p50":
            pct([s.attrs["frontier"] for s in timed_fits], 50),
        "inference.tdh.iterations_p50":
            pct([s.attrs["iterations"] for s in timed_fits], 50),
        "inference.tdh.fits_incremental":
            sum(1 for s in all_fits if s.attrs["incremental"]),
        "inference.tdh.fits_cold": sum(1 for s in all_fits if s.attrs["cold"]),
        "inference.tdh.fits_full_warm": sum(
            1 for s in all_fits if not s.attrs["cold"] and not s.attrs["incremental"]
        ),
        "inference.tdh.warm_start_degradations": degradations,
    }
