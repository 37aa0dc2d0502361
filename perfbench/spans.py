"""In-memory spans for the traced run, and the shims that record them.

Every span is recorded by benchmark code around a public call into one
layer: the program itself is not instrumented. A span is ``(id, name,
start, end, parent, request, attrs)`` with ``perf_counter`` seconds; spans
of one write share its request id, and a fit's request id is the epoch it
publishes (the k-th fit after start publishes epoch ``initial + k``).

The shims are subclasses or class-level wrappers that keep the wrapped
signature, so the program takes the same code paths with tracing on:

* :class:`TracedTDH` — ``TDHModel.fit`` (wall and thread-CPU time, frontier
  size, iterations); ``warm_start`` stays a parameter, so the service and
  the simulator still warm-start it;
* :class:`RoundClockEAI` — ``EAIAssigner.assign``; untraced it only stamps
  each round's start, which the end-to-end round time needs anyway;
* :class:`TimedWorker` — ``SimulatedWorker.answer``;
* :func:`traced_journal` — ``WriteAheadJournal.append_batch`` and
  ``append_checkpoint``, wrapped on the class because ``recover()`` builds
  its own journal.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.assignment.eai import EAIAssigner
from repro.crowd.workers import SimulatedWorker
from repro.inference.tdh import TDHModel
from repro.serving import WriteAheadJournal


def pct(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for a layer that made no calls."""
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def median_over(groups: Iterable[Sequence[float]], q: float) -> float:
    """Median over episodes of each episode's ``q``-th percentile: a stall
    of the host moves at most the episodes it hits."""
    return statistics.median(pct(g, q) for g in groups)


def pooled(groups: Iterable[Sequence[float]], q: float) -> float:
    """The ``q``-th percentile of all episodes' samples together.

    Used for tails: a batch's writes, or a round's answers, share one fate,
    so one episode's p99 is about its slowest batch or round. Over all of a
    run's episodes it sits a few batches or rounds below the slowest, which
    one stall of the host does not decide.
    """
    return pct([x for g in groups for x in g], q)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    attrs: Dict[str, object]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Append-only span store. ``add`` is safe from the fit thread: list
    appends and ``itertools.count`` steps are atomic under the GIL."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        request: Optional[int] = None,
        **attrs: object,
    ) -> int:
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, start, end, parent, request, attrs))
        return span_id

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                            **s.attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )


def adopt(parents: List[Span], children: List[Span]) -> List[float]:
    """Make each child span a child of the parent span that contains it, and
    return each parent's self time: its duration minus its children's.

    Spans timed from one thread never overlap, so containment is exact.
    """
    covered = {p.id: 0.0 for p in parents}
    for child in children:
        for parent in parents:
            if parent.start <= child.start and child.end <= parent.end:
                child.parent = parent.id
                covered[parent.id] += child.duration
                break
    return [p.duration - covered[p.id] for p in parents]


class TracedTDH(TDHModel):
    """``TDHModel`` that logs which path every fit took and, when a recorder
    is set, records a span per fit.

    Set ``paths`` to a list before use. ``initial_epoch`` numbers the spans:
    the first fit is the startup fit and publishes ``initial_epoch``, the
    k-th after it ``initial_epoch + k``.
    """

    recorder: Optional[SpanRecorder] = None
    initial_epoch: int = 0
    paths: List[Dict[str, bool]]

    def fit(self, dataset, warm_start=None, structures=None):
        if self.recorder is None:
            result = super().fit(dataset, warm_start=warm_start, structures=structures)
        else:
            t0 = time.perf_counter()
            c0 = time.thread_time()
            result = super().fit(dataset, warm_start=warm_start, structures=structures)
            c1 = time.thread_time()
            t1 = time.perf_counter()
            frontier = result.frontier_size
            self.recorder.add(
                "inference.tdh.fit",
                t0,
                t1,
                request=self.initial_epoch + len(self.paths),
                cpu=c1 - c0,
                incremental=frontier is not None,
                cold=warm_start is None,
                frontier=frontier if frontier is not None else len(result.confidences),
                iterations=result.iterations,
            )
        self.paths.append(
            {"cold": warm_start is None, "incremental": result.frontier_size is not None}
        )
        self.last_result = result
        return result


def traced_copy(instance, cls, **attrs):
    """An instance of tracing subclass ``cls`` with ``instance``'s exact
    configuration (its attribute dict), plus the tracing attributes."""
    clone = cls.__new__(cls)
    clone.__dict__.update(vars(instance))
    clone.__dict__.update(attrs)
    return clone


class RoundClockEAI(EAIAssigner):
    """``EAIAssigner`` that stamps each round's start and its evaluations.

    A round starts when ``assign`` is entered. With a recorder set, each call
    is also a span.
    """

    recorder: Optional[SpanRecorder] = None
    round_starts: List[float]
    evaluations: List[int]

    def assign(self, dataset, result, workers, k):
        t0 = time.perf_counter()
        self.round_starts.append(t0)
        assignment = super().assign(dataset, result, workers, k)
        self.evaluations.append(self.eai_evaluations)
        if self.recorder is not None:
            self.recorder.add(
                "assignment.eai.assign",
                t0,
                time.perf_counter(),
                request=len(self.round_starts),
                evaluations=self.eai_evaluations,
            )
        return assignment


class TimedWorker(SimulatedWorker):
    """``SimulatedWorker`` whose ``answer`` calls are timed.

    ``log`` receives ``(start, end)`` per call; the end is also when the
    answer is handed to the simulator, i.e. when the write is sent.
    """

    log: List[tuple]

    def answer(self, dataset, obj, rng):
        t0 = time.perf_counter()
        value = super().answer(dataset, obj, rng)
        self.log.append((t0, time.perf_counter()))
        return value


@contextlib.contextmanager
def traced_journal(recorder: SpanRecorder) -> Iterator[None]:
    """Record a span around every journal batch and checkpoint append."""
    originals = {
        name: getattr(WriteAheadJournal, name)
        for name in ("append_batch", "append_checkpoint")
    }

    def wrap(name, method):
        def wrapper(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return method(self, *args, **kwargs)
            finally:
                recorder.add(f"serving.journal.{name}", t0, time.perf_counter())

        return wrapper

    for name, method in originals.items():
        setattr(WriteAheadJournal, name, wrap(name, method))
    try:
        yield
    finally:
        for name, method in originals.items():
            setattr(WriteAheadJournal, name, method)
