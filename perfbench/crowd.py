"""``crowd_rounds``: the paper's TDH+EAI crowdsourcing loop at paper scale.

One episode is ``CrowdSimulator.run`` over a BirthPlaces instance (6,005
objects, 7 sources) with the ``make_combo("TDH", "EAI", FULL,
incremental=True)`` pair and 10 simulated workers answering 5 tasks each per
round. A run plays episodes on distinct seeded instances until ``--seconds``
have passed, so its medians average over several datasets rather than one,
then replays the first episode: two runs of one seed must agree exactly. No
serving layer and no thread take part.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.assignment.eai import EAIAssigner
from repro.crowd.simulator import CrowdSimulator
from repro.crowd.workers import make_worker_pool
from repro.experiments.common import FULL, make_combo
from repro.inference.base import WarmStartDegradation

import inputs
from serve import tdh_layer
from spans import (
    RoundClockEAI,
    SpanRecorder,
    TimedWorker,
    TracedTDH,
    adopt,
    median_over,
    pct,
    pooled,
    traced_copy,
)

#: Rounds per episode. The first rounds are the heaviest (EAI evaluates
#: ~20k worker-object pairs each); a short episode lets one run cover
#: several datasets.
ROUNDS = 6
TASKS_PER_WORKER = 5
N_WORKERS = 10
MIN_EPISODES = 2
#: Set-ups per run (episodes plus set-up-only probes); ``setup_s`` is their
#: median.
SETUP_REPEATS = 5


class _SetupDone(Exception):
    """Raised by the probe assigner: set-up ends where round 1 begins."""


class _SetupProbe(EAIAssigner):
    def assign(self, dataset, result, workers, k):
        raise _SetupDone


@dataclass
class Episode:
    setup: float
    round_starts: List[float]
    end: float
    evaluations: List[int]
    answers: List[tuple]
    accuracy: float
    log_digest: str
    fits: List[dict]
    degradations: int
    recorder: Optional[SpanRecorder]
    agreement: float = 0.0

    def rounds(self) -> List[float]:
        bounds = self.round_starts + [self.end]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def visible(self) -> List[float]:
        """Per answer: from handing it to the simulator until the next
        round's assignment can see it (or the episode ends)."""
        bounds = self.round_starts[1:] + [self.end]
        out, r = [], 0
        for _, sent in self.answers:
            while bounds[r] < sent:
                r += 1
            out.append(bounds[r] - sent)
        return out

    def answer_calls(self) -> List[float]:
        return [b - a for a, b in self.answers]

    def counters(self) -> Dict[str, object]:
        return {
            "fits_cold": sum(1 for f in self.fits if f["cold"]),
            "fits_incremental": sum(1 for f in self.fits if f["incremental"]),
            "warm_start_degradations": self.degradations,
            "evaluations": self.evaluations,
            "assignment_log": self.log_digest,
            "final_accuracy": self.accuracy,
        }


class _Content:
    """The seeded inputs of one episode: a BirthPlaces instance, and the
    seeds of its worker panel and of the simulator's answer draws."""

    def __init__(self, seed: int, index: int) -> None:
        data_seed, self.worker_seed, self.sim_seed = np.random.SeedSequence(
            [seed, index]
        ).spawn(3)
        self.dataset = inputs.birthplaces(data_seed)

    def panel(self, log: List[tuple]):
        pool = make_worker_pool(
            N_WORKERS, pi_p=0.75, rng=np.random.default_rng(self.worker_seed)
        )
        return [traced_copy(w, TimedWorker, log=log) for w in pool]

    def simulator(self, model, assigner, log: List[tuple]) -> CrowdSimulator:
        return CrowdSimulator(
            self.dataset, model, assigner, self.panel(log),
            rng=np.random.default_rng(self.sim_seed),
        )


def _episode(content: _Content, recorder: Optional[SpanRecorder],
             check_agreement: bool) -> Episode:
    model, assigner = make_combo("TDH", "EAI", FULL, incremental=True)
    answers: List[tuple] = []
    model = traced_copy(model, TracedTDH, recorder=recorder, paths=[])
    assigner = traced_copy(
        assigner, RoundClockEAI, recorder=recorder, round_starts=[], evaluations=[]
    )
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", WarmStartDegradation)
        t0 = time.perf_counter()
        simulator = content.simulator(model, assigner, answers)
        history = simulator.run(ROUNDS, tasks_per_worker=TASKS_PER_WORKER)
        end = time.perf_counter()
    degradations = 0
    for caught_warning in caught:
        if isinstance(caught_warning.message, WarmStartDegradation):
            degradations += 1
        else:
            warnings.warn_explicit(
                caught_warning.message, caught_warning.category,
                caught_warning.filename, caught_warning.lineno,
            )
    log = json.dumps(simulator.assignment_log, sort_keys=True, default=str)
    episode = Episode(
        setup=assigner.round_starts[0] - t0,
        round_starts=assigner.round_starts,
        end=end,
        evaluations=assigner.evaluations,
        answers=answers,
        accuracy=history.final.accuracy,
        log_digest=hashlib.sha256(log.encode()).hexdigest(),
        fits=model.paths,
        degradations=degradations,
        recorder=recorder,
    )
    if check_agreement:
        cold_model, _ = make_combo("TDH", "EAI", FULL, incremental=True)
        cold = cold_model.fit(simulator.dataset).truths()
        served = model.last_result.truths()
        episode.agreement = sum(served[o] == t for o, t in cold.items()) / len(cold)
    return episode


def _setup_probe(content: _Content, traced: bool) -> float:
    """Time one set-up only: simulator construction plus the round-0 fit.
    In a traced pass the fit is traced too, into a recorder of its own, so
    the set-up overhead compares like with like."""
    model, _ = make_combo("TDH", "EAI", FULL, incremental=True)
    model = traced_copy(
        model, TracedTDH, recorder=SpanRecorder() if traced else None, paths=[]
    )
    gc.collect()
    t0 = time.perf_counter()
    simulator = content.simulator(model, _SetupProbe(), [])
    try:
        simulator.run(1, tasks_per_worker=TASKS_PER_WORKER)
    except _SetupDone:
        return time.perf_counter() - t0
    raise RuntimeError("the setup probe never reached round 1")


@dataclass
class CrowdRun:
    #: one episode per distinct dataset; the replay is not among them
    episodes: List[Episode]
    setup: List[float]
    problems: List[str] = field(default_factory=list)


def _check(run: CrowdRun, episode: Episode, reference: Episode, what: str) -> None:
    if episode.counters() != reference.counters():
        run.problems.append(
            f"{what}: {episode.counters()} differs from {reference.counters()}"
        )


def run_phase(seed: int, seconds: float,
              recorder: Optional[SpanRecorder] = None,
              reference: Optional[Episode] = None) -> CrowdRun:
    """Untraced: episodes on distinct datasets until ``seconds`` have passed
    (at least MIN_EPISODES), then a replay of the first. Traced: one
    episode on the first dataset, checked against ``reference``."""
    first_content = _Content(seed, 0)
    episodes: List[Episode] = []
    start = time.perf_counter()
    if recorder is not None:
        episodes.append(_episode(first_content, recorder, check_agreement=True))
    else:
        while (len(episodes) < MIN_EPISODES
               or time.perf_counter() - start < seconds):
            content = first_content if not episodes else _Content(seed, len(episodes))
            episodes.append(_episode(content, None, check_agreement=True))
        reference = episodes[0]
    run = CrowdRun(episodes=episodes, setup=[e.setup for e in episodes])
    if recorder is None:
        replay = _episode(first_content, None, check_agreement=False)
        run.setup.append(replay.setup)
        _check(run, replay, reference, "replay of the first episode")
    else:
        _check(run, episodes[0], reference, "traced episode")
    while len(run.setup) < SETUP_REPEATS:
        run.setup.append(_setup_probe(first_content, recorder is not None))

    answers = ROUNDS * N_WORKERS * TASKS_PER_WORKER
    for episode in episodes:
        counters = episode.counters()
        if counters["warm_start_degradations"]:
            run.problems.append(f"{counters['warm_start_degradations']} warm-start degradations")
        if counters["fits_cold"] != 1:
            run.problems.append(
                f"{counters['fits_cold']} cold fits (expected the round-0 fit only)"
            )
        if len(episode.answers) != answers:
            run.problems.append(f"{len(episode.answers)} answers, expected {answers}")
    return run


def end_to_end(run: CrowdRun) -> Dict[str, float]:
    episodes = run.episodes
    visible = [e.visible() for e in episodes]
    return {
        "setup_s": statistics.median(run.setup),
        "writes_per_s": statistics.median(
            len(e.answers) / (e.end - e.round_starts[0]) for e in episodes
        ),
        "write_visible_p50_ms": median_over(visible, 50) * 1e3,
        "write_visible_p90_ms": pooled(visible, 90) * 1e3,
        "write_visible_p99_ms": pooled(visible, 99) * 1e3,
        "read_p50_us": median_over((e.answer_calls() for e in episodes), 50) * 1e6,
        "round_p50_ms": median_over((e.rounds() for e in episodes), 50) * 1e3,
        # Exact for a seed: the first episode's instance is the same however
        # many episodes the run's seconds allow.
        "final_accuracy": episodes[0].accuracy,
        "truth_agreement": episodes[0].agreement,
    }


def calibration(run: CrowdRun) -> Dict[str, object]:
    first = run.episodes[0]
    return {
        "episodes": len(run.episodes),
        "rounds": len(run.episodes) * ROUNDS,
        "answers": sum(len(e.answers) for e in run.episodes),
        "evaluations_per_round": first.evaluations,
        "assignment_log_sha256": first.log_digest,
        "truth_agreement": [e.agreement for e in run.episodes],
        "round_p50_ms_by_episode": [pct(e.rounds(), 50) * 1e3 for e in run.episodes],
        "write_visible_p50_ms_by_episode":
            [pct(e.visible(), 50) * 1e3 for e in run.episodes],
    }


def per_layer(run: CrowdRun) -> Dict[str, float]:
    """Per-layer metrics of a traced pass (one episode), from its spans."""
    episode = run.episodes[0]
    recorder = episode.recorder
    fits = recorder.named("inference.tdh.fit")
    round_fits = fits[1:]  # the first is the round-0 fit, part of set-up
    assigns = recorder.named("assignment.eai.assign")
    bounds = episode.round_starts + [episode.end]
    for n, (a, b) in enumerate(zip(bounds, bounds[1:]), start=1):
        recorder.add("crowd.simulator.round", a, b, request=n)
    for a, b in episode.answers:
        recorder.add("crowd.workers.answer", a, b)
    rounds = recorder.named("crowd.simulator.round")
    children = assigns + round_fits + recorder.named("crowd.workers.answer")
    return {
        **tdh_layer(fits, round_fits, episode.degradations),
        "assignment.eai.assign_p50_ms": pct([s.duration for s in assigns], 50) * 1e3,
        "assignment.eai.evaluations": sum(episode.evaluations),
        "crowd.workers.answer_p50_us":
            pct(episode.answer_calls(), 50) * 1e6,
        "crowd.simulator.round_self_p50_ms":
            pct(adopt(rounds, children), 50) * 1e3,
    }
