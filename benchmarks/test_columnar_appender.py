"""Append-vs-rebuild round latency: the incremental encoding benchmark.

Two measurements feed the ``BENCH_columnar.json`` artifact (merged into the
existing report — the speedup benchmark owns the other keys):

* ``appender`` — one simulated crowdsourcing round (10 workers x 5 answers)
  appended to a 5,000-object dataset through ``dataset.columnar()`` (the
  :class:`~repro.data.columnar.ColumnarAppender` path), against a cold
  ``ColumnarClaims(dataset)`` rebuild of the same state. The acceptance bar
  is **>= 10x** (measured ~25-40x; steady-state appends are faster still
  because the first-occurrence tables are already warm).
* ``crowd_loop`` — a Figure-6-style TDH+EAI loop run with the production
  classes and with their dict-loop oracles from ``tests/oracles.py``
  (``TDHOracle`` + ``EAIOracle``, which the ``reference`` fields time): the
  assignment sequences, per-round accuracies and final truths must match
  **exactly**, and both wall times are recorded.

Parity/equality assertions run in the default suite (deterministic); the
wall-clock threshold lives in a ``slow``-marked test so only the
non-blocking CI bench job (which passes ``--runslow``) can fail on a loaded
runner.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from oracles import EAIOracle, TDHOracle

from repro.assignment import EAIAssigner
from repro.crowd.simulator import CrowdSimulator
from repro.crowd.workers import make_worker_pool
from repro.data.columnar import ColumnarClaims
from repro.data.model import Answer
from repro.datasets import make_birthplaces
from repro.inference import TDHModel

N_OBJECTS = 5000
MIN_APPEND_SPEEDUP = 10.0


def simulate_round(dataset, rng, round_seed: int, tasks: int = 5) -> int:
    workers = make_worker_pool(10, seed=round_seed)
    objects = dataset.objects
    collected = 0
    for worker in workers:
        # Only unanswered objects: a repeat (object, worker) pair would be an
        # in-place overwrite, which poisons the append log and would turn the
        # timed "append" into a rebuild.
        answered = set(dataset.objects_of_worker(worker.worker_id))
        pool = [obj for obj in objects if obj not in answered]
        for i in rng.choice(len(pool), size=min(tasks, len(pool)), replace=False):
            obj = pool[int(i)]
            dataset.add_answer(
                Answer(obj, worker.worker_id, worker.answer(dataset, obj, rng))
            )
            collected += 1
    return collected


@pytest.fixture(scope="module")
def appender_report(merge_bench_artifact):
    """Append one simulated round at the 5k scale; record append vs rebuild."""
    dataset = make_birthplaces(size=N_OBJECTS, seed=7)
    dataset.columnar()  # prime the cache: the append log starts here
    rng = np.random.default_rng(0)
    collected = simulate_round(dataset, rng, round_seed=3)

    t0 = time.perf_counter()
    appended = dataset.columnar()  # incremental catch-up via ColumnarAppender
    append_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold = ColumnarClaims(dataset)
    rebuild_seconds = time.perf_counter() - t0

    arrays_equal = all(
        np.array_equal(getattr(appended, name), getattr(cold, name))
        for name in (
            "claim_obj",
            "claim_claimant",
            "claim_slot",
            "claim_is_answer",
            "claim_offsets",
            "value_offsets",
            "slot_vid",
        )
    ) and appended.claimants == cold.claimants

    # a second round, now with warm first-occurrence tables
    collected += simulate_round(dataset, rng, round_seed=4)
    t0 = time.perf_counter()
    dataset.columnar()
    warm_append_seconds = time.perf_counter() - t0

    report = {
        "dataset": {"objects": N_OBJECTS, "claims": cold.n_claims},
        "answers_per_round": collected // 2,
        "append_seconds": append_seconds,
        "warm_append_seconds": warm_append_seconds,
        "rebuild_seconds": rebuild_seconds,
        "speedup": rebuild_seconds / append_seconds if append_seconds > 0 else float("inf"),
        "arrays_equal": arrays_equal,
    }
    merge_bench_artifact(appender=report)
    return report


@pytest.fixture(scope="module")
def crowd_loop_report(merge_bench_artifact):
    """Fig-6-style TDH+EAI loop, production classes vs the dict-loop
    oracles; equality + wall times."""

    def run(model_cls, assigner_cls):
        dataset = make_birthplaces(size=400, seed=7)
        simulator = CrowdSimulator(
            dataset,
            model_cls(max_iter=20, tol=1e-4),
            assigner_cls(),
            make_worker_pool(8, seed=3),
            rng=np.random.default_rng(11),
        )
        t0 = time.perf_counter()
        history = simulator.run(rounds=3, tasks_per_worker=5)
        return simulator, history, time.perf_counter() - t0

    sim_col, hist_col, col_seconds = run(TDHModel, EAIAssigner)
    sim_ref, hist_ref, ref_seconds = run(TDHOracle, EAIOracle)
    report = {
        "rounds": 3,
        "objects": 400,
        "assignments_equal": sim_col.assignment_log == sim_ref.assignment_log,
        "truths_equal": (
            sim_col._previous_result.truths() == sim_ref._previous_result.truths()
        ),
        "accuracy_series_equal": (
            hist_col.series("accuracy") == hist_ref.series("accuracy")
        ),
        "columnar_seconds": col_seconds,
        "reference_seconds": ref_seconds,
        "loop_speedup": ref_seconds / col_seconds if col_seconds > 0 else float("inf"),
    }
    merge_bench_artifact(crowd_loop=report)
    return report


def test_appended_encoding_matches_cold_rebuild(appender_report, merge_bench_artifact):
    """Deterministic half: the spliced encoding is array-equal to a rebuild
    at the 5k scale and the artifact section is written."""
    assert appender_report["arrays_equal"]
    assert merge_bench_artifact.path.exists()
    assert "appender" in json.loads(merge_bench_artifact.path.read_text())


def test_crowd_loop_engines_agree(crowd_loop_report):
    """Deterministic half of the loop benchmark: exact agreement with the
    oracles."""
    assert crowd_loop_report["assignments_equal"]
    assert crowd_loop_report["truths_equal"]
    assert crowd_loop_report["accuracy_series_equal"]


@pytest.mark.slow  # wall-clock assertion: only the non-blocking CI bench job
def test_append_speedup_threshold(appender_report):
    """Timing half: one appended round beats a cold rebuild by >= 10x."""
    assert appender_report["speedup"] >= MIN_APPEND_SPEEDUP, appender_report

