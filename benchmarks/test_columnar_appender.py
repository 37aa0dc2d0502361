"""Append-vs-rebuild round latency: the incremental encoding benchmark.

Two measurements feed the ``BENCH_columnar.json`` artifact (merged into the
existing report — the speedup benchmark owns the other keys):

* ``appender`` — one simulated crowdsourcing round (10 workers x 5 answers)
  appended to a 5,000-object dataset through ``dataset.columnar()`` (the
  :class:`~repro.data.columnar.ColumnarAppender` path), against a cold
  ``ColumnarClaims(dataset)`` rebuild of the same state. The acceptance bar
  is **>= 10x** (measured ~25-40x; steady-state appends are faster still
  because the first-occurrence tables are already warm).
* ``appender.pair_splice`` — the per-round refresh of the claim x
  candidate :class:`~repro.data.columnar.PairExpansion`: one simulated
  round spliced through :meth:`PairExpansion.spliced` against the cold
  re-factorization every post-append fit used to pay. The acceptance bar
  is **>= 3x**: a measured bound, not a modest ambition — the ``np.unique``
  sorts the splice eliminates are only ~55% of a cold build (the rest is
  writing the six O(pairs) arrays, which any refresh must do), so ~3.5-4.5x
  is the ceiling of *any* splice at these scales.
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
MIN_PAIR_SPLICE_SPEEDUP = 3.0


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
def pair_splice_report(appender_report, merge_bench_artifact):
    """Splice vs cold re-factorization of the pair expansion after a round.

    A first round introduces the worker panel (new claimants); the timed
    second round is the steady-state crowdsourcing shape — answers from
    known workers — where the expansion is spliced. The measured cold build is exactly the
    ``PairExpansion(col)`` every post-append fit paid before the splice.
    """
    from repro.data.columnar import PairExpansion

    # 4x the appender scale: the splice's advantage is asymptotic (it
    # removes the O(pairs log pairs) np.unique), so it is measured on
    # 20,000 objects rather than 5,000.
    dataset = make_birthplaces(size=4 * N_OBJECTS, seed=7)
    rng = np.random.default_rng(2)
    simulate_round(dataset, rng, round_seed=13)  # worker panel becomes known
    col = dataset.columnar()
    col.pairs  # the expansion a previous fit would have built
    # Same panel (same round_seed) answering fresh objects each round.
    answers = simulate_round(dataset, rng, round_seed=13)

    captured = {}
    original = PairExpansion.__dict__["spliced"].__func__

    def capturing(cls, old, new_col, inserted, **kwargs):
        captured["args"] = (old, new_col, inserted, kwargs)
        return original(cls, old, new_col, inserted, **kwargs)

    PairExpansion.spliced = classmethod(capturing)
    try:
        t0 = time.perf_counter()
        appended = dataset.columnar()
        refresh_seconds = time.perf_counter() - t0
    finally:
        PairExpansion.spliced = classmethod(original)
    assert appended._pairs is not None and "args" in captured

    # Best-of-N for both sides: single-shot wall clocks jitter far more
    # than the splice/rebuild gap on a loaded runner.
    def best_of(fn, repeats: int = 7) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    s_old, s_col, s_ins, s_kwargs = captured["args"]
    splice_seconds = best_of(
        lambda: PairExpansion.spliced(s_old, s_col, s_ins, **s_kwargs)
    )
    rebuild_seconds = best_of(lambda: PairExpansion(appended))
    cold = PairExpansion(appended)

    def canonical(index):
        # Spliced expansions keep cell ids append-stable; cold builds use
        # np.unique order — compare the partitions, which is what EM sees.
        uniq, first, inv = np.unique(index, return_index=True, return_inverse=True)
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(uniq))
        return rank[inv]

    spliced = appended.pairs
    arrays_equal = (
        all(
            np.array_equal(getattr(spliced, name), getattr(cold, name))
            for name in ("pair_claim", "pair_slot", "pair_size", "pair_is_claimed")
        )
        and spliced.n_cells == cold.n_cells
        and spliced.n_totals == cold.n_totals
        and np.array_equal(canonical(spliced.cell_index), canonical(cold.cell_index))
        and np.array_equal(canonical(spliced.total_index), canonical(cold.total_index))
    )

    report = dict(appender_report)
    report["pair_splice"] = {
        "objects": 4 * N_OBJECTS,
        "answers_appended": answers,
        "pairs": len(cold.pair_claim),
        "splice_seconds": splice_seconds,
        "refresh_with_pairs_seconds": refresh_seconds,
        "rebuild_seconds": rebuild_seconds,
        "speedup": rebuild_seconds / splice_seconds if splice_seconds > 0 else float("inf"),
        "arrays_equal": arrays_equal,
    }
    merge_bench_artifact(appender=report)
    return report["pair_splice"]


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


def test_pair_splice_matches_cold_factorization(pair_splice_report):
    """Deterministic half: the spliced expansion is array-equal to the cold
    ``np.unique`` factorization after a steady-state round."""
    assert pair_splice_report["arrays_equal"]


@pytest.mark.slow  # wall-clock assertion: only the non-blocking CI bench job
def test_append_speedup_threshold(appender_report):
    """Timing half: one appended round beats a cold rebuild by >= 10x."""
    assert appender_report["speedup"] >= MIN_APPEND_SPEEDUP, appender_report


@pytest.mark.slow  # wall-clock assertion: only the non-blocking CI bench job
def test_pair_splice_speedup_threshold(pair_splice_report):
    """Timing half: the per-round pair refresh beats the cold
    re-factorization by >= 3x (see the module docstring for why 3x is the
    honest bar: the eliminated sorts are ~55% of a cold build)."""
    assert (
        pair_splice_report["speedup"] >= MIN_PAIR_SPLICE_SPEEDUP
    ), pair_splice_report
