"""Round-based crowdsourced truth-discovery simulator (paper Figure 2).

Each round the simulator (1) runs truth inference over records + answers so
far, (2) scores the current truths against the gold standard, (3) asks the
task assigner for ``k`` objects per worker, (4) collects simulated answers
and folds them into the dataset. This is the loop behind Figures 6-11 and
14-17 and Table 4.

The round-0 entry of the history is the no-crowdsourcing operating point, as
in the paper's plots.

The whole loop stays on **one live encoding**: the simulator's private
dataset copy carries the input's cached encoding forward
(``dataset.copy()``), the answers collected each round are spliced in by the
incremental appender
(:class:`~repro.data.columnar.ColumnarAppender`, transparently via
``dataset.columnar()``), and the EAI assigner reuses the columnar TDH EM
state plus per-``records_version`` likelihood tables across rounds — no
per-round O(claims) rebuild anywhere. A superseded encoding holds no
reference back to itself, so each round's predecessor is freed by
reference counting as soon as the round drops it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..assignment.base import Assignment, TaskAssigner
from ..data.model import Answer, ObjectId, TruthDiscoveryDataset, WorkerId
from ..eval.metrics import EvaluationReport, evaluate
from ..inference.base import InferenceResult, TruthInferenceAlgorithm
from ..inference.tdh import TDHModel, TDHResult
from ..inference._structures import StructureCache
from .workers import SimulatedWorker


@dataclass
class RoundRecord:
    """Everything measured in one round."""

    round: int
    accuracy: float
    gen_accuracy: float
    avg_distance: float
    answers_collected: int
    inference_seconds: float
    assignment_seconds: float
    estimated_improvement: Optional[float] = None
    actual_improvement: Optional[float] = None


@dataclass
class SimulationHistory:
    """Per-round records plus convenience accessors for plotting/benching."""

    records: List[RoundRecord] = field(default_factory=list)

    def series(self, metric: str) -> List[float]:
        """Column extraction, e.g. ``history.series("accuracy")``."""
        return [getattr(r, metric) for r in self.records]

    @property
    def final(self) -> RoundRecord:
        return self.records[-1]

    def at_round(self, n: int) -> RoundRecord:
        for record in self.records:
            if record.round == n:
                return record
        raise KeyError(f"no record for round {n}")


class CrowdSimulator:
    """Drives inference + task assignment + simulated answering.

    Parameters
    ----------
    dataset:
        The base dataset (records only, or with pre-existing answers). The
        simulator works on a copy; the input is never mutated.
    model:
        Truth-inference algorithm. :class:`TDHModel` gets warm starts and a
        shared structure cache across rounds.
    assigner:
        Task-assignment policy.
    workers:
        The simulated worker panel.
    seed:
        Seed for answer generation.
    rng:
        Optional explicit :class:`numpy.random.Generator` for answer
        generation; overrides ``seed``. All simulator randomness flows
        through this single generator (no module-level RNG state), which
        keeps runs bit-reproducible across interpreter versions.
    """

    def __init__(
        self,
        dataset: TruthDiscoveryDataset,
        model: TruthInferenceAlgorithm,
        assigner: TaskAssigner,
        workers: Sequence[SimulatedWorker],
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.dataset = dataset.copy()
        self.model = model
        self.assigner = assigner
        self.workers = list(workers)
        #: Per-round assignments, appended by :meth:`run` — the regression
        #: surface for parity tests (a run of the production classes and a
        #: run of their dict-loop oracles must produce identical sequences).
        self.assignment_log: List[Assignment] = []
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._structure_cache = (
            model.make_structure_cache(self.dataset)
            if isinstance(model, TDHModel)
            else StructureCache(self.dataset)
        )
        self._previous_result: Optional[InferenceResult] = None

    # ------------------------------------------------------------------
    def _infer(self) -> InferenceResult:
        if isinstance(self.model, TDHModel):
            warm = (
                self._previous_result
                if isinstance(self._previous_result, TDHResult)
                else None
            )
            return self.model.fit(
                self.dataset, warm_start=warm, structures=self._structure_cache
            )
        if getattr(self.model, "supports_incremental", False):
            # Confusion-family models (DS/LFC/ZenCrowd) accept warm_start=;
            # with their incremental knob on, each round re-converges only
            # the dirty frontier of the previous round's result. The warm
            # gate passes because the simulator fits its own private copy
            # and answers never bump records_version.
            return self.model.fit(self.dataset, warm_start=self._previous_result)
        return self.model.fit(self.dataset)

    def _collect(self, assignment: Assignment) -> int:
        by_id: Dict[WorkerId, SimulatedWorker] = {
            w.worker_id: w for w in self.workers
        }
        collected = 0
        for worker_id, objects in assignment.items():
            worker = by_id[worker_id]
            for obj in objects:
                value = worker.answer(self.dataset, obj, self._rng)
                self.dataset.add_answer(Answer(obj, worker_id, value))
                collected += 1
        return collected

    def _estimate_improvement(
        self, result: InferenceResult, assignment: Assignment
    ) -> Optional[float]:
        """Sum of the assigner's own quality estimates over assigned pairs."""
        from ..assignment.eai import EAIAssigner
        from ..assignment.qasca import QascaAssigner

        if isinstance(self.assigner, EAIAssigner) and isinstance(result, TDHResult):
            total = 0.0
            for worker_id, objects in assignment.items():
                psi = result.worker_psi(worker_id, self.assigner.default_psi)
                for obj in objects:
                    total += self.assigner.eai(result, obj, psi)
            return total
        if isinstance(self.assigner, QascaAssigner):
            total = 0.0
            for worker_id, objects in assignment.items():
                for obj in objects:
                    total += self.assigner.improvement(
                        self.dataset, result, obj, worker_id
                    )
            return total
        return None

    # ------------------------------------------------------------------
    def run(
        self,
        rounds: int,
        tasks_per_worker: int = 5,
        evaluate_every: int = 1,
    ) -> SimulationHistory:
        """Run the crowdsourcing loop and return the per-round history."""
        history = SimulationHistory()
        worker_ids = [w.worker_id for w in self.workers]

        result = self._infer()
        report = evaluate(self.dataset, result.truths())
        history.records.append(
            RoundRecord(
                round=0,
                accuracy=report.accuracy,
                gen_accuracy=report.gen_accuracy,
                avg_distance=report.avg_distance,
                answers_collected=0,
                inference_seconds=0.0,
                assignment_seconds=0.0,
            )
        )
        self._previous_result = result

        for round_no in range(1, rounds + 1):
            t0 = time.perf_counter()
            assignment = self.assigner.assign(
                self.dataset, result, worker_ids, tasks_per_worker
            )
            assignment_seconds = time.perf_counter() - t0
            self.assignment_log.append(assignment)
            estimated = self._estimate_improvement(result, assignment)
            collected = self._collect(assignment)

            t0 = time.perf_counter()
            result = self._infer()
            inference_seconds = time.perf_counter() - t0
            self._previous_result = result

            if round_no % evaluate_every == 0 or round_no == rounds:
                report = evaluate(self.dataset, result.truths())
                previous = history.records[-1]
                history.records.append(
                    RoundRecord(
                        round=round_no,
                        accuracy=report.accuracy,
                        gen_accuracy=report.gen_accuracy,
                        avg_distance=report.avg_distance,
                        answers_collected=collected,
                        inference_seconds=inference_seconds,
                        assignment_seconds=assignment_seconds,
                        estimated_improvement=estimated,
                        actual_improvement=report.accuracy - previous.accuracy,
                    )
                )
        return history
