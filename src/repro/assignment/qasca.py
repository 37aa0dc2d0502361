"""QASCA-style task assignment (Zheng et al., SIGMOD 2015).

QASCA also targets accuracy improvement, but (a) it estimates the posterior
confidence from a *sampled* answer instead of the expectation and (b) it
ignores how many claims have already been collected — the two drawbacks the
paper's Section 4.1 analysis (and Figure 7) call out. We reproduce both:
the improvement is ``max_v mu_{o,v|v'} - max_v mu_{o,v}`` with
``mu_{o,v|v'} ∝ mu_{o,v} * P(v' | truth=v)`` (a pure Bayes update with no
claim-count damping), for a sampled ``v'``.

The per-evaluation arithmetic is the formulas' own, with every per-round
invariant hoisted out of the ``(worker, object)`` loop: once per result, the
assigner normalises each object's ``result.confidences`` vector, resolves
each worker's clipped accuracy, and caches the ``(accuracy, |Vo|)``
likelihood matrices (QASCA's likelihood depends on nothing else, and
candidate-set sizes repeat heavily). It reads nothing but the confidences
and the worker accuracies, so it serves every inference result alike — TDH
and the DOCS, LCA, ACCU and POPACCU fits of the Table 4 combos. The
per-evaluation loop it replaced is the parity oracle in ``tests/oracles.py``;
both apply the same operations to the same values and draw the same
samples, so they produce **identical** assignments (enforced by the QASCA
cases in ``tests/test_columnar_parity.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.model import ObjectId, TruthDiscoveryDataset, WorkerId
from ..inference.base import InferenceResult
from .base import Assignment, TaskAssigner, worker_accuracy


class _QascaRound:
    """The per-round invariants of the quality measure for one result.

    ``norm`` holds each object's normalised confidence vector (``mu /
    mu.sum()``, uniform when the sum is not positive) and ``accuracy`` the
    per-worker clipped exact-answer probabilities, resolved on first use.
    """

    def __init__(self, result: InferenceResult) -> None:
        self.result = result
        self.norm: Dict[ObjectId, np.ndarray] = {}
        for obj, mu in result.confidences.items():
            mu = np.asarray(mu, dtype=float)
            total = mu.sum()
            self.norm[obj] = mu / total if total > 0 else np.full(len(mu), 1.0 / len(mu))
        self.n_objects = max(len(self.norm), 1)
        self.accuracy: Dict[WorkerId, float] = {}

    def worker_accuracy(self, worker: WorkerId) -> float:
        acc = self.accuracy.get(worker)
        if acc is None:
            acc = self.accuracy[worker] = min(
                max(worker_accuracy(self.result, worker), 1e-3), 1 - 1e-3
            )
        return acc


class QascaAssigner(TaskAssigner):
    """Sampled-answer accuracy-improvement assignment.

    Parameters
    ----------
    seed:
        Seed for the per-round answer sampling (QASCA's estimate is sampling
        based; the seed keeps experiments reproducible).
    """

    name = "QASCA"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._round: Optional[_QascaRound] = None
        # (accuracy, n) -> the worker likelihood matrix; never mutated after
        # construction, so sharing across evaluations and rounds is safe.
        self._likelihood_cache: Dict[Tuple[float, int], np.ndarray] = {}

    def _round_for(self, result: InferenceResult) -> _QascaRound:
        """The invariants of ``result``, computed once per result."""
        if self._round is None or self._round.result is not result:
            self._round = _QascaRound(result)
        return self._round

    def _likelihood(self, accuracy: float, n: int) -> np.ndarray:
        """The ``(n, n)`` answer likelihood for a worker of this accuracy:
        ``accuracy`` on the diagonal, uniform miss mass elsewhere."""
        key = (accuracy, n)
        matrix = self._likelihood_cache.get(key)
        if matrix is None:
            matrix = np.full((n, n), (1.0 - accuracy) / (n - 1))
            np.fill_diagonal(matrix, accuracy)
            self._likelihood_cache[key] = matrix
        return matrix

    # ------------------------------------------------------------------
    # quality measure
    # ------------------------------------------------------------------
    def improvement(
        self,
        dataset: TruthDiscoveryDataset,
        result: InferenceResult,
        obj: ObjectId,
        worker: WorkerId,
    ) -> float:
        """Estimated accuracy gain from asking ``worker`` about ``obj``."""
        state = self._round_for(result)
        mu = state.norm[obj]
        n = len(mu)
        if n == 1:
            return 0.0
        likelihood = self._likelihood(state.worker_accuracy(worker), n)
        # Sample the hypothetical answer from the predictive distribution.
        predictive = likelihood @ mu
        predictive = predictive / predictive.sum()
        sampled = int(self._rng.choice(n, p=predictive))

        posterior = mu * likelihood[sampled]
        z = posterior.sum()
        if z <= 0:
            return 0.0
        posterior = posterior / z
        return (float(posterior.max()) - float(mu.max())) / state.n_objects

    def assign(
        self,
        dataset: TruthDiscoveryDataset,
        result: InferenceResult,
        workers: Sequence[WorkerId],
        k: int,
    ) -> Assignment:
        objects = list(result.confidences)
        assigned: set = set()
        out: Dict[WorkerId, List[ObjectId]] = {w: [] for w in workers}
        for worker in workers:
            answered = set(dataset.objects_of_worker(worker))
            scored: List[Tuple[float, int, ObjectId]] = []
            for i, obj in enumerate(objects):
                if obj in assigned or obj in answered:
                    continue
                scored.append((self.improvement(dataset, result, obj, worker), i, obj))
            scored.sort(key=lambda t: (-t[0], t[1]))
            for _, _, obj in scored[:k]:
                out[worker].append(obj)
                assigned.add(obj)
        return out
