"""CRH — Conflict Resolution on Heterogeneous data (Li et al., SIGMOD 2014).

CRH alternates between (1) inferring truths as the weighted aggregate of
claims and (2) re-weighting sources by their total loss:
``w_s = -log( loss_s / sum_s' loss_s' )``. Categorical attributes use 0-1
loss with weighted voting; numeric attributes use variance-normalised squared
loss with a weighted mean — both from the original framework, so the same
class serves Table 3 (categorical) and Table 6 (numeric).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Mapping

import numpy as np

from ..data.model import ObjectId, TruthDiscoveryDataset
from .base import ColumnarInferenceResult, InferenceResult, TruthInferenceAlgorithm


def _crh_step_kernel(ops, weights):
    """One CRH truth step + 0-1 loss evaluation over ``ops`` (a
    :class:`~repro.data.columnar.SegmentOps` with a claim table).

    Computes the weighted vote under the per-claimant ``weights``, the
    per-object normalize/argmax and the per-claim loss; the caller reduces
    the per-claim ``wrong`` flags per claimant. Returns
    ``(confidences, wrong_per_claim)``.
    """
    scores = ops.weighted_counts(weights)
    flat_conf = ops.segment_normalize(scores)
    truth_slot = ops.segment_argmax_slot(scores)
    wrong = (ops.claim_slot != truth_slot[ops.claim_obj]).astype(np.float64)
    return flat_conf, wrong


class Crh(TruthInferenceAlgorithm):
    """CRH for categorical claims (weighted voting + loss-based weights).

    Both CRH steps are ``np.bincount`` calls over the flat claim table: the
    weighted vote scatters claimant weights onto candidate slots, and the 0-1
    loss step compares each claim's slot against the per-object argmax slot.
    The per-object dict loop is the parity oracle in ``tests/oracles.py``.
    """

    name = "CRH"
    supports_workers = True

    def __init__(self, max_iter: int = 30, tol: float = 1e-4) -> None:
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        col = dataset.columnar()
        weights = np.ones(col.n_claimants, dtype=np.float64)
        counts = col.claimant_counts()
        flat_conf = np.zeros(col.n_slots, dtype=np.float64)
        iterations = 0
        converged = False

        for iterations in range(1, self.max_iter + 1):
            # Truth step: weighted vote + per-object argmax, then 0-1 loss
            # per claim against the current truths.
            flat_conf, wrong = _crh_step_kernel(col, weights)
            # Weight step: per-claimant loss reduction.
            losses = np.bincount(
                col.claim_claimant, weights=wrong, minlength=col.n_claimants
            )
            ratios = (losses + 0.5) / (counts + 1.0)
            new_weights = -np.log(ratios / ratios.sum())
            delta = (
                float(np.max(np.abs(new_weights - weights)))
                if col.n_claimants
                else 0.0
            )
            weights = new_weights
            if delta < self.tol:
                converged = True
                break
        result = ColumnarInferenceResult(dataset, col, flat_conf, iterations, converged)
        result.source_weights = col.claimant_mapping(weights)  # type: ignore[attr-defined]
        return result


class CrhNumeric:
    """CRH for numeric claims: weighted mean + normalised squared loss.

    Operates on raw numeric claim tables (``object -> {source: value}``)
    rather than :class:`TruthDiscoveryDataset`, since numeric truths are not
    restricted to candidate values.
    """

    name = "CRH"

    def __init__(self, max_iter: int = 30, tol: float = 1e-6) -> None:
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, claims: Mapping[ObjectId, Mapping[Hashable, float]]) -> Dict[ObjectId, float]:
        """Return the estimated numeric truth per object."""
        sources = {s for per_obj in claims.values() for s in per_obj}
        weights: Dict[Hashable, float] = {s: 1.0 for s in sources}
        truths: Dict[ObjectId, float] = {
            obj: float(np.median(list(per_obj.values()))) for obj, per_obj in claims.items()
        }
        # Per-object scale for loss normalisation (std of claims, floored).
        scales = {
            obj: max(float(np.std(list(per_obj.values()))), 1e-9)
            for obj, per_obj in claims.items()
        }
        for _ in range(self.max_iter):
            losses: Dict[Hashable, float] = {s: 0.0 for s in sources}
            counts: Dict[Hashable, int] = {s: 0 for s in sources}
            for obj, per_obj in claims.items():
                truth = truths[obj]
                scale = scales[obj]
                for source, value in per_obj.items():
                    losses[source] += ((value - truth) / scale) ** 2
                    counts[source] += 1
            total_loss = sum(
                (losses[s] + 1e-6) / (counts[s] or 1) for s in sources
            )
            weights = {
                s: -math.log(((losses[s] + 1e-6) / (counts[s] or 1)) / total_loss)
                for s in sources
            }
            new_truths = {}
            for obj, per_obj in claims.items():
                wsum = sum(max(weights[s], 1e-9) for s in per_obj)
                new_truths[obj] = (
                    sum(max(weights[s], 1e-9) * v for s, v in per_obj.items()) / wsum
                )
            delta = max(abs(new_truths[o] - truths[o]) for o in truths)
            truths = new_truths
            if delta < self.tol:
                break
        return truths
