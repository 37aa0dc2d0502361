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
from typing import Dict, Hashable, Mapping, Union

import numpy as np

from ..data.columnar import resolve_engine
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

    ``use_columnar`` selects between the per-object dict loop (reference) and
    the vectorized engine, where both CRH steps collapse to ``np.bincount``
    calls over the flat claim table: the weighted vote scatters claimant
    weights onto candidate slots, and the 0-1 loss step compares each claim's
    slot against the per-object argmax slot.
    """

    name = "CRH"
    supports_workers = True

    def __init__(
        self,
        max_iter: int = 30,
        tol: float = 1e-4,
        use_columnar: Union[bool, str] = "auto",
    ) -> None:
        self.max_iter = max_iter
        self.tol = tol
        self.use_columnar = use_columnar

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        if resolve_engine(self.use_columnar, dataset):
            return self._fit_columnar(dataset)
        return self._fit_reference(dataset)

    def _fit_columnar(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
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

    def _fit_reference(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        claims_cache = {obj: self._claims_of(dataset, obj) for obj in dataset.objects}
        claimants = {c for claims in claims_cache.values() for c in claims}
        weights: Dict[Hashable, float] = {c: 1.0 for c in claimants}
        confidences: Dict[ObjectId, np.ndarray] = {}
        iterations = 0
        converged = False

        for iterations in range(1, self.max_iter + 1):
            # Truth step: weighted vote.
            confidences = {}
            for obj, claims in claims_cache.items():
                ctx = dataset.context(obj)
                scores = np.zeros(ctx.size)
                for claimant, value in claims.items():
                    scores[ctx.index[value]] += weights[claimant]
                total = scores.sum()
                confidences[obj] = (
                    scores / total if total > 0 else np.full(ctx.size, 1.0 / ctx.size)
                )
            truths = {
                obj: dataset.context(obj).values[int(np.argmax(vec))]
                for obj, vec in confidences.items()
            }
            # Weight step: 0-1 loss against current truths.
            losses: Dict[Hashable, float] = {c: 0.0 for c in claimants}
            counts: Dict[Hashable, int] = {c: 0 for c in claimants}
            for obj, claims in claims_cache.items():
                for claimant, value in claims.items():
                    losses[claimant] += 0.0 if value == truths[obj] else 1.0
                    counts[claimant] += 1
            total_loss = sum(
                (losses[c] + 0.5) / (counts[c] + 1.0) for c in claimants
            )
            new_weights = {
                c: -math.log(((losses[c] + 0.5) / (counts[c] + 1.0)) / total_loss)
                for c in claimants
            }
            delta = max(
                abs(new_weights[c] - weights[c]) for c in claimants
            ) if claimants else 0.0
            weights = new_weights
            if delta < self.tol:
                converged = True
                break
        result = InferenceResult(dataset, confidences, iterations, converged)
        result.source_weights = weights  # type: ignore[attr-defined]
        return result

    @staticmethod
    def _claims_of(dataset: TruthDiscoveryDataset, obj: ObjectId):
        claims: Dict[Hashable, object] = dict(dataset.records_for(obj))
        for worker, value in dataset.answers_for(obj).items():
            claims[("worker", worker)] = value
        return claims


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
