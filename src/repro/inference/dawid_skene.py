"""Dawid-Skene and ZenCrowd — classic crowd-label aggregation models.

Dawid & Skene (1979) is the original confusion-matrix EM the paper's [4]
cites; ZenCrowd (Demartini et al., WWW 2012, [5]) is the two-sided Bernoulli
reliability model. Both are frequent reference points in the truth-inference
survey [40] that the paper leans on, and both fit naturally into this
package's per-object candidate formulation:

* Dawid-Skene keeps, per claimant, a sparse confusion matrix restricted to
  each object's candidate set (structurally the same reduction we use for
  LFC, but with per-claimant class priors as in the original).
* ZenCrowd keeps a single reliability ``r_c``: a claim matches the truth
  with probability ``r_c`` and is uniform otherwise.

Both models run their E/M updates over the dataset's
:class:`~repro.data.columnar.ColumnarClaims` encoding: the confusion-cell
scatter and the per-candidate log-likelihood gather both become
``np.bincount`` calls over the precomputed claim x candidate
:class:`~repro.data.columnar.PairExpansion`. Its row order matches the
per-object dict loops the formulas are written in, which are kept as the
parity oracles in ``tests/oracles.py``, so the accumulated sums agree to
float round-off.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.columnar import FrontierView, incremental_frontier
from ..data.model import TruthDiscoveryDataset
from .base import (
    ColumnarInferenceResult,
    InferenceResult,
    TruthInferenceAlgorithm,
    validate_warm_start,
)


def _confusion_estep_kernel(ops, mu, cells, totals, smoothing, with_prior):
    """Confusion-matrix E-step over ``ops``: the whole
    :class:`~repro.data.columnar.ColumnarClaims` or a
    :class:`~repro.data.columnar.FrontierView` of it.

    Shared by Dawid-Skene (``with_prior=True``: the current confidences act
    as class priors) and LFC (``with_prior=False``: uniform prior). The
    confusion ``cells`` / ``totals`` are reduced by the caller over the
    whole pair table; the kernel performs the per-pair log-likelihood gather
    and the per-slot reduction + softmax. Returns ``(posterior, delta)``.
    """
    contrib = np.log(
        (cells[ops.cell_index] + smoothing)
        / (totals[ops.total_index] + smoothing * ops.pair_size)
    )
    log_post = np.bincount(ops.pair_slot, weights=contrib, minlength=ops.n_slots)
    if with_prior:
        log_post = np.log(np.maximum(mu, 1e-12)) + log_post
    posterior = ops.segment_softmax(log_post)
    delta = float(np.max(np.abs(posterior - mu))) if ops.n_slots else 0.0
    return posterior, delta


def _zencrowd_estep_kernel(ops, mu, r, miss_denom):
    """ZenCrowd E-step over ``ops`` (the whole encoding or a frontier view):
    per-claim hit/miss log-likelihoods from the clipped reliability ``r``
    (indexed by global claimant id) and the per-claim uniform-miss
    denominators, the per-slot posterior, plus each claim's posterior mass
    on its claimed slot (the caller's per-claimant reliability reduction
    needs it in claim order). Returns ``(posterior, claim_correct, delta)``."""
    log_hit = np.log(r[ops.claim_claimant])
    log_miss = np.log((1.0 - r[ops.claim_claimant]) / miss_denom)
    contrib = np.where(
        ops.pair_is_claimed,
        log_hit[ops.pair_claim],
        log_miss[ops.pair_claim],
    )
    log_post = np.log(np.maximum(mu, 1e-12)) + np.bincount(
        ops.pair_slot, weights=contrib, minlength=ops.n_slots
    )
    posterior = ops.segment_softmax(log_post)
    delta = float(np.max(np.abs(posterior - mu))) if ops.n_slots else 0.0
    return posterior, posterior[ops.claim_slot], delta


def _incremental_confusion_fit(model, dataset, warm, with_prior):
    """Shared dirty-frontier fit for the confusion-E-step family (DS / LFC).

    Re-converges only the frontier's posteriors, holding clean objects at the
    warm-start values. The global confusion reductions are patched per
    iteration as ``base + frontier``: ``base`` is one full-pair-table
    bincount at the warm posteriors minus the frontier's contribution at the
    same posteriors — computed once, O(claims); each EM iteration then only
    re-reduces the frontier's pairs and runs the full fit's
    :func:`_confusion_estep_kernel` over a
    :class:`~repro.data.columnar.FrontierView`. Returns ``None`` when the
    delta cannot be served (caller falls back to a cold fit), or delegates to
    ``model._fit_columnar`` when the frontier saturates (bitwise parity).
    """
    if not isinstance(warm, ColumnarInferenceResult):
        return None
    plan = incremental_frontier(
        dataset,
        warm._columnar,
        hops=model.frontier_hops,
        reuse=getattr(warm, "frontier_state", None),
    )
    if plan is None:
        return None
    col, frontier = plan.col, plan.frontier
    if len(frontier) >= col.n_objects:
        return model._fit_columnar(dataset)

    pairs = col.pairs
    fv = FrontierView(col, frontier)
    # Slot growth (appended objects / brand-new candidates) scatter-expands
    # the warm posteriors into the new layout; new slots get weight 0.0, so
    # the base reductions below — which use ``mu`` only as bincount weights —
    # subtract exactly the mass the warm totals contained. Every new slot
    # belongs to a frontier object, so its posterior is re-converged from
    # the vote-proportion init like any other frontier slot.
    mu = plan.expand_slots(warm.flat)
    # Re-initialise the frontier's posteriors from vote proportions (the
    # cold fit's starting point, now including the new answers) instead of
    # the warm values: a converged posterior is near-one-hot, and with it
    # as the E-step prior the appended answers can never overcome a
    # ~log(1e-12) margin — the fit would "converge" in one iteration
    # without moving. Clean objects stay frozen at the warm values.
    mu_f = col.initial_confidences_flat()[fv.slot_ids]
    w_all = mu[pairs.pair_slot]
    base_cells = np.bincount(pairs.cell_index, weights=w_all, minlength=pairs.n_cells)
    base_totals = np.bincount(
        pairs.total_index, weights=w_all, minlength=pairs.n_totals
    )
    w_warm = mu[fv.slot_ids][fv.pair_slot]
    base_cells -= np.bincount(fv.cell_index, weights=w_warm, minlength=pairs.n_cells)
    base_totals -= np.bincount(
        fv.total_index, weights=w_warm, minlength=pairs.n_totals
    )

    iterations = 0
    converged = False
    for iterations in range(1, model.max_iter + 1):
        w_f = mu_f[fv.pair_slot]
        cells = base_cells + np.bincount(
            fv.cell_index, weights=w_f, minlength=pairs.n_cells
        )
        totals = base_totals + np.bincount(
            fv.total_index, weights=w_f, minlength=pairs.n_totals
        )
        posterior, delta = _confusion_estep_kernel(
            fv, mu_f, cells, totals, model.smoothing, with_prior
        )
        mu_f = posterior
        if delta < model.tol:
            converged = True
            break
    mu[fv.slot_ids] = mu_f
    result = ColumnarInferenceResult(dataset, col, mu, iterations, converged)
    result.frontier_size = len(frontier)
    result.frontier_state = plan.frontier_state
    return result


class DawidSkene(TruthInferenceAlgorithm):
    """Dawid-Skene EM with sparse per-claimant confusion matrices.

    Parameters
    ----------
    smoothing:
        Laplace pseudo-count per confusion cell.
    max_iter / tol:
        EM stopping rule on confidence change.
    incremental / frontier_hops:
        With ``incremental=True`` and a ``warm_start=`` result from the same
        dataset, re-converge only the dirty frontier (touched objects plus
        claimant-sharing neighbours up to ``frontier_hops``); falls back to
        a cold fit whenever the delta cannot be served exactly.
    """

    name = "DS"
    supports_workers = True
    supports_incremental = True

    def __init__(
        self,
        smoothing: float = 0.5,
        max_iter: int = 40,
        tol: float = 1e-5,
        incremental: bool = False,
        frontier_hops: int = 1,
    ) -> None:
        self.smoothing = smoothing
        self.max_iter = max_iter
        self.tol = tol
        self.incremental = incremental
        if frontier_hops < 0:
            raise ValueError("frontier_hops must be >= 0")
        self.frontier_hops = frontier_hops

    def fit(
        self,
        dataset: TruthDiscoveryDataset,
        warm_start: Optional[InferenceResult] = None,
    ) -> InferenceResult:
        warm_start = validate_warm_start(dataset, warm_start)
        if self.incremental and warm_start is not None:
            result = _incremental_confusion_fit(
                self, dataset, warm_start, with_prior=True
            )
            if result is not None:
                return result
        return self._fit_columnar(dataset)

    def _fit_columnar(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        col = dataset.columnar()
        pairs = col.pairs
        mu = col.initial_confidences_flat()
        iterations = 0
        converged = False

        for iterations in range(1, self.max_iter + 1):
            # M-step: every pair (claim j, candidate slot s) adds mu[s] to the
            # claimant's confusion cell (truth value of s, claimed value of j)
            # and to the (claimant, truth) marginal — one pass over the pair
            # table in its original order.
            weight = mu[pairs.pair_slot]
            cells = np.bincount(
                pairs.cell_index, weights=weight, minlength=pairs.n_cells
            )
            totals = np.bincount(
                pairs.total_index, weights=weight, minlength=pairs.n_totals
            )

            # E-step: log-likelihood gather + per-slot softmax.
            mu, delta = _confusion_estep_kernel(
                col, mu, cells, totals, self.smoothing, with_prior=True
            )
            if delta < self.tol:
                converged = True
                break
        return ColumnarInferenceResult(dataset, col, mu, iterations, converged)


class ZenCrowd(TruthInferenceAlgorithm):
    """ZenCrowd: single Bernoulli reliability per claimant, EM-estimated."""

    name = "ZENCROWD"
    supports_workers = True
    supports_incremental = True

    def __init__(
        self,
        prior_reliability: float = 0.7,
        max_iter: int = 40,
        tol: float = 1e-5,
        incremental: bool = False,
        frontier_hops: int = 1,
    ) -> None:
        self.prior_reliability = prior_reliability
        self.max_iter = max_iter
        self.tol = tol
        self.incremental = incremental
        if frontier_hops < 0:
            raise ValueError("frontier_hops must be >= 0")
        self.frontier_hops = frontier_hops

    def fit(
        self,
        dataset: TruthDiscoveryDataset,
        warm_start: Optional[InferenceResult] = None,
    ) -> InferenceResult:
        warm_start = validate_warm_start(dataset, warm_start)
        if self.incremental and warm_start is not None:
            result = self._fit_incremental(dataset, warm_start)
            if result is not None:
                return result
        return self._fit_columnar(dataset)

    # ------------------------------------------------------------------
    # incremental engine (dirty-object frontier)
    # ------------------------------------------------------------------
    def _fit_incremental(
        self, dataset: TruthDiscoveryDataset, warm: InferenceResult
    ) -> Optional[InferenceResult]:
        """Frontier-only ZenCrowd EM; ``None`` -> run the full fit.

        Needs no pair expansion: the global per-claimant correct-mass
        reduction is patched as ``base + frontier`` where ``base`` is one
        full claim-table bincount at the warm posteriors minus the
        frontier's claims at the same posteriors. Reliability is seeded
        from the warm result (prior for unseen claimants).
        """
        if not isinstance(warm, ColumnarInferenceResult):
            return None
        reliability_map = getattr(warm, "reliability", None)
        if reliability_map is None:
            return None
        plan = incremental_frontier(
            dataset,
            warm._columnar,
            hops=self.frontier_hops,
            reuse=getattr(warm, "frontier_state", None),
        )
        if plan is None:
            return None
        col, frontier = plan.col, plan.frontier
        if len(frontier) >= col.n_objects:
            return self._fit_columnar(dataset)

        fv = FrontierView(col, frontier)
        # Slot growth: scatter-expand the warm posteriors (new slots 0.0 —
        # ``mu`` only weights the base bincount below, and the frontier's
        # contribution is subtracted at the same values, so the base is the
        # clean objects' exact correct-mass either way).
        mu = plan.expand_slots(warm.flat)
        # Vote-proportion re-init for the frontier, as in the confusion fit:
        # the warm posterior as a prior is too saturated for new answers to
        # move.
        mu_f = col.initial_confidences_flat()[fv.slot_ids]
        counts = col.claimant_counts()
        reliability = np.full(
            col.n_claimants, self.prior_reliability, dtype=np.float64
        )
        for cid, key in enumerate(col.claimants):
            prev = reliability_map.get(key)
            if prev is not None:
                reliability[cid] = prev
        base_correct = np.bincount(
            col.claim_claimant,
            weights=mu[col.claim_slot],
            minlength=col.n_claimants,
        )
        base_correct -= np.bincount(
            fv.claim_claimant,
            weights=mu[fv.slot_ids][fv.claim_slot],
            minlength=col.n_claimants,
        )
        miss_denom = np.maximum(fv.sizes[fv.claim_obj] - 1, 1).astype(np.float64)
        iterations = 0
        converged = False
        for iterations in range(1, self.max_iter + 1):
            r = np.clip(reliability, 1e-3, 1.0 - 1e-3)
            mu_f, claim_correct, delta = _zencrowd_estep_kernel(
                fv, mu_f, r, miss_denom
            )
            correct_mass = base_correct + np.bincount(
                fv.claim_claimant,
                weights=claim_correct,
                minlength=col.n_claimants,
            )
            reliability = (correct_mass + 1.0) / (counts + 2.0)
            if delta < self.tol:
                converged = True
                break
        mu[fv.slot_ids] = mu_f
        result = ColumnarInferenceResult(dataset, col, mu, iterations, converged)
        result.reliability = col.claimant_mapping(reliability)  # type: ignore[attr-defined]
        result.frontier_size = len(frontier)
        result.frontier_state = plan.frontier_state
        return result

    # ------------------------------------------------------------------
    # full fit
    # ------------------------------------------------------------------
    def _fit_columnar(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        col = dataset.columnar()
        mu = col.initial_confidences_flat()
        reliability = np.full(col.n_claimants, self.prior_reliability, dtype=np.float64)
        counts = col.claimant_counts()
        # Per-claim uniform-miss denominator max(|Vo| - 1, 1).
        miss_denom = np.maximum(col.sizes[col.claim_obj] - 1, 1).astype(np.float64)
        iterations = 0
        converged = False

        for iterations in range(1, self.max_iter + 1):
            r = np.clip(reliability, 1e-3, 1.0 - 1e-3)
            mu, claim_correct, delta = _zencrowd_estep_kernel(col, mu, r, miss_denom)
            # Per-claimant reliability: one bincount over the claim table.
            correct_mass = np.bincount(
                col.claim_claimant,
                weights=claim_correct,
                minlength=col.n_claimants,
            )
            reliability = (correct_mass + 1.0) / (counts + 2.0)
            if delta < self.tol:
                converged = True
                break
        result = ColumnarInferenceResult(dataset, col, mu, iterations, converged)
        result.reliability = col.claimant_mapping(reliability)  # type: ignore[attr-defined]
        return result
