"""LCA — Latent Credibility Analysis (Pasternack & Roth, WWW 2013).

We implement **GuessLCA**, the best performer of the seven LCA variants per
the paper's Section 5.1: each source ``s`` has an honesty ``h_s``; an honest
claim asserts the truth, a dishonest one *guesses* according to a prior guess
distribution ``q_o`` (the popularity of candidate values), so

``P(claim = u | truth = v) = h_s               if u = v``
``P(claim = u | truth = v) = (1-h_s) q_o(u|not v)  otherwise``

EM alternates between the two updates per round:

* **E-step**: ``mu_{o,v} proportional to mu_{o,v} prod_claims L(u | v, h_s)``
  with the likelihood above and ``q_o(u | not v) = q_o(u) / (1 - q_o(v))``;
* **M-step**: ``h_s = (sum_claims mu_{o,u} + k) / (|claims_s| + 2k)`` — the
  Beta-smoothed expected fraction of honest claims.

The fit evaluates the likelihood per claim x candidate pair over the
:class:`~repro.data.columnar.PairExpansion` (the guess distribution ``q`` is
one flat per-slot array) and reduces with ``np.bincount``; the dict loops it
replaced are the parity oracle in ``tests/oracles.py``, parity within 1e-8
enforced by ``tests/test_columnar_parity.py``.
"""

from __future__ import annotations

import numpy as np

from ..data.model import TruthDiscoveryDataset
from .base import ColumnarInferenceResult, InferenceResult, TruthInferenceAlgorithm


class GuessLca(TruthInferenceAlgorithm):
    """GuessLCA with popularity guess distribution.

    Parameters
    ----------
    prior_honesty:
        Initial honesty for every source/worker.
    max_iter / tol:
        EM stopping rule on confidence change.
    smoothing:
        Beta-style pseudo-counts on the honesty update.
    """

    name = "LCA"
    supports_workers = True

    def __init__(
        self,
        prior_honesty: float = 0.7,
        max_iter: int = 50,
        tol: float = 1e-5,
        smoothing: float = 1.0,
    ) -> None:
        self.prior_honesty = prior_honesty
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        col = dataset.columnar()
        pairs = col.pairs
        mu = col.initial_confidences_flat()
        honesty = np.full(col.n_claimants, self.prior_honesty, dtype=np.float64)
        counts = col.claimant_counts()

        # Guess distribution q from claim popularity, smoothed so every
        # candidate is guessable.
        q = col.segment_normalize(col.vote_counts() + 1.0)
        q_claimed = q[col.claim_slot]  # q_o(u) of each claim's value

        iterations = 0
        converged = False
        for iterations in range(1, self.max_iter + 1):
            h = honesty[col.claim_claimant]
            miss = ((1.0 - h) * q_claimed)[pairs.pair_claim] / np.maximum(
                1.0 - q[pairs.pair_slot], 1e-9
            )
            like = np.where(pairs.pair_is_claimed, h[pairs.pair_claim], miss)
            contrib = np.log(np.maximum(like, 1e-12))
            log_post = np.log(np.maximum(mu, 1e-12)) + np.bincount(
                pairs.pair_slot, weights=contrib, minlength=col.n_slots
            )
            posterior = col.segment_softmax(log_post)
            delta = float(np.max(np.abs(posterior - mu))) if col.n_slots else 0.0
            mu = posterior
            correct_mass = np.bincount(
                col.claim_claimant,
                weights=posterior[col.claim_slot],
                minlength=col.n_claimants,
            )
            honesty = np.clip(
                (correct_mass + self.smoothing)
                / (counts + 2.0 * self.smoothing),
                0.01,
                0.99,
            )
            if delta < self.tol:
                converged = True
                break
        result = ColumnarInferenceResult(dataset, col, mu, iterations, converged)
        result.honesty = col.claimant_mapping(honesty)  # type: ignore[attr-defined]
        return result
