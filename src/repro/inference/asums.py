"""ASUMS — hierarchy-adapted SUMS (Beretta et al., WIMS 2016).

SUMS (Pasternack & Roth 2010) is the Hubs/Authorities-style fixed point:
source trust = sum of its claims' beliefs, value belief = sum of its
claimants' trusts, with max-normalisation each round. The hierarchical
adaptation lets a claim support its ancestors too, so a source claiming
"Liberty Island" also (partially) supports "NY".

Two properties the paper highlights — and that motivate TDH — are faithfully
reproduced: ASUMS keeps a *single* reliability per source (no generalization
tendency, Figure 5) and requires a **granularity threshold** ``tau`` to decide
how specific the output truth should be.

Fixed-point updates per round:

* **belief step**: ``B_o(v) = sum_{claims (o,s,v)} T(s) +
  rho sum_{claims (o,s,u), v in Go(u)} T(s)`` — a claim supports its value
  fully and each candidate ancestor by the fraction ``rho``
  (``ancestor_support``), then all beliefs are max-normalised globally;
* **trust step**: ``T(s) = sum_{claims (o,s,v)} B_o(v)``, max-normalised.

The fit scatters the trust mass with two ``np.bincount`` calls — one over
the claim table, one over a claim x candidate-ancestor expansion derived from
the :class:`~repro.data.columnar.ColumnarHierarchy` slot-level CSR arrays —
and vectorizes the deepest-within-``tau`` truth selection as a two-stage
per-object argmax (depth first, then belief, first-slot tie-break). The dict
loops it replaced are the parity oracle in ``tests/oracles.py``; parity
within 1e-8 is enforced by ``tests/test_columnar_parity.py``.
"""

from __future__ import annotations

import numpy as np

from ..data.columnar import csr_expand
from ..data.model import TruthDiscoveryDataset
from .base import ColumnarInferenceResult, InferenceResult, TruthInferenceAlgorithm


class Asums(TruthInferenceAlgorithm):
    """Hierarchy-aware SUMS fixed point with threshold-controlled specificity.

    Parameters
    ----------
    tau:
        Granularity threshold: among candidates whose belief is at least
        ``tau * max_belief``, the deepest (most specific) one is returned.
    ancestor_support:
        Fraction of a claim's trust that also flows to each candidate
        ancestor of the claimed value.
    max_iter / tol:
        Fixed-point stopping rule on normalised beliefs.
    """

    name = "ASUMS"
    supports_workers = True

    def __init__(
        self,
        tau: float = 0.8,
        ancestor_support: float = 0.5,
        max_iter: int = 50,
        tol: float = 1e-5,
    ) -> None:
        if not 0.0 < tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        self.tau = tau
        self.ancestor_support = ancestor_support
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        col = dataset.columnar()
        hier = col.hierarchy
        trust = np.ones(col.n_claimants, dtype=np.float64)
        beliefs = np.ones(col.n_slots, dtype=np.float64)

        # Claim x candidate-ancestor expansion: row k pairs a claim with one
        # slot in Go(claimed value) — the targets of the partial support.
        anc_counts = hier.slot_gsize[col.claim_slot]
        anc_claim = np.repeat(
            np.arange(col.n_claims, dtype=np.int64), anc_counts
        )
        anc_slot = hier.slot_anc_slots[
            csr_expand(hier.slot_anc_offsets[col.claim_slot], anc_counts)
        ]

        iterations = 0
        converged = False
        for iterations in range(1, self.max_iter + 1):
            claim_trust = trust[col.claim_claimant]
            new_beliefs = np.bincount(
                col.claim_slot, weights=claim_trust, minlength=col.n_slots
            ) + self.ancestor_support * np.bincount(
                anc_slot, weights=claim_trust[anc_claim], minlength=col.n_slots
            )
            max_belief = max(float(new_beliefs.max()) if col.n_slots else 1.0, 1e-12)
            new_beliefs = new_beliefs / max_belief

            new_trust = np.bincount(
                col.claim_claimant,
                weights=new_beliefs[col.claim_slot],
                minlength=col.n_claimants,
            )
            max_trust = max(
                float(new_trust.max()) if col.n_claimants else 1.0, 1e-12
            )
            new_trust = new_trust / max_trust

            delta = (
                float(np.max(np.abs(new_beliefs - beliefs))) if col.n_slots else 0.0
            )
            beliefs = new_beliefs
            trust = new_trust
            if delta < self.tol:
                converged = True
                break

        # Truth selection: among candidates within tau of the object's peak
        # belief, the deepest wins; ties by higher belief, then first slot.
        if col.n_objects:
            peak = np.maximum.reduceat(beliefs, col.value_offsets[:-1])
        else:
            peak = np.zeros(0, dtype=np.float64)
        eligible = (peak[col.slot_obj] > 0) & (
            beliefs >= self.tau * peak[col.slot_obj]
        )
        eff_depth = np.where(eligible, hier.slot_depth, -1)
        if col.n_objects:
            max_depth = np.maximum.reduceat(eff_depth, col.value_offsets[:-1])
        else:
            max_depth = np.zeros(0, dtype=np.int64)
        best = eligible & (eff_depth == max_depth[col.slot_obj])
        masked = np.where(best, beliefs, -np.inf)
        chosen = col.segment_argmax_slot(masked)

        totals = col.segment_sum(beliefs)
        positive = (totals > 0)[col.slot_obj]
        safe = np.where(positive, totals[col.slot_obj], 1.0)
        scores = np.where(positive, beliefs / safe, beliefs)
        boost = np.zeros(col.n_slots, dtype=np.float64)
        boost[chosen] = 1.0
        flat_conf = 0.5 * scores + 0.5 * boost

        result = ColumnarInferenceResult(
            dataset, col, flat_conf, iterations, converged
        )
        result.trust = col.claimant_mapping(trust)  # type: ignore[attr-defined]
        return result
