"""DOCS — DOmain-aware Crowdsourcing System (Zheng, Li & Cheng, PVLDB 2016).

DOCS keys worker (and here, source) quality by *domain*: a worker good at
geography questions about Europe may be poor on Asia. Objects are mapped to
domains; every claimant gets a per-domain accuracy with Bayesian smoothing,
and truth inference is a domain-weighted Bayesian vote.

Domain extraction: the original uses knowledge-base entity linking. Our
objects live in a value hierarchy, so the natural analogue — and the one we
use — is the top-level (depth-1) ancestor of the object's majority candidate,
e.g. the continent of a birthplace. This preserves the property the paper's
experiments probe: on Heritages, where domains are many and answers per
domain few, DOCS's per-domain estimates starve and its accuracy degrades
(Figure 11 discussion).

E/M updates per round, with ``d(o)`` the object's domain:

* **E-step**: ``mu_{o,v} proportional to mu_{o,v} prod_claims L(u | v)``
  where ``L(u | v) = a_{s,d(o)}`` if ``u = v`` else
  ``(1 - a_{s,d(o)}) / (|Vo| - 1)``;
* **M-step**: ``a_{s,d} = (sum_claims-in-d mu_{o,u} + k a0) /
  (|claims_{s,d}| + k)`` — Beta-smoothed per-domain accuracy toward the
  prior ``a0``.

The fit reads each object's domain off
:class:`~repro.data.columnar.ColumnarHierarchy` (``top_code`` of the
majority-record candidate), keeps the accuracies in one dense
``(claimants, domains)`` array — whose unobserved cells equal the Beta prior
exactly, matching the dict fallback of the loops in ``tests/oracles.py`` —
and reduces the E/M steps with ``np.bincount`` over the claim x candidate
pairs. Parity with that oracle within 1e-8 is enforced by
``tests/test_columnar_parity.py``.
"""

from __future__ import annotations

import numpy as np

from ..data.model import ObjectId, TruthDiscoveryDataset
from ..hierarchy.tree import Value
from .base import ColumnarInferenceResult, InferenceResult, TruthInferenceAlgorithm


class Docs(TruthInferenceAlgorithm):
    """Domain-aware Bayesian truth inference.

    Parameters
    ----------
    max_iter / tol:
        EM stopping rule on confidence change.
    smoothing:
        Beta pseudo-counts for per-domain accuracies.
    """

    name = "DOCS"
    supports_workers = True

    def __init__(
        self,
        max_iter: int = 50,
        tol: float = 1e-5,
        smoothing: float = 4.0,
    ) -> None:
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing

    # ------------------------------------------------------------------
    def object_domain(self, dataset: TruthDiscoveryDataset, obj: ObjectId) -> Value:
        """Domain of ``obj``: the depth-1 ancestor of its majority candidate."""
        ctx = dataset.context(obj)
        counts = np.zeros(ctx.size)
        for value in dataset.records_for(obj).values():
            counts[ctx.index[value]] += 1.0
        majority = ctx.values[int(np.argmax(counts))]
        path = dataset.hierarchy.path_to_root(majority)
        # path ends at the root; the element before it is the depth-1 node.
        return path[-2] if len(path) >= 2 else majority

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        col = dataset.columnar()
        pairs = col.pairs
        hier = col.hierarchy
        mu = col.initial_confidences_flat()

        # Domain per object: top_code of the majority *record* candidate
        # (first-max tie-break, like np.argmax over the per-object counts).
        majority_slot = col.segment_argmax_slot(col.record_counts())
        domain_code = hier.top_code[col.slot_vid[majority_slot]]
        n_domains = max(len(hier.domains), 1)

        prior_correct = 0.7
        accuracy = np.full(
            col.n_claimants * n_domains, prior_correct, dtype=np.float64
        )
        claim_key = col.claim_claimant * n_domains + domain_code[col.claim_obj]
        claim_key_counts = np.bincount(claim_key, minlength=len(accuracy))
        miss_denom = np.maximum(
            col.sizes[col.claim_obj] - 1, 1
        ).astype(np.float64)

        iterations = 0
        converged = False
        for iterations in range(1, self.max_iter + 1):
            acc = np.clip(accuracy[claim_key], 1e-3, 1.0 - 1e-3)
            contrib = np.where(
                pairs.pair_is_claimed,
                np.log(acc)[pairs.pair_claim],
                np.log((1.0 - acc) / miss_denom)[pairs.pair_claim],
            )
            log_post = np.log(np.maximum(mu, 1e-12)) + np.bincount(
                pairs.pair_slot, weights=contrib, minlength=col.n_slots
            )
            posterior = col.segment_softmax(log_post)
            delta = float(np.max(np.abs(posterior - mu))) if col.n_slots else 0.0
            mu = posterior

            # Per-domain accuracy update with Beta smoothing.
            correct_mass = np.bincount(
                claim_key, weights=mu[col.claim_slot], minlength=len(accuracy)
            )
            accuracy = (correct_mass + self.smoothing * prior_correct) / (
                claim_key_counts + self.smoothing
            )
            if delta < self.tol:
                converged = True
                break

        result = ColumnarInferenceResult(dataset, col, mu, iterations, converged)
        observed = np.flatnonzero(claim_key_counts)
        result.domain_accuracy = {  # type: ignore[attr-defined]
            (col.claimants[key // n_domains], hier.domains[key % n_domains]):
                float(accuracy[key])
            for key in observed
        }
        result.domains = {  # type: ignore[attr-defined]
            obj: hier.domains[code]
            for obj, code in zip(col.objects, domain_code)
        }
        return result
