"""ACCU and POPACCU — Bayesian source-accuracy models with copy detection.

ACCU (Dong, Berti-Equille & Srivastava, PVLDB 2009) models each source with a
single accuracy ``A(s)`` and combines claims through Bayesian vote counts
``A'(s) = ln(n A(s) / (1 - A(s)))``, discounting sources suspected of copying
each other. POPACCU (Dong, Saha & Srivastava, PVLDB 2012) replaces ACCU's
uniform false-value distribution with the observed popularity of false values.

These are the paper's knowledge-fusion baselines; Table 3 and Figure 12 show
they struggle (and slow down) when sources are many and sparse, because the
pairwise dependence analysis needs shared objects to be informative — our
implementation reproduces both effects.

Fixed-point updates per round:

* **truth step**: per object, a log-scale Bayesian vote
  ``C(v) = sum_{claims (o,s,v)} I(s,o) A'(s)`` with
  ``A'(s) = ln(n A(s) / (1 - A(s)))`` (POPACCU replaces the uniform ``1/n``
  false-value mass with the observed popularity of the claimed value),
  softmax-normalised into confidences;
* **accuracy step**: ``A(s) = mean of C(v_s)`` over the source's claims,
  clamped to ``[0.01, 0.99]``;
* **dependence step** (``detect_dependence``): for every claimant pair the
  posterior odds of copying given their agreement rate; agreeing claims of
  the suspected copier get the independence weight ``I(s,o) < 1``.

The fit materialises the within-object claim x claim co-occurrence expansion
once (the support of the dependence analysis), aggregates agreement counts
per claimant pair with ``np.unique`` + ``np.bincount``, and scatters the
discounts back onto claims with ``np.minimum.at``; the vote and accuracy
steps are plain per-slot bincounts. The dict loops it replaced are the
parity oracle in ``tests/oracles.py``; parity within 1e-8 is enforced by
``tests/test_columnar_parity.py``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..data.columnar import ColumnarClaims
from ..data.model import TruthDiscoveryDataset
from .base import ColumnarInferenceResult, InferenceResult, TruthInferenceAlgorithm


class Accu(TruthInferenceAlgorithm):
    """ACCU with pairwise source-dependence discounting.

    Parameters
    ----------
    max_iter / tol:
        Fixed-point stopping rule on source accuracies.
    n_false_values:
        The model's ``n`` — the assumed number of uniformly likely false
        values per object. ``None`` uses ``|Vo| - 1`` per object.
    alpha_dependence:
        Prior probability that a source pair is dependent.
    copy_rate:
        Probability ``c`` that a dependent source copies a particular value.
    detect_dependence:
        Disable to get the independence-assuming variant (used by tests and
        the ablation bench).
    popularity:
        Internal switch used by :class:`PopAccu`.
    """

    name = "ACCU"
    supports_workers = True

    def __init__(
        self,
        max_iter: int = 30,
        tol: float = 1e-4,
        n_false_values: int | None = None,
        alpha_dependence: float = 0.2,
        copy_rate: float = 0.8,
        detect_dependence: bool = True,
        popularity: bool = False,
    ) -> None:
        self.max_iter = max_iter
        self.tol = tol
        self.n_false_values = n_false_values
        self.alpha_dependence = alpha_dependence
        self.copy_rate = copy_rate
        self.detect_dependence = detect_dependence
        self.popularity = popularity

    # ------------------------------------------------------------------
    class _CoClaims:
        """Within-object claim x claim co-occurrence, aggregated per pair.

        Row ``r`` joins two claims on the same object. Rows are grouped into
        *claimant pairs* ordered by ``repr`` (the canonical pair key of the
        dict-loop oracle); ``pair_index[r]`` maps each row to its pair, and per pair the
        agreement statistics ``same`` / ``total`` feed the Bayesian
        dependence posterior. All arrays are iteration-invariant.
        """

        def __init__(self, col: ColumnarClaims) -> None:
            sizes = np.diff(col.claim_offsets)
            tri_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
            ci_parts: List[np.ndarray] = []
            cj_parts: List[np.ndarray] = []
            for oid in range(col.n_objects):
                m = int(sizes[oid])
                if m < 2:
                    continue
                tri = tri_cache.get(m)
                if tri is None:
                    tri = tri_cache[m] = np.triu_indices(m, 1)
                offset = int(col.claim_offsets[oid])
                ci_parts.append(tri[0] + offset)
                cj_parts.append(tri[1] + offset)
            empty = np.zeros(0, dtype=np.int64)
            ci = np.concatenate(ci_parts) if ci_parts else empty
            cj = np.concatenate(cj_parts) if cj_parts else empty

            # Canonical pair order: claimant pairs keyed by repr().
            rank_order = sorted(
                range(col.n_claimants), key=lambda c: repr(col.claimants[c])
            )
            rank = np.zeros(col.n_claimants, dtype=np.int64)
            rank[rank_order] = np.arange(col.n_claimants)

            ca, cb = col.claim_claimant[ci], col.claim_claimant[cj]
            a_first = rank[ca] <= rank[cb]
            self.first_claim = np.where(a_first, ci, cj)
            self.second_claim = np.where(a_first, cj, ci)
            first = np.where(a_first, ca, cb)
            second = np.where(a_first, cb, ca)
            self.same = col.claim_vid[ci] == col.claim_vid[cj]

            keys = first * col.n_claimants + second
            pairs, self.pair_index = np.unique(keys, return_inverse=True)
            self.pair_first = (pairs // col.n_claimants).astype(np.int64)
            self.pair_second = (pairs % col.n_claimants).astype(np.int64)
            self.pair_same = np.bincount(
                self.pair_index, weights=self.same, minlength=len(pairs)
            )
            self.pair_total = np.bincount(self.pair_index, minlength=len(pairs))

    def _claim_weights(
        self, co: "Accu._CoClaims", accuracy: np.ndarray, n_claims: int
    ) -> np.ndarray:
        """Per-claim independence weights ``I(s, o)`` from copy detection."""
        weights = np.ones(n_claims, dtype=np.float64)
        if len(co.pair_total) == 0:
            return weights
        acc_a = accuracy[co.pair_first]
        acc_b = accuracy[co.pair_second]
        p_same_indep = acc_a * acc_b + (1 - acc_a) * (1 - acc_b) * 0.2
        p_same_dep = self.copy_rate + (1 - self.copy_rate) * p_same_indep
        same, total = co.pair_same, co.pair_total
        with np.errstate(over="ignore", under="ignore"):
            like_dep = p_same_dep**same * (1 - p_same_dep) ** (total - same)
            like_ind = p_same_indep**same * (1 - p_same_indep) ** (total - same)
        prior = self.alpha_dependence
        posterior = (
            prior
            * like_dep
            / np.maximum(prior * like_dep + (1 - prior) * like_ind, 1e-300)
        )
        dependent = (
            (total >= 2) & (posterior > 0.5) & (same / np.maximum(total, 1) > 0.5)
        )
        if not np.any(dependent):
            return weights
        # The less accurate party copies; repr-order breaks accuracy ties.
        copier_is_first = acc_a <= acc_b
        discount = 1.0 - posterior * self.copy_rate
        rows = dependent[co.pair_index] & co.same
        copier_claim = np.where(
            copier_is_first[co.pair_index], co.first_claim, co.second_claim
        )
        np.minimum.at(
            weights, copier_claim[rows], discount[co.pair_index[rows]]
        )
        return weights

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        col = dataset.columnar()
        accuracy = np.full(col.n_claimants, 0.8, dtype=np.float64)
        co = self._CoClaims(col) if self.detect_dependence else None
        counts = col.claimant_counts()

        if self.popularity:
            pop = col.segment_normalize(col.record_counts())
            false_mass = np.maximum(1.0 - pop[col.claim_slot], 1e-6)
        else:
            n_false = (
                float(self.n_false_values)
                if self.n_false_values is not None
                else np.maximum(col.sizes[col.claim_obj] - 1, 1).astype(np.float64)
            )

        flat_conf = np.zeros(col.n_slots, dtype=np.float64)
        iterations = 0
        converged = False
        for iterations in range(1, self.max_iter + 1):
            weights = (
                self._claim_weights(co, accuracy, col.n_claims)
                if co is not None
                else 1.0
            )
            acc = np.clip(accuracy, 0.01, 0.99)[col.claim_claimant]
            if self.popularity:
                vote = np.log(
                    np.maximum(acc, 1e-6)
                    / np.maximum((1.0 - acc) * false_mass, 1e-9)
                )
            else:
                vote = np.log(n_false * acc / (1.0 - acc))
            scores = np.bincount(
                col.claim_slot, weights=vote * weights, minlength=col.n_slots
            )
            flat_conf = col.segment_softmax(scores)

            new_accuracy = np.clip(
                np.bincount(
                    col.claim_claimant,
                    weights=flat_conf[col.claim_slot],
                    minlength=col.n_claimants,
                )
                / np.maximum(counts, 1),
                0.01,
                0.99,
            )
            delta = (
                float(np.max(np.abs(new_accuracy - accuracy)))
                if col.n_claimants
                else 0.0
            )
            accuracy = new_accuracy
            if delta < self.tol:
                converged = True
                break

        result = ColumnarInferenceResult(dataset, col, flat_conf, iterations, converged)
        result.source_accuracy = col.claimant_mapping(accuracy)  # type: ignore[attr-defined]
        return result


class PopAccu(Accu):
    """POPACCU: ACCU with popularity-weighted false-value distribution."""

    name = "POPACCU"

    def __init__(self, max_iter: int = 30, tol: float = 1e-4, **kwargs) -> None:
        super().__init__(max_iter=max_iter, tol=tol, popularity=True, **kwargs)
