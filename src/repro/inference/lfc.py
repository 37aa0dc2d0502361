"""LFC — Learning From Crowds (Raykar et al., JMLR 2010).

Models every source/worker with a *confusion matrix* over the global value
space: ``pi_s[t][c]`` is the probability of claiming ``c`` when the truth is
``t``. We keep the matrices sparse (only observed pairs are materialised) with
Dirichlet smoothing over the object's candidate set, which preserves the
original model's behaviour while staying tractable — the paper notes LFC is
the slowest algorithm on BirthPlaces precisely because its state is quadratic
in the number of distinct values.

E/M updates per round:

* **M-step**: ``pi_s[t][c] = (sum_{claims (o,s,c)} mu_{o,t} + delta) /
  (sum_{claims of s on o} mu_{o,t} + delta |Vo|)`` — responsibility-weighted
  confusion counts with Dirichlet pseudo-count ``delta``;
* **E-step**: ``mu_{o,t} proportional to prod_{claims (o,s,c)} pi_s[t][c]``
  (uniform class prior, unlike Dawid-Skene which multiplies in the current
  ``mu``), normalised per object.

Both steps run as ``np.bincount`` scatter/gathers over the precomputed
claim x candidate :class:`~repro.data.columnar.PairExpansion` — structurally
the Dawid-Skene fit minus the class-prior term. The dict loops they replaced
are the parity oracle in ``tests/oracles.py``; parity within 1e-8 is
enforced by ``tests/test_columnar_parity.py``.

``LfcMT`` is the multi-truth reading used in Table 5: every value whose
posterior exceeds a threshold is emitted.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from ..data.model import ObjectId, TruthDiscoveryDataset
from ..hierarchy.tree import Value
from .base import (
    ColumnarInferenceResult,
    InferenceResult,
    TruthInferenceAlgorithm,
    validate_warm_start,
)
from .dawid_skene import _confusion_estep_kernel, _incremental_confusion_fit


class Lfc(TruthInferenceAlgorithm):
    """Confusion-matrix EM over sources and workers.

    Parameters
    ----------
    smoothing:
        Dirichlet pseudo-count added to every (truth, claimed) cell.
    max_iter / tol:
        EM stopping rule on confidence change.
    incremental / frontier_hops:
        With ``incremental=True`` and a ``warm_start=`` result from the same
        dataset, re-converge only the dirty frontier (see
        :func:`repro.inference.dawid_skene._incremental_confusion_fit`).
    """

    name = "LFC"
    supports_workers = True
    supports_incremental = True

    def __init__(
        self,
        smoothing: float = 1.0,
        max_iter: int = 50,
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
                self, dataset, warm_start, with_prior=False
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
            # M-step: pair (claim j, candidate slot s) adds mu[s] to the
            # claimant's (truth, claimed) confusion cell and (truth,) total.
            weight = mu[pairs.pair_slot]
            cells = np.bincount(
                pairs.cell_index, weights=weight, minlength=pairs.n_cells
            )
            totals = np.bincount(
                pairs.total_index, weights=weight, minlength=pairs.n_totals
            )

            # The Dawid-Skene kernel without the class-prior term (LFC's
            # E-step uses a uniform prior): the log-posterior is the
            # likelihood sum.
            mu, delta = _confusion_estep_kernel(
                col, mu, cells, totals, self.smoothing, with_prior=False
            )
            if delta < self.tol:
                converged = True
                break
        return ColumnarInferenceResult(dataset, col, mu, iterations, converged)


class LfcMT(Lfc):
    """Multi-truth LFC (Table 5's LFC-MT).

    Runs per-value binary inference: for each candidate value, sources that
    claimed it support "true", sources that claimed something else that is not
    an ancestor/descendant support "false". Values with posterior above
    ``threshold`` are emitted.
    """

    name = "LFC-MT"

    def __init__(self, threshold: float = 0.5, **kwargs) -> None:
        super().__init__(**kwargs)
        self.threshold = threshold

    def fit(
        self,
        dataset: TruthDiscoveryDataset,
        warm_start: Optional[InferenceResult] = None,
    ) -> "LfcMTResult":
        base = super().fit(dataset, warm_start=warm_start)
        hierarchy = dataset.hierarchy
        truth_sets: Dict[ObjectId, Set[Value]] = {}
        for obj in dataset.objects:
            ctx = dataset.context(obj)
            probs = base.confidences[obj]
            chosen = {
                value
                for value, p in zip(ctx.values, probs)
                if p >= self.threshold
            }
            best = ctx.values[int(np.argmax(probs))]
            chosen.add(best)
            # A value and its candidate ancestors are mutually compatible;
            # emit the closure of each chosen value within the candidates.
            closed = set(chosen)
            for value in chosen:
                for ancestor in hierarchy.ancestors(value):
                    if ancestor in ctx.index:
                        closed.add(ancestor)
            truth_sets[obj] = closed
        return LfcMTResult(dataset, base.confidences, truth_sets, base.iterations, base.converged)


class LfcMTResult(InferenceResult):
    """LFC-MT result carrying explicit truth sets."""

    def __init__(self, dataset, confidences, truth_sets, iterations, converged) -> None:
        super().__init__(dataset, confidences, iterations, converged)
        self._truth_sets = truth_sets

    def truth_sets(self) -> Dict[ObjectId, Set[Value]]:
        return {obj: set(values) for obj, values in self._truth_sets.items()}
