"""VOTE — majority voting baseline (paper Section 5.1).

Selects the value with the highest claim frequency; records and worker
answers count equally. Ties break toward the first-claimed value, which keeps
the algorithm deterministic.

The vote is one ``np.bincount`` over the dataset's flat claim table plus a
segment normalize; the per-object dict loop it replaced is the parity oracle
in ``tests/oracles.py``.
"""

from __future__ import annotations

from ..data.model import TruthDiscoveryDataset
from .base import ColumnarInferenceResult, InferenceResult, TruthInferenceAlgorithm


class Vote(TruthInferenceAlgorithm):
    """Majority vote over records and answers."""

    name = "VOTE"
    supports_workers = True

    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        col = dataset.columnar()
        flat = col.segment_normalize(col.vote_counts())
        return ColumnarInferenceResult(dataset, col, flat, iterations=1, converged=True)
