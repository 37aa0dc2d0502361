"""NumericTDH — TDH over the implicit rounding hierarchy (Section 3.2).

Convenience wrapper that takes raw numeric claim tables
(``object -> {source: value}``), builds the significant-digit hierarchy,
runs :class:`~repro.inference.tdh.TDHModel` and returns float truths — the
exact pipeline of the paper's stock-dataset experiment, packaged for reuse.

The E/M updates are exactly TDH's (see :mod:`repro.inference.tdh`): the
rounding chains become ancestor paths, so "generalized" means "claimed at
coarser precision", and the CSR ancestor arrays of
:class:`~repro.data.columnar.ColumnarHierarchy` are built over the rounding
hierarchy like over any other tree.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional

from ..datasets.stock import claims_to_dataset
from .numeric import NumericClaims
from .tdh import TDHModel, TDHResult


class NumericTdh:
    """TDH for numeric attributes via the implicit rounding hierarchy.

    Parameters
    ----------
    model:
        Optional preconfigured :class:`TDHModel`; defaults to the paper's
        hyperparameters with a bounded iteration count.
    max_digits:
        Precision cap of the rounding hierarchy — claims are canonicalised to
        this many significant digits.
    """

    name = "TDH"

    def __init__(
        self,
        model: Optional[TDHModel] = None,
        max_digits: int = 6,
    ) -> None:
        self.model = model if model is not None else TDHModel(max_iter=30, tol=1e-4)
        self.max_digits = max_digits
        self.last_result: Optional[TDHResult] = None

    def fit(self, claims: NumericClaims) -> Dict[Hashable, float]:
        """Estimate a float truth per object by hierarchical selection.

        The returned values are always claimed values (possibly at reduced
        precision), never averages — which is what makes the estimator robust
        to scale outliers.
        """
        if not claims:
            raise ValueError("claims table is empty")
        # Gold is unknown at fit time; pass claim medians only as *names* for
        # the dataset wrapper's gold slot, then discard the evaluation side.
        dataset = claims_to_dataset(
            claims,
            gold={obj: next(iter(per_obj.values())) for obj, per_obj in claims.items()},
            name="numeric-tdh",
            max_digits=self.max_digits,
        )
        dataset.gold.clear()  # no ground truth during inference
        result = self.model.fit(dataset)
        self.last_result = result
        return {obj: float(value) for obj, value in result.truths().items()}

    def confidence(self, obj: Hashable) -> Dict[float, float]:
        """Confidence distribution over the claimed (canonical) values."""
        if self.last_result is None:
            raise RuntimeError("call fit() first")
        return {
            float(value): probability
            for value, probability in self.last_result.confidence(obj).items()
        }
