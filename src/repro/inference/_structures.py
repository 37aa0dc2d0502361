"""Per-object likelihood structures shared by TDH inference and EAI assignment.

For every object ``o`` the EM algorithm repeatedly evaluates the claim
likelihoods of Eq. (1)-(4):

* **Eq. (1)** (sources, ``o in OH``): ``P(claim u | truth v, phi_s)`` is
  ``phi_1`` for ``u = v``, ``phi_2 / |Go(v)|`` for ``u in Go(v)`` and
  ``phi_3 / (|Vo| - |Go(v)| - 1)`` otherwise;
* **Eq. (2)** (sources, flat objects): the case-2 channel collapses onto the
  exact match, giving ``phi_1 + phi_2`` for ``u = v`` and
  ``phi_3 / (|Vo| - 1)`` otherwise;
* **Eq. (3)/(4)** (workers): the same shape with ``psi_w``, except cases 2/3
  redistribute their mass by the source-claim popularity terms
  ``Pop2(u|v) = c(u) / sum_{u' in Go(v)} c(u')`` and
  ``Pop3(u|v) = c(u) / (c(o) - c(v) - sum_{Go(v)} c)``.

These likelihoods feed both TDH's E-step responsibilities ``f`` / ``g`` and
the EAI assigner's incremental one-step EM (Eq. 16-18). Because the candidate
set, the ancestor structure and the source claim counts are fixed during
inference, the value-independent pieces can be pre-assembled into small
matrices, after which a likelihood row is three vector operations.

Conventions: matrices are ``(n, n)`` with **rows = claimed value u** and
**columns = hypothesised truth v**; ``A[u, v]`` is ``True`` iff ``u`` is a
(candidate) ancestor of ``v``, i.e. ``u in Go(v)``.

This is the per-object representation that
:func:`repro.inference.diagnostics.log_likelihood`, the crowd simulator's
shared cache and the dict-loop oracles in ``tests/oracles.py`` read. The TDH
fit and the EAI assigner evaluate exactly the same case weights, but
flattened to one entry per claim x candidate pair over the CSR arrays of
:class:`~repro.data.columnar.ColumnarHierarchy` — see
``TDHModel._pair_case_arrays`` and ``repro.assignment.eai._worker_case_arrays``.
Keep them in lock-step: the parity suite (``tests/test_columnar_parity.py``)
will catch any drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..data.model import ObjectId, TruthDiscoveryDataset
from ..hierarchy.tree import Value


@dataclass
class ObjectStructure:
    """Precomputed likelihood building blocks for one object.

    Attributes
    ----------
    values / index:
        Candidate values ``Vo`` and their positions.
    counts:
        Source-claim counts per candidate (``|{s : v_s = u}|``).
    exact:
        Identity matrix — selects the case-1 (exact match) entries.
    source_case2 / source_case3:
        Weight matrices such that the source likelihood of Eq. (1)/(2) is
        ``phi1 * exact + phi2 * source_case2 + phi3 * source_case3``.
        For objects outside ``OH`` the case-2 matrix degenerates to the
        identity, which realises the ``phi1 + phi2`` collapse of Eq. (2).
    worker_case2 / worker_case3:
        Same for the worker likelihood of Eq. (3)/(4); case 2/3 are weighted
        by the popularity terms ``Pop2`` / ``Pop3``.
    ancestor_counts:
        ``|Go(v)|`` per column.
    has_hierarchy:
        Whether the object is in ``OH``.
    """

    values: List[Value]
    index: Dict[Value, int]
    counts: np.ndarray
    exact: np.ndarray
    source_case2: np.ndarray
    source_case3: np.ndarray
    worker_case2: np.ndarray
    worker_case3: np.ndarray
    ancestor_counts: np.ndarray
    has_hierarchy: bool

    @property
    def size(self) -> int:
        return len(self.values)

    def source_likelihood(self, phi: np.ndarray) -> np.ndarray:
        """``L[u, v] = P(claim u | truth v, phi)`` per Eq. (1)/(2)."""
        return (
            phi[0] * self.exact
            + phi[1] * self.source_case2
            + phi[2] * self.source_case3
        )

    def worker_likelihood(self, psi: np.ndarray) -> np.ndarray:
        """``L[u, v] = P(answer u | truth v, psi)`` per Eq. (3)/(4)."""
        return (
            psi[0] * self.exact
            + psi[1] * self.worker_case2
            + psi[2] * self.worker_case3
        )

    def source_likelihood_row(self, u: int, phi: np.ndarray) -> np.ndarray:
        """Likelihood of the observed claim ``values[u]`` under each truth."""
        row = phi[1] * self.source_case2[u] + phi[2] * self.source_case3[u]
        row = row.copy()
        row[u] += phi[0]
        return row

    def worker_likelihood_row(self, u: int, psi: np.ndarray) -> np.ndarray:
        """Likelihood of the observed answer ``values[u]`` under each truth."""
        row = psi[1] * self.worker_case2[u] + psi[2] * self.worker_case3[u]
        row = row.copy()
        row[u] += psi[0]
        return row


def build_structure(
    dataset: TruthDiscoveryDataset,
    obj: ObjectId,
    use_hierarchy: bool = True,
    use_popularity: bool = True,
    collapse_flat_objects: bool = True,
) -> ObjectStructure:
    """Assemble the :class:`ObjectStructure` for ``obj`` from the dataset.

    ``use_hierarchy=False`` ignores ancestor relations entirely (the
    two-interpretation ablation: generalized truths count as exact matches of
    nothing, i.e. wrong). ``use_popularity=False`` replaces the worker
    popularity terms ``Pop2``/``Pop3`` with the uniform source weighting.
    ``collapse_flat_objects=False`` disables the Eq. (2)/(4) special case:
    objects outside ``OH`` keep the Eq. (1) likelihood, whose case-2 channel
    then has no support — the paper warns this underestimates ``phi_2``.
    """
    ctx = dataset.context(obj)
    n = ctx.size
    counts = np.zeros(n, dtype=float)
    for value in dataset.records_for(obj).values():
        counts[ctx.index[value]] += 1.0

    ancestor = np.zeros((n, n), dtype=bool)
    if use_hierarchy:
        for v_pos, ancestors in enumerate(ctx.ancestor_sets):
            for u_pos in ancestors:
                ancestor[u_pos, v_pos] = True
    gsize = ancestor.sum(axis=0).astype(float)
    has_hierarchy = bool(
        use_hierarchy and (ctx.has_hierarchy or not collapse_flat_objects)
    )

    exact = np.eye(n)
    off_diagonal = 1.0 - exact
    # Case 3 applies to values that are neither the truth nor its ancestors.
    case3_mask = off_diagonal * (~ancestor)

    if has_hierarchy:
        # Eq. (1): generalized truths picked uniformly from Go(v); wrong values
        # uniformly from the remaining |Vo| - |Go(v)| - 1 candidates.
        with np.errstate(divide="ignore", invalid="ignore"):
            source_case2 = np.where(gsize > 0, ancestor / np.maximum(gsize, 1.0), 0.0)
            wrong_slots = n - gsize - 1.0
            source_case3 = np.where(
                wrong_slots > 0, case3_mask / np.maximum(wrong_slots, 1.0), 0.0
            )
    else:
        # Eq. (2): exact match absorbs phi2; wrong values uniform over the rest.
        source_case2 = exact.copy()
        source_case3 = case3_mask / (n - 1.0) if n > 1 else np.zeros((n, n))

    # Worker popularity terms (Eq. 3): Pop2/Pop3 redistribute the case mass by
    # how often sources claimed each value.
    total = counts.sum()
    pop2_denominator = (ancestor * counts[:, None]).sum(axis=0)  # claims in Go(v)
    pop3_denominator = total - counts - pop2_denominator
    if not use_popularity:
        worker_case2 = source_case2.copy()
        worker_case3 = source_case3.copy()
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            if has_hierarchy:
                worker_case2 = np.where(
                    pop2_denominator > 0,
                    ancestor * counts[:, None] / np.maximum(pop2_denominator, 1.0),
                    0.0,
                )
            else:
                worker_case2 = exact.copy()
            worker_case3 = np.where(
                pop3_denominator > 0,
                case3_mask * counts[:, None] / np.maximum(pop3_denominator, 1.0),
                0.0,
            )

    return ObjectStructure(
        values=list(ctx.values),
        index=dict(ctx.index),
        counts=counts,
        exact=exact,
        source_case2=source_case2,
        source_case3=source_case3,
        worker_case2=worker_case2,
        worker_case3=worker_case3,
        ancestor_counts=gsize,
        has_hierarchy=has_hierarchy,
    )


class StructureCache:
    """Cache of :class:`ObjectStructure` keyed by object.

    Structures depend only on records (not answers), so a cache can persist
    across crowdsourcing rounds as long as records are unchanged. The ablation
    flags are fixed per cache; mixing flags requires separate caches.
    """

    def __init__(
        self,
        dataset: TruthDiscoveryDataset,
        use_hierarchy: bool = True,
        use_popularity: bool = True,
        collapse_flat_objects: bool = True,
    ) -> None:
        self._dataset = dataset
        self.use_hierarchy = use_hierarchy
        self.use_popularity = use_popularity
        self.collapse_flat_objects = collapse_flat_objects
        self._cache: Dict[ObjectId, ObjectStructure] = {}

    def get(self, obj: ObjectId) -> ObjectStructure:
        structure = self._cache.get(obj)
        if structure is None:
            structure = build_structure(
                self._dataset,
                obj,
                use_hierarchy=self.use_hierarchy,
                use_popularity=self.use_popularity,
                collapse_flat_objects=self.collapse_flat_objects,
            )
            self._cache[obj] = structure
        return structure

    def invalidate(self, obj: ObjectId | None = None) -> None:
        """Drop one object's structure (or all of them)."""
        if obj is None:
            self._cache.clear()
        else:
            self._cache.pop(obj, None)
