"""EAI — Expected Accuracy Improvement task assignment (paper Section 4).

For a worker ``w`` and object ``o`` the quality measure is

``EAI(w, o) = ( E[max_v mu_{o,v|w}] - max_v mu_{o,v} ) / |O|``  (Eq. 14)

where the expectation runs over the worker's possible answers (Eq. 15) and
the conditional confidence ``mu_{o,v | v_w = v'}`` comes from a *single
incremental EM step* (Eq. 16-18) that reuses the numerators ``N_{o,v}`` and
denominators ``D_o`` of the last full EM — claims already collected damp the
confidence shift, the paper's key correction to QASCA.

Assignment (Algorithm 1) walks objects in decreasing order of the upper bound

``UEAI(o) = (1 - max_v mu_{o,v}) / (|O| (D_o + 1))``  (Lemma 4.1)

and stops as soon as no remaining object can beat any worker's current
worst assigned task — the pruning evaluated in Figure 13.

The assigner consumes the TDH fit's columnar state
(:attr:`~repro.inference.tdh.TDHResult.columnar_state`): the flat slot
arrays ``mu``, ``N_{o,v}`` and ``D_o`` of its encoding, plus worker-likelihood
case weights over that encoding's candidate x candidate cross-join
(:attr:`~repro.data.columnar.ColumnarClaims.slot_pairs`), cached per
``records_version``. A result it cannot read that way — one without columnar
state, one fitted on another dataset object, or one whose dataset gained
records since the fit — is refused with
:class:`~repro.data.columnar.StaleEncodingError`: refit first. Answers added
since the fit need no refit, because an answer names an existing candidate
and so moves neither the slot layout nor the source-claim popularity counts.
The measure is computed in blocks:

* **Block kernel.** Each round groups the objects by candidate count
  ``|Vo|`` and stacks each group's inputs once; one array pass then
  evaluates Eq. 14-18 for a block of one worker's objects
  (:func:`_eai_stacked`). A single ``eai()`` call runs the same kernel on a
  block of one.
* **Lazy evaluation along the UEAI order.** The walk pops objects in a
  stable descending sort of UEAI and only asks about objects it has popped.
  Each worker's values are computed in growing blocks of that order as the
  walk reaches them, then looked up, so pruning still bounds the kernel's
  work: ``eai_pairs_computed`` counts the pairs computed, next to the walk's
  ``eai_evaluations`` lookups.
* **Bitwise contract.** The kernel applies the operations of the per-pair
  dict-loop oracle (``tests/oracles.py``, over the per-object
  :class:`~repro.inference._structures.ObjectStructure` likelihood
  matrices, the shape the equations are written in) in the oracle's order:
  elementwise steps, one matrix-vector product per object, reductions along
  the contiguous last axis, and the expectation accumulated answer by
  answer. Every value therefore equals the oracle's bit for bit, and the two
  make identical assignments with identical evaluation counts
  (``tests/test_columnar_parity.py``, with candidate sets wide enough to
  reach NumPy's pairwise summation, and the crowd-loop regression test).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.columnar import ColumnarClaims, StaleEncodingError
from ..data.model import ObjectId, TruthDiscoveryDataset, WorkerId
from ..inference.tdh import TDHResult
from .base import Assignment, TaskAssigner


#: First block of a worker's lazily filled EAI table; later blocks double it.
_FIRST_BLOCK = 256


class _ColumnarEaiState:
    """Flat-array view of everything one ``assign()`` round needs.

    ``mu`` / ``numer`` are ``(n_slots,)`` slices of the TDH EM state,
    ``denom`` / ``mu_max`` are per-object, and ``case2`` /
    ``case3`` are the worker-likelihood case weights per candidate pair
    (see :func:`_worker_case_arrays`). Built by
    :meth:`EAIAssigner._activate`; dropped when the result changes.
    """

    def __init__(
        self,
        result: TDHResult,
        col: ColumnarClaims,
        mu: np.ndarray,
        numer: np.ndarray,
        denom: np.ndarray,
        case2: np.ndarray,
        case3: np.ndarray,
    ) -> None:
        self.result = result
        self.col = col
        self.mu = mu
        self.numer = numer
        self.denom = denom
        self.case2 = case2
        self.case3 = case3
        self.offsets = col.value_offsets
        self.pair_offsets = col.slot_pairs.offsets
        self.sizes = col.sizes
        self.index = col.object_index
        # max_v mu_{o,v} per object; max is order-independent, so reduceat
        # matches a per-object ``mu.max()`` bit for bit.
        self.mu_max = (
            np.maximum.reduceat(mu, col.value_offsets[:-1])
            if col.n_objects
            else np.zeros(0)
        )

    def likelihood(self, oid: int, psi: np.ndarray) -> np.ndarray:
        """``L[u, v] = P(answer u | truth v, psi)`` as an ``(n, n)`` matrix.

        Mirrors :meth:`ObjectStructure.worker_likelihood_row` arithmetic
        (``psi1 * case2 + psi2 * case3`` then ``+= psi0`` on the diagonal) so
        the likelihoods are bitwise those of the dict-loop oracle.
        """
        p0, p1 = self.pair_offsets[oid], self.pair_offsets[oid + 1]
        n = int(self.sizes[oid])
        matrix = (psi[1] * self.case2[p0:p1] + psi[2] * self.case3[p0:p1]).reshape(n, n)
        diag = np.arange(n)
        matrix[diag, diag] += psi[0]
        return matrix

    def likelihood_row(self, oid: int, answer_pos: int, psi: np.ndarray) -> np.ndarray:
        """Row ``u = answer_pos`` of :meth:`likelihood`, in O(|Vo|).

        The flat counterpart of :meth:`ObjectStructure.worker_likelihood_row`
        — same operations, so the single-row Eq. (18) path stays bitwise
        equal to the oracle without materialising the full matrix.
        """
        n = int(self.sizes[oid])
        start = self.pair_offsets[oid] + answer_pos * n
        row = psi[1] * self.case2[start : start + n] + psi[2] * self.case3[start : start + n]
        row[answer_pos] += psi[0]
        return row

    def stacked(self, oids: np.ndarray, n: int) -> Tuple[np.ndarray, ...]:
        """Kernel inputs of the objects ``oids``, all with ``n`` candidates,
        one object per row: ``case2``/``case3`` as ``(m, n*n)``,
        ``mu``/``numer`` as ``(m, n)``, ``denom``/``mu_max`` as ``(m,)``."""
        cells = self.pair_offsets[oids][:, None] + np.arange(n * n)
        slots = self.offsets[oids][:, None] + np.arange(n)
        return (
            self.case2[cells],
            self.case3[cells],
            self.mu[slots],
            self.numer[slots],
            self.denom[oids],
            self.mu_max[oids],
        )

    def eai(self, oid: int, psi: np.ndarray, n_objects: int) -> float:
        """``EAI(w, o)`` of one object: the block kernel on a block of one."""
        n = int(self.sizes[oid])
        return float(_eai_stacked(n, self.stacked(np.array([oid]), n), psi, n_objects)[0])


class _RankedEai:
    """One round's objects in UEAI rank order, split by candidate count
    ``|Vo|``, with each group's kernel inputs stacked once per round. A block
    of ranks ``[lo, hi)`` is then one contiguous slice per group."""

    def __init__(self, state: _ColumnarEaiState, order: np.ndarray, n_objects: int) -> None:
        self.n_objects = n_objects
        sizes = state.sizes[order]
        self.groups = []
        for n in np.flatnonzero(np.bincount(sizes)):
            ranks = np.flatnonzero(sizes == n)
            inputs = state.stacked(order[ranks], int(n))
            self.groups.append((int(n), ranks, ranks.tolist(), inputs))

    def block(self, psi: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """``EAI(w, o)`` for one worker over the objects of ranks ``[lo, hi)``."""
        out = np.empty(hi - lo)
        for n, ranks, rank_list, inputs in self.groups:
            a, b = bisect_left(rank_list, lo), bisect_left(rank_list, hi)
            if a < b:
                out[ranks[a:b] - lo] = _eai_stacked(
                    n, [x[a:b] for x in inputs], psi, self.n_objects
                )
        return out


def _eai_stacked(
    n: int, inputs: Sequence[np.ndarray], psi: np.ndarray, n_objects: int
) -> np.ndarray:
    """``EAI(w, o)`` (Eq. 14-18) for ``m`` objects with ``n`` candidates each,
    from :meth:`_ColumnarEaiState.stacked` inputs, in one array pass.

    These are the per-object operations of the dict-loop oracle in its
    order, stacked along a leading object axis. Every step is elementwise, a
    per-object matrix-vector product, or a reduction along the contiguous
    last axis, so each object's value is bitwise the one the oracle
    computes on its own: the likelihood matrices are
    :meth:`_ColumnarEaiState.likelihood`'s, the row sums are the oracle's
    per-row sums, and the expectation accumulates answer by answer with the
    oracle's skip rule for answers of probability ``<= 0``.
    """
    case2, case3, mu, numer, denom, mu_max = inputs
    m = len(mu)
    likelihood = psi[1] * case2 + psi[2] * case3
    likelihood[:, :: n + 1] += psi[0]  # the diagonal u == v
    likelihood = likelihood.reshape(m, n, n)  # rows = answers u, columns = truths v
    dist = (likelihood @ mu[:, :, None])[:, :, 0]  # Eq. 6 before normalising
    total = _row_sum(dist)
    total_pos = total > 0
    dist = np.where(
        total_pos[:, None], dist / np.where(total_pos, total, 1.0)[:, None], 1.0 / n
    )
    joint = likelihood * mu[:, None, :]
    z = _row_sum(joint)
    z_pos = z > 0
    posterior = np.where(
        z_pos[:, :, None], joint / np.where(z_pos, z, 1.0)[:, :, None], mu[:, None, :]
    )
    conditional = (numer[:, None, :] + posterior) / (denom + 1.0)[:, None, None]
    # The oracle skips answers of probability <= 0; here they add +0.0,
    # which leaves the non-negative running sum unchanged.
    terms = np.where(dist <= 0, 0.0, dist * _row_max(conditional))
    expected_best = terms[:, 0]
    for answer_pos in range(1, n):
        expected_best = expected_best + terms[:, answer_pos]
    return (expected_best - mu_max) / n_objects


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` bit for bit. A row of one or two entries sums to
    the same value in any order, so those skip NumPy's per-row reduction,
    whose overhead dominates at such widths."""
    n = a.shape[-1]
    if n == 1:
        return a[..., 0]
    if n == 2:
        return a[..., 0] + a[..., 1]
    return a.sum(axis=-1)


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)`` as a running maximum over columns (max does not
    depend on order), avoiding NumPy's per-row reduction."""
    best = a[..., 0]
    for col in range(1, a.shape[-1]):
        best = np.maximum(best, a[..., col])
    return best


def _worker_case_arrays(
    col: ColumnarClaims,
    use_hierarchy: bool = True,
    use_popularity: bool = True,
    collapse_flat_objects: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Worker-likelihood case weights per candidate pair ``(u, v)``.

    The flat counterpart of :class:`ObjectStructure`'s ``worker_case2`` /
    ``worker_case3`` matrices (Eq. 3/4 with the ``Pop2``/``Pop3`` popularity
    terms), evaluated over the encoding's candidate x candidate cross-join
    instead of per-object dicts — one array pass for the whole dataset. The
    ablation flags are honoured exactly as in
    :func:`repro.inference._structures.build_structure`; keep the formulas in
    lock-step (the EAI parity tests will catch any drift).

    Because the weights depend only on records (candidate sets, ancestor
    structure, source-claim counts), they survive answer-only mutations —
    the assigner caches them per ``records_version`` across rounds.
    """
    pairs = col.slot_pairs
    n_pairs = len(pairs.pair_obj)
    n = col.sizes.astype(np.float64)[pairs.pair_obj]
    exact = pairs.u_slot == pairs.v_slot
    exact_f = exact.astype(np.float64)

    if use_hierarchy:
        hier = col.hierarchy
        anc = hier.is_ancestor_vid(
            col.slot_vid[pairs.u_slot], col.slot_vid[pairs.v_slot]
        )
        gsize = hier.slot_gsize[pairs.v_slot].astype(np.float64)
        hflag_obj = (
            np.ones(col.n_objects, dtype=bool)
            if not collapse_flat_objects
            else hier.obj_has_hierarchy
        )
    else:
        anc = np.zeros(n_pairs, dtype=bool)
        gsize = np.zeros(n_pairs, dtype=np.float64)
        hflag_obj = np.zeros(col.n_objects, dtype=bool)
    hflag = hflag_obj[pairs.pair_obj]
    anc_f = anc.astype(np.float64)
    case3_f = (~exact & ~anc).astype(np.float64)

    if not use_popularity:
        # Eq. (1)/(2) shape: uniform over Go(v) / the remaining candidates.
        src2_h = np.where(gsize > 0, anc_f / np.maximum(gsize, 1.0), 0.0)
        wrong = n - gsize - 1.0
        src3_h = np.where(wrong > 0, case3_f / np.maximum(wrong, 1.0), 0.0)
        src3_flat = np.where(n > 1, case3_f / np.maximum(n - 1.0, 1.0), 0.0)
        return (
            np.where(hflag, src2_h, exact_f),
            np.where(hflag, src3_h, src3_flat),
        )

    # Eq. (3): Pop2/Pop3 redistribute the case mass by source-claim counts.
    counts, pop2_slot, pop3_slot = col.popularity_denominators(use_hierarchy)
    u_counts = counts[pairs.u_slot]
    pop2 = pop2_slot[pairs.v_slot]
    pop3 = pop3_slot[pairs.v_slot]
    wrk2_h = np.where(pop2 > 0, anc_f * u_counts / np.maximum(pop2, 1.0), 0.0)
    worker_case2 = np.where(hflag, wrk2_h, exact_f)
    worker_case3 = np.where(pop3 > 0, case3_f * u_counts / np.maximum(pop3, 1.0), 0.0)
    return worker_case2, worker_case3


class EAIAssigner(TaskAssigner):
    """The paper's task-assignment algorithm for TDH.

    Parameters
    ----------
    use_pruning:
        Enable the UEAI upper-bound early termination (Lemma 4.1). Disabling
        it computes ``EAI`` for every remaining (worker, object) pair — used
        by the Figure 13 experiment; the resulting assignment is identical.
    default_psi:
        Trustworthiness prior for workers that have not answered yet.
    """

    name = "EAI"

    def __init__(
        self,
        use_pruning: bool = True,
        default_psi: Tuple[float, float, float] = (0.6, 0.2, 0.2),
    ) -> None:
        self.use_pruning = use_pruning
        self.default_psi = np.asarray(default_psi, dtype=float)
        # Instrumentation for the Fig 13 bench, reset by each assign():
        # quality-measure lookups, and (worker, object) pairs actually
        # computed — the lazy tables compute in blocks, so the two differ.
        self.eai_evaluations = 0
        self.eai_pairs_computed = 0
        self._state: Optional[_ColumnarEaiState] = None
        # (slot_pairs identity, records_version, ablation flags) -> case
        # arrays; the strong slot_pairs reference keeps the id stable.
        self._case_cache: Optional[Tuple[tuple, object, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # columnar state
    # ------------------------------------------------------------------
    def _activate(
        self, dataset: TruthDiscoveryDataset, result: TDHResult
    ) -> _ColumnarEaiState:
        """Build this round's flat-array state from ``result``'s columnar
        state, or raise :class:`StaleEncodingError` when ``result`` does not
        describe ``dataset``'s current records."""
        self._state = None
        if getattr(result, "columnar_state", None) is None:
            raise StaleEncodingError(
                "EAI reads the TDH fit's columnar state and this result has"
                " none; refit with TDHModel"
            )
        if result.dataset is not dataset:
            # Mutation counters only order mutations of one dataset object;
            # across clones they can coincide while the claims diverge.
            raise StaleEncodingError(
                "the TDH result was fitted on a different dataset object;"
                " refit on this dataset"
            )
        if getattr(dataset, "_records_version", 0) != result.records_version:
            # Records landed between fit and assign: the slot layout or the
            # Pop2/Pop3 weights no longer describe the result's world.
            raise StaleEncodingError(
                "records were added to the dataset since the TDH fit; refit"
                " before assigning"
            )
        # Answers cannot add candidates or change the source-claim counts,
        # so with records_version unchanged the fit-time encoding is current.
        col, mu, numer, denom = result.columnar_state

        cache = result.structures
        flags = (
            getattr(cache, "use_hierarchy", True),
            getattr(cache, "use_popularity", True),
            getattr(cache, "collapse_flat_objects", True),
        )
        pairs = col.slot_pairs
        key = (id(pairs), col.records_version, flags)
        if self._case_cache is not None and self._case_cache[0] == key:
            case2, case3 = self._case_cache[2], self._case_cache[3]
        else:
            case2, case3 = _worker_case_arrays(col, *flags)
            self._case_cache = (key, pairs, case2, case3)

        self._state = _ColumnarEaiState(result, col, mu, numer, denom, case2, case3)
        return self._state

    def _state_for(self, result: TDHResult) -> _ColumnarEaiState:
        """The state of ``result``: this round's, or built on first use."""
        state = self._state
        if state is not None and state.result is result:
            return state
        return self._activate(result.dataset, result)

    # ------------------------------------------------------------------
    # quality measure
    # ------------------------------------------------------------------
    def conditional_confidence(
        self, result: TDHResult, obj: ObjectId, worker_psi: np.ndarray, answer_pos: int
    ) -> np.ndarray:
        """``mu_{o, . | v_w = v'}`` by one incremental EM step (Eq. 18)."""
        state = self._state_for(result)
        oid = state.index[obj]
        start, end = state.offsets[oid], state.offsets[oid + 1]
        mu = state.mu[start:end]
        likelihood = state.likelihood_row(oid, answer_pos, worker_psi)
        joint = likelihood * mu
        z = joint.sum()
        f = joint / z if z > 0 else mu
        return (state.numer[start:end] + f) / (state.denom[oid] + 1.0)

    def answer_distribution(
        self, result: TDHResult, obj: ObjectId, worker_psi: np.ndarray
    ) -> np.ndarray:
        """``P(v_w = v' | psi_w, mu_o)`` for every candidate ``v'`` (Eq. 6)."""
        state = self._state_for(result)
        oid = state.index[obj]
        start, end = state.offsets[oid], state.offsets[oid + 1]
        mu = state.mu[start:end]
        dist = state.likelihood(oid, worker_psi) @ mu
        total = dist.sum()
        return dist / total if total > 0 else np.full(len(mu), 1.0 / len(mu))

    def eai(
        self,
        result: TDHResult,
        obj: ObjectId,
        worker_psi: np.ndarray,
        n_objects: Optional[int] = None,
    ) -> float:
        """``EAI(w, o)`` per Eq. (14)-(15)."""
        self.eai_evaluations += 1
        self.eai_pairs_computed += 1
        n_objects = n_objects if n_objects is not None else len(result.confidences)
        state = self._state_for(result)
        return state.eai(state.index[obj], worker_psi, n_objects)

    @staticmethod
    def ueai(result: TDHResult, obj: ObjectId, n_objects: Optional[int] = None) -> float:
        """Upper bound ``UEAI(o)`` of Lemma 4.1."""
        n_objects = n_objects if n_objects is not None else len(result.confidences)
        mu = result.confidences[obj]
        return (1.0 - float(mu.max())) / (n_objects * (result.denominators[obj] + 1.0))

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def assign(
        self,
        dataset: TruthDiscoveryDataset,
        result: TDHResult,
        workers: Sequence[WorkerId],
        k: int,
    ) -> Assignment:
        if not isinstance(result, TDHResult):
            raise TypeError("EAI requires a TDHResult (it reuses the EM state)")
        self.eai_evaluations = 0
        self.eai_pairs_computed = 0
        objects = list(result.confidences)
        n_objects = len(objects)
        if not workers or k <= 0 or n_objects == 0:
            return {w: [] for w in workers}

        psi_by_worker = {w: result.worker_psi(w, self.default_psi) for w in workers}
        # Workers in decreasing order of psi_{w,1} (line 3 of Algorithm 1).
        ordered_workers = sorted(
            workers, key=lambda w: float(psi_by_worker[w][0]), reverse=True
        )

        # This round's state also serves any later eai() on the same result,
        # e.g. the simulator's improvement estimate. `objects` lists the
        # encoding's objects in object-id order.
        state = self._activate(dataset, result)
        # Lemma 4.1 upper bounds for all objects in one vectorized pass.
        ueai = (1.0 - state.mu_max) / (n_objects * (state.denom + 1.0))
        # The walk pops objects in decreasing UEAI, ties in insertion order
        # (lines 1-2), and addresses them by that rank from here on.
        order = np.argsort(-ueai, kind="stable")
        ranked_objects = [objects[i] for i in order.tolist()]
        bounds = ueai[order].tolist()

        ranked = _RankedEai(state, order, n_objects)

        def lookup_for(worker: WorkerId) -> Callable[[int], float]:
            psi = psi_by_worker[worker]
            # EAI values by rank, computed in growing blocks as the walk asks
            # for them: it only asks for popped objects (displaced ones were
            # popped earlier), so pruning still bounds the kernel work.
            table: List[float] = []

            def lookup(rank: int) -> float:
                self.eai_evaluations += 1
                if rank >= len(table):
                    lo = len(table)
                    hi = min(n_objects, max(rank + 1, 2 * lo, _FIRST_BLOCK))
                    table.extend(ranked.block(psi, lo, hi).tolist())
                    self.eai_pairs_computed += hi - lo
                return table[rank]

            return lookup

        # Per-worker min-heaps of assigned (EAI, seq, rank).
        eai_heaps: Dict[WorkerId, List[Tuple[float, int, int]]] = {
            w: [] for w in ordered_workers
        }
        lanes = [
            (set(dataset.objects_of_worker(w)), eai_heaps[w], lookup_for(w))
            for w in ordered_workers
        ]
        pruning = self.use_pruning
        seq = 0
        n_full = 0  # heaps holding k tasks; a full heap stays full
        # Lowest worst-assigned EAI over all heaps once every heap is full;
        # None when not yet known (it can only rise when a heap evicts).
        floor: Optional[float] = None

        for rank in range(n_objects):
            upper = bounds[rank]
            if pruning and n_full == len(eai_heaps):
                if floor is None:
                    floor = min(heap[0][0] for heap in eai_heaps.values())
                if floor >= upper:
                    break  # no remaining object can beat any assigned one (line 8-9)

            # Try to place `rank`, cascading displaced objects to later workers.
            pending, obj = rank, ranked_objects[rank]
            for answered, heap, lookup in lanes:
                if obj in answered:
                    continue
                if pruning and len(heap) >= k and heap[0][0] >= upper:
                    # This worker's worst task already beats the bound; the
                    # object cannot enter this heap (line 11-12).
                    continue
                value = lookup(pending)
                seq += 1
                if len(heap) < k:
                    heapq.heappush(heap, (value, seq, pending))
                    n_full += len(heap) == k
                    break
                if value > heap[0][0]:
                    # Reassign the evicted object (line 17).
                    _, _, pending = heapq.heapreplace(heap, (value, seq, pending))
                    obj, upper, floor = ranked_objects[pending], bounds[pending], None
                # else: try the next worker with the same object

        return {
            w: [ranked_objects[r] for _, _, r in sorted(eai_heaps[w], reverse=True)]
            for w in ordered_workers
        }
