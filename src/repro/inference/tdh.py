"""TDH — Truth Discovery in the presence of Hierarchies (paper Section 3).

The generative model gives every source ``s`` a trustworthiness distribution
``phi_s = (phi_exact, phi_generalized, phi_wrong)`` and every worker ``w`` a
``psi_w`` of the same shape; each object ``o`` carries a confidence
distribution ``mu_o`` over its candidate values. This module implements the
MAP EM of Section 3.2:

* **E-step** (Figure 4): posterior truth responsibilities ``f`` for every
  record/answer and case responsibilities ``g`` per claim:
  ``f_{c,v} = P(claim u | truth v, phi_c) mu_{o,v} / Z_c`` with
  ``Z_c = sum_v' P(u | v', phi_c) mu_{o,v'}``, and
  ``g_{c,k} = phi_{c,k} L_k(u | .) . mu_o / Z_c`` for the three
  interpretation cases k (exact / generalized / wrong);
* **M-step**: Dirichlet-smoothed closed-form updates, Eq. (9)-(11) —
  ``mu_{o,v} = (sum_c f_{c,v} + gamma - 1) / (|claims_o| + |Vo|(gamma - 1))``
  and ``phi_{s,k} = (sum_c g_{c,k} + alpha_k - 1) / (|Os| + sum(alpha) - 3)``
  (same shape with ``beta`` for worker ``psi``);
* **truth**: argmax confidence, Eq. (12).

The fit evaluates the case weights of Eq. (1)-(4) once per claim x candidate
pair — the ancestor tests come from
:class:`~repro.data.columnar.ColumnarHierarchy`'s Euler intervals, the
popularity denominators from its CSR ancestor arrays — after which every EM
round is a handful of ``np.bincount`` scatter/gathers over the flat claim
table. The per-object dict loop over the small likelihood matrices of
:mod:`repro.inference._structures` is the parity oracle in
``tests/oracles.py``; parity (1e-8, identical iteration counts) is enforced
by ``tests/test_columnar_parity.py``.

The result object additionally exposes the numerators ``N_{o,v}`` and
denominators ``D_o`` of Eq. (9), which the EAI task assigner's incremental
EM (Section 4.2) reuses.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.columnar import ColumnarClaims, FrontierView, incremental_frontier
from ..data.model import ObjectId, SourceId, TruthDiscoveryDataset, WorkerId
from ._structures import ObjectStructure, StructureCache
from .base import (
    InferenceResult,
    LazyClaimantTrust,
    LazyConfidences,
    LazyObjectScalars,
    LazyTruths,
    TruthInferenceAlgorithm,
    validate_warm_start,
)

DEFAULT_ALPHA = (3.0, 3.0, 2.0)
"""Source prior from Section 5.1: correct values are more frequent than wrong."""

DEFAULT_BETA = (2.0, 2.0, 2.0)
"""Worker prior (all dimensions 2, Section 5.1)."""

DEFAULT_GAMMA = 2.0
"""Per-value confidence prior (all dimensions 2, Section 5.1)."""


class TDHResult(InferenceResult):
    """TDH fit: confidences plus source/worker trustworthiness and EM state.

    ``phi`` (source -> ``(phi_exact, phi_generalized, phi_wrong)``) and
    ``psi`` (worker -> the same for ``psi``) are read-only mappings. A fit
    publishes them as :class:`~repro.inference.base.LazyClaimantTrust`
    views over the rows of ``em_state["trust"]``: they hold the fit's
    claimants only, iterate in claimant-id order and return array rows
    without copying them.
    """

    def __init__(
        self,
        dataset: TruthDiscoveryDataset,
        confidences: Mapping[ObjectId, np.ndarray],
        phi: Mapping[SourceId, np.ndarray],
        psi: Mapping[WorkerId, np.ndarray],
        numerators: Mapping[ObjectId, np.ndarray],
        denominators: Mapping[ObjectId, float],
        structures: StructureCache,
        iterations: int,
        converged: bool,
    ) -> None:
        super().__init__(dataset, confidences, iterations, converged)
        self.phi = phi
        self.psi = psi
        self.numerators = numerators
        self.denominators = denominators
        self.structures = structures
        #: The dataset's record-mutation counter at fit time. The EAI
        #: assigner raises ``StaleEncodingError`` when this no longer
        #: matches the dataset (records added between fit and assign would
        #: silently change the slot layout or the Pop2/Pop3 weights).
        self.records_version = getattr(dataset, "_records_version", 0)
        #: Set by the fit: ``(encoding, mu, numerators, denominators)`` as
        #: flat slot/object arrays, which the EAI assigner consumes directly
        #: (the mapping views above alias ``mu`` and ``numerators``, so the
        #: two representations cannot diverge).
        self.columnar_state: Optional[
            Tuple[ColumnarClaims, np.ndarray, np.ndarray, np.ndarray]
        ] = None
        #: Set by the fit: ``{"g_sums": (n_claimants, 3),
        #: "trust": (n_claimants, 3)}`` — the last E/M evaluation's per-claimant
        #: case responsibility sums and trust rows, indexed by the encoding's
        #: claimant ids. Those ids never move under an append, so they are a
        #: prefix of every later encoding's: the incremental fit patches
        #: these totals with the frontier's delta contributions instead of
        #: re-reducing the whole claim table, and both fits re-seed their
        #: trust from the stored rows without a per-claimant walk. Each
        #: trust row is the M-step of its ``g_sums`` row.
        self.em_state: Optional[Dict[str, object]] = None
        #: Set by the incremental fit: number of objects re-converged (the
        #: frontier size). ``None`` for full fits.
        self.frontier_size: Optional[int] = None

    def truths(self):
        """Estimated truth for every object; lazy off the flat columnar
        state when available, so publishing a result costs O(1)."""
        if self.columnar_state is not None:
            return LazyTruths(self.columnar_state[0], self.columnar_state[1])
        return super().truths()

    def source_trustworthiness(self, source: SourceId) -> Tuple[float, float, float]:
        """``(phi_exact, phi_generalized, phi_wrong)`` for ``source``."""
        vec = self.phi[source]
        return (float(vec[0]), float(vec[1]), float(vec[2]))

    def worker_trustworthiness(self, worker: WorkerId) -> Tuple[float, float, float]:
        """``(psi_exact, psi_generalized, psi_wrong)`` for ``worker``."""
        vec = self.psi[worker]
        return (float(vec[0]), float(vec[1]), float(vec[2]))

    def worker_psi(self, worker: WorkerId, prior: Sequence[float] = DEFAULT_BETA) -> np.ndarray:
        """``psi`` for ``worker``, falling back to the prior mean for unseen workers."""
        vec = self.psi.get(worker)
        if vec is not None:
            return vec
        prior_arr = np.asarray(prior, dtype=float)
        return prior_arr / prior_arr.sum()


def _tdh_estep_kernel(ops, trust, pair_cid, claim_cid, mu, exact, case2, case3):
    """One TDH E-step (Figure 4, Eq. 1-8) over ``ops``: the whole
    :class:`~repro.data.columnar.ColumnarClaims` or a
    :class:`~repro.data.columnar.FrontierView` of it.

    ``trust`` is a ``(3, k)`` block holding one trust column per claimant
    (``phi`` for a source, ``psi`` for a worker); ``pair_cid`` and
    ``claim_cid`` give each of ``ops``'s pairs and claims its column. The
    full fit passes every claimant, addressed by global claimant id; the
    incremental fit passes only the frontier's claimants, addressed by
    their rank among them. ``exact`` / ``case2`` / ``case3`` are the per-pair
    case weights of :meth:`TDHModel._pair_case_arrays` (built once per fit)
    and ``mu`` the flat confidences over ``ops``'s slots. Returns the
    confidence numerator sums plus the per-claim case responsibilities
    ``g1``/``g2``/``g3``; the caller reduces those per claimant.
    """
    mu_pair = mu[ops.pair_slot]
    like = (
        trust[0][pair_cid] * exact
        + trust[1][pair_cid] * case2
        + trust[2][pair_cid] * case3
    )
    joint = like * mu_pair
    z = np.bincount(ops.pair_claim, weights=joint, minlength=ops.n_claims)
    zpos = z > 0
    z_safe = np.where(zpos, z, 1.0)
    # Degenerate claims (z <= 0) fall back to the prior confidence, exactly
    # like the per-object sweep of the dict-loop oracle.
    f = np.where(zpos[ops.pair_claim], joint / z_safe[ops.pair_claim], mu_pair)
    f_sum = np.bincount(ops.pair_slot, weights=f, minlength=ops.n_slots)

    s2 = np.bincount(ops.pair_claim, weights=case2 * mu_pair, minlength=ops.n_claims)
    third = 1.0 / 3.0
    g1 = np.where(zpos, trust[0][claim_cid] * mu[ops.claim_slot] / z_safe, third)
    g2 = np.where(zpos, trust[1][claim_cid] * s2 / z_safe, third)
    g3 = np.where(zpos, np.maximum(0.0, 1.0 - g1 - g2), third)
    return f_sum, g1, g2, g3


def _trust_m_step(g, prior_m1, prior_m1_sum, prior_mean):
    """Trust M-step (Eq. 10-11) over a ``(3, k)`` block of per-claimant case
    sums ``g``: ``prior_m1`` holds each claimant's ``alpha - 1`` (source) or
    ``beta - 1`` (worker) column and ``prior_m1_sum`` its total; a claimant
    with no mass keeps its ``prior_mean`` column. Column adds sum each
    claimant's three entries in the order ``sum(axis=1)`` did on the old
    ``(k, 3)`` layout, so results are bitwise unchanged.
    """
    denom = g[0] + g[1] + g[2] + prior_m1_sum
    ok = denom > 0
    vec = (g + prior_m1) / np.where(ok, denom, 1.0)
    vec = np.maximum(vec, 1e-12)
    vec /= vec[0] + vec[1] + vec[2]
    return np.where(ok, vec, prior_mean)


def _squarem_point(x0, x1, x2, step_max, mu_floor, slot_obj, n_objects):
    """The SQUAREM extrapolation (Varadhan & Roland 2008, scheme S3) of the
    EM iterates ``x0 -> x1 -> x2``, each a ``(mu, trust block)`` pair:
    ``x0 + 2 a r + a^2 v`` with ``r = x1 - x0``, ``v = x2 - x1 - r`` and the
    step ``a = |r| / |v|`` clamped to ``[1, step_max]``, projected back onto
    the simplices. Returns the point and the next ``step_max``, which grows
    4x each time the clamp binds (the SQUAREM package's default). A step of
    1 *is* ``x2``, which is also taken when ``v`` vanishes or the
    extrapolation is not finite.

    ``mu`` is clipped at ``mu_floor``, the smallest value the Eq. 9 update
    gives each slot, and renormalised per object (``slot_obj`` numbers the
    objects ``0 .. n_objects - 1``); the trust block is clipped and
    renormalised per column as :func:`_trust_m_step` does.
    """
    r = [b - a for a, b in zip(x0, x1)]
    v = [c - b - d for b, c, d in zip(x1, x2, r)]
    sv = sum(float(np.vdot(d, d)) for d in v)
    if not sv > 0:
        return x2, step_max
    step = min(max(np.sqrt(sum(float(np.vdot(d, d)) for d in r) / sv), 1.0), step_max)
    if step == step_max:
        step_max *= 4.0
    if step == 1.0:
        return x2, step_max
    mu, trust = (a + 2.0 * step * d + step * step * e for a, d, e in zip(x0, r, v))
    mu = np.maximum(mu, mu_floor)
    mu /= np.bincount(slot_obj, weights=mu, minlength=n_objects)[slot_obj]
    trust = np.maximum(trust, 1e-12)
    trust /= trust[0] + trust[1] + trust[2]
    if not (np.isfinite(mu).all() and np.isfinite(trust).all()):
        return x2, step_max
    return (mu, trust), step_max


class TDHModel(TruthInferenceAlgorithm):
    """The paper's hierarchical truth-inference EM.

    Parameters
    ----------
    alpha, beta:
        Dirichlet hyperparameters of the source / worker trustworthiness
        priors. Defaults are the paper's Section 5.1 settings.
    gamma:
        Symmetric Dirichlet hyperparameter of the confidence prior; a scalar
        applied to every candidate value.
    max_iter, tol:
        EM stopping rule — stop when the largest absolute confidence change
        falls below ``tol`` or after ``max_iter`` iterations. On the
        incremental path an iteration is one E/M evaluation: SQUAREM
        extrapolates between evaluations, and the same rule is tested
        after each one.
    use_hierarchy:
        Ablation switch: ``False`` collapses the model to two interpretations
        (exact / wrong), i.e. the hierarchy-blind variant the paper argues
        against.
    use_popularity:
        Ablation switch: ``False`` replaces the worker popularity terms
        ``Pop2``/``Pop3`` (Eq. 3) with the uniform weighting of Eq. (1).
    collapse_flat_objects:
        Ablation switch: ``False`` disables the Eq. (2)/(4) special case for
        objects outside ``OH``, leaving their case-2 channel unsupported —
        the configuration the paper warns underestimates ``phi_2``.
    use_columnar:
        Accepted only as ``True``. It is kept for the benchmark in
        ``perfbench/``, which still passes it, and goes once the benchmark
        stops passing it; any other value raises :class:`ValueError`.
    incremental, frontier_hops:
        ``incremental=True`` makes ``fit(dataset, warm_start=previous)``
        re-converge only the *dirty frontier* — the objects touched since
        the previous fit plus everything within ``frontier_hops``
        claimant links of them — holding clean objects' E-step outputs
        fixed and patching the previous round's per-claimant reductions
        with the frontier's delta. Record appends (new objects, new
        candidate values) are spliced into the frontier too. Falls back to
        the full fit whenever the delta is not servable (no columnar state,
        an in-place overwrite, a trimmed oplog window, or a frontier
        saturating to the whole corpus — the last delegates to the full fit
        for exact parity). Results agree with a cold fit within the
        convergence tolerance; see ``docs/architecture.md``.
    """

    name = "TDH"
    supports_workers = True
    supports_incremental = True

    def __init__(
        self,
        alpha: Sequence[float] = DEFAULT_ALPHA,
        beta: Sequence[float] = DEFAULT_BETA,
        gamma: float = DEFAULT_GAMMA,
        max_iter: int = 100,
        tol: float = 1e-6,
        use_hierarchy: bool = True,
        use_popularity: bool = True,
        collapse_flat_objects: bool = True,
        use_columnar: bool = True,
        incremental: bool = False,
        frontier_hops: int = 1,
    ) -> None:
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        if self.alpha.shape != (3,) or self.beta.shape != (3,):
            raise ValueError("alpha and beta must have three components")
        if gamma < 1.0:
            raise ValueError("gamma must be >= 1 for a proper MAP update")
        self.gamma = float(gamma)
        self.max_iter = max_iter
        self.tol = tol
        self.use_hierarchy = use_hierarchy
        self.use_popularity = use_popularity
        self.collapse_flat_objects = collapse_flat_objects
        if use_columnar is not True:
            raise ValueError(
                "TDHModel has one engine and use_columnar accepts only True;"
                " the dict-loop reference is TDHOracle in tests/oracles.py"
            )
        self.incremental = incremental
        if frontier_hops < 0:
            raise ValueError("frontier_hops must be >= 0")
        self.frontier_hops = frontier_hops

    def make_structure_cache(self, dataset: TruthDiscoveryDataset) -> StructureCache:
        """A structure cache matching this model's ablation flags."""
        return StructureCache(
            dataset,
            use_hierarchy=self.use_hierarchy,
            use_popularity=self.use_popularity,
            collapse_flat_objects=self.collapse_flat_objects,
        )

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: TruthDiscoveryDataset,
        warm_start: Optional[TDHResult] = None,
        structures: Optional[StructureCache] = None,
    ) -> TDHResult:
        """Run EM to convergence and return a :class:`TDHResult`.

        ``warm_start`` (a previous fit of this dataset) seeds source and
        worker trustworthiness from its stored trust rows
        (``em_state["trust"]``), which the round-based crowd simulator uses to
        avoid re-learning from scratch every round; a warm start fitted on a
        different dataset object, or across an in-place record overwrite, is
        refused with a :class:`RuntimeWarning` and degrades to a cold start
        (append-only record windows are accepted — trust is keyed by
        claimant, robust to growth).
        ``structures`` may share a :class:`StructureCache` across fits on
        identical records. With ``incremental=True`` and a usable columnar
        ``warm_start``, only the dirty frontier is re-converged.
        """
        warm_start = validate_warm_start(dataset, warm_start)
        if self.incremental and warm_start is not None:
            result = self._fit_incremental(dataset, warm_start, structures)
            if result is not None:
                return result
        return self._fit_columnar(dataset, warm_start, structures)

    # ------------------------------------------------------------------
    # full fit
    # ------------------------------------------------------------------
    def _pair_case_arrays(self, col: ColumnarClaims, view=None):
        """The per-pair case weights of Eq. (1)-(4) that
        :func:`_tdh_estep_kernel` reads, as flat arrays.

        Element ``p`` of ``exact`` / ``case2`` / ``case3`` is the
        corresponding entry ``[u, v]`` of the per-object
        :class:`ObjectStructure` matrices (the source matrices for a record,
        the worker ones for an answer), where ``u`` is the pair's claimed
        value and ``v`` its hypothesised truth. The ablation flags are
        honoured exactly as in
        :func:`repro.inference._structures.build_structure`.

        With a :class:`~repro.data.columnar.FrontierView` the arrays cover
        only the view's pairs (same expressions, evaluated on the view's
        global claim rows / slots), so an incremental fit's setup cost is
        O(frontier pairs) — plus one O(claims) pass for the global popularity
        denominators, which are corpus-wide by definition.
        """
        ops = col if view is None else view
        if view is None:
            pair_claim_rows = col.pair_claim
            pair_slots = col.pair_slot
        else:
            pair_claim_rows = view.claim_ids[view.pair_claim]
            pair_slots = view.slot_ids[view.pair_slot]
        pair_is_claimed = ops.pair_is_claimed
        n_pairs = len(pair_claim_rows)
        n = ops.pair_size  # |Vo| per pair, float
        exact_f = pair_is_claimed.astype(np.float64)

        if self.use_hierarchy:
            # Only this ablation branch needs the encoded hierarchy; keep the
            # hierarchy-blind variant from paying for its construction.
            hier = col.hierarchy
            anc = hier.is_ancestor_vid(
                col.claim_vid[pair_claim_rows], col.slot_vid[pair_slots]
            )
            gsize = hier.slot_gsize[pair_slots].astype(np.float64)
            hflag_obj = (
                np.ones(col.n_objects, dtype=bool)
                if not self.collapse_flat_objects
                else hier.obj_has_hierarchy
            )
        else:
            anc = np.zeros(n_pairs, dtype=bool)
            gsize = np.zeros(n_pairs, dtype=np.float64)
            hflag_obj = np.zeros(col.n_objects, dtype=bool)
        hflag = hflag_obj[col.claim_obj[pair_claim_rows]]
        anc_f = anc.astype(np.float64)
        case3_f = (~pair_is_claimed & ~anc).astype(np.float64)

        # Eq. (1)/(2): generalized truths uniform over Go(v); wrong values
        # uniform over the remaining candidates (all non-truth ones for
        # objects outside OH).
        src2_h = np.where(gsize > 0, anc_f / np.maximum(gsize, 1.0), 0.0)
        wrong = n - gsize - 1.0
        src3_h = np.where(wrong > 0, case3_f / np.maximum(wrong, 1.0), 0.0)
        src3_flat = np.where(n > 1, case3_f / np.maximum(n - 1.0, 1.0), 0.0)
        source_case2 = np.where(hflag, src2_h, exact_f)
        source_case3 = np.where(hflag, src3_h, src3_flat)

        if self.use_popularity:
            # Eq. (3): Pop2/Pop3 redistribute the worker case mass by how
            # often sources claimed each value.
            counts, pop2_slot, pop3_slot = col.popularity_denominators(
                self.use_hierarchy
            )
            u_counts = counts[col.claim_slot[pair_claim_rows]]
            pop2 = pop2_slot[pair_slots]
            pop3 = pop3_slot[pair_slots]
            wrk2_h = np.where(pop2 > 0, anc_f * u_counts / np.maximum(pop2, 1.0), 0.0)
            worker_case2 = np.where(hflag, wrk2_h, exact_f)
            worker_case3 = np.where(
                pop3 > 0, case3_f * u_counts / np.maximum(pop3, 1.0), 0.0
            )
        else:
            worker_case2, worker_case3 = source_case2, source_case3
        is_answer_pair = ops.claim_is_answer[ops.pair_claim]
        return (
            exact_f,
            np.where(is_answer_pair, worker_case2, source_case2),
            np.where(is_answer_pair, worker_case3, source_case3),
        )

    def _fit_columnar(
        self,
        dataset: TruthDiscoveryDataset,
        warm_start: Optional[TDHResult],
        structures: Optional[StructureCache],
    ) -> TDHResult:
        col = dataset.columnar()
        cache = structures if structures is not None else self.make_structure_cache(dataset)
        priors = self._trust_priors(col.claimant_is_worker)

        # Trust as a (3, n_claimants) block, from the prior means; a warm
        # start's claimants are this encoding's first ones (claimant ids
        # never move).
        trust = priors[2].copy()
        if warm_start is not None and warm_start.em_state is not None:
            warm_trust = warm_start.em_state["trust"]
            trust[:, : len(warm_trust)] = warm_trust.T

        # Per-pair case weights of Eq. (1)-(4): iteration-invariant.
        case_arrays = self._pair_case_arrays(col)
        pair_cid = col.claim_claimant[col.pair_claim]

        mu = col.initial_confidences_flat()
        gamma_minus_1 = self.gamma - 1.0
        denom_obj = (
            np.diff(col.claim_offsets).astype(np.float64)
            + col.sizes * gamma_minus_1
        )
        den_slot = denom_obj[col.slot_obj]
        den_positive = den_slot > 0
        den_safe = np.where(den_positive, den_slot, 1.0)
        uniform_slot = 1.0 / col.sizes.astype(np.float64)[col.slot_obj]

        numer_flat = np.zeros(col.n_slots, dtype=np.float64)
        iterations = 0
        converged = False
        g_sums = None

        for iterations in range(1, self.max_iter + 1):
            f_sum, g1, g2, g3 = _tdh_estep_kernel(
                col, trust, pair_cid, col.claim_claimant, mu, *case_arrays
            )
            # Per-claimant case sums: one bincount over the whole claim table.
            g_sums = np.stack(
                [
                    np.bincount(
                        col.claim_claimant, weights=g, minlength=col.n_claimants
                    )
                    for g in (g1, g2, g3)
                ]
            )
            trust = _trust_m_step(g_sums, *priors)

            # M-step for confidences (Eq. 9).
            numer_flat = f_sum + gamma_minus_1
            new_mu = np.where(den_positive, numer_flat / den_safe, uniform_slot)
            delta = float(np.max(np.abs(new_mu - mu))) if col.n_slots else 0.0
            mu = new_mu
            if delta < self.tol:
                converged = True
                break

        trust = np.ascontiguousarray(trust.T)
        result = self._result(
            dataset, col, cache, mu, numer_flat, denom_obj, trust, iterations, converged
        )
        if g_sums is not None:
            result.em_state = {"g_sums": np.ascontiguousarray(g_sums.T), "trust": trust}
        return result

    def _trust_priors(self, is_worker: np.ndarray):
        """The prior arguments of :func:`_trust_m_step` for claimants whose
        kind is ``is_worker``: ``(prior_m1, prior_m1_sum, prior_mean)``, the
        Dirichlet ``alpha - 1`` / ``beta - 1`` as ``(3, k)`` columns, their
        totals, and the ``(3, k)`` prior means."""
        prior_m1 = np.where(
            is_worker, (self.beta - 1.0)[:, None], (self.alpha - 1.0)[:, None]
        )
        prior_mean = np.where(
            is_worker,
            (self.beta / self.beta.sum())[:, None],
            (self.alpha / self.alpha.sum())[:, None],
        )
        return prior_m1, prior_m1[0] + prior_m1[1] + prior_m1[2], prior_mean

    @staticmethod
    def _result(
        dataset, col, cache, mu, numer_flat, denom_obj, trust, iterations, converged
    ) -> TDHResult:
        """A :class:`TDHResult` over the flat fit state; ``trust`` is the
        ``(n_claimants, 3)`` array the ``phi``/``psi`` views read."""
        result = TDHResult(
            dataset=dataset,
            confidences=LazyConfidences(col, mu),
            phi=LazyClaimantTrust(dataset, col, trust, workers=False),
            psi=LazyClaimantTrust(dataset, col, trust, workers=True),
            numerators=LazyConfidences(col, numer_flat),
            denominators=LazyObjectScalars(col, denom_obj),
            structures=cache,
            iterations=iterations,
            converged=converged,
        )
        result.columnar_state = (col, mu, numer_flat, denom_obj)
        return result

    # ------------------------------------------------------------------
    # incremental engine (dirty-object frontier)
    # ------------------------------------------------------------------
    def _fit_incremental(
        self,
        dataset: TruthDiscoveryDataset,
        warm_start: "TDHResult",
        structures: Optional[StructureCache],
    ) -> Optional[TDHResult]:
        """Warm-started frontier re-convergence; ``None`` -> run the full fit.

        Per E/M evaluation only the frontier's E-step runs (the full fit's
        :func:`_tdh_estep_kernel` over a
        :class:`~repro.data.columnar.FrontierView`), followed by
        :func:`_trust_m_step` — both on the frontier claimants' own ``(3,
        k)`` trust block, the ``k`` claimants with a claim on the frontier.
        The evaluations are accelerated with SQUAREM (Varadhan & Roland,
        *Scand. J. Stat.* 35, 2008; scheme S3, see :func:`_squarem_point`):
        each cycle of two evaluations extrapolates along their difference,
        and a third evaluates from the projected point. ``iterations``
        counts evaluations, ``max_iter`` caps them, and the stop rule is
        tested after each one. The stored state is always the last
        evaluation's output, so every stored trust row is still the M-step
        of its ``g_sums`` row and ``mu`` the Eq. 9 ratio of the stored
        numerators and denominators.
        Their case sums are patched as ``base + frontier``. ``base`` is the
        previous round's stored totals minus what the frontier's
        pre-existing claims contributed to them, evaluated with the warm
        trust rows, ``mu`` and case weights. After an answers-only window
        the current encoding's case weights are the warm ones. Once records
        landed, the contribution is re-evaluated on the *warm* encoding —
        the frontier objects that existed at the warm fit, whose claimant
        ids are the current ones: a claim that adds a candidate value
        moves its object's ``|Vo|``, ``Go(v)`` and popularity denominators,
        so evaluating the old claims on the current encoding would subtract
        mass the stored totals never held, and the error would compound
        round after round. Clean objects keep their
        previous posteriors and numerators verbatim, and clean claimants
        their stored case sums and trust rows: those rows are already each
        other's M-step, so the block is written back once, after the loop,
        and nothing is rebuilt per claimant of the corpus. The freeze makes the
        result an approximation bounded by the previous fit's convergence
        tolerance — ``tests/test_incremental_em.py`` property-checks it
        against cold fits — except when the frontier saturates, where the
        fit delegates to :meth:`_fit_columnar` for bitwise parity.
        """
        state = warm_start.columnar_state
        em = warm_start.em_state
        if state is None or em is None or self.max_iter < 1:
            # With no evaluation to run, the frontier's case sums would be
            # stored with its old claims subtracted and no M-step applied;
            # the full fit stores no EM state at max_iter=0.
            return None
        plan = incremental_frontier(
            dataset,
            state[0],
            hops=self.frontier_hops,
            reuse=getattr(warm_start, "frontier_state", None),
        )
        if plan is None:
            return None
        col, frontier = plan.col, plan.frontier
        if len(frontier) >= col.n_objects:
            # Saturated frontier: the full warm fit is both exact and no
            # more expensive than re-converging "everything incrementally".
            return self._fit_columnar(dataset, warm_start, structures)

        fv = FrontierView(col, frontier)
        cache = structures if structures is not None else self.make_structure_cache(dataset)
        is_worker = col.claimant_is_worker

        # Claimant ids never move under an append: the warm fit's claimants
        # are this encoding's first ``n_old``, and brand-new ones (all with
        # claims on the frontier) start from the prior.
        warm_col = state[0]
        n_old = warm_col.n_claimants
        n_claimants = col.n_claimants
        prior_mean_new = self._trust_priors(is_worker[n_old:])[2]
        trust = np.concatenate([em["trust"], prior_mean_new.T])
        g_sums = np.concatenate([em["g_sums"], np.zeros((n_claimants - n_old, 3))])

        # The loop runs on the frontier claimants' own (3, k) trust block:
        # the E-step reads no other claimant's trust, and every other
        # claimant's case sums stay at their stored totals.
        f_cids = np.unique(fv.claim_claimant)
        claim_local = np.searchsorted(f_cids, fv.claim_claimant)
        n_local_cids = len(f_cids)
        block = np.ascontiguousarray(trust[f_cids].T)
        priors_f = self._trust_priors(is_worker[f_cids])

        case_arrays = self._pair_case_arrays(col, fv)
        pair_local = claim_local[fv.pair_claim]

        # Slot growth scatter-expands the stored per-slot state into the new
        # layout; the new slots (all on frontier objects) are re-seeded with
        # the uniform prior right before the EM loop.
        mu = plan.expand_slots(state[1])
        numer_flat = plan.expand_slots(state[2])
        mu_f = mu[fv.slot_ids]

        # Base per-claimant case sums: the previous round's totals (new
        # claimants start at zero), minus the frontier's pre-existing claims
        # evaluated exactly as the warm fit saw them. Appended claims were
        # never inside the stored totals.
        base_g = np.ascontiguousarray(g_sums[f_cids].T)
        if getattr(dataset, "_records_version", 0) == warm_start.records_version:
            # Answers only: an answer names an existing candidate, so no old
            # claim's case weights moved and the current arrays evaluate
            # them as the warm fit did. Each object's appended answers are
            # the tail of its claim block.
            _, g1, g2, g3 = _tdh_estep_kernel(
                fv, block, pair_local, claim_local, mu_f, *case_arrays
            )
            counts = np.diff(col.claim_offsets)[fv.obj_ids]
            first = np.concatenate(([0], np.cumsum(counts)))[fv.claim_obj]
            warm_counts = np.diff(warm_col.claim_offsets)[fv.obj_ids]
            old = np.arange(fv.n_claims) - first < warm_counts[fv.claim_obj]
            old_local = claim_local[old]
            g1, g2, g3 = g1[old], g2[old], g3[old]
        else:
            # Records landed: a claim that adds a candidate value moves its
            # object's |Vo|, Go(v) and popularity denominators, so the old
            # claims are re-evaluated on the warm encoding. Objects append
            # at the tail of the object axis, so the frontier's old objects
            # are its ids below the warm object count; their old claimants
            # still claim on the frontier, so the block holds their trust.
            warm_fv = FrontierView(warm_col, frontier[frontier < warm_col.n_objects])
            old_local = np.searchsorted(f_cids, warm_fv.claim_claimant)
            _, g1, g2, g3 = _tdh_estep_kernel(
                warm_fv,
                block,
                old_local[warm_fv.pair_claim],
                old_local,
                state[1][warm_fv.slot_ids],
                *self._pair_case_arrays(warm_col, warm_fv),
            )
        for k, g in enumerate((g1, g2, g3)):
            base_g[k] -= np.bincount(old_local, weights=g, minlength=n_local_cids)

        gamma_minus_1 = self.gamma - 1.0
        denom_obj = (
            np.diff(col.claim_offsets).astype(np.float64)
            + col.sizes * gamma_minus_1
        )
        den_slot = denom_obj[fv.obj_ids][fv.slot_obj]
        den_positive = den_slot > 0
        den_safe = np.where(den_positive, den_slot, 1.0)
        uniform_slot = 1.0 / fv.sizes.astype(np.float64)[fv.slot_obj]
        if plan.grew:
            # Brand-new candidate slots (all on frontier objects) start from
            # the per-object uniform prior: the zero used for the base
            # subtraction would otherwise pin their posterior at zero — the
            # E-step can never move mass onto a zero-prior slot.
            mu_f = np.where(plan.new_slot_mask[fv.slot_ids], uniform_slot, mu_f)

        # One fused bincount per evaluation: the three case rows live at
        # offsets 0 / k / 2k of a single index array.
        claim_local_3 = np.concatenate(
            [claim_local + k * n_local_cids for k in range(3)]
        )
        n_local_slots = fv.n_slots

        def em_step(mu_f, block):
            """One E/M evaluation from ``(mu_f, block)``: the updated
            confidences and trust block, the Eq. 9 numerators, the patched
            case sums and the largest confidence change."""
            f_sum, g1, g2, g3 = _tdh_estep_kernel(
                fv, block, pair_local, claim_local, mu_f, *case_arrays
            )
            g_local = base_g + np.bincount(
                claim_local_3,
                weights=np.concatenate((g1, g2, g3)),
                minlength=3 * n_local_cids,
            ).reshape(3, n_local_cids)
            # Confidence M-step (Eq. 9) over the frontier slots only.
            numer_f = f_sum + gamma_minus_1
            new_mu_f = np.where(den_positive, numer_f / den_safe, uniform_slot)
            delta = (
                float(np.max(np.abs(new_mu_f - mu_f))) if n_local_slots else 0.0
            )
            return new_mu_f, _trust_m_step(g_local, *priors_f), numer_f, g_local, delta

        # A SQUAREM cycle's phases: 0 evaluates x1 = F(x0); 1 evaluates
        # x2 = F(x1) and extrapolates; 2 evaluates from the extrapolated
        # point, and its output is the next cycle's x0.
        mu_floor = np.where(den_positive, gamma_minus_1 / den_safe, uniform_slot)
        step_max = 1.0
        point = (mu_f, block)
        converged = False
        for iterations in range(1, self.max_iter + 1):
            phase = (iterations - 1) % 3
            if phase == 0:
                x0 = point
            mu_f, block, numer_f, g_local, delta = em_step(*point)
            if delta < self.tol:
                converged = True
                break
            point = (mu_f, block)
            if phase == 0:
                x1 = point
            elif phase == 1:
                point, step_max = _squarem_point(
                    x0, x1, point, step_max, mu_floor, fv.slot_obj, fv.n_objects
                )

        mu[fv.slot_ids] = mu_f
        numer_flat[fv.slot_ids] = numer_f
        # A clean claimant's stored case sums and trust row are already each
        # other's M-step (its base subtracts nothing), so only the frontier
        # claimants' rows are written back.
        trust[f_cids] = block.T
        g_sums[f_cids] = g_local.T

        result = self._result(
            dataset, col, cache, mu, numer_flat, denom_obj, trust, iterations, converged
        )
        result.em_state = {"g_sums": g_sums, "trust": trust}
        result.frontier_size = len(frontier)
        result.frontier_state = plan.frontier_state
        return result
