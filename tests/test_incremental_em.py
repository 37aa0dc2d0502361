"""Dirty-object incremental EM: frontier machinery + warm-started fits.

Three layers, mirroring the implementation:

1. **Index/frontier machinery** (`data/columnar.py`): the claimant->object
   CSR index must equal a cold build after arbitrary append splices
   (including appends that introduce new claimants), the frontier expansion
   must match a brute-force BFS at every hop bound, and ``FrontierView``
   must gather exactly the global rows it claims to.
2. **Oplog window edges** (`data/model.py`): a held encoding is servable at
   exactly ``MAX_OPLOG`` appended ops, unservable at ``MAX_OPLOG + 1`` and
   across an overwrite-triggered log clear — the off-by-one territory the
   incremental fits depend on for their cold-fallback guarantee.
3. **Incremental-vs-cold parity** (inference): property tests over random
   append interleavings — answers only, and mixed claim+answer windows that
   grow the slot layout (new objects, brand-new candidate values) —
   asserting the frontier fits track a cold columnar fit: bitwise when the
   frontier saturates to the full object set, within per-algorithm
   tolerances otherwise (TDH/DS/LFC agree on truths; ZenCrowd, whose
   tail-source reliabilities are genuinely unstable under small deltas, is
   held to accuracy parity).
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from repro.crowd.simulator import CrowdSimulator
from repro.crowd.workers import make_worker_pool
from repro.data.columnar import (
    ClaimantObjectsIndex,
    ColumnarClaims,
    FrontierView,
    incremental_frontier,
)
from repro.data.model import Answer, Record, TruthDiscoveryDataset
from repro.datasets import make_birthplaces, make_heritages
from repro.datasets.geography import make_geography, sample_truths
from repro.datasets.synthetic import _claim_value, _wrong_pool
from repro.eval.metrics import evaluate
from repro.hierarchy.tree import Hierarchy
from repro.inference import DawidSkene, Lfc, TDHModel, ZenCrowd
from repro.inference.base import (
    WARM_START_DEGRADED_PREFIX,
    warm_start_degradation_message,
)
from repro.inference.tdh import TDHResult


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _sparse_heritages():
    return make_heritages(size=160, n_sources=350, seed=11)


def _add_random_answers(dataset, n, seed, n_workers=7, p_truth=0.7):
    """Append ``n`` seeded answers (mostly truthful, like a crowd round)."""
    rng = np.random.default_rng(seed)
    objects = dataset.objects
    for i in range(n):
        obj = objects[int(rng.integers(len(objects)))]
        ctx = dataset.context(obj)
        truth = dataset.gold.get(obj)
        if truth is not None and truth in ctx.index and rng.random() < p_truth:
            value = truth
        else:
            value = ctx.values[int(rng.integers(len(ctx.values)))]
        dataset.add_answer(Answer(obj, f"w{i % n_workers}", value))


def _normalized(result, obj):
    vec = np.asarray(result.confidences[obj], dtype=float)
    total = vec.sum()
    return vec / total if total > 0 else vec


def _max_confidence_diff(a, b, objects):
    return max(
        float(np.max(np.abs(_normalized(a, o) - _normalized(b, o))))
        for o in objects
    )


def _brute_frontier(col, dirty, hops):
    frontier = set(int(o) for o in dirty)
    for _ in range(hops):
        if len(frontier) == col.n_objects:
            break
        cids = set()
        for oid in frontier:
            lo, hi = col.claim_offsets[oid], col.claim_offsets[oid + 1]
            cids.update(int(c) for c in col.claim_claimant[lo:hi])
        grown = set(frontier)
        for oid in range(col.n_objects):
            lo, hi = col.claim_offsets[oid], col.claim_offsets[oid + 1]
            if any(int(c) in cids for c in col.claim_claimant[lo:hi]):
                grown.add(oid)
        if grown == frontier:
            break
        frontier = grown
    return np.array(sorted(frontier), dtype=np.int64)


def _assert_index_equal(index, other):
    assert np.array_equal(index.offsets, other.offsets)
    assert np.array_equal(index.objects, other.objects)


# ---------------------------------------------------------------------------
# claimant->object CSR index
# ---------------------------------------------------------------------------
def test_claimant_objects_index_matches_brute_force():
    ds = _sparse_heritages()
    col = ds.columnar()
    index = col.claimant_objects
    for cid in range(col.n_claimants):
        expected = sorted(
            int(o)
            for o, c in zip(col.claim_obj, col.claim_claimant)
            if int(c) == cid
        )
        lo, hi = index.offsets[cid], index.offsets[cid + 1]
        assert list(index.objects[lo:hi]) == expected
    # objects_of concatenates the groups of the requested claimants
    cids = np.array([0, min(3, col.n_claimants - 1)], dtype=np.int64)
    got = index.objects_of(cids)
    expected = np.concatenate(
        [index.objects[index.offsets[c] : index.offsets[c + 1]] for c in cids]
    )
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_claimant_objects_index_splices_forward(seed):
    """Property: the spliced index equals a cold build after any interleaving
    of answer and record appends — including appends that introduce new
    claimants on early objects (their ids still land at the tail)."""
    rng = np.random.default_rng(seed)
    tree = Hierarchy()
    for head in ("A", "B", "C"):
        tree.add_path([head, f"{head}1", f"{head}1a"])
        tree.add_path([head, f"{head}2"])
    values = [f"{h}{s}" for h in "ABC" for s in ("1", "2", "1a")]
    ds = TruthDiscoveryDataset(
        tree, [Record(f"o{i}", f"s{i % 4}", values[i % len(values)]) for i in range(8)]
    )
    ds.columnar().claimant_objects  # prime the encoding AND the index
    for step in range(60):
        objects = ds.objects
        obj = objects[int(rng.integers(len(objects)))]
        if rng.random() < 0.5:
            worker = f"w{int(rng.integers(6))}"
            candidates = ds.candidates(obj)
            ds.add_answer(
                Answer(obj, worker, candidates[int(rng.integers(len(candidates)))])
            )
        else:
            # new sources append empty tail groups to the index; the value
            # stays inside the object's candidate set, so the slot layout
            # is unchanged
            source = f"s{int(rng.integers(12))}"
            if source in ds.records_for(obj):
                continue
            candidates = ds.candidates(obj)
            ds.add_record(
                Record(obj, source, candidates[int(rng.integers(len(candidates)))])
            )
        if step % 10 == 9:
            col = ds.columnar()
            assert col._claimant_objects is not None  # spliced, not dropped
            _assert_index_equal(
                col.claimant_objects, ClaimantObjectsIndex.build(ColumnarClaims(ds))
            )
    col = ds.columnar()
    _assert_index_equal(
        col.claimant_objects, ClaimantObjectsIndex.build(ColumnarClaims(ds))
    )


# ---------------------------------------------------------------------------
# frontier expansion
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("hops", [0, 1, 2, 3])
def test_frontier_matches_brute_force_bfs(hops):
    ds = _sparse_heritages()
    col = ds.columnar()
    rng = np.random.default_rng(5)
    dirty = rng.choice(col.n_objects, size=4, replace=False)
    frontier = col.frontier(dirty, hops=hops)
    assert np.array_equal(frontier, _brute_frontier(col, dirty, hops))
    # sorted, unique, superset of the dirty set
    assert np.all(np.diff(frontier) > 0)
    assert set(int(d) for d in dirty) <= set(int(f) for f in frontier)


def test_frontier_monotone_in_hops_and_saturates_on_dense_data():
    sparse = _sparse_heritages().columnar()
    dirty = np.array([0, 7], dtype=np.int64)
    sizes = [len(sparse.frontier(dirty, hops=h)) for h in range(4)]
    assert sizes == sorted(sizes)
    assert sizes[0] == 2  # hops=0 is exactly the dirty set
    # BirthPlaces has two near-complete sources: one hop reaches everything
    dense = make_birthplaces(size=120, seed=7).columnar()
    assert len(dense.frontier(np.array([3]), hops=1)) == dense.n_objects


def test_frontier_view_gathers_the_global_rows():
    ds = _sparse_heritages()
    col = ds.columnar()
    frontier = col.frontier(np.array([2, 11, 40]), hops=1)
    fv = FrontierView(col, frontier)
    assert fv.n_slots == int(np.sum(col.sizes[frontier]))
    # slot/claim gathers match direct per-object slicing
    assert np.array_equal(fv.sizes, col.sizes[frontier])
    for local, oid in enumerate(frontier):
        lo, hi = fv.value_offsets[local], fv.value_offsets[local + 1]
        assert np.array_equal(
            fv.slot_ids[lo:hi],
            np.arange(col.value_offsets[oid], col.value_offsets[oid + 1]),
        )
    assert np.array_equal(
        fv.claim_claimant, col.claim_claimant[fv.claim_ids]
    )
    # local claim_slot points at the same candidate the global table does
    assert np.array_equal(
        fv.slot_ids[fv.claim_slot], col.claim_slot[fv.claim_ids]
    )
    # the pair gather shares the global tables' confusion-cell id space
    pairs = col.pairs
    assert np.array_equal(fv.cell_index, pairs.cell_index[fv.pair_rows])
    assert np.array_equal(fv.total_index, pairs.total_index[fv.pair_rows])
    assert np.array_equal(
        fv.slot_ids[fv.pair_slot], pairs.pair_slot[fv.pair_rows]
    )


def _grow_candidate_set(dataset, obj, source):
    """Append a record claiming a value outside ``Vo`` — slot growth
    *mid-layout* (the new slot lands at ``obj``'s Vo tail, shifting every
    later object's global slot ids)."""
    fresh = next(
        v
        for v in dataset.hierarchy.non_root_nodes()
        if v not in dataset.candidates(obj)
    )
    dataset.add_record(Record(obj, source, fresh))
    return fresh


def test_incremental_frontier_serves_answer_deltas():
    ds = _sparse_heritages()
    prev = ds.columnar()
    _add_random_answers(ds, 10, seed=3)
    plan = incremental_frontier(ds, prev)
    assert plan is not None
    assert not plan.grew  # answers never move the slot layout
    col, frontier, ops = plan.col, plan.frontier, plan.ops
    assert col is ds.columnar()
    touched = {op[1] for op in ops}
    assert {col.objects[i] for i in frontier} >= touched
    assert len(ops) == 10
    # another dataset's encoding is refused by the lineage guard
    foreign = _sparse_heritages().columnar()
    assert incremental_frontier(ds, foreign) is None
    # an in-place overwrite poisons the window -> cold fallback
    ds2 = _sparse_heritages()
    prev2 = ds2.columnar()
    obj = ds2.objects[0]
    source, old = next(iter(ds2.records_for(obj).items()))
    replacement = next(v for v in ds2.candidates(obj) if v != old)
    ds2.add_record(Record(obj, source, replacement))
    assert incremental_frontier(ds2, prev2) is None


def test_incremental_frontier_serves_mixed_record_and_answer_deltas():
    """Satellite regression: a window mixing answer appends with slot-growth
    record appends (a brand-new candidate value mid-layout AND a brand-new
    object at the tail) is servable — the dirty set is mapped through the
    *new* encoding (whose ids the old one has never seen) and deduped, and
    the plan's ``slot_map`` relocates every old slot into the grown layout."""
    ds = _sparse_heritages()
    prev = ds.columnar()
    obj = ds.objects[0]
    _grow_candidate_set(ds, obj, "growth-source")
    donor_value = ds.candidates(ds.objects[1])[0]
    ds.add_record(Record("brand-new-object", "growth-source-2", donor_value))
    # repeated touches of one object must collapse to one dirty id
    ds.add_answer(Answer(obj, "w0", ds.candidates(obj)[0]))
    ds.add_answer(Answer(obj, "w1", ds.candidates(obj)[0]))
    ds.add_answer(Answer("brand-new-object", "w0", donor_value))
    plan = incremental_frontier(ds, prev)
    assert plan is not None and plan.grew
    col, frontier, ops = plan.col, plan.frontier, plan.ops
    assert col is ds.columnar()
    assert len(ops) == 5
    # the new object's id only exists in the new encoding — mapping + dedupe
    new_oid = col.object_index["brand-new-object"]
    assert new_oid == col.n_objects - 1 == prev.n_objects
    dirty = {col.object_index[o] for o in {op[1] for op in ops}}
    assert dirty <= set(int(f) for f in frontier)
    # slot_map relocates *every* old slot, preserving each slot's value
    assert len(plan.slot_map) == prev.n_slots
    assert [col.values[v] for v in col.slot_vid[plan.slot_map]] == [
        prev.values[v] for v in prev.slot_vid
    ]
    # the mask marks exactly the slots that did not exist before, and
    # expand_slots scatters old per-slot state around them
    assert int(plan.new_slot_mask.sum()) == col.n_slots - prev.n_slots
    old_state = np.arange(prev.n_slots, dtype=np.float64)
    expanded = plan.expand_slots(old_state, fill=-1.0)
    assert np.array_equal(expanded[plan.slot_map], old_state)
    assert np.all(expanded[plan.new_slot_mask] == -1.0)


def test_frontier_state_reuse_across_overlapping_deltas():
    """Consecutive overlapping deltas — e.g. a known worker panel answering
    again — reuse the previous round's computed frontier instead of
    re-running the BFS, as long as the new dirty objects and their claimants
    are contained in it (a stored superset frontier is always sound)."""
    ds = _sparse_heritages()
    model = DawidSkene(max_iter=20, incremental=True)
    warm = model.fit(ds)
    obj, obj2 = ds.objects[0], ds.objects[1]
    ds.add_answer(Answer(obj, "w0", ds.candidates(obj)[0]))
    ds.add_answer(Answer(obj2, "w1", ds.candidates(obj2)[0]))
    inc = model.fit(ds, warm_start=warm)
    assert inc.frontier_size is not None
    state = inc.frontier_state
    assert state is not None and state["hops"] == 1
    held = ds.columnar()
    assert state["version"] == held.version
    # w0 — already a stored claimant via obj — now answers obj2, already in
    # the stored frontier: the delta is contained, so the stored frontier
    # is reused without a BFS.
    ds.add_answer(Answer(obj2, "w0", ds.candidates(obj2)[0]))
    plan = incremental_frontier(ds, held, reuse=state)
    assert plan is not None and plan.frontier_reused
    assert np.array_equal(plan.frontier, state["frontier"])
    # w1 — a stored claimant first seen on obj2 — answers the earlier obj.
    # Claimant ids never move, so the stored claimant ids stay valid and
    # the contained delta reuses the stored frontier as well.
    held_w1 = ds.columnar()
    ds.add_answer(Answer(obj, "w1", ds.candidates(obj)[0]))
    plan_w1 = incremental_frontier(ds, held_w1, reuse=plan.frontier_state)
    assert plan_w1 is not None and plan_w1.frontier_reused
    assert np.array_equal(plan_w1.frontier, state["frontier"])
    assert ds.columnar().claimants[: held_w1.n_claimants] == held_w1.claimants
    # an object outside the stored frontier forces a fresh BFS
    outside = next(
        o
        for o in ds.objects
        if ds.columnar().object_index[o]
        not in set(int(f) for f in state["frontier"])
    )
    held2 = ds.columnar()
    plan2_state = plan_w1.frontier_state
    ds.add_answer(Answer(outside, "w5", ds.candidates(outside)[0]))
    plan2 = incremental_frontier(ds, held2, reuse=plan2_state)
    assert plan2 is not None and not plan2.frontier_reused
    # end to end: the model threads the state through warm-started rounds
    inc2 = model.fit(ds, warm_start=inc)
    assert inc2.frontier_state is not None or inc2.frontier_size is None


# ---------------------------------------------------------------------------
# oplog cap edges (satellite: MAX_OPLOG off-by-one)
# ---------------------------------------------------------------------------
def _primed_birthplaces(cap):
    ds = make_birthplaces(size=40, seed=6)
    ds.MAX_OPLOG = cap  # per-instance override, class attr untouched
    held = ds.columnar()
    return ds, held


def test_oplog_window_servable_at_exactly_max_oplog():
    ds, held = _primed_birthplaces(cap=8)
    for i, obj in enumerate(ds.objects[:8]):
        ds.add_answer(Answer(obj, f"w{i}", ds.candidates(obj)[0]))
    assert len(ds._oplog) == 8  # at the cap, nothing trimmed
    delta = ds.dirty_objects_since(held.version)
    assert delta is not None and len(delta[1]) == 8
    plan = incremental_frontier(ds, held)
    assert plan is not None
    col = ds.columnar()
    assert col.n_claims == ColumnarClaims(ds).n_claims
    assert np.array_equal(col.claim_claimant, ColumnarClaims(ds).claim_claimant)


def test_oplog_window_unservable_at_max_oplog_plus_one():
    ds, held = _primed_birthplaces(cap=8)
    for i, obj in enumerate(ds.objects[:9]):
        ds.add_answer(Answer(obj, f"w{i}", ds.candidates(obj)[0]))
    assert len(ds._oplog) == 8  # the oldest op was trimmed away
    assert ds._oplog_base == held.version + 1
    assert ds._columnar is None  # the cached encoding was stranded
    assert ds.dirty_objects_since(held.version) is None
    assert incremental_frontier(ds, held) is None  # held window spans the trim
    # the cold rebuild still produces a correct encoding
    assert np.array_equal(
        ds.columnar().claim_claimant, ColumnarClaims(ds).claim_claimant
    )


def test_oplog_clear_by_overwrite_is_always_detected():
    """A held encoding whose window spans an overwrite-triggered log clear
    must be caught by the ``_oplog_base`` check regardless of how many ops
    follow the clear."""
    ds, held = _primed_birthplaces(cap=8)
    obj = next(o for o in ds.objects if len(ds.candidates(o)) >= 2)
    source, old = next(iter(ds.records_for(obj).items()))
    replacement = next(v for v in ds.candidates(obj) if v != old)
    ds.add_record(Record(obj, source, replacement))  # clears the log
    for i, obj2 in enumerate(o for o in ds.objects[:4] if o != obj):
        ds.add_answer(Answer(obj2, f"w{i}", ds.candidates(obj2)[0]))
    assert ds._oplog_base > held.version
    assert ds.dirty_objects_since(held.version) is None
    assert incremental_frontier(ds, held) is None


# ---------------------------------------------------------------------------
# warm-start gate (satellite: clones / unservable record windows degrade)
# ---------------------------------------------------------------------------
def test_warm_start_from_a_clone_degrades_to_cold_with_warning():
    # The serving layer counts these degradations structurally (the
    # ``WarmStartDegradation.reason`` attribute); the exact message is still
    # pinned here because logs and external tooling grep on the shared
    # ``WARM_START_DEGRADED_PREFIX``.
    ds = _sparse_heritages()
    model = DawidSkene(max_iter=20, incremental=True)
    warm = model.fit(ds)
    clone = ds.copy()
    expected = warm_start_degradation_message(
        "'heritages'",
        "it was fitted on a different dataset object (a clone?), so its"
        " claimant/slot keys cannot be trusted",
    )
    assert expected.startswith(WARM_START_DEGRADED_PREFIX)
    with pytest.warns(RuntimeWarning, match=f"^{re.escape(expected)}$") as caught:
        result = model.fit(clone, warm_start=warm)
    assert any(
        getattr(w.message, "reason", None) == "clone" for w in caught.list
    )
    assert result.frontier_size is None  # cold path, not the frontier fit
    cold = DawidSkene(max_iter=20).fit(ds.copy())
    assert _max_confidence_diff(result, cold, ds.objects) == 0.0


def test_warm_start_record_append_is_accepted_and_served_incrementally():
    """The cold-fallback cliff this PR removes: a record *append* (here one
    widening an object's candidate set) used to degrade the warm start to a
    cold fit. The gate now trusts append-only record windows and the
    frontier fit scatter-expands the warm per-slot state into the grown
    layout — no degradation warning, incremental service."""
    ds = _sparse_heritages()
    model = TDHModel(max_iter=15, incremental=True)
    warm = model.fit(ds)
    obj = ds.objects[0]
    _grow_candidate_set(ds, obj, "brand-new-source")
    ds.add_answer(Answer(obj, "w0", ds.candidates(obj)[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = model.fit(ds, warm_start=warm)
    assert result.frontier_size is not None  # the frontier path served it


def test_warm_start_after_record_overwrite_degrades_to_cold_with_warning():
    """What still degrades is a record window the oplog cannot vouch for —
    an in-place overwrite (or a window trimmed past the fit), which may have
    changed candidate sets in place."""
    ds = _sparse_heritages()
    model = TDHModel(max_iter=15, incremental=True)
    warm = model.fit(ds)
    fitted_at = warm.records_version
    obj = next(o for o in ds.objects if len(ds.candidates(o)) >= 2)
    source, old = next(iter(ds.records_for(obj).items()))
    replacement = next(v for v in ds.candidates(obj) if v != old)
    ds.add_record(Record(obj, source, replacement))  # in-place overwrite
    expected = warm_start_degradation_message(
        "'heritages'",
        f"it was fitted at records_version {fitted_at} but the record window"
        f" to the current records_version {ds.records_version} is not an"
        " append-only op log (an in-place overwrite, or a window trimmed"
        " past the fit), so candidate sets may have changed in place",
    )
    assert expected.startswith(WARM_START_DEGRADED_PREFIX)
    with pytest.warns(RuntimeWarning, match=f"^{re.escape(expected)}$") as caught:
        result = model.fit(ds, warm_start=warm)
    assert any(
        getattr(w.message, "reason", None) == "unservable-record-window"
        for w in caught.list
    )
    assert result.frontier_size is None


def test_unnamed_dataset_degradation_message_labels_it_unnamed():
    ds = _sparse_heritages()
    ds.name = ""
    model = TDHModel(max_iter=5, incremental=True)
    warm = model.fit(ds)
    with pytest.warns(
        RuntimeWarning,
        match=f"^{re.escape(WARM_START_DEGRADED_PREFIX)}<unnamed>: ",
    ):
        model.fit(ds.copy(), warm_start=warm)


# ---------------------------------------------------------------------------
# incremental-vs-cold parity (the tentpole's correctness contract)
# ---------------------------------------------------------------------------
def _parity_models():
    kw = dict(max_iter=60, tol=1e-7)
    return {
        # (model factory, truths must match, confidence tolerance); the
        # confidence bars bound the stored-state approximation drift over
        # chained rounds, truth equality is the hard contract
        "TDH": (lambda inc: TDHModel(incremental=inc, **kw), True, 2e-2),
        "DS": (lambda inc: DawidSkene(incremental=inc, **kw), True, 1e-5),
        "LFC": (lambda inc: Lfc(incremental=inc, **kw), True, 5e-2),
    }


@pytest.mark.parametrize("name", ["TDH", "DS", "LFC"])
@pytest.mark.parametrize("seed", [0, 1])
def test_incremental_tracks_cold_over_random_append_rounds(name, seed):
    """Property: chained incremental rounds (each warm-started from the
    previous incremental result) track a cold columnar fit on a mirrored
    dataset receiving the identical answer stream."""
    factory, truths_match, tol = _parity_models()[name]
    base = _sparse_heritages()
    ds = base.copy()
    mirror = base.copy()
    model = factory(True)
    cold_model = factory(False)
    warm = model.fit(ds)
    served_incrementally = 0
    for round_no in range(3):
        rng_seed = 100 * seed + round_no
        _add_random_answers(ds, 20, seed=rng_seed)
        _add_random_answers(mirror, 20, seed=rng_seed)
        warm = model.fit(ds, warm_start=warm)
        cold = cold_model.fit(mirror)
        if warm.frontier_size is not None:
            served_incrementally += 1
            assert warm.frontier_size < len(ds.objects)
        if truths_match:
            t_inc, t_cold = warm.truths(), cold.truths()
            assert all(t_inc[o] == t_cold[o] for o in ds.objects)
        assert _max_confidence_diff(warm, cold, ds.objects) < tol
    assert served_incrementally > 0  # the frontier path actually ran


def _add_mixed_delta(dataset, seed, n_answers=15):
    """One mixed crowd round: answer appends plus slot-growth record appends
    (brand-new candidate values mid-layout, one brand-new object at the
    tail). Deterministic in ``seed`` so a mirror receives the same stream."""
    _add_random_answers(dataset, n_answers, seed=seed)
    rng = np.random.default_rng(seed + 7)
    objects = dataset.objects
    for k in range(2):
        obj = objects[int(rng.integers(len(objects)))]
        fresh = next(
            (
                v
                for v in dataset.hierarchy.non_root_nodes()
                if v not in dataset.candidates(obj)
            ),
            None,
        )
        if fresh is not None:
            dataset.add_record(Record(obj, f"growth-src-{seed}-{k}", fresh))
    donor = objects[int(rng.integers(len(objects)))]
    dataset.add_record(
        Record(
            f"new-obj-{seed}", f"growth-src-{seed}-n", dataset.candidates(donor)[0]
        )
    )


@pytest.mark.parametrize("name", ["TDH", "DS", "LFC"])
@pytest.mark.parametrize("seed", [0, 1])
def test_incremental_tracks_cold_with_slot_growth(name, seed):
    """Property (the tentpole's contract): chained incremental rounds whose
    windows *grow the slot layout* — new objects and brand-new candidate
    values mixed with answers — still track a cold columnar fit on a
    mirrored dataset, without ever degrading the warm start."""
    factory, truths_match, tol = _parity_models()[name]
    base = _sparse_heritages()
    ds = base.copy()
    mirror = base.copy()
    model = factory(True)
    cold_model = factory(False)
    warm = model.fit(ds)
    served_incrementally = 0
    for round_no in range(3):
        rng_seed = 500 * seed + round_no
        _add_mixed_delta(ds, rng_seed)
        _add_mixed_delta(mirror, rng_seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warm = model.fit(ds, warm_start=warm)  # growth must not degrade
        cold = cold_model.fit(mirror)
        if warm.frontier_size is not None:
            served_incrementally += 1
            assert warm.frontier_size < len(ds.objects)
        # A brand-new candidate value widens the *global* value space (every
        # confusion row's smoothing denominator moves), so a clean object
        # frozen at its warm posterior can legitimately flip in the cold
        # mirror when it sits on a knife edge. The growth contract is
        # therefore parity up to a bounded handful of knife-edge objects,
        # not the per-object equality the answers-only suite holds.
        diffs = {
            o: float(np.max(np.abs(_normalized(warm, o) - _normalized(cold, o))))
            for o in ds.objects
        }
        off_tolerance = [o for o in ds.objects if diffs[o] >= tol]
        assert len(off_tolerance) <= 3, (off_tolerance, max(diffs.values()))
        if truths_match:
            t_inc, t_cold = warm.truths(), cold.truths()
            disagree = [o for o in ds.objects if t_inc[o] != t_cold[o]]
            assert len(disagree) <= 3, disagree
    assert served_incrementally > 0  # the frontier path actually ran


def _sparse_substrate(seed):
    """5,000 objects with 5 uniform claims each from 15,000 sources, so
    claimant degree stays ~O(1) and frontiers stay small — the serving
    substrate of ``perfbench/inputs.py:sparse_substrate``, rebuilt here."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hierarchy = make_geography(
        height=5, branching=(4, 6, 5, 4, 2), rng=rng, max_nodes=3000
    )
    truths = sample_truths(hierarchy, 5000, rng, min_depth=2)
    objects = [f"entity_{i}" for i in range(5000)]
    pool = _wrong_pool(hierarchy, rng)
    records = []
    for obj, truth in zip(objects, truths):
        misinformation = pool[int(rng.integers(len(pool)))]
        for idx in rng.choice(15000, size=5, replace=False):
            value = _claim_value(
                truth, hierarchy, (0.7, 0.2, 0.1), misinformation, pool, rng
            )
            records.append(Record(obj, f"src_{idx}", value))
    return TruthDiscoveryDataset(
        hierarchy, records, gold=dict(zip(objects, truths)), name="sparse5k"
    )


def _serving_batches(dataset, rng, n_batches, claim):
    """Apply ``n_batches`` batches of 64 writes in the serving benchmark's
    shape to ``dataset``, yielding after each batch. A write is an answer
    from a new worker on a uniformly drawn object (its gold truth w.p.
    0.7), except every 16th, which adds the record ``claim(obj, n)``."""
    objects = list(dataset.objects)
    for n in range(n_batches * 64):
        obj = objects[rng.integers(len(objects))]
        if n % 16 == 15:
            dataset.add_record(claim(obj, n))
        else:
            candidates = sorted(dataset.candidates(obj), key=str)
            gold = dataset.gold[obj]
            value = (
                gold
                if gold in candidates and rng.random() < 0.7
                else candidates[rng.integers(len(candidates))]
            )
            dataset.add_answer(Answer(obj, f"w_{n}", value))
        if n % 64 == 63:
            yield


def test_tdh_incremental_tracks_cold_when_claims_add_candidate_values():
    """80 batches of 64 writes, every 16th a claim adding a candidate value
    to an existing object, each batch one incremental fit as the service
    runs it. A grown object's ``|Vo|``, ``Go(v)`` and popularity
    denominators move, so the fit must subtract the frontier's old claims
    as the warm encoding evaluated them; re-evaluating them on the grown
    encoding left 10 of 5,000 objects apart from a cold fit on this seed,
    past the 0.999 agreement bar (5 objects) the serving benchmark gates."""
    seed = 4
    rng = np.random.default_rng(seed)
    dataset = _sparse_substrate(seed)
    nodes = list(dataset.hierarchy.non_root_nodes())

    def new_value(obj, n):  # a new source names a value new to the object
        value = next(
            nodes[i]
            for i in rng.permutation(len(nodes))
            if nodes[i] not in dataset.candidates(obj)
        )
        return Record(obj, f"new_src_{n}", value)

    model = TDHModel(incremental=True)
    result = model.fit(dataset)
    for _ in _serving_batches(dataset, rng, 80, new_value):
        result = model.fit(dataset, warm_start=result)
        assert result.frontier_size is not None  # served incrementally
    cold = TDHModel().fit(dataset.copy()).truths()
    served = result.truths()
    stale = [o for o, truth in cold.items() if served[o] != truth]
    assert len(stale) <= 5, stale


def test_tdh_incremental_em_evaluations_stay_bounded():
    """Work gate on the incremental loop: 20 serving batches (every 16th
    write a new source naming a new object), one incremental fit each. The
    evaluation count does not depend on the host's speed, only on its
    floating point. SQUAREM reads a p50 of 21.5 and a max of 31 E/M
    evaluations on this stream; plain EM read a p50 of 60, with one fit
    stopped at ``max_iter``."""
    seed = 4
    rng = np.random.default_rng(seed)
    dataset = _sparse_substrate(seed)
    nodes = list(dataset.hierarchy.non_root_nodes())

    def new_object(obj, n):
        return Record(f"new_obj_{n}", f"new_src_{n}", nodes[rng.integers(len(nodes))])

    model = TDHModel(incremental=True)
    result = model.fit(dataset)
    iterations = []
    for _ in _serving_batches(dataset, rng, 20, new_object):
        result = model.fit(dataset, warm_start=result)
        assert result.frontier_size is not None  # served incrementally
        assert result.converged and result.iterations < model.max_iter
        iterations.append(result.iterations)
    assert np.median(iterations) <= 36, iterations


@pytest.mark.parametrize("seed", [0, 1])
def test_zencrowd_incremental_accuracy_parity(seed):
    """ZenCrowd's Zipf-tail reliabilities are legitimately unstable under
    small deltas (1-2-claim sources swing by O(1/3) when one object flips),
    so the parity bar is accuracy-level, not per-confidence."""
    base = _sparse_heritages()
    ds, mirror = base.copy(), base.copy()
    model = ZenCrowd(max_iter=60, tol=1e-7, incremental=True)
    warm = model.fit(ds)
    _add_random_answers(ds, 30, seed=seed)
    _add_random_answers(mirror, 30, seed=seed)
    inc = model.fit(ds, warm_start=warm)
    cold = ZenCrowd(max_iter=60, tol=1e-7).fit(mirror)
    assert inc.frontier_size is not None
    t_inc, t_cold = inc.truths(), cold.truths()
    agreement = sum(t_inc[o] == t_cold[o] for o in ds.objects) / len(ds.objects)
    assert agreement >= 0.9
    acc_inc = evaluate(ds, t_inc).accuracy
    acc_cold = evaluate(mirror, t_cold).accuracy
    assert abs(acc_inc - acc_cold) <= 0.05


@pytest.mark.parametrize(
    "factory",
    [
        lambda inc: TDHModel(max_iter=25, incremental=inc),
        lambda inc: DawidSkene(max_iter=25, incremental=inc),
        lambda inc: ZenCrowd(max_iter=25, incremental=inc),
        lambda inc: Lfc(max_iter=25, incremental=inc),
    ],
    ids=["TDH", "DS", "ZENCROWD", "LFC"],
)
@pytest.mark.parametrize("grow", [False, True], ids=["answer-only", "slot-growth"])
def test_saturated_frontier_is_bitwise_exact(factory, grow):
    """BirthPlaces' near-complete sources make any 1-hop frontier the full
    object set: the incremental fit must delegate to the full columnar fit
    and reproduce it bitwise — including when the window also *grew the slot
    layout* (a record claiming a brand-new candidate value), which used to
    degrade the warm start before reaching the saturation check."""

    def build():
        ds = make_birthplaces(size=120, seed=7)
        return ds

    def append(dataset):
        obj = dataset.objects[5]
        if grow:
            _grow_candidate_set(dataset, obj, "late-source")
        dataset.add_answer(Answer(obj, "w0", dataset.candidates(obj)[0]))

    ds = build()
    model = factory(True)
    warm = model.fit(ds)
    append(ds)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        inc = model.fit(ds, warm_start=warm)
    assert inc.frontier_size is None  # saturation delegated to the full fit

    mirror = build()
    cold_model = factory(False)
    warm_mirror = cold_model.fit(mirror)
    append(mirror)
    if isinstance(inc, TDHResult):
        expected = cold_model.fit(mirror, warm_start=warm_mirror)
    else:
        expected = cold_model.fit(mirror)
    assert inc.iterations == expected.iterations
    for o in ds.objects:
        assert np.array_equal(inc.confidences[o], expected.confidences[o])


def test_tdh_incremental_reuses_and_patches_em_state():
    ds = _sparse_heritages()
    model = TDHModel(max_iter=40, tol=1e-6, incremental=True)
    warm = model.fit(ds)
    assert warm.em_state is not None and warm.columnar_state is not None
    _add_random_answers(ds, 15, seed=9)
    inc = model.fit(ds, warm_start=warm)
    assert inc.frontier_size is not None
    assert inc.em_state is not None  # chained rounds keep warm-starting
    assert inc.columnar_state is not None
    # the patched per-claimant case sums stay close to a cold fit's
    cold = TDHModel(max_iter=40, tol=1e-6).fit(ds)

    def sums_by_claimant(result):
        claimants = result.columnar_state[0].claimants
        return dict(zip(claimants, np.asarray(result.em_state["g_sums"])))

    g_inc = sums_by_claimant(inc)
    g_cold = sums_by_claimant(cold)
    assert set(g_inc) == set(g_cold)
    worst = max(float(np.max(np.abs(g_inc[k] - g_cold[k]))) for k in g_cold)
    assert worst < 0.5  # case-responsibility mass, claimant-level


def test_tdh_incremental_fits_never_build_the_pair_expansion():
    """An incremental TDH fit builds its frontier's pairs locally, so the
    encoding it runs on never builds the whole-corpus claim x candidate
    expansion, although the warm fit's encoding had built one: not after
    answers, not after a record naming a new object, not after a record
    adding a candidate value."""
    ds = _sparse_heritages()
    model = TDHModel(incremental=True)
    result = model.fit(ds)
    assert result.columnar_state[0]._pairs is not None  # the full fit's
    rng = np.random.default_rng(5)
    objects = list(ds.objects)
    for batch in range(9):
        obj = objects[int(rng.integers(len(objects)))]
        if batch % 3 == 0:
            for i in range(5):
                obj = objects[int(rng.integers(len(objects)))]
                cands = ds.candidates(obj)
                value = cands[int(rng.integers(len(cands)))]
                ds.add_answer(Answer(obj, f"fresh-w{batch}-{i}", value))
        elif batch % 3 == 1:
            ds.add_record(
                Record(f"new-obj-{batch}", f"new-src-{batch}", ds.candidates(obj)[0])
            )
        else:
            _grow_candidate_set(ds, obj, f"grow-src-{batch}")
        result = model.fit(ds, warm_start=result)
        assert result.frontier_size is not None  # served incrementally
        assert result.columnar_state[0]._pairs is None


def test_incremental_without_warm_or_disabled_is_cold():
    ds = _sparse_heritages()
    model = TDHModel(max_iter=15, incremental=True)
    result = model.fit(ds)  # no warm_start: plain cold fit
    assert result.frontier_size is None
    off = TDHModel(max_iter=15)
    warm = off.fit(ds)
    _add_random_answers(ds, 5, seed=1)
    result = off.fit(ds, warm_start=warm)  # knob off: warm but full EM
    assert result.frontier_size is None


def test_tdh_incremental_with_max_iter_zero_runs_the_full_fit():
    """With no evaluation allowed, the frontier's case sums would be stored
    with its old claims subtracted and no M-step run, and the next
    incremental fit would subtract them again. The full fit runs instead
    and, at ``max_iter=0``, stores no EM state to warm-start from."""
    ds = make_heritages(size=300, n_sources=900, seed=11)
    warm = TDHModel(incremental=True).fit(ds)
    obj = ds.objects[0]
    ds.add_answer(Answer(obj, "w-late", ds.candidates(obj)[0]))
    result = TDHModel(max_iter=0, incremental=True).fit(ds, warm_start=warm)
    assert result.frontier_size is None
    assert result.iterations == 0 and not result.converged
    assert result.em_state is None


def test_frontier_hops_knob_validates_and_widens():
    with pytest.raises(ValueError, match="frontier_hops"):
        TDHModel(frontier_hops=-1)
    ds = _sparse_heritages()
    model0 = TDHModel(
        max_iter=20, incremental=True, frontier_hops=0
    )
    warm = model0.fit(ds)
    _add_random_answers(ds, 8, seed=2)
    inc = model0.fit(ds, warm_start=warm)
    # hops=0 re-converges only the touched objects themselves
    assert inc.frontier_size is not None and inc.frontier_size <= 8


# ---------------------------------------------------------------------------
# the crowd loop end to end
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "factory",
    [
        lambda: TDHModel(max_iter=20, incremental=True),
        lambda: DawidSkene(max_iter=20, incremental=True),
    ],
    ids=["TDH", "DS"],
)
def test_simulator_threads_warm_starts_into_incremental_models(factory):
    from repro.assignment import MaxEntropyAssigner

    ds = make_heritages(size=60, n_sources=120, seed=11)
    simulator = CrowdSimulator(
        ds, factory(), MaxEntropyAssigner(), make_worker_pool(4, seed=3), seed=5
    )
    history = simulator.run(rounds=3, tasks_per_worker=3)
    assert len(history.records) == 4
    assert all(np.isfinite(r.accuracy) for r in history.records)
    assert history.final.answers_collected > 0


def test_cli_exposes_the_incremental_knob():
    from repro.experiments.__main__ import build_parser
    from repro.experiments.common import FAST, inference_factories

    args = build_parser().parse_args(["fig6", "--incremental"])
    assert args.incremental is True
    factories = inference_factories(FAST, incremental=True)
    for name in ("TDH", "LFC"):
        assert factories[name]().incremental is True
