"""Incremental appender parity: every encoding produced by catching up a
held :class:`ColumnarClaims` through :class:`ColumnarAppender` must be
**array-equal** to a cold ``ColumnarClaims(dataset)`` rebuild — decode
tables, claim/slot CSR, hierarchy CSR and Euler intervals included — under
arbitrary interleavings of ``add_record`` / ``add_answer`` / ``columnar()``.

Also covers the appender lifecycle around dataset clones: ``copy()`` carries
a fresh encoding forward (the satellite fix), clones diverge safely because
encodings are immutable snapshots, and appenders that outlive their dataset
or hold a foreign clone's encoding raise :class:`StaleEncodingError`.

Claimant ids belong to the dataset, which assigns each one at the
claimant's first claim: every later encoding's ``claimants`` extends every
earlier one's, cold rebuilds and clones included.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from oracles import EAIOracle, TDHOracle

from repro.assignment import EAIAssigner
from repro.crowd.simulator import CrowdSimulator
from repro.crowd.workers import make_worker_pool
from repro.data.columnar import ColumnarAppender, ColumnarClaims, StaleEncodingError
from repro.data.model import Answer, DatasetError, Record, TruthDiscoveryDataset
from repro.datasets import make_birthplaces
from repro.hierarchy.tree import Hierarchy
from repro.inference import TDHModel

ENCODING_ARRAYS = (
    "value_offsets",
    "claim_offsets",
    "slot_vid",
    "slot_obj",
    "claim_obj",
    "claim_claimant",
    "claim_pos",
    "claim_slot",
    "claim_vid",
    "claim_is_answer",
    "claimant_is_worker",
    "sizes",
    "_slot_anc_offsets",
    "_slot_anc_slots",
    "_obj_has_hierarchy",
)

HIERARCHY_ARRAYS = (
    "anc_offsets",
    "anc_vids",
    "desc_offsets",
    "desc_vids",
    "depth",
    "tin",
    "tout",
    "top_code",
    "slot_anc_offsets",
    "slot_anc_slots",
    "slot_gsize",
    "slot_desc_offsets",
    "slot_desc_slots",
    "obj_has_hierarchy",
    "slot_depth",
)


def assert_encodings_equal(incremental: ColumnarClaims, cold: ColumnarClaims) -> None:
    """Full structural equality, Euler intervals and hierarchy CSR included."""
    assert incremental.objects == cold.objects
    assert incremental.claimants == cold.claimants
    assert incremental.values == cold.values
    assert incremental.object_index == cold.object_index
    assert incremental.value_index == cold.value_index
    for name in ENCODING_ARRAYS:
        np.testing.assert_array_equal(
            getattr(incremental, name), getattr(cold, name), err_msg=name
        )
    inc_h, cold_h = incremental.hierarchy, cold.hierarchy
    for name in HIERARCHY_ARRAYS:
        np.testing.assert_array_equal(
            getattr(inc_h, name), getattr(cold_h, name), err_msg=f"hierarchy.{name}"
        )
    assert inc_h.top_values == cold_h.top_values
    assert inc_h.domains == cold_h.domains


def make_tree() -> Hierarchy:
    """A three-level tree with enough branches for ancestor-rich candidates."""
    tree = Hierarchy()
    for a in "ABC":
        tree.add_edge(a, tree.root)
        for b in range(3):
            mid = f"{a}{b}"
            tree.add_edge(mid, a)
            for c in range(2):
                tree.add_edge(f"{mid}{c}", mid)
    return tree


def tree_values(tree: Hierarchy) -> list:
    values = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for child in tree.children(node):
            values.append(child)
            stack.append(child)
    return sorted(values)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_interleavings_match_cold_rebuild(seed):
    """Property test: random add_record/add_answer/columnar() sequences keep
    the incrementally-maintained encoding array-equal to a cold rebuild at
    every checkpoint — including occasional in-place overwrites, which must
    fall back to a rebuild rather than corrupt the splice. Claimant ids never
    move: each checkpoint's claimant table extends the previous one's, across
    those rebuilds too."""
    rng = np.random.default_rng(seed)
    tree = make_tree()
    values = tree_values(tree)
    ds = TruthDiscoveryDataset(tree, [Record("o0", "s0", values[0])])
    claimants = ds.columnar().claimants  # prime the cache: appends are logged

    checkpoints = 0
    for step in range(150):
        roll = rng.random()
        objects = ds.objects
        if roll < 0.45:
            # a record: mostly existing objects, sometimes brand new ones
            if rng.random() < 0.75 or not objects:
                obj = f"o{int(rng.integers(0, len(objects) + 3))}"
            else:
                obj = objects[int(rng.integers(len(objects)))]
            source = f"s{int(rng.integers(0, 12))}"
            value = values[int(rng.integers(len(values)))]
            existing = ds.records_for(obj)
            if source in existing and existing[source] != value:
                # An in-place overwrite (exercises the rebuild fallback) —
                # but only when it cannot orphan an answer: a candidate value
                # may leave Vo, which the dataset model forbids answers to
                # outlive (the functional-predicate setting).
                old = existing[source]
                still_claimed = sum(1 for v in existing.values() if v == old) >= 2
                if not still_claimed and old in ds.answers_for(obj).values():
                    continue
            ds.add_record(Record(obj, source, value))
        elif roll < 0.80:
            obj = objects[int(rng.integers(len(objects)))]
            worker = f"w{int(rng.integers(0, 8))}"
            candidates = ds.candidates(obj)
            value = candidates[int(rng.integers(len(candidates)))]
            ds.add_answer(Answer(obj, worker, value))
        else:
            checkpoints += 1
            col = ds.columnar()
            assert_encodings_equal(col, ColumnarClaims(ds))
            assert col.claimants[: len(claimants)] == claimants
            claimants = col.claimants
    assert checkpoints > 0
    assert_encodings_equal(ds.columnar(), ColumnarClaims(ds))


def test_answers_only_append_carries_hierarchy_and_pairs():
    """The crowdsourcing hot path (answers only) must not rebuild any
    slot-level state: hierarchy view and candidate-pair expansion are carried
    by reference, and the Euler tour is never recomputed."""
    ds = make_birthplaces(size=80, seed=5)
    col = ds.columnar()
    hier = col.hierarchy
    pairs = col.slot_pairs
    for i, obj in enumerate(ds.objects[:15]):
        ds.add_answer(Answer(obj, f"w{i % 4}", ds.candidates(obj)[0]))
    appended = ds.columnar()
    assert appended is not col
    assert appended.hierarchy is hier
    assert appended.slot_pairs is pairs
    assert_encodings_equal(appended, ColumnarClaims(ds))


def test_slot_growth_reuses_euler_tour():
    """Adding a record with a new candidate rebuilds the hierarchy view, but
    the Euler tour is handed forward instead of re-touring the tree."""
    tree = make_tree()
    values = tree_values(tree)
    ds = TruthDiscoveryDataset(
        tree,
        [Record("o1", "s1", "A0"), Record("o1", "s2", "A"), Record("o2", "s1", "B0")],
    )
    old_tour = ds.columnar().hierarchy._tour
    ds.add_record(Record("o1", "s3", "A00"))  # new candidate slot for o1
    appended = ds.columnar()
    assert appended.hierarchy._tour[0] is old_tour[0]  # same tin map object
    assert_encodings_equal(appended, ColumnarClaims(ds))
    assert values  # the helper stays exercised


def _overwrite_a_record(ds):
    """An in-place overwrite that orphans no answer (poisons the oplog)."""
    obj, source, value = next(
        (o, s, v)
        for o in ds.objects
        if len(ds.candidates(o)) >= 2
        for s in ds.sources_of(o)
        for v in ds.candidates(o)
        if v != ds.records_for(o)[s]
        and sum(1 for u in ds.records_for(o).values() if u == ds.records_for(o)[s]) >= 2
    )
    ds.add_record(Record(obj, source, value))


def test_overwrite_falls_back_to_rebuild():
    ds = make_birthplaces(size=40, seed=2)
    ds.columnar()
    _overwrite_a_record(ds)
    assert ds._ops_since(ds._version - 1) is None  # poisoned window
    assert_encodings_equal(ds.columnar(), ColumnarClaims(ds))


def test_identical_overwrite_is_a_noop_restamp():
    ds = make_birthplaces(size=30, seed=4)
    col = ds.columnar()
    obj = ds.objects[0]
    source = ds.sources_of(obj)[0]
    ds.add_record(Record(obj, source, ds.records_for(obj)[source]))  # same value
    restamped = ds.columnar()
    assert restamped.version == ds._version
    assert restamped.claim_obj is col.claim_obj  # arrays shared, not rebuilt
    assert_encodings_equal(restamped, ColumnarClaims(ds))


def test_oplog_cap_drops_stranded_encodings(monkeypatch):
    monkeypatch.setattr(TruthDiscoveryDataset, "MAX_OPLOG", 8)
    ds = make_birthplaces(size=30, seed=6)
    ds.columnar()
    for i, obj in enumerate(ds.objects[:12]):  # overflow the tiny log
        ds.add_answer(Answer(obj, f"w{i}", ds.candidates(obj)[0]))
    assert ds._columnar is None  # stranded behind the trimmed window
    assert len(ds._oplog) == 8
    assert_encodings_equal(ds.columnar(), ColumnarClaims(ds))


def _overflow_the_oplog(ds):
    """More appends than the (patched, tiny) oplog cap holds."""
    for i, obj in enumerate(ds.objects[:12]):
        ds.add_answer(Answer(obj, f"w_fill{i}", ds.candidates(obj)[0]))


@pytest.mark.parametrize("force_rebuild", [_overwrite_a_record, _overflow_the_oplog])
def test_claimant_ids_survive_cold_rebuilds(monkeypatch, force_rebuild):
    """A worker's id is fixed by its first answer, not by the object it
    answered: a late worker on the first object keeps the tail id it got,
    through the cold rebuild an overwrite or a MAX_OPLOG trim forces."""
    monkeypatch.setattr(TruthDiscoveryDataset, "MAX_OPLOG", 8)
    ds = make_birthplaces(size=40, seed=6)
    last, first = ds.objects[-1], ds.objects[0]
    ds.add_answer(Answer(last, "w_early", ds.candidates(last)[0]))
    before = ds.columnar().claimants
    ds.add_answer(Answer(first, "w_late", ds.candidates(first)[0]))
    assert ds.columnar().claimants == before + [("worker", "w_late")]
    extended = ds.columnar().claimants
    force_rebuild(ds)
    assert ds._columnar is None  # the next encoding is a cold build
    rebuilt = ds.columnar()
    assert rebuilt.claimants[: len(extended)] == extended
    assert_encodings_equal(rebuilt, ColumnarClaims(ds))


def test_copy_keeps_the_claimant_table():
    ds = make_birthplaces(size=40, seed=8)
    ds.add_answer(Answer(ds.objects[-1], "w0", ds.candidates(ds.objects[-1])[0]))
    ds.add_record(Record(ds.objects[0], "late_source", ds.candidates(ds.objects[0])[0]))
    col = ds.columnar()
    assert col.claimants[-2:] == [("worker", "w0"), "late_source"]
    assert ds.copy().columnar().claimants == col.claimants
    # without the answers only the sources remain, in their order, densely
    sources_only = ds.copy(include_answers=False).columnar()
    assert sources_only.claimants == [c for c in col.claimants if c != ("worker", "w0")]
    assert not sources_only.claimant_is_worker.any()


def test_rejected_answer_registers_no_claimant():
    ds = make_birthplaces(size=30, seed=4)
    before = ds.columnar().claimants
    obj = ds.objects[0]
    outside = next(
        v for v in ds.hierarchy.non_root_nodes() if v not in ds.candidates(obj)
    )
    with pytest.raises(DatasetError):
        ds.add_answer(Answer(obj, "w_rejected", outside))
    assert ("worker", "w_rejected") not in ds._claimant_ids
    assert ds.columnar().claimants == before
    ds.add_answer(Answer(obj, "w_next", ds.candidates(obj)[0]))
    assert ds.columnar().claimants == before + [("worker", "w_next")]
    assert_encodings_equal(ds.columnar(), ColumnarClaims(ds))


# ---------------------------------------------------------------------------
# ColumnarAppender lifecycle
# ---------------------------------------------------------------------------
def test_appender_refresh_api():
    ds = make_birthplaces(size=50, seed=3)
    appender = ColumnarAppender(ds)
    first = appender.claims
    assert appender.refresh() is first  # already fresh: no work
    ds.add_answer(Answer(ds.objects[0], "w0", ds.candidates(ds.objects[0])[0]))
    refreshed = appender.refresh()
    assert refreshed is not first
    assert refreshed.version == ds._version
    assert_encodings_equal(refreshed, ColumnarClaims(ds))


def test_appender_outliving_its_dataset_clone_raises():
    ds = make_birthplaces(size=30, seed=1)
    clone = ds.copy()
    appender = ColumnarAppender(clone)
    del clone
    gc.collect()
    with pytest.raises(StaleEncodingError, match="outlived"):
        appender.refresh()
    # the original dataset is untouched by the clone's death
    assert_encodings_equal(ds.columnar(), ColumnarClaims(ds))


def test_appender_with_a_foreign_clones_encoding_raises():
    """An encoding that ran ahead on a clone cannot be refreshed against the
    original dataset — the lineage mismatch is detected, not spliced."""
    ds = make_birthplaces(size=30, seed=1)
    ds.columnar()
    clone = ds.copy()
    clone.add_answer(Answer(clone.objects[0], "w0", clone.candidates(clone.objects[0])[0]))
    ahead = clone.columnar()
    appender = ColumnarAppender(ds, claims=ahead)
    with pytest.raises(StaleEncodingError, match="different"):
        appender.refresh()


def test_appender_rejects_diverged_sibling_at_equal_version():
    """copy() stamps the clone with the parent's version counter, so sibling
    datasets that each mutate once have *coinciding* versions over *diverged*
    claims — the lineage token, not the counter, must catch the swap."""
    ds = make_birthplaces(size=30, seed=1)
    ds.columnar()
    clone = ds.copy()
    clone.add_answer(Answer(clone.objects[0], "wA", clone.candidates(clone.objects[0])[0]))
    ds.add_answer(Answer(ds.objects[1], "wB", ds.candidates(ds.objects[1])[0]))
    foreign = clone.columnar()
    assert foreign.version == ds._version  # counters coincide, claims differ
    appender = ColumnarAppender(ds, claims=foreign)
    with pytest.raises(StaleEncodingError, match="different"):
        appender.refresh()
    # a behind-by-one foreign encoding must not be spliced either
    clone2 = ds.copy()
    clone2.add_answer(Answer(clone2.objects[2], "wC", clone2.candidates(clone2.objects[2])[0]))
    ds.add_answer(Answer(ds.objects[3], "wD", ds.candidates(ds.objects[3])[0]))
    ds.add_answer(Answer(ds.objects[4], "wE", ds.candidates(ds.objects[4])[0]))
    behind = clone2.columnar()
    assert behind.version < ds._version
    with pytest.raises(StaleEncodingError, match="different"):
        ColumnarAppender(ds, claims=behind).refresh()
    # the carried snapshot itself (pre-divergence) remains accepted
    current = ds.columnar()
    shared = ds.copy().columnar()
    assert shared is current  # carried forward, same snapshot object
    assert ColumnarAppender(ds, claims=shared).refresh() is current


# ---------------------------------------------------------------------------
# copy() carry-forward (the satellite fix) and clone divergence safety
# ---------------------------------------------------------------------------
def test_copy_carries_fresh_encoding_forward():
    ds = make_birthplaces(size=40, seed=8)
    col = ds.columnar()
    clone = ds.copy()
    assert clone.columnar() is col  # no rebuild: versions matched
    # CrowdSimulator copies its input — the carried encoding reaches it too
    sim = CrowdSimulator(
        ds,
        TDHModel(max_iter=5),
        EAIAssigner(),
        make_worker_pool(3, seed=1),
        seed=0,
    )
    assert sim.dataset.columnar() is col


def test_copy_without_answers_does_not_carry():
    ds = make_birthplaces(size=40, seed=8)
    for i, obj in enumerate(ds.objects[:5]):
        ds.add_answer(Answer(obj, f"w{i}", ds.candidates(obj)[0]))
    col = ds.columnar()
    clone = ds.copy(include_answers=False)
    fresh = clone.columnar()
    assert fresh is not col
    assert fresh.n_claims == col.n_claims - 5


def test_copy_with_stale_cache_does_not_carry():
    ds = make_birthplaces(size=40, seed=8)
    col = ds.columnar()
    ds.add_answer(Answer(ds.objects[0], "w0", ds.candidates(ds.objects[0])[0]))
    clone = ds.copy()  # cache is one version behind: not carried
    assert clone._columnar is None
    assert_encodings_equal(clone.columnar(), ColumnarClaims(clone))
    assert col.n_claims + 1 == clone.columnar().n_claims


def test_clone_divergence_never_corrupts_the_parent():
    """Encodings are immutable snapshots: after the clone appends, the parent
    still serves its own (identical-content) encoding and both sides stay
    array-equal to their cold rebuilds."""
    ds = make_birthplaces(size=40, seed=9)
    col = ds.columnar()
    clone = ds.copy()
    obj = clone.objects[0]
    clone.add_answer(Answer(obj, "w_clone", clone.candidates(obj)[0]))
    clone_col = clone.columnar()
    assert clone_col is not col
    assert ds.columnar() is col  # parent cache untouched
    assert_encodings_equal(ds.columnar(), ColumnarClaims(ds))
    assert_encodings_equal(clone_col, ColumnarClaims(clone))
    # shared buffers were not mutated: the parent's claim table kept its size
    assert col.n_claims + 1 == clone_col.n_claims


# ---------------------------------------------------------------------------
# end-to-end crowd-loop regression against the dict-loop oracles (pinned seeds)
# ---------------------------------------------------------------------------
def _run_crowd(model_cls, assigner_cls):
    dataset = make_birthplaces(size=300, seed=7)
    model = model_cls(max_iter=20, tol=1e-4)
    assigner = assigner_cls()
    panel = make_worker_pool(6, pi_p=0.75, seed=3)
    simulator = CrowdSimulator(
        dataset, model, assigner, panel, rng=np.random.default_rng(11)
    )
    history = simulator.run(rounds=3, tasks_per_worker=5)
    return simulator, history


def test_crowd_loop_engines_agree_exactly():
    """N simulator rounds of TDHModel + EAIAssigner reproduce the dict-loop
    oracles' (TDHOracle + EAIOracle) assignment sequences, per-round metrics
    and final truths exactly (pinned ``numpy.random.Generator`` seed)."""
    sim_col, hist_col = _run_crowd(TDHModel, EAIAssigner)
    sim_ref, hist_ref = _run_crowd(TDHOracle, EAIOracle)
    assert sim_col.assignment_log == sim_ref.assignment_log
    assert sim_col._previous_result.truths() == sim_ref._previous_result.truths()
    for metric in ("accuracy", "gen_accuracy", "avg_distance"):
        assert hist_col.series(metric) == hist_ref.series(metric)
    # the loop really appended: the simulator's dataset gained the answers
    assert sim_col.dataset.num_answers == sum(
        len(tasks) for assignment in sim_col.assignment_log
        for tasks in assignment.values()
    )


# ---------------------------------------------------------------------------
# the pair expansion across appends
# ---------------------------------------------------------------------------
PAIR_ARRAYS = (
    "pair_claim",
    "pair_slot",
    "pair_size",
    "pair_is_claimed",
    "cells",
    "cell_index",
    "totals",
    "total_index",
)


def assert_pairs_equal(lazy, cold) -> None:
    """Every array equal, cell ids included: both sides are cold builds."""
    for name in PAIR_ARRAYS:
        np.testing.assert_array_equal(
            getattr(lazy, name), getattr(cold, name), err_msg=f"pairs.{name}"
        )
    assert lazy.n_cells == cold.n_cells
    assert lazy.n_totals == cold.n_totals


def test_version_stable_encoding_reuses_cached_expansion():
    """Satellite regression: fits with no mutation in between must reuse the
    cached claim x candidate expansion — same object."""
    ds = make_birthplaces(size=250, seed=7)
    col = ds.columnar()
    first = col.pairs
    assert ds.columnar() is col
    assert ds.columnar().pairs is first  # same encoding -> same expansion
    model = TDHModel(max_iter=3)
    model.fit(ds)
    model.fit(ds)  # back-to-back fits, no mutation
    assert ds.columnar().pairs is first


def _append_answers(ds):
    for i, obj in enumerate(ds.objects[10:60]):
        ds.add_answer(Answer(obj, f"w{i % 3}", ds.candidates(obj)[0]))


def _grow_first_object(ds):
    first_obj = ds.objects[0]
    tree_value = next(
        v for v in ds.hierarchy.non_root_nodes()
        if v not in ds.candidates(first_obj)
    )
    ds.add_record(Record(first_obj, ds.sources_of(first_obj)[0] + "_alt", tree_value))


def _add_object(ds):
    ds.add_record(Record("appended_object", "appended_source", ds.candidates(ds.objects[0])[0]))


@pytest.mark.parametrize(
    "append",
    [_append_answers, _grow_first_object, _add_object],
    ids=["answers", "new-candidate-value", "new-object"],
)
def test_appended_encoding_builds_its_own_pair_expansion(append):
    """The appender does not carry a built expansion forward: the appended
    encoding starts without one, and the one it builds on first access is
    a cold build, equal to a cold encoding's in every array."""
    ds = make_birthplaces(size=120, seed=7)
    col = ds.columnar()
    _ = col.pairs.cell_index  # layout and factorization both built
    append(ds)
    appended = ds.columnar()
    assert appended is not col
    assert appended._pairs is None
    assert_pairs_equal(appended.pairs, ColumnarClaims(ds).pairs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lazy_pair_expansion_matches_cold_under_random_interleavings(seed):
    """Property test: whatever interleaving of appends hits the encoding,
    the expansion it builds equals a cold encoding's at every checkpoint,
    whether the encoding was appended, restamped or, after an overwrite,
    rebuilt."""
    rng = np.random.default_rng(seed)
    tree = make_tree()
    values = tree_values(tree)
    ds = TruthDiscoveryDataset(tree, [Record("o0", "s0", values[0])])
    _ = ds.columnar().pairs
    for step in range(60):
        obj = f"o{int(rng.integers(8))}"
        roll = rng.random()
        if roll < 0.55 and obj in ds._records_by_object:
            cands = ds.candidates(obj)
            ds.add_answer(
                Answer(obj, f"w{int(rng.integers(4))}", cands[int(rng.integers(len(cands)))])
            )
        else:
            # Fresh source per step: a genuine append (an in-place overwrite
            # changing an existing source's value can strand earlier answers
            # outside Vo, which no encoding can express).
            ds.add_record(
                Record(obj, f"s{step}", values[int(rng.integers(len(values)))])
            )
        if rng.random() < 0.3:
            assert_pairs_equal(ds.columnar().pairs, ColumnarClaims(ds).pairs)
    assert_pairs_equal(ds.columnar().pairs, ColumnarClaims(ds).pairs)


def test_new_worker_on_first_object_appends_at_tail():
    """A brand-new worker answering the very first object takes the next id
    at the tail of the claimant table — no existing claimant moves."""
    ds = make_birthplaces(size=120, seed=7)
    col = ds.columnar()
    _ = col.pairs
    first_obj = ds.objects[0]
    ds.add_answer(Answer(first_obj, "brand_new_worker", ds.candidates(first_obj)[0]))
    appended = ds.columnar()
    assert appended.claimants == col.claimants + [("worker", "brand_new_worker")]
    assert_pairs_equal(appended.pairs, ColumnarClaims(ds).pairs)
