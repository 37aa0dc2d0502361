"""Structural tests for the columnar claim encoding itself: round-tripping,
CSR invariants, segment primitives, the pair expansion, and cache behaviour
on the dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.columnar import ColumnarClaims, PairExpansion
from repro.assignment import EAIAssigner
from repro.data.model import Answer, Record
from repro.datasets import make_heritages
from repro.inference import DawidSkene, TDHModel


@pytest.fixture()
def dataset(table1_dataset):
    ds = table1_dataset.copy()
    ds.add_answer(Answer("Statue of Liberty", "w1", "Liberty Island"))
    ds.add_answer(Answer("Big Ben", "w1", "London"))
    ds.add_answer(Answer("Big Ben", "w2", "Westminster"))
    return ds


def test_encoding_round_trips_claims(dataset):
    col = dataset.columnar()
    assert col.objects == dataset.objects
    assert col.n_claims == dataset.num_records + dataset.num_answers

    # Rebuild (object, claimant, value) triples from the arrays and compare
    # with the dict representation.
    decoded = set()
    for j in range(col.n_claims):
        obj = col.objects[int(col.claim_obj[j])]
        claimant = col.claimants[int(col.claim_claimant[j])]
        value = col.values[int(col.claim_vid[j])]
        decoded.add((obj, claimant, value))
    expected = set()
    for record in dataset.iter_records():
        expected.add((record.object, record.source, record.value))
    for answer in dataset.iter_answers():
        expected.add((answer.object, ("worker", answer.worker), answer.value))
    assert decoded == expected


def test_csr_slices_match_contexts(dataset):
    col = dataset.columnar()
    for oid, obj in enumerate(col.objects):
        ctx = dataset.context(obj)
        start, end = int(col.value_offsets[oid]), int(col.value_offsets[oid + 1])
        assert end - start == ctx.size
        assert [col.values[int(v)] for v in col.slot_vid[start:end]] == ctx.values
        n_claims = len(dataset.records_for(obj)) + len(dataset.answers_for(obj))
        assert int(col.claim_offsets[oid + 1] - col.claim_offsets[oid]) == n_claims
    assert int(col.value_offsets[-1]) == col.n_slots
    assert np.all(col.claim_slot == col.value_offsets[col.claim_obj] + col.claim_pos)


def test_segment_primitives_match_loops(dataset):
    col = dataset.columnar()
    rng = np.random.default_rng(5)
    flat = rng.random(col.n_slots)
    norm = col.segment_normalize(flat)
    argmax = col.segment_argmax_slot(flat)
    soft = col.segment_softmax(np.log(flat))
    for oid in range(col.n_objects):
        start, end = int(col.value_offsets[oid]), int(col.value_offsets[oid + 1])
        seg = flat[start:end]
        np.testing.assert_allclose(norm[start:end], seg / seg.sum())
        assert int(argmax[oid]) == start + int(np.argmax(seg))
        np.testing.assert_allclose(soft[start:end], seg / seg.sum())


def test_segment_argmax_breaks_ties_to_first(dataset):
    col = dataset.columnar()
    flat = np.ones(col.n_slots)
    argmax = col.segment_argmax_slot(flat)
    assert np.all(argmax == col.value_offsets[:-1])


def test_segment_normalize_uniform_fallback(dataset):
    col = dataset.columnar()
    flat = np.zeros(col.n_slots)
    norm = col.segment_normalize(flat)
    np.testing.assert_allclose(norm, 1.0 / col.sizes[col.slot_obj])


def test_pair_expansion_shape(dataset):
    col = dataset.columnar()
    pairs = col.pairs
    assert col.pairs is pairs  # cached
    expected_rows = int(col.sizes[col.claim_obj].sum())
    assert len(pairs.pair_claim) == expected_rows
    assert len(pairs.pair_slot) == expected_rows
    # Each claim pairs with exactly its object's candidate slots, and exactly
    # one pair per claim hits the claimed slot.
    assert np.all(col.claim_obj[pairs.pair_claim] == col.slot_obj[pairs.pair_slot])
    assert int(pairs.pair_is_claimed.sum()) == col.n_claims
    assert pairs.n_cells <= expected_rows
    assert pairs.n_totals <= pairs.n_cells


def test_pair_factorization_is_built_on_first_access(dataset):
    """TDH reads only the pair layout, so its fit leaves the confusion-cell
    factorization unbuilt; a Dawid-Skene fit builds all of it, equal to a
    fresh expansion's."""
    factorization = ("cells", "cell_index", "totals", "total_index")
    TDHModel().fit(dataset)
    col = dataset.columnar()
    assert col._pairs is not None
    assert not set(factorization) & set(vars(col.pairs))
    # No reference back to the encoding: a col -> pairs -> col cycle would
    # keep superseded encodings alive until the cycle collector runs.
    assert not any(value is col for value in vars(col.pairs).values())
    DawidSkene().fit(dataset)
    assert dataset.columnar() is col
    fresh = PairExpansion(col)
    for name in factorization:
        assert name in vars(col.pairs)
        np.testing.assert_array_equal(getattr(col.pairs, name), getattr(fresh, name))


def test_popularity_denominators_are_computed_once_per_encoding(monkeypatch):
    """An incremental fit after records landed computes the Pop2/Pop3
    denominators once, on the current encoding (the warm encoding kept the
    previous fit's). After answers only, neither the fit nor an EAI
    assignment on its result computes them: an answer moves neither the
    source counts nor the slot layout. The shared arrays are read-only."""
    ds = make_heritages(size=160, n_sources=350, seed=11)
    model = TDHModel(incremental=True)
    result = model.fit(ds)
    computed = []
    record_counts = ColumnarClaims.record_counts
    monkeypatch.setattr(
        ColumnarClaims,
        "record_counts",
        lambda col: computed.append(col) or record_counts(col),
    )
    obj = ds.objects[3]
    ds.add_record(Record("late-object", "late-source", ds.candidates(obj)[0]))
    ds.add_answer(Answer(obj, "w-late", ds.candidates(obj)[0]))
    result = model.fit(ds, warm_start=result)
    assert result.frontier_size is not None
    assert len(computed) == 1 and computed[0] is result.columnar_state[0]

    ds.add_answer(Answer(ds.objects[5], "w-later", ds.candidates(ds.objects[5])[0]))
    result = model.fit(ds, warm_start=result)
    assert result.frontier_size is not None
    EAIAssigner().assign(ds, result, ["w-new"], 2)
    assert len(computed) == 1

    carried = result.columnar_state[0].popularity_denominators()
    fresh = ColumnarClaims(ds).popularity_denominators()
    for arr, expected in zip(carried, fresh):
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, expected)


def test_cache_reuse_and_invalidation(dataset):
    col = dataset.columnar()
    assert dataset.columnar() is col
    dataset.add_answer(Answer("Niagara Falls", "w3", "NY"))
    rebuilt = dataset.columnar()
    assert rebuilt is not col
    assert rebuilt.n_claims == col.n_claims + 1
    dataset.add_record(Record("Niagara Falls", "new_source", "LA"))
    assert dataset.columnar().n_claims == col.n_claims + 2


def test_copy_carries_encoding_and_scaled_gets_fresh():
    """A claim-identical ``copy()`` shares the fresh encoding snapshot (no
    rebuild); ``scaled()`` re-ingests and must encode from scratch. Deeper
    carry-forward/divergence behaviour lives in tests/test_columnar_appender.py.
    """
    ds = make_heritages(size=40, n_sources=60, seed=11)
    col = ds.columnar()
    clone = ds.copy()
    assert clone.columnar() is col  # carried forward, versions match
    assert clone.columnar().n_claims == col.n_claims
    scaled = ds.scaled(3)
    assert scaled.columnar().n_objects == 3 * col.n_objects


def test_standalone_build_matches_cached(dataset):
    direct = ColumnarClaims(dataset)
    cached = dataset.columnar()
    assert direct.objects == cached.objects
    assert np.array_equal(direct.claim_slot, cached.claim_slot)
    assert np.array_equal(direct.value_offsets, cached.value_offsets)
