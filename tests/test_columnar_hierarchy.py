"""ColumnarHierarchy: the CSR-encoded hierarchy view behind the vectorized
hierarchy-aware algorithms (TDH, ASUMS, DOCS), plus the dataset-version
staleness contract of ``dataset.columnar()``.

Covers the tree shapes the CSR encoder must survive: single-node trees (root
only, and root plus one claimable value), hierarchy values that are never
claimed (absent from the encoding, so ancestor chains skip them), and the
multi-level numeric rounding bins of :mod:`repro.hierarchy.numeric`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assignment import EAIAssigner
from repro.data.columnar import StaleEncodingError
from repro.data.model import Answer, DatasetError, Record, TruthDiscoveryDataset
from repro.datasets import claims_to_dataset, make_heritages
from repro.inference import TDHModel
from repro.hierarchy.numeric import build_numeric_hierarchy, rounding_chain
from repro.hierarchy.tree import Hierarchy


def make_geo_hierarchy() -> Hierarchy:
    h = Hierarchy()
    h.add_path(["USA", "California", "LA"])
    h.add_path(["USA", "NY", "NYC"])
    h.add_path(["UK", "London"])
    return h


# ---------------------------------------------------------------------------
# tree-shape edge cases
# ---------------------------------------------------------------------------
def test_root_only_hierarchy_rejects_all_claims():
    """A single-node tree has no claimable values — the dataset refuses every
    claim, so the encoder only ever sees it empty."""
    h = Hierarchy()
    ds = TruthDiscoveryDataset(h, [])
    with pytest.raises(DatasetError):
        ds.add_record(Record("o", "s", h.root))
    col = ds.columnar()
    hier = col.hierarchy
    assert col.n_objects == col.n_slots == col.n_claims == 0
    assert hier.n_values == 0
    assert len(hier.anc_vids) == 0 and len(hier.slot_anc_slots) == 0


def test_single_value_hierarchy():
    """Root plus one claimable value: every CSR segment is empty, no object
    is in OH, and the value is its own depth-1 domain."""
    h = Hierarchy()
    h.add_edge("only", h.root)
    ds = TruthDiscoveryDataset(h, [Record("o", s, "only") for s in "ab"])
    hier = ds.columnar().hierarchy
    assert hier.n_values == 1
    assert list(hier.ancestors_of_vid(0)) == []
    assert list(hier.descendants_of_vid(0)) == []
    assert list(hier.ancestors_of_slot(0)) == []
    assert hier.slot_gsize.tolist() == [0]
    assert not hier.obj_has_hierarchy[0]
    assert hier.top_values[0] == "only"
    assert hier.depth[0] == 1


def test_value_absent_from_hierarchy_is_rejected():
    h = make_geo_hierarchy()
    ds = TruthDiscoveryDataset(h, [Record("o", "s", "LA")])
    with pytest.raises(DatasetError):
        ds.add_record(Record("o", "s2", "Atlantis"))


def test_unclaimed_intermediate_values_are_skipped_in_value_csr():
    """"California" sits between "LA" and "USA" in the tree but is never
    claimed: the value-level ancestor CSR (keyed by the claim table's value
    ids) must skip it while keeping nearest-first order."""
    h = make_geo_hierarchy()
    ds = TruthDiscoveryDataset(
        h, [Record("o", "s1", "LA"), Record("o", "s2", "USA")]
    )
    col = ds.columnar()
    hier = col.hierarchy
    la, usa = col.value_index["LA"], col.value_index["USA"]
    assert list(hier.ancestors_of_vid(la)) == [usa]  # California absent
    assert list(hier.descendants_of_vid(usa)) == [la]
    # The slot-level Go(v) inside Vo agrees with the object context.
    assert list(hier.ancestors_of_slot(0)) == [1]  # LA's slot -> USA's slot
    assert hier.obj_has_hierarchy[0]
    # Euler test still sees the full tree: USA is an ancestor of LA even
    # though the intermediate node is unencoded.
    assert hier.is_ancestor_vid(np.array([usa]), np.array([la])).tolist() == [True]
    assert hier.is_ancestor_vid(np.array([la]), np.array([usa])).tolist() == [False]


def test_sibling_subtrees_are_not_ancestors():
    h = make_geo_hierarchy()
    ds = TruthDiscoveryDataset(
        h,
        [
            Record("o", "s1", "LA"),
            Record("o", "s2", "NYC"),
            Record("o", "s3", "London"),
        ],
    )
    col = ds.columnar()
    hier = col.hierarchy
    la = col.value_index["LA"]
    nyc = col.value_index["NYC"]
    london = col.value_index["London"]
    pairs = np.array([[la, nyc], [nyc, la], [la, london], [london, nyc]])
    assert not hier.is_ancestor_vid(pairs[:, 0], pairs[:, 1]).any()
    # No candidate ancestors within Vo either: the object is outside OH.
    assert hier.slot_gsize.tolist() == [0, 0, 0]
    assert not hier.obj_has_hierarchy[0]


def test_domain_codes_match_depth1_ancestors():
    h = make_geo_hierarchy()
    ds = TruthDiscoveryDataset(
        h,
        [
            Record("o1", "s1", "LA"),
            Record("o1", "s2", "California"),
            Record("o2", "s1", "London"),
            Record("o3", "s1", "UK"),
        ],
    )
    col = ds.columnar()
    hier = col.hierarchy
    tops = {col.values[vid]: hier.top_values[vid] for vid in range(hier.n_values)}
    assert tops == {"LA": "USA", "California": "USA", "London": "UK", "UK": "UK"}
    # Dense codes are consistent with the decoded domain list.
    for vid in range(hier.n_values):
        assert hier.domains[hier.top_code[vid]] == hier.top_values[vid]


def test_numeric_rounding_bins_roundtrip():
    """Multi-level numeric bins: the CSR arrays must reproduce each claim's
    rounding chain (605.196 -> 605.2 -> 605 -> 610 -> 600) as its ancestor
    path, with depths decreasing along the chain."""
    values = [605.196, 605.2, 605.0, 610.0, 600.0, 98.3]
    hierarchy, canonical = build_numeric_hierarchy(values, max_digits=6)
    ds = TruthDiscoveryDataset(
        hierarchy,
        [Record("obj", f"s{i}", canonical[v]) for i, v in enumerate(values)],
    )
    col = ds.columnar()
    hier = col.hierarchy
    for raw in values:
        vid = col.value_index[canonical[raw]]
        chain = rounding_chain(raw, max_digits=6)
        expected = [col.value_index[a] for a in chain[1:] if a in col.value_index]
        assert list(hier.ancestors_of_vid(vid)) == expected
        depths = [hier.depth[vid], *(hier.depth[a] for a in expected)]
        assert depths == sorted(depths, reverse=True)
    assert hier.obj_has_hierarchy[0]
    # Slot-level Go(v) agrees with the context the dict engines use.
    ctx = ds.context("obj")
    for pos in range(ctx.size):
        assert [int(s) for s in hier.ancestors_of_slot(pos)] == ctx.ancestor_sets[pos]


def test_numeric_dataset_wrapper_encodes_hierarchy():
    claims = {
        "price": {"s1": 605.196, "s2": 605.2, "s3": 605.196, "s4": 599.0},
        "volume": {"s1": 1200.0, "s2": 1200.0, "s3": 1250.0},
    }
    ds = claims_to_dataset(claims, gold={"price": 605.196, "volume": 1200.0})
    col = ds.columnar()
    hier = col.hierarchy
    # Distinct canonical claims: {605.196, 605.2, 599.0} and {1200.0, 1250.0}.
    # The two objects share no values, so slots and value ids coincide.
    assert col.n_slots == 5
    assert hier.n_values == 5
    assert len(hier.slot_anc_offsets) == col.n_slots + 1


# ---------------------------------------------------------------------------
# staleness / version regression (the add_record/add_answer cache fix)
# ---------------------------------------------------------------------------
@pytest.fixture()
def geo_dataset():
    h = make_geo_hierarchy()
    return TruthDiscoveryDataset(
        h,
        [
            Record("o1", "s1", "LA"),
            Record("o1", "s2", "California"),
            Record("o2", "s1", "London"),
        ],
    )


def test_columnar_rebuilds_after_add_record(geo_dataset):
    ds = geo_dataset
    stale = ds.columnar()
    assert ds.columnar() is stale  # cached while unchanged
    ds.add_record(Record("o3", "s2", "NYC"))
    fresh = ds.columnar()
    assert fresh is not stale
    assert fresh.n_claims == stale.n_claims + 1
    assert fresh.n_objects == stale.n_objects + 1


def test_columnar_rebuilds_after_add_answer(geo_dataset):
    ds = geo_dataset
    stale = ds.columnar()
    ds.add_answer(Answer("o1", "w1", "LA"))
    fresh = ds.columnar()
    assert fresh is not stale
    assert fresh.n_claims == stale.n_claims + 1
    assert fresh.claim_is_answer.sum() == 1
    assert fresh.claimant_is_worker.sum() == 1


def test_stale_encoding_raises_on_assert_fresh(geo_dataset):
    ds = geo_dataset
    held = ds.columnar()
    held.assert_fresh(ds)  # fresh encoding passes
    ds.add_answer(Answer("o1", "w1", "California"))
    with pytest.raises(StaleEncodingError, match="re-fetch"):
        held.assert_fresh(ds)
    ds.columnar().assert_fresh(ds)  # the rebuilt encoding is fresh again


def test_overwriting_record_invalidates_encoding(geo_dataset):
    """Overwriting an existing (object, source) claim changes claim_pos even
    though claim counts stay constant — the version stamp must catch it."""
    ds = geo_dataset
    stale = ds.columnar()
    ds.add_record(Record("o1", "s2", "LA"))  # s2 changes its mind
    fresh = ds.columnar()
    assert fresh is not stale
    assert fresh.n_claims == stale.n_claims
    with pytest.raises(StaleEncodingError):
        stale.assert_fresh(ds)


# ---------------------------------------------------------------------------
# first-access tables
# ---------------------------------------------------------------------------
#: One table from each group the view builds on first access.
FIRST_ACCESS_TABLES = ("anc_vids", "top_code", "slot_desc_slots")


def test_tdh_fits_and_eai_never_build_the_value_level_tables():
    """TDH, its incremental fit and EAI read only the Euler intervals and the
    slot-level Go(v) CSR; the value-level tables wait for DOCS/ASUMS."""

    def built(result):
        hier = result.columnar_state[0].hierarchy
        return [name for name in FIRST_ACCESS_TABLES if name in vars(hier)]

    ds = make_heritages(size=160, n_sources=350, seed=11)
    model = TDHModel(incremental=True)
    warm = model.fit(ds)
    assert built(warm) == []

    # A record adding a candidate value moves the slot layout, so the
    # appended encoding builds a fresh hierarchy view.
    obj = ds.objects[0]
    fresh = next(v for v in ds.hierarchy.non_root_nodes() if v not in ds.candidates(obj))
    ds.add_record(Record(obj, "late-source", fresh))
    result = model.fit(ds, warm_start=warm)
    assert result.frontier_size is not None
    assert result.columnar_state[0].hierarchy is not warm.columnar_state[0].hierarchy
    assert built(result) == []

    EAIAssigner().assign(ds, result, ["w0", "w1"], 3)
    assert built(result) == []

    hier = result.columnar_state[0].hierarchy
    assert len(hier.top_code) == hier.n_values  # built on first access
    assert built(result) == ["anc_vids", "top_code"]
