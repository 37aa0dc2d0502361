"""Property-style parity: every production class (the columnar engine) must
reproduce its dict-loop oracle in ``tests/oracles.py`` — identical argmax
truths and confidences within 1e-8 — on every dataset family (synthetic
BirthPlaces/Heritages, the hand-built geography example, and the
numeric-hierarchy stock dataset), with and without worker answers in the
claim table."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    AccuOracle,
    AsumsOracle,
    CrhOracle,
    DawidSkeneOracle,
    DocsOracle,
    EAIOracle,
    GuessLcaOracle,
    LfcOracle,
    PopAccuOracle,
    QascaOracle,
    TDHOracle,
    VoteOracle,
    ZenCrowdOracle,
)

from repro.assignment import EAIAssigner, QascaAssigner
from repro.crowd.workers import make_worker_pool
from repro.data.columnar import StaleEncodingError
from repro.data.model import Answer, Record, TruthDiscoveryDataset
from repro.datasets import claims_to_dataset, make_birthplaces, make_heritages, make_stock_claims
from repro.inference import (
    Accu,
    Asums,
    Crh,
    DawidSkene,
    Docs,
    GuessLca,
    Lfc,
    LfcMT,
    NumericTdh,
    PopAccu,
    TDHModel,
    Vote,
    ZenCrowd,
)

def _pair(production, oracle, **kwargs):
    """Factory over one production class and its oracle:
    ``factory(True)`` builds the production engine, ``factory(False)`` the
    dict-loop oracle, both with the same settings."""
    return lambda columnar: (production if columnar else oracle)(**kwargs)


ALGORITHMS = {
    "VOTE": _pair(Vote, VoteOracle),
    "DS": _pair(DawidSkene, DawidSkeneOracle, max_iter=12),
    "ZENCROWD": _pair(ZenCrowd, ZenCrowdOracle, max_iter=12),
    "CRH": _pair(Crh, CrhOracle, max_iter=12),
    "TDH": _pair(TDHModel, TDHOracle, max_iter=12),
    "LFC": _pair(Lfc, LfcOracle, max_iter=12),
    "ACCU": _pair(Accu, AccuOracle, max_iter=12),
    "POPACCU": _pair(PopAccu, PopAccuOracle, max_iter=12),
    "LCA": _pair(GuessLca, GuessLcaOracle, max_iter=12),
    "DOCS": _pair(Docs, DocsOracle, max_iter=12),
    "ASUMS": _pair(Asums, AsumsOracle, max_iter=12),
}


def _with_answers(dataset, n_workers=5, per_worker=40, seed=0):
    """Fold simulated worker answers in so the encoding covers both claim kinds."""
    rng = np.random.default_rng(seed)
    objects = dataset.objects
    for worker in make_worker_pool(n_workers, seed=3):
        picks = rng.choice(len(objects), size=min(per_worker, len(objects)), replace=False)
        for i in picks:
            obj = objects[int(i)]
            dataset.add_answer(Answer(obj, worker.worker_id, worker.answer(dataset, obj, rng)))
    return dataset


def _make_stock():
    claims, gold = make_stock_claims("open_price", n_objects=150, n_sources=25, seed=23)
    return claims_to_dataset(claims, gold)


DATASETS = {
    "synthetic-birthplaces": lambda: _with_answers(make_birthplaces(size=300, seed=7)),
    "synthetic-heritages": lambda: make_heritages(size=120, n_sources=180, seed=11),
    "stock": _make_stock,
}


#: Wider candidate sets than DATASETS reach (|Vo| from 5 to 13), for the
#: EAI kernel: past 8 entries NumPy's pairwise summation changes its order.
WIDE_DATASETS = {
    "wide-heritages": lambda: _with_answers(
        make_heritages(size=150, n_sources=300, seed=2, mean_sources_per_object=40.0)
    ),
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def dataset(request):
    return {**DATASETS, **WIDE_DATASETS}[request.param]()


@pytest.mark.parametrize(
    "cls",
    [Vote, Crh, DawidSkene, ZenCrowd, Lfc, LfcMT, Accu, PopAccu, GuessLca, Docs,
     Asums, NumericTdh, EAIAssigner, QascaAssigner],
    ids=lambda cls: cls.__name__,
)
def test_use_columnar_is_rejected(cls):
    """One engine per class: only TDHModel still accepts the keyword (as
    ``True``; see ``tests/test_tdh.py``)."""
    with pytest.raises(TypeError):
        cls(use_columnar=True)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_columnar_matches_reference(dataset, algo):
    reference = ALGORITHMS[algo](False).fit(dataset)
    columnar = ALGORITHMS[algo](True).fit(dataset)

    assert columnar.iterations == reference.iterations
    assert columnar.converged == reference.converged
    assert columnar.truths() == reference.truths()
    for obj in dataset.objects:
        np.testing.assert_allclose(
            columnar.confidences[obj],
            reference.confidences[obj],
            atol=1e-8,
            rtol=0,
            err_msg=f"{algo} diverges on {obj!r}",
        )


def test_geography_example_parity(table1_dataset):
    """The paper's Table-1 geography example, ancestor-descendant candidates
    included, agrees across engines for every algorithm.

    Truths must match except on *exact posterior ties* (DOCS ties NY and
    Liberty Island here), where sub-tolerance float noise legitimately picks
    either side; for those the two chosen values' confidences must be equal
    within the parity tolerance."""
    for algo, factory in ALGORITHMS.items():
        reference = factory(False).fit(table1_dataset)
        columnar = factory(True).fit(table1_dataset)
        ref_truths, col_truths = reference.truths(), columnar.truths()
        for obj in table1_dataset.objects:
            np.testing.assert_allclose(
                columnar.confidences[obj], reference.confidences[obj], atol=1e-8, rtol=0
            )
            if ref_truths[obj] == col_truths[obj]:
                continue
            index = table1_dataset.context(obj).index
            gap = abs(
                reference.confidences[obj][index[ref_truths[obj]]]
                - reference.confidences[obj][index[col_truths[obj]]]
            )
            assert gap < 1e-8, f"{algo}: non-tied truths diverge on {obj!r}"


def test_zencrowd_reliability_parity(dataset):
    reference = ZenCrowdOracle(max_iter=8).fit(dataset)
    columnar = ZenCrowd(max_iter=8).fit(dataset)
    assert set(columnar.reliability) == set(reference.reliability)
    for claimant, value in reference.reliability.items():
        assert columnar.reliability[claimant] == pytest.approx(value, abs=1e-8)


def test_crh_source_weight_parity(dataset):
    reference = CrhOracle(max_iter=8).fit(dataset)
    columnar = Crh(max_iter=8).fit(dataset)
    assert set(columnar.source_weights) == set(reference.source_weights)
    for claimant, value in reference.source_weights.items():
        assert columnar.source_weights[claimant] == pytest.approx(value, abs=1e-8)


def test_tdh_em_state_parity(dataset):
    """TDH's full EM state — trustworthiness, Eq. (9) numerators and
    denominators — must agree between engines, because the EAI assigner's
    incremental EM (Section 4.2) consumes it."""
    reference = TDHOracle(max_iter=10).fit(dataset)
    columnar = TDHModel(max_iter=10).fit(dataset)
    assert set(columnar.phi) == set(reference.phi)
    assert set(columnar.psi) == set(reference.psi)
    for source, vec in reference.phi.items():
        np.testing.assert_allclose(columnar.phi[source], vec, atol=1e-8, rtol=0)
    for worker, vec in reference.psi.items():
        np.testing.assert_allclose(columnar.psi[worker], vec, atol=1e-8, rtol=0)
    for obj in dataset.objects:
        np.testing.assert_allclose(
            columnar.numerators[obj], reference.numerators[obj], atol=1e-8, rtol=0
        )
        assert columnar.denominators[obj] == pytest.approx(
            reference.denominators[obj], abs=1e-8
        )


@pytest.mark.parametrize(
    "flags",
    [
        {"use_hierarchy": False},
        {"use_popularity": False},
        {"collapse_flat_objects": False},
    ],
    ids=lambda f: next(iter(f)),
)
def test_tdh_ablation_parity(dataset, flags):
    """The ablation switches change the Eq. (1)-(4) case weights; both
    engines must realise the same ablated model."""
    reference = TDHOracle(max_iter=8, **flags).fit(dataset)
    columnar = TDHModel(max_iter=8, **flags).fit(dataset)
    assert columnar.iterations == reference.iterations
    assert columnar.truths() == reference.truths()
    for obj in dataset.objects:
        np.testing.assert_allclose(
            columnar.confidences[obj], reference.confidences[obj], atol=1e-8, rtol=0
        )


def _renumbered_twins():
    """Two claim-identical datasets whose claimant tables differ.

    Both hold the same objects, per-object claim order and answers; one
    inserts the records object-major and the other round-robin by claim
    rank, so the dataset numbers the sources in a different order.
    """
    base = _with_answers(make_birthplaces(size=300, seed=7))
    claims = [list(base.records_for(obj).items()) for obj in base.objects]
    object_major = TruthDiscoveryDataset(base.hierarchy, (), gold=base.gold)
    for obj, obj_claims in zip(base.objects, claims):
        for source, value in obj_claims:
            object_major.add_record(Record(obj, source, value))
    round_robin = TruthDiscoveryDataset(base.hierarchy, (), gold=base.gold)
    for rank in range(max(len(c) for c in claims)):
        for obj, obj_claims in zip(base.objects, claims):
            if rank < len(obj_claims):
                round_robin.add_record(Record(obj, *obj_claims[rank]))
    for twin in (object_major, round_robin):
        for answer in base.iter_answers():
            twin.add_answer(answer)
    return object_major, round_robin


@pytest.fixture(scope="module")
def renumbered_twins():
    return _renumbered_twins()


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_fits_do_not_depend_on_claimant_numbering(renumbered_twins, algo):
    """Claimant ids are the dataset's first-claim order, so claim-identical
    datasets built in a different order number their claimants differently.
    Every ported algorithm is bitwise invariant to that numbering except
    CRH, whose weight normalisation sums in claimant order."""
    first, second = renumbered_twins
    col_a, col_b = first.columnar(), second.columnar()
    assert col_a.claimants != col_b.claimants
    assert set(col_a.claimants) == set(col_b.claimants)
    assert col_a.objects == col_b.objects and col_a.values == col_b.values
    result_a = ALGORITHMS[algo](True).fit(first)
    result_b = ALGORITHMS[algo](True).fit(second)
    assert result_a.truths() == result_b.truths()
    assert result_a.iterations == result_b.iterations
    for obj in first.objects:
        conf_a = np.asarray(result_a.confidences[obj])
        conf_b = np.asarray(result_b.confidences[obj])
        if algo == "CRH":
            np.testing.assert_allclose(conf_a, conf_b, atol=1e-15, rtol=0)
        else:
            assert np.array_equal(conf_a, conf_b), f"{algo} moves on {obj!r}"


def test_docs_domain_parity(dataset):
    reference = DocsOracle(max_iter=8).fit(dataset)
    columnar = Docs(max_iter=8).fit(dataset)
    assert columnar.domains == reference.domains
    assert set(columnar.domain_accuracy) == set(reference.domain_accuracy)
    for key, value in reference.domain_accuracy.items():
        assert columnar.domain_accuracy[key] == pytest.approx(value, abs=1e-8)


def test_claimant_state_parity(dataset):
    """Per-claimant scalar state of the newly ported algorithms survives the
    engine swap: ACCU accuracies, LCA honesty, ASUMS trust."""
    cases = [
        (Accu, AccuOracle, "source_accuracy"),
        (GuessLca, GuessLcaOracle, "honesty"),
        (Asums, AsumsOracle, "trust"),
    ]
    for production, oracle, attr in cases:
        reference = getattr(oracle(max_iter=8).fit(dataset), attr)
        columnar = getattr(production(max_iter=8).fit(dataset), attr)
        assert set(columnar) == set(reference), attr
        for claimant, value in reference.items():
            assert columnar[claimant] == pytest.approx(value, abs=1e-8), attr


# ---------------------------------------------------------------------------
# EAI assignment: the columnar quality measure vs the ObjectStructure oracle
# ---------------------------------------------------------------------------
def _fit_tdh(dataset, columnar=True):
    return (TDHModel if columnar else TDHOracle)(max_iter=10, tol=1e-5).fit(dataset)


@pytest.mark.parametrize(
    "dataset", sorted(DATASETS) + sorted(WIDE_DATASETS), indirect=True
)
def test_eai_assignment_parity(dataset):
    """The assigner and its oracle produce identical assignments, identical
    pruning behaviour (evaluation counts) and bitwise-equal quality values
    for every object, every worker's psi and a never-seen worker's default
    psi, with and without pruning."""
    workers = [w.worker_id for w in make_worker_pool(6, seed=2)]
    result = _fit_tdh(dataset)
    for use_pruning in (True, False):
        reference = EAIOracle(use_pruning=use_pruning)
        columnar = EAIAssigner(use_pruning=use_pruning)
        assert reference.assign(dataset, result, workers, 5) == columnar.assign(
            dataset, result, workers, 5
        )
        assert reference.eai_evaluations == columnar.eai_evaluations
    psis = [result.worker_psi(w, reference.default_psi) for w in result.psi]
    psis.append(result.worker_psi("never_seen_worker", reference.default_psi))
    for psi in psis:
        for obj in dataset.objects:
            assert columnar.eai(result, obj, psi) == reference.eai(result, obj, psi)
    psi = psis[0]
    for obj in dataset.objects[:40]:
        for answer_pos in range(len(result.confidences[obj])):
            np.testing.assert_allclose(
                columnar.conditional_confidence(result, obj, psi, answer_pos),
                reference.conditional_confidence(result, obj, psi, answer_pos),
                atol=1e-8,
                rtol=0,
            )
        np.testing.assert_allclose(
            columnar.answer_distribution(result, obj, psi),
            reference.answer_distribution(result, obj, psi),
            atol=1e-8,
            rtol=0,
        )


def test_eai_parity_on_exact_score_ties():
    """Structurally identical objects have exactly tied EAI scores; the
    assigner and its oracle must break the tie the same way (insertion
    order), keeping the assignment sequences identical."""
    from repro.data.model import Record, TruthDiscoveryDataset
    from repro.hierarchy.tree import Hierarchy

    tree = Hierarchy()
    tree.add_path(["USA", "NY", "NYC"])
    tree.add_path(["USA", "LA"])
    records = []
    for i in range(6):  # six clones of the same conflict
        records += [
            Record(f"o{i}", "s1", "NYC"),
            Record(f"o{i}", "s2", "NY"),
            Record(f"o{i}", "s3", "LA"),
        ]
    dataset = TruthDiscoveryDataset(tree, records)
    result = _fit_tdh(dataset)
    reference = EAIOracle()
    columnar = EAIAssigner()
    a_ref = reference.assign(dataset, result, ["w0", "w1"], 2)
    a_col = columnar.assign(dataset, result, ["w0", "w1"], 2)
    assert a_ref == a_col
    # the scores really are exact ties across the cloned objects
    psi = result.worker_psi("w0", columnar.default_psi)
    scores = {obj: columnar.eai(result, obj, psi) for obj in dataset.objects}
    assert len(set(scores.values())) == 1


def test_eai_parity_zero_answer_objects_and_unseen_workers(dataset):
    """Datasets without a single worker answer exercise the default-psi path
    (psi falls back to the prior mean) in the assigner and its oracle."""
    from repro.data.model import TruthDiscoveryDataset

    records_only = TruthDiscoveryDataset(
        dataset.hierarchy, dataset.iter_records(), name="records-only"
    )
    result = _fit_tdh(records_only)
    assert not result.psi  # no workers anywhere in the claim table
    a_ref = EAIOracle().assign(records_only, result, ["fresh_w0", "fresh_w1"], 4)
    a_col = EAIAssigner().assign(records_only, result, ["fresh_w0", "fresh_w1"], 4)
    assert a_ref == a_col
    assert all(len(tasks) == 4 for tasks in a_col.values())


def test_eai_parity_heap_capacity_edges(dataset):
    """k = 0, k >= |O|, single worker, and a worker who answered everything:
    the heap bookkeeping edge cases agree with the oracle."""
    result = _fit_tdh(dataset)
    reference = EAIOracle()
    columnar = EAIAssigner()
    n = len(dataset.objects)
    for workers, k in ([["w0"], 0], [["w0"], n + 5], [["w0", "w1"], n], [["w0"], 1]):
        assert reference.assign(dataset, result, workers, k) == columnar.assign(
            dataset, result, workers, k
        )
    # a worker with every object answered gets nothing, on both sides
    saturated = dataset.copy()
    for obj in saturated.objects:
        saturated.add_answer(Answer(obj, "done_w", saturated.candidates(obj)[0]))
    result2 = _fit_tdh(saturated)
    a_ref = EAIOracle().assign(saturated, result2, ["done_w"], 3)
    a_col = EAIAssigner().assign(saturated, result2, ["done_w"], 3)
    assert a_ref == a_col == {"done_w": []}


def test_eai_refuses_stale_layout(dataset):
    """Records added between fit and assign change the slot layout; the
    assigner must raise rather than consume misaligned arrays — through
    ``assign`` and through a bare ``eai()`` on the result alike."""
    from repro.data.model import Record

    working = dataset.copy()
    result = _fit_tdh(working)
    working.add_record(Record("fresh_object", "s_new", working.hierarchy.children(working.hierarchy.root)[0]))
    with pytest.raises(StaleEncodingError, match="refit"):
        EAIAssigner().assign(working, result, ["w0", "w1"], 3)
    psi = result.worker_psi("w0", EAIAssigner().default_psi)
    with pytest.raises(StaleEncodingError, match="refit"):
        EAIAssigner().eai(result, working.objects[0], psi)


def test_eai_refuses_stale_popularity_counts(dataset):
    """A record whose value is an *existing* candidate changes neither the
    object list nor any candidate-set size — but it changes the Pop2/Pop3
    popularity counts, so the assigner must still refuse (the
    records_version stamp catches it)."""
    from repro.data.model import Record

    working = dataset.copy()
    result = _fit_tdh(working)
    obj = working.objects[0]
    working.add_record(Record(obj, "latecomer_src", working.candidates(obj)[0]))
    assert len(working.candidates(obj)) == len(result.confidences[obj])
    with pytest.raises(StaleEncodingError, match="refit"):
        EAIAssigner().assign(working, result, ["w0", "w1"], 3)


def test_eai_refuses_foreign_clone_results(dataset):
    """Mutation counters only order one dataset object's history — sibling
    clones can diverge while their counters coincide — so a result fit on a
    different dataset object is always refused."""
    original = dataset.copy()
    sibling = original.copy()
    result = _fit_tdh(original)
    with pytest.raises(StaleEncodingError, match="refit"):
        EAIAssigner().assign(sibling, result, ["w0"], 3)


def test_eai_refuses_results_without_columnar_state(dataset):
    """Only the oracle makes a TDH result without columnar state; the
    assigner raises on it rather than switch to a dict path."""
    result = _fit_tdh(dataset, columnar=False)
    assert result.columnar_state is None
    assigner = EAIAssigner()
    with pytest.raises(StaleEncodingError, match="refit"):
        assigner.assign(dataset, result, ["w0"], 3)
    with pytest.raises(StaleEncodingError, match="refit"):
        assigner.eai(result, dataset.objects[0], assigner.default_psi)


# ---------------------------------------------------------------------------
# QASCA assignment: the hoisted quality measure vs the per-evaluation oracle
# ---------------------------------------------------------------------------
def test_qasca_assignment_parity(dataset):
    """The assigner and its oracle draw the same samples and produce
    identical assignments, on a columnar TDH fit and on a TDHOracle fit
    alike."""
    workers = [w.worker_id for w in make_worker_pool(6, seed=2)]
    result = _fit_tdh(dataset)
    a_col = QascaAssigner(seed=5).assign(dataset, result, workers, 5)
    a_ref = QascaOracle(seed=5).assign(dataset, result, workers, 5)
    assert a_col == a_ref

    reference_fit = _fit_tdh(dataset, columnar=False)
    assert QascaAssigner(seed=5).assign(dataset, reference_fit, workers, 5) == QascaOracle(
        seed=5
    ).assign(dataset, reference_fit, workers, 5)


def test_qasca_improvement_values_identical(dataset):
    """The sampled improvement scores themselves — not just the ranking —
    must match bit for bit (same normalised mu, same likelihood, same rng
    consumption)."""
    result = _fit_tdh(dataset)
    col_assigner = QascaAssigner(seed=9)
    ref_assigner = QascaOracle(seed=9)
    for obj in dataset.objects[:60]:
        assert col_assigner.improvement(dataset, result, obj, "w0") == ref_assigner.improvement(
            dataset, result, obj, "w0"
        )


def test_qasca_parity_on_docs_fits(dataset):
    """DOCS+QASCA (Table 4): a non-TDH result takes the same hoisted
    arithmetic, and assignments and sampled scores match the oracle bit for
    bit."""
    workers = [w.worker_id for w in make_worker_pool(6, seed=2)]
    result = Docs(max_iter=8).fit(dataset)
    assert QascaAssigner(seed=5).assign(dataset, result, workers, 5) == QascaOracle(
        seed=5
    ).assign(dataset, result, workers, 5)
    col_assigner = QascaAssigner(seed=9)
    ref_assigner = QascaOracle(seed=9)
    for obj in dataset.objects[:60]:
        for worker in workers[:2]:
            assert col_assigner.improvement(
                dataset, result, obj, worker
            ) == ref_assigner.improvement(dataset, result, obj, worker)


def test_qasca_refuses_stale_columnar_state(dataset):
    """QASCA reads only ``result.confidences`` and the worker accuracies, so
    an answer added after the fit needs no refusal: the assigner still
    matches the oracle on the older result."""
    working = dataset.copy()
    result = _fit_tdh(working)
    obj = working.objects[0]
    working.add_answer(Answer(obj, "late_worker", working.candidates(obj)[0]))
    assert QascaAssigner(seed=0).assign(working, result, ["w0", "w1"], 3) == QascaOracle(
        seed=0
    ).assign(working, result, ["w0", "w1"], 3)
