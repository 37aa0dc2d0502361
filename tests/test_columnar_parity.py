"""Property-style parity: the columnar engines must reproduce the reference
engines — identical argmax truths and confidences within 1e-8 — on every
dataset family (synthetic BirthPlaces/Heritages, the hand-built geography
example, and the numeric-hierarchy stock dataset), with and without worker
answers in the claim table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.workers import make_worker_pool
from repro.data.columnar import AUTO_MIN_CLAIMS, resolve_engine
from repro.data.model import Answer
from repro.datasets import claims_to_dataset, make_birthplaces, make_heritages, make_stock_claims
from repro.inference import (
    Accu,
    Asums,
    Crh,
    DawidSkene,
    Docs,
    GuessLca,
    Lfc,
    PopAccu,
    TDHModel,
    Vote,
    ZenCrowd,
)

ALGORITHMS = {
    "VOTE": lambda engine: Vote(use_columnar=engine),
    "DS": lambda engine: DawidSkene(max_iter=12, use_columnar=engine),
    "ZENCROWD": lambda engine: ZenCrowd(max_iter=12, use_columnar=engine),
    "CRH": lambda engine: Crh(max_iter=12, use_columnar=engine),
    "TDH": lambda engine: TDHModel(max_iter=12, use_columnar=engine),
    "LFC": lambda engine: Lfc(max_iter=12, use_columnar=engine),
    "ACCU": lambda engine: Accu(max_iter=12, use_columnar=engine),
    "POPACCU": lambda engine: PopAccu(max_iter=12, use_columnar=engine),
    "LCA": lambda engine: GuessLca(max_iter=12, use_columnar=engine),
    "DOCS": lambda engine: Docs(max_iter=12, use_columnar=engine),
    "ASUMS": lambda engine: Asums(max_iter=12, use_columnar=engine),
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
    reference = ZenCrowd(max_iter=8, use_columnar=False).fit(dataset)
    columnar = ZenCrowd(max_iter=8, use_columnar=True).fit(dataset)
    assert set(columnar.reliability) == set(reference.reliability)
    for claimant, value in reference.reliability.items():
        assert columnar.reliability[claimant] == pytest.approx(value, abs=1e-8)


def test_crh_source_weight_parity(dataset):
    reference = Crh(max_iter=8, use_columnar=False).fit(dataset)
    columnar = Crh(max_iter=8, use_columnar=True).fit(dataset)
    assert set(columnar.source_weights) == set(reference.source_weights)
    for claimant, value in reference.source_weights.items():
        assert columnar.source_weights[claimant] == pytest.approx(value, abs=1e-8)


def test_tdh_em_state_parity(dataset):
    """TDH's full EM state — trustworthiness, Eq. (9) numerators and
    denominators — must agree between engines, because the EAI assigner's
    incremental EM (Section 4.2) consumes it."""
    reference = TDHModel(max_iter=10, use_columnar=False).fit(dataset)
    columnar = TDHModel(max_iter=10, use_columnar=True).fit(dataset)
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
    reference = TDHModel(max_iter=8, use_columnar=False, **flags).fit(dataset)
    columnar = TDHModel(max_iter=8, use_columnar=True, **flags).fit(dataset)
    assert columnar.iterations == reference.iterations
    assert columnar.truths() == reference.truths()
    for obj in dataset.objects:
        np.testing.assert_allclose(
            columnar.confidences[obj], reference.confidences[obj], atol=1e-8, rtol=0
        )


def test_docs_domain_parity(dataset):
    reference = Docs(max_iter=8, use_columnar=False).fit(dataset)
    columnar = Docs(max_iter=8, use_columnar=True).fit(dataset)
    assert columnar.domains == reference.domains
    assert set(columnar.domain_accuracy) == set(reference.domain_accuracy)
    for key, value in reference.domain_accuracy.items():
        assert columnar.domain_accuracy[key] == pytest.approx(value, abs=1e-8)


def test_claimant_state_parity(dataset):
    """Per-claimant scalar state of the newly ported algorithms survives the
    engine swap: ACCU accuracies, LCA honesty, ASUMS trust."""
    cases = [
        (Accu(max_iter=8), "source_accuracy"),
        (GuessLca(max_iter=8), "honesty"),
        (Asums(max_iter=8), "trust"),
    ]
    for algo, attr in cases:
        algo.use_columnar = False
        reference = getattr(algo.fit(dataset), attr)
        algo.use_columnar = True
        columnar = getattr(algo.fit(dataset), attr)
        assert set(columnar) == set(reference), attr
        for claimant, value in reference.items():
            assert columnar[claimant] == pytest.approx(value, abs=1e-8), attr


# ---------------------------------------------------------------------------
# EAI assignment: the columnar quality measure vs the ObjectStructure path
# ---------------------------------------------------------------------------
def _fit_tdh(dataset, engine):
    from repro.inference import TDHModel as _TDH

    return _TDH(max_iter=10, tol=1e-5, use_columnar=engine).fit(dataset)


@pytest.mark.parametrize(
    "dataset", sorted(DATASETS) + sorted(WIDE_DATASETS), indirect=True
)
def test_eai_assignment_parity(dataset):
    """Both EAI engines produce identical assignments, identical pruning
    behaviour (evaluation counts) and bitwise-equal quality values for
    every object, every worker's psi and a never-seen worker's default psi,
    with and without pruning, whichever engine produced the TDH result."""
    from repro.assignment import EAIAssigner
    from repro.crowd.workers import make_worker_pool

    workers = [w.worker_id for w in make_worker_pool(6, seed=2)]
    for fit_engine in (False, True):
        result = _fit_tdh(dataset, fit_engine)
        for use_pruning in (True, False):
            reference = EAIAssigner(use_pruning=use_pruning, use_columnar=False)
            columnar = EAIAssigner(use_pruning=use_pruning, use_columnar=True)
            assert reference.assign(dataset, result, workers, 5) == columnar.assign(
                dataset, result, workers, 5
            )
            assert reference.eai_evaluations == columnar.eai_evaluations
        assert columnar._state_for(result) is not None
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
    """Structurally identical objects have exactly tied EAI scores; both
    engines must break the tie the same way (insertion order), keeping the
    assignment sequences identical."""
    from repro.assignment import EAIAssigner
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
    result = _fit_tdh(dataset, True)
    reference = EAIAssigner(use_columnar=False)
    columnar = EAIAssigner(use_columnar=True)
    a_ref = reference.assign(dataset, result, ["w0", "w1"], 2)
    a_col = columnar.assign(dataset, result, ["w0", "w1"], 2)
    assert a_ref == a_col
    # the scores really are exact ties across the cloned objects
    columnar._activate_state(dataset, result)
    psi = result.worker_psi("w0", columnar.default_psi)
    scores = {obj: columnar.eai(result, obj, psi) for obj in dataset.objects}
    assert len(set(scores.values())) == 1


def test_eai_parity_zero_answer_objects_and_unseen_workers(dataset):
    """Datasets without a single worker answer exercise the default-psi path
    (psi falls back to the prior mean) in both engines."""
    from repro.assignment import EAIAssigner
    from repro.data.model import TruthDiscoveryDataset

    records_only = TruthDiscoveryDataset(
        dataset.hierarchy, dataset.iter_records(), name="records-only"
    )
    result = _fit_tdh(records_only, True)
    assert not result.psi  # no workers anywhere in the claim table
    a_ref = EAIAssigner(use_columnar=False).assign(
        records_only, result, ["fresh_w0", "fresh_w1"], 4
    )
    a_col = EAIAssigner(use_columnar=True).assign(
        records_only, result, ["fresh_w0", "fresh_w1"], 4
    )
    assert a_ref == a_col
    assert all(len(tasks) == 4 for tasks in a_col.values())


def test_eai_parity_heap_capacity_edges(dataset):
    """k = 0, k >= |O|, single worker, and a worker who answered everything:
    the heap bookkeeping edge cases agree across engines."""
    from repro.assignment import EAIAssigner
    from repro.data.model import Answer

    result = _fit_tdh(dataset, True)
    reference = EAIAssigner(use_columnar=False)
    columnar = EAIAssigner(use_columnar=True)
    n = len(dataset.objects)
    for workers, k in ([["w0"], 0], [["w0"], n + 5], [["w0", "w1"], n], [["w0"], 1]):
        assert reference.assign(dataset, result, workers, k) == columnar.assign(
            dataset, result, workers, k
        )
    # a worker with every object answered gets nothing, on both engines
    saturated = dataset.copy()
    for obj in saturated.objects:
        saturated.add_answer(Answer(obj, "done_w", saturated.candidates(obj)[0]))
    result2 = _fit_tdh(saturated, True)
    a_ref = EAIAssigner(use_columnar=False).assign(saturated, result2, ["done_w"], 3)
    a_col = EAIAssigner(use_columnar=True).assign(saturated, result2, ["done_w"], 3)
    assert a_ref == a_col == {"done_w": []}


def test_eai_refuses_stale_layout(dataset):
    """Records added between fit and assign change the slot layout; the
    columnar engine must detect the drift and fall back to the reference
    path rather than consume misaligned arrays."""
    from repro.assignment import EAIAssigner
    from repro.data.model import Record

    working = dataset.copy()
    result = _fit_tdh(working, True)
    working.add_record(Record("fresh_object", "s_new", working.hierarchy.children(working.hierarchy.root)[0]))
    columnar = EAIAssigner(use_columnar=True)
    assert columnar._activate_state(working, result) is None
    reference = EAIAssigner(use_columnar=False)
    workers = ["w0", "w1"]
    assert columnar.assign(working, result, workers, 3) == reference.assign(
        working, result, workers, 3
    )


def test_eai_refuses_stale_popularity_counts(dataset):
    """A record whose value is an *existing* candidate changes neither the
    object list nor any candidate-set size — but it changes the Pop2/Pop3
    popularity counts, so the columnar engine must still refuse (the
    records_version stamp catches it) and agree with the reference path."""
    from repro.assignment import EAIAssigner
    from repro.data.model import Record

    working = dataset.copy()
    for fit_engine in (False, True):
        result = _fit_tdh(working, fit_engine)
        obj = working.objects[0]
        working.add_record(
            Record(obj, f"latecomer_src_{fit_engine}", working.candidates(obj)[0])
        )
        assert len(working.candidates(obj)) == len(result.confidences[obj])
        columnar = EAIAssigner(use_columnar=True)
        assert columnar._activate_state(working, result) is None
        assert columnar.assign(working, result, ["w0", "w1"], 3) == EAIAssigner(
            use_columnar=False
        ).assign(working, result, ["w0", "w1"], 3)


def test_eai_refuses_foreign_clone_results(dataset):
    """Mutation counters only order one dataset object's history — sibling
    clones can diverge while their counters coincide — so a result fit on a
    different dataset object always takes the reference path (and still
    agrees with it)."""
    from repro.assignment import EAIAssigner

    original = dataset.copy()
    sibling = original.copy()
    result = _fit_tdh(original, True)
    columnar = EAIAssigner(use_columnar=True)
    assert columnar._activate_state(sibling, result) is None
    assert columnar.assign(sibling, result, ["w0"], 3) == EAIAssigner(
        use_columnar=False
    ).assign(sibling, result, ["w0"], 3)


def test_engine_resolution(table1_dataset):
    small = table1_dataset  # far below the auto threshold
    assert resolve_engine(True, small) is True
    assert resolve_engine("columnar", small) is True
    assert resolve_engine(False, small) is False
    assert resolve_engine("reference", small) is False
    assert resolve_engine("auto", small) is False
    big_enough = make_birthplaces(size=AUTO_MIN_CLAIMS, seed=1)
    assert big_enough.num_records >= AUTO_MIN_CLAIMS
    assert resolve_engine("auto", big_enough) is True
    with pytest.raises(ValueError):
        resolve_engine("fastest", small)


# ---------------------------------------------------------------------------
# QASCA assignment: the flat-state quality measure vs the dict path
# ---------------------------------------------------------------------------
def test_qasca_assignment_parity(dataset):
    """Both QASCA engines draw the same samples and produce identical
    assignments when consuming a columnar TDH fit; a reference fit (no flat
    EM state) keeps both on the dict oracle path."""
    from repro.assignment import QascaAssigner
    from repro.crowd.workers import make_worker_pool

    workers = [w.worker_id for w in make_worker_pool(6, seed=2)]
    result = _fit_tdh(dataset, True)
    a_col = QascaAssigner(seed=5, use_columnar=True).assign(dataset, result, workers, 5)
    a_ref = QascaAssigner(seed=5, use_columnar=False).assign(dataset, result, workers, 5)
    assert a_col == a_ref

    reference_fit = _fit_tdh(dataset, False)
    assigner = QascaAssigner(seed=5, use_columnar=True)
    assert assigner._activate_state(dataset, reference_fit) is None  # oracle path
    assert assigner.assign(dataset, reference_fit, workers, 5) == QascaAssigner(
        seed=5, use_columnar=False
    ).assign(dataset, reference_fit, workers, 5)


def test_qasca_improvement_values_identical(dataset):
    """The sampled improvement scores themselves — not just the ranking —
    must match bit for bit (same normalised mu, same likelihood, same rng
    consumption)."""
    from repro.assignment import QascaAssigner

    result = _fit_tdh(dataset, True)
    col_assigner = QascaAssigner(seed=9, use_columnar=True)
    ref_assigner = QascaAssigner(seed=9, use_columnar=False)
    assert col_assigner._activate_state(dataset, result) is not None
    ref_assigner._activate_state(dataset, result)
    for obj in dataset.objects[:60]:
        assert col_assigner.improvement(dataset, result, obj, "w0") == ref_assigner.improvement(
            dataset, result, obj, "w0"
        )


def test_qasca_refuses_stale_columnar_state(dataset):
    """Mutating the dataset after the fit invalidates the flat state: the
    columnar engine must refuse and fall back to the dict path (which is
    what the reference engine runs anyway), keeping engines identical."""
    from repro.assignment import QascaAssigner

    working = dataset.copy()
    result = _fit_tdh(working, True)
    obj = working.objects[0]
    working.add_answer(Answer(obj, "late_worker", working.candidates(obj)[0]))
    assigner = QascaAssigner(seed=0, use_columnar=True)
    assert assigner._activate_state(working, result) is None
    assert assigner.assign(working, result, ["w0", "w1"], 3) == QascaAssigner(
        seed=0, use_columnar=False
    ).assign(working, result, ["w0", "w1"], 3)
