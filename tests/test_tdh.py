"""Tests for the TDH inference EM (the paper's core contribution)."""

import numpy as np
import pytest

from repro import Answer, Hierarchy, Record, TDHModel, TruthDiscoveryDataset, Vote
from repro.datasets import make_heritages
from repro.eval import evaluate
from repro.inference import log_likelihood
from repro.inference.tdh import _trust_m_step


class TestConstruction:
    def test_default_hyperparameters_match_paper(self):
        model = TDHModel()
        np.testing.assert_allclose(model.alpha, [3.0, 3.0, 2.0])
        np.testing.assert_allclose(model.beta, [2.0, 2.0, 2.0])
        assert model.gamma == 2.0

    def test_alpha_must_have_three_components(self):
        with pytest.raises(ValueError):
            TDHModel(alpha=(1.0, 2.0))

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            TDHModel(gamma=0.5)

    def test_use_columnar_accepts_only_true(self):
        TDHModel(use_columnar=True)
        with pytest.raises(ValueError, match="tests/oracles.py"):
            TDHModel(use_columnar=False)


class TestFitBasics:
    def test_confidences_are_distributions(self, table1_dataset):
        result = TDHModel().fit(table1_dataset)
        for obj in table1_dataset.objects:
            vec = result.confidences[obj]
            assert vec.shape == (len(table1_dataset.candidates(obj)),)
            assert np.all(vec >= 0)
            assert vec.sum() == pytest.approx(1.0, abs=1e-6)

    def test_trustworthiness_is_distribution(self, table1_dataset):
        result = TDHModel().fit(table1_dataset)
        for source in table1_dataset.sources:
            phi = np.asarray(result.source_trustworthiness(source))
            assert phi.shape == (3,)
            assert np.all(phi >= 0)
            assert phi.sum() == pytest.approx(1.0, abs=1e-6)

    def test_converges_on_small_data(self, table1_dataset):
        result = TDHModel(max_iter=200).fit(table1_dataset)
        assert result.converged
        assert result.iterations < 200

    def test_deterministic(self, table1_dataset):
        r1 = TDHModel().fit(table1_dataset)
        r2 = TDHModel().fit(table1_dataset)
        for obj in table1_dataset.objects:
            np.testing.assert_allclose(r1.confidences[obj], r2.confidences[obj])

    def test_numerators_denominators_consistent(self, table1_dataset):
        """Eq. (9): mu = N / D must hold for the returned state."""
        result = TDHModel().fit(table1_dataset)
        for obj in table1_dataset.objects:
            np.testing.assert_allclose(
                result.confidences[obj],
                result.numerators[obj] / result.denominators[obj],
                rtol=1e-6,
            )

    def test_truth_is_argmax(self, table1_dataset):
        result = TDHModel().fit(table1_dataset)
        for obj in table1_dataset.objects:
            ctx_values = table1_dataset.candidates(obj)
            best = ctx_values[int(np.argmax(result.confidences[obj]))]
            assert result.truth(obj) == best


class TestPaperExample:
    """The introduction's motivating example must come out right."""

    def test_statue_of_liberty_resolves_to_liberty_island(self, table1_dataset):
        result = TDHModel().fit(table1_dataset)
        assert result.truth("Statue of Liberty") == "Liberty Island"

    def test_big_ben_resolves_to_most_specific(self, table1_dataset):
        result = TDHModel().fit(table1_dataset)
        assert result.truth("Big Ben") == "Westminster"

    def test_vote_fails_on_statue_of_liberty(self, table1_dataset):
        # VOTE cannot use the hierarchy: NY and Liberty Island split the vote.
        vote_truth = Vote().fit(table1_dataset).truth("Statue of Liberty")
        assert vote_truth != "Liberty Island"


class TestHierarchyAdvantage:
    def test_beats_vote_on_birthplaces(self, small_birthplaces):
        tdh = TDHModel(max_iter=40, tol=1e-4).fit(small_birthplaces)
        vote = Vote().fit(small_birthplaces)
        acc_tdh = evaluate(small_birthplaces, tdh.truths()).accuracy
        acc_vote = evaluate(small_birthplaces, vote.truths()).accuracy
        assert acc_tdh > acc_vote

    def test_hierarchy_ablation_hurts(self, small_birthplaces):
        """The three-interpretation model is the paper's central claim."""
        full = TDHModel(max_iter=40, tol=1e-4).fit(small_birthplaces)
        blind = TDHModel(max_iter=40, tol=1e-4, use_hierarchy=False).fit(
            small_birthplaces
        )
        acc_full = evaluate(small_birthplaces, full.truths()).accuracy
        acc_blind = evaluate(small_birthplaces, blind.truths()).accuracy
        assert acc_full >= acc_blind

    def test_generalizing_source_not_penalised(self):
        """A source that always claims correct-but-general values must keep a
        low phi3 (wrong probability) — the Figure 5 property."""
        h = Hierarchy()
        for i in range(30):
            h.add_path([f"c{i}", f"r{i}", f"t{i}"])
        records = []
        for i in range(30):
            records.append(Record(f"o{i}", "exact", f"t{i}"))
            records.append(Record(f"o{i}", "exact2", f"t{i}"))
            records.append(Record(f"o{i}", "generalizer", f"r{i}"))
        ds = TruthDiscoveryDataset(h, records)
        result = TDHModel().fit(ds)
        phi = result.source_trustworthiness("generalizer")
        assert phi[1] > 0.5  # recognised as a generalizer
        assert phi[2] < 0.25  # not branded unreliable


class TestWorkers:
    def test_answers_shift_confidence(self, table1_dataset):
        ds = table1_dataset.copy()
        base = TDHModel().fit(ds)
        for w in range(4):
            ds.add_answer(Answer("Niagara Falls", f"w{w}", "LA"))
        result = TDHModel().fit(ds)
        la_conf = result.confidence("Niagara Falls")["LA"]
        assert la_conf > base.confidence("Niagara Falls")["LA"]

    def test_worker_trustworthiness_estimated(self, table1_dataset):
        ds = table1_dataset.copy()
        ds.add_answer(Answer("Statue of Liberty", "good", "Liberty Island"))
        ds.add_answer(Answer("Big Ben", "good", "Westminster"))
        ds.add_answer(Answer("Niagara Falls", "good", "NY"))
        result = TDHModel().fit(ds)
        psi = result.worker_trustworthiness("good")
        assert psi[0] > 1.0 / 3.0  # better than prior mean

    def test_worker_psi_falls_back_to_prior(self, table1_dataset):
        result = TDHModel().fit(table1_dataset)
        psi = result.worker_psi("unseen-worker")
        np.testing.assert_allclose(psi, [1 / 3, 1 / 3, 1 / 3])

    def test_warm_start_converges_faster(self, small_birthplaces):
        model = TDHModel(max_iter=100, tol=1e-5)
        cold = model.fit(small_birthplaces)
        warm = model.fit(small_birthplaces, warm_start=cold)
        assert warm.iterations <= cold.iterations

    def test_structure_cache_reuse_gives_same_result(self, small_birthplaces):
        model = TDHModel(max_iter=20, tol=1e-4)
        cache = model.make_structure_cache(small_birthplaces)
        r1 = model.fit(small_birthplaces, structures=cache)
        r2 = model.fit(small_birthplaces, structures=cache)
        for obj in small_birthplaces.objects:
            np.testing.assert_allclose(r1.confidences[obj], r2.confidences[obj])


class TestPriors:
    def test_stronger_prior_pulls_phi_toward_mean(self, table1_dataset):
        weak = TDHModel(alpha=(3, 3, 2)).fit(table1_dataset)
        strong = TDHModel(alpha=(300, 300, 200)).fit(table1_dataset)
        prior_mean = np.array([3, 3, 2]) / 8.0
        for source in table1_dataset.sources:
            weak_phi = np.asarray(weak.source_trustworthiness(source))
            strong_phi = np.asarray(strong.source_trustworthiness(source))
            assert np.abs(strong_phi - prior_mean).sum() <= (
                np.abs(weak_phi - prior_mean).sum() + 1e-9
            )

    def test_gamma_one_is_flat_prior(self, table1_dataset):
        result = TDHModel(gamma=1.0).fit(table1_dataset)
        for obj in table1_dataset.objects:
            assert result.confidences[obj].sum() == pytest.approx(1.0, abs=1e-6)


class TestSingleCandidateObjects:
    def test_single_candidate_gets_full_confidence(self):
        h = Hierarchy()
        h.add_path(["USA", "NY"])
        ds = TruthDiscoveryDataset(h, [Record("o", "s", "NY")])
        result = TDHModel().fit(ds)
        np.testing.assert_allclose(result.confidences["o"], [1.0])
        assert result.truth("o") == "NY"


def _sparse_crowd_dataset():
    """Sparse Heritages-like records plus answers from a small worker panel,
    so both claimant kinds are present and frontiers stay partial."""
    ds = make_heritages(size=160, n_sources=350, seed=11)
    rng = np.random.default_rng(0)
    for i in range(40):
        obj = ds.objects[int(rng.integers(len(ds.objects)))]
        candidates = ds.candidates(obj)
        ds.add_answer(Answer(obj, f"w{i % 6}", candidates[int(rng.integers(len(candidates)))]))
    return ds


class TestTrustViews:
    """``phi``/``psi`` are read-only views over ``em_state["trust"]``, keyed
    through the dataset's claimant table."""

    @pytest.mark.parametrize("incremental", [False, True], ids=["full", "incremental"])
    def test_views_follow_the_claimant_table(self, incremental):
        ds = _sparse_crowd_dataset()
        model = TDHModel(incremental=True)
        result = model.fit(ds)
        if incremental:
            obj = ds.objects[0]
            ds.add_answer(Answer(obj, "w-new", ds.candidates(obj)[0]))
            result = model.fit(ds, warm_start=result)
            assert result.frontier_size is not None
            assert result.frontier_size < len(ds.objects)

        table = ds._claimant_ids  # key -> id, in id order
        is_worker = {key: isinstance(key, tuple) and key[0] == "worker" for key in table}
        sources = [key for key in table if not is_worker[key]]
        workers = [key[1] for key in table if is_worker[key]]
        assert sources == ds.sources and workers == ds.workers
        assert list(result.phi) == sources and len(result.phi) == len(sources)
        assert list(result.psi) == workers and len(result.psi) == len(workers)

        trust = result.em_state["trust"]
        assert trust.shape == (len(table), 3)
        for source in sources:
            assert np.array_equal(result.phi[source], trust[table[source]])
        for worker in workers:
            assert np.array_equal(result.psi[worker], trust[table[("worker", worker)]])
        assert sources[0] not in result.psi and workers[0] not in result.phi
        assert ("worker", workers[0]) not in result.phi

        assert result.source_trustworthiness(sources[0]) == tuple(
            float(x) for x in trust[table[sources[0]]]
        )
        assert np.isfinite(log_likelihood(ds, result))

        # A worker registered after the fit is not one of its claimants.
        obj = ds.objects[1]
        ds.add_answer(Answer(obj, "w-after-fit", ds.candidates(obj)[0]))
        assert ("worker", "w-after-fit") in ds._claimant_ids
        assert "w-after-fit" not in result.psi
        assert len(result.psi) == len(workers)
        with pytest.raises(KeyError):
            result.psi["w-after-fit"]
        np.testing.assert_array_equal(result.worker_psi("w-after-fit"), np.full(3, 1 / 3))


def _assert_stored_state_is_an_evaluation(model, result, warm_trust):
    """``result`` (an incremental fit) stores one E/M evaluation's output:
    its clean claimants keep their ``warm_trust`` rows bitwise, every
    frontier claimant's row is the M-step of its stored case sums, and
    ``mu`` is the Eq. 9 ratio of the stored numerators and denominators."""
    assert result.frontier_size is not None
    col, mu, numer, den = result.columnar_state
    on_frontier = np.zeros(col.n_claimants, dtype=bool)
    slots = []
    for oid in result.frontier_state["frontier"]:
        rows = slice(col.claim_offsets[oid], col.claim_offsets[oid + 1])
        on_frontier[col.claim_claimant[rows]] = True
        slots.extend(range(col.value_offsets[oid], col.value_offsets[oid + 1]))
    assert on_frontier[len(warm_trust):].all()  # new claimants claim on it
    clean = np.flatnonzero(~on_frontier)
    assert len(clean)

    trust = result.em_state["trust"]
    assert np.array_equal(trust[clean], warm_trust[clean])
    dirty = np.flatnonzero(on_frontier)
    expected = _trust_m_step(
        result.em_state["g_sums"][dirty].T,
        *model._trust_priors(col.claimant_is_worker[dirty]),
    )
    assert np.array_equal(trust[dirty], expected.T)

    den_slot = den[col.slot_obj][slots]
    ratio = np.where(
        den_slot > 0,
        numer[slots] / np.where(den_slot > 0, den_slot, 1.0),
        1.0 / col.sizes[col.slot_obj][slots],
    )
    assert np.array_equal(mu[slots], ratio)


def _crowd_batch(ds, rng, batch):
    """Eight answers from new workers and, on odd batches, two records: a
    new candidate value on an existing object, and a new object."""
    for i in range(8):
        obj = ds.objects[int(rng.integers(len(ds.objects)))]
        candidates = ds.candidates(obj)
        value = candidates[int(rng.integers(len(candidates)))]
        ds.add_answer(Answer(obj, f"w{batch}-{i}", value))
    if batch % 2:
        obj = ds.objects[int(rng.integers(len(ds.objects)))]
        fresh = next(
            v for v in ds.hierarchy.non_root_nodes() if v not in ds.candidates(obj)
        )
        ds.add_record(Record(obj, f"src-late-{batch}", fresh))
        ds.add_record(Record(f"obj-late-{batch}", f"src-late-{batch}", fresh))


def test_clean_claimant_trust_rows_carry_over_verbatim():
    """An incremental fit writes back only the frontier claimants' trust rows:
    a claimant with no frontier claim keeps its warm row bitwise, and every
    frontier claimant's row is the M-step of its stored case sums. The
    frontier's ``mu`` is the Eq. 9 ratio of its stored numerators."""
    ds = _sparse_crowd_dataset()
    model = TDHModel(incremental=True)
    result = model.fit(ds)
    rng = np.random.default_rng(5)
    for batch in range(6):
        _crowd_batch(ds, rng, batch)
        warm_trust = result.em_state["trust"]
        result = model.fit(ds, warm_start=result)
        _assert_stored_state_is_an_evaluation(model, result, warm_trust)


def test_max_iter_caps_the_incremental_evaluations():
    """``max_iter`` caps the accelerated loop's E/M evaluations exactly, and
    a stop in any phase of a cycle (x1 = F(x0), x2 = F(x1), then F of the
    extrapolated point) stores an evaluation's output: k = 1-3 stop in the
    first cycle, whose step is 1; k = 4-6 in the second, which extrapolates.
    A window consumes its warm start's oplog, so each fit replays it."""

    def fit_window(max_iter):
        ds = _sparse_crowd_dataset()
        warm = TDHModel(incremental=True).fit(ds)
        _crowd_batch(ds, np.random.default_rng(5), batch=1)
        model = TDHModel(max_iter=max_iter, incremental=True)
        return model, model.fit(ds, warm_start=warm), warm.em_state["trust"]

    _, uncapped, _ = fit_window(100)
    assert uncapped.converged and uncapped.iterations > 6
    for k in range(1, 7):
        model, capped, warm_trust = fit_window(k)
        assert capped.iterations == k and not capped.converged
        _assert_stored_state_is_an_evaluation(model, capped, warm_trust)
