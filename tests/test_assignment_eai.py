"""Tests for EAI task assignment: the quality measure, the incremental EM,
Lemma 4.1 and Algorithm 1."""

import numpy as np
import pytest

from repro import Answer, EAIAssigner, TDHModel, make_birthplaces
from repro.crowd import make_worker_pool


@pytest.fixture(scope="module")
def fitted():
    dataset = make_birthplaces(size=150, seed=7)
    result = TDHModel(max_iter=25, tol=1e-4).fit(dataset)
    return dataset, result


@pytest.fixture()
def assigner():
    return EAIAssigner()


PSI = np.array([0.7, 0.2, 0.1])


class TestConditionalConfidence:
    def test_is_distribution(self, fitted, assigner):
        dataset, result = fitted
        obj = dataset.objects[0]
        n = len(result.confidences[obj])
        for answer_pos in range(n):
            cond = assigner.conditional_confidence(result, obj, PSI, answer_pos)
            assert np.all(cond >= 0)
            assert cond.sum() == pytest.approx(1.0, abs=1e-6)

    def test_answer_raises_answered_value(self, fitted, assigner):
        dataset, result = fitted
        for obj in dataset.objects[:20]:
            mu = result.confidences[obj]
            if len(mu) < 2:
                continue
            answer_pos = int(np.argmin(mu))
            cond = assigner.conditional_confidence(result, obj, PSI, answer_pos)
            assert cond[answer_pos] >= mu[answer_pos] - 1e-9

    def test_damped_by_claim_count(self, fitted, assigner):
        """Eq. (18): the shift is bounded by 1/(D+1) per coordinate."""
        dataset, result = fitted
        for obj in dataset.objects[:20]:
            mu = result.confidences[obj]
            denominator = result.denominators[obj]
            for answer_pos in range(len(mu)):
                cond = assigner.conditional_confidence(result, obj, PSI, answer_pos)
                assert np.max(np.abs(cond - mu)) <= 1.0 / (denominator + 1.0) + 1e-9


class TestAnswerDistribution:
    def test_is_distribution(self, fitted, assigner):
        dataset, result = fitted
        for obj in dataset.objects[:20]:
            dist = assigner.answer_distribution(result, obj, PSI)
            assert np.all(dist >= 0)
            assert dist.sum() == pytest.approx(1.0, abs=1e-6)

    def test_accurate_worker_likely_answers_mode(self, fitted, assigner):
        dataset, result = fitted
        sharp_psi = np.array([0.95, 0.04, 0.01])
        for obj in dataset.objects[:10]:
            mu = result.confidences[obj]
            if mu.max() < 0.9:
                continue
            dist = assigner.answer_distribution(result, obj, sharp_psi)
            assert int(np.argmax(dist)) == int(np.argmax(mu))


class TestEaiMeasure:
    def test_nonnegative_within_bound(self, fitted, assigner):
        dataset, result = fitted
        n_objects = len(result.confidences)
        for obj in dataset.objects[:30]:
            value = assigner.eai(result, obj, PSI)
            upper = assigner.ueai(result, obj)
            assert value <= upper + 1e-12, "Lemma 4.1 upper bound violated"
            assert value >= -1.0 / n_objects  # expectation of a max: tiny negatives only

    def test_settled_object_has_low_eai(self, fitted, assigner):
        """Objects with confident truths and many claims should score near 0."""
        dataset, result = fitted
        scores = {obj: assigner.eai(result, obj, PSI) for obj in dataset.objects}
        settled = [
            obj for obj in dataset.objects
            if result.confidences[obj].max() > 0.99
        ]
        if settled:
            uncertain_max = max(scores.values())
            for obj in settled[:5]:
                assert scores[obj] <= uncertain_max

    def test_ueai_formula(self, fitted, assigner):
        dataset, result = fitted
        obj = dataset.objects[0]
        mu = result.confidences[obj]
        expected = (1.0 - float(mu.max())) / (
            len(result.confidences) * (result.denominators[obj] + 1.0)
        )
        assert assigner.ueai(result, obj) == pytest.approx(expected)

    def test_evaluation_counter(self, fitted, assigner):
        dataset, result = fitted
        assigner.eai_evaluations = 0
        assigner.eai(result, dataset.objects[0], PSI)
        assert assigner.eai_evaluations == 1


class TestAlgorithm1:
    def test_respects_k(self, fitted, assigner):
        dataset, result = fitted
        workers = [w.worker_id for w in make_worker_pool(5, seed=1)]
        assignment = assigner.assign(dataset, result, workers, 3)
        assert set(assignment) == set(workers)
        assert all(len(tasks) <= 3 for tasks in assignment.values())

    def test_no_object_assigned_twice(self, fitted, assigner):
        dataset, result = fitted
        workers = [w.worker_id for w in make_worker_pool(5, seed=1)]
        assignment = assigner.assign(dataset, result, workers, 4)
        all_tasks = [obj for tasks in assignment.values() for obj in tasks]
        assert len(all_tasks) == len(set(all_tasks))

    def test_skips_already_answered(self, fitted, assigner):
        # Fit the copy itself: the assigner refuses a result fitted on
        # another dataset object.
        dataset = fitted[0].copy()
        result = TDHModel(max_iter=25, tol=1e-4).fit(dataset)
        workers = ["w0"]
        first = assigner.assign(dataset, result, workers, 2)
        for obj in first["w0"]:
            value = dataset.candidates(obj)[0]
            dataset.add_answer(Answer(obj, "w0", value))
        second = assigner.assign(dataset, result, workers, 2)
        assert not set(first["w0"]) & set(second["w0"])

    def test_pruning_equivalence(self, fitted):
        """The Lemma-4.1 filter must not change the outcome (Fig 13 premise)."""
        dataset, result = fitted
        workers = [w.worker_id for w in make_worker_pool(8, seed=2)]
        pruned = EAIAssigner(use_pruning=True)
        brute = EAIAssigner(use_pruning=False)
        a1 = pruned.assign(dataset, result, workers, 5)
        a2 = brute.assign(dataset, result, workers, 5)
        assert a1 == a2

    def test_pruning_reduces_evaluations(self, fitted):
        dataset, result = fitted
        workers = [w.worker_id for w in make_worker_pool(8, seed=2)]
        pruned = EAIAssigner(use_pruning=True)
        brute = EAIAssigner(use_pruning=False)
        pruned.assign(dataset, result, workers, 5)
        brute.assign(dataset, result, workers, 5)
        assert pruned.eai_evaluations < brute.eai_evaluations

    def test_pruning_reduces_computed_pairs(self):
        """The walk reads EAI values off per-worker tables filled in
        blocks along the UEAI order; pruning must still
        cut the pairs the kernel computes, without changing the outcome."""
        dataset = make_birthplaces(size=1200, seed=7)
        result = TDHModel(max_iter=15, tol=1e-4).fit(dataset)
        workers = [w.worker_id for w in make_worker_pool(10, seed=3)]
        pruned = EAIAssigner(use_pruning=True)
        brute = EAIAssigner(use_pruning=False)
        assert pruned.assign(dataset, result, workers, 5) == brute.assign(
            dataset, result, workers, 5
        )
        assert brute.eai_pairs_computed == len(workers) * len(dataset.objects)
        assert 0 < pruned.eai_pairs_computed < brute.eai_pairs_computed
        assert pruned.eai_evaluations <= pruned.eai_pairs_computed

    def test_requires_tdh_result(self, fitted, assigner):
        from repro import Vote

        dataset, _ = fitted
        vote_result = Vote().fit(dataset)
        with pytest.raises(TypeError, match="TDHResult"):
            assigner.assign(dataset, vote_result, ["w0"], 1)

    def test_empty_worker_list(self, fitted, assigner):
        dataset, result = fitted
        assert assigner.assign(dataset, result, [], 5) == {}

    def test_zero_k(self, fitted, assigner):
        dataset, result = fitted
        assignment = assigner.assign(dataset, result, ["w0"], 0)
        assert assignment == {"w0": []}

    def test_assigns_best_objects_first(self, fitted, assigner):
        """The chosen set should dominate: every assigned object's EAI must be
        >= the best unassigned object's EAI for that worker."""
        dataset, result = fitted
        workers = ["w0"]
        psi = result.worker_psi("w0", assigner.default_psi)
        assignment = assigner.assign(dataset, result, workers, 5)
        chosen = set(assignment["w0"])
        chosen_scores = [assigner.eai(result, obj, psi) for obj in chosen]
        rest_scores = [
            assigner.eai(result, obj, psi)
            for obj in dataset.objects
            if obj not in chosen
        ]
        assert min(chosen_scores) >= max(rest_scores) - 1e-12
