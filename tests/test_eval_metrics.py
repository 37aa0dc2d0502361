"""Tests for the Section-5 quality measures."""

import numpy as np
import pytest

from repro import Hierarchy, Record, TruthDiscoveryDataset
from repro.eval import EvaluationReport, effective_truth, evaluate, source_accuracy
from repro.inference.base import LazyTruths


@pytest.fixture()
def dataset():
    h = Hierarchy()
    h.add_path(["USA", "NY", "NYC", "Manhattan"])
    h.add_path(["USA", "LA"])
    h.add_path(["UK", "London"])
    records = [
        Record("o1", "s1", "NYC"),
        Record("o1", "s2", "NY"),
        Record("o2", "s1", "LA"),
        Record("o2", "s2", "London"),
        Record("o3", "s1", "NY"),
    ]
    gold = {"o1": "NYC", "o2": "LA", "o3": "Manhattan"}
    return TruthDiscoveryDataset(h, records, gold=gold)


class TestEffectiveTruth:
    def test_gold_in_candidates(self, dataset):
        assert effective_truth(dataset, "o1", "NYC") == "NYC"

    def test_gold_projected_to_most_specific_ancestor(self, dataset):
        # o3's gold is Manhattan; only NY is claimed -> project to NY.
        assert effective_truth(dataset, "o3", "Manhattan") == "NY"

    def test_projection_prefers_deepest(self, dataset):
        # o1 has both NYC and NY; gold Manhattan projects to NYC (deeper).
        assert effective_truth(dataset, "o1", "Manhattan") == "NYC"

    def test_no_projection_returns_none(self, dataset):
        assert effective_truth(dataset, "o2", "London") is None or (
            effective_truth(dataset, "o2", "London") == "London"
        )

    def test_unrelated_gold_returns_none(self, dataset):
        assert effective_truth(dataset, "o3", "London") is None


def _lazy_truths(dataset, estimates):
    """The columnar results' lazy ``object -> truth`` view of ``estimates``:
    confidence 1 on each estimate's slot, 0 elsewhere."""
    col = dataset.columnar()
    flat = np.array(
        [
            float(col.values[col.slot_vid[slot]] == estimates[col.objects[col.slot_obj[slot]]])
            for slot in range(col.n_slots)
        ]
    )
    return LazyTruths(col, flat)


class TestEvaluate:
    def test_perfect_estimates(self, dataset):
        estimates = {"o1": "NYC", "o2": "LA", "o3": "NY"}
        report = evaluate(dataset, estimates)
        assert report.accuracy == 1.0
        assert report.gen_accuracy == 1.0
        assert report.avg_distance == 0.0
        assert report.num_objects == 3

    def test_generalized_estimate_counts_for_gen_accuracy(self, dataset):
        estimates = {"o1": "NY", "o2": "LA", "o3": "NY"}
        report = evaluate(dataset, estimates)
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.gen_accuracy == 1.0
        assert report.avg_distance == pytest.approx(1 / 3)

    def test_wrong_estimate_distance(self, dataset):
        estimates = {"o1": "NYC", "o2": "London", "o3": "NY"}
        report = evaluate(dataset, estimates)
        # A lazy columnar truths view scores exactly like the plain dict.
        assert evaluate(dataset, _lazy_truths(dataset, estimates)) == report
        assert report.accuracy == pytest.approx(2 / 3)
        # LA -> London: LA-USA-root-UK-London = 4 edges.
        assert report.avg_distance == pytest.approx(4 / 3)

    def test_missing_estimates_skipped(self, dataset):
        report = evaluate(dataset, {"o1": "NYC"})
        assert report.num_objects == 1
        assert report.accuracy == 1.0

    def test_no_overlap_raises(self, dataset):
        with pytest.raises(ValueError, match="no overlapping"):
            evaluate(dataset, {"zzz": "NYC"})

    def test_explicit_gold_overrides(self, dataset):
        report = evaluate(dataset, {"o1": "NY"}, gold={"o1": "NY"})
        assert report.accuracy == 1.0

    def test_as_row_column_names(self):
        report = EvaluationReport(0.5, 0.6, 0.7, 10)
        assert report.as_row() == {
            "Accuracy": 0.5,
            "GenAccuracy": 0.6,
            "AvgDistance": 0.7,
        }


class TestSourceAccuracy:
    def test_exact_and_generalized_counted(self, dataset):
        # s2 claims NY for o1 (gold NYC): generalized, not exact.
        stats = source_accuracy(dataset, "s2")
        assert stats["claims"] == 2
        assert stats["accuracy"] == 0.0
        assert stats["gen_accuracy"] == pytest.approx(0.5)

    def test_perfect_source(self, dataset):
        stats = source_accuracy(dataset, "s1")
        # s1: o1 NYC (exact), o2 LA (exact), o3 NY (exact after projection).
        assert stats["accuracy"] == 1.0
        assert stats["gen_accuracy"] == 1.0

    def test_unknown_source_zero(self, dataset):
        assert source_accuracy(dataset, "ghost")["claims"] == 0
