"""Tests for the ``python -m repro.experiments`` command-line interface."""

import pytest

import repro.experiments.common as common
from repro.experiments.__main__ import main

TINY = common.ExperimentScale(
    birthplaces_size=60,
    heritages_size=50,
    heritages_sources=60,
    rounds=2,
    workers=3,
    tasks_per_worker=2,
    em_iterations=5,
)


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setattr(common, "FAST", TINY)


class TestExperimentsCli:
    def test_no_argument_prints_menu(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "available experiments" in out
        assert "table3" in out

    def test_single_experiment(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "=== fig1 ===" in out
        assert "generalization tendencies" in out

    def test_table3_prints_both_datasets(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "BirthPlaces" in out and "Heritages" in out
        assert "TDH" in out and "VOTE" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonexistent"])

    def test_engine_option_rejected(self):
        # One engine per algorithm: --engine is an argparse error.
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--engine", "reference"])
        assert exc.value.code == 2

    def test_fig5_prints_reliability_comparison(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "phi_s1" in out and "t(s)" in out
