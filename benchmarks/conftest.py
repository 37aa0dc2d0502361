"""Benchmark configuration: a moderate scale so the whole harness finishes in
minutes while preserving every comparison's shape. Pass --full-scale through
the REPRO_BENCH_FULL=1 environment variable to use the paper's sizes.

The ``BENCH_*.json`` artifacts land at the repo root only with
``REPRO_WRITE_BENCH=1`` (the CI bench job publishes them from there);
otherwise they go to a session temp directory, so a test run never rewrites
a tracked file."""

import json
import os
from pathlib import Path

import pytest

import repro.experiments.common as common

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def bench_artifact_dir(tmp_path_factory) -> Path:
    """Directory the benchmarks write their ``BENCH_*.json`` artifacts to."""
    if os.environ.get("REPRO_WRITE_BENCH") == "1":
        return ROOT
    return tmp_path_factory.mktemp("bench_artifacts")


@pytest.fixture(scope="session")
def merge_bench_artifact(bench_artifact_dir):
    """Read-modify-write top-level sections of ``BENCH_columnar.json``.

    The speedup and appender benchmarks each own different keys of the same
    artifact; merging through one helper keeps them from clobbering each
    other regardless of execution order.
    """

    artifact = bench_artifact_dir / "BENCH_columnar.json"

    def merge(**sections) -> None:
        data = {}
        if artifact.exists():
            try:
                data = json.loads(artifact.read_text())
            except ValueError:
                data = {}
        data.update(sections)
        artifact.write_text(json.dumps(data, indent=2) + "\n")

    merge.path = artifact
    return merge

# Budget-to-object ratios follow the paper (see common.FAST): scarce on
# BirthPlaces, plentiful on Heritages.
BENCH = common.ExperimentScale(
    birthplaces_size=900,
    heritages_size=130,
    heritages_sources=300,
    rounds=8,
    workers=10,
    tasks_per_worker=5,
    em_iterations=20,
)


@pytest.fixture(autouse=True)
def bench_scale(monkeypatch):
    if os.environ.get("REPRO_BENCH_FULL") != "1":
        monkeypatch.setattr(common, "FAST", BENCH)
    yield
