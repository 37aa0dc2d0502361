"""Bench: Figure 13 — UEAI filtering at increasing scale factors.

The pruned assigner must produce identical assignments (checked inside the
experiment), evaluate far fewer EAI scores, compute fewer (worker, object)
pairs on BirthPlaces at every scale factor, and save more as scale grows.
"""

from repro.experiments import fig13_scaling
from repro.experiments.common import format_table

COLUMNS = [
    "Scale", "Objects", "with filtering(s)", "w/o filtering(s)",
    "EAI evals (filtered)", "EAI evals (all)",
    "EAI pairs (filtered)", "EAI pairs (all)", "time saved",
]


def test_fig13(benchmark):
    results = benchmark.pedantic(
        fig13_scaling.run, kwargs={"factors": (1, 2, 4)}, rounds=1, iterations=1
    )
    for ds_name, rows in results.items():
        print()
        print(format_table(rows, COLUMNS, title=f"Figure 13 ({ds_name})"))
        for row in rows:
            assert row["EAI evals (filtered)"] <= row["EAI evals (all)"]
            assert row["EAI pairs (filtered)"] <= row["EAI pairs (all)"]
    for row in results["BirthPlaces"]:
        assert row["EAI pairs (filtered)"] < row["EAI pairs (all)"], row
    # BirthPlaces (many claims per object, sharp confidences) is where the
    # bound bites hardest — the paper reports 78% time saved there at 15x.
    # Heritages prunes less at bench scale (few claims -> loose bounds), so
    # only the strict check applies to BirthPlaces.
    last = results["BirthPlaces"][-1]
    ratio = last["EAI evals (filtered)"] / max(last["EAI evals (all)"], 1)
    assert ratio < 0.8, f"filter only removed {100 * (1 - ratio):.0f}% of evals"
