"""Figure 7 — actual vs estimated accuracy improvement, EAI vs QASCA.

Per round, compare the assigner's own estimate of the accuracy gain of its
chosen tasks with the realised gain. The paper's finding: EAI's estimate
tracks the actual improvement (mean absolute error 0.08/0.26 pp on
BirthPlaces/Heritages) while QASCA systematically overestimates (0.28/2.66 pp)
because it ignores how many claims each object already has.
"""

from __future__ import annotations

from typing import Dict, List

from .common import both_datasets, format_series, scale
from .crowd_runs import run_combo


def run(full: bool = False) -> Dict[str, Dict[str, dict]]:
    """Per dataset and assigner: actual/estimated series (in percentage points)."""
    s = scale(full)
    out: Dict[str, Dict[str, dict]] = {}
    for ds_name, dataset in both_datasets(s).items():
        per_assigner: Dict[str, dict] = {}
        for assigner in ("EAI", "QASCA"):
            history = run_combo(dataset, "TDH", assigner, s)
            rounds: List[int] = []
            actual: List[float] = []
            estimated: List[float] = []
            for record in history.records[1:]:
                if record.estimated_improvement is None:
                    continue
                rounds.append(record.round)
                actual.append(100.0 * (record.actual_improvement or 0.0))
                estimated.append(100.0 * record.estimated_improvement)
            errors = [abs(a - e) for a, e in zip(actual, estimated)]
            per_assigner[assigner] = {
                "rounds": rounds,
                "actual_pp": actual,
                "estimated_pp": estimated,
                "mean_abs_error_pp": sum(errors) / len(errors) if errors else 0.0,
                "mean_bias_pp": (
                    sum(e - a for a, e in zip(actual, estimated)) / len(errors)
                    if errors
                    else 0.0
                ),
            }
        out[ds_name] = per_assigner
    return out


def main(full: bool = False) -> None:
    results = run(full)
    for ds_name, per_assigner in results.items():
        for assigner, data in per_assigner.items():
            print(
                format_series(
                    {"ACTUAL": data["actual_pp"][::5], "ESTIMATED": data["estimated_pp"][::5]},
                    data["rounds"][::5],
                    title=f"Figure 7 — {ds_name}-{assigner} (accuracy increase, %p)",
                )
            )
            print(
                f"mean |estimated-actual| = {data['mean_abs_error_pp']:.3f} pp, "
                f"bias = {data['mean_bias_pp']:+.3f} pp\n"
            )


if __name__ == "__main__":
    main()
