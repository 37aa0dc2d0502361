"""Figures 8, 9, 10 — cost efficiency of the headline combos.

Accuracy (Fig 8), GenAccuracy (Fig 9) and AvgDistance (Fig 10) per round for
TDH+EAI, VOTE+ME, LCA+ME, DOCS+MB and DOCS+QASCA. The paper also derives the
cost saving: the number of rounds TDH+EAI needs to match the runner-up's
final accuracy.
"""

from __future__ import annotations

from typing import Dict, List

from .common import (
    HEADLINE_COMBOS,
    both_datasets,
    format_series,
    format_sparklines,
    scale,
)
from .crowd_runs import run_combos

METRICS = ("accuracy", "gen_accuracy", "avg_distance")


def cost_saving(
    ours: List[float], theirs_final: float, maximize: bool = True
) -> float:
    """Fraction of rounds saved reaching the competitor's final quality."""
    total = len(ours) - 1
    if total <= 0:
        return 0.0
    for i, value in enumerate(ours):
        if (value >= theirs_final) if maximize else (value <= theirs_final):
            return 1.0 - i / total
    return 0.0


def run(full: bool = False) -> Dict[str, dict]:
    s = scale(full)
    out: Dict[str, dict] = {}
    for ds_name, dataset in both_datasets(s).items():
        histories = run_combos(dataset, HEADLINE_COMBOS, s)
        rounds = [r.round for r in next(iter(histories.values())).records]
        data: Dict[str, dict] = {"rounds": rounds}
        for metric in METRICS:
            data[metric] = {
                combo: history.series(metric) for combo, history in histories.items()
            }
        # Cost saving of TDH+EAI vs the best non-TDH competitor on accuracy.
        final_acc = {
            combo: history.final.accuracy
            for combo, history in histories.items()
            if combo != "TDH+EAI"
        }
        runner_up = max(final_acc, key=final_acc.get)
        data["cost_saving_vs"] = runner_up
        data["cost_saving"] = cost_saving(
            data["accuracy"]["TDH+EAI"], final_acc[runner_up]
        )
        out[ds_name] = data
    return out


def main(full: bool = False) -> None:
    results = run(full)
    figure_no = {"accuracy": 8, "gen_accuracy": 9, "avg_distance": 10}
    for ds_name, data in results.items():
        rounds = data["rounds"]
        for metric in METRICS:
            series = {k: v[::5] for k, v in data[metric].items()}
            print(
                format_series(
                    series,
                    rounds[::5],
                    title=f"Figure {figure_no[metric]} — {metric} ({ds_name})",
                )
            )
            print()
        print(format_sparklines(data["accuracy"], title=f"(accuracy trajectories, {ds_name})"))
        print(
            f"TDH+EAI cost saving vs {data['cost_saving_vs']}: "
            f"{100 * data['cost_saving']:.0f}% of rounds\n"
        )


if __name__ == "__main__":
    main()
