"""Figures 14, 15, 16 — crowdsourcing with (simulated) human annotators.

The paper runs 10 human annotators for 20 rounds on its own platform; our
substitute is a higher-quality simulated panel with a generalization habit
(see :func:`repro.crowd.make_human_panel` and DESIGN.md §4). Reported:
Accuracy / GenAccuracy / AvgDistance per round for the four compared combos.
"""

from __future__ import annotations

from typing import Dict

from ..crowd.workers import make_human_panel
from .common import both_datasets, format_series, scale
from .crowd_runs import run_combos

COMBOS = (("TDH", "EAI"), ("LCA", "ME"), ("DOCS", "MB"), ("DOCS", "QASCA"))
METRICS = ("accuracy", "gen_accuracy", "avg_distance")


def run(full: bool = False, rounds: int = 20) -> Dict[str, dict]:
    s = scale(full)
    panel = make_human_panel(10, seed=17)
    out: Dict[str, dict] = {}
    for ds_name, dataset in both_datasets(s).items():
        histories = run_combos(dataset, COMBOS, s, workers=panel, rounds=rounds)
        data: Dict[str, dict] = {
            "rounds": [r.round for r in next(iter(histories.values())).records]
        }
        for metric in METRICS:
            data[metric] = {
                combo: history.series(metric) for combo, history in histories.items()
            }
        out[ds_name] = data
    return out


def main(full: bool = False) -> None:
    results = run(full)
    figure_no = {"accuracy": 14, "gen_accuracy": 15, "avg_distance": 16}
    for ds_name, data in results.items():
        rounds = data["rounds"]
        for metric in METRICS:
            series = {k: v[::4] for k, v in data[metric].items()}
            print(
                format_series(
                    series,
                    rounds[::4],
                    title=f"Figure {figure_no[metric]} — {metric}, human panel ({ds_name})",
                )
            )
            print()


if __name__ == "__main__":
    main()
