"""Figure 6 — task-assignment comparison with the TDH inference fixed.

Accuracy vs crowdsourcing round for TDH+EAI, TDH+QASCA and TDH+ME on both
datasets. Expected shape: EAI climbs fastest; ME (uncertainty only) slowest.
"""

from __future__ import annotations

from typing import Dict

from .common import both_datasets, format_series, format_sparklines, scale
from .crowd_runs import run_combos

ASSIGNERS = ("EAI", "QASCA", "ME")


def run(full: bool = False, incremental: bool = False) -> Dict[str, Dict[str, list]]:
    """Per dataset: {"rounds": [...], "TDH+EAI": [accuracy...], ...}."""
    s = scale(full)
    out: Dict[str, Dict[str, list]] = {}
    for ds_name, dataset in both_datasets(s).items():
        histories = run_combos(
            dataset, [("TDH", a) for a in ASSIGNERS], s, incremental=incremental
        )
        series: Dict[str, list] = {}
        rounds = None
        for combo, history in histories.items():
            rounds = [r.round for r in history.records]
            series[combo] = history.series("accuracy")
        out[ds_name] = {"rounds": rounds or [], **series}
    return out


def main(full: bool = False, incremental: bool = False) -> None:
    results = run(full, incremental=incremental)
    for ds_name, data in results.items():
        rounds = data.pop("rounds")
        shown = {k: v[::5] for k, v in data.items()}
        print(
            format_series(
                shown,
                rounds[::5],
                title=f"Figure 6 — Accuracy vs round ({ds_name}, every 5th round)",
            )
        )
        print()
        print(format_sparklines(data, title=f"(trajectories, {ds_name})"))
        print()


if __name__ == "__main__":
    main()
