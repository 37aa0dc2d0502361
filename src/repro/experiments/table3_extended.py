"""Extended Table 3 — the paper's roster plus the classic algorithms.

Adds the link-analysis family (SUMS, AverageLog, Investment,
PooledInvestment), TruthFinder, Dawid-Skene and ZenCrowd to the Table-3
comparison. These are the algorithms the paper's related-work section and the
survey it cites ([40]) discuss; including them shows where the hierarchy-aware
model sits against the broader field.
"""

from __future__ import annotations

from typing import Dict, List

from ..eval.metrics import evaluate
from ..inference import (
    AverageLog,
    DawidSkene,
    Investment,
    PooledInvestment,
    Sums,
    TruthFinder,
    ZenCrowd,
)
from .common import both_datasets, format_table, inference_factories, scale


def extra_factories(s) -> Dict[str, object]:
    """The seven extended algorithms: the link-analysis family, DS and
    ZENCROWD."""
    iters = min(s.em_iterations, 20)
    return {
        "SUMS": lambda: Sums(max_iter=iters),
        "AVGLOG": lambda: AverageLog(max_iter=iters),
        "INVEST": lambda: Investment(max_iter=iters),
        "POOLED": lambda: PooledInvestment(max_iter=iters),
        "TRUTHFINDER": lambda: TruthFinder(max_iter=iters),
        "DS": lambda: DawidSkene(max_iter=iters),
        "ZENCROWD": lambda: ZenCrowd(max_iter=iters),
    }


def run(full: bool = False) -> Dict[str, List[dict]]:
    s = scale(full)
    factories = dict(inference_factories(s))
    factories.update(extra_factories(s))
    out: Dict[str, List[dict]] = {}
    for ds_name, dataset in both_datasets(s).items():
        rows = []
        for name, factory in factories.items():
            result = factory().fit(dataset)
            report = evaluate(dataset, result.truths())
            rows.append({"Algorithm": name, **report.as_row()})
        rows.sort(key=lambda r: -r["Accuracy"])
        out[ds_name] = rows
    return out


def main(full: bool = False) -> None:
    results = run(full)
    for ds_name, rows in results.items():
        print(
            format_table(
                rows,
                ["Algorithm", "Accuracy", "GenAccuracy", "AvgDistance"],
                title=f"Extended Table 3 — 17 algorithms ({ds_name})",
            )
        )
        print()


if __name__ == "__main__":
    main()
