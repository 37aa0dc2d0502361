"""Figure 12 — execution time per crowdsourcing round.

Average truth-inference and task-assignment seconds per round for every
Table-4 combo. Absolute times depend on the machine. The paper reports VOTE
fastest, LFC slow where candidate sets are large and ACCU/POPACCU slow where
sources are many (pairwise dependence analysis). Each combo here times the
single implementation its classes have — the columnar engine for every
ported algorithm and for EAI/QASCA — so the table shows what users run: in
quick mode VOTE stays fastest, every ported algorithm's inference takes a
few milliseconds per round, and MDC (per-object loops) and MB's assignment
dominate.
"""

from __future__ import annotations

from typing import Dict, List

from .common import TABLE4_COMBOS, both_datasets, format_table, scale
from .crowd_runs import run_combo

# One representative combo per inference algorithm, as plotted in Figure 12.
FIG12_COMBOS = (
    ("VOTE", "ME"),
    ("CRH", "ME"),
    ("POPACCU", "ME"),
    ("ACCU", "ME"),
    ("DOCS", "MB"),
    ("TDH", "EAI"),
    ("MDC", "ME"),
    ("LCA", "ME"),
    ("ASUMS", "ME"),
    ("LFC", "ME"),
)


def run(full: bool = False, rounds: int = 5) -> Dict[str, List[dict]]:
    s = scale(full)
    out: Dict[str, List[dict]] = {}
    for ds_name, dataset in both_datasets(s).items():
        rows = []
        for inference, assigner in FIG12_COMBOS:
            history = run_combo(
                dataset,
                inference,
                assigner,
                s,
                rounds=rounds,
                evaluate_every=1,
            )
            records = history.records[1:]
            inf_time = sum(r.inference_seconds for r in records) / len(records)
            asg_time = sum(r.assignment_seconds for r in records) / len(records)
            rows.append(
                {
                    "Combo": f"{inference}+{assigner}",
                    "Inference(s)": inf_time,
                    "Assignment(s)": asg_time,
                    "Total(s)": inf_time + asg_time,
                }
            )
        rows.sort(key=lambda r: r["Total(s)"])
        out[ds_name] = rows
    return out


def main(full: bool = False) -> None:
    results = run(full)
    for ds_name, rows in results.items():
        print(
            format_table(
                rows,
                ["Combo", "Inference(s)", "Assignment(s)", "Total(s)"],
                title=f"Figure 12 — execution time per round ({ds_name})",
            )
        )
        print()


if __name__ == "__main__":
    main()
