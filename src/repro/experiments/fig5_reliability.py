"""Figure 5 — source reliability distribution in BirthPlaces.

Per source: the actual accuracy/generalized accuracy (from gold), TDH's
estimated ``phi_{s,1}``/``phi_{s,2}``, and ASUMS's single trust score
``t(s)``. The paper's point: ASUMS underestimates the reliability of sources
that generalize a lot (its single score conflates "generalized" with
"wrong"), while TDH separates the two.
"""

from __future__ import annotations

from typing import Dict, List

from ..eval.metrics import source_accuracy
from ..inference import Asums, TDHModel
from .common import format_table, load_birthplaces, scale


def run(full: bool = False) -> List[dict]:
    s = scale(full)
    dataset = load_birthplaces(s)
    tdh = TDHModel(max_iter=s.em_iterations, tol=s.em_tol).fit(dataset)
    asums_result = Asums(max_iter=s.em_iterations).fit(dataset)
    trust = asums_result.trust  # type: ignore[attr-defined]

    rows = []
    for source in dataset.sources:
        stats = source_accuracy(dataset, source)
        phi1, phi2, _phi3 = tdh.source_trustworthiness(source)
        rows.append(
            {
                "Source": source,
                "Claims": stats["claims"],
                "Accuracy": stats["accuracy"],
                "GenAccuracy": stats["gen_accuracy"],
                "phi_s1": phi1,
                "phi_s2": phi2,
                "t(s)": float(trust.get(source, 0.0)),
            }
        )
    rows.sort(key=lambda r: -r["Claims"])
    return rows


def main(full: bool = False) -> None:
    rows = run(full)
    print(
        format_table(
            rows,
            ["Source", "Claims", "Accuracy", "GenAccuracy", "phi_s1", "phi_s2", "t(s)"],
            title="Figure 5 — source reliability distribution (BirthPlaces)",
        )
    )
    # TDH should track the actual accuracy better than ASUMS's single score.
    tdh_err = sum(abs(r["phi_s1"] - r["Accuracy"]) for r in rows) / len(rows)
    asums_err = sum(abs(r["t(s)"] - r["Accuracy"]) for r in rows) / len(rows)
    print(f"\nmean |phi_s1 - accuracy| (TDH):   {tdh_err:.4f}")
    print(f"mean |t(s)  - accuracy| (ASUMS): {asums_err:.4f}")


if __name__ == "__main__":
    main()
