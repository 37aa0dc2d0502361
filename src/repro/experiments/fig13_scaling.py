"""Figure 13 — effect of the UEAI filtering on task-assignment time at scale.

The dataset is duplicated by a scale factor (the paper uses up to 15x) and
EAI assignment runs with and without the Lemma-4.1 upper-bound pruning. The
assignments must be identical; the pruned variant should evaluate far fewer
EAI scores and run faster as the scale grows. "EAI evals" counts the
quality-measure lookups of Algorithm 1's walk, "EAI pairs" the (worker,
object) pairs actually computed: the assigner computes each worker's values
in blocks along the UEAI order, so its pairs can exceed its lookups. One
separately timed truth-inference pass (CRH) shows how inference time grows
with the object count next to assignment time.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from ..assignment import EAIAssigner
from ..crowd.workers import make_worker_pool
from ..inference import Crh, TDHModel
from .common import both_datasets, format_table, scale


def run(
    full: bool = False,
    factors: Sequence[int] | None = None,
) -> Dict[str, List[dict]]:
    s = scale(full)
    factors = factors if factors is not None else ((5, 10, 15) if full else (1, 2, 4))
    workers = make_worker_pool(s.workers, seed=3)
    worker_ids = [w.worker_id for w in workers]
    out: Dict[str, List[dict]] = {}
    for ds_name, dataset in both_datasets(s).items():
        rows = []
        for factor in factors:
            scaled = dataset.scaled(factor)
            model = TDHModel(max_iter=min(s.em_iterations, 15), tol=s.em_tol)
            result = model.fit(scaled)

            crh = Crh(max_iter=min(s.em_iterations, 20), tol=s.em_tol)
            t0 = time.perf_counter()
            crh.fit(scaled)
            crh_time = time.perf_counter() - t0

            pruned = EAIAssigner(use_pruning=True)
            t0 = time.perf_counter()
            assignment_pruned = pruned.assign(scaled, result, worker_ids, s.tasks_per_worker)
            pruned_time = time.perf_counter() - t0

            unpruned = EAIAssigner(use_pruning=False)
            t0 = time.perf_counter()
            assignment_full = unpruned.assign(scaled, result, worker_ids, s.tasks_per_worker)
            full_time = time.perf_counter() - t0

            if assignment_pruned != assignment_full:
                raise AssertionError("pruning changed the assignment — bug")
            rows.append(
                {
                    "Scale": factor,
                    "Objects": len(scaled.objects),
                    "with filtering(s)": pruned_time,
                    "w/o filtering(s)": full_time,
                    "EAI evals (filtered)": pruned.eai_evaluations,
                    "EAI evals (all)": unpruned.eai_evaluations,
                    "EAI pairs (filtered)": pruned.eai_pairs_computed,
                    "EAI pairs (all)": unpruned.eai_pairs_computed,
                    "time saved": 1.0 - pruned_time / full_time if full_time > 0 else 0.0,
                    "CRH TI(s)": crh_time,
                }
            )
        out[ds_name] = rows
    return out


def main(full: bool = False) -> None:
    results = run(full)
    for ds_name, rows in results.items():
        print(
            format_table(
                rows,
                [
                    "Scale",
                    "Objects",
                    "with filtering(s)",
                    "w/o filtering(s)",
                    "EAI evals (filtered)",
                    "EAI evals (all)",
                    "EAI pairs (filtered)",
                    "EAI pairs (all)",
                    "time saved",
                    "CRH TI(s)",
                ],
                title=f"Figure 13 — task-assignment time vs scale ({ds_name})",
            )
        )
        print()


if __name__ == "__main__":
    main()
