"""Shared crowdsourcing-run helper for the Figure 6-17 / Table 4 experiments."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..crowd.simulator import CrowdSimulator, SimulationHistory
from ..crowd.workers import SimulatedWorker, make_worker_pool
from ..data.model import TruthDiscoveryDataset
from .common import ExperimentScale, make_combo


def run_combo(
    dataset: TruthDiscoveryDataset,
    inference: str,
    assigner: str,
    s: ExperimentScale,
    workers: Optional[Sequence[SimulatedWorker]] = None,
    rounds: Optional[int] = None,
    pi_p: float = 0.75,
    worker_seed: int = 3,
    answer_seed: int = 5,
    evaluate_every: int = 1,
    incremental: bool = False,
) -> SimulationHistory:
    """Run one inference+assignment combo through the crowdsourcing loop.

    ``incremental`` makes the supporting models re-converge only each
    round's dirty frontier.
    """
    model, task_assigner = make_combo(inference, assigner, s, incremental=incremental)
    panel = (
        list(workers)
        if workers is not None
        else make_worker_pool(s.workers, pi_p=pi_p, seed=worker_seed)
    )
    simulator = CrowdSimulator(
        dataset, model, task_assigner, panel, seed=answer_seed
    )
    return simulator.run(
        rounds=rounds if rounds is not None else s.rounds,
        tasks_per_worker=s.tasks_per_worker,
        evaluate_every=evaluate_every,
    )


def run_combos(
    dataset: TruthDiscoveryDataset,
    combos: Sequence[Tuple[str, str]],
    s: ExperimentScale,
    **kwargs,
) -> Dict[str, SimulationHistory]:
    """Run several combos on (copies of) the same dataset; keyed "INF+ASG"."""
    out: Dict[str, SimulationHistory] = {}
    for inference, assigner in combos:
        out[f"{inference}+{assigner}"] = run_combo(
            dataset, inference, assigner, s, **kwargs
        )
    return out
