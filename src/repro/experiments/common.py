"""Shared infrastructure for the paper-experiment harness.

Every experiment module exposes ``run(...) -> dict`` returning the rows or
series the corresponding table/figure reports, and can be executed as
``python -m repro.experiments <name> [--full]``. ``fast`` settings shrink the
datasets and round counts so the whole suite finishes on a laptop in minutes;
``--full`` uses the paper's scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..assignment import EAIAssigner, MaxEntropyAssigner, MbAssigner, QascaAssigner
from ..assignment.base import TaskAssigner
from ..data.model import TruthDiscoveryDataset
from ..datasets import make_birthplaces, make_heritages
from ..inference import (
    Accu,
    Asums,
    Crh,
    Docs,
    GuessLca,
    Lfc,
    Mdc,
    PopAccu,
    TDHModel,
    Vote,
)
from ..inference.base import TruthInferenceAlgorithm


@dataclass(frozen=True)
class ExperimentScale:
    """Dataset / crowdsourcing scale knobs shared by all experiments."""

    birthplaces_size: int
    heritages_size: int
    heritages_sources: int
    rounds: int
    workers: int
    tasks_per_worker: int
    em_iterations: int

    @property
    def em_tol(self) -> float:
        return 1e-4


# Scaled so the crowd budget per object matches the paper's regime:
# BirthPlaces 50 rounds x 50 answers / 6005 objects ~ 0.42 answers/object
# (scarce — assignment quality decides the outcome); Heritages ~ 3.2
# (plentiful). 10 rounds x 50 answers with these sizes keeps both ratios.
FAST = ExperimentScale(
    birthplaces_size=1200,
    heritages_size=160,
    heritages_sources=350,
    rounds=10,
    workers=10,
    tasks_per_worker=5,
    em_iterations=25,
)

FULL = ExperimentScale(
    birthplaces_size=6005,
    heritages_size=785,
    heritages_sources=1577,
    rounds=50,
    workers=10,
    tasks_per_worker=5,
    em_iterations=50,
)


def scale(full: bool = False) -> ExperimentScale:
    """The fast (default) or paper-scale settings."""
    return FULL if full else FAST


def load_birthplaces(s: ExperimentScale, seed: int = 7) -> TruthDiscoveryDataset:
    return make_birthplaces(size=s.birthplaces_size, seed=seed)


def load_heritages(s: ExperimentScale, seed: int = 11) -> TruthDiscoveryDataset:
    return make_heritages(
        size=s.heritages_size, n_sources=s.heritages_sources, seed=seed
    )


def both_datasets(s: ExperimentScale) -> Dict[str, TruthDiscoveryDataset]:
    return {"BirthPlaces": load_birthplaces(s), "Heritages": load_heritages(s)}


# ---------------------------------------------------------------------------
# algorithm registries (the paper's Section 5.1 lists)
# ---------------------------------------------------------------------------
def inference_factories(
    s: ExperimentScale, incremental: bool = False
) -> Dict[str, Callable[[], TruthInferenceAlgorithm]]:
    """The ten single-truth inference algorithms of Table 3.

    ``incremental`` (the CLI's ``--incremental``) turns on dirty-frontier
    warm-started EM for the algorithms that support it (TDH and LFC here):
    each crowd round re-converges only the objects touched by new answers.
    """
    iters = s.em_iterations
    tol = s.em_tol
    return {
        "TDH": lambda: TDHModel(max_iter=iters, tol=tol, incremental=incremental),
        "VOTE": Vote,
        "LCA": lambda: GuessLca(max_iter=iters, tol=tol),
        "DOCS": lambda: Docs(max_iter=iters, tol=tol),
        "ASUMS": lambda: Asums(max_iter=iters, tol=tol),
        "MDC": lambda: Mdc(max_iter=min(iters, 20), tol=tol),
        "ACCU": lambda: Accu(max_iter=min(iters, 15), tol=tol),
        "POPACCU": lambda: PopAccu(max_iter=min(iters, 15), tol=tol),
        "LFC": lambda: Lfc(max_iter=min(iters, 20), tol=tol, incremental=incremental),
        "CRH": lambda: Crh(max_iter=min(iters, 20), tol=tol),
    }


def assigner_factories() -> Dict[str, Callable[[], TaskAssigner]]:
    """The Table-4 assignment policies."""
    return {
        "EAI": EAIAssigner,
        "QASCA": lambda: QascaAssigner(seed=0),
        "ME": lambda: MaxEntropyAssigner(),
        "MB": lambda: MbAssigner(),
    }


# Valid inference x assignment pairings (Table 4; '-' cells are impossible).
TABLE4_COMBOS: Dict[str, Sequence[str]] = {
    "TDH": ("EAI", "QASCA", "ME"),
    "DOCS": ("MB", "QASCA", "ME"),
    "LCA": ("QASCA", "ME"),
    "POPACCU": ("QASCA", "ME"),
    "ACCU": ("QASCA", "ME"),
    "ASUMS": ("ME",),
    "CRH": ("ME",),
    "MDC": ("ME",),
    "LFC": ("ME",),
    "VOTE": ("ME",),
}

# The best / second-best combos the paper focuses on in Figures 8-10, 14-17.
HEADLINE_COMBOS: Sequence[Sequence[str]] = (
    ("TDH", "EAI"),
    ("VOTE", "ME"),
    ("LCA", "ME"),
    ("DOCS", "MB"),
    ("DOCS", "QASCA"),
)


def make_combo(
    inference: str,
    assigner: str,
    s: ExperimentScale,
    incremental: bool = False,
) -> tuple[TruthInferenceAlgorithm, TaskAssigner]:
    """Instantiate an inference+assignment pair by name.

    ``incremental`` switches the supporting models to dirty-frontier
    warm-started rounds.
    """
    factories = inference_factories(s, incremental=incremental)
    model = factories[inference]()
    task_assigner = assigner_factories()[assigner]()
    return model, task_assigner


# ---------------------------------------------------------------------------
# table formatting
# ---------------------------------------------------------------------------
def format_table(
    rows: Iterable[Dict[str, object]],
    columns: Sequence[str],
    title: str = "",
    float_format: str = "{:.4f}",
) -> str:
    """Render rows as a fixed-width text table with the paper's column names."""
    rows = list(rows)
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "-")
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) if rendered else len(col)
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-" * len(header))
    for cells in rendered:
        lines.append("  ".join(cells[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Render a numeric series as a unicode sparkline (terminal "figure").

    ``lo``/``hi`` pin the scale (useful when comparing several series);
    defaults to the series' own range. Constant series render mid-height.
    """
    values = [float(v) for v in values]
    if not values:
        return ""
    low = min(values) if lo is None else lo
    high = max(values) if hi is None else hi
    span = high - low
    if span <= 0:
        return SPARK_BLOCKS[3] * len(values)
    out = []
    for value in values:
        position = (value - low) / span
        index = min(int(position * len(SPARK_BLOCKS)), len(SPARK_BLOCKS) - 1)
        out.append(SPARK_BLOCKS[max(index, 0)])
    return "".join(out)


def format_sparklines(
    series: Dict[str, Sequence[float]], title: str = "", width: int = 12
) -> str:
    """Render named series as aligned sparklines with min/max annotations."""
    lines = [title] if title else []
    all_values = [v for values in series.values() for v in values]
    if not all_values:
        return title
    lo, hi = min(all_values), max(all_values)
    name_width = max((len(name) for name in series), default=0)
    for name, values in series.items():
        lines.append(
            f"{name.ljust(name_width)}  {sparkline(values, lo, hi)}"
            f"  [{values[0]:.4f} -> {values[-1]:.4f}]"
        )
    lines.append(f"{'scale'.ljust(name_width)}  lo={lo:.4f} hi={hi:.4f}")
    return "\n".join(lines)


def format_series(
    series: Dict[str, Sequence[float]],
    xs: Sequence[object],
    x_label: str = "Round",
    title: str = "",
    float_format: str = "{:.4f}",
) -> str:
    """Render named series (one column per name) against shared x values."""
    columns = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(xs):
        row: Dict[str, object] = {x_label: x}
        for name, values in series.items():
            row[name] = float(values[i]) if i < len(values) else float("nan")
        rows.append(row)
    return format_table(rows, columns, title=title, float_format=float_format)
