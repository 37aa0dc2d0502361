"""Quality measures from Section 5: Accuracy, GenAccuracy, AvgDistance.

The gold truth ``t_o`` may be absent from the candidate set ``Vo``; the paper
then substitutes "the most specific candidate value among the ancestors of
the truth" — implemented by :func:`effective_truth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..data.model import ObjectId, TruthDiscoveryDataset
from ..hierarchy.tree import Hierarchy, Value


def effective_truth(
    dataset: TruthDiscoveryDataset, obj: ObjectId, gold_value: Value
) -> Optional[Value]:
    """Gold truth projected onto the candidate set per the paper's convention.

    Returns ``gold_value`` if it is a candidate, otherwise the most specific
    candidate ancestor of it, otherwise ``None`` (object is unevaluable: no
    candidate is even a generalization of the truth — we keep it and count a
    miss, matching a fixed denominator of ``|O|``).
    """
    ctx = dataset.context(obj)
    if gold_value in ctx.index:
        return gold_value
    hierarchy = dataset.hierarchy
    best: Optional[Value] = None
    best_depth = -1
    for ancestor in hierarchy.ancestors(gold_value):
        if ancestor in ctx.index:
            depth = hierarchy.depth(ancestor)
            if depth > best_depth:
                best, best_depth = ancestor, depth
    return best


@dataclass(frozen=True)
class EvaluationReport:
    """The three Section-5 quality measures plus the evaluated object count."""

    accuracy: float
    gen_accuracy: float
    avg_distance: float
    num_objects: int

    def as_row(self) -> Dict[str, float]:
        """Row dict with the paper's column names."""
        return {
            "Accuracy": self.accuracy,
            "GenAccuracy": self.gen_accuracy,
            "AvgDistance": self.avg_distance,
        }


def evaluate(
    dataset: TruthDiscoveryDataset,
    estimated: Mapping[ObjectId, Value],
    gold: Optional[Mapping[ObjectId, Value]] = None,
) -> EvaluationReport:
    """Score estimated truths against the gold standard.

    * **Accuracy** — fraction of objects where the estimate equals the
      (effective) truth exactly.
    * **GenAccuracy** — fraction where the estimate is the truth or one of its
      ancestors (correct but possibly less specific).
    * **AvgDistance** — mean hierarchy-edge distance between estimate and
      truth; robust to the gold being *less* specific than the estimate.

    Objects without a gold value are skipped; objects whose gold value has no
    candidate projection count as misses with a distance measured from the
    original gold node.
    """
    gold = gold if gold is not None else dataset.gold
    hierarchy = dataset.hierarchy
    # One bulk read: a lazy mapping (e.g. a columnar result's truths) pays
    # per-key work on single reads but materialises once through items().
    estimated = dict(estimated.items())
    n = 0
    exact = 0
    generalized = 0
    total_distance = 0.0
    for obj, gold_value in gold.items():
        if obj not in estimated:
            continue
        n += 1
        estimate = estimated[obj]
        target = effective_truth(dataset, obj, gold_value)
        reference = target if target is not None else gold_value
        if estimate == reference:
            exact += 1
            generalized += 1
        elif hierarchy.is_ancestor(estimate, reference):
            generalized += 1
        total_distance += hierarchy.distance(estimate, reference)
    if n == 0:
        raise ValueError("no overlapping objects between estimates and gold")
    return EvaluationReport(
        accuracy=exact / n,
        gen_accuracy=generalized / n,
        avg_distance=total_distance / n,
        num_objects=n,
    )


def source_accuracy(
    dataset: TruthDiscoveryDataset,
    source,
    gold: Optional[Mapping[ObjectId, Value]] = None,
) -> Dict[str, float]:
    """Per-source exact and generalized accuracy (Figure 1 / Figure 5).

    ``accuracy`` is the fraction of the source's claims that match the
    effective truth exactly; ``gen_accuracy`` also counts claims that are
    ancestors of it (hierarchically correct).
    """
    gold = gold if gold is not None else dataset.gold
    hierarchy = dataset.hierarchy
    n = 0
    exact = 0
    generalized = 0
    for obj in dataset.objects_of_source(source):
        if obj not in gold:
            continue
        claimed = dataset.records_for(obj).get(source)
        if claimed is None:
            continue
        target = effective_truth(dataset, obj, gold[obj])
        reference = target if target is not None else gold[obj]
        n += 1
        if claimed == reference:
            exact += 1
            generalized += 1
        elif hierarchy.is_ancestor(claimed, reference):
            generalized += 1
    if n == 0:
        return {"claims": 0, "accuracy": 0.0, "gen_accuracy": 0.0}
    return {"claims": n, "accuracy": exact / n, "gen_accuracy": generalized / n}
