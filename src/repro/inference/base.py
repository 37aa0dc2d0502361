"""Common interfaces for truth-inference algorithms.

Every algorithm consumes a :class:`~repro.data.model.TruthDiscoveryDataset`
and produces an :class:`InferenceResult` holding a per-object *confidence
distribution* over candidate values. Single-truth algorithms pick the argmax;
multi-truth algorithms (LTM, DART, LFC-MT) additionally report a value set per
object via :meth:`InferenceResult.truth_sets`.
"""

from __future__ import annotations

import abc
import warnings
from collections.abc import Mapping as AbstractMapping
from typing import Dict, Hashable, List, Mapping, Optional, Set

import numpy as np

from ..data.model import ObjectId, TruthDiscoveryDataset
from ..hierarchy.tree import Value


class LazyConfidences(AbstractMapping):
    """``object -> confidence vector`` sliced lazily off one flat slot array.

    The columnar fits used to materialise this dict eagerly — an
    O(n_objects) Python loop that dominated incremental refits once the
    frontier shrank below the corpus. This read-only view keeps just the
    encoding and the flat array; each lookup slices the object's slot run
    (a numpy view, no copy), so building a result costs O(1) regardless of
    corpus size. ``dict(view)`` materialises when a mutable copy is needed.
    """

    def __init__(self, columnar, flat: np.ndarray) -> None:
        self._col = columnar
        self._flat = flat

    def __getitem__(self, obj: ObjectId) -> np.ndarray:
        col = self._col
        oid = col.object_index[obj]
        return self._flat[col.value_offsets[oid] : col.value_offsets[oid + 1]]

    def __iter__(self):
        return iter(self._col.objects)

    def __len__(self) -> int:
        return self._col.n_objects

    def __contains__(self, obj: object) -> bool:
        return obj in self._col.object_index

    def __eq__(self, other: object) -> bool:
        # The Mapping mixin compares via ``dict(self) == dict(other)``, which
        # raises on ndarray values; compare per key instead.
        if not isinstance(other, AbstractMapping):
            return NotImplemented
        if len(self) != len(other):
            return False
        missing = object()
        return all(
            np.array_equal(vec, other.get(obj, missing)) for obj, vec in self.items()
        )

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self._col.n_objects} objects)"


class LazyTruths(AbstractMapping):
    """``object -> argmax truth`` computed on demand off the flat array.

    Single reads (the serving hot path) pay one small-slice ``argmax``; bulk
    access (``items()``/``values()``/equality) materialises the full dict
    once with the vectorized per-segment argmax and caches it. Compares
    equal to a plain dict with the same contents (the :class:`Mapping` ABC
    contract), so pinned ``snapshot.truths == cold.truths()`` tests hold.
    """

    def __init__(self, columnar, flat: np.ndarray) -> None:
        self._col = columnar
        self._flat = flat
        self._dense: Optional[Dict[ObjectId, Value]] = None

    def _materialize(self) -> Dict[ObjectId, Value]:
        if self._dense is None:
            col = self._col
            slots = col.segment_argmax_slot(self._flat)
            vids = col.slot_vid[slots]
            self._dense = {obj: col.values[vid] for obj, vid in zip(col.objects, vids)}
        return self._dense

    def __getitem__(self, obj: ObjectId) -> Value:
        if self._dense is not None:
            return self._dense[obj]
        col = self._col
        oid = col.object_index[obj]
        lo = int(col.value_offsets[oid])
        hi = int(col.value_offsets[oid + 1])
        return col.values[col.slot_vid[lo + int(np.argmax(self._flat[lo:hi]))]]

    def __iter__(self):
        return iter(self._col.objects)

    def __len__(self) -> int:
        return self._col.n_objects

    def __contains__(self, obj: object) -> bool:
        return obj in self._col.object_index

    def items(self):
        return self._materialize().items()

    def values(self):
        return self._materialize().values()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractMapping):
            return NotImplemented
        return self._materialize() == dict(other)

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self._col.n_objects} objects)"


class LazyObjectScalars(AbstractMapping):
    """``object -> float`` view over one per-object array (e.g. the TDH
    confidence denominators), replacing an O(n_objects) ``dict(zip(...))``
    at result-construction time with O(1)."""

    def __init__(self, columnar, values: np.ndarray) -> None:
        self._col = columnar
        self._values = values

    def __getitem__(self, obj: ObjectId) -> float:
        return float(self._values[self._col.object_index[obj]])

    def __iter__(self):
        return iter(self._col.objects)

    def __len__(self) -> int:
        return self._col.n_objects

    def __contains__(self, obj: object) -> bool:
        return obj in self._col.object_index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self._col.n_objects} objects)"


class LazyClaimantTrust(AbstractMapping):
    """``claimant -> trust row`` view over one ``(n_claimants, 3)`` array,
    for one claimant kind: sources (keyed by source id) or workers (keyed by
    worker id, without the ``("worker", w)`` wrapper).

    Keys resolve through the dataset's claimant table, which numbered the
    encoding's claimants. A claimant numbered after the fit (an id past the
    encoding's ``n_claimants``), or one of the other kind, is not a key.
    Each lookup returns a row of ``trust`` (a numpy view, no copy);
    iteration walks the encoding's claimant table in id order. Building the
    view is O(1), where the per-claimant dict it replaces cost an
    O(n_claimants) Python loop on every fit.
    """

    def __init__(
        self, dataset: TruthDiscoveryDataset, columnar, trust: np.ndarray, workers: bool
    ) -> None:
        self._dataset = dataset
        self._col = columnar
        self._trust = trust
        self._workers = workers

    def _cid(self, key) -> Optional[int]:
        col = self._col
        cid = self._dataset._claimant_ids.get(("worker", key) if self._workers else key)
        if cid is None or cid >= col.n_claimants:
            return None
        return cid if bool(col.claimant_is_worker[cid]) == self._workers else None

    def __getitem__(self, key) -> np.ndarray:
        cid = self._cid(key)
        if cid is None:
            raise KeyError(key)
        return self._trust[cid]

    def __iter__(self):
        claimants = self._col.claimants
        cids = np.flatnonzero(self._col.claimant_is_worker == self._workers)
        if self._workers:
            return (claimants[cid][1] for cid in cids)
        return (claimants[cid] for cid in cids)

    def __len__(self) -> int:
        n_workers = int(np.count_nonzero(self._col.claimant_is_worker))
        return n_workers if self._workers else self._col.n_claimants - n_workers

    def __contains__(self, key: object) -> bool:
        return self._cid(key) is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "workers" if self._workers else "sources"
        return f"{type(self).__name__}({len(self)} {kind})"


class InferenceResult:
    """Per-object confidence distributions and derived truths.

    Parameters
    ----------
    dataset:
        The dataset the algorithm was fitted on.
    confidences:
        ``object -> probability vector`` aligned with
        ``dataset.context(obj).values``. Vectors need not be normalised for
        score-based algorithms; :meth:`confidence` normalises on read.
    iterations / converged:
        Optional fitting diagnostics.
    """

    #: Number of objects re-converged by an incremental fit; ``None`` when
    #: the result came from a full (cold or saturated-frontier) fit.
    frontier_size: Optional[int] = None
    #: ``{"version", "hops", "frontier", "cids"}`` attached by incremental
    #: fits so the next round can reuse the computed frontier when its delta
    #: overlaps this one (:func:`repro.data.columnar.incremental_frontier`).
    frontier_state: Optional[dict] = None

    def __init__(
        self,
        dataset: TruthDiscoveryDataset,
        confidences: Mapping[ObjectId, np.ndarray],
        iterations: int = 0,
        converged: bool = True,
    ) -> None:
        self.dataset = dataset
        if isinstance(confidences, LazyConfidences):
            # Already float64 slices of one flat array — coercing would
            # materialise the O(n_objects) dict the lazy view exists to avoid.
            self.confidences: Mapping[ObjectId, np.ndarray] = confidences
        else:
            self.confidences = {
                obj: vec
                if type(vec) is np.ndarray and vec.dtype == np.float64
                else np.asarray(vec, dtype=float)
                for obj, vec in confidences.items()
            }
        self.iterations = iterations
        self.converged = converged
        #: Record-mutation counter at fit time; half of the warm-start gate
        #: (:func:`validate_warm_start`).
        self.records_version = getattr(dataset, "_records_version", 0)
        #: Full mutation counter at fit time; lets the warm-start gate ask
        #: the oplog whether the record window since the fit is append-only.
        self.dataset_version = getattr(dataset, "_version", 0)

    def confidence(self, obj: ObjectId) -> Dict[Value, float]:
        """Normalised ``value -> confidence`` for ``obj``."""
        vec = self.confidences[obj]
        total = float(vec.sum())
        values = self.dataset.context(obj).values
        if total <= 0:
            uniform = 1.0 / len(values)
            return {value: uniform for value in values}
        return {value: float(p) / total for value, p in zip(values, vec)}

    def truth(self, obj: ObjectId) -> Value:
        """The estimated truth for ``obj`` (argmax confidence, Eq. 12)."""
        vec = self.confidences[obj]
        return self.dataset.context(obj).values[int(np.argmax(vec))]

    def truths(self) -> Dict[ObjectId, Value]:
        """Estimated truth for every object."""
        return {obj: self.truth(obj) for obj in self.confidences}

    def truth_sets(self) -> Dict[ObjectId, Set[Value]]:
        """Multi-truth view; single-truth algorithms return singletons."""
        return {obj: {self.truth(obj)} for obj in self.confidences}


class ColumnarInferenceResult(InferenceResult):
    """An :class:`InferenceResult` backed by a flat per-slot array.

    The columnar fast paths produce one ``(n_slots,)`` confidence array; both
    dict views are lazy wrappers over it (:class:`LazyConfidences` /
    :class:`LazyTruths`), so constructing and publishing a result is O(1) in
    the number of objects — per-publish cost scales with the frontier, not
    the corpus.
    """

    def __init__(
        self,
        dataset: TruthDiscoveryDataset,
        columnar,
        flat: np.ndarray,
        iterations: int = 0,
        converged: bool = True,
    ) -> None:
        self.dataset = dataset
        self._columnar = columnar
        self.flat = np.asarray(flat, dtype=float)
        self.iterations = iterations
        self.converged = converged
        self.records_version = getattr(dataset, "_records_version", 0)
        self.dataset_version = getattr(dataset, "_version", 0)
        self._confidences: Optional[LazyConfidences] = None

    @property
    def confidences(self) -> Mapping[ObjectId, np.ndarray]:
        if self._confidences is None:
            self._confidences = LazyConfidences(self._columnar, self.flat)
        return self._confidences

    def truths(self) -> Mapping[ObjectId, Value]:
        return LazyTruths(self._columnar, self.flat)


class TruthInferenceAlgorithm(abc.ABC):
    """Base class for truth-inference algorithms.

    Subclasses set :attr:`name` (the label used in the paper's tables) and
    implement :meth:`fit`. Algorithms that model crowd answers consume both
    records and answers; the rest fold answers in as extra single-claim
    sources, which is how the paper combines source-only baselines with task
    assignment (``X+ME`` rows in Table 4).
    """

    name: str = "base"
    supports_workers: bool = False
    #: ``True`` when ``fit`` accepts ``warm_start=`` and (with the model's
    #: ``incremental`` knob on) can re-converge only the dirty frontier of a
    #: previous result — the round-loop callers key on this to thread the
    #: previous round's result through.
    supports_incremental: bool = False

    @abc.abstractmethod
    def fit(self, dataset: TruthDiscoveryDataset) -> InferenceResult:
        """Run inference and return confidences over candidate values."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class WarmStartDegradation(RuntimeWarning):
    """A warm start was refused and the fit degraded to a cold start.

    Carries a machine-readable :attr:`reason` (``"clone"`` or
    ``"unservable-record-window"``) so the serving worker can tally
    degradations per cause structurally; the message still begins with
    :data:`WARM_START_DEGRADED_PREFIX` for anything matching on text.
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


def validate_warm_start(
    dataset: TruthDiscoveryDataset, warm_start: Optional[InferenceResult]
) -> Optional[InferenceResult]:
    """Refuse a warm start whose claimant/value keys cannot be trusted.

    A previous result seeds trust/reliability/confidence state keyed by this
    dataset's claimants and candidate values. Fitted on a *clone* — even a
    claim-identical one — those keys silently mismatch (a clone numbers the
    claimants it gains after the copy independently), so the gate requires
    dataset identity. Record *appends*
    are accepted: candidate sets only ever grow under an append, every
    full-fit consumer seeds by claimant/value key (robust to growth), and
    the incremental paths re-validate the op window themselves via
    :func:`repro.data.columnar.incremental_frontier`. What still degrades —
    with a :class:`WarmStartDegradation` carrying a structured reason — is a
    record window the oplog cannot vouch for: an in-place overwrite, or a
    window trimmed past the fit (``MAX_OPLOG``), either of which may have
    changed candidate sets in place.
    """
    if warm_start is None:
        return None
    label = repr(dataset.name) if getattr(dataset, "name", "") else "<unnamed>"
    if warm_start.dataset is not dataset:
        warnings.warn(
            WarmStartDegradation(
                warm_start_degradation_message(
                    label,
                    "it was fitted on a different dataset object (a clone?), so"
                    " its claimant/slot keys cannot be trusted",
                ),
                reason="clone",
            ),
            stacklevel=3,
        )
        return None
    current = getattr(dataset, "_records_version", 0)
    if warm_start.records_version != current:
        fitted_version = getattr(warm_start, "dataset_version", None)
        ops_since = getattr(dataset, "_ops_since", None)
        window = (
            ops_since(fitted_version)
            if ops_since is not None and fitted_version is not None
            else None
        )
        if window is None:
            warnings.warn(
                WarmStartDegradation(
                    warm_start_degradation_message(
                        label,
                        f"it was fitted at records_version"
                        f" {warm_start.records_version} but the record window"
                        f" to the current records_version {current} is not an"
                        " append-only op log (an in-place overwrite, or a"
                        " window trimmed past the fit), so candidate sets may"
                        " have changed in place",
                    ),
                    reason="unservable-record-window",
                ),
                stacklevel=3,
            )
            return None
    return warm_start


#: Shared prefix of every warm-start degradation warning. The serving layer's
#: EM worker counts degradations structurally (``isinstance(...,
#: WarmStartDegradation)``, per :attr:`WarmStartDegradation.reason`); the
#: prefix remains for log grepping, and ``tests/test_incremental_em.py``
#: asserts the exact composed messages.
WARM_START_DEGRADED_PREFIX = "warm_start degraded to a cold fit for dataset "


def warm_start_degradation_message(dataset_label: str, reason: str) -> str:
    """The exact warning text for a refused warm start (one format, two gates)."""
    return f"{WARM_START_DEGRADED_PREFIX}{dataset_label}: {reason}"


def initial_confidences(dataset: TruthDiscoveryDataset) -> Dict[ObjectId, np.ndarray]:
    """Vote-proportion initial confidence for every object.

    Counts both records and answers; this is the standard EM initialisation
    used across the probabilistic algorithms in this package.
    """
    out: Dict[ObjectId, np.ndarray] = {}
    for obj in dataset.objects:
        ctx = dataset.context(obj)
        counts = np.zeros(ctx.size, dtype=float)
        for value in dataset.records_for(obj).values():
            counts[ctx.index[value]] += 1.0
        for value in dataset.answers_for(obj).values():
            counts[ctx.index[value]] += 1.0
        total = counts.sum()
        out[obj] = counts / total if total > 0 else np.full(ctx.size, 1.0 / ctx.size)
    return out


def claim_counts(dataset: TruthDiscoveryDataset, obj: ObjectId) -> np.ndarray:
    """Number of *source* claims per candidate value of ``obj``."""
    ctx = dataset.context(obj)
    counts = np.zeros(ctx.size, dtype=float)
    for value in dataset.records_for(obj).values():
        counts[ctx.index[value]] += 1.0
    return counts
