"""Core data model: records, answers and the truth-discovery dataset.

Terminology follows the paper (Section 2.1):

* a **record** ``(o, s, v)`` is a claim by web *source* ``s`` that object
  ``o`` has value ``v``;
* an **answer** ``(o, w, v)`` is the same, from a crowd *worker* ``w``;
* ``Vo`` is the candidate value set of ``o`` (values claimed by sources);
* ``So`` / ``Wo`` are the sources / workers that claimed about ``o``;
* ``Go(v)`` / ``Do(v)`` are ``v``'s ancestors / descendants *within* ``Vo``
  (root excluded);
* ``OH`` is the set of objects whose candidate set contains at least one
  ancestor-descendant pair — for the rest, the degenerate likelihoods in
  Eq. (2) and (4) apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..hierarchy.tree import Hierarchy, Value

ObjectId = Hashable
SourceId = Hashable
WorkerId = Hashable


@dataclass(frozen=True)
class Record:
    """A claim ``(o, s, v)`` from a web source."""

    object: ObjectId
    source: SourceId
    value: Value


@dataclass(frozen=True)
class Answer:
    """A claim ``(o, w, v)`` from a crowd worker."""

    object: ObjectId
    worker: WorkerId
    value: Value


class DatasetError(ValueError):
    """Raised for structurally invalid datasets or claims."""


@dataclass
class ObjectContext:
    """Cached per-object candidate structure used by the inference algorithms.

    Attributes
    ----------
    values:
        The candidate values ``Vo`` in deterministic (insertion) order.
    index:
        ``value -> position`` in :attr:`values`.
    ancestor_sets:
        ``ancestor_sets[i]`` lists positions of candidates in ``Go(values[i])``
        — ancestors of candidate ``i`` present in ``Vo`` (root excluded).
    descendant_sets:
        ``descendant_sets[i]`` lists positions in ``Do(values[i])``.
    has_hierarchy:
        ``True`` iff the object belongs to ``OH`` (some candidate pair is in
        an ancestor-descendant relationship).
    """

    values: List[Value]
    index: Dict[Value, int]
    ancestor_sets: List[List[int]]
    descendant_sets: List[List[int]]
    has_hierarchy: bool

    @property
    def size(self) -> int:
        """``|Vo|``."""
        return len(self.values)


class TruthDiscoveryDataset:
    """A hierarchy plus conflicting claims from sources and (optionally) workers.

    Parameters
    ----------
    hierarchy:
        The value hierarchy ``H``. Every claimed value must be a non-root node.
    records:
        Source claims. Duplicate ``(o, s)`` pairs keep the last value, matching
        the functional-predicate setting (one claim per source per object).
    answers:
        Optional initial worker answers.
    gold:
        Optional ground-truth mapping ``object -> value`` for evaluation.
    name:
        Human-readable dataset label.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        records: Iterable[Record],
        answers: Iterable[Answer] = (),
        gold: Optional[Mapping[ObjectId, Value]] = None,
        name: str = "",
    ) -> None:
        self.hierarchy = hierarchy
        self.name = name
        self.gold: Dict[ObjectId, Value] = dict(gold or {})

        self._records_by_object: Dict[ObjectId, Dict[SourceId, Value]] = {}
        self._answers_by_object: Dict[ObjectId, Dict[WorkerId, Value]] = {}
        self._objects_by_source: Dict[SourceId, List[ObjectId]] = {}
        self._objects_by_worker: Dict[WorkerId, List[ObjectId]] = {}
        # Claimant key (a source, or ``("worker", w)``) -> dense id, assigned
        # at the claimant's first claim and never moved (claims are never
        # deleted, so every entry keeps a claim). The columnar encoding
        # numbers its claimants from this table, so an append only ever adds
        # ids at the tail.
        self._claimant_ids: Dict[Hashable, int] = {}
        self._contexts: Dict[ObjectId, ObjectContext] = {}
        self._columnar = None  # lazily built ColumnarClaims, see columnar()
        self._version = 0  # mutation counter stamped onto every encoding
        self._records_version = 0  # bumped by add_record only (slot layout)
        # Lineage identity: version counters only order THIS dataset's
        # history — sibling clones advance their own counters, so equal
        # numbers do not mean equal claims. Encodings are stamped with this
        # token; `_owns_encoding` is the cross-clone guard.
        self._lineage: object = object()
        self._carried: Optional[tuple] = None  # (token, version) from copy()
        # Append log for incremental encoding catch-up (ColumnarAppender).
        # ``None`` until the first encoding exists — before that there is
        # nothing to catch up, so bulk ingestion costs no log memory. Entry
        # i covers dataset version ``_oplog_base + i + 1``. Non-appendable
        # mutations (in-place claim overwrites) are not logged: they clear
        # the log and advance ``_oplog_base``, so windows reaching across
        # them are detected by the base check in ``_ops_since``.
        self._oplog: Optional[List[tuple]] = None
        self._oplog_base = 0

        for record in records:
            self.add_record(record)
        for answer in answers:
            self.add_answer(answer)

    @classmethod
    def from_trusted_claims(
        cls,
        hierarchy: Hierarchy,
        records: Iterable[Tuple[ObjectId, SourceId, Value]],
        answers: Iterable[Tuple[ObjectId, WorkerId, Value]] = (),
        gold: Optional[Mapping[ObjectId, Value]] = None,
        name: str = "",
    ) -> "TruthDiscoveryDataset":
        """Bulk-load claims that already passed this class's mutators once.

        The fast restore path for journal bases and snapshot dumps: the
        claims were dumped from a dataset that enforced every invariant
        (hierarchy membership, candidate-set answers) when they were first
        added, so re-validating each one here is pure overhead — restore
        cost should be bounded by data size with a small constant, which is
        what makes journal compaction actually bound recovery time. Claims
        are inserted straight into the indexes; version counters end up as
        if each claim had been appended fresh (callers restoring a journal
        base pin them to the journaled stamps afterwards), and claimants
        are numbered in dump order: the records' sources, then the workers.

        Only for claims that round-tripped through a trusted dump — feeding
        unchecked input here bypasses :class:`DatasetError` validation.
        ``records``/``answers`` are ``(object, claimant, value)`` triples,
        at most one per ``(object, claimant)`` pair (dumps satisfy this by
        construction: they iterate the claim dicts).
        """
        dataset = cls(hierarchy, (), (), gold=gold, name=name)
        n_records = 0
        for obj, source, value in records:
            dataset._records_by_object.setdefault(obj, {})[source] = value
            dataset._objects_by_source.setdefault(source, []).append(obj)
            n_records += 1
        n_answers = 0
        for obj, worker, value in answers:
            dataset._answers_by_object.setdefault(obj, {})[worker] = value
            dataset._objects_by_worker.setdefault(worker, []).append(obj)
            n_answers += 1
        # Both indexes are keyed in first-claim order: number the sources,
        # then the workers, exactly as claim-by-claim insertion would.
        claimant_ids = dataset._claimant_ids
        for source in dataset._objects_by_source:
            claimant_ids.setdefault(source, len(claimant_ids))
        for worker in dataset._objects_by_worker:
            claimant_ids.setdefault(("worker", worker), len(claimant_ids))
        dataset._records_version = n_records
        dataset._version = n_records + n_answers
        return dataset

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    #: Log-size cap: beyond this the oldest entries are dropped (encodings
    #: that fall behind the remaining window cold-rebuild instead).
    MAX_OPLOG = 65536

    def add_record(self, record: Record) -> None:
        """Add (or overwrite) a source claim."""
        self._check_value(record.value)
        claims = self._records_by_object.setdefault(record.object, {})
        if record.source not in claims:
            self._objects_by_source.setdefault(record.source, []).append(record.object)
            self._claimant_ids.setdefault(record.source, len(self._claimant_ids))
            op = ("record", record.object, record.source, record.value)
        elif claims[record.source] == record.value:
            op = ("noop",)  # identical overwrite: the encoding is unchanged
        else:
            op = None  # in-place overwrite: not expressible as an append
        claims[record.source] = record.value
        if op is None or op[0] == "record":
            # Identical re-adds leave counts and slot layout untouched; not
            # bumping records_version keeps per-records state (contexts, EAI
            # likelihood tables) cached through them.
            self._contexts.pop(record.object, None)
            self._records_version += 1
        self._bump_version(op)

    def add_answer(self, answer: Answer) -> None:
        """Add (or overwrite) a worker answer.

        Workers answer by selecting among ``Vo`` (Section 2.1), so an answer
        with a value outside the candidate set raises :class:`DatasetError`.
        """
        self._check_value(answer.value)
        candidates = self.candidates(answer.object)
        if answer.value not in candidates:
            raise DatasetError(
                f"answer value {answer.value!r} is not a candidate of object"
                f" {answer.object!r}"
            )
        claims = self._answers_by_object.setdefault(answer.object, {})
        if answer.worker not in claims:
            self._objects_by_worker.setdefault(answer.worker, []).append(answer.object)
            self._claimant_ids.setdefault(("worker", answer.worker), len(self._claimant_ids))
            op = ("answer", answer.object, answer.worker, answer.value)
        elif claims[answer.worker] == answer.value:
            op = ("noop",)
        else:
            op = None
        claims[answer.worker] = answer.value
        self._bump_version(op)

    def _bump_version(self, op: Optional[tuple]) -> None:
        """Bump the mutation counter and log the op for incremental catch-up.

        The version bump is what detects stale *held* encodings. The cached
        encoding object is deliberately **kept**: it is an immutable snapshot
        that :class:`~repro.data.columnar.ColumnarAppender` extends by the
        logged delta on the next :meth:`columnar` call, so crowdsourcing
        rounds amortise to O(new answers) instead of O(claims) rebuilds.
        """
        self._version += 1
        if self._oplog is None:
            return  # no encoding yet -> nothing to catch up, keep ingestion free
        if op is None:
            # In-place overwrite: no encoding can be extended across this
            # point, so free the cached snapshot eagerly (a mutate-heavy
            # overwrite loop must not pin the old arrays) and restart the
            # log window here.
            self._columnar = None
            self._oplog.clear()
            self._oplog_base = self._version
            return
        self._oplog.append(op)
        if len(self._oplog) > self.MAX_OPLOG:
            drop = len(self._oplog) - self.MAX_OPLOG
            del self._oplog[:drop]
            self._oplog_base += drop
            if self._columnar is not None and self._columnar.version < self._oplog_base:
                self._columnar = None  # can no longer catch up incrementally

    def _ops_since(self, version: int) -> Optional[List[tuple]]:
        """Appendable mutations covering ``(version, self._version]``.

        Returns ``None`` when the window is not servable — logging had not
        started by ``version``, or the window start was trimmed away (log
        cap, or a non-appendable overwrite resetting the log) — in which
        case callers must re-fetch a full encoding. No-op entries are
        filtered out of the returned list.
        """
        if self._oplog is None or version < self._oplog_base:
            return None
        ops = self._oplog[version - self._oplog_base:]
        return [op for op in ops if op[0] != "noop"]

    def dirty_objects_since(
        self, version: int
    ) -> Optional[Tuple[List[ObjectId], List[tuple]]]:
        """Objects touched by appendable mutations in ``(version, _version]``.

        The oplog -> dirty-object extraction behind the incremental EM fits:
        returns ``(objects, ops)`` with the touched objects in first-touch
        order and the raw appendable ops of the window, or ``None`` when the
        window is unservable (same rules as :meth:`_ops_since` — logging not
        started, an in-place overwrite poisoned the window, or the
        ``MAX_OPLOG`` cap trimmed past ``version``). Every returned op is a
        genuine append of a new ``(object, claimant)`` claim.
        """
        ops = self._ops_since(version)
        if ops is None:
            return None
        seen: Dict[ObjectId, None] = {}
        for op in ops:
            seen.setdefault(op[1], None)
        return list(seen), ops

    def _owns_encoding(self, col) -> bool:
        """Whether ``col`` is a snapshot of *this* dataset's history.

        True for encodings this dataset built (or extended), and for the
        carried-forward snapshot lineage of :meth:`copy` up to the version
        at which the copy was taken — beyond that the histories may have
        diverged even though the version counters keep coinciding.
        """
        token = getattr(col, "_lineage_token", None)
        if token is self._lineage:
            return True
        if self._carried is not None:
            carried_token, carried_version = self._carried
            return token is carried_token and col.version <= carried_version
        return False

    def _check_value(self, value: Value) -> None:
        if value == self.hierarchy.root:
            raise DatasetError("claims with the root value carry no information")
        if value not in self.hierarchy:
            raise DatasetError(f"claimed value {value!r} is not in the hierarchy")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The mutation counter: bumped by every effective claim mutation.

        This is the stamp carried by columnar encodings and published serving
        snapshots — comparing a held stamp against the live counter is the
        cheap dirty-set handoff (``dirty_objects_since`` names the objects a
        window of appends touched).
        """
        return self._version

    @property
    def records_version(self) -> int:
        """The record-mutation counter: bumped by ``add_record`` only.

        Answers never move candidate slots, so state keyed by this counter
        (warm starts, EAI likelihood tables) survives whole crowd rounds; see
        :func:`repro.inference.base.validate_warm_start`.
        """
        return self._records_version

    @property
    def objects(self) -> List[ObjectId]:
        """All objects with at least one record, in first-seen order."""
        return list(self._records_by_object)

    @property
    def sources(self) -> List[SourceId]:
        """All sources, in first-seen order."""
        return list(self._objects_by_source)

    @property
    def workers(self) -> List[WorkerId]:
        """All workers that answered at least once."""
        return list(self._objects_by_worker)

    @property
    def num_records(self) -> int:
        """Total number of source claims."""
        return sum(len(claims) for claims in self._records_by_object.values())

    @property
    def num_answers(self) -> int:
        """Total number of worker answers."""
        return sum(len(claims) for claims in self._answers_by_object.values())

    def records_for(self, obj: ObjectId) -> Dict[SourceId, Value]:
        """``source -> claimed value`` for ``obj`` (empty if unknown)."""
        return dict(self._records_by_object.get(obj, {}))

    def answers_for(self, obj: ObjectId) -> Dict[WorkerId, Value]:
        """``worker -> answered value`` for ``obj``."""
        return dict(self._answers_by_object.get(obj, {}))

    def sources_of(self, obj: ObjectId) -> List[SourceId]:
        """``So`` — the sources claiming about ``obj``."""
        return list(self._records_by_object.get(obj, {}))

    def workers_of(self, obj: ObjectId) -> List[WorkerId]:
        """``Wo`` — the workers that answered about ``obj``."""
        return list(self._answers_by_object.get(obj, {}))

    def objects_of_source(self, source: SourceId) -> List[ObjectId]:
        """``Os`` — objects claimed by ``source``."""
        return list(self._objects_by_source.get(source, ()))

    def objects_of_worker(self, worker: WorkerId) -> List[ObjectId]:
        """``Ow`` — objects answered by ``worker``."""
        return list(self._objects_by_worker.get(worker, ()))

    def candidates(self, obj: ObjectId) -> List[Value]:
        """``Vo`` — distinct source-claimed values, in first-claimed order."""
        return list(self.context(obj).values)

    def iter_records(self) -> Iterable[Record]:
        """Iterate over all records."""
        for obj, claims in self._records_by_object.items():
            for source, value in claims.items():
                yield Record(obj, source, value)

    def iter_answers(self) -> Iterable[Answer]:
        """Iterate over all answers."""
        for obj, claims in self._answers_by_object.items():
            for worker, value in claims.items():
                yield Answer(obj, worker, value)

    # ------------------------------------------------------------------
    # candidate structure
    # ------------------------------------------------------------------
    def context(self, obj: ObjectId) -> ObjectContext:
        """Cached candidate structure ``(Vo, Go, Do, o in OH)`` for ``obj``."""
        ctx = self._contexts.get(obj)
        if ctx is None:
            ctx = self._build_context(obj)
            self._contexts[obj] = ctx
        return ctx

    def _build_context(self, obj: ObjectId) -> ObjectContext:
        claims = self._records_by_object.get(obj)
        if not claims:
            raise DatasetError(f"object {obj!r} has no records")
        values: List[Value] = []
        index: Dict[Value, int] = {}
        for value in claims.values():
            if value not in index:
                index[value] = len(values)
                values.append(value)
        n = len(values)
        ancestor_sets: List[List[int]] = [[] for _ in range(n)]
        descendant_sets: List[List[int]] = [[] for _ in range(n)]
        hierarchy = self.hierarchy
        for i, value in enumerate(values):
            for ancestor in hierarchy.ancestors(value):
                j = index.get(ancestor)
                if j is not None:
                    ancestor_sets[i].append(j)
                    descendant_sets[j].append(i)
        has_hierarchy = any(ancestor_sets[i] for i in range(n))
        return ObjectContext(values, index, ancestor_sets, descendant_sets, has_hierarchy)

    def columnar(self):
        """The cached :class:`~repro.data.columnar.ColumnarClaims` encoding.

        Built on first use. Every encoding is stamped with the dataset's
        mutation counter; :meth:`add_record` / :meth:`add_answer` bump it, so
        an access after a mutation transparently catches up — *incrementally*
        when the mutations were appends (new claims, candidates, objects; see
        :class:`~repro.data.columnar.ColumnarAppender`), via a cold rebuild
        otherwise (in-place overwrites). Callers that hold the returned
        object across possible mutations can detect staleness with
        :meth:`~repro.data.columnar.ColumnarClaims.assert_fresh` (raises
        :class:`~repro.data.columnar.StaleEncodingError`).
        """
        from .columnar import ColumnarAppender, ColumnarClaims

        cached = self._columnar
        if cached is not None and cached.version != self._version:
            ops = self._ops_since(cached.version)
            cached = (
                ColumnarAppender.extend(cached, self, ops) if ops is not None else None
            )
        if cached is None:
            cached = ColumnarClaims(self)
        self._columnar = cached
        # The encoding is current: start/curtail the append log here. Held
        # external appenders older than this point fall back to a rebuild.
        if self._oplog:
            del self._oplog[: self._version - self._oplog_base]
        elif self._oplog is None:
            self._oplog = []
        self._oplog_base = self._version
        return cached

    @property
    def hierarchical_objects(self) -> List[ObjectId]:
        """``OH`` — objects with an ancestor-descendant pair among candidates."""
        return [obj for obj in self._records_by_object if self.context(obj).has_hierarchy]

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def copy(self, include_answers: bool = True) -> "TruthDiscoveryDataset":
        """Deep-enough copy sharing the (immutable-in-practice) hierarchy.

        Per-object contexts are carried over (they depend on records only,
        which are copied verbatim, and are never mutated once built). A fresh
        cached columnar encoding is carried too when the copy is
        claim-identical (``include_answers=True``): encodings are immutable
        snapshots, so sharing is safe — each side's later mutations extend
        its *own* cache pointer, never the shared arrays — and the clone
        starts a crowdsourcing run without paying a rebuild.
        """
        clone = TruthDiscoveryDataset(self.hierarchy, (), (), gold=self.gold, name=self.name)
        clone._records_by_object = {o: dict(c) for o, c in self._records_by_object.items()}
        clone._objects_by_source = {s: list(v) for s, v in self._objects_by_source.items()}
        clone._contexts = dict(self._contexts)
        # The claimant table is copied, so a carried encoding stays a prefix
        # on both sides. Without the answers only the sources remain, densely
        # renumbered in their first-claim order — their order in the table.
        clone._claimant_ids = (
            dict(self._claimant_ids)
            if include_answers
            else {s: i for i, s in enumerate(self._objects_by_source)}
        )
        if include_answers:
            clone._answers_by_object = {
                o: dict(c) for o, c in self._answers_by_object.items()
            }
            clone._objects_by_worker = {
                w: list(v) for w, v in self._objects_by_worker.items()
            }
            if self._columnar is not None and self._columnar.version == self._version:
                clone._columnar = self._columnar
                clone._version = self._version
                clone._records_version = self._records_version
                clone._oplog = []  # encoding exists: log appends from here on
                clone._oplog_base = clone._version
                # Accept the carried snapshot's lineage up to this version
                # (the carried encoding may itself have been carried, so
                # record its own token, not ours).
                clone._carried = (self._columnar._lineage_token, self._version)
        return clone

    def scaled(self, factor: int) -> "TruthDiscoveryDataset":
        """Duplicate objects ``factor`` times (paper Fig 13 scalability setup).

        Copy ``k`` of object ``o`` becomes ``(o, k)`` with the same claims and
        gold truth; sources are shared across copies, as when duplicating rows.
        """
        if factor < 1:
            raise ValueError("factor must be >= 1")
        clone = TruthDiscoveryDataset(
            self.hierarchy, (), (), name=f"{self.name}x{factor}"
        )
        for k in range(factor):
            for obj, claims in self._records_by_object.items():
                new_obj = obj if k == 0 else (obj, k)
                for source, value in claims.items():
                    clone.add_record(Record(new_obj, source, value))
                if obj in self.gold:
                    clone.gold[new_obj] = self.gold[obj]
        return clone

    def stats(self) -> Dict[str, float]:
        """Summary statistics (used by the experiment harness banner)."""
        n_obj = len(self._records_by_object)
        sizes = [len(self.context(o).values) for o in self._records_by_object]
        return {
            "objects": n_obj,
            "sources": len(self._objects_by_source),
            "workers": len(self._objects_by_worker),
            "records": self.num_records,
            "answers": self.num_answers,
            "hierarchy_nodes": len(self.hierarchy),
            "hierarchy_height": self.hierarchy.height,
            "mean_candidates": sum(sizes) / n_obj if n_obj else 0.0,
            "objects_in_OH": len(self.hierarchical_objects),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TruthDiscoveryDataset(name={self.name!r}, objects={len(self.objects)},"
            f" sources={len(self.sources)}, records={self.num_records},"
            f" answers={self.num_answers})"
        )
