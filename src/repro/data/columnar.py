"""Columnar claim encoding: the array backbone of the vectorized fast paths.

The dict-based :class:`~repro.data.model.TruthDiscoveryDataset` is the
reference representation — easy to mutate, easy to read, and exactly the shape
the paper's per-object formulas are written in. But every EM round over it
costs one Python-level loop per claim per candidate, which dominates runtime
long before the datasets reach the paper's Fig-12/Fig-13 scales.

:class:`ColumnarClaims` integer-encodes the whole dataset once:

* **objects** ``o`` -> ``oid`` (dense, in first-seen order);
* **claimants** (sources and ``("worker", w)`` pairs) -> ``cid``, the id
  the dataset assigned at the claimant's first claim and never moves;
* **candidate values**: each object's ``Vo`` occupies a contiguous run of
  global *slots*; ``value_offsets[oid]:value_offsets[oid+1]`` is the CSR
  slice of object ``oid``, so any per-candidate quantity lives in one flat
  ``(n_slots,)`` array;
* **claims** (records followed by answers, grouped by object) become four
  parallel arrays ``claim_obj / claim_claimant / claim_pos / claim_slot``
  with their own CSR ``claim_offsets`` per object (``claim_is_answer``
  distinguishes worker answers from source records).

On top of the encoding the class offers the segment primitives the vectorized
algorithms share — per-object normalize / argmax / log-softmax via
``np.add.reduceat`` and friends — plus two lazily built companions:

* :class:`PairExpansion`, the claim x candidate cross-join: every
  algorithm whose E-step evaluates a likelihood row per claim (TDH, LCA,
  DOCS, ZenCrowd, Dawid-Skene, LFC) reads its layout, and Dawid-Skene and
  LFC also read the confusion-cell factorization it builds on first access;
* :class:`ColumnarHierarchy`, the integer-encoded view of the value
  hierarchy: per-value and per-slot ancestor/descendant CSR index arrays,
  depths, Euler-tour intervals for O(1) vectorized ancestor tests, and the
  depth-1 "domain" ancestor used by DOCS. This is what lets the
  hierarchy-aware algorithms (TDH, ASUMS) run without touching the Python
  :class:`~repro.hierarchy.tree.Hierarchy` object inside EM loops.

The encoding is built once and cached on the dataset
(:meth:`TruthDiscoveryDataset.columnar`). Every encoding is stamped with the
dataset's mutation :attr:`version`; ``add_record`` / ``add_answer`` bump the
version, so a later ``dataset.columnar()`` call transparently catches up, and
a *held* stale encoding can be detected with
:meth:`ColumnarClaims.assert_fresh` (raises :class:`StaleEncodingError`).

Catching up is **incremental** whenever possible: the dataset keeps an append
log of mutations, and :class:`ColumnarAppender` diffs a held encoding's
version against the dataset's, then splices only the delta — new claim rows,
new candidate slots, new claimant/value table entries — into fresh arrays
that share every unchanged buffer with the predecessor encoding. A
crowdsourcing round therefore costs O(delta) NumPy splices instead of the
O(claims) Python rebuild; see :meth:`ColumnarAppender.refresh` for the exact
fallback rules (in-place claim overwrites force a cold rebuild). The pair
expansion is not spliced: each encoding builds its own on first use.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .model import ObjectId, TruthDiscoveryDataset

ClaimantKey = Hashable

class StaleEncodingError(RuntimeError):
    """A held :class:`ColumnarClaims` no longer matches its dataset.

    Raised by :meth:`ColumnarClaims.assert_fresh` when ``add_record`` /
    ``add_answer`` mutated the dataset after the encoding was built. Callers
    should drop the stale object and re-fetch ``dataset.columnar()`` (which
    rebuilds automatically).
    """


def csr_expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``starts[i] : starts[i] + counts[i]``.

    The gather pattern behind every CSR cross-join here (claim x candidate,
    claim x candidate-ancestor): ``out[k]`` walks each segment ``i`` in order,
    offset by that segment's start.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + within


class ClaimantObjectsIndex:
    """Claimant -> objects CSR: the inverse of the claim table's object axis.

    ``objects[offsets[cid]:offsets[cid + 1]]`` lists the object ids claimed
    by claimant ``cid``, ascending (the functional setting guarantees one
    claim per ``(object, claimant)`` pair, so the lists are duplicate-free).
    This is the adjacency the dirty-object *frontier* walks: an appended
    answer to object ``o`` can move the trust of every claimant of ``o``,
    which in turn can move the posteriors of every other object those
    claimants touched — exactly one CSR gather away.

    Built once per encoding (:attr:`ColumnarClaims.claimant_objects`) and
    spliced forward by :meth:`ColumnarAppender.extend` so crowdsourcing
    rounds never pay the O(claims log claims) group-by again.
    """

    def __init__(self, offsets: np.ndarray, objects: np.ndarray) -> None:
        self.offsets = offsets
        self.objects = objects

    @classmethod
    def build(cls, col: "ColumnarClaims") -> "ClaimantObjectsIndex":
        order = np.argsort(col.claim_claimant, kind="stable")
        counts = np.bincount(col.claim_claimant, minlength=col.n_claimants)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        # Claims are grouped by ascending object, so the stable sort leaves
        # each claimant's objects ascending — the invariant `spliced` keeps.
        return cls(offsets, col.claim_obj[order])

    @classmethod
    def spliced(
        cls,
        old: "ClaimantObjectsIndex",
        n_claimants: int,
        n_objects: int,
        delta_cids: np.ndarray,
        delta_oids: np.ndarray,
    ) -> "ClaimantObjectsIndex":
        """The index of the extended encoding, array-equal to a cold
        :meth:`build`: claimant ids never move, so existing groups keep
        their order, appended claimants become empty tail groups, and the
        delta entries are merged into their groups at the sorted position
        via one ``np.insert``.
        """
        counts = np.diff(old.offsets)
        pad = n_claimants - len(counts)
        counts_full = np.concatenate([counts, np.zeros(pad, dtype=np.int64)])
        objects = old.objects
        # Within-group ascending order makes (claimant, object) keys globally
        # sorted, so every delta entry's insertion point is one searchsorted.
        okey = (
            np.repeat(np.arange(n_claimants, dtype=np.int64), counts_full) * n_objects
            + objects
        )
        dorder = np.lexsort((delta_oids, delta_cids))
        d_cid = np.asarray(delta_cids, dtype=np.int64)[dorder]
        d_oid = np.asarray(delta_oids, dtype=np.int64)[dorder]
        new_objects = np.insert(
            objects, np.searchsorted(okey, d_cid * n_objects + d_oid), d_oid
        )
        new_counts = counts_full + np.bincount(d_cid, minlength=n_claimants)
        new_offsets = np.concatenate(([0], np.cumsum(new_counts))).astype(np.int64)
        return cls(new_offsets, new_objects)

    def objects_of(self, cids: np.ndarray) -> np.ndarray:
        """Concatenated object lists of ``cids`` (duplicates across claimants
        possible; callers np.unique as needed)."""
        counts = np.diff(self.offsets)
        return self.objects[csr_expand(self.offsets[cids], counts[cids])]


class PairExpansion:
    """The claim x candidate cross-join behind every per-claim E-step.

    Row ``p`` pairs claim ``pair_claim[p]`` with candidate slot
    ``pair_slot[p]`` of the claimed object, ordered by object, then claim,
    then candidate position — the exact iteration order of the dict-loop
    oracles (``tests/oracles.py``), so ``np.bincount`` accumulates partial
    sums in the same sequence.

    Construction builds the four layout arrays (``pair_claim``,
    ``pair_slot``, ``pair_size``, ``pair_is_claimed``), which are all that
    TDH, LCA, DOCS and ZenCrowd read. The confusion-cell factorization that
    Dawid-Skene and LFC add is built in one step on first access to any of
    its attributes (see :data:`_LAZY_TABLES`): ``cell_index`` /
    ``total_index`` give each row a dense id for its confusion cell
    ``(claimant, truth value, claimed value)`` and marginal ``(claimant,
    truth value)``, numbered in ``np.unique`` (key-sorted) order over the
    ``cells`` / ``totals`` key tables. Both are iteration-invariant, so the
    ``np.unique`` runs at most once per encoding.

    Each encoding builds its own expansion on first use;
    :class:`ColumnarAppender` never carries one across an append. The
    expansion keeps the three arrays and the value count the factorization
    reads, never the encoding, so a superseded encoding is still freed by
    reference counting.
    """

    #: Table name -> the builder that sets it (with its group) on first access.
    _LAZY_TABLES = dict.fromkeys(
        ("cells", "cell_index", "totals", "total_index", "n_cells", "n_totals"),
        "_build_factorization",
    )

    def __init__(self, col: "ColumnarClaims") -> None:
        sizes_per_claim = col.sizes[col.claim_obj]
        self.pair_claim = np.repeat(
            np.arange(len(col.claim_obj), dtype=np.int64), sizes_per_claim
        )
        # pair_slot[p] = value_offsets[claim_obj[j]] + (rank of p within claim j)
        self.pair_slot = csr_expand(
            col.value_offsets[col.claim_obj], sizes_per_claim
        )
        #: ``|Vo|`` of the object behind each pair (Laplace denominators).
        self.pair_size = sizes_per_claim[self.pair_claim].astype(np.float64)
        #: True where the pair's candidate is the claimed value itself.
        self.pair_is_claimed = self.pair_slot == col.claim_slot[self.pair_claim]

        self._claim_claimant = col.claim_claimant
        self._slot_vid = col.slot_vid
        self._claim_vid = col.claim_vid
        self._n_values = len(col.values)

    def __getattr__(self, name: str):
        # Only reached when ``name`` is not yet in the instance dict.
        builder = type(self)._LAZY_TABLES.get(name)
        if builder is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        getattr(self, builder)()
        return self.__dict__[name]

    def _build_factorization(self) -> None:
        n_values = max(self._n_values, 1)
        claimant = self._claim_claimant[self.pair_claim]
        truth_vid = self._slot_vid[self.pair_slot]
        claimed_vid = self._claim_vid[self.pair_claim]
        total_key = claimant * n_values + truth_vid
        cell_key = total_key * n_values + claimed_vid
        self.cells, self.cell_index = np.unique(cell_key, return_inverse=True)
        self.totals, self.total_index = np.unique(total_key, return_inverse=True)
        self.n_cells = len(self.cells)
        self.n_totals = len(self.totals)


class SlotPairExpansion:
    """The candidate x candidate cross-join: every object's full ``|Vo|^2``.

    Row-major per object — pair ``p`` of object ``o`` with ``n = |Vo|``
    candidates is ``(u, v) = (p // n, p % n)`` relative to the object's slot
    run, matching the ``(rows = claimed value u, columns = truth v)``
    convention of :class:`~repro.inference._structures.ObjectStructure`. This
    is what lets the EAI assigner evaluate a whole likelihood matrix as one
    ``offsets[oid]:offsets[oid+1]`` slice reshaped to ``(n, n)``, with no
    per-object Python structure building.
    """

    def __init__(self, col: "ColumnarClaims") -> None:
        squares = col.sizes * col.sizes
        self.offsets = np.concatenate(
            ([0], np.cumsum(squares))
        ).astype(np.int64)
        total = int(self.offsets[-1])
        self.pair_obj = np.repeat(
            np.arange(col.n_objects, dtype=np.int64), squares
        )
        within = np.arange(total, dtype=np.int64) - np.repeat(
            self.offsets[:-1], squares
        )
        n_of = col.sizes[self.pair_obj]
        starts = col.value_offsets[self.pair_obj]
        #: Global slot of the claimed value ``u`` / hypothesised truth ``v``.
        self.u_slot = starts + within // n_of
        self.v_slot = starts + within % n_of


class SegmentOps:
    """Per-object segment primitives over a candidate-slot CSR layout.

    Shared by :class:`ColumnarClaims` (the whole dataset) and
    :class:`FrontierView` (an object subset): any class exposing
    ``value_offsets`` / ``sizes`` / ``slot_obj`` (plus ``claim_slot`` /
    ``claim_claimant`` for the claim-level helper) in its own coordinates
    gets the same normalize / argmax / softmax / weighted-vote reductions.
    Each algorithm's E-step kernel (e.g.
    ``repro.inference.tdh._tdh_estep_kernel``) is written once against this
    surface plus the pair arrays (``pair_claim`` / ``pair_slot`` /
    ``pair_size`` / ``pair_is_claimed`` / ``cell_index`` / ``total_index``)
    that both classes expose, so full and incremental fits run the same
    kernel body.
    """

    value_offsets: np.ndarray
    sizes: np.ndarray
    slot_obj: np.ndarray
    claim_slot: np.ndarray
    claim_claimant: np.ndarray

    @property
    def n_objects(self) -> int:
        return len(self.value_offsets) - 1

    @property
    def n_slots(self) -> int:
        return int(self.value_offsets[-1])

    def segment_sum(self, flat: np.ndarray) -> np.ndarray:
        """Per-object sum of a ``(n_slots,)`` array -> ``(n_objects,)``."""
        if self.n_objects == 0:
            return np.zeros(0, dtype=flat.dtype)
        return np.add.reduceat(flat, self.value_offsets[:-1])

    def segment_normalize(self, flat: np.ndarray) -> np.ndarray:
        """Normalize per object; all-zero (or negative-total) segments become
        uniform, matching the dict-loop oracles' fallback."""
        totals = self.segment_sum(flat)
        safe = np.where(totals > 0, totals, 1.0)
        out = flat / safe[self.slot_obj]
        bad = totals <= 0
        if np.any(bad):
            uniform = 1.0 / self.sizes.astype(np.float64)
            out = np.where(bad[self.slot_obj], uniform[self.slot_obj], out)
        return out

    def segment_argmax_slot(self, flat: np.ndarray) -> np.ndarray:
        """Per-object argmax -> global slot, first-max tie-break like
        ``np.argmax`` over each segment."""
        if self.n_objects == 0:
            return np.zeros(0, dtype=np.int64)
        seg_max = np.maximum.reduceat(flat, self.value_offsets[:-1])
        slot_ids = np.arange(self.n_slots, dtype=np.int64)
        candidates = np.where(flat == seg_max[self.slot_obj], slot_ids, self.n_slots)
        return np.minimum.reduceat(candidates, self.value_offsets[:-1])

    def segment_softmax(self, log_flat: np.ndarray) -> np.ndarray:
        """Per-object ``exp(x - max) / sum`` over a log-score array."""
        if self.n_objects == 0:
            return np.zeros(0, dtype=np.float64)
        seg_max = np.maximum.reduceat(log_flat, self.value_offsets[:-1])
        shifted = np.exp(log_flat - seg_max[self.slot_obj])
        totals = np.add.reduceat(shifted, self.value_offsets[:-1])
        return shifted / totals[self.slot_obj]

    def weighted_counts(self, claimant_weights: np.ndarray) -> np.ndarray:
        """Per-slot sum of claimant weights -> ``(n_slots,)`` — the weighted
        vote; ``claimant_weights`` is indexed by (global) claimant id."""
        return np.bincount(
            self.claim_slot,
            weights=claimant_weights[self.claim_claimant],
            minlength=self.n_slots,
        )


class FrontierView(SegmentOps):
    """Local-coordinate view of an arbitrary (sorted) object subset.

    A frontier is scattered across the corpus, so this view gathers the
    subset's slot and claim rows into dense local arrays and remembers the
    global indices (:attr:`slot_ids` / :attr:`claim_ids`) to scatter
    results back. It exposes the same :class:`SegmentOps` surface and pair
    arrays as :class:`ColumnarClaims`, which lets the incremental fits run
    the E-step kernels the full fits run (``_tdh_estep_kernel``,
    ``_confusion_estep_kernel``, ``_zencrowd_estep_kernel``) over just the
    frontier: ``claim_claimant`` stays global (trust/reliability vectors are
    indexed by global claimant id), and everything segment-shaped is local.

    The per-claim candidate cross-join is rebuilt locally in O(frontier
    pairs); the confusion-cell ids (:attr:`cell_index` / :attr:`total_index`)
    are *gathered* from the encoding's :class:`PairExpansion` via
    :attr:`pair_rows` on first use, so they share its id space — the
    frontier's per-iteration cell reductions are added to base reductions
    that the DS/LFC incremental fit computes over that same expansion.
    """

    def __init__(self, col: "ColumnarClaims", obj_ids: np.ndarray) -> None:
        self.col = col
        o = np.asarray(obj_ids, dtype=np.int64)
        self.obj_ids = o
        self.sizes = col.sizes[o]
        self.value_offsets = np.concatenate(([0], np.cumsum(self.sizes))).astype(
            np.int64
        )
        n_local = len(o)
        self.slot_obj = np.repeat(np.arange(n_local, dtype=np.int64), self.sizes)
        #: Local slot -> global slot (the scatter-back index).
        self.slot_ids = csr_expand(col.value_offsets[o], self.sizes)

        claim_counts = np.diff(col.claim_offsets)[o]
        #: Local claim -> global claim-table row.
        self.claim_ids = csr_expand(col.claim_offsets[o], claim_counts)
        self.claim_obj = np.repeat(np.arange(n_local, dtype=np.int64), claim_counts)
        self.claim_claimant = col.claim_claimant[self.claim_ids]
        self.claim_is_answer = col.claim_is_answer[self.claim_ids]
        self.claim_slot = (
            self.value_offsets[self.claim_obj] + col.claim_pos[self.claim_ids]
        )

        sizes_per_claim = self.sizes[self.claim_obj]
        self.pair_claim = np.repeat(
            np.arange(len(self.claim_ids), dtype=np.int64), sizes_per_claim
        )
        self.pair_slot = csr_expand(self.value_offsets[self.claim_obj], sizes_per_claim)
        self.pair_size = sizes_per_claim[self.pair_claim].astype(np.float64)
        self.pair_is_claimed = self.pair_slot == self.claim_slot[self.pair_claim]

        self._pair_rows: Optional[np.ndarray] = None
        self._cell_index: Optional[np.ndarray] = None
        self._total_index: Optional[np.ndarray] = None

    @property
    def n_claims(self) -> int:
        return len(self.claim_ids)

    @property
    def pair_rows(self) -> np.ndarray:
        """Global :class:`PairExpansion` rows of this view's pairs (pairs are
        laid out claim-major in both, so the rows are each local claim's
        contiguous global run)."""
        if self._pair_rows is None:
            col = self.col
            global_sizes = col.sizes[col.claim_obj]
            pair_offsets = np.concatenate(([0], np.cumsum(global_sizes))).astype(
                np.int64
            )
            self._pair_rows = csr_expand(
                pair_offsets[self.claim_ids], global_sizes[self.claim_ids]
            )
        return self._pair_rows

    @property
    def cell_index(self) -> np.ndarray:
        """Global confusion-cell id per local pair (forces ``col.pairs``)."""
        if self._cell_index is None:
            self._cell_index = self.col.pairs.cell_index[self.pair_rows]
        return self._cell_index

    @property
    def total_index(self) -> np.ndarray:
        """Global confusion-marginal id per local pair."""
        if self._total_index is None:
            self._total_index = self.col.pairs.total_index[self.pair_rows]
        return self._total_index


class ColumnarClaims(SegmentOps):
    """Flat integer-array view of a :class:`TruthDiscoveryDataset`.

    Attributes
    ----------
    objects / claimants / values:
        Decoding tables: dense id -> original object id, claimant key
        (source, or ``("worker", w)``), hierarchy value. Claimant ids are
        the dataset's, assigned at each claimant's first claim, so a later
        encoding's ``claimants`` extends an earlier one's.
    value_offsets:
        ``(n_objects + 1,)`` CSR offsets into the slot arrays; object ``oid``
        owns slots ``value_offsets[oid]:value_offsets[oid + 1]``, one per
        candidate in ``Vo`` order.
    slot_vid / slot_obj:
        Per-slot global value id and owning object id.
    claim_obj / claim_claimant / claim_pos / claim_slot:
        The claim table (records then answers, grouped by object).
        ``claim_pos`` is the candidate position within the object,
        ``claim_slot`` the global slot.
    claim_offsets:
        ``(n_objects + 1,)`` CSR offsets into the claim table per object.
    claim_is_answer:
        ``(n_claims,)`` bool — ``True`` for worker answers, ``False`` for
        source records (TDH learns separate trust priors per claim kind).
    claimant_is_worker:
        ``(n_claimants,)`` bool — ``True`` for ``("worker", w)`` claimants.
    version:
        The dataset's mutation counter at build time; see
        :meth:`assert_fresh`.
    """

    def __init__(self, dataset: "TruthDiscoveryDataset") -> None:
        self.objects: List["ObjectId"] = list(dataset.objects)
        self.object_index: Dict["ObjectId", int] = {
            obj: i for i, obj in enumerate(self.objects)
        }
        self.version = getattr(dataset, "_version", 0)
        #: Bumped by ``add_record`` only: answers never change the slot layout,
        #: so state keyed by records_version (e.g. the EAI likelihood pair
        #: arrays) survives whole crowdsourcing rounds.
        self.records_version = getattr(dataset, "_records_version", 0)

        claimant_ids = dataset._claimant_ids
        value_index: Dict[Hashable, int] = {}
        values: List[Hashable] = []

        value_offsets = [0]
        claim_offsets = [0]
        slot_vid: List[int] = []
        claim_obj: List[int] = []
        claim_claimant: List[int] = []
        claim_pos: List[int] = []
        claim_is_answer: List[bool] = []
        # Slot-level candidate-ancestor CSR (Go(v) within Vo, as global
        # slots), harvested from the per-object contexts while we are already
        # walking them; ColumnarHierarchy packages these.
        slot_anc_offsets = [0]
        slot_anc_slots: List[int] = []
        obj_has_hierarchy: List[bool] = []

        # Value ids are handed out at first encounter, so the first-occurrence
        # positions the appender's re-rank check needs are free here.
        value_first: List[int] = []

        for oid, obj in enumerate(self.objects):
            ctx = dataset.context(obj)
            start = value_offsets[-1]
            for i, value in enumerate(ctx.values):
                vid = value_index.get(value)
                if vid is None:
                    vid = value_index[value] = len(values)
                    values.append(value)
                    value_first.append(len(slot_vid))
                slot_vid.append(vid)
                slot_anc_slots.extend(start + j for j in ctx.ancestor_sets[i])
                slot_anc_offsets.append(len(slot_anc_slots))
            value_offsets.append(start + ctx.size)
            obj_has_hierarchy.append(ctx.has_hierarchy)

            # Records first, answers second — the claimant order of every
            # ``_claims_of`` helper.
            for source, value in dataset.records_for(obj).items():
                claim_obj.append(oid)
                claim_claimant.append(claimant_ids[source])
                claim_pos.append(ctx.index[value])
                claim_is_answer.append(False)
            for worker, value in dataset.answers_for(obj).items():
                claim_obj.append(oid)
                claim_claimant.append(claimant_ids[("worker", worker)])
                claim_pos.append(ctx.index[value])
                claim_is_answer.append(True)
            claim_offsets.append(len(claim_obj))

        self.claimants: List[ClaimantKey] = list(claimant_ids)
        self.values = values
        self.value_index = value_index

        self.value_offsets = np.asarray(value_offsets, dtype=np.int64)
        self.claim_offsets = np.asarray(claim_offsets, dtype=np.int64)
        self.slot_vid = np.asarray(slot_vid, dtype=np.int64)
        self.claim_obj = np.asarray(claim_obj, dtype=np.int64)
        self.claim_claimant = np.asarray(claim_claimant, dtype=np.int64)
        self.claim_pos = np.asarray(claim_pos, dtype=np.int64)
        self.claim_is_answer = np.asarray(claim_is_answer, dtype=bool)
        self.claimant_is_worker = np.zeros(len(self.claimants), dtype=bool)
        self.claimant_is_worker[self.claim_claimant[self.claim_is_answer]] = True

        self.sizes = np.diff(self.value_offsets)
        self.slot_obj = np.repeat(
            np.arange(len(self.objects), dtype=np.int64), self.sizes
        )
        self.claim_slot = self.value_offsets[self.claim_obj] + self.claim_pos
        self.claim_vid = self.slot_vid[self.claim_slot]

        self._slot_anc_offsets = np.asarray(slot_anc_offsets, dtype=np.int64)
        self._slot_anc_slots = np.asarray(slot_anc_slots, dtype=np.int64)
        self._obj_has_hierarchy = np.asarray(obj_has_hierarchy, dtype=bool)
        self._tree = dataset.hierarchy
        self._pairs: Optional[PairExpansion] = None
        self._slot_pairs: Optional[SlotPairExpansion] = None
        self._hierarchy: Optional["ColumnarHierarchy"] = None
        self._claimant_objects: Optional[ClaimantObjectsIndex] = None
        self._popularity: Dict[bool, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Appender bookkeeping: first slot per value (maintained across
        # appends so the value re-rank stays O(delta + tables)); a reusable
        # Euler tour.
        self._value_first = np.asarray(value_first, dtype=np.int64)
        self._tour_hint: Optional[Tuple[Dict, Dict, int]] = None
        # Version counters only order one dataset's history; this token ties
        # the snapshot to the dataset (lineage) that produced it — see
        # TruthDiscoveryDataset._owns_encoding.
        self._lineage_token = getattr(dataset, "_lineage", None)

    # ------------------------------------------------------------------
    # shape accessors (n_objects / n_slots come from SegmentOps)
    # ------------------------------------------------------------------
    @property
    def n_claimants(self) -> int:
        return len(self.claimants)

    @property
    def n_claims(self) -> int:
        return len(self.claim_obj)

    @property
    def pairs(self) -> PairExpansion:
        """The claim x candidate expansion, built on first use and cached."""
        if self._pairs is None:
            self._pairs = PairExpansion(self)
        return self._pairs

    # The pair arrays of :class:`FrontierView`, read through from
    # :attr:`pairs` (no copies), so one E-step kernel body serves both.
    @property
    def pair_claim(self) -> np.ndarray:
        return self.pairs.pair_claim

    @property
    def pair_slot(self) -> np.ndarray:
        return self.pairs.pair_slot

    @property
    def pair_size(self) -> np.ndarray:
        return self.pairs.pair_size

    @property
    def pair_is_claimed(self) -> np.ndarray:
        return self.pairs.pair_is_claimed

    @property
    def cell_index(self) -> np.ndarray:
        return self.pairs.cell_index

    @property
    def total_index(self) -> np.ndarray:
        return self.pairs.total_index

    @property
    def slot_pairs(self) -> "SlotPairExpansion":
        """The candidate x candidate expansion, built on first use and cached."""
        if self._slot_pairs is None:
            self._slot_pairs = SlotPairExpansion(self)
        return self._slot_pairs

    @property
    def claimant_objects(self) -> ClaimantObjectsIndex:
        """The claimant -> objects CSR, built on first use and cached (and
        spliced forward across :class:`ColumnarAppender` extensions)."""
        if self._claimant_objects is None:
            self._claimant_objects = ClaimantObjectsIndex.build(self)
        return self._claimant_objects

    def frontier(
        self,
        dirty_oids: np.ndarray,
        hops: int = 1,
        return_claimants: bool = False,
    ) -> np.ndarray:
        """The dirty-object frontier: object ids whose posteriors an
        incremental EM must re-converge after ``dirty_oids`` changed.

        One hop unions the dirty objects with every object sharing a claimant
        with one of them — the set whose E-step inputs move when the touched
        claimants' trust moves. ``hops`` expands transitively (hop ``h``
        covers trust drift reaching ``h`` claimant links away); ``hops=0``
        returns the dirty set itself. Expansion stops early at a fixed point
        or when the frontier saturates to the whole corpus (callers treat
        saturation as "run a full fit"). Returns sorted unique object ids;
        with ``return_claimants`` also the sorted union of claimant ids
        encountered while expanding (the coverage witness
        :func:`incremental_frontier` stores for cross-round reuse).
        """
        frontier = np.unique(np.asarray(dirty_oids, dtype=np.int64))
        if len(frontier) and (frontier[0] < 0 or frontier[-1] >= self.n_objects):
            raise IndexError("dirty object id out of range")
        index = None
        claim_counts = None
        cids_all = np.zeros(0, dtype=np.int64)
        for _ in range(max(int(hops), 0)):
            if len(frontier) >= self.n_objects:
                break
            if index is None:
                index = self.claimant_objects
                claim_counts = np.diff(self.claim_offsets)
            rows = csr_expand(
                self.claim_offsets[frontier], claim_counts[frontier]
            )
            cids = np.unique(self.claim_claimant[rows])
            cids_all = np.union1d(cids_all, cids)
            grown = np.unique(
                np.concatenate([frontier, index.objects_of(cids)])
            )
            if len(grown) == len(frontier):
                break
            frontier = grown
        if return_claimants:
            return frontier, cids_all
        return frontier

    @property
    def hierarchy(self) -> "ColumnarHierarchy":
        """The integer-encoded hierarchy view, built on first use and cached.

        When this encoding was produced by :class:`ColumnarAppender`, the
        predecessor's Euler tour is reused (``_tour_hint``) so only the value
        tables are extended — the tree is not re-toured.
        """
        if self._hierarchy is None:
            self._hierarchy = ColumnarHierarchy(self, self._tree, tour=self._tour_hint)
        return self._hierarchy

    def assert_fresh(self, dataset: "TruthDiscoveryDataset") -> None:
        """Raise :class:`StaleEncodingError` if ``dataset`` mutated since build.

        ``dataset.columnar()`` always returns a fresh encoding; this guard is
        for callers that *hold* a :class:`ColumnarClaims` across code that may
        call ``add_record`` / ``add_answer`` (e.g. crowdsourcing rounds).
        """
        if getattr(dataset, "_version", 0) != self.version:
            raise StaleEncodingError(
                f"columnar encoding built at dataset version {self.version} but"
                f" the dataset is now at version {getattr(dataset, '_version', 0)};"
                " re-fetch dataset.columnar()"
            )

    # ------------------------------------------------------------------
    # claim aggregations
    # ------------------------------------------------------------------
    def vote_counts(self) -> np.ndarray:
        """Claims per slot (records + answers) -> ``(n_slots,)`` floats."""
        return np.bincount(self.claim_slot, minlength=self.n_slots).astype(np.float64)

    def record_counts(self) -> np.ndarray:
        """*Source* claims per slot (answers excluded) -> ``(n_slots,)`` floats.

        The flat counterpart of :func:`repro.inference.base.claim_counts`;
        TDH's popularity terms and DOCS's domain extraction are defined over
        source claims only.
        """
        return np.bincount(
            self.claim_slot[~self.claim_is_answer], minlength=self.n_slots
        ).astype(np.float64)

    def claimant_counts(self) -> np.ndarray:
        """Claims per claimant -> ``(n_claimants,)`` ints."""
        return np.bincount(self.claim_claimant, minlength=self.n_claimants)

    def popularity_denominators(
        self, use_hierarchy: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-slot source-claim counts and Eq. (3) popularity denominators.

        Returns ``(counts, pop2, pop3)``: source claims per candidate slot,
        the claim mass over each slot's candidate ancestors ``Go(v)``, and
        the mass over the remaining candidates. Shared by TDH's columnar
        E-step and the columnar EAI likelihood tables so the ``Pop2``/
        ``Pop3`` weighting has exactly one implementation.
        ``use_hierarchy=False`` (the ablation) zeroes the ancestor mass
        without building the hierarchy view.

        Computed once per encoding and flag and returned read-only; an
        append that adds no record carries the result forward, since
        answers move neither the source counts nor the slot layout.
        """
        cached = self._popularity.get(use_hierarchy)
        if cached is not None:
            return cached
        counts = self.record_counts()
        if use_hierarchy:
            hier = self.hierarchy
            anc_owner = np.repeat(
                np.arange(self.n_slots, dtype=np.int64), hier.slot_gsize
            )
            pop2 = np.bincount(
                anc_owner, weights=counts[hier.slot_anc_slots], minlength=self.n_slots
            )
        else:
            pop2 = np.zeros(self.n_slots, dtype=np.float64)
        pop3 = self.segment_sum(counts)[self.slot_obj] - counts - pop2
        for arr in (counts, pop2, pop3):
            arr.flags.writeable = False
        self._popularity[use_hierarchy] = (counts, pop2, pop3)
        return counts, pop2, pop3

    def initial_confidences_flat(self) -> np.ndarray:
        """Vote-proportion EM initialisation, flat counterpart of
        :func:`repro.inference.base.initial_confidences`."""
        return self.segment_normalize(self.vote_counts())

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def to_confidences(self, flat: np.ndarray) -> Dict["ObjectId", np.ndarray]:
        """Split a ``(n_slots,)`` array back into the per-object dict shape
        that :class:`~repro.inference.base.InferenceResult` expects.

        The per-object arrays are views into ``flat`` (no copies); callers
        own ``flat`` by construction, so aliasing is safe. Sliced directly
        rather than through ``np.split``, whose per-segment ``swapaxes``
        bookkeeping dominates at tens of thousands of objects.
        """
        offsets = self.value_offsets
        return {
            obj: flat[offsets[oid] : offsets[oid + 1]]
            for oid, obj in enumerate(self.objects)
        }

    def claimant_mapping(self, values: np.ndarray) -> Dict[ClaimantKey, float]:
        """Zip a per-claimant array into a ``claimant -> value`` dict."""
        return {key: float(values[cid]) for cid, key in enumerate(self.claimants)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ColumnarClaims(objects={self.n_objects}, claimants={self.n_claimants},"
            f" slots={self.n_slots}, claims={self.n_claims})"
        )


class ColumnarHierarchy:
    """Integer-encoded view of the value hierarchy, keyed by the encoding's ids.

    Two granularities, both CSR:

    * **value level** (global, keyed by ``vid``): ``anc_offsets`` /
      ``anc_vids`` list each encoded value's proper non-root ancestors
      (nearest first) *that are themselves encoded values*;
      ``desc_offsets`` / ``desc_vids`` are the inverse (encoded proper
      descendants, no order guarantee). ``depth[vid]`` is the tree depth and
      ``top_code[vid]`` a dense id for the depth-1 ancestor (the value itself
      at depth 1) — DOCS's "domain".
    * **slot level** (per object, keyed by global slot): ``slot_anc_offsets``
      / ``slot_anc_slots`` encode ``Go(v)`` — the candidate ancestors of each
      slot's value *within the same object's* ``Vo`` — in the exact order of
      ``ObjectContext.ancestor_sets``; ``slot_desc_offsets`` /
      ``slot_desc_slots`` encode ``Do(v)``. ``slot_gsize`` is ``|Go(v)|``
      and ``obj_has_hierarchy`` flags the objects in ``OH``.

    For arbitrary vectorized ancestor tests the tree is additionally labelled
    with an Euler tour: ``tin[vid]`` / ``tout[vid]`` bound each value's
    subtree interval, so ``u`` is a proper ancestor of ``v`` iff
    ``tin[u] < tin[v] <= tout[u]`` (:meth:`is_ancestor_vid`). That turns the
    per-claim-per-candidate hierarchy checks of the TDH likelihood (Eq. 1/3)
    into three array comparisons.

    Construction builds only what TDH, the EAI assigner and
    :meth:`ColumnarClaims.popularity_denominators` read: ``tin`` / ``tout``,
    the slot-level ``Go(v)`` CSR with ``slot_gsize``, and
    ``obj_has_hierarchy``. The rest is built on first access and cached (see
    :data:`_LAZY_TABLES`): the value-level CSRs with ``top_values`` /
    ``top_code`` / ``domains`` (DOCS), ``depth`` / ``slot_depth`` (ASUMS)
    and the slot-level ``Do(v)`` CSR. A serving fit whose batch appends
    objects rebuilds this view, so it pays for the eager tables only.
    """

    #: Table name -> the builder that sets it (with its group) on first access.
    _LAZY_TABLES = {
        **dict.fromkeys(
            (
                "anc_offsets",
                "anc_vids",
                "desc_offsets",
                "desc_vids",
                "top_values",
                "top_code",
                "domains",
            ),
            "_build_value_csr",
        ),
        **dict.fromkeys(("depth", "slot_depth"), "_build_depth"),
        **dict.fromkeys(("slot_desc_offsets", "slot_desc_slots"), "_build_slot_desc"),
    }

    def __init__(
        self,
        col: ColumnarClaims,
        tree,
        tour: Optional[Tuple[Dict, Dict, int]] = None,
    ) -> None:
        self.n_values = len(col.values)

        # --- Euler tour over the tree (iterative DFS, child order as built).
        # A predecessor encoding's tour (``(tin, tout, n_tree_nodes)``) is
        # reused when the tree has not grown since — hierarchies are
        # append-only, so equal node counts imply identical trees — which is
        # what lets ColumnarAppender extend the value-id tables without
        # re-touring on every crowdsourcing round.
        if tour is not None and tour[2] == len(tree):
            tin, tout = tour[0], tour[1]
        else:
            tin = {}
            tout = {}
            clock = 0
            stack: List[tuple] = [(tree.root, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    tout[node] = clock
                    continue
                clock += 1
                tin[node] = clock
                stack.append((node, True))
                for child in reversed(tree.children(node)):
                    stack.append((child, False))
        self._tour: Tuple[Dict, Dict, int] = (tin, tout, len(tree))

        self.tin = np.asarray([tin[value] for value in col.values], dtype=np.int64)
        self.tout = np.asarray([tout[value] for value in col.values], dtype=np.int64)

        # --- slot-level CSR, harvested by ColumnarClaims from the contexts.
        self.slot_anc_offsets = col._slot_anc_offsets
        self.slot_anc_slots = col._slot_anc_slots
        self.slot_gsize = np.diff(self.slot_anc_offsets)
        self.obj_has_hierarchy = col._obj_has_hierarchy

        # What the first-access builders read. Not the encoding itself: the
        # appender hands this view to later encodings, and a reference back
        # would keep superseded encodings alive.
        self._tree = tree
        self._values = col.values
        self._value_index = col.value_index
        self._slot_vid = col.slot_vid

    def __getattr__(self, name: str):
        # Only reached when ``name`` is not yet in the instance dict.
        builder = type(self)._LAZY_TABLES.get(name)
        if builder is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        getattr(self, builder)()
        return self.__dict__[name]

    def _build_value_csr(self) -> None:
        """Value-level ancestor CSR (encoded ancestors only, nearest first),
        its inverse, and the depth-1 "domain" ancestor per value."""
        tree = self._tree
        value_index = self._value_index
        anc_offsets = [0]
        anc_vids: List[int] = []
        top_values: List[Hashable] = []
        for value in self._values:
            chain = tree.ancestors(value)  # nearest first, root excluded
            anc_vids.extend(value_index[a] for a in chain if a in value_index)
            anc_offsets.append(len(anc_vids))
            top_values.append(chain[-1] if chain else value)
        self.anc_offsets = np.asarray(anc_offsets, dtype=np.int64)
        self.anc_vids = np.asarray(anc_vids, dtype=np.int64)

        top_index: Dict[Hashable, int] = {}
        top_code: List[int] = []
        for top in top_values:
            code = top_index.get(top)
            if code is None:
                code = top_index[top] = len(top_index)
            top_code.append(code)
        self.top_values = top_values
        self.domains: List[Hashable] = list(top_index)
        self.top_code = np.asarray(top_code, dtype=np.int64)

        # Value-level descendant CSR: invert the ancestor pairs.
        owner = np.repeat(
            np.arange(self.n_values, dtype=np.int64), np.diff(self.anc_offsets)
        )
        order = np.argsort(self.anc_vids, kind="stable")
        self.desc_vids = owner[order]
        desc_counts = np.bincount(self.anc_vids, minlength=self.n_values)
        self.desc_offsets = np.concatenate(
            ([0], np.cumsum(desc_counts))
        ).astype(np.int64)

    def _build_depth(self) -> None:
        self.depth = np.asarray(
            [self._tree.depth(value) for value in self._values], dtype=np.int64
        )
        self.slot_depth = self.depth[self._slot_vid]

    def _build_slot_desc(self) -> None:
        """Slot-level ``Do(v)`` CSR: invert the ``Go(v)`` pairs."""
        n_slots = len(self._slot_vid)
        slot_owner = np.repeat(np.arange(n_slots, dtype=np.int64), self.slot_gsize)
        slot_order = np.argsort(self.slot_anc_slots, kind="stable")
        self.slot_desc_slots = slot_owner[slot_order]
        slot_desc_counts = np.bincount(self.slot_anc_slots, minlength=n_slots)
        self.slot_desc_offsets = np.concatenate(
            ([0], np.cumsum(slot_desc_counts))
        ).astype(np.int64)

    # ------------------------------------------------------------------
    def ancestors_of_vid(self, vid: int) -> np.ndarray:
        """Encoded ancestor vids of ``vid``, nearest first."""
        return self.anc_vids[self.anc_offsets[vid] : self.anc_offsets[vid + 1]]

    def descendants_of_vid(self, vid: int) -> np.ndarray:
        """Encoded proper-descendant vids of ``vid``."""
        return self.desc_vids[self.desc_offsets[vid] : self.desc_offsets[vid + 1]]

    def ancestors_of_slot(self, slot: int) -> np.ndarray:
        """``Go(v)`` of a slot as global slots of the same object."""
        return self.slot_anc_slots[
            self.slot_anc_offsets[slot] : self.slot_anc_offsets[slot + 1]
        ]

    def descendants_of_slot(self, slot: int) -> np.ndarray:
        """``Do(v)`` of a slot as global slots of the same object."""
        return self.slot_desc_slots[
            self.slot_desc_offsets[slot] : self.slot_desc_offsets[slot + 1]
        ]

    def is_ancestor_vid(self, u_vids: np.ndarray, v_vids: np.ndarray) -> np.ndarray:
        """Elementwise "``u`` is a proper non-root ancestor of ``v``" test."""
        return (self.tin[u_vids] < self.tin[v_vids]) & (
            self.tout[v_vids] <= self.tout[u_vids]
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ColumnarHierarchy(values={self.n_values},"
            f" slot_anc_pairs={len(self.slot_anc_slots)})"
        )


class ColumnarAppender:
    """Catches a held :class:`ColumnarClaims` up with its mutated dataset.

    The dataset records every ``add_record`` / ``add_answer`` in an append
    log once an encoding exists (see
    :meth:`TruthDiscoveryDataset._ops_since`). ``refresh()`` diffs the held
    encoding's :attr:`~ColumnarClaims.version` against the dataset's and
    replays only the logged delta via :meth:`extend` — new claim rows are
    spliced into the CSR claim table, new candidate slots into the slot
    arrays of the touched objects, new claimants take the next ids at the
    tail of the claimant table (the dataset numbers them at their first
    claim), and the value decode table is extended (re-ranked to
    cold-rebuild first-encounter order only when an insert actually
    reorders it). The result is **array-equal to a cold rebuild** (the
    property suite in ``tests/test_columnar_appender.py`` enforces this,
    hierarchy CSR and Euler intervals included) at O(delta) plus a few NumPy
    memcopies, instead of the O(claims) Python walk.

    Encodings are immutable snapshots: ``extend`` returns a *new*
    ``ColumnarClaims`` sharing every unchanged buffer with its predecessor,
    so encodings carried across ``dataset.copy()`` clones can never be
    corrupted by one side appending.

    Fallback rules — ``refresh()`` performs a cold rebuild when the delta is
    not an append (an in-place overwrite of an existing claim), or when the
    held encoding predates the dataset's log window. It raises
    :class:`StaleEncodingError` when the appender has outlived its dataset
    (the dataset is only weakly referenced, so e.g. a discarded clone does
    not keep its claim dicts alive through a forgotten appender), or when
    the held encoding is *ahead* of the dataset — the signature of an
    encoding handed to the wrong dataset clone.
    """

    def __init__(
        self, dataset: "TruthDiscoveryDataset", claims: Optional[ColumnarClaims] = None
    ) -> None:
        self._dataset_ref = weakref.ref(dataset)
        self.claims = claims if claims is not None else dataset.columnar()

    @property
    def dataset(self) -> "TruthDiscoveryDataset":
        dataset = self._dataset_ref()
        if dataset is None:
            raise StaleEncodingError(
                "this ColumnarAppender outlived its dataset; appenders hold"
                " their dataset weakly — re-create one from a live dataset"
            )
        return dataset

    def refresh(self) -> ColumnarClaims:
        """The held encoding, caught up to the dataset's current version."""
        dataset = self.dataset
        claims = self.claims
        target = getattr(dataset, "_version", 0)
        if not dataset._owns_encoding(claims):
            # Version counters coincide across sibling clones whose claims
            # diverged, so the lineage token — not the counter — is the
            # cross-clone guard.
            raise StaleEncodingError(
                f"held encoding (version {claims.version}) is not a snapshot"
                f" of this dataset's history (version {target}); it belongs"
                " to a different (cloned) dataset"
            )
        if claims.version == target:
            return claims
        ops = dataset._ops_since(claims.version)
        if ops is None:
            # Unservable window (overwrite, or trimmed past us): take the
            # dataset's own cache, which is either already current or
            # rebuilds once for every holder.
            claims = dataset.columnar()
        else:
            claims = self.extend(claims, dataset, ops)
        self.claims = claims
        return claims

    # ------------------------------------------------------------------
    @staticmethod
    def _restamped(
        col: ColumnarClaims, dataset: "TruthDiscoveryDataset"
    ) -> ColumnarClaims:
        """A same-content snapshot at the dataset's current version (the
        delta contained only no-op overwrites)."""
        new = ColumnarClaims.__new__(ColumnarClaims)
        new.__dict__.update(col.__dict__)
        new.version = getattr(dataset, "_version", 0)
        new.records_version = getattr(dataset, "_records_version", 0)
        new._lineage_token = getattr(dataset, "_lineage", None)
        return new

    @staticmethod
    def extend(
        col: ColumnarClaims,
        dataset: "TruthDiscoveryDataset",
        ops: Sequence[Tuple],
    ) -> ColumnarClaims:
        """Splice appendable ``ops`` into ``col``: a new encoding at the
        dataset's current version, array-equal to ``ColumnarClaims(dataset)``.

        ``ops`` are ``("record", obj, source, value)`` /
        ``("answer", obj, worker, value)`` tuples in mutation order, each a
        genuine append (overwrites never reach here — the dataset poisons its
        log instead, forcing the cold-rebuild fallback).
        """
        if not ops:
            return ColumnarAppender._restamped(col, dataset)

        n_obj_old = col.n_objects
        n_claims_old = col.n_claims
        n_slots_old = col.n_slots

        # ---- bucket the delta per object, assigning new object ids in
        # first-record order (== dict insertion order == cold-rebuild order).
        # Claimant ids come from the dataset's table, which numbered each
        # claimant at its first claim: walking the ops in mutation order
        # meets the new claimants in id order, at the tail of the table.
        claimant_ids = dataset._claimant_ids
        n_claimants_old = col.n_claimants
        added_claimants: List[ClaimantKey] = []
        added_claimant_worker: List[bool] = []
        new_objects: List = []
        added_obj_index: Dict = {}
        record_ops: Dict[int, List[Tuple]] = {}
        answer_ops: Dict[int, List[Tuple]] = {}
        for kind, obj, claimant, value in ops:
            is_answer = kind == "answer"
            key = ("worker", claimant) if is_answer else claimant
            cid = claimant_ids[key]
            if cid == n_claimants_old + len(added_claimants):
                added_claimants.append(key)
                added_claimant_worker.append(is_answer)
            oid = col.object_index.get(obj)
            if oid is None:
                oid = added_obj_index.get(obj)
            if oid is None:
                # Only records introduce objects: add_answer validates the
                # value against candidates(obj), which requires records.
                if kind != "record":
                    raise ValueError(
                        f"append log references object {obj!r} before any record"
                    )
                oid = n_obj_old + len(new_objects)
                added_obj_index[obj] = oid
                new_objects.append(obj)
            bucket = answer_ops if is_answer else record_ops
            bucket.setdefault(oid, []).append((cid, value))

        n_obj_new = n_obj_old + len(new_objects)
        if new_objects:
            objects = col.objects + new_objects
            object_index = dict(col.object_index)
            object_index.update(added_obj_index)
        else:
            objects = col.objects
            object_index = col.object_index

        # ---- which touched objects grew their candidate set (records only;
        # answers select among existing candidates by construction).
        touched = sorted(set(record_ops) | set(answer_ops))
        contexts = {oid: dataset.context(objects[oid]) for oid in touched}
        slot_changed: List[int] = []
        added_slot_values: Dict[int, List] = {}
        for oid in sorted(record_ops):
            ctx = contexts[oid]
            old_size = int(col.sizes[oid]) if oid < n_obj_old else 0
            if ctx.size > old_size:
                slot_changed.append(oid)
                # Candidates are append-only per object, so the delta is
                # exactly the tail of the rebuilt context's Vo order.
                added_slot_values[oid] = list(ctx.values[old_size:])

        # ---- claim-row insertion spec. Walking objects in ascending id
        # order with records-before-answers makes the positions sorted by
        # construction: new records land at the record/answer boundary of
        # their object's block, new answers at its end, new objects' rows
        # after everything.
        rec_counts = np.bincount(
            col.claim_obj[~col.claim_is_answer], minlength=n_obj_old
        )
        ins_pos: List[int] = []
        ins_obj: List[int] = []
        ins_cid: List[int] = []
        ins_ppos: List[int] = []
        ins_ans: List[bool] = []
        for oid in touched:
            ctx = contexts[oid]
            if oid < n_obj_old:
                rpos = int(col.claim_offsets[oid] + rec_counts[oid])
                apos = int(col.claim_offsets[oid + 1])
            else:
                rpos = apos = n_claims_old
            for cid, value in record_ops.get(oid, ()):
                ins_pos.append(rpos)
                ins_obj.append(oid)
                ins_cid.append(cid)
                ins_ppos.append(ctx.index[value])
                ins_ans.append(False)
            for cid, value in answer_ops.get(oid, ()):
                ins_pos.append(apos)
                ins_obj.append(oid)
                ins_cid.append(cid)
                ins_ppos.append(ctx.index[value])
                ins_ans.append(True)

        k = len(ins_pos)
        ins_pos_arr = np.asarray(ins_pos, dtype=np.int64)
        final_ins = ins_pos_arr + np.arange(k, dtype=np.int64)
        n_claims_new = n_claims_old + k
        keep = np.ones(n_claims_new, dtype=bool)
        keep[final_ins] = False

        def splice_claims(old: np.ndarray, inserted: List, dtype) -> np.ndarray:
            out = np.empty(n_claims_new, dtype=dtype)
            out[keep] = old
            out[final_ins] = inserted
            return out

        claim_obj = splice_claims(col.claim_obj, ins_obj, np.int64)
        claim_claimant = splice_claims(col.claim_claimant, ins_cid, np.int64)
        claim_pos = splice_claims(col.claim_pos, ins_ppos, np.int64)
        claim_is_answer = splice_claims(col.claim_is_answer, ins_ans, bool)
        claim_offsets = np.concatenate(
            ([0], np.cumsum(np.bincount(claim_obj, minlength=n_obj_new)))
        ).astype(np.int64)

        # ---- claimant table: the new claimants' ids follow the old ones.
        if added_claimants:
            claimants = col.claimants + added_claimants
            claimant_is_worker = np.concatenate(
                [col.claimant_is_worker, np.asarray(added_claimant_worker, dtype=bool)]
            )
        else:
            claimants = col.claimants
            claimant_is_worker = col.claimant_is_worker

        # ---- slot arrays: untouched when the delta is answers-only (the
        # crowdsourcing hot path); otherwise splice the new candidate slots
        # and rebuild the touched objects' hierarchy CSR blocks.
        if slot_changed:
            added_values: List = []
            added_value_index: Dict = {}

            def value_id(value) -> int:
                vid = col.value_index.get(value)
                if vid is None:
                    vid = added_value_index.get(value)
                if vid is None:
                    vid = len(col.values) + len(added_values)
                    added_value_index[value] = vid
                    added_values.append(value)
                return vid

            slot_pos: List[int] = []
            slot_vid_ins: List[int] = []
            for oid in slot_changed:
                pos = (
                    int(col.value_offsets[oid + 1])
                    if oid < n_obj_old
                    else n_slots_old
                )
                for value in added_slot_values[oid]:
                    slot_pos.append(pos)
                    slot_vid_ins.append(value_id(value))
            sk = len(slot_pos)
            slot_pos_arr = np.asarray(slot_pos, dtype=np.int64)
            slot_final = slot_pos_arr + np.arange(sk, dtype=np.int64)
            n_slots_new = n_slots_old + sk
            skeep = np.ones(n_slots_new, dtype=bool)
            skeep[slot_final] = False
            slot_vid = np.empty(n_slots_new, dtype=np.int64)
            slot_vid[skeep] = col.slot_vid
            slot_vid[slot_final] = slot_vid_ins

            sizes = np.concatenate(
                [col.sizes, np.zeros(len(new_objects), dtype=np.int64)]
            )
            for oid, added in added_slot_values.items():
                sizes[oid] += len(added)
            value_offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
            slot_obj = np.repeat(np.arange(n_obj_new, dtype=np.int64), sizes)

            # Value ids re-ranked by first encounter, like claimants above.
            vfirst = np.concatenate(
                [
                    col._value_first
                    + np.searchsorted(slot_pos_arr, col._value_first, side="right"),
                    np.full(len(added_values), n_slots_new, dtype=np.int64),
                ]
            )
            np.minimum.at(vfirst, np.asarray(slot_vid_ins, dtype=np.int64), slot_final)
            values = col.values + added_values
            if bool(np.all(np.diff(vfirst) > 0)):
                if added_values:
                    value_index = dict(col.value_index)
                    value_index.update(added_value_index)
                else:
                    values = col.values
                    value_index = col.value_index
            else:
                vorder = np.argsort(vfirst, kind="stable")
                vremap = np.empty(len(vorder), dtype=np.int64)
                vremap[vorder] = np.arange(len(vorder), dtype=np.int64)
                slot_vid = vremap[slot_vid]
                values = [values[i] for i in vorder]
                value_index = {value: i for i, value in enumerate(values)}
                vfirst = vfirst[vorder]

            # Slot-level ancestor CSR: keep untouched objects' blocks (slot
            # ids shifted by their object's new start), rebuild touched ones
            # from the fresh contexts — a new candidate can be an ancestor or
            # descendant of existing ones, so the whole block is redone.
            delta_start = value_offsets[:n_obj_old] - col.value_offsets[:-1]
            entry_owner_slot = np.repeat(
                np.arange(n_slots_old, dtype=np.int64),
                np.diff(col._slot_anc_offsets),
            )
            entry_owner_obj = col.slot_obj[entry_owner_slot]
            keep_entries = ~np.isin(
                entry_owner_obj, np.asarray(slot_changed, dtype=np.int64)
            )
            kept_shift = delta_start[entry_owner_obj[keep_entries]]
            kept_owner = entry_owner_slot[keep_entries] + kept_shift
            kept_vals = col._slot_anc_slots[keep_entries] + kept_shift
            fresh_owner: List[int] = []
            fresh_vals: List[int] = []
            obj_has_hierarchy = np.concatenate(
                [col._obj_has_hierarchy, np.zeros(len(new_objects), dtype=bool)]
            )
            for oid in slot_changed:
                ctx = contexts[oid]
                start = int(value_offsets[oid])
                for i, ancestors in enumerate(ctx.ancestor_sets):
                    for j in ancestors:
                        fresh_owner.append(start + i)
                        fresh_vals.append(start + j)
                obj_has_hierarchy[oid] = ctx.has_hierarchy
            owner = np.concatenate(
                [kept_owner, np.asarray(fresh_owner, dtype=np.int64)]
            )
            anc_vals = np.concatenate(
                [kept_vals, np.asarray(fresh_vals, dtype=np.int64)]
            )
            entry_order = np.argsort(owner, kind="stable")
            slot_anc_slots = anc_vals[entry_order]
            slot_anc_offsets = np.concatenate(
                ([0], np.cumsum(np.bincount(owner, minlength=n_slots_new)))
            ).astype(np.int64)
            slot_pairs = None
            hierarchy = None  # value ids / slots moved: rebuild lazily ...
            tour_hint = (  # ... but hand the old Euler tour forward.
                col._hierarchy._tour if col._hierarchy is not None else col._tour_hint
            )
        else:
            slot_vid = col.slot_vid
            sizes = col.sizes
            value_offsets = col.value_offsets
            slot_obj = col.slot_obj
            values = col.values
            value_index = col.value_index
            vfirst = col._value_first
            slot_anc_offsets = col._slot_anc_offsets
            slot_anc_slots = col._slot_anc_slots
            obj_has_hierarchy = col._obj_has_hierarchy
            slot_pairs = col._slot_pairs
            hierarchy = col._hierarchy
            tour_hint = (
                hierarchy._tour if hierarchy is not None else col._tour_hint
            )

        new = ColumnarClaims.__new__(ColumnarClaims)
        new.objects = objects
        new.object_index = object_index
        new.version = getattr(dataset, "_version", 0)
        new.records_version = getattr(dataset, "_records_version", 0)
        new.claimants = claimants
        new.values = values
        new.value_index = value_index
        new.value_offsets = value_offsets
        new.claim_offsets = claim_offsets
        new.slot_vid = slot_vid
        new.claim_obj = claim_obj
        new.claim_claimant = claim_claimant
        new.claim_pos = claim_pos
        new.claim_is_answer = claim_is_answer
        new.claimant_is_worker = claimant_is_worker
        new.sizes = sizes
        new.slot_obj = slot_obj
        new.claim_slot = value_offsets[claim_obj] + claim_pos
        new.claim_vid = slot_vid[new.claim_slot]
        new._slot_anc_offsets = slot_anc_offsets
        new._slot_anc_slots = slot_anc_slots
        new._obj_has_hierarchy = obj_has_hierarchy
        new._tree = col._tree
        # The claim x candidate expansion is not carried: most fits after an
        # append never read the whole-corpus one (incremental fits build
        # their frontier's pairs locally), so the next reader builds it once
        # at this encoding's size.
        new._pairs = None
        # The claimant -> objects CSR is slot-independent, so a built index
        # is spliced forward on every append (the frontier computation of
        # the incremental EM fits relies on this staying O(delta + tables)).
        if col._claimant_objects is not None:
            new._claimant_objects = ClaimantObjectsIndex.spliced(
                col._claimant_objects,
                len(claimants),
                n_obj_new,
                claim_claimant[final_ins],
                claim_obj[final_ins],
            )
        else:
            new._claimant_objects = None
        new._slot_pairs = slot_pairs
        new._hierarchy = hierarchy
        # Any record moves the source counts, even one naming an existing
        # candidate (which leaves the slots unchanged); answers move neither.
        new._popularity = {} if record_ops else dict(col._popularity)
        new._value_first = vfirst
        new._tour_hint = tour_hint
        new._lineage_token = getattr(dataset, "_lineage", None)
        return new


class FrontierPlan:
    """The servable-delta plan returned by :func:`incremental_frontier`.

    Holds the current encoding, the frontier and the window's ops; the
    remaining fields describe how the slot layout moved between the warm
    fit and now, so incremental fits can scatter-expand their per-slot
    state into the grown layout instead of degrading cold.
    """

    def __init__(
        self,
        col: ColumnarClaims,
        frontier: np.ndarray,
        ops: List[tuple],
        *,
        prev_n_objects: int,
        prev_n_slots: int,
        slot_map: Optional[np.ndarray] = None,
        frontier_state: Optional[dict] = None,
        frontier_reused: bool = False,
    ) -> None:
        self.col = col
        self.frontier = frontier
        self.ops = ops
        #: Shapes of the encoding the warm state was fitted on.
        self.prev_n_objects = prev_n_objects
        self.prev_n_slots = prev_n_slots
        #: Old slot id -> new slot id; ``None`` when the layout is unchanged.
        self.slot_map = slot_map
        #: ``{"version", "hops", "frontier", "cids"}``; models attach it to
        #: their incremental results (``result.frontier_state``) and pass it
        #: back as ``reuse=`` next round.
        self.frontier_state = frontier_state
        #: True when the previous round's stored frontier covered this
        #: round's delta and was reused without a BFS.
        self.frontier_reused = frontier_reused
        self._new_slot_mask: Optional[np.ndarray] = None

    @property
    def grew(self) -> bool:
        """True when the window appended objects or candidate slots."""
        return self.slot_map is not None

    @property
    def new_slot_mask(self) -> np.ndarray:
        """Boolean mask over current slots: True where the slot did not exist
        in the previous layout. New slots always belong to frontier objects —
        only a record on a (by construction dirty) object creates them."""
        if self._new_slot_mask is None:
            mask = np.ones(self.col.n_slots, dtype=bool)
            if self.slot_map is not None:
                mask[self.slot_map] = False
            else:
                mask[:] = False
            self._new_slot_mask = mask
        return self._new_slot_mask

    def expand_slots(self, flat: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Scatter previous-layout per-slot state into the current layout.

        New slots get ``fill``. The incremental kernels' re-based global
        reductions use the expanded array only as accumulation *weights*, so
        the default 0.0 makes them ignore exactly the rows their stored
        totals never contained — the subtraction stays exact.
        """
        if self.slot_map is None:
            return np.array(flat, dtype=np.float64, copy=True)
        out = np.full(self.col.n_slots, fill, dtype=np.float64)
        out[self.slot_map] = flat
        return out


def incremental_frontier(
    dataset: "TruthDiscoveryDataset",
    prev_col: Optional[ColumnarClaims],
    hops: int = 1,
    reuse: Optional[dict] = None,
) -> Optional[FrontierPlan]:
    """The shared guard chain of the incremental EM fits.

    Decides whether the delta between ``prev_col`` (the encoding a previous
    fit ran on) and ``dataset``'s current state is servable incrementally,
    and if so computes the dirty-object frontier. Returns a
    :class:`FrontierPlan` or ``None`` when the fit must run cold:

    * ``prev_col`` is missing or belongs to another dataset's lineage;
    * the op window is unservable (overwrite poisoned the log, or the
      ``MAX_OPLOG`` cap trimmed past ``prev_col.version`` — the
      ``_oplog_base`` check).

    Slot-layout *growth* — appended objects or candidate slots — is
    servable: objects and each object's candidates are append-stable, so the
    plan's ``slot_map`` (one ``csr_expand`` over the old per-object sizes)
    relocates every old slot into the new layout and
    :meth:`FrontierPlan.expand_slots` scatter-expands per-slot warm state
    accordingly. New slots only ever belong to dirty objects (a record
    append marks its object dirty), so the frontier re-converges them from
    scratch like any other frontier slot.

    ``reuse`` is a previous plan's ``frontier_state``. When this round's
    dirty objects and their claimants are contained in the stored frontier
    and claimant union (consecutive overlapping deltas, such as a crowd
    round's answers from a known worker panel), the stored frontier is
    reused without a BFS: a superset frontier is always sound, it merely
    re-converges extra objects, and for ``hops=1`` containment of the dirty
    set and its claimants guarantees the stored set *is* a superset of the
    fresh 1-hop closure. Object and claimant ids never move under an
    append, so the stored ids stay valid. Deeper hops recompute.

    The ops are captured **before** ``dataset.columnar()`` — that call
    curtails the log to the current version, which would empty the window.
    A saturated frontier (every object dirty-adjacent) is returned as-is;
    callers delegate to their full columnar fit for exact parity.
    """
    if prev_col is None or not dataset._owns_encoding(prev_col):
        return None
    delta = dataset.dirty_objects_since(prev_col.version)
    if delta is None:
        return None
    dirty_objects, ops = delta
    col = dataset.columnar()
    if col.n_objects < prev_col.n_objects or col.n_slots < prev_col.n_slots:
        return None  # shrinkage cannot come from appends; refuse defensively
    # Map the dirty set through the *current* encoding: a window that appends
    # an object names ids only this encoding knows, and repeated touches of
    # one object must collapse to one dirty id.
    dirty = np.unique(
        np.asarray([col.object_index[obj] for obj in dirty_objects], dtype=np.int64)
    )
    slot_map = None
    if col.n_objects != prev_col.n_objects or col.n_slots != prev_col.n_slots:
        slot_map = csr_expand(
            col.value_offsets[: prev_col.n_objects],
            np.diff(prev_col.value_offsets),
        )
    frontier = None
    cids = None
    reused = False
    if (
        reuse is not None
        and hops == 1
        and reuse.get("hops") == 1
        and reuse.get("version") == prev_col.version
        and len(dirty)
    ):
        prev_frontier = reuse["frontier"]
        claim_counts = np.diff(col.claim_offsets)
        rows = csr_expand(col.claim_offsets[dirty], claim_counts[dirty])
        dirty_cids = np.unique(col.claim_claimant[rows])
        if bool(np.all(np.isin(dirty, prev_frontier))) and bool(
            np.all(np.isin(dirty_cids, reuse["cids"]))
        ):
            frontier, cids, reused = prev_frontier, reuse["cids"], True
    if frontier is None:
        frontier, cids = col.frontier(dirty, hops=hops, return_claimants=True)
    return FrontierPlan(
        col,
        frontier,
        ops,
        prev_n_objects=prev_col.n_objects,
        prev_n_slots=prev_col.n_slots,
        slot_map=slot_map,
        frontier_state={
            "version": col.version,
            "hops": hops,
            "frontier": frontier,
            "cids": cids,
        },
        frontier_reused=reused,
    )
