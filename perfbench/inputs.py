"""Seeded inputs for every workload, generated before any timing starts.

The program only ever receives what these functions return: a dataset, a
list of writes or a journal file. The same ``--seed`` gives the same inputs,
and every stream is append-only — no ``(object, claimant)`` pair repeats —
so no write forces the overwrite cold path.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.data.model import Answer, Record, TruthDiscoveryDataset
from repro.datasets import make_birthplaces
from repro.datasets.geography import make_geography, sample_truths
from repro.datasets.synthetic import _claim_value, _wrong_pool
from repro.serving import WriteAheadJournal

#: The serving substrate of ``benchmarks/test_serving.py``: 5 uniform claims
#: per object from a 15,000-source pool, so claimant degree stays ~O(1) and
#: a one-answer batch has a frontier of about 9 objects.
N_OBJECTS = 5000
N_SOURCES = 15000
CLAIMS_PER_OBJECT = 5
READ_SAMPLE = 32

#: Write mix: every CLAIM_EVERY-th write is a claim from a new source naming
#: a brand-new object (the slot-growth splice path: new objects append at
#: the object axis' tail). Claims that add a candidate value to an existing
#: object are left out; see "Known defect" in ``perfbench/README.md``.
CLAIM_EVERY = 16

#: A write is ``(kind, object, claimant, value)`` with kind "answer"/"claim".
Write = Tuple[str, str, str, object]


def seeds(seed: int, n: int) -> List[np.random.SeedSequence]:
    """``n`` independent child seeds of the run's ``--seed``."""
    return np.random.SeedSequence(seed).spawn(n)


def sparse_substrate(seed: np.random.SeedSequence) -> TruthDiscoveryDataset:
    """The 5,000-object sparse serving dataset, with gold truths."""
    rng = np.random.default_rng(seed)
    hierarchy = make_geography(
        height=5, branching=(4, 6, 5, 4, 2), rng=rng, max_nodes=3000
    )
    truths = sample_truths(hierarchy, N_OBJECTS, rng, min_depth=2)
    objects = [f"entity_{i}" for i in range(N_OBJECTS)]
    pool = _wrong_pool(hierarchy, rng)
    records: List[Record] = []
    for obj, truth in zip(objects, truths):
        misinformation = pool[int(rng.integers(len(pool)))]
        for idx in rng.choice(N_SOURCES, size=CLAIMS_PER_OBJECT, replace=False):
            value = _claim_value(
                truth, hierarchy, (0.7, 0.2, 0.1), misinformation, pool, rng
            )
            records.append(Record(obj, f"src_{idx}", value))
    return TruthDiscoveryDataset(
        hierarchy, records, gold=dict(zip(objects, truths)), name="sparse5k"
    )


def read_sample(dataset: TruthDiscoveryDataset) -> List[str]:
    """The fixed 32 objects every ``get_truths`` call reads."""
    objects = dataset.objects
    return objects[:: len(objects) // READ_SAMPLE][:READ_SAMPLE]


class WriteStream:
    """An append-only stream of writes against one substrate.

    Answers come from a fresh worker id each, name an existing candidate of a
    uniformly drawn object (the gold truth with probability 0.7), and so
    never collide. With ``claims=True`` the stream also carries the claim
    mix described at :data:`CLAIM_EVERY`. :meth:`extend` appends writes to
    :attr:`writes`.
    """

    def __init__(
        self,
        dataset: TruthDiscoveryDataset,
        seed: np.random.SeedSequence,
        *,
        tag: str,
        claims: bool,
    ) -> None:
        self._rng = np.random.default_rng(seed)
        self._tag = tag
        self._claims = claims
        self._objects = list(dataset.objects)
        self._candidates = [sorted(dataset.candidates(o), key=str) for o in self._objects]
        self._gold = [dataset.gold.get(o) for o in self._objects]
        self._nodes = list(dataset.hierarchy.non_root_nodes())
        self._n = 0
        self._n_claims = 0
        self.writes: List[Write] = []

    def extend(self, count: int) -> None:
        rng = self._rng
        objs = rng.integers(len(self._objects), size=count)
        coins = rng.random(count)
        picks = rng.integers(1 << 30, size=count)
        for obj_idx, coin, pick in zip(objs.tolist(), coins.tolist(), picks.tolist()):
            self._n += 1
            if self._claims and self._n % CLAIM_EVERY == 0:
                self.writes.append(self._claim(pick))
                continue
            candidates = self._candidates[obj_idx]
            truth = self._gold[obj_idx]
            if truth in candidates and coin < 0.7:
                value = truth
            else:
                value = candidates[pick % len(candidates)]
            self.writes.append(
                ("answer", self._objects[obj_idx], f"{self._tag}_w{self._n}", value)
            )

    def _claim(self, pick: int) -> Write:
        self._n_claims += 1
        value = self._nodes[pick % len(self._nodes)]
        return (
            "claim",
            f"{self._tag}_obj_{self._n_claims}",
            f"{self._tag}_src_{self._n_claims}",
            value,
        )


def apply_write(dataset: TruthDiscoveryDataset, write: Write) -> None:
    """Fold one write into a mirror dataset, as the service applies it."""
    kind, obj, claimant, value = write
    if kind == "answer":
        dataset.add_answer(Answer(obj, claimant, value))
    else:
        dataset.add_record(Record(obj, claimant, value))


def write_history_journal(
    path: Path,
    dataset: TruthDiscoveryDataset,
    seed: np.random.SeedSequence,
    batches: int,
) -> None:
    """A journal as a long-running service leaves it: ``dataset`` as base,
    then ``batches`` single-answer batches, each followed by its checkpoint.

    ``dataset`` is advanced in place, so afterwards it equals the journal's
    replay state (the benchmark does not use it for anything else).
    """
    stream = WriteStream(dataset, seed, tag="hist", claims=False)
    stream.extend(batches)
    path.unlink(missing_ok=True)  # an existing journal would be appended to
    journal = WriteAheadJournal(path, fsync="never")
    try:
        journal.append_base(dataset)
        for epoch, (_, obj, worker, value) in enumerate(stream.writes, start=1):
            answer = Answer(obj, worker, value)
            journal.append_batch([answer])
            dataset.add_answer(answer)
            journal.append_checkpoint(
                epoch=epoch,
                dataset_version=dataset.version,
                records_version=dataset.records_version,
                applied_writes=epoch,
            )
    finally:
        journal.close()


def birthplaces(seed: np.random.SeedSequence) -> TruthDiscoveryDataset:
    """Paper-scale BirthPlaces: 6,005 objects claimed by 7 sources."""
    return make_birthplaces(6005, seed=int(seed.generate_state(1)[0]))
