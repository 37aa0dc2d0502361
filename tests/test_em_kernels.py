"""One E-step kernel per algorithm, over the whole encoding or a frontier.

Full fits run each kernel on the :class:`ColumnarClaims` itself, whose pair
arrays read through from its :class:`PairExpansion`; incremental fits run
the same kernel on a :class:`FrontierView`, which gathers its own. A view
over every object must therefore give bitwise-equal outputs, which pins the
two pair surfaces against each other.

A crowd round supersedes one encoding per round. An encoding held in a
reference cycle outlives the round until the cyclic collector runs, which
raises peak memory, so superseded encodings must be freed by reference
counting alone.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.crowd.workers import make_worker_pool
from repro.data.columnar import FrontierView
from repro.data.model import Answer
from repro.datasets import make_birthplaces, make_heritages
from repro.inference import DawidSkene, TDHModel
from repro.inference.crh import _crh_step_kernel
from repro.inference.dawid_skene import _confusion_estep_kernel, _zencrowd_estep_kernel
from repro.inference.tdh import _tdh_estep_kernel


def _with_answers(dataset, n_workers=5, per_worker=30, seed=0):
    rng = np.random.default_rng(seed)
    objects = dataset.objects
    for worker in make_worker_pool(n_workers, seed=3):
        picks = rng.choice(len(objects), size=min(per_worker, len(objects)), replace=False)
        for i in picks:
            obj = objects[int(i)]
            dataset.add_answer(Answer(obj, worker.worker_id, worker.answer(dataset, obj, rng)))
    return dataset


DATASETS = {
    "birthplaces": lambda: _with_answers(make_birthplaces(size=300, seed=7)),
    "heritages": lambda: make_heritages(size=110, n_sources=200, seed=11),
}


def _tdh(ops, col, rng):
    trust = rng.dirichlet([3.0, 3.0, 2.0], size=col.n_claimants).T
    view = None if ops is col else ops
    case_arrays = TDHModel()._pair_case_arrays(col, view)
    cids = ops.claim_claimant
    mu = col.initial_confidences_flat()
    return _tdh_estep_kernel(ops, trust, cids[ops.pair_claim], cids, mu, *case_arrays)


def _confusion(with_prior):
    def run(ops, col, rng):
        mu = col.initial_confidences_flat()
        pairs = col.pairs
        weight = mu[pairs.pair_slot] * rng.uniform(0.5, 1.5, len(pairs.pair_slot))
        cells = np.bincount(pairs.cell_index, weights=weight, minlength=pairs.n_cells)
        totals = np.bincount(pairs.total_index, weights=weight, minlength=pairs.n_totals)
        return _confusion_estep_kernel(ops, mu, cells, totals, 0.5, with_prior)

    return run


def _zencrowd(ops, col, rng):
    r = rng.uniform(0.3, 0.95, col.n_claimants)
    miss_denom = np.maximum(ops.sizes[ops.claim_obj] - 1, 1).astype(np.float64)
    return _zencrowd_estep_kernel(ops, col.initial_confidences_flat(), r, miss_denom)


def _crh(ops, col, rng):
    return _crh_step_kernel(ops, rng.uniform(0.5, 2.0, col.n_claimants))


KERNELS = {
    "TDH": _tdh,
    "DS": _confusion(with_prior=True),
    "LFC": _confusion(with_prior=False),
    "ZENCROWD": _zencrowd,
    "CRH": _crh,
}


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_on_encoding_equals_full_frontier(kernel, dataset):
    col = DATASETS[dataset]().columnar()
    fv = FrontierView(col, np.arange(col.n_objects))
    whole = KERNELS[kernel](col, col, np.random.default_rng(5))
    frontier = KERNELS[kernel](fv, col, np.random.default_rng(5))
    assert len(whole) == len(frontier)
    for a, b in zip(whole, frontier):
        assert np.array_equal(a, b), f"{kernel} on {dataset}"


@pytest.mark.parametrize(
    "make_model",
    [
        lambda: TDHModel(max_iter=10, incremental=True),
        lambda: DawidSkene(max_iter=10),
    ],
    ids=["TDH-warm", "DS-full"],
)
def test_superseded_encoding_is_freed_by_reference_counting(make_model):
    dataset = make_birthplaces(size=120, seed=7)
    model = make_model()
    gc.disable()
    try:
        col = dataset.columnar()
        first_encoding = weakref.ref(col)
        first = model.fit(dataset)
        obj = dataset.objects[0]
        dataset.add_answer(Answer(obj, "w-refcount", dataset.candidates(obj)[0]))
        second = model.fit(dataset, warm_start=first)
        assert dataset.columnar() is not col
        del first, col
        assert first_encoding() is None
    finally:
        gc.enable()
