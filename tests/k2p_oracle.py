"""The Analyzer's rule one pair at a time, in plain Python: the loop
``repro.runtime.perf_model.candidate_cycles`` and
``DynamicMapping.decide_batch`` vectorise, kept as their oracle."""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np

from repro.compiler.sparsity import choose_storage_format
from repro.formats.convert import DenseToSparseModule, SparseToDenseModule
from repro.formats.layout import LayoutMerger, LayoutTransformationUnit
from repro.hw.gemm_unit import gemm_compute_cycles
from repro.hw.report import CANDIDATES, SKIP_CODE
from repro.runtime import perf_model
from repro.runtime.perf_model import PairBatch


def ideal_hardware():
    """Patches under which ``candidate_cycles`` is Table IV when bandwidth
    is unbounded too: no AHM pass costs anything (both operands stored in
    the format every mode wants) and the systolic array is fully occupied."""
    return mock.patch.multiple(
        perf_model,
        candidate_transform_cycles=lambda psys, ex, ey, xs, ys: np.zeros(
            (4, len(ex)), dtype=np.int64),
        gemm_compute_cycles=lambda m, n, d, cfg: m * n * d / cfg.psys**2,
        LayoutMerger=lambda psys: mock.Mock(cycles_for=lambda elems: 0 * elems),
    )


def batch_of(ax, ay, m=512, n=512, d=512, x_sparse=None, y_sparse=None, **extra):
    """A :class:`PairBatch` of pairs with (about) the given densities, each
    a task of its own, stored off-chip as the compiler would store a
    matrix of the first pair's density unless told otherwise."""
    ax, ay = np.atleast_1d(ax).astype(float), np.atleast_1d(ay).astype(float)
    k = len(ax)
    dims = [np.broadcast_to(np.asarray(v, dtype=np.int64), k).copy() for v in (m, n, d)]
    m, n, d = dims
    extra.setdefault("task", np.arange(k))
    extra.setdefault("num_tasks", k)
    return PairBatch(
        m=m, n=n, d=d,
        x_nnz=np.rint(ax * m * n).astype(np.int64),
        y_nnz=np.rint(ay * n * d).astype(np.int64),
        x_stored_sparse=choose_storage_format(ax[0]) if x_sparse is None else x_sparse,
        y_stored_sparse=choose_storage_format(ay[0]) if y_sparse is None else y_sparse,
        **extra,
    )


def pair_costs(batch: PairBatch, config, live) -> list[list[float]]:
    """Per pair, the modelled stage cycles of the four candidate mappings
    (``inf``: does not fit)."""
    p = config.psys
    d2s, s2d = DenseToSparseModule(p), SparseToDenseModule(p)
    ltu, merger = LayoutTransformationUnit(p), LayoutMerger(p)
    words = config.buffers.words_per_buffer
    live_pairs = Counter(int(t) for t, alive in zip(batch.task, live) if alive)
    dispatched = batch.num_tasks if batch.seeded else len(live_pairs)
    bytes_per_cycle = config.memory.bytes_per_cycle(config.freq_hz) / max(
        min(config.num_cores, dispatched), 1
    )
    skew = batch.x_skew(p) if batch.x_skew is not None else np.ones(len(batch))
    xs, ys = batch.x_stored_sparse, batch.y_stored_sparse
    costs = []
    for i in range(len(batch)):
        m, n, d = int(batch.m[i]), int(batch.n[i]), int(batch.d[i])
        x_nnz, y_nnz = int(batch.x_nnz[i]), int(batch.y_nnz[i])
        ex, ey, out = m * n, n * d, m * d
        ax, ay = x_nnz / max(ex, 1), y_nnz / max(ey, 1)
        volume = ex * d
        share = max(live_pairs[int(batch.task[i])], 1)
        compute = [
            float(gemm_compute_cycles(m, n, d, config)),
            ax * 2.0 * volume / (p * p),
            ay * 2.0 * volume / (p * p),
            ax * ay * volume / p * float(skew[i]),
        ]
        transform = [
            (s2d.cycles_for(ex) if xs else 0) + (s2d.cycles_for(ey) if ys else 0)
            + ltu.cycles_for(ey),
            (0 if xs else d2s.cycles_for(ex)) + (s2d.cycles_for(ey) if ys else 0),
            (0 if ys else d2s.cycles_for(ey)) + (s2d.cycles_for(ex) if xs else 0)
            + ltu.cycles_for(ex) + merger.cycles_for(out) / share,
            (0 if xs else d2s.cycles_for(ex)) + (0 if ys else d2s.cycles_for(ey)),
        ]
        load = (
            (12 * x_nnz if xs else 4 * ex) + (12 * y_nnz if ys else 4 * ey)
            + 4 * out / share
        ) / bytes_per_cycle
        fits = [max(ex, ey) <= words, ey <= words, ex <= words, 3 * y_nnz <= words]
        # the AHM passes stream beside the DDR transfer they convert
        if config.buffers.double_buffering:
            cost = [max(c, load, t) for c, t in zip(compute, transform)]
        else:
            cost = [t + load + c for c, t in zip(compute, transform)]
        costs.append([c if ok else float("inf") for c, ok in zip(cost, fits)])
    return costs


def decide(batch: PairBatch, config, skip: bool = True):
    """``(codes, transposed)`` of Algorithm 7 on that cost: skip an empty
    pair, otherwise the first candidate at the minimum."""
    live = [
        not skip or (x != 0 and y != 0) for x, y in zip(batch.x_nnz, batch.y_nnz)
    ]
    codes, transposed = [], []
    for alive, cost in zip(live, pair_costs(batch, config, live)):
        _, code, flip = CANDIDATES[cost.index(min(cost))]
        codes.append(code if alive else SKIP_CODE)
        transposed.append(flip and alive)
    return np.array(codes, dtype=np.int8), np.array(transposed, dtype=bool)
