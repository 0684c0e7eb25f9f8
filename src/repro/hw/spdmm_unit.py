"""SpDMM execution mode: scatter-gather paradigm (paper Algorithm 5).

The ALU array splits into ``psys/2`` Update Units and ``psys/2`` Reduce
Units (each ``psys/2 x 2`` ALUs), for an aggregate throughput of
``psys**2 / 2`` MACs per cycle.  The sparse operand ``X`` (COO, BufferU)
streams ``psys/2`` nonzeros per cycle; the Index Shuffle Network routes
element ``e(i, j, v)`` to BufferO bank ``i mod psys`` to fetch the dense
row ``Y[i]``, the Data Shuffle Network routes the pair to Update Unit
``j mod (psys/2)``, which multiplies ``v * Y[i]`` while the paired Reduce
Unit accumulates into ``Z[j]``.

Zeros of the *sparse* operand are skipped entirely; zeros of the dense
operand are not — hence Table IV's ``alpha_min * 2*m*n*d / psys**2``.

The fast path charges the conflict-free cycle count (the butterfly's
buffering absorbs transient congestion, §VII); the faithful simulator
models per-bank and per-unit serialisation so tests can bound the gap.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import AcceleratorConfig
from repro.formats.convert import Sizes
from repro.formats.csr import as_csr, as_dense, MatrixLike
from repro.formats.dense import DTYPE
from repro.hw.report import CycleReport


def spdmm_compute_cycles(
    nnz_sparse: Sizes, dense_cols: Sizes, config: AcceleratorConfig
) -> Sizes:
    """Conflict-free SpDMM cycles, for ints or aligned int64 arrays.

    Two throughput limits apply: the Update Units retire
    ``psys**2 / 2`` MACs per cycle (``nnz * d`` MACs total), and BufferU
    feeds at most ``psys / 2`` nonzeros per cycle.  ``psys`` is a power of
    two >= 2 (``AcceleratorConfig``), so both rates are integers and the
    ceilings are integer divisions.
    """
    half = config.psys // 2
    macs = nnz_sparse * dense_cols
    mac_bound = -(macs // -(config.psys * half))
    fetch_bound = -(nnz_sparse // -half)
    # max(mac_bound, fetch_bound), spelt so that an array takes it too
    bound = mac_bound + (fetch_bound - mac_bound) * (fetch_bound > mac_bound)
    return (bound + config.pipeline_depth) * (macs != 0)


def run_spdmm(
    sparse: MatrixLike, dense: MatrixLike, config: AcceleratorConfig
) -> tuple[np.ndarray, CycleReport]:
    """Execute SpDMM mode: ``Z = sparse @ dense``.

    ``sparse`` is the BufferU operand (zeros skipped), ``dense`` the
    BufferO operand.  MAC count is exactly ``nnz(sparse) * d``.
    """
    xs = as_csr(sparse)
    if xs.nnz and np.any(xs.data == 0):
        xs = xs.copy()
        xs.eliminate_zeros()
    yd = as_dense(dense)
    if xs.shape[1] != yd.shape[0]:
        raise ValueError(f"shape mismatch: {xs.shape} @ {yd.shape}")
    d = yd.shape[1]
    z = np.asarray(xs @ yd, dtype=DTYPE)
    report = CycleReport(
        compute=spdmm_compute_cycles(xs.nnz, d, config),
        macs=int(xs.nnz) * d,
    )
    return z, report


def run_spdmm_faithful(
    sparse: MatrixLike, dense: MatrixLike, config: AcceleratorConfig
) -> tuple[np.ndarray, int]:
    """Element-level Algorithm 5 with bank/unit serialisation.

    Each cycle a group of up to ``psys/2`` nonzeros is fetched.  Within a
    group, accesses to the same BufferO bank (``i mod psys``) or the same
    Update Unit (``j mod psys/2``) serialise.  An Update Unit occupies
    ``ceil(d / psys)`` cycles per accepted element (it has ``psys`` ALUs
    for a ``d``-long row).  Returns the exact result and the simulated
    cycle count (>= the conflict-free fast-path count).
    """
    p = config.psys
    half = p // 2
    xs = as_csr(sparse).tocoo()
    yd = as_dense(dense)
    m = xs.shape[0]
    d = yd.shape[1]
    z = np.zeros((m, d), dtype=DTYPE)
    mask = xs.data != 0
    rows, cols, vals = xs.row[mask], xs.col[mask], xs.data[mask]
    # COO row-major order: the stream leaves BufferU sorted by (row, col)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]

    occupancy = math.ceil(d / p) if d else 0
    unit_free = np.zeros(half, dtype=np.int64)
    cycle = 0
    for g in range(0, rows.size, half):
        gr = rows[g : g + half]
        gc = cols[g : g + half]
        gv = vals[g : g + half]
        cycle += 1  # fetch cycle for this group
        # ISN: one access per BufferO bank per cycle
        bank_counts = np.bincount(gc % p, minlength=p)
        isn_rounds = int(bank_counts.max()) if bank_counts.size else 1
        cycle += max(isn_rounds - 1, 0)
        for r, c, v in zip(gr, gc, gv):
            unit = int(r) % half
            start = max(cycle, int(unit_free[unit]))
            unit_free[unit] = start + occupancy
            # update + reduce: Z[j] += v * Y[i]
            z[r, :] += DTYPE(v) * yd[c, :]
    total = int(max(cycle, unit_free.max() if unit_free.size else 0))
    return z, total + config.pipeline_depth
