"""GEMM execution mode: output-stationary systolic array (paper §V-B1).

In GEMM mode the ``psys x psys`` ALU array forms a 2-D systolic array
executing ``psys**2`` multiply-accumulates per cycle.  ``Z = X @ Y`` with
``X (m, n)`` row-major in BufferO and ``Y (n, d)`` column-major in BufferP
is tiled into ``ceil(m/psys) * ceil(d/psys)`` output tiles; each tile
streams the full inner dimension ``n`` plus a ``2 * psys`` fill/drain.

Table IV idealises this as ``m*n*d / psys**2`` cycles; the simulator's
count is the exact tiled number, which converges to the ideal for large
partitions.  Zero elements are *not* skipped — that is the whole point of
the primitive distinction the paper exploits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import AcceleratorConfig
from repro.formats.convert import Sizes
from repro.formats.csr import as_dense, MatrixLike
from repro.formats.dense import DTYPE
from repro.hw.report import CycleReport


def gemm_compute_cycles(
    m: Sizes, n: Sizes, d: Sizes, config: AcceleratorConfig
) -> Sizes:
    """Exact systolic-array cycles for an ``(m, n) @ (n, d)`` product:
    ints, or aligned int64 arrays of them (integer arithmetic throughout).
    A zero ``m`` or ``d`` leaves no tile; a zero ``n`` nothing to stream."""
    p = config.psys
    tiles = -(m // -p) * -(d // -p)
    return tiles * (n + 2 * p) * (n != 0)


def run_gemm(
    x: MatrixLike, y: MatrixLike, config: AcceleratorConfig
) -> tuple[np.ndarray, CycleReport]:
    """Execute GEMM mode: dense product of both operands.

    Returns the result (dense, row-major, as in the Result Buffer) and a
    report whose ``compute`` holds the systolic cycles and ``macs`` the
    full ``m*n*d`` MAC count (GEMM performs work for every element).
    """
    xd = as_dense(x)
    yd = as_dense(y)
    if xd.shape[1] != yd.shape[0]:
        raise ValueError(f"shape mismatch: {xd.shape} @ {yd.shape}")
    m, n = xd.shape
    d = yd.shape[1]
    z = np.asarray(xd @ yd, dtype=DTYPE)
    report = CycleReport(
        compute=gemm_compute_cycles(m, n, d, config),
        macs=m * n * d,
    )
    return z, report


def run_gemm_faithful(
    x: np.ndarray, y: np.ndarray, config: AcceleratorConfig
) -> tuple[np.ndarray, int]:
    """Element-level reference: explicit tile-by-tile MAC loops.

    Used by tests on tiny matrices to validate both the numerics (exact
    float32 accumulation order of an output-stationary array: each output
    element accumulates along ``n`` in order) and the cycle formula.
    """
    xd = as_dense(x)
    yd = as_dense(y)
    m, n = xd.shape
    d = yd.shape[1]
    p = config.psys
    z = np.zeros((m, d), dtype=DTYPE)
    cycles = 0
    for ti in range(math.ceil(m / p)):
        for tj in range(math.ceil(d / p)):
            # output-stationary: the tile's accumulators update once per
            # streamed column of X / row of Y
            cycles += n + 2 * p
            r0, c0 = ti * p, tj * p
            r1, c1 = min(r0 + p, m), min(c0 + p, d)
            for k in range(n):
                for i in range(r0, r1):
                    for j in range(c0, c1):
                        z[i, j] = DTYPE(z[i, j] + DTYPE(xd[i, k] * yd[k, j]))
    return z, cycles
