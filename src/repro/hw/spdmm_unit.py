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

The core bills the conflict-free cycle count (the butterfly's buffering
absorbs transient congestion, §VII); the test suite's element-level
simulator models per-bank and per-unit serialisation to bound the gap.
"""

from __future__ import annotations

from repro.config import AcceleratorConfig
from repro.formats.convert import Sizes


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
