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

from repro.config import AcceleratorConfig
from repro.formats.convert import Sizes


def gemm_compute_cycles(
    m: Sizes, n: Sizes, d: Sizes, config: AcceleratorConfig
) -> Sizes:
    """Exact systolic-array cycles for an ``(m, n) @ (n, d)`` product:
    ints, or aligned int64 arrays of them (integer arithmetic throughout).
    A zero ``m`` or ``d`` leaves no tile; a zero ``n`` nothing to stream."""
    p = config.psys
    tiles = -(m // -p) * -(d // -p)
    return tiles * (n + 2 * p) * (n != 0)
