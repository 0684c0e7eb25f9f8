"""Analytical performance model (paper Table IV and §VI-A).

For ``Z = X @ Y`` with ``X (m, n)`` of density ``alpha_X`` and ``Y (n, d)``
of density ``alpha_Y`` on a core with array dimension ``psys``:

==========  ===================  ==============================
primitive   MACs / cycle         execution time (cycles)
==========  ===================  ==============================
GEMM        ``psys**2``          ``m n d / psys**2``
SpDMM       ``psys**2 / 2``      ``alpha_min * 2 m n d / psys**2``
SPMM        ``psys``             ``alpha_X alpha_Y m n d / psys``
==========  ===================  ==============================

§VI-A derives the optimal-mode regions (``alpha_min = min``, ``alpha_max
= max`` of the two densities):

- ``alpha_min >= 1/2``                          -> GEMM,
- ``alpha_min < 1/2`` and ``alpha_max >= 2/psys`` -> SpDMM,
- ``alpha_min < 1/2`` and ``alpha_max < 2/psys``  -> SPMM,

three non-overlapping cases that tile the whole density domain — a
property the test suite checks against the argmin of the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import AcceleratorConfig
from repro.hw.report import (
    CODE_ORDER,
    GEMM_CODE,
    PRIMITIVE_CODES,
    SPDMM_CODE,
    SPMM_CODE,
    Primitive,
)


def model_cycles_batch(
    m,
    n,
    d,
    alpha_x,
    alpha_y,
    config: AcceleratorConfig,
) -> np.ndarray:
    """Table IV for ``K`` pairs at once: a ``(3, K)`` cycle array.

    Rows follow the code order ``GEMM, SpDMM, SPMM``.  Whole-array numpy
    expressions in float64, which is what makes the Oracle strategy's
    inner loop (one model evaluation per partition pair) tractable on
    large grids.  ``m``, ``n``, ``d`` may be scalars or arrays
    broadcastable to ``K``.
    """
    ax = np.asarray(alpha_x, dtype=np.float64)
    ay = np.asarray(alpha_y, dtype=np.float64)
    for alpha in (ax, ay):
        if alpha.size and (alpha.min() < 0.0 or alpha.max() > 1.0):
            raise ValueError("densities must lie in [0, 1]")
    p2 = config.psys * config.psys
    volume = (
        np.asarray(m, dtype=np.int64)
        * np.asarray(n, dtype=np.int64)
        * np.asarray(d, dtype=np.int64)
    )
    gemm = volume / p2
    spdmm = np.minimum(ax, ay) * 2.0 * volume / p2
    spmm = ax * ay * volume / config.psys
    return np.stack(np.broadcast_arrays(gemm, spdmm, spmm))


def model_cycles(
    primitive: Primitive,
    m: int,
    n: int,
    d: int,
    alpha_x: float,
    alpha_y: float,
    config: AcceleratorConfig,
) -> float:
    """Predicted execution cycles of one primitive (Table IV): the
    batch of one."""
    if primitive not in PRIMITIVE_CODES:
        raise ValueError(f"unknown primitive {primitive}")
    costs = model_cycles_batch(m, n, d, alpha_x, alpha_y, config)
    if primitive is Primitive.SKIP:
        return 0.0
    return float(costs[PRIMITIVE_CODES[primitive]])


def region_thresholds(config: AcceleratorConfig) -> tuple[float, float]:
    """The §VI-A region boundaries: the ``alpha_min`` from which GEMM wins
    and the ``alpha_max`` from which SpDMM beats SPMM."""
    return 0.5, 2.0 / config.psys


def region_primitive_batch(
    alpha_x, alpha_y, config: AcceleratorConfig
) -> np.ndarray:
    """The closed-form optimal mode of §VI-A (ignores the zero case):
    int8 primitive codes per pair (:data:`repro.hw.report.CODE_ORDER`).
    GEMM wins the tie at ``alpha_min = 1/2``, SpDMM at ``alpha_max =
    2/psys``."""
    ax = np.asarray(alpha_x, dtype=np.float64)
    ay = np.asarray(alpha_y, dtype=np.float64)
    gemm_from, spdmm_from = region_thresholds(config)
    # written in inverse-priority order: each later mask overrides
    codes = np.full(np.broadcast(ax, ay).shape, SPMM_CODE, dtype=np.int8)
    codes[np.maximum(ax, ay) >= spdmm_from] = SPDMM_CODE
    codes[np.minimum(ax, ay) >= gemm_from] = GEMM_CODE
    return codes


def region_primitive(
    alpha_x: float, alpha_y: float, config: AcceleratorConfig
) -> Primitive:
    """:func:`region_primitive_batch` of one pair."""
    return CODE_ORDER[int(region_primitive_batch(alpha_x, alpha_y, config))]


def argmin_primitive_batch(
    m,
    n,
    d,
    alpha_x,
    alpha_y,
    config: AcceleratorConfig,
) -> np.ndarray:
    """Brute-force minimiser of the model: int8 codes with Algorithm 7's
    tie-breaks (the first of GEMM, SpDMM, SPMM at the minimum)."""
    costs = model_cycles_batch(m, n, d, alpha_x, alpha_y, config)
    best = costs.min(axis=0, keepdims=True)
    # argmax over the boolean mask returns the *first* primitive (in
    # region order) whose cost reaches the minimum
    return np.argmax(costs <= best, axis=0).astype(np.int8)


def argmin_primitive(
    m: int,
    n: int,
    d: int,
    alpha_x: float,
    alpha_y: float,
    config: AcceleratorConfig,
) -> Primitive:
    """:func:`argmin_primitive_batch` of one pair."""
    return CODE_ORDER[int(argmin_primitive_batch(m, n, d, alpha_x, alpha_y, config))]


@dataclass
class PerformanceModel:
    """Convenience wrapper binding the model to one configuration."""

    config: AcceleratorConfig

    def cycles(
        self, primitive: Primitive, m: int, n: int, d: int,
        alpha_x: float, alpha_y: float,
    ) -> float:
        return model_cycles(primitive, m, n, d, alpha_x, alpha_y, self.config)

    def best(self, alpha_x: float, alpha_y: float) -> Primitive:
        return region_primitive(alpha_x, alpha_y, self.config)

    def crossover_densities(self) -> dict:
        """The §VI-A region boundaries for this configuration."""
        gemm_from, spdmm_from = region_thresholds(self.config)
        return {"gemm_spdmm_alpha_min": gemm_from, "spdmm_spmm_alpha_max": spdmm_from}
