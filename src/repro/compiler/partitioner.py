"""Data-partitioning heuristic (paper Algorithm 9).

Chooses the partition sizes ``(N1, N2)`` subject to the paper's three
objectives: maximise partition size for locality, keep at least
``eta * N_CC`` tasks per kernel for load balance, and respect on-chip
buffer capacity (``N <= g(So)``).

Step 1 fixes ``N2`` from the Update kernels (``T_u = Q / N2**2``); step 2
fixes ``N1`` from the Aggregate kernels (``T_a = Q / (N1 * N2)``).
Partition sides are rounded down to multiples of ``psys`` (the ALU-array
granularity) and ``N1 >= N2`` is enforced so fibers contain whole
subfibers (Fig. 5).
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.config import AcceleratorConfig
from repro.hw.buffers import max_partition_dim
from repro.ir.kernel import KernelIR, KernelType


def _align_down(n: int, align: int) -> int:
    return max((n // align) * align, align)


def choose_partition_sizes(
    kernels: Iterable[KernelIR], config: AcceleratorConfig
) -> tuple[int, int]:
    """Algorithm 9: partition sizes for a compiled program's kernels."""
    kernels = list(kernels)
    if not kernels:
        raise ValueError("no kernels to partition")
    align = config.psys
    n_max = min(
        config.max_partition_dim,
        max_partition_dim(config.buffers.words_per_buffer, align=align),
    )
    target = config.eta * config.num_cores  # eta * N_CC tasks per kernel

    # the floor keeps small-graph partitions from shrinking to a few ALU
    # widths (see AcceleratorConfig.min_partition_dim); it never exceeds
    # what fits on chip
    n_min = min(max(config.min_partition_dim, align), n_max)

    # ---- Step 1: N2 from the Update kernels --------------------------------
    n2 = n_max
    for k in kernels:
        if k.ktype is not KernelType.UPDATE:
            continue
        # largest N' with T_u = Q / N'^2 >= target
        n_prime = int(math.isqrt(max(k.workload // target, 1)))
        n_it = min(n_prime, n_max)
        n2 = min(n_it, n2)
    n2 = max(_align_down(n2, align), n_min)

    # ---- Step 2: N1 from the Aggregate kernels ---------------------------------
    n1 = n_max
    for k in kernels:
        if k.ktype is not KernelType.AGGREGATE:
            continue
        # largest N' with T_a = Q / (N' * N2) >= target
        n_prime = max(k.workload // (target * n2), 1)
        n_it = min(n_prime, n_max)
        n1 = min(n_it, n1)
    n1 = max(_align_down(n1, align), n_min)

    # fibers must contain whole N2 x N2 subfibers (Fig. 5)
    n1 = max(n1, n2)
    return n1, n2

