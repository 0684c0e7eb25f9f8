"""The Computation Core: Agile Computation Module + Auxiliary Hardware Module.

A core executes one *task* (Algorithm 4) at a time: ``K`` partition-pair
multiplications accumulated into one output partition ``Z_ij`` held in the
Result Buffer, followed by write-back to DDR.  For every pair the runtime
has already chosen a primitive (Algorithm 7); the core

1. loads the operands (charging DDR cycles in their off-chip format),
2. runs the Auxiliary Hardware Module as needed — D2S/S2D when the stored
   format differs from what the mode requires (Table III), the layout
   transformation unit when the mode needs a column-major operand,
3. executes the mode (GEMM / SpDMM / SPMM) on the ALU array,
4. accumulates into the Result Buffer (partials from "transposed" pairs
   land column-major and are merged by the layout merger on write-back),
5. streams ``Z`` back to DDR through the Sparsity Profiler, dense or, when
   the profiled count makes the task shorter, through D2S as COO
   (:func:`writeback_stream`).

This module is what a core *bills* for that, over every pair and task of
a kernel at once: :func:`batch_pair_cycles` (steps 2-3),
:func:`batch_task_writeback` (steps 4-5), and the per-core state the task
loop (:mod:`repro.runtime.vectorized`) carries between kernels.  With
double buffering (§V-B3) the memory/transform streams overlap compute and
the AHM passes run beside the transfers they convert, so a task takes
``max(compute, memory, transform)`` (:func:`repro.hw.report.stage_cycles`),
the cost the Analyzer minimises per pair
(:func:`repro.runtime.perf_model.candidate_cycles`), its transform term
from the body this module bills from (:func:`candidate_transform_cycles`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import AcceleratorConfig
from repro.formats.convert import DenseToSparseModule, SparseToDenseModule
from repro.formats.density import SparsityProfiler
from repro.formats.layout import LayoutMerger, LayoutTransformationUnit
from repro.hw.gemm_unit import gemm_compute_cycles
from repro.hw.memory import ExternalMemory
from repro.hw.report import GEMM_CODE, SKIP_CODE, SPDMM_CODE, SPMM_CODE, Primitive
from repro.hw.spdmm_unit import spdmm_compute_cycles


class ComputationCore:
    """The state one Computation Core keeps between kernels, and the AHM
    units its write-back bills."""

    def __init__(
        self,
        config: AcceleratorConfig,
        memory: ExternalMemory,
        core_id: int = 0,
    ) -> None:
        self.config = config
        self.memory = memory
        self.core_id = core_id
        width = config.psys
        self.merger = LayoutMerger(width)
        self.d2s = DenseToSparseModule(width)
        self.profiler = SparsityProfiler(width)
        #: the mode the ALU array was last configured for (a switch costs
        #: ``mode_switch_cycles``)
        self._last_primitive: Optional[Primitive] = None
        #: how many cores are concurrently streaming from DDR (set by the
        #: scheduler per kernel; bounds this core's bandwidth share)
        self.active_cores: Optional[int] = None

    def reset(self) -> None:
        self._last_primitive = None


def candidate_transform_cycles(
    psys: int,
    elems_x: np.ndarray,
    elems_y: np.ndarray,
    x_stored_sparse: bool,
    y_stored_sparse: bool,
) -> np.ndarray:
    """AHM cycles Table III requires of each candidate mapping of ``K``
    pairs, given the operands' off-chip formats: a ``(4, K)`` int64 array
    in :data:`repro.hw.report.CANDIDATES` order, a function of dims and
    stored formats only.  The Analyzer's cost weighs all four rows
    (:func:`repro.runtime.perf_model.candidate_cycles`) and
    :func:`batch_pair_cycles` bills the chosen one: the two cannot drift."""
    s2d, d2s = SparseToDenseModule(psys), DenseToSparseModule(psys)
    ltu = LayoutTransformationUnit(psys)
    s2d_x = s2d.cycles_for(elems_x) if x_stored_sparse else 0
    s2d_y = s2d.cycles_for(elems_y) if y_stored_sparse else 0
    d2s_x = 0 if x_stored_sparse else d2s.cycles_for(elems_x)
    d2s_y = 0 if y_stored_sparse else d2s.cycles_for(elems_y)
    rows = np.empty((4, len(elems_x)), dtype=np.int64)
    # X dense row-major, Y dense column-major (an LTU pass)
    rows[0] = s2d_x + s2d_y + ltu.cycles_for(elems_y)
    # X sparse in BufferU, Y dense
    rows[1] = d2s_x + s2d_y
    # Y sparse in BufferU, X dense and column-major
    rows[2] = d2s_y + s2d_x + ltu.cycles_for(elems_x)
    # both sparse
    rows[3] = d2s_x + d2s_y
    return rows


def batch_pair_cycles(
    core: "ComputationCore",
    codes: np.ndarray,
    transposed: np.ndarray,
    m: np.ndarray,
    n: np.ndarray,
    d: np.ndarray,
    x_nnz: np.ndarray,
    y_nnz: np.ndarray,
    x_stored_sparse: bool,
    y_stored_sparse: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What each pair of a kernel bills on a core: per-pair ``(compute,
    transform, macs)`` int64 arrays over all pairs at once.

    GEMM runs the tiled systolic count, SpDMM the conflict-free count of
    its sparse side (``nnz(Y)`` against ``m`` rows when transposed), and
    the transform is the Table III row the pair took.  SPMM pairs get
    zeros for compute/macs — their counts are data-dependent (per-SCP
    workloads) and are filled in during the functional pass.  SKIP pairs
    contribute zeros everywhere.
    """
    codes = np.asarray(codes)
    transposed = np.asarray(transposed, dtype=bool)
    gemm = codes == GEMM_CODE
    spdmm = codes == SPDMM_CODE
    sparse_nnz = np.where(transposed, y_nnz, x_nnz)
    dense_cols = np.where(transposed, m, d)
    compute = np.where(
        gemm, gemm_compute_cycles(m, n, d, core.config),
        np.where(spdmm, spdmm_compute_cycles(sparse_nnz, dense_cols, core.config), 0),
    )
    macs = np.where(gemm, m * n * d, np.where(spdmm, sparse_nnz * dense_cols, 0))
    # the candidate each live pair took: SpDMM's two orientations sit
    # between GEMM and SPMM
    live = codes != SKIP_CODE
    row = np.where(live, codes + (transposed | (codes == SPMM_CODE)), 0)
    candidates = candidate_transform_cycles(
        core.config.psys, m * n, n * d, x_stored_sparse, y_stored_sparse
    )
    transform = np.where(live, np.take_along_axis(candidates, row[None], axis=0)[0], 0)
    return compute, transform, macs


def writeback_stream(core: "ComputationCore", sizes, out_nnz, memory, transform):
    """How output partitions of ``sizes`` elements holding ``out_nnz``
    nonzeros (the Sparsity Profiler's count) leave ``core``, from tasks
    whose streams so far took ``memory`` DDR and ``transform`` AHM cycles:
    ``(coo, d2s, write_bytes)``, elementwise over scalars or arrays.

    A partition leaves as COO, 12 B a nonzero after a D2S pass, when that
    makes its task's :func:`repro.hw.report.stage_cycles` shorter than the
    dense 4 B an element over the core's DDR share ``b`` (bytes a cycle
    under the kernel's concurrency), compared with the streams both sides
    share cancelled so no rounding of them decides a tie; ties go dense.
    """
    bpc = core.memory.per_core_bytes_per_cycle(core.active_cores)
    d2s = core.d2s.cycles_for(sizes)
    coo = 4 * sizes - 12 * out_nnz > d2s * bpc  # serialised: the saved bytes outlast D2S
    if core.config.buffers.double_buffering:
        # max(memory + 12 nnz/b, transform + D2S) < max(memory + 4 size/b, transform)
        coo = (transform + d2s < memory + 4 * sizes / bpc) & (
            (12 * out_nnz < 4 * sizes) | (memory + 12 * out_nnz / bpc < transform))
    return coo, np.where(coo, d2s, 0), np.where(coo, 12 * out_nnz, 4 * sizes)


def batch_task_writeback(
    core: "ComputationCore",
    sizes: np.ndarray,
    out_nnz: np.ndarray,
    merged: np.ndarray,
    memory: np.ndarray,
    transform: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What each task's write-back bills on a core: the layout merger
    where transposed partials landed, the Sparsity Profiler, and the
    stream :func:`writeback_stream` picks.

    ``sizes`` are output-partition element counts, ``out_nnz`` the exact
    nonzero counts, ``merged`` flags tasks whose partials needed the
    layout merger, ``memory`` / ``transform`` the tasks' summed pair
    streams.  Returns per-task ``(profile, transform, write_bytes, coo)``:
    the write-back's own int64 cycles and bytes and the COO mask.
    """
    merge = np.where(merged, core.merger.cycles_for(sizes), 0)
    coo, d2s, write_bytes = writeback_stream(core, sizes, out_nnz, memory, transform + merge)
    return core.profiler.cycles_for(sizes), d2s + merge, write_bytes, coo
