"""The runtime system: executes a compiled program on the accelerator.

Implements the §III-B runtime step: for each kernel (in dependency
order) the Analyzer maps every partition pair to a primitive (through the
pluggable :class:`~repro.runtime.strategies.MappingStrategy`), the
Scheduler assigns tasks to idle Computation Cores (Algorithm 8), the cores
execute and profile, and the produced feature matrix is stored back with
an on-the-fly format decision; the host holds each output partition by
its profiled count (:class:`KernelAssembly`: CSR below 10% dense), so an
output that sparse never exists as a dense matrix.  K2P analysis for
kernel ``l+1`` overlaps the accelerator's execution of kernel ``l``
(§VI-B), so the reported latency adds only the *exposed* part of the
runtime-system time; the raw overhead is reported separately (Fig. 13).

One driver, :func:`run_strategy`, runs a program on one device or split
over the devices of a shard plan (:mod:`repro.shard`), and one result
type, :class:`InferenceResult`, reports either: an unsharded run is the
plan of width 1, one lane over every row with no halo and no barrier.

The functional output is exact: integration tests compare it bit-for-bit
(up to float32 accumulation tolerance) against
:func:`repro.gnn.functional.reference_inference`.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.compiler.compile import CompiledProgram, CompileTimings
from repro.compiler.sparsity import choose_storage_format
from repro.config import AcceleratorConfig
from repro.formats.csr import as_dense
from repro.formats.dense import DTYPE
from repro.formats.partition import PartitionedMatrix, grid_dims
from repro.gnn.activations import activation_fn
from repro.hw.accelerator import Accelerator
from repro.hw.memory import pcie_transfer_seconds
from repro.hw.report import exposed_stream
from repro.ir.kernel import KernelIR, KernelType
from repro.ir.scheme import owned_block_rows
from repro.obs.tracer import NULL_TRACER
from repro.runtime.scheduler import CoreTimeline
from repro.runtime.stats import (
    KernelStats, LayerStats, mean_over_max, total_primitive_counts,
)
from repro.runtime.strategies import MappingStrategy, make_strategy
from repro.runtime import vectorized
from repro.runtime.vectorized import execute_kernel_tasks


@dataclass(kw_only=True)
class InferenceResult:
    """Everything a run produces, on one device or many: the exact output,
    each kernel's per-lane record under its layer barrier, and the
    latency built on them."""

    output: object  # ndarray | csr_matrix
    strategy_name: str
    model_name: str
    data_name: str
    config: AcceleratorConfig
    #: per kernel, in execution order: each lane's record and the barrier
    layers: list[LayerStats]
    #: devices the run spanned, one lane each
    num_shards: int = 1
    #: the :class:`~repro.shard.planner.ShardPlan` the lanes followed
    #: (``None``: one lane over every row)
    plan: object = None
    compile_timings: CompileTimings
    input_bytes: int
    #: per-core busy cycles, lane after lane
    core_busy: np.ndarray
    #: every lane's task events on its own device clock, lane after lane
    timeline_events: list = field(default_factory=list, repr=False)
    #: the execution backend that produces such a run (``sharded`` when
    #: it spans more than one device)
    backend: str = "simulated"

    #: span categories whose durations sum to ``latency_s`` in a trace of
    #: this run (what ``validate_trace`` reconciles)
    reconcile_cats = ("layer",)
    #: the frozen copy of ``output`` served responses share (see
    #: :meth:`served_output`)
    _served = None
    #: fields ``to_dict`` leaves out, by name: matrices, hardware objects,
    #: per-core vectors and raw events are huge or not JSON (--json
    #: consumers compare summaries, not payloads); the per-kernel, compile
    #: and plan records appear as ``_summary()`` keys
    _UNSERIALISED = frozenset({
        "output", "config", "core_busy", "timeline_events",
        "layers", "compile_timings", "plan",
    })
    _KEYS = {"model_name": "model", "data_name": "dataset",
             "strategy_name": "strategy"}

    def output_dense(self) -> np.ndarray:
        return as_dense(self.output)

    def served_output(self) -> np.ndarray:
        """The read-only dense copy every response served from this run
        shares (made on first use): a client's in-place edit raises instead
        of corrupting later responses, and ``output`` itself stays the
        caller's to write."""
        if self._served is None:
            self._served = np.array(self.output_dense())
            self._served.setflags(write=False)
        return self._served

    # -- latency (cached: nothing changes a run once it is returned) -----
    @functools.cached_property
    def _clock(self) -> tuple[float, float, float]:
        """The run's latency as (cycles, seconds, milliseconds).

        The one place width decides arithmetic.  One lane meets no other
        at a barrier, so its latency is a cycle count, summed in the
        order single-device runs always have (every kernel's makespan,
        then every exposed analysis); lanes meet at every layer barrier,
        so a wider run's is the sum of its barriers' seconds.  The two
        sums differ in the last ulp, and the ledger's digests and the
        serve golden tables hash both.
        """
        cfg = self.config
        if self.num_shards == 1:
            cycles = self.accel_cycles + self.exposed_overhead_cycles
            return cycles, cfg.cycles_to_seconds(cycles), cfg.cycles_to_ms(cycles)
        seconds = float(sum(layer.barrier_s for layer in self.layers))
        return seconds * cfg.freq_hz, seconds, seconds * 1e3

    @property
    def total_cycles(self) -> float:
        """Accelerator execution latency in cycles (§VIII-A metric)."""
        return self._clock[0]

    @property
    def latency_s(self) -> float:
        return self._clock[1]

    @property
    def latency_ms(self) -> float:
        return self._clock[2]

    @functools.cached_property
    def segments_s(self) -> tuple:
        """Per-layer barrier intervals, the continuous scheduler's
        join/preemption boundaries: float-summation drift goes into the
        last one, so they sum to ``latency_s`` exactly."""
        segs = [layer.barrier_s for layer in self.layers]
        if segs:
            segs[-1] += self.latency_s - sum(segs)
        return tuple(segs)

    @property
    def overhead_fraction(self) -> float:
        """Runtime-system time / total execution time (Fig. 13)."""
        total = self.latency_s
        if total <= 0:
            return 0.0
        return self.runtime_overhead_seconds / total

    # -- aggregates ------------------------------------------------------
    @property
    def kernel_stats(self) -> list[KernelStats]:
        """Every lane's record of every kernel, kernel after kernel (one
        per kernel on one lane)."""
        return [ks for layer in self.layers for ks in layer.lanes]

    @property
    def accel_cycles(self) -> float:
        """Kernel makespans on the accelerator(s), summed over lanes."""
        return float(sum(ks.cycles for ks in self.kernel_stats))

    @property
    def exposed_overhead_cycles(self) -> float:
        """Runtime-system time execution could not hide (cycles)."""
        return float(sum(ks.exposed_cycles for ks in self.kernel_stats))

    @property
    def runtime_overhead_seconds(self) -> float:
        """Soft-processor time spent on K2P analysis, every lane's."""
        return float(sum(ks.analysis_seconds for ks in self.kernel_stats))

    @property
    def primitive_totals(self) -> Counter:
        return total_primitive_counts(self.kernel_stats)

    @property
    def total_macs(self) -> int:
        return sum(ks.macs for ks in self.kernel_stats)

    @property
    def bytes_read(self) -> int:
        return sum(ks.bytes_read for ks in self.kernel_stats)

    @property
    def bytes_written(self) -> int:
        return sum(ks.bytes_written for ks in self.kernel_stats)

    @property
    def num_tasks(self) -> int:
        return sum(ks.num_tasks for ks in self.kernel_stats)

    @property
    def num_pairs(self) -> int:
        return sum(ks.num_pairs for ks in self.kernel_stats)

    # -- lanes and halo ----------------------------------------------------
    @functools.cached_property
    def shard_busy_s(self):
        """Per-lane occupancy seconds under the layer barriers (summed over
        kernels).  One lane is held to no barrier (the serve loop books
        its segments), so it reports none."""
        if self.num_shards == 1:
            return ()
        return np.sum([layer.seconds for layer in self.layers], axis=0)

    @functools.cached_property
    def barrier_s(self) -> float:
        """Mean per-lane idle time at layer barriers (the mean of a
        trace's barrier-wait span sums); 0.0 on one lane."""
        busy = self.shard_busy_s
        return max(self.latency_s - float(np.mean(busy)), 0.0) if len(busy) else 0.0

    def _total(self, per_lane: str):
        """One per-lane array summed over lanes, then over kernels."""
        return sum(getattr(layer, per_lane).sum() for layer in self.layers)

    @property
    def halo_bytes(self) -> int:
        """Total boundary-feature bytes moved between devices."""
        return int(self._total("halo_bytes"))

    @property
    def halo_s(self) -> float:
        """Total PCIe transfer time of halo exchange (all lanes)."""
        return float(self._total("halo_s"))

    @property
    def halo_exposed_s(self) -> float:
        """The part of ``halo_s`` no lane's compute hid (all lanes)."""
        return float(self._total("exposed_halo_s"))

    @property
    def halo_fraction(self) -> float:
        """Exposed-halo share of total device occupancy, in [0, 1]."""
        busy = float(np.sum(self.shard_busy_s))
        return self.halo_exposed_s / busy if busy > 0 else 0.0

    def zero_halo_latency_s(self) -> float:
        """Latency if every halo exchange were free: per kernel the
        barrier becomes the slowest lane's *compute* time (makespan plus
        exposed analysis).  The oracle of the trace analyzer's zero-halo
        projection, which replays the same accounting from the spans."""
        to_s = self.config.cycles_to_seconds
        return float(sum(
            float(np.max(to_s(layer.lane("cycles") + layer.lane("exposed_cycles"))))
            for layer in self.layers
        ))

    def load_balance(self) -> float:
        """Mean busy time / max busy time of the run's parallel units, in
        [0, 1]: the cores of one lane, the lanes of a wider run (whose
        cores already meet at every kernel barrier)."""
        busy = self.shard_busy_s
        return mean_over_max(busy if len(busy) else self.core_busy)

    def speedup_vs(self, other: "InferenceResult") -> float:
        """How much faster *this* run is than ``other`` (>1 = faster)."""
        return other.latency_s / self.latency_s

    # -- reports -----------------------------------------------------------
    def format_report(self) -> str:
        """Human-readable per-kernel execution report: each kernel's row
        is the lane that set its barrier, beside every lane's seconds."""
        plan = self.plan
        lines = [
            f"{self.model_name} on {self.data_name} — strategy "
            f"{self.strategy_name}, {self.num_shards} shard(s)",
            f"  latency {self.latency_ms:.4f} ms "
            f"({self.total_cycles:.0f} cycles), "
            f"runtime overhead {self.overhead_fraction * 100:.2f}%, "
            f"load balance {self.load_balance():.3f}",
            f"  halo {self.halo_s * 1e3:.4f} ms over {self.halo_bytes:,} bytes "
            f"({self.halo_fraction * 100:.2f}% of device time), shard nnz "
            f"balance {plan.nnz_balance() if plan else 1.0:.3f}",
            f"  {'kernel':<20}{'cycles':>12}{'tasks':>7}{'pairs':>7}"
            f"{'skip':>6}{'waves':>7}{'out dens':>10}{'coo wb':>8}"
            f"{'barrier ms':>12}{'slowest':>9}{'halo hidden/exposed ms':>24}"
            f"  primitives; per-shard ms",
        ]
        for layer in self.layers:
            row, s = _kernel_row(layer), layer.slowest
            prims = ", ".join(
                f"{p}:{c}" for p, c in row["primitives"].items() if p != "SKIP")
            exposed = float(layer.exposed_halo_s[s]) * 1e3
            hidden = max(float(layer.halo_s[s]) * 1e3 - exposed, 0.0)
            per = ", ".join(f"{ms:.3f}" for ms in row["shard_ms"])
            lines.append(
                f"  {row['kernel_id']:<20}{row['cycles']:>12.0f}{row['tasks']:>7}"
                f"{row['pairs']:>7}{row['skipped_pairs']:>6}{row['waves']:>7}"
                f"{row['out_density']:>10.3f}{row['coo_writebacks']:>8}"
                f"{row['barrier_ms']:>12.4f}{s:>9}"
                f"{f'{hidden:.4f} / {exposed:.4f}':>24}  {prims}; [{per}]"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable summary (``repro run --json``): every
        field not named in ``_UNSERIALISED``, then the latency, the
        balance and the derived keys (``_summary()``) — a new field is
        serialised unless someone names it."""
        summary = {}
        for f in fields(self):
            if f.name not in self._UNSERIALISED:
                value = getattr(self, f.name)
                summary[self._KEYS.get(f.name, f.name)] = (
                    value.item() if isinstance(value, np.generic) else value
                )
        summary["latency_ms"] = self.latency_ms
        summary["load_balance"] = self.load_balance()
        summary.update(self._summary())
        return summary

    def _summary(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "accel_cycles": self.accel_cycles,
            "exposed_overhead_cycles": self.exposed_overhead_cycles,
            "runtime_overhead_seconds": self.runtime_overhead_seconds,
            "overhead_fraction": self.overhead_fraction,
            "num_tasks": self.num_tasks,
            "num_pairs": self.num_pairs,
            "total_macs": int(self.total_macs),
            "bytes_read": int(self.bytes_read),
            "bytes_written": int(self.bytes_written),
            "halo_bytes": self.halo_bytes,
            "halo_s": self.halo_s,
            "halo_fraction": self.halo_fraction,
            "nnz_balance": self.plan.nnz_balance() if self.plan else 1.0,
            "zero_halo_latency_ms": self.zero_halo_latency_s() * 1e3,
            "compile": {
                **asdict(self.compile_timings),
                "total_s": self.compile_timings.total_s,
            },
            "kernels": [_kernel_row(layer) for layer in self.layers],
        }

    def trace_meta(self) -> dict:
        """``otherData`` for a trace of this run: what ran, and the
        latency and span categories ``validate_trace`` reconciles (and
        ``attribute`` reconciles against).  The what-if projections need
        nothing from it: a halo's transfer is on its ``dma`` span."""
        return {
            "model": self.model_name,
            "dataset": self.data_name,
            "strategy": self.strategy_name,
            "shards": self.num_shards,
            "expected_total_s": self.latency_s,
            "reconcile_cats": list(self.reconcile_cats),
        }


def _kernel_row(layer: LayerStats) -> dict:
    """One kernel of ``to_dict``: the record of the lane that set its
    barrier, then every lane's seconds, tasks and Analyzer weighing."""
    s = layer.slowest
    ks = layer.lanes[s]
    return {
        "kernel_id": ks.kernel_id,
        "ktype": ks.ktype.name,
        "cycles": ks.cycles,
        "tasks": ks.num_tasks,
        "tasks_executed": ks.tasks_executed,
        "pairs": ks.num_pairs,
        "skipped_pairs": ks.skipped_pairs,
        "waves": ks.num_waves,
        "out_density": ks.out_density,
        "coo_writebacks": ks.coo_writebacks,
        "primitives": {
            p.value: int(c)
            for p, c in sorted(
                ks.primitive_counts.items(), key=lambda kv: kv[0].value
            )
        },
        "modelled_cycles": ks.modelled_cycles,
        "barrier_ms": layer.barrier_s * 1e3,
        "slowest_shard": s,
        "halo_bytes": int(layer.halo_bytes.sum()),
        "halo_exposed_ms": float(layer.exposed_halo_s.max()) * 1e3,
        "shard_ms": [float(t) * 1e3 for t in layer.seconds],
        "shard_tasks": [int(t) for t in layer.lane("num_tasks")],
        "shard_modelled_cycles": [lane.modelled_cycles for lane in layer.lanes],
    }


@dataclass
class KernelAssembly:
    """Shared output-assembly state of one kernel.

    Every task of a kernel writes a disjoint output partition, so the
    assembly can be shared by executors that split one kernel's task
    grid across devices (:mod:`repro.shard`): each device writes its own
    blocks and :meth:`finalize` produces the same matrix the
    single-device run assembles.  ``nnz_grid`` holds the write-back
    profiler's count per output partition (unwritten: 0): the output's
    census under ``out_blocking``.  A partition is held as that count says
    (``vectorized.SPARSE_HOLDING``): a CSR block in ``blocks`` or a slice
    of ``out_dense``, which the first dense one allocates.  How the host
    holds an output decides no modelled quantity.  A lineage table carries
    a finalized assembly (:meth:`carry`) into later runs: its writes store
    nothing and return its counts, and it finalizes to its read-only
    output."""

    rows: int
    cols: int
    out_br: int
    out_bc: int
    nnz_grid: np.ndarray
    out_dense: Optional[np.ndarray] = None
    blocks: dict = field(default_factory=dict)
    #: a CSR output's blocks, one list per block row (set by ``finalize``)
    block_rows: Optional[list] = None
    #: ``finalize``'s (output, density), once carried
    carried: Optional[tuple] = None

    @property
    def total_out_nnz(self) -> int:
        return int(self.nnz_grid.sum())

    @classmethod
    def for_kernel(cls, xv, yv, scheme) -> "KernelAssembly":
        rows, cols, (br, bc) = xv.shape[0], yv.shape[1], scheme.out_blocking
        return cls(rows, cols, br, bc, np.zeros(grid_dims((rows, cols), br, bc), np.int64))

    def _part(self, i: int, k: int) -> tuple[slice, slice]:
        r0, c0 = i * self.out_br, k * self.out_bc
        return slice(r0, r0 + self.out_br), slice(c0, c0 + self.out_bc)

    def write(self, i: int, k: int, z) -> int:
        """Store output partition ``(i, k)`` and return its profiled
        nonzero count (``-0.0`` a zero, ``NaN`` a nonzero).  ``z`` is dense,
        or a task's merged products: a canonical int32 CSR block below
        ``SPARSE_HOLDING`` that stores no zero, counted by its ``indptr``."""
        if self.carried is not None:
            return int(self.nnz_grid[i, k])
        if sp.issparse(z):
            self.blocks[i, k], self.nnz_grid[i, k] = z, z.indptr[-1]
            return int(z.indptr[-1])
        mask = z != 0
        nnz = self.nnz_grid[i, k] = np.count_nonzero(mask)
        if nnz < vectorized.SPARSE_HOLDING * z.size:
            self.blocks[i, k] = _csr_block(z, np.flatnonzero(mask))
        else:
            if self.out_dense is None:
                self.out_dense = np.zeros((self.rows, self.cols), dtype=DTYPE)
            self.out_dense[self._part(i, k)] = z
        return int(nnz)

    def finalize(self) -> tuple[object, float]:
        """The assembled output matrix and its density.  The profiled
        total picks the holding (CSR below ``SPARSE_HOLDING``); partitions
        held the other way are converted one at a time.  A CSR output's
        blocks stay in ``block_rows`` for a consumer blocked like it, and
        each block row is stacked by one ``csr_hstack`` into its slices of
        the output (SciPy's ``vstack`` of ``hstack``s, byte for byte)."""
        if self.carried is not None:
            return self.carried
        elements, nnz = self.rows * self.cols, self.total_out_nnz
        dense, self.out_dense = self.out_dense, None  # a CSR output frees it
        if nnz >= vectorized.SPARSE_HOLDING * elements:
            dense = np.zeros((self.rows, self.cols), DTYPE) if dense is None else dense
            for (i, k), blk in self.blocks.items():
                dense[self._part(i, k)] = blk.toarray()
            return dense, nnz / elements if elements else 0.0
        if dense is None:  # a partition never written reads as zeros
            dense = np.broadcast_to(DTYPE(0), (self.rows, self.cols))
        nr, nc = self.nnz_grid.shape
        self.block_rows = [[
            self.blocks[i, k] if (i, k) in self.blocks else _csr_block(dense[self._part(i, k)])
            for k in range(nc)] for i in range(nr)]
        if vectorized._CSR_HSTACK is None:  # a SciPy that moved it
            rows = [sp.hstack(row, format="csr") for row in self.block_rows]
            return sp.vstack(rows, format="csr"), nnz / elements
        widths = [blk.shape[1] for blk in self.block_rows[0]]
        stored = [sum(int(blk.indptr[-1]) for blk in row) for row in self.block_rows]
        data, indices = np.empty(sum(stored), DTYPE), np.empty(sum(stored), np.int32)
        indptr, r0, at = np.empty(self.rows + 1, np.int32), 0, 0
        for row, n in zip(self.block_rows, stored):
            m = row[0].shape[0]
            part = indptr[r0 : r0 + m + 1], indices[at : at + n], data[at : at + n]
            vectorized._csr_hstack(m, widths, [(b.indptr, b.indices, b.data) for b in row], part)
            part[0][:] += at  # the row's entries follow those above it
            r0, at = r0 + m, at + n
        return sp.csr_matrix((data, indices, indptr), shape=(self.rows, self.cols)), nnz / elements

    def carry(self, out, density: float) -> "KernelAssembly":
        """This assembly, finalized to ``(out, density)``, frozen for a
        lineage table: the output, its blocks and the counts read-only."""
        blocks = [blk for row in self.block_rows or () for blk in row]
        for mat in (out, *blocks):
            for a in (mat.data, mat.indices, mat.indptr) if sp.issparse(mat) else (mat,):
                a.setflags(write=False)
        self.nnz_grid.setflags(write=False)
        self.blocks, self.carried = {}, (out, density)
        return self


def _csr_block(z: np.ndarray, flat: np.ndarray | None = None) -> sp.csr_matrix:
    """Canonical int32 CSR of a partition, from the flat indices of its
    nonzeros when the caller has them."""
    flat = np.flatnonzero(z) if flat is None else flat
    rows, cols = np.divmod(flat.astype(np.int32), np.int32(z.shape[1]))
    blk = sp.csr_matrix.__new__(sp.csr_matrix)
    blk.data, blk.indices, blk._shape = z.ravel()[flat], cols, z.shape
    blk.indptr = np.searchsorted(rows, np.arange(z.shape[0] + 1)).astype(np.int32)
    return blk


#: the one-lane case: every output row of every kernel
ALL_ROWS = (0, sys.maxsize)


@dataclass
class Lane:
    """One device's share of every kernel in a run.

    The kernel driver splits each kernel's task grid by output block row
    across its lanes; a single-device run is the one-lane, ``ALL_ROWS``
    case, a sharded run has one lane per shard.
    """

    accelerator: Accelerator
    #: trace track of the lane's wave/task spans
    track: str = "dev0"
    #: output rows (vertices) ``[v0, v1)`` this lane computes
    rows: tuple[int, int] = ALL_ROWS
    timeline: CoreTimeline = field(init=False)

    def __post_init__(self) -> None:
        self.timeline = CoreTimeline(self.accelerator.num_cores)


def operand_view(
    program: CompiledProgram,
    store: dict,
    views: dict,
    censuses: dict,
    name: str,
    blocking: tuple[int, int],
) -> PartitionedMatrix:
    """The view of one kernel operand under ``blocking``.

    A stored operand's is the program's, censused at compile time.  An
    intermediate (``store[name]``, produced during this walk) is viewed
    once per blocking and kept in ``views``.  Under its producer's
    ``out_blocking`` (``censuses`` holds that kernel's assembly) its census
    is the profiler's counts and a CSR output's blocks are the assembly's;
    under any other blocking it is scanned with ``block_nnz_grid``.
    """
    if name in program.store:
        return program.view(name, *blocking)
    key = (name, *blocking)
    pm = views.get(key)
    if pm is None:
        asm = censuses.get(key)
        pm = views[key] = PartitionedMatrix(
            store[name], *blocking, name=name, produced=True,
            nnz_grid=asm and asm.nnz_grid, split=asm and asm.block_rows,
        )
    return pm


def run_kernels(
    program: CompiledProgram,
    strategy: MappingStrategy,
    lanes: list[Lane],
    store: dict,
    lineage: Optional[dict] = None,
) -> Iterator[tuple[KernelIR, list[KernelStats]]]:
    """The kernel driver: walk ``program`` in dependency order over ``lanes``.

    Per kernel: resolve the operand/accumulate views, run the task grid
    through the task loop once, each lane's block rows dispatched on the
    lane's device, assemble the output into ``store`` under the kernel's
    output name with an on-the-fly storage-format decision, and yield the
    kernel with one :class:`KernelStats` per lane.  Every lane writes
    disjoint blocks of one shared assembly, so the output does not
    depend on how the grid is split.  The caller owns what the numbers
    mean (latency model, halo, spans) and reads
    ``store[program.output_name]`` when the walk ends.

    A stored operand is not scanned on the way (:func:`operand_view`):
    the compiler censused it.  Nor is an intermediate whose consumer
    blocks it as the producer wrote it (``out_blocking``): its census is
    the producing kernel's write-back profiler counts.

    A ``lineage`` table (``CompiledProgram._lineage``) keeps each
    graph-independent kernel's finalized assembly under ``(kernel id,
    strategy name)``: the first run computes and carries it, a later one
    hands it to the task loop, which bills every task and computes none.
    """
    carriable = program.graph_independent() if lineage is not None else ()
    for lane in lanes:
        lane.accelerator.reset()
    views: dict = {}
    #: (name, *out_blocking) -> the finalized assembly of each output produced
    censuses: dict = {}
    stored_sparse = program.stored_sparse
    view = functools.partial(operand_view, program, store, views, censuses)

    for kernel in program.graph.topo_order():
        scheme = kernel.exec_scheme
        if scheme is None:
            raise RuntimeError(f"kernel {kernel.kernel_id} has no execution scheme")
        xv = view(kernel.x_name, scheme.x_blocking)
        yv = view(kernel.y_name, scheme.y_blocking)
        if xv.num_col_blocks != yv.num_row_blocks:
            raise RuntimeError(
                f"inner blocking mismatch on {kernel.kernel_id}: "
                f"{xv.num_col_blocks} vs {yv.num_row_blocks}"
            )
        act = (
            activation_fn(kernel.activation) if kernel.activation_enabled else None
        )
        acc_view = (
            view(kernel.accumulate_into, scheme.out_blocking)
            if kernel.accumulate_into
            else None
        )
        lineage_key = (kernel.kernel_id, strategy.name)
        carried = lineage.get(lineage_key) if kernel.kernel_id in carriable else None
        assembly = carried or KernelAssembly.for_kernel(xv, yv, scheme)
        busy_before = [lane.timeline.busy.copy() for lane in lanes]
        lane_loops = execute_kernel_tasks(
            kernel, xv, yv,
            stored_sparse[kernel.x_name], stored_sparse[kernel.y_name],
            strategy, scheme.task_batch(),
            [(lane.accelerator, lane.timeline,
              owned_block_rows(*lane.rows, scheme.out_blocking[0])) for lane in lanes],
            assembly, acc_view, act,
        )

        lane_stats = []
        for lane, stats, busy0 in zip(lanes, lane_loops, busy_before):
            cycles, soft = lane.timeline.barrier(), lane.accelerator.soft_processor
            analysis_s = (
                soft.k2p_decision_seconds(stats.num_pairs)
                if strategy.charges_analysis
                else 0.0
            )
            report = stats.report
            lane_stats.append(KernelStats(
                kernel_id=kernel.kernel_id, ktype=kernel.ktype,
                num_tasks=stats.num_tasks, num_pairs=stats.num_pairs, cycles=cycles,
                primitive_counts=stats.counts, macs=report.macs,
                bytes_read=report.bytes_read, bytes_written=report.bytes_written,
                compute_cycles=report.compute, memory_cycles=report.memory,
                transform_cycles=report.transform, profile_cycles=report.profile,
                out_density=0.0,  # known once every lane has written
                analysis_seconds=analysis_s, core_busy=lane.timeline.busy - busy0,
                num_waves=stats.waves, tasks_executed=stats.tasks_executed,
                coo_writebacks=stats.coo_writebacks,
                exposed_cycles=float(exposed_stream(
                    soft.seconds_to_accel_cycles(analysis_s),
                    stats.num_tasks, cycles,
                )),
                modelled_cycles=stats.modelled or {},
            ))

        out_mat, out_density = assembly.finalize()
        if kernel.kernel_id in carriable and carried is None:
            lineage[lineage_key] = assembly.carry(out_mat, out_density)
        store[kernel.out_name] = out_mat
        stored_sparse[kernel.out_name] = choose_storage_format(out_density)
        # drop this name's stale views and census (re-runs within one program)
        for table in (views, censuses):
            for key in [kk for kk in table if kk[0] == kernel.out_name]:
                del table[key]
        censuses[(kernel.out_name, *scheme.out_blocking)] = assembly
        for ks in lane_stats:
            ks.out_density = out_density
        yield kernel, lane_stats


def run_strategy(
    program: CompiledProgram,
    strategy: str | MappingStrategy,
    accelerator: Accelerator | list[Accelerator] | None = None,
    *,
    plan=None,
    tracer=NULL_TRACER,
    lineage: Optional[dict] = None,
) -> InferenceResult:
    """Run one program under one strategy (a paper label or a
    :class:`MappingStrategy`): the one driver of :func:`run_kernels`.

    A ``plan`` (:class:`~repro.shard.planner.ShardPlan`) gives shard ``s``
    a lane over its vertex range on ``accelerator[s]``, a list of devices
    (a pool's ``devices``; fresh ones if omitted).  Without one the run is the plan
    of width 1: one lane over every row on ``accelerator``.  Before each
    Aggregate kernel a lane receives its halo over PCIe
    (:meth:`~repro.shard.planner.ShardPlan.halo_exchange`), streamed one
    remote ``Y`` block row at a time under its cores (§VI-B one level up:
    it pays :func:`~repro.hw.report.exposed_stream` of it).  The lanes
    then meet at the layer barrier, Algorithm 8's per-kernel barrier one
    level up.  Each task runs once whatever the width, so the output is
    bit-exact at every width.

    ``tracer`` arms span tracing (:mod:`repro.obs`, see
    :func:`_trace_layer`): a ``layer`` span per kernel on ``timeline``,
    whose durations sum to ``latency_s``, and each lane's spans beside it.
    ``lineage`` is the program's lineage table, for :func:`run_kernels`
    to fill and read (``None``: every kernel is computed).
    """
    if plan is None:
        lanes = [Lane(accelerator or Accelerator(program.config))]
    else:
        devices = accelerator or [Accelerator(program.config) for _ in plan.shards]
        if plan.num_shards > len(devices):
            raise ValueError(
                f"plan has {plan.num_shards} shards but the pool only has "
                f"{len(devices)} device(s); grow the pool or request fewer shards"
            )
        lanes = [
            Lane(dev, f"shard{shard.index}", (shard.v0, shard.v1))
            for dev, shard in zip(devices, plan.shards)
        ]
    cfg = lanes[0].accelerator.config
    strategy = make_strategy(strategy, cfg)
    if cfg.psys != strategy.config.psys:
        raise ValueError("strategy and accelerator configs disagree")
    tracer = tracer if tracer is not None else NULL_TRACER
    no_halo = np.zeros(len(lanes), dtype=np.int64)
    store: dict = {}
    layers: list[LayerStats] = []
    #: each lane's clock and event count where the kernel began (tracing)
    marks = [(0.0, 0)] * len(lanes)
    t_layer = 0.0  # the layer's start on the run clock

    for kernel, lane_stats in run_kernels(program, strategy, lanes, store, lineage):
        if plan is not None and kernel.ktype is KernelType.AGGREGATE:
            halo_bytes, chunks = plan.halo_exchange(program, kernel)
        else:
            halo_bytes = chunks = no_halo
        halo_s = np.array([pcie_transfer_seconds(int(b), cfg) for b in halo_bytes])
        compute_s = cfg.cycles_to_seconds(
            np.array([ks.cycles for ks in lane_stats])
            + np.array([ks.exposed_cycles for ks in lane_stats])
        )
        exposed_halo_s = exposed_stream(halo_s, chunks, compute_s)
        seconds = exposed_halo_s + compute_s
        layer = LayerStats(
            lanes=tuple(lane_stats), halo_bytes=halo_bytes, halo_chunks=chunks,
            halo_s=halo_s, exposed_halo_s=exposed_halo_s, seconds=seconds,
            barrier_s=float(seconds.max()),
        )
        layers.append(layer)
        if tracer.enabled:
            _trace_layer(tracer, kernel, layer, lanes, marks, t_layer)
            marks = [(lane.timeline.now, len(lane.timeline.events)) for lane in lanes]
        t_layer += layer.barrier_s

    return InferenceResult(
        output=store[program.output_name],
        strategy_name=strategy.name,
        model_name=program.model.name,
        data_name=program.data_name,
        config=cfg,
        layers=layers,
        num_shards=len(lanes),
        plan=plan,
        compile_timings=program.timings,
        input_bytes=program.input_bytes(),
        core_busy=np.concatenate([lane.timeline.busy for lane in lanes]),
        timeline_events=[ev for lane in lanes for ev in lane.timeline.events],
        backend="sharded" if len(lanes) > 1 else "simulated",
    )


def _trace_layer(tracer, kernel, layer: LayerStats, lanes, marks, t_layer) -> None:
    """The spans of one kernel: per lane, its exposed halo (the whole
    transfer on its ``dma`` track), kernel, exposed analysis and barrier
    wait end to end from the layer's start, and the layer on
    ``timeline``.  A lane's wave and task spans are its timeline events
    since ``marks[lane]`` (the lane clock and event count where the kernel
    began), moved onto the run clock at its kernel span's start."""
    to_s = lanes[0].accelerator.config.cycles_to_seconds
    kid, end = kernel.kernel_id, t_layer + layer.barrier_s
    for s, (lane, ks) in enumerate(zip(lanes, layer.lanes)):
        track = lane.track
        exec_start = t_layer + float(layer.exposed_halo_s[s])
        exec_end = exec_start + to_s(ks.cycles)
        lane_end = t_layer + float(layer.seconds[s])
        if layer.halo_s[s] > 0.0:
            tracer.span(
                f"{track}/dma", f"{kid}/halo", t_layer, t_layer + layer.halo_s[s],
                cat="dma", halo_bytes=int(layer.halo_bytes[s]),
                chunks=int(layer.halo_chunks[s]),
            )
            tracer.span(track, f"{kid}/halo", t_layer, exec_start, cat="halo")
        tracer.span(
            track, kid, exec_start, exec_end, cat="kernel",
            ktype=kernel.ktype.name, tasks=ks.num_tasks, pairs=ks.num_pairs,
            waves=ks.num_waves, out_density=round(ks.out_density, 6),
            coo_writebacks=ks.coo_writebacks, **ks.modelled_cycles,
        )
        if ks.exposed_cycles > 0.0:
            tracer.span(track, f"{kid}/exposed", exec_end, lane_end, cat="exposed")
        if end - lane_end > 0.0:
            tracer.span(track, f"{kid}/barrier-wait", lane_end, end, cat="barrier")
        if ks.analysis_seconds > 0.0:
            # K2P analysis overlaps the kernel's execution (§VI-B)
            tracer.span(
                f"{track}/analyzer", f"{kid}/k2p", exec_start,
                exec_start + ks.analysis_seconds, cat="analysis", pairs=ks.num_pairs,
            )
        tracer.counter(track, "halo_bytes", t_layer, int(layer.halo_bytes[s]))
        origin, first = marks[s]
        events = lane.timeline.events[first:]
        waves = vectorized.wave_of(events)
        for w in range(ks.num_waves):
            members = [ev for ev, wv in zip(events, waves) if wv == w]
            tracer.span(
                track, f"{kid}/wave{w}",
                exec_start + to_s(min(ev.start for ev in members) - origin),
                exec_start + to_s(max(ev.end for ev in members) - origin),
                cat="wave", tasks=len(members),
            )
        if tracer.task_spans:
            for ev in events:
                tracer.span(
                    f"{track}/core{ev.core}", f"{kid}[{ev.task_index}]",
                    exec_start + to_s(ev.start - origin),
                    exec_start + to_s(ev.end - origin), cat="task",
                )
    tracer.span("timeline", kid, t_layer, end, cat="layer", slowest=lanes[layer.slowest].track)


def end_to_end_seconds(
    program: CompiledProgram,
    result: InferenceResult,
    *,
    include_preprocessing: bool = True,
    include_pcie: bool = True,
) -> float:
    """§VIII-D end-to-end latency: preprocessing + CPU->FPGA movement +
    accelerator execution."""
    total = result.latency_s
    if include_preprocessing:
        total += program.timings.total_s
    if include_pcie:
        total += pcie_transfer_seconds(program.input_bytes(), result.config)
    return total

