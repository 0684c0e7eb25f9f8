"""The runtime system: executes a compiled program on the accelerator.

Implements the §III-B runtime step: for each kernel (in dependency
order) the Analyzer maps every partition pair to a primitive (through the
pluggable :class:`~repro.runtime.strategies.MappingStrategy`), the
Scheduler assigns tasks to idle Computation Cores (Algorithm 8), the cores
execute and profile, and the produced feature matrix is stored back with
an on-the-fly format decision.  K2P analysis for kernel ``l+1`` overlaps
the accelerator's execution of kernel ``l`` (§VI-B), so the reported
latency adds only the *exposed* part of the runtime-system time; the raw
overhead is reported separately (Fig. 13).

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
from repro.formats.dense import DTYPE
from repro.formats.partition import PartitionedMatrix, grid_dims
from repro.gnn.activations import activation_fn
from repro.hw.accelerator import Accelerator
from repro.hw.memory import pcie_transfer_seconds
from repro.hw.report import exposed_stream
from repro.ir.kernel import KernelIR
from repro.ir.scheme import owned_block_rows
from repro.obs.tracer import NULL_TRACER
from repro.runtime.scheduler import CoreTimeline
from repro.runtime.stats import KernelStats, mean_over_max, total_primitive_counts
from repro.runtime.strategies import MappingStrategy, make_strategy
from repro.runtime.vectorized import execute_kernel_tasks

#: outputs larger than this (elements) are held sparsely on the host — e.g.
#: the 65k x 61k hop outputs of SGC on NELL never materialise densely; how
#: the host holds a matrix decides no modelled quantity
DENSE_ASSEMBLY_LIMIT = 50_000_000


@dataclass(kw_only=True)
class RunResult:
    """What a run reports however many devices it used; the latency
    model is the subclass's (:class:`InferenceResult` sums cycles,
    :class:`~repro.shard.executor.ShardedResult` sums layer barriers)."""

    output: object  # ndarray | csr_matrix
    strategy_name: str
    model_name: str
    data_name: str
    config: AcceleratorConfig
    #: total soft-processor time spent on K2P analysis (seconds)
    runtime_overhead_seconds: float = 0.0
    #: the execution backend that produces this result type
    backend: str = field(default="simulated", init=False)

    #: span categories whose durations sum to ``latency_s`` in a trace of
    #: this run (what ``validate_trace`` reconciles)
    reconcile_cats = ()
    #: devices the run spanned, and what a multi-device run reports beyond
    #: a single-device one (per-shard occupancy, halo traffic, mean barrier
    #: wait): the serving layer replays either kind under these names
    num_shards = 1
    shard_busy_s = ()
    halo_bytes = 0
    halo_s = 0.0
    barrier_s = 0.0
    #: the frozen copy of ``output`` served responses share (see
    #: :meth:`served_output`)
    _served = None
    #: fields ``to_dict`` leaves out, by name: matrices, hardware objects,
    #: per-core vectors and raw events are huge or not JSON (--json
    #: consumers compare summaries, not payloads); the per-kernel, compile
    #: and plan records appear as the subclass's ``_summary()`` keys
    _UNSERIALISED = frozenset({
        "output", "config", "core_busy", "timeline_events",
        "kernel_stats", "compile_timings", "plan",
    })
    _KEYS = {"model_name": "model", "data_name": "dataset",
             "strategy_name": "strategy"}

    def output_dense(self) -> np.ndarray:
        if sp.issparse(self.output):
            return np.asarray(self.output.todense(), dtype=DTYPE)
        return np.asarray(self.output, dtype=DTYPE)

    def served_output(self) -> np.ndarray:
        """The read-only dense copy every response served from this run
        shares (made on first use): a client's in-place edit raises instead
        of corrupting later responses, and ``output`` itself stays the
        caller's to write."""
        if self._served is None:
            self._served = np.array(self.output_dense())
            self._served.setflags(write=False)
        return self._served

    def to_dict(self) -> dict:
        """JSON-serialisable summary (``repro run`` / ``shard-bench
        --json``): every field not named in ``_UNSERIALISED``, then the
        latency, the balance and the subclass's derived keys
        (``_summary()``) — a new field is serialised unless someone
        names it."""
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

    def trace_meta(self) -> dict:
        """``otherData`` for a trace of this run: the latency and span
        categories ``validate_trace`` reconciles, and the accelerator
        parameters the what-if projections scale against."""
        return {
            "model": self.model_name,
            "dataset": self.data_name,
            "strategy": self.strategy_name,
            "shards": self.num_shards,
            "expected_total_s": self.latency_s,
            "reconcile_cats": list(self.reconcile_cats),
            "num_cores": self.config.num_cores,
            "pcie_gbps": self.config.memory.pcie_gbps,
        }


@dataclass(kw_only=True)
class InferenceResult(RunResult):
    """Everything a run produces: exact output + full cycle accounting."""

    kernel_stats: list[KernelStats]
    #: sum of kernel makespans on the accelerator (cycles)
    accel_cycles: float
    #: runtime-system time that could not be hidden (cycles)
    exposed_overhead_cycles: float
    compile_timings: CompileTimings
    input_bytes: int
    core_busy: np.ndarray
    timeline_events: list = field(default_factory=list, repr=False)

    reconcile_cats = ("kernel", "exposed")

    # -- latency --------------------------------------------------------
    @property
    def total_cycles(self) -> float:
        """Accelerator execution latency in cycles (§VIII-A metric)."""
        return self.accel_cycles + self.exposed_overhead_cycles

    @property
    def latency_s(self) -> float:
        return self.config.cycles_to_seconds(self.total_cycles)

    @property
    def latency_ms(self) -> float:
        return self.config.cycles_to_ms(self.total_cycles)

    @property
    def segments_s(self) -> tuple:
        """Per-kernel durations (execution + exposed analysis), the
        continuous scheduler's join/preemption boundaries: float-summation
        drift goes into the last one, so they sum to ``latency_s`` exactly."""
        to_s = self.config.cycles_to_seconds
        segs = [to_s(ks.cycles + ks.exposed_cycles) for ks in self.kernel_stats]
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

    def load_balance(self) -> float:
        return mean_over_max(self.core_busy)

    def speedup_vs(self, other: "InferenceResult") -> float:
        """How much faster *this* run is than ``other`` (>1 = faster)."""
        return other.total_cycles / self.total_cycles

    def wave_counts(self) -> dict[str, int]:
        """Per-kernel scheduling-wave counts (core rounds per kernel)."""
        return {ks.kernel_id: ks.num_waves for ks in self.kernel_stats}

    def format_report(self) -> str:
        """Human-readable per-kernel execution report."""
        lines = [
            f"{self.model_name} on {self.data_name} — strategy "
            f"{self.strategy_name}",
            f"  latency {self.latency_ms:.4f} ms "
            f"({self.total_cycles:.0f} cycles), "
            f"runtime overhead {self.overhead_fraction * 100:.2f}%, "
            f"load balance {self.load_balance():.3f}",
            f"  {'kernel':<20}{'cycles':>12}{'tasks':>7}{'pairs':>7}"
            f"{'skip':>6}{'waves':>7}{'out dens':>10}{'coo wb':>8}  primitives",
        ]
        for ks in self.kernel_stats:
            prims = ", ".join(
                f"{p.value}:{c}" for p, c in sorted(
                    ks.primitive_counts.items(), key=lambda kv: kv[0].value
                ) if p.value != "SKIP"
            )
            lines.append(
                f"  {ks.kernel_id:<20}{ks.cycles:>12.0f}{ks.num_tasks:>7}"
                f"{ks.num_pairs:>7}{ks.skipped_pairs:>6}{ks.num_waves:>7}"
                f"{ks.out_density:>10.3f}{ks.coo_writebacks:>8}  {prims}"
            )
        return "\n".join(lines)

    def _summary(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "overhead_fraction": self.overhead_fraction,
            "num_tasks": self.num_tasks,
            "num_pairs": self.num_pairs,
            "total_macs": int(self.total_macs),
            "bytes_read": int(self.bytes_read),
            "bytes_written": int(self.bytes_written),
            "compile": {
                **asdict(self.compile_timings),
                "total_s": self.compile_timings.total_s,
            },
            "kernels": [
                {
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
                            ks.primitive_counts.items(),
                            key=lambda kv: kv[0].value,
                        )
                    },
                    "modelled_cycles": ks.modelled_cycles,
                }
                for ks in self.kernel_stats
            ],
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
    census under ``out_blocking``.
    """

    rows: int
    cols: int
    out_br: int
    out_bc: int
    dense_assembly: bool
    out_dense: Optional[np.ndarray]
    nnz_grid: np.ndarray
    sp_rows: list = field(default_factory=list)
    sp_cols: list = field(default_factory=list)
    sp_vals: list = field(default_factory=list)

    @property
    def total_out_nnz(self) -> int:
        return int(self.nnz_grid.sum())

    @classmethod
    def for_kernel(cls, xv, yv, scheme) -> "KernelAssembly":
        rows, cols = xv.shape[0], yv.shape[1]
        dense_assembly = rows * cols <= DENSE_ASSEMBLY_LIMIT
        out_br, out_bc = scheme.out_blocking
        return cls(
            rows=rows,
            cols=cols,
            out_br=out_br,
            out_bc=out_bc,
            dense_assembly=dense_assembly,
            nnz_grid=np.zeros(grid_dims((rows, cols), out_br, out_bc), np.int64),
            out_dense=(
                np.zeros((rows, cols), dtype=DTYPE) if dense_assembly else None
            ),
        )

    def write(self, i: int, k: int, m: int, d: int, z: np.ndarray, nnz: int) -> None:
        """Store output partition ``(i, k)`` and its profiled nonzero count."""
        self.nnz_grid[i, k] = nnz
        r0, c0 = i * self.out_br, k * self.out_bc
        if self.dense_assembly:
            self.out_dense[r0 : r0 + m, c0 : c0 + d] = z
        else:
            rr, cc = np.nonzero(z)
            if rr.size:
                self.sp_rows.append(rr.astype(np.int64) + r0)
                self.sp_cols.append(cc.astype(np.int64) + c0)
                self.sp_vals.append(z[rr, cc])

    def finalize(self) -> tuple[object, float]:
        """The assembled output matrix and its density."""
        if self.dense_assembly:
            out_mat: object = self.out_dense
        elif self.sp_rows:
            out_mat = sp.csr_matrix(
                (
                    np.concatenate(self.sp_vals),
                    (np.concatenate(self.sp_rows), np.concatenate(self.sp_cols)),
                ),
                shape=(self.rows, self.cols),
                dtype=DTYPE,
            )
        else:
            out_mat = sp.csr_matrix((self.rows, self.cols), dtype=DTYPE)
        elements = self.rows * self.cols
        density = self.total_out_nnz / elements if elements else 0.0
        return out_mat, density


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
    once per blocking and kept in ``views``; it is not scanned when
    ``censuses`` holds its producer's write-back profiler counts under
    this very blocking, and scanned with ``block_nnz_grid`` otherwise.
    """
    if name in program.store:
        return program.view(name, *blocking)
    key = (name, *blocking)
    pm = views.get(key)
    if pm is None:
        pm = views[key] = PartitionedMatrix(
            store[name], *blocking, name=name, nnz_grid=censuses.get(key)
        )
    return pm


def run_kernels(
    program: CompiledProgram,
    strategy: MappingStrategy,
    lanes: list[Lane],
    store: dict,
    *,
    tracer=NULL_TRACER,
) -> Iterator[tuple[KernelIR, list[KernelStats]]]:
    """The kernel driver: walk ``program`` in dependency order over ``lanes``.

    Per kernel: resolve the operand/accumulate views, run each lane's
    block rows of the task grid through the task loop on the lane's
    device, assemble the output into ``store`` under the kernel's output
    name with an on-the-fly storage-format decision, and yield the
    kernel with one :class:`KernelStats` per lane.  Every lane writes
    disjoint blocks of one shared assembly, so the output does not
    depend on how the grid is split.  The caller owns what the numbers
    mean (latency model, halo, spans) and reads
    ``store[program.output_name]`` when the walk ends.

    A stored operand is not scanned on the way (:func:`operand_view`):
    the compiler censused it.  Nor is an intermediate whose consumer
    blocks it as the producer wrote it (``out_blocking``): its census is
    the producing kernel's write-back profiler counts.
    """
    for lane in lanes:
        lane.accelerator.reset()
    views: dict = {}
    #: (name, *out_blocking) -> profiled nnz grid of each output produced
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
        assembly = KernelAssembly.for_kernel(xv, yv, scheme)
        grid = scheme.task_batch()

        lane_stats = []
        for lane in lanes:
            acc, timeline = lane.accelerator, lane.timeline
            tasks = grid.block_rows(
                *owned_block_rows(*lane.rows, scheme.out_blocking[0])
            )
            busy_before = timeline.busy.copy()
            stats = execute_kernel_tasks(
                kernel, xv, yv,
                stored_sparse[kernel.x_name], stored_sparse[kernel.y_name],
                acc, strategy, timeline, tasks, assembly, acc_view, act,
                tracer=tracer, track=lane.track,
            )
            cycles = timeline.barrier()
            soft = acc.soft_processor
            analysis_s = (
                soft.k2p_decision_seconds(stats.num_pairs)
                if strategy.charges_analysis
                else 0.0
            )
            report = stats.report
            lane_stats.append(KernelStats(
                kernel_id=kernel.kernel_id,
                ktype=kernel.ktype,
                num_tasks=tasks.num_tasks,
                num_pairs=stats.num_pairs,
                cycles=cycles,
                primitive_counts=stats.counts,
                macs=report.macs,
                bytes_read=report.bytes_read,
                bytes_written=report.bytes_written,
                compute_cycles=report.compute,
                memory_cycles=report.memory,
                transform_cycles=report.transform,
                profile_cycles=report.profile,
                out_density=0.0,  # known once every lane has written
                analysis_seconds=analysis_s,
                core_busy=timeline.busy - busy_before,
                num_waves=stats.waves,
                tasks_executed=stats.tasks_executed,
                coo_writebacks=stats.coo_writebacks,
                exposed_cycles=float(exposed_stream(
                    soft.seconds_to_accel_cycles(analysis_s),
                    tasks.num_tasks, cycles,
                )),
                modelled_cycles=stats.modelled or {},
            ))

        out_mat, out_density = assembly.finalize()
        store[kernel.out_name] = out_mat
        stored_sparse[kernel.out_name] = choose_storage_format(out_density)
        # drop this name's stale views and census (re-runs within one program)
        for table in (views, censuses):
            for key in [kk for kk in table if kk[0] == kernel.out_name]:
                del table[key]
        censuses[(kernel.out_name, *scheme.out_blocking)] = assembly.nnz_grid
        for ks in lane_stats:
            ks.out_density = out_density
        yield kernel, lane_stats


def run_strategy(
    program: CompiledProgram,
    strategy: str | MappingStrategy,
    accelerator: Optional[Accelerator] = None,
    *,
    tracer=NULL_TRACER,
    track: str = "dev0",
) -> InferenceResult:
    """Run one program on one accelerator under one strategy (a paper
    label or a :class:`MappingStrategy`): the one-lane case of
    :func:`run_kernels`, with the single-device latency model (kernel
    makespans plus exposed analysis, summed in cycles).

    ``tracer``/``track`` arm span tracing (:mod:`repro.obs`): per-kernel
    execution spans on ``track``, per-wave/per-task spans nested under
    it, K2P analysis spans on ``host/analyzer`` and the non-hidden share
    on ``host/exposed`` — so ``sum(kernel) + sum(exposed)`` spans equal
    :attr:`InferenceResult.total_cycles` exactly.
    """
    acc = accelerator or Accelerator(program.config)
    cfg = acc.config
    strategy = make_strategy(strategy, cfg)
    if cfg.psys != strategy.config.psys:
        raise ValueError("strategy and accelerator configs disagree")
    tracer = tracer if tracer is not None else NULL_TRACER
    lane = Lane(acc, track)
    timeline = lane.timeline
    store: dict = {}
    kernel_stats: list[KernelStats] = []
    start_cycles = timeline.now

    for kernel, (ks,) in run_kernels(program, strategy, [lane], store, tracer=tracer):
        if tracer.enabled:
            start_s = cfg.cycles_to_seconds(start_cycles)
            tracer.span(
                track,
                kernel.kernel_id,
                start_s,
                cfg.cycles_to_seconds(timeline.now),
                cat="kernel",
                ktype=kernel.ktype.name,
                tasks=ks.num_tasks,
                pairs=ks.num_pairs,
                waves=ks.num_waves,
                out_density=round(ks.out_density, 6),
                coo_writebacks=ks.coo_writebacks,
                **ks.modelled_cycles,
            )
            if ks.analysis_seconds > 0.0:
                # K2P analysis overlaps execution of this kernel (§VI-B);
                # draw it alongside on the host track
                tracer.span(
                    "host/analyzer",
                    f"{kernel.kernel_id}/k2p",
                    start_s,
                    start_s + ks.analysis_seconds,
                    cat="analysis",
                    pairs=ks.num_pairs,
                )
        kernel_stats.append(ks)
        start_cycles = timeline.now

    accel_cycles = float(sum(ks.cycles for ks in kernel_stats))
    if tracer.enabled:
        # one exposed-overhead span per kernel, laid end to end after
        # the device spans so kernel + exposed durations sum exactly
        # to total_cycles (validate_trace reconciles against this)
        cursor = accel_cycles
        for ks in kernel_stats:
            if ks.exposed_cycles > 0.0:
                tracer.span(
                    "host/exposed",
                    f"{ks.kernel_id}/exposed",
                    cfg.cycles_to_seconds(cursor),
                    cfg.cycles_to_seconds(cursor + ks.exposed_cycles),
                    cat="exposed",
                )
                cursor += ks.exposed_cycles

    return InferenceResult(
        output=store[program.output_name],
        strategy_name=strategy.name,
        model_name=program.model.name,
        data_name=program.data_name,
        config=cfg,
        kernel_stats=kernel_stats,
        accel_cycles=accel_cycles,
        exposed_overhead_cycles=float(
            sum(ks.exposed_cycles for ks in kernel_stats)
        ),
        runtime_overhead_seconds=float(
            sum(ks.analysis_seconds for ks in kernel_stats)
        ),
        compile_timings=program.timings,
        input_bytes=program.input_bytes(),
        core_busy=timeline.busy.copy(),
        timeline_events=timeline.events,
    )


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

