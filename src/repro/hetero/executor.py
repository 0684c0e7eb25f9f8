"""Heterogeneous runtime: route primitives to the device that likes them.

Implements the §IX vision on the existing substrate: the host CPU runs
the Analyzer (Algorithm 7) over the compiled program's density tables,
then each partition pair executes on the device its primitive prefers —
GEMM on the GPU model, SpDMM/SPMM on the FPGA model — with a PCIe
transfer charged whenever a task's accumulator changes device.

This is an analytical what-if executor (it prices the schedule without
recomputing the numerics, which the homogeneous simulator already
validates); it answers the design question the paper poses: *when does
adding a dense-throughput device help a sparsity-adaptive system?*
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.compiler.compile import CompiledProgram
from repro.formats.csr import matmul
from repro.formats.dense import DTYPE
from repro.gnn.activations import activation_fn
from repro.hetero.devices import DeviceModel, FPGA_DEVICE, GPU_DEVICE
from repro.hw.report import CODE_ORDER, Primitive
from repro.compiler.sparsity import choose_storage_format
from repro.runtime.executor import operand_view
from repro.runtime.perf_model import PairBatch
from repro.runtime.strategies import DynamicMapping


def materialize_intermediates(program: CompiledProgram) -> dict:
    """Functionally execute the program to obtain every intermediate
    feature matrix (their densities are what the Analyzer consumes).

    Mirrors the runtime's dataflow: ``out = activation(X @ Y [+ acc])``
    per kernel, in topological order.  Very sparse products stay sparse.
    """
    store = dict(program.store)
    for kernel in program.graph.topo_order():
        x, y = store[kernel.x_name], store[kernel.y_name]
        if sp.issparse(x) and sp.issparse(y) and kernel.output_dim > 4096:
            out = (x @ y).tocsr()
        else:
            out = matmul(x, y)
        if kernel.accumulate_into:
            acc = store[kernel.accumulate_into]
            out = out + (acc.toarray() if sp.issparse(acc) else acc)
        if kernel.activation_enabled:
            fn = activation_fn(kernel.activation)
            if fn is not None:
                if sp.issparse(out):
                    out = out.copy()
                    out.data = fn(out.data)
                else:
                    out = fn(np.asarray(out, dtype=DTYPE))
        store[kernel.out_name] = out
    return store


@dataclass
class HeteroResult:
    """Outcome of a heterogeneous schedule."""

    model_name: str
    data_name: str
    total_seconds: float
    device_seconds: dict
    device_pairs: Counter
    transfer_seconds: float
    primitive_counts: Counter
    backend: str = field(default="hetero", init=False)

    @property
    def latency_s(self) -> float:
        return self.total_seconds

    @property
    def latency_ms(self) -> float:
        return self.total_seconds * 1e3

    def dominant_device(self) -> str:
        return max(self.device_seconds, key=self.device_seconds.get)

    def format_report(self) -> str:
        summary = self.to_dict()
        per_dev = ", ".join(
            f"{dev}: {s * 1e3:.4f} ms ({self.device_pairs.get(dev, 0)} pairs)"
            for dev, s in self.device_seconds.items()
        )
        return (
            f"{self.model_name} on {self.data_name} — backend {self.backend}\n"
            f"  latency           : {self.latency_ms:.4f} ms "
            f"(PCIe hops {self.transfer_seconds * 1e3:.4f} ms)\n"
            f"  device seconds    : {per_dev}\n"
            f"  primitives        : {summary['primitives']}"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable summary (``repro run --backend hetero --json``)."""
        prims = sorted(self.primitive_counts.items(), key=lambda kv: kv[0].value)
        return {
            "model": self.model_name,
            "dataset": self.data_name,
            "backend": self.backend,
            "latency_ms": self.total_seconds * 1e3,
            "device_seconds": dict(self.device_seconds),
            "device_pairs": dict(self.device_pairs),
            "transfer_seconds": self.transfer_seconds,
            "primitives": {p.value: int(c) for p, c in prims},
        }


class HeterogeneousRuntime:
    """Prices a compiled program on a CPU + GPU + FPGA platform."""

    def __init__(
        self,
        gpu: DeviceModel = GPU_DEVICE,
        fpga: DeviceModel = FPGA_DEVICE,
        *,
        fpga_parallel_cores: int | None = None,
    ) -> None:
        self.gpu = gpu
        self.fpga = fpga
        self.fpga_parallel_cores = fpga_parallel_cores

    def device_for(self, primitive: Primitive) -> DeviceModel:
        """§IX routing rule: dense primitives -> GPU, sparse -> FPGA."""
        return self.gpu if primitive is Primitive.GEMM else self.fpga

    def run(self, program: CompiledProgram) -> HeteroResult:
        cfg = program.config
        analyzer = DynamicMapping(cfg)
        stored_sparse = program.stored_sparse
        cores = self.fpga_parallel_cores or cfg.num_cores

        store = materialize_intermediates(program)
        # nothing here profiles a write-back: intermediates are scanned
        view = functools.partial(operand_view, program, store, {}, {})

        device_seconds = {self.gpu.name: 0.0, self.fpga.name: 0.0}
        device_pairs: Counter = Counter()
        prims: Counter = Counter()
        transfer_s = 0.0
        total_s = 0.0

        for kernel in program.graph.topo_order():
            scheme = kernel.exec_scheme
            xv = view(kernel.x_name, scheme.x_blocking)
            yv = view(kernel.y_name, scheme.y_blocking)
            x_nnz, y_nnz = xv.nnz_grid, yv.nnz_grid
            # Algorithm 7 over the kernel's pairs; an intermediate is
            # stored in the format its density earns
            tasks = scheme.task_batch()
            formats = [
                stored_sparse.get(name, choose_storage_format(v.density))
                for name, v in ((kernel.x_name, xv), (kernel.y_name, yv))
            ]
            codes, _, _ = analyzer.decide_batch(kernel, PairBatch.of_tasks(
                xv, yv, tasks, *formats, seeded=bool(kernel.accumulate_into)))
            x_rs, x_cs = xv.row_block_sizes, xv.col_block_sizes
            y_cs = yv.col_block_sizes

            kernel_s = 0.0
            for t, (i, k) in enumerate(zip(tasks.rows, tasks.cols)):
                m, d = int(x_rs[i]), int(y_cs[k])
                prev_device: str | None = None
                pairs = slice(tasks.starts[t], tasks.starts[t + 1])
                for j, code in zip(tasks.js[pairs], codes[pairs]):
                    primitive = CODE_ORDER[code]
                    prims[primitive] += 1
                    if primitive is Primitive.SKIP:
                        continue
                    dev = self.device_for(primitive)
                    nnz_sparse = int(min(x_nnz[i, j], y_nnz[j, k]))
                    t = dev.pair_seconds(
                        primitive, m, int(x_cs[j]), d, nnz_sparse, cfg
                    )
                    if prev_device is not None and prev_device != dev.name:
                        # the accumulator crosses PCIe to the new device
                        hop = m * d * 4 * dev.transfer_s_per_byte
                        transfer_s += hop
                        kernel_s += hop
                    device_seconds[dev.name] += t
                    device_pairs[dev.name] += 1
                    kernel_s += t
                    prev_device = dev.name
            # tasks of one kernel run in parallel across the FPGA cores /
            # GPU streams: approximate with an even split
            total_s += kernel_s / max(cores, 1)

        return HeteroResult(
            model_name=program.model.name,
            data_name=program.data_name,
            total_seconds=total_s,
            device_seconds=device_seconds,
            device_pairs=device_pairs,
            transfer_seconds=transfer_s,
            primitive_counts=prims,
        )

    def run_fpga_only(self, program: CompiledProgram) -> HeteroResult:
        """Same schedule priced with every pair on the FPGA (the §IX
        baseline: what the homogeneous system does)."""
        saved = self.gpu
        try:
            self.gpu = self.fpga
            return self.run(program)
        finally:
            self.gpu = saved
