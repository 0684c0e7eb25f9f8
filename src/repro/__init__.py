"""Dynasparse reproduction: dynamic sparsity exploitation for GNN inference.

A full-system Python reproduction of *Dynasparse: Accelerating GNN
Inference through Dynamic Sparsity Exploitation* (Zhang & Prasanna,
IPDPS 2023): a functional + cycle-level simulator of the FPGA accelerator,
the host compiler, the soft-processor runtime system with dynamic
kernel-to-primitive mapping, the four benchmark GNN models, synthetic
equivalents of the six benchmark datasets, and analytical baseline
platforms -- everything needed to regenerate the paper's tables and
figures.

Quickstart::

    from repro import Engine

    engine = Engine()
    handle = engine.compile("GCN", "CO")
    result = engine.infer(handle)
    print(f"{result.latency_ms:.3f} ms", result.primitive_totals)

The engine caches compiled programs, owns the simulated device pool, and
runs a program on one of ``BACKENDS`` — ``engine.infer(handle,
backend="hetero")`` prices the same program on the §IX CPU+GPU+FPGA
platform, ``backend="cpu"``/``"gpu"`` on the Fig. 14 framework rooflines.
Mutating workloads go through ``engine.mutate(handle, delta)`` and
serving traffic through ``engine.serve(requests)``.  See MIGRATION.md
for the mapping from the legacy ``Compiler``/``RuntimeSystem`` wiring.
"""

from repro.config import AcceleratorConfig, u250_default, small_test_config
from repro.compiler import Compiler, CompiledProgram
from repro.datasets import DATASET_NAMES, GraphData, TABLE_VI, load_dataset
from repro.engine import BACKENDS, Engine, ProgramHandle
from repro.gnn import (
    MODEL_NAMES,
    ModelSpec,
    build_model,
    init_weights,
    prune_weights,
    reference_inference,
)
from repro.hw import Accelerator, Primitive, estimate_resources
from repro.runtime import (
    InferenceResult,
    end_to_end_seconds,
    make_strategy,
)
from repro.dyngraph import GraphDelta, MutableGraph, ProgramPatcher
from repro.obs import (
    MetricsRegistry,
    Tracer,
    flame_summary,
    validate_trace,
    write_trace,
)
from repro.shard import ShardPlan, plan_shards
from repro.serve import (
    InferenceRequest,
    InferenceResponse,
    InferenceServer,
    MutationRequest,
    ServingReport,
)
from repro.sched import (
    AdmissionController,
    ContinuousScheduler,
    PoolAutoscaler,
    SLOClass,
    SLOPolicy,
)

__version__ = "1.7.0"

__all__ = [
    "AcceleratorConfig",
    "u250_default",
    "small_test_config",
    "Compiler",
    "CompiledProgram",
    "DATASET_NAMES",
    "GraphData",
    "TABLE_VI",
    "load_dataset",
    "MODEL_NAMES",
    "ModelSpec",
    "build_model",
    "init_weights",
    "prune_weights",
    "reference_inference",
    "Accelerator",
    "Primitive",
    "estimate_resources",
    "BACKENDS",
    "Engine",
    "ProgramHandle",
    "AdmissionController",
    "ContinuousScheduler",
    "PoolAutoscaler",
    "SLOClass",
    "SLOPolicy",
    "GraphDelta",
    "MetricsRegistry",
    "Tracer",
    "flame_summary",
    "validate_trace",
    "write_trace",
    "InferenceResult",
    "InferenceRequest",
    "InferenceResponse",
    "InferenceServer",
    "MutableGraph",
    "MutationRequest",
    "ProgramPatcher",
    "ServingReport",
    "ShardPlan",
    "plan_shards",
    "end_to_end_seconds",
    "make_strategy",
    "__version__",
]
