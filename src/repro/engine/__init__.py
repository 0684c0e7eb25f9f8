"""Unified Session/Engine facade over the Dynasparse stack (`repro.engine`).

One object — :class:`~repro.engine.core.Engine` — owns the program cache,
the simulated-device pool, strategy selection and the graph registry, and
runs a program on one of :data:`~repro.engine.core.BACKENDS`
(``"simulated"`` / ``"sharded"`` cycle-accurate FPGA, ``"hetero"``
CPU+GPU+FPGA what-if, ``"cpu"``/``"gpu"`` roofline baselines).  The
serving and dynamic-graph subsystems compose it instead of wiring
caches, pools and patchers themselves.

Quickstart::

    from repro.engine import Engine

    engine = Engine()                          # simulated U250, 1 device
    handle = engine.compile("GCN", "CO")       # cached per fingerprint
    result = engine.infer(handle)              # InferenceResult
    print(f"{result.latency_ms:.3f} ms", result.primitive_totals)
    print(engine.infer(handle, backend="hetero").latency_ms)
"""

from repro.engine.cache import CacheStats, ProgramCache
from repro.engine.core import (
    BACKENDS,
    MUTATION_POLICIES,
    Engine,
    MutationOutcome,
    PatchEvent,
    ProgramHandle,
)
from repro.engine.keys import (
    config_fingerprint,
    dataset_fingerprint,
    graph_content_digest,
    model_fingerprint,
    program_key,
)
from repro.engine.overhead import OverheadResult, measure_facade_overhead
from repro.engine.pool import AcceleratorPool, DispatchEvent

__all__ = [
    "BACKENDS",
    "MUTATION_POLICIES",
    "AcceleratorPool",
    "CacheStats",
    "DispatchEvent",
    "Engine",
    "MutationOutcome",
    "OverheadResult",
    "PatchEvent",
    "ProgramCache",
    "ProgramHandle",
    "config_fingerprint",
    "dataset_fingerprint",
    "graph_content_digest",
    "measure_facade_overhead",
    "model_fingerprint",
    "program_key",
]
