"""Pluggable execution backends behind one ``ExecutionBackend`` interface.

Dynasparse's core claim is that one runtime can transparently pick the
best execution path per (data, model) pair.  The repo grew four such
paths — the cycle-accurate FPGA simulator, the CPU/GPU roofline baselines
and the §IX heterogeneous what-if executor — each with its own wiring.
This module puts them behind a single seam:

- :class:`ExecutionBackend` — the protocol: ``run(handle, strategy=...)``
  returns a result object exposing at least ``latency_s`` / ``latency_ms``;
- :func:`register_backend` — class decorator adding an implementation to
  the global registry under a name (``"simulated"``, ``"cpu"``, ``"gpu"``,
  ``"hetero"``, or any user-defined name);
- :func:`get_backend` / :func:`backend_names` — registry lookup with
  error messages that list the valid names.

``Engine.infer(handle, backend=...)`` resolves the name through this
registry, so adding a new execution substrate (a sharded pool, an async
remote device, a different analytical model) is one class + one decorator
away and every consumer — CLI, serving, benchmarks — picks it up.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.baselines.cpu_gpu import OutOfMemoryError, framework_latency
from repro.runtime.executor import InferenceResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.engine.core import Engine, ProgramHandle

__all__ = [
    "BACKEND_NAMES",
    "CpuBackend",
    "ExecutionBackend",
    "GpuBackend",
    "HeteroBackend",
    "RooflineResult",
    "ShardedBackend",
    "SimulatedBackend",
    "backend_names",
    "get_backend",
    "register_backend",
]


class ExecutionBackend(ABC):
    """One way of executing a compiled program.

    Implementations are registered with :func:`register_backend` and
    instantiated once per :class:`~repro.engine.core.Engine` (they may
    hold per-engine state such as device handles).  ``run`` returns the
    backend's native result object; every result exposes ``latency_s``
    and ``latency_ms``, and the ``simulated`` backend returns the full
    :class:`~repro.runtime.executor.InferenceResult` so facade users lose
    nothing over the legacy path.
    """

    #: registry name, filled in by :func:`register_backend`
    name: str = "?"

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine

    @abstractmethod
    def run(self, handle: "ProgramHandle", *, strategy: str = "Dynamic"):
        """Execute ``handle``'s program and return the backend's result."""


_REGISTRY: dict[str, type[ExecutionBackend]] = {}


def register_backend(name: str):
    """Class decorator: register an :class:`ExecutionBackend` under ``name``."""

    def decorate(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
        if not (isinstance(cls, type) and issubclass(cls, ExecutionBackend)):
            raise TypeError(
                f"@register_backend({name!r}) expects an ExecutionBackend "
                f"subclass, got {cls!r}"
            )
        if name in _REGISTRY and _REGISTRY[name] is not cls:
            raise ValueError(
                f"backend name {name!r} is already registered "
                f"(to {_REGISTRY[name].__name__})"
            )
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def get_backend(name: str) -> type[ExecutionBackend]:
    """Look up a backend class by registry name.

    Raises a :class:`KeyError` whose message lists the registered names,
    so a typo at the CLI or in config is self-diagnosing.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown execution backend {name!r}; registered backends: "
            f"{sorted(_REGISTRY)}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


@dataclass(frozen=True)
class RooflineResult:
    """Latency estimate from an analytical (roofline) backend."""

    backend: str
    framework: str
    model_name: str
    data_name: str
    latency_s: float

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    def format_report(self) -> str:
        return (
            f"{self.model_name} on {self.data_name} — backend {self.backend}\n"
            f"  latency           : {self.latency_ms:.4f} ms\n"
            f"  framework model   : {self.framework} (roofline estimate; the "
            f"mapping strategy does not apply)"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable summary (``repro run --backend cpu|gpu --json``)."""
        return {
            "model": self.model_name,
            "dataset": self.data_name,
            "backend": self.backend,
            "framework": self.framework,
            "latency_ms": self.latency_s * 1e3,
        }


@register_backend("simulated")
class SimulatedBackend(ExecutionBackend):
    """The cycle-accurate Dynasparse accelerator simulator.

    Runs on device 0 of the engine's accelerator pool — the exact
    :class:`~repro.runtime.executor.RuntimeSystem` path the legacy API
    wired by hand, so results are bit-identical to it.
    """

    def run(self, handle: "ProgramHandle", *, strategy: str = "Dynamic") -> InferenceResult:
        return self.engine.execute(handle.program, strategy)


class _RooflineBackend(ExecutionBackend):
    """Shared implementation of the CPU/GPU framework roofline backends.

    The mapping strategy is irrelevant here — PyG/DGL always run
    Aggregate as CSR SpMM and Update as dense GEMM (that is the point of
    the Fig. 14 comparison) — so ``strategy`` is accepted and ignored.
    """

    framework: str = "?"

    def run(self, handle: "ProgramHandle", *, strategy: str = "Dynamic") -> RooflineResult:
        latency = framework_latency(self.framework, handle.model, handle.data)
        if latency is None:
            raise OutOfMemoryError(
                f"{self.framework}: working set of {handle.model.name} on "
                f"{handle.data.name} exceeds the platform's memory"
            )
        return RooflineResult(
            backend=self.name,
            framework=self.framework,
            model_name=handle.model.name,
            data_name=handle.data.name,
            latency_s=latency,
        )


@register_backend("cpu")
class CpuBackend(_RooflineBackend):
    """Framework-on-CPU roofline baseline (default: DGL-CPU, Fig. 14)."""

    framework = "DGL-CPU"


@register_backend("gpu")
class GpuBackend(_RooflineBackend):
    """Framework-on-GPU roofline baseline (default: PyG-GPU, Fig. 14)."""

    framework = "PyG-GPU"


@register_backend("sharded")
class ShardedBackend(ExecutionBackend):
    """Multi-device sharded execution over the engine's accelerator pool.

    Uses the handle's shard plan (``Engine.compile(..., shards=N)``), or
    plans one shard per pool device when the handle carries none.  Each
    layer's shards are booked concurrently on the pool with a per-layer
    barrier and a PCIe halo-exchange charge for boundary vertices;
    outputs are bit-exact against the ``simulated`` backend.  Returns a
    :class:`~repro.shard.executor.ShardedResult`.
    """

    def run(self, handle: "ProgramHandle", *, strategy: str = "Dynamic"):
        from repro.shard.planner import plan_shards

        plan = handle.shard_plan
        if plan is None:
            plan = plan_shards(handle.program, self.engine.pool.num_devices)
        return self.engine.execute(handle.program, strategy, plan=plan)


@register_backend("hetero")
class HeteroBackend(ExecutionBackend):
    """The §IX CPU + GPU + FPGA what-if executor.

    K2P mapping on this platform is always the Analyzer's dynamic rule
    (the CPU exists to run it), so ``strategy`` is accepted and ignored.
    Returns a :class:`~repro.hetero.executor.HeteroResult`.
    """

    def __init__(self, engine: "Engine") -> None:
        super().__init__(engine)
        from repro.hetero.executor import HeterogeneousRuntime

        self.runtime = HeterogeneousRuntime()

    def run(self, handle: "ProgramHandle", *, strategy: str = "Dynamic"):
        return self.runtime.run(handle.program)


#: names of the built-in backends (the registry may grow at runtime)
BACKEND_NAMES = backend_names()
