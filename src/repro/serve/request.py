"""Request/response types for the serving subsystem.

An :class:`InferenceRequest` describes one unit of traffic: which model to
run on which graph, under which mapping strategy, and *when* it arrives
(virtual seconds).  Requests referencing the same compiled program are
interchangeable up to their arrival time, which is what lets the server
cache compilation (:mod:`repro.engine.cache`) and micro-batch execution
(:mod:`repro.serve.batcher`).

Two fingerprints are derived from a request (both built from the shared
identity scheme in :mod:`repro.engine.keys`, so serving and direct
``Engine.compile`` use agree on which programs are the same):

``program_key``
    identifies the :class:`~repro.compiler.compile.CompiledProgram` the
    request needs — (model, dataset identity, scale, seed, prune,
    accelerator config).  Requests sharing it skip ``Compiler.compile``.

``batch_key``
    ``program_key`` plus the mapping strategy: requests sharing it produce
    bit-identical runs, so one accelerator pass serves the whole batch and
    the K2P analysis (and a PCIe transfer, if any) are paid once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.config import AcceleratorConfig
from repro.datasets.catalog import GraphData
from repro.engine.keys import program_key

_request_ids = itertools.count()


@dataclass
class InferenceRequest:
    """One inference query entering the server."""

    model: str
    #: catalog key ("CO", "CI", ...) or an inline, already-loaded graph
    dataset: Union[str, GraphData]
    strategy: str = "Dynamic"
    #: weight sparsity in [0, 1] applied before compilation
    prune: float = 0.0
    #: dataset generation scale (None -> the catalog default)
    scale: Optional[float] = None
    #: weight/dataset generation seed
    seed: int = 0
    #: devices this query shards across (1 = whole-query on one device;
    #: >1 splits the graph by nnz-balanced vertex ranges, repro.shard)
    shards: int = 1
    #: arrival time on the virtual clock, in seconds
    arrival_s: float = 0.0
    #: SLO class tag, a class of the server's ``slo_policy`` (default
    #: "interactive" | "bulk"; any other tag is a ValueError): the serve
    #: loop schedules by it (priority, admission, batching window) and
    #: the report grades by it.  Deliberately NOT part of
    #: program_key/batch_key: the class changes *when* a request runs,
    #: never *what* it computes.
    slo: str = "bulk"
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def program_key(self, config: AcceleratorConfig) -> tuple:
        """Fingerprint of the compiled program this request needs."""
        return program_key(
            self.model, self.dataset, self.scale, self.seed, self.prune,
            config,
        )

    def batch_key(
        self, config: AcceleratorConfig, program_key: tuple | None = None
    ) -> tuple:
        """Fingerprint of the (program, strategy, shard width) execution
        this request can share with others in one micro-batch.  Callers
        holding the request's ``program_key`` pass it rather than pay for
        a second fingerprint."""
        if program_key is None:
            program_key = self.program_key(config)
        return program_key + (self.strategy, self.shards)

    @property
    def dataset_name(self) -> str:
        return self.dataset.name if isinstance(self.dataset, GraphData) else self.dataset


@dataclass
class MutationRequest:
    """A graph mutation entering the server's request stream.

    ``graph_id`` names a :class:`~repro.dyngraph.mutable.MutableGraph`
    registered with the server
    (:meth:`~repro.serve.server.InferenceServer.register_graph`); the
    delta applies at ``arrival_s`` on the virtual clock.  Inference
    requests arriving later see the mutated graph; cached programs for
    it are patched or evicted per the server's mutation policy.
    Mutations sharing a timestamp with inference requests apply first.
    """

    graph_id: str
    delta: object  # a repro.dyngraph.delta.GraphDelta
    arrival_s: float = 0.0
    request_id: int = field(default_factory=lambda: next(_request_ids))


@dataclass(slots=True)
class InferenceResponse:
    """The server's answer to one request, with a full latency breakdown.

    All times are virtual-clock seconds.  ``latency_s`` is what the client
    experiences: queueing + (exposed) compile + batching wait + service.
    """

    request_id: int
    model: str
    dataset: str
    strategy: str
    arrival_s: float
    #: compile time charged to this request (0.0 on a program-cache hit)
    compile_s: float
    #: when the batch containing this request started on a device
    start_s: float
    #: when that batch finished
    finish_s: float
    #: device-occupancy of the batch: accelerator execution, plus the
    #: PCIe input transfer unless its devices already held the inputs
    service_s: float
    cache_hit: bool
    batch_id: int
    batch_size: int
    #: lowest-numbered device of the batch's booking (a sharded batch
    #: occupies ``shards`` pool devices, chosen earliest-available — not
    #: necessarily consecutive)
    device: int
    accel_cycles: float
    #: devices the execution was sharded across (1 = unsharded)
    shards: int = 1
    #: mean per-shard barrier-wait seconds inside ``service_s`` (0.0 when
    #: unsharded): time shards idled at per-layer barriers waiting for
    #: the slowest shard — the halo-overlap headroom per request
    barrier_s: float = 0.0
    #: model output — a read-only ndarray shared by every response served
    #: from the same (program, strategy); copy before mutating.  None when
    #: the server runs with ``return_outputs=False``
    output: Optional[np.ndarray] = None
    #: the request's SLO class (mirrors ``InferenceRequest.slo``)
    slo: str = "bulk"
    #: True when the serve loop attached this request to an execution it
    #: did not found: joined in flight at a layer boundary, or boarded at
    #: the start (``start_s`` is that boundary; phases still sum to latency)
    joined: bool = False
    #: True when the admission controller parked this request during
    #: overload and re-admitted it later
    deferred: bool = False

    @property
    def latency_s(self) -> float:
        """End-to-end latency the client observes."""
        return self.finish_s - self.arrival_s

    @property
    def queue_s(self) -> float:
        """Time between arrival and the batch starting on a device."""
        return self.start_s - self.arrival_s

    @property
    def execute_s(self) -> float:
        """Device-occupancy seconds net of barrier waits."""
        return self.service_s - self.barrier_s
