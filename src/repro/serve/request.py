"""Request/response types for the serving subsystem.

An :class:`InferenceRequest` is one unit of traffic: which model to run
on which graph, under which mapping strategy, and *when* it arrives
(virtual seconds).  Its ``program_key`` (built by :mod:`repro.engine.keys`,
as ``Engine.compile``'s is) names the compiled program it needs, so
requests sharing it skip ``Compiler.compile``; its ``batch_key`` adds the
strategy and shard width, so requests sharing it are bit-identical runs
one accelerator pass serves (:mod:`repro.sched.scheduler`).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Optional, Union

import numpy as np

from repro.config import AcceleratorConfig
from repro.datasets.catalog import GraphData
from repro.engine.keys import program_key

_request_ids = itertools.count()


@dataclass
class InferenceRequest:
    """One inference query of a serve sweep."""

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
    #: SLO class tag, a class of the sweep's ``slo_policy`` (default
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
    """A graph mutation in a serve sweep's request stream.

    ``graph_id`` names a :class:`~repro.dyngraph.mutable.MutableGraph`
    registered with the engine
    (:meth:`~repro.engine.core.Engine.register_graph`); the
    delta applies at ``arrival_s`` on the virtual clock.  Inference
    requests arriving later see the mutated graph; cached programs for
    it are patched or evicted per the sweep's mutation policy.
    Mutations sharing a timestamp with inference requests apply first.
    """

    graph_id: str
    delta: object  # a repro.dyngraph.delta.GraphDelta
    arrival_s: float = 0.0
    request_id: int = field(default_factory=lambda: next(_request_ids))


@dataclass(slots=True)
class InferenceResponse:
    """A sweep's answer to one request, with a full latency breakdown.

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
    #: the sweep runs with ``return_outputs=False``
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


class ResponseColumns(Sequence):
    """A sweep's responses, kept as columns and built when accessed.

    Each request keeps one member row, ``(request, start_s, deferred,
    (compile_s, cache_hit), joined)`` (a joiner starts at its join
    boundary); what the requests riding one execution share is kept once
    per execution.  Indexing, slicing or iterating builds
    :class:`InferenceResponse` objects, in the order the requests were
    answered; a report reads the columns (:meth:`arrays`).
    """

    def __init__(self) -> None:
        self.members: list[tuple] = []
        #: (first member's index, size, finish_s, batch_id, device, shards,
        #: barrier_s, cycles, output) per execution
        self.executions: list[tuple] = []

    def add(self, members: list, *shared) -> None:
        """Answer one execution's members; ``shared`` is its (finish_s,
        batch_id, device, shards, barrier_s, cycles, output)."""
        self.executions.append((len(self.members), len(members), *shared))
        self.members += members

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # a negative index counts from the end
        execution = self.executions[bisect_right(self.executions, i, key=itemgetter(0)) - 1]
        return next(self._build(execution, i, i + 1))

    def __iter__(self):
        for execution in self.executions:
            yield from self._build(execution, execution[0], execution[0] + execution[1])

    def _build(self, execution: tuple, lo: int, hi: int):
        """The responses of the execution's members ``lo`` to ``hi``."""
        _, size, finish, batch_id, device, shards, barrier, cycles, output = execution
        for req, start, deferred, (compile_s, hit), joined in self.members[lo:hi]:
            yield InferenceResponse(  # positional, in field order: 4x faster than keywords
                req.request_id, req.model, req.dataset_name, req.strategy, req.arrival_s,
                compile_s, start, finish, finish - start, hit, batch_id, size, device,
                cycles, shards, 0.0 if joined else barrier, output, req.slo, joined, deferred)

    def arrays(self) -> dict:
        """The response fields a report reads, one column per request,
        plus ``batch_size`` (one per execution, in batch-id order) and
        ``slo_names``, the SLO classes answered in name order, which each
        request's ``slo`` entry indexes."""
        members, n = self.members, len(self.members)
        _, size, finish, batch_id, _, _, barrier, _, _ = list(zip(*self.executions)) or [()] * 9
        requests = list(map(itemgetter(0), members))
        slos = list(map(attrgetter("slo"), requests))
        names = sorted(dict.fromkeys(slos))
        index = {name: i for i, name in enumerate(names)}
        sizes = np.array(size, dtype=int)
        start = np.fromiter(map(itemgetter(1), members), float, n)
        finish = np.repeat(np.array(finish, float), sizes)
        joined = np.fromiter(map(itemgetter(4), members), bool, n)
        return {
            "arrival_s": np.fromiter(map(attrgetter("arrival_s"), requests), float, n),
            "start_s": start, "finish_s": finish, "service_s": finish - start,
            "barrier_s": np.where(joined, 0.0, np.repeat(np.array(barrier, float), sizes)),
            "compile_s": np.fromiter(map(itemgetter(0), map(itemgetter(3), members)), float, n),
            "joined": joined, "deferred": np.fromiter(map(itemgetter(2), members), bool, n),
            "slo": np.fromiter(map(index.__getitem__, slos), int, n), "slo_names": names,
            "batch_size": sizes[np.argsort(np.array(batch_id, dtype=int), kind="stable")],
        }
