"""The ``Engine`` facade: one entry point over compile, infer, mutate, serve.

Before this module existed every caller hand-assembled ``Compiler`` ->
``Accelerator`` -> ``make_strategy`` -> ``run_strategy``, and the
serving, dynamic-graph and benchmark layers each re-implemented that
choreography with their own caching and device wiring.  The engine owns
those resources once:

- the **program cache** (:class:`~repro.engine.cache.ProgramCache`) —
  compile once per distinct (model, graph, config) fingerprint;
- the **device pool** (:class:`~repro.engine.pool.AcceleratorPool`) —
  N simulated accelerators on a shared virtual clock;
- **strategy selection** — mapping strategies resolved by paper label
  through :func:`~repro.runtime.strategies.make_strategy`;
- **graph registry + patcher** — registered
  :class:`~repro.dyngraph.mutable.MutableGraph` instances and the
  :class:`~repro.dyngraph.patcher.ProgramPatcher` that keeps cached
  programs valid under mutation;
- the **backends** (:data:`BACKENDS`) — the names :meth:`Engine.infer`
  dispatches on: the simulated FPGA on one device or sharded over the
  pool, the heterogeneous executor and the CPU/GPU rooflines.

Quickstart::

    from repro.engine import Engine

    engine = Engine()
    handle = engine.compile("GCN", "CO")
    result = engine.infer(handle)              # cycle-accurate simulator
    estimate = engine.infer(handle, backend="gpu")   # roofline what-if

The serving front-end (:class:`~repro.serve.server.InferenceServer`)
composes an engine rather than owning its own cache/pool plumbing, and
``engine.serve(workload)`` is the one-call path to it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Union

from repro.baselines.cpu_gpu import FRAMEWORKS, RooflineResult
from repro.compiler.compile import CompiledProgram, Compiler
from repro.config import AcceleratorConfig, u250_default
from repro.datasets.catalog import GraphData, load_dataset
from repro.dyngraph.delta import AppliedDelta, GraphDelta
from repro.dyngraph.mutable import MutableGraph
from repro.dyngraph.patcher import PatchPolicy, PatchReport, ProgramPatcher
from repro.engine.cache import ProgramCache
from repro.engine.keys import dataset_fingerprint, program_key
from repro.engine.pool import AcceleratorPool
from repro.gnn.models import ModelSpec, build_model, init_weights
from repro.gnn.pruning import prune_weights
from repro.hetero.executor import HeterogeneousRuntime
from repro.hw.accelerator import Accelerator
from repro.obs.tracer import NULL_TRACER
from repro.runtime.executor import run_strategy
from repro.runtime.strategies import make_strategy
from repro.shard.planner import plan_shards

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.request import InferenceRequest
    from repro.serve.server import ServingReport

__all__ = [
    "BACKENDS",
    "Engine",
    "MUTATION_POLICIES",
    "MutationOutcome",
    "PatchEvent",
    "ProgramHandle",
]

#: what happens to cached programs when their graph mutates: "patch"
#: re-keys them through the ProgramPatcher, "evict" invalidates them
#: (the next request pays a full recompile)
MUTATION_POLICIES = ("patch", "evict")

#: the ways :meth:`Engine.infer` runs a program: the simulator on device
#: 0 or sharded over the pool, the §IX CPU+GPU+FPGA what-if, and the
#: Fig. 14 framework rooflines
BACKENDS = ("simulated", "sharded", "hetero", "cpu", "gpu")

#: the framework each roofline backend prices
_ROOFLINE_FRAMEWORKS = {"cpu": "DGL-CPU", "gpu": "PyG-GPU"}


@dataclass
class ProgramHandle:
    """A compiled program plus everything needed to run or mutate it.

    Returned by :meth:`Engine.compile`; pass it to :meth:`Engine.infer`
    and :meth:`Engine.mutate`.  ``key`` is the program-cache fingerprint
    (``None`` for uncacheable compiles, e.g. with explicit weights);
    ``graph_id``/``graph_version`` bind the handle to a registered
    :class:`~repro.dyngraph.mutable.MutableGraph` when it was compiled
    from one.
    """

    program: CompiledProgram
    model: ModelSpec
    data: GraphData
    key: Optional[tuple]
    seed: int = 0
    prune: float = 0.0
    #: compile seconds charged (0.0 on a program-cache hit)
    compile_s: float = 0.0
    cache_hit: bool = False
    graph_id: Optional[str] = None
    graph_version: Optional[int] = None
    #: multi-device split planned by ``Engine.compile(..., shards=N)``;
    #: consumed by the ``sharded`` backend (None = unsharded)
    shard_plan: Optional[object] = None

    @property
    def model_name(self) -> str:
        return self.model.name

    @property
    def data_name(self) -> str:
        return self.data.name


@dataclass(frozen=True)
class PatchEvent:
    """One cached program re-keyed by a mutation."""

    old_key: tuple
    new_key: tuple
    report: PatchReport


@dataclass
class MutationOutcome:
    """Everything one applied delta did to the engine's cached state."""

    applied: AppliedDelta
    patches: list[PatchEvent] = field(default_factory=list)
    evictions: int = 0

    @property
    def structural(self) -> bool:
        """Did the delta actually change the graph (bump its version)?"""
        return self.applied.version_to != self.applied.version_from


def _rekeyed(key: tuple, snapshot: GraphData) -> tuple:
    """``key`` with its graph fingerprint moved to ``snapshot``'s."""
    return (key[0], dataset_fingerprint(snapshot)) + key[2:]


class Engine:
    """Unified session over compilation, execution, mutation and serving."""

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        *,
        pool_size: int = 1,
        cache_capacity: int = 64,
        patch_policy: PatchPolicy | None = None,
        tracer=None,
    ) -> None:
        self.config = config or u250_default()
        self.cache = ProgramCache(cache_capacity)
        self.pool = AcceleratorPool(self.config, pool_size)
        self.patcher = ProgramPatcher(patch_policy)
        #: the session tracer (:mod:`repro.obs`); NULL_TRACER = disabled
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pool.tracer = self.tracer
        #: host-wall-clock cursor for compile spans (sequential compiles
        #: are laid end to end on the ``host/compile`` track)
        self._trace_cursor = 0.0
        #: registered dynamic graphs: graph_id -> MutableGraph
        self._graphs: dict[str, MutableGraph] = {}
        #: loaded datasets, LRU-bounded alongside the program cache
        self._datasets: OrderedDict[tuple, GraphData] = OrderedDict()

    def device(self, index: int = 0) -> Accelerator:
        """A simulated accelerator from the engine's pool."""
        return self.pool.devices[index]

    # -- graphs ---------------------------------------------------------
    def register_graph(self, graph: MutableGraph) -> str:
        """Register a mutable graph so it can be referenced by id (as a
        request's ``dataset`` or a compile target) and mutated through
        :meth:`mutate` / :meth:`apply_delta`."""
        existing = self._graphs.get(graph.graph_id)
        if existing is not None and existing is not graph:
            raise ValueError(f"graph id {graph.graph_id!r} already registered")
        self._graphs[graph.graph_id] = graph
        return graph.graph_id

    def load_graph(
        self,
        dataset: Union[str, GraphData, MutableGraph],
        *,
        scale: float | None = None,
        seed: int = 0,
    ) -> GraphData:
        """Resolve a dataset reference to concrete ``GraphData``.

        Accepts a catalog name (LRU-cached load), an already-loaded
        graph (returned as-is), a registered graph id, or a
        :class:`MutableGraph` (registered as a side effect; its current
        snapshot is returned).
        """
        if isinstance(dataset, MutableGraph):
            self.register_graph(dataset)
            return dataset.snapshot()
        if isinstance(dataset, GraphData):
            return dataset
        if dataset in self._graphs:
            return self._graphs[dataset].snapshot()
        key = (dataset, scale, seed)
        data = self._datasets.get(key)
        if data is None:
            data = load_dataset(dataset, scale=scale, seed=seed)
            self._datasets[key] = data
            if len(self._datasets) > self.cache.capacity:
                self._datasets.popitem(last=False)
        else:
            self._datasets.move_to_end(key)
        return data

    # -- compile --------------------------------------------------------
    def compile(
        self,
        model: Union[str, ModelSpec],
        graph: Union[str, GraphData, MutableGraph],
        *,
        scale: float | None = None,
        seed: int = 0,
        prune: float = 0.0,
        weights: dict | None = None,
        shards: int = 1,
    ) -> ProgramHandle:
        """Compile (or fetch from cache) a program for (model, graph).

        ``model`` is a catalog name (``"GCN"``, ...) or an explicit
        :class:`ModelSpec`; ``graph`` is a dataset name, a loaded
        ``GraphData``, a registered graph id, or a ``MutableGraph``.
        Compiles with ``init_weights(model, seed=seed)`` (pruned by
        ``prune``) unless explicit ``weights`` are given — explicit
        weights bypass the program cache, since they are not part of the
        fingerprint.

        ``shards > 1`` additionally plans an nnz-balanced multi-device
        split of the program (:func:`repro.shard.planner.plan_shards`)
        and attaches it as ``handle.shard_plan`` — run it with
        ``engine.infer(handle, backend="sharded")``.  The compiled
        program itself (and therefore its cache fingerprint) is
        unchanged: sharding repartitions execution, not compilation.
        """
        if not isinstance(shards, int) or shards < 1:
            raise ValueError(f"shards must be an integer >= 1, got {shards!r}")
        graph_id: str | None = None
        graph_version: int | None = None
        if isinstance(graph, MutableGraph):
            self.register_graph(graph)
            graph = graph.graph_id
        if isinstance(graph, str) and graph in self._graphs:
            mutable = self._graphs[graph]
            data = mutable.snapshot()
            graph_id = mutable.graph_id
            graph_version = mutable.version
        else:
            data = self.load_graph(graph, scale=scale, seed=seed)
        model_spec = (
            model
            if isinstance(model, ModelSpec)
            else build_model(
                model, data.num_features, data.hidden_dim, data.num_classes
            )
        )
        if weights is not None:
            program = self._build(model_spec, data, seed, prune, weights)
            key, compile_s, hit = None, program.timings.total_s, False
        else:
            key = program_key(
                model if isinstance(model, str) else model_spec,
                data if graph_id is not None or not isinstance(graph, str)
                else graph,
                scale, seed, prune, self.config,
            )
            program, compile_s, hit = self.cache.get_or_compile(
                key, lambda: self._build(model_spec, data, seed, prune)
            )
        if self.tracer.enabled:
            label = f"{model_spec.name}/{data.name}"
            if hit:
                self.tracer.instant(
                    "host/compile", f"{label}/cache-hit", self._trace_cursor,
                    cat="compile",
                )
            else:
                t = program.timings
                t0 = self._trace_cursor
                self.tracer.span(
                    "host/compile", f"compile {label}", t0, t0 + compile_s,
                    cat="compile",
                )
                cursor = t0
                for phase_name, dur in (
                    ("parse", t.parse_s),
                    ("partition", t.partition_s),
                    ("profile", t.profile_s),
                ):
                    self.tracer.span(
                        "host/compile", f"{label}/{phase_name}",
                        cursor, cursor + dur, cat="compile-phase",
                    )
                    cursor += dur
                self._trace_cursor = t0 + compile_s
        shard_plan = None
        if shards != 1:
            shard_plan = plan_shards(program, shards)
        return ProgramHandle(
            program=program,
            model=model_spec,
            data=data,
            key=key,
            seed=seed,
            prune=prune,
            compile_s=compile_s,
            cache_hit=hit,
            graph_id=graph_id,
            graph_version=graph_version,
            shard_plan=shard_plan,
        )

    def _build(
        self,
        model: ModelSpec,
        data: GraphData,
        seed: int,
        prune: float,
        weights: dict | None = None,
    ) -> CompiledProgram:
        """The one uncached compile: explicit ``weights``, or the seeded
        initial weights pruned by ``prune``."""
        if weights is None:
            weights = init_weights(model, seed=seed)
            if prune != 0:
                weights = prune_weights(weights, prune)
        return Compiler(self.config).compile(model, data, weights)

    # -- infer ----------------------------------------------------------
    def infer(
        self,
        handle: ProgramHandle,
        *,
        strategy: str = "Dynamic",
        backend: str | None = None,
    ):
        """Execute a compiled program on one of :data:`BACKENDS`.

        Returns the backend's native result: ``simulated`` (also
        ``None``) the full :class:`~repro.runtime.executor.InferenceResult`
        of a run on device 0 (bit-identical to :func:`run_strategy`),
        ``sharded`` a :class:`~repro.shard.executor.ShardedResult` over
        the handle's shard plan (else one shard per pool device),
        ``hetero`` a :class:`~repro.hetero.executor.HeteroResult`, and
        ``cpu`` / ``gpu`` a
        :class:`~repro.baselines.cpu_gpu.RooflineResult` (DGL-CPU /
        PyG-GPU; their ``OutOfMemoryError`` propagates).  Every result
        exposes ``latency_s`` and ``latency_ms``.  A simulated or sharded
        run goes through :meth:`execute`: simulated anew on every call,
        and left as the program's record for the serve path.  Only the
        simulator's runs apply ``strategy`` (hetero always maps
        dynamically, the frameworks never do), but every backend rejects
        an unknown one.
        """
        backend = backend or "simulated"
        if backend not in BACKENDS:
            raise KeyError(
                f"unknown execution backend {backend!r}; backends: "
                f"{list(BACKENDS)}"
            )
        make_strategy(strategy, self.config)  # raises, listing the names
        program = handle.program
        if backend == "simulated":
            return self.execute(program, strategy)
        if backend == "sharded":
            plan = handle.shard_plan or plan_shards(program, self.pool.num_devices)
            return self.execute(program, strategy, plan=plan)
        if backend == "hetero":
            return HeterogeneousRuntime().run(program)
        framework = _ROOFLINE_FRAMEWORKS[backend]
        return RooflineResult(
            backend=backend,
            framework=framework,
            model_name=handle.model_name,
            data_name=handle.data_name,
            latency_s=FRAMEWORKS[framework].latency_seconds(
                handle.model, handle.data
            ),
        )

    def execute(
        self,
        program: CompiledProgram,
        strategy: str = "Dynamic",
        shards: int = 1,
        *,
        plan=None,
        ready_s: float | None = None,
    ):
        """The one door to a simulated execution of ``program``.

        The result (an ``InferenceResult``, or a ``ShardedResult`` when
        ``shards > 1`` or a shard ``plan`` is given) becomes the program's
        record, ``program._runs[strategy, shards]``.  Whoever simulates
        overwrites it; only the serve path replays it.

        ``ready_s=None`` is a caller's own run (:meth:`infer`): simulated
        every time, traced by the session tracer, on device 0 or, sharded,
        booked on the pool's clock.  A time is the serve path saying when
        its batch is ready: the record is returned if there is one, else
        the run is simulated untraced and unbooked on the device that
        would start it first (sharded: the first ``shards`` devices).
        """
        serving = ready_s is not None
        if plan is not None:
            shards = plan.num_shards
        if serving and (strategy, shards) in program._runs:
            return program._runs[strategy, shards]
        tracer = NULL_TRACER if serving else self.tracer
        if plan is not None or shards > 1:
            from repro.shard.executor import run_sharded

            run = run_sharded(
                program, shards, strategy_name=strategy, pool=self.pool,
                plan=plan, book_on_pool=not serving, tracer=tracer,
            )
        else:
            device = self.pool.peek_device(ready_s) if serving else 0
            run = run_strategy(
                program, strategy, accelerator=self.device(device), tracer=tracer
            )
        # a one-shard plan is not the unsharded run (it sums per-layer
        # seconds, not cycles: the last ulp differs), so never its record
        if run.num_shards > 1 or plan is None:
            program._runs[strategy, shards] = run
        return run

    # -- mutate ---------------------------------------------------------
    def apply_delta(
        self,
        graph_id: str,
        delta: GraphDelta,
        *,
        policy: str = "patch",
    ) -> MutationOutcome:
        """Apply a delta to a registered graph and reconcile the program
        cache under ``policy`` ("patch" re-keys cached programs through
        the :class:`ProgramPatcher`, "evict" invalidates them).

        Returns the :class:`MutationOutcome`; callers with their own
        notion of time (the serving loop's virtual clock) charge the
        per-patch ``report.wall_s`` costs themselves.
        """
        if policy not in MUTATION_POLICIES:
            raise ValueError(
                f"mutation policy must be one of {MUTATION_POLICIES}, "
                f"got {policy!r}"
            )
        graph = self._graphs.get(graph_id)
        if graph is None:
            raise KeyError(f"mutation targets unregistered graph {graph_id!r}")
        before = graph.snapshot()
        applied = graph.apply(delta)
        outcome = MutationOutcome(applied=applied)
        if not outcome.structural:
            return outcome  # structural no-op: cached programs stay valid
        # a program's key is its lineage: snapshots are named by graph id
        # and fingerprinted per version.  An inline GraphData that merely
        # shares the name matches too; its content digest differs from
        # every snapshot's, so it is evicted below, never patched
        backed = [key for key in self.cache.keys() if key[1][0] == graph_id]
        in_sync: list[tuple] = []
        if backed and policy == "patch":
            # an entry compiled from any other version (the graph was
            # mutated out-of-band, not through this engine) cannot be
            # brought up to date by this delta alone: evicted, not patched
            old_fp = dataset_fingerprint(before)
            in_sync = [key for key in backed if key[1] == old_fp]
        stale = set(backed).difference(in_sync)
        outcome.evictions = self.cache.invalidate(
            lambda key, _program: key in stale
        )
        snapshot = graph.snapshot()
        for old_key in in_sync:
            patched, report = self.patcher.patch(
                self.cache.pop(old_key), snapshot, applied
            )
            new_key = _rekeyed(old_key, snapshot)
            self.cache.put(new_key, patched)
            outcome.patches.append(PatchEvent(old_key, new_key, report))
        return outcome

    def mutate(self, handle: ProgramHandle, delta: GraphDelta) -> PatchReport | None:
        """Mutate the handle's graph and patch its program in place.

        The handle must have been compiled from a registered
        :class:`MutableGraph`.  Every cached program backed by that graph
        is reconciled (patch policy), and the handle is updated to the
        patched program / new snapshot / new cache key.  Returns the
        handle's :class:`PatchReport`, or ``None`` when the delta was a
        structural no-op.
        """
        if handle.graph_id is None:
            raise ValueError(
                "handle is not backed by a registered MutableGraph; "
                "compile from a MutableGraph (or its graph id) to mutate"
            )
        graph = self._graphs.get(handle.graph_id)
        if graph is None:
            raise KeyError(f"graph {handle.graph_id!r} is not registered")
        outcome = self.apply_delta(handle.graph_id, delta, policy="patch")
        if not outcome.structural:
            return None
        snapshot, applied = graph.snapshot(), outcome.applied
        event = next(
            (e for e in outcome.patches if e.old_key == handle.key), None
        )
        if event is not None:  # reconciled through the cache
            handle.program, report = self.cache.peek(event.new_key), event.report
        elif handle.graph_version == applied.version_from:
            # in sync but not in the cache (uncacheable compile, or lost
            # to LRU pressure): patch the handle's own program
            handle.program, report = self.patcher.patch(
                handle.program, snapshot, applied
            )
        else:
            handle.program, report = self.patcher.recompile(
                handle.program, snapshot, applied,
                reason=(
                    f"handle at graph version {handle.graph_version}, delta "
                    f"applies {applied.version_from} -> {applied.version_to}: "
                    f"out-of-band mutation forces a recompile"
                ),
            )
        handle.data = snapshot
        handle.graph_version = graph.version
        if handle.key is not None:
            handle.key = _rekeyed(handle.key, snapshot)
            self.cache.put(handle.key, handle.program)
        return report

    # -- serving admission ---------------------------------------------
    def resolve_request(self, request: "InferenceRequest") -> "InferenceRequest":
        """Bind a dynamic-graph request to the graph's *current* snapshot.

        A request whose dataset names a registered mutable graph is
        replaced with an inline-``GraphData`` one, so fingerprints key on
        the live version (snapshots carry an O(1) content digest); any
        other request is returned as it is.
        """
        if isinstance(request.dataset, str) and request.dataset in self._graphs:
            snapshot = self._graphs[request.dataset].snapshot()
            return replace(request, dataset=snapshot)
        return request

    def compile_request(self, request: "InferenceRequest") -> CompiledProgram:
        """Compile the program one serving request needs (no caching —
        the serving loop drives the cache itself to account hits on the
        virtual clock)."""
        data = self.load_graph(
            request.dataset, scale=request.scale, seed=request.seed
        )
        model = build_model(
            request.model, data.num_features, data.hidden_dim, data.num_classes
        )
        return self._build(model, data, request.seed, request.prune)

    # -- serve ----------------------------------------------------------
    def serve(self, requests: list, **server_kwargs) -> "ServingReport":
        """Run a request stream through a serving front-end bound to this
        engine (program cache and device pool shared with direct
        :meth:`compile` / :meth:`infer` use).

        ``server_kwargs`` are forwarded to
        :class:`~repro.serve.server.InferenceServer` (``max_batch_size``,
        ``max_wait_s``, ``return_outputs``, ``mutation_policy``, and
        ``scheduler`` with its ``slo_policy`` / ``admission`` /
        ``autoscaler``).  A server holds knobs, not results: compiled
        programs and their recorded executions (:meth:`execute`) live in
        the program cache, so a sweep is warm for whatever
        :meth:`infer` or an earlier sweep already ran.  ``scheduler`` names
        the one serve loop's dispatch policy, by default ``"legacy"``:
        book each closed batch ahead and whole.
        """
        from repro.serve.server import InferenceServer

        return InferenceServer(engine=self, **server_kwargs).serve(requests)
