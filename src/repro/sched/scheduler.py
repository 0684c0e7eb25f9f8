"""The serve loop: one discrete-event scheduler on the virtual clock.

Every :meth:`Engine.serve <repro.engine.core.Engine.serve>` sweep runs
here, as continuous batching, and ends in the sweep's
:class:`~repro.serve.report.ServingReport`.  The loop merges the
arrival-sorted request stream with a small heap of timers (batch windows,
compiles finishing, completions, and the layer boundaries a preemption is
taken at).  Its host cost scales with request
templates and executions, not requests.  A template is a request's
``(model, dataset, strategy, prune, scale, seed, shards, slo)``: its first
request in a sweep resolves it (bound to the live snapshot of a
registered graph; a mutation drops every resolution), checks its shard
width and SLO class, and fingerprints its program and ``batch_key``;
later requests reuse that.  Each inference arrival is looked up in the
cache (a miss's compile is charged to the one host clock), then joins an
execution of its ``batch_key`` in flight, or the forming micro-batch of
its ``batch_key`` and SLO class, which closes when full or when the
class's window expires and waits, in priority order, for a device.  A
finished execution answers its requests as one entry of the sweep's
:class:`~repro.serve.request.ResponseColumns`.

**Batch windows.**  A group closes the moment it holds
``max_batch_size`` requests, or once its oldest request has waited its
class's window (``max_wait_s`` by default).  The window is strict: a
group whose deadline is *at* an arrival's instant is still open for that
arrival, so ``max_wait_s=0`` coalesces same-instant arrivals.

**Per-layer segments.**  An execution is an input-PCIe segment (0 s
where its devices already hold the program's inputs) plus one segment
per kernel layer (the per-layer barrier intervals ``run_strategy``
records).  Its layer boundaries are the chained sums of its segments
from its start.  Every execution, at any width, runs as spans from its
start or a resume to its finish or a pause, each booked on all its
devices as one :meth:`~repro.engine.pool.AcceleratorPool.book` when it
ends: one device is booked a segment per layer; lanes, which meet at
every layer barrier, are held for ``input + latency``, their run's own
barrier clock.

**Join-in-flight.**  Requests sharing a ``batch_key`` are bit-identical
runs, so a request arriving while a compatible execution is in flight
*joins* it at the next layer boundary and shares its result — zero added
service time.  When an execution starts, every queued group of its
``batch_key`` that its SLO class does not outrank *boards* it, its
requests joining at the start: forming, closed, or closed with a compile
that ends by the start.  So the backlog rides one execution, and a
queued batch never finishes after a later arrival that joined the run it
could have boarded.  (The founding group respects ``max_batch_size``;
joiners and boarders ride free.)

**Priority + preemption.**  Closed groups dispatch in SLO-priority
order, and a strictly-higher-priority group may preempt a one-device
execution at a layer boundary (a timer only while such a group waits):
the execution pauses, its remaining segments stay with its device, and
it resumes when the device frees.  Only a one-device execution is a
victim (:meth:`ContinuousScheduler._arm_preemption`): a width-1 preemptor
would strand a wider one's other members at a barrier.  Wider ones are
still joinable.

**Admission + autoscaling.**  Every arrival passes the
:class:`~repro.sched.admission.AdmissionController` (shed/defer past
per-class queue bounds); every arrival/completion lets the
:class:`~repro.sched.autoscaler.PoolAutoscaler` resize the pool's active
set with hysteresis.  A queued group's shard width is a floor on the
active set, as a device that owns work is.

Accounting invariants: for every response, ``latency_s = queue_s +
execute_s + barrier_s``; a joiner's ``start_s`` is its join boundary with
``barrier_s = 0``; a device's busy seconds are the chained sum of what
it was charged: the segments it ran alone, or a lane's work plus its
share of the input.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from repro.engine.core import MUTATION_POLICIES, Engine
from repro.hw.memory import pcie_transfer_seconds
from repro.obs.metrics import MetricsRegistry
from repro.sched.admission import AdmissionController
from repro.sched.autoscaler import PoolAutoscaler
from repro.sched.slo import SLOClass, SLOPolicy
from repro.serve.report import ServingReport
from repro.serve.request import InferenceRequest, MutationRequest, ResponseColumns

__all__ = ["ContinuousScheduler", "check_shards"]

#: what a request template is: every field of a request but its id and
#: arrival, so every request of one template resolves, checks, classes and
#: keys alike
_TEMPLATE = operator.attrgetter("model", "dataset", "strategy", "prune", "scale", "seed",
                                "shards", "slo")


class _Template(NamedTuple):
    """One request template, resolved once per sweep."""

    req: InferenceRequest  # bound to the live snapshot of a registered graph
    cls: SLOClass
    prog_key: tuple
    pkey: tuple  # the batch key


@dataclass(eq=False)
class _Group:
    """A micro-batch of one ``batch_key`` and SLO class: forming, then
    closed and waiting for devices."""

    #: the batch key its requests share
    key: tuple
    slo: SLOClass
    #: arrival of the oldest request (when the group was opened)
    opened_s: float
    #: earliest time the batch may start (compile of its miss request done)
    ready_s: float
    #: the sweep's open order: 0 for its first batch
    batch_id: int
    #: when its window expires
    deadline: float
    #: devices the batch spans when it runs
    shards: int
    requests: list[InferenceRequest] = field(default_factory=list)
    #: request id -> (deferred by admission, its lookup: compile seconds
    #: charged, cache hit), for each of the batch's requests
    members: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def slot(self) -> tuple:
        """What the group is filed under while it is open."""
        return (self.key, self.slo.name)

    @property
    def rank(self) -> tuple:
        """Dispatch order: priority first, then open order (batch id)."""
        return (-self.slo.priority, self.batch_id)


_RANK = operator.attrgetter("rank")


#: an execution's states: running on its devices, paused at a layer
#: boundary by a preemption, done
RUNNING, PAUSED, DONE = "running", "paused", "done"


class _Execution:
    """One started execution: segments, devices, members, join state."""

    __slots__ = (
        "exec_id", "key", "run", "founders", "members", "joiners",
        "segments", "intervals", "busy_s", "seg_idx", "span_s", "boundaries",
        "devices", "start_s", "priority", "state", "check", "preemptions",
    )

    def __init__(self, group: _Group, run, input_s: float, devices: list[int]):
        self.exec_id, self.key, self.run = group.batch_id, group.key, run
        self.priority = group.slo.priority
        #: the batch it was started for (their window began at the start)
        self.founders: list[InferenceRequest] = group.requests
        self.members: dict = group.members
        #: the member rows (request, join boundary, deferred, lookup, True)
        #: of the requests that joined or boarded it (boundary None: joined
        #: while it was paused, attached at the resume)
        self.joiners: list[tuple] = []
        #: the seconds between join points, chained from a span's start:
        #: the input-PCIe transfer (0 s if resident), then one per layer
        self.intervals = [input_s, *map(float, run.segments_s)]
        #: the segments the pool books: the intervals at one device; lanes,
        #: which meet at every layer barrier, are held for input + latency,
        #: their run's own barrier clock, which a chained sum of the layers
        #: can miss by an ulp
        self.segments = (self.intervals if run.num_shards == 1
                         else [input_s + run.latency_s])
        #: each member's busy seconds, its lane's work plus its share of
        #: the input (one lane: None, charged the segments it ran)
        self.busy_s = [b + input_s / len(devices) for b in run.shard_busy_s] or None
        #: the first segment of the current span (the run from the start,
        #: or from a resume, to the finish or a pause), and its start
        self.seg_idx, self.span_s = 0, 0.0
        #: join points: the chained sums of the span's intervals past its
        #: start, up to the start of its final interval, at which an
        #: arrival can board (and a preemption be taken)
        self.boundaries: list[float] = []
        self.devices = devices
        self.start_s = 0.0
        self.state = RUNNING
        #: a preemption check is armed at the next join point: one timer
        #: per execution, however many outranking groups arrive meanwhile
        self.check = False
        #: how many times it was paused
        self.preemptions = 0

    @property
    def size(self) -> int:
        return len(self.founders) + len(self.joiners)

    def joinable(self, now: float) -> bool:
        """Is a layer boundary left to admit at?  The last is the start of
        the final segment: joining *at* the finish would share a result
        without ever being part of the execution."""
        if self.state is PAUSED:
            # the resume instant is a boundary; attach resolves then
            return True
        return bool(self.boundaries) and now <= self.boundaries[-1]

    def attach_time(self, now: float) -> float | None:
        """Join boundary for an arrival at ``now`` (None = at resume)."""
        if self.state is PAUSED:
            return None
        return self.boundaries[bisect_left(self.boundaries, now)]


def check_shards(request: InferenceRequest, devices: int, most: int) -> None:
    """A request spans at most the devices a sweep can ever start it on:
    the pool's ``devices``, or the ``most`` the autoscaler will activate."""
    if not 1 <= request.shards <= most:
        capped = f", of which the autoscaler activates at most {most}"
        raise ValueError(
            f"request {request.request_id} asks for {request.shards} "
            f"shards, but shards must be within [1, {most}]: the pool has "
            f"{devices} device(s){capped if most < devices else ''}"
        )


class ContinuousScheduler:
    """The serve loop over one :class:`~repro.engine.core.Engine`, for one
    sweep.

    :meth:`Engine.serve <repro.engine.core.Engine.serve>` constructs one
    per call, so all state here is sweep-local (the admission controller
    and autoscaler may be caller-owned and are reset at the start of
    :meth:`run`).  The knobs: ``max_batch_size`` and ``max_wait_s`` close
    a forming batch; ``return_outputs=False`` answers without output
    matrices; ``mutation_policy`` (``MUTATION_POLICIES``) is what a
    mutation does to cached programs; ``slo_policy`` is what requests are
    scheduled by and responses graded against (default:
    :meth:`SLOPolicy.default <repro.sched.slo.SLOPolicy.default>`);
    ``admission`` bounds the queue and ``autoscaler`` resizes the pool's
    active set (both opt-in).
    """

    def __init__(
        self,
        engine: Engine,
        *,
        max_batch_size: int = 8,
        max_wait_s: float = 1e-3,
        return_outputs: bool = True,
        mutation_policy: str = "patch",
        slo_policy: SLOPolicy | None = None,
        admission: AdmissionController | None = None,
        autoscaler: PoolAutoscaler | None = None,
    ) -> None:
        if mutation_policy not in MUTATION_POLICIES:
            raise ValueError(
                f"mutation_policy must be one of {MUTATION_POLICIES}, "
                f"got {mutation_policy!r}"
            )
        if not max_batch_size >= 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if not max_wait_s >= 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_batch_size, self.max_wait_s = max_batch_size, max_wait_s
        self.return_outputs, self.mutation_policy = return_outputs, mutation_policy
        #: the engine's resources, bound once for the sweep
        self.engine = engine
        self.pool, self.cache = engine.pool, engine.cache
        self.config, self.tracer = engine.config, engine.tracer
        self.slo_policy = slo_policy
        #: the classes requests are scheduled as
        self.classes = slo_policy if slo_policy is not None else SLOPolicy.default()
        self._class_named = {c.name: c for c in self.classes.classes}
        #: no ready group at this priority can preempt anything
        self._lowest = min(c.priority for c in self.classes.classes)
        self.admission = (admission if admission is not None
                          else AdmissionController(self.classes))
        self.autoscaler = autoscaler
        #: the widest a request may be: the pool, or the autoscaler's cap
        cap = autoscaler.max_devices if autoscaler is not None else None
        self._max_shards = min(self.pool.num_devices, cap or self.pool.num_devices)

        #: the sweep's counters; ``ServingReport`` is built from these
        self.metrics = MetricsRegistry()
        for name in ("batches", "mutations", "patches", "patch_fallbacks",
                     "sharded_batches", "sharded_requests", "halo_bytes",
                     "pcie_transfers", "pcie_s", "pcie_saved_s",
                     "sched.joined", "sched.shed", "sched.deferred",
                     "sched.preemptions", "sched.scale_ups", "sched.scale_downs"):
            self.metrics.counter(f"serve.{name}")  # reported even at zero
        self.metrics.gauge("serve.max_shard_width")
        self.answers = ResponseColumns()
        #: (device, program key, shards, slice) of every input slice a
        #: device's DDR received this sweep
        self._resident: set[tuple] = set()
        #: seconds and evictions the metrics catalogue has no name for
        self.patch_s = 0.0
        self.halo_s = 0.0
        self.mutation_evictions = 0

        self._timers: list[tuple] = []
        self._seq = itertools.count()
        self._groups: dict[tuple, _Group] = {}
        self._order = itertools.count()
        #: closed groups whose program is compiled, in dispatch order
        self._ready: list[_Group] = []
        self._unready: list[_Group] = []
        #: requests in open or closed-but-undispatched groups
        self._waiting = 0
        #: deepest backlog (waiting + parked) seen after an arrival
        self._max_depth = 0
        #: parked (request, template) pairs
        self._deferred: deque[tuple] = deque()
        #: template -> its resolution, for the graph snapshots now live
        self._templates: dict[tuple, _Template] = {}
        self._inflight: dict[tuple, _Execution] = {}
        self._assignment: list = [None] * self.pool.num_devices
        self._paused_stack: list[list] = [[] for _ in self._assignment]
        #: devices that own a running or paused execution (all active: a
        #: device that owns work is never parked)
        self._occupied_count = 0
        self._programs: dict[tuple, object] = {}
        #: virtual time each program's compile (or patch) finishes this
        #: sweep: a hit on a program whose miss still compiles waits for it
        self._program_ready: dict[tuple, float] = {}
        #: the one host CPU: compiles and mutation patches serialise on it
        self._host_free_s = 0.0

    # -- queue state ----------------------------------------------------
    def _queue_depth(self) -> int:
        """The admission-facing backlog: waiting + parked (deferred)."""
        return self._waiting + len(self._deferred)

    def _occupied(self, device: int) -> bool:
        """Does the device own a running or paused execution?"""
        return self._assignment[device] is not None or bool(self._paused_stack[device])

    def _count(self, name: str, amount: float = 1) -> None:
        self.metrics.counter(name).inc(amount)

    def _after(self, t: float, callback, payload) -> None:
        """Arm a timer: ``callback(payload, t)`` fires at virtual time
        ``t``, after every arrival at ``t`` and in arming order among
        timers sharing an instant."""
        heapq.heappush(self._timers, (t, next(self._seq), callback, payload))

    # -- the event loop -------------------------------------------------
    def run(self, requests: list):
        """Serve the stream to completion; returns a ``ServingReport``
        (events in arrival order, mutations first on timestamp ties)."""
        pool, cache, tracer = self.pool, self.cache, self.tracer
        hits, misses = cache.hits, cache.misses
        compile_s, saved_s = cache.compile_s, cache.saved_s
        pool.reset()
        self.admission.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
            pool.set_active(min(self.autoscaler.min_devices, pool.num_devices), now=0.0)

        timers = self._timers
        # a stable sort: mutations first on timestamp ties
        mutations = [r for r in requests if isinstance(r, MutationRequest)]
        arrival_s = operator.attrgetter("arrival_s")
        arrivals = sorted(
            mutations + [r for r in requests if not isinstance(r, MutationRequest)],
            key=arrival_s,
        )
        # one pass per stream: a NaN or infinite arrival makes the sum one
        if not math.isfinite(sum(map(arrival_s, arrivals))):
            raise ValueError("every request's arrival_s must be finite")
        ready = self._ready
        for event in arrivals:
            t = event.arrival_s
            # strictly earlier timers only: a window ending at this very
            # instant stays open for a same-instant arrival to join
            while timers and timers[0][0] < t:
                due_s, _, callback, payload = heapq.heappop(timers)
                callback(payload, due_s)
            # every event leaves no ready group that fits an idle device:
            # only a batch this arrival closed (or a resized pool) can start
            before = len(ready)
            if isinstance(event, MutationRequest):
                self._mutate(event, t)
            else:
                self._admit(event, self._template(event), t, deferred=False)
            depth = self._waiting + len(self._deferred)
            if depth > self._max_depth:
                self._max_depth = depth
            if tracer.enabled:
                tracer.counter("serve", "queue_depth", t, depth)
            self._autoscale(t)
            if len(ready) != before or self.autoscaler is not None:
                self._schedule(t)
        if arrivals:
            self._end_of_stream(arrivals[-1].arrival_s)
        while timers:
            due_s, _, callback, payload = heapq.heappop(timers)
            callback(payload, due_s)
        if self._queue_depth():
            raise RuntimeError(f"the serve loop ran out of events with {self._queue_depth()} "
                               f"admitted request(s) undispatched")

        self._count("serve.cache_hits", cache.hits - hits)
        self._count("serve.cache_misses", cache.misses - misses)
        self._count("serve.compile_s", cache.compile_s - compile_s)
        self._count("serve.compile_saved_s", cache.saved_s - saved_s)
        # what in-flight dispatch did (the report's pass over the responses
        # feeds the per-class ``serve.sched.<class>.*`` histograms)
        admitted = sum(c["admit"] for c in self.admission.snapshot().values())
        self._count("serve.sched.admitted", admitted)
        self._count("serve.sched.executions", self.metrics.counter("serve.batches").value)
        self.metrics.gauge("serve.sched.active_devices").set(pool.num_active)
        self.metrics.gauge("serve.sched.max_queue_depth").set(self._max_depth)
        return self._report()

    # -- arrivals -------------------------------------------------------
    def _mutate(self, mutation: MutationRequest, now: float) -> None:
        """Apply one mutation at virtual time ``now`` and charge its cost.

        The cache reconciliation itself (patch or evict, per the sweep's
        mutation policy) is the engine's job; here the work is booked on
        the sweep's host clock: patches and compiles share one host, so
        they serialise against each other on the virtual timeline.
        """
        outcome = self.engine.apply_delta(mutation.graph_id, mutation.delta,
                                          policy=self.mutation_policy)
        self._templates.clear()  # later requests bind to the new snapshot
        self._count("serve.mutations")
        self.mutation_evictions += outcome.evictions
        for event in outcome.patches:
            # the patch queues behind whatever the host is doing (an
            # in-flight compile of this very program included) and holds
            # the host while it runs
            start = max(now, self._host_free_s, self._program_ready.get(event.old_key, now))
            self._host_free_s = start + event.report.wall_s
            self._program_ready[event.new_key] = self._host_free_s
            self._count("serve.patches" if event.report.patched else "serve.patch_fallbacks")
            self.patch_s += event.report.wall_s

    def _template(self, req: InferenceRequest) -> _Template:
        """The request's template, resolved on its first request."""
        key = _TEMPLATE(req)
        if not isinstance(key[1], str):
            key = (key[0], id(key[1]), *key[2:])  # an inline graph, by identity
        template = self._templates.get(key)
        if template is None:
            req = self.engine.resolve_request(req)
            check_shards(req, self.pool.num_devices, self._max_shards)
            cls, prog_key = self._class_of(req), req.program_key(self.config)
            template = self._templates[key] = _Template(
                req, cls, prog_key, req.batch_key(self.config, prog_key))
        return template

    def _class_of(self, req: InferenceRequest) -> SLOClass:
        cls = self._class_named.get(req.slo)
        if cls is None:
            raise ValueError(
                f"request {req.request_id} carries SLO class {req.slo!r} "
                f"but the policy defines {self.classes.names}"
            )
        return cls

    def _admit(self, req: InferenceRequest, template: _Template, now: float, *,
               deferred: bool) -> None:
        # join-in-flight first: a join consumes no capacity, so it is
        # exempt from admission bounds — shedding a joinable request
        # would refuse work that is already paid for
        exec_ = self._inflight.get(template.pkey)
        if exec_ is not None and exec_.joinable(now):
            lookup = self._lookup(req, template, now)[1]
            exec_.joiners.append((req, exec_.attach_time(now), deferred, lookup, True))
            if self.tracer.enabled:
                self.tracer.instant("sched", f"req{req.request_id}/join", now, cat="join",
                                    exec_id=exec_.exec_id, slo=req.slo)
            return

        if not deferred:
            decision = self.admission.decide(template.cls, self._queue_depth())
            if decision.action != "admit":
                if decision.action == "defer":
                    self._deferred.append((req, template))
                self._count("serve.sched.shed" if decision.action == "shed"
                            else "serve.sched.deferred")
                if self.tracer.enabled:
                    self.tracer.instant("sched", f"req{req.request_id}/{decision.action}", now,
                                        cat=decision.action, slo=req.slo, reason=decision.reason)
                return

        ready_s, lookup = self._lookup(req, template, now)
        self._group_add(req, template, ready_s, lookup, now, deferred=deferred)

    def _lookup(self, req: InferenceRequest, template: _Template, now: float) -> tuple:
        """Program-cache lookup + host-clock compile charge; returns the
        virtual time the request's program is ready to run, and the
        lookup's (compile seconds charged, cache hit)."""
        cache, prog_key = self.cache, template.prog_key
        hit = prog_key in cache
        if hit:  # no closure and no compile to offer: the counted get alone
            program, lookup = cache.get(prog_key), (0.0, True)
        else:
            program, compile_s, _ = cache.get_or_compile(
                prog_key, lambda: self.engine.compile_request(template.req))
            lookup = (compile_s, False)
        if self.tracer.enabled:
            self.tracer.instant("serve", f"req{req.request_id}/enqueue", now, cat="enqueue",
                                model=str(req.model), cache="hit" if hit else "miss",
                                shards=req.shards)
        if not hit:
            # the compile queues behind the host's in-flight work
            compile_start = max(now, self._host_free_s)
            self._host_free_s = compile_start + compile_s
            self._program_ready[prog_key] = self._host_free_s
            if self.tracer.enabled:
                self.tracer.span("host/compile", f"compile {req.model}/{req.dataset_name}",
                                 compile_start, self._host_free_s, cat="compile")
        self._programs[template.pkey] = program
        return max(now, self._program_ready.get(prog_key, now)), lookup

    # -- batch windows --------------------------------------------------
    def _group_add(self, req: InferenceRequest, template: _Template, ready_s: float,
                   lookup: tuple, now: float, *, deferred: bool) -> None:
        cls = template.cls
        gkey = (template.pkey, cls.name)
        group = self._groups.get(gkey)
        opened = group is None
        if opened:
            wait = cls.max_wait_s if cls.max_wait_s is not None else self.max_wait_s
            group = self._groups[gkey] = _Group(
                template.pkey, cls, opened_s=now, ready_s=now, batch_id=next(self._order),
                deadline=now + wait, shards=req.shards)
            self._after(group.deadline, self._window_expired, group)
        group.requests.append(req)
        group.members[req.request_id] = (deferred, lookup)
        if ready_s > group.ready_s:
            group.ready_s = ready_s
        self._waiting += 1
        if opened and req.shards > self.pool.num_active:
            # a queued batch's width is a floor on the active set: it
            # grows now, because no later event need come to grow it
            self._resize(req.shards, now, f"queued batch spans {req.shards} devices")
        if group.size >= self.max_batch_size:
            self._close_group(group, now)

    def _window_expired(self, group: _Group, now: float) -> None:
        if self._groups.get(group.slot) is group:
            self._close_group(group, now)
            self._schedule(now)

    def _close_group(self, group: _Group, now: float) -> None:
        del self._groups[group.slot]
        if self.tracer.enabled:
            # the batch-formation window: first member's admission to
            # the size trigger or window expiry that closed the batch
            self.tracer.span("serve", f"batch{group.batch_id}/form", group.opened_s, now,
                             cat="batch", size=group.size, key=str(group.requests[0].model),
                             slo=group.slo.name)
        if group.ready_s <= now:
            insort(self._ready, group, key=_RANK)
        else:
            # compile still running: becomes schedulable at ready_s
            self._unready.append(group)
            self._after(group.ready_s, self._group_ready, group)

    def _group_ready(self, group: _Group, now: float) -> None:
        if group not in self._unready:
            return  # it boarded an execution of its program
        self._unready.remove(group)
        insort(self._ready, group, key=_RANK)
        self._schedule(now)

    def _end_of_stream(self, t: float) -> None:
        """No further arrivals can join: flush the parking lot and close
        the open groups now instead of idling out their windows (which
        would floor the makespan and understate throughput)."""
        while self._deferred:
            self._admit(*self._deferred.popleft(), t, deferred=True)
        for group in list(self._groups.values()):
            self._close_group(group, t)
        self._schedule(t)

    # -- dispatch -------------------------------------------------------
    def _prepare(self, group: _Group, ready_s: float):
        """Replay (or simulate, the first time) the group's execution
        through the engine's one door and count it; returns the run.  K2P
        analysis and any PCIe input transfer are paid once per execution."""
        first = group.requests[0]
        run = self.engine.execute(self._programs[group.key], first.strategy, first.shards,
                                  ready_s=ready_s)
        self._count("serve.batches")
        if run.num_shards > 1:
            self._count("serve.sharded_batches")
            self._count("serve.sharded_requests", group.size)
            self._count("serve.halo_bytes", run.halo_bytes)
            self.halo_s += run.halo_s
            width = self.metrics.gauge("serve.max_shard_width")
            width.set(max(width.value, run.num_shards))
        return run

    def _input_s(self, group: _Group, devices: list[int]) -> float:
        """PCIe seconds the group pays to send its program's inputs to
        ``devices`` (slice ``i`` to ``devices[i]``): none when each holds
        its slice already (sent earlier this sweep, never evicted), else
        the whole transfer, after which each does."""
        transfer_s = pcie_transfer_seconds(self._programs[group.key].input_bytes(), self.config)
        # the batch key is the program key + (strategy, shards)
        slices = {(d, group.key[:-2], len(devices), i) for i, d in enumerate(devices)}
        sent = slices - self._resident
        if not sent:
            self._count("serve.pcie_saved_s", transfer_s)
            return 0.0
        self._resident |= sent
        self._count("serve.pcie_transfers", len(sent))
        self._count("serve.pcie_s", transfer_s)
        return transfer_s

    def _respond(self, exec_: _Execution, t: float) -> None:
        """Answer every request riding ``exec_``, which finished at ``t``,
        as one entry of the sweep's answers: founders from its start,
        joiners from their join boundary."""
        run, start, members = exec_.run, exec_.start_s, exec_.members
        # strict: a request never looked up is an admission bug (a KeyError), not a hit
        rows = [(r, start, *members[r.request_id], False) for r in exec_.founders]
        rows += exec_.joiners
        self._count("serve.sched.joined", len(exec_.joiners))
        if run.num_shards > 1:
            self._count("serve.sharded_requests", len(exec_.joiners))
        self.answers.add(rows, t, exec_.exec_id, exec_.devices[0], run.num_shards,
                         run.barrier_s, run.total_cycles,
                         run.served_output() if self.return_outputs else None)
        if self.tracer.enabled:
            for req, start, deferred, _, joined in rows:
                if start > req.arrival_s:
                    self.tracer.span(
                        f"sched/{req.slo}", f"req{req.request_id}/queue-wait", req.arrival_s,
                        start, cat="queue", joined=joined, deferred=deferred,
                    )

    def _schedule(self, t: float) -> None:
        """Start as many ready groups as idle active devices allow.

        Priority order with backfill: a sharded group that cannot get
        its full device set does not block a narrower group behind it.
        """
        ready, pool = self._ready, self.pool
        while ready and self._occupied_count < pool.num_active:
            idle = [d for d in range(pool.num_active) if not self._occupied(d)]
            fits = next((i for i, g in enumerate(ready) if g.shards <= len(idle)), None)
            if fits is None:
                break
            self._start_execution(ready.pop(fits), t, idle)
        if ready and ready[0].slo.priority > self._lowest:
            self._arm_preemption(t)

    def _start_execution(self, group: _Group, t: float, idle: list[int]) -> None:
        pool = self.pool
        self._waiting -= group.size
        ready_s = max(group.ready_s, t)
        run = self._prepare(group, ready_s)
        shards = run.num_shards
        # the earliest-available idle device(s), lowest-numbered on ties
        by_idle = sorted(idle, key=lambda d: (pool.available[d], d))
        chosen = sorted(by_idle[:shards])
        exec_ = _Execution(group, run, self._input_s(group, chosen), chosen)
        for d in chosen:
            if not self._occupied(d):
                self._occupied_count += 1
            self._assignment[d] = exec_
        # every member starts at the latest available of the set
        exec_.start_s = max(ready_s, *(float(pool.available[d]) for d in chosen))
        self._run_span(exec_, exec_.start_s)
        self._inflight[group.key] = exec_
        if self.tracer.enabled:
            self.tracer.instant("sched", f"exec{exec_.exec_id}/start", exec_.start_s,
                                cat="dispatch", size=group.size, slo=group.slo.name,
                                shards=shards, devices=str(chosen))
        # the backlog of its key boards it: any group its class does not
        # outrank, open or closed, whose program is ready by the start
        start = exec_.start_s
        boarding = sorted((g for g in itertools.chain(self._groups.values(), self._ready,
                                                      self._unready)
                           if g.key == group.key and g.slo.priority <= exec_.priority
                           and g.ready_s <= start), key=_RANK)
        for g in boarding:
            if self._groups.get(g.slot) is g:
                del self._groups[g.slot]  # its window timer finds it gone
            self._waiting -= g.size
            exec_.joiners += [(r, start, *g.members[r.request_id], True) for r in g.requests]
            if self.tracer.enabled:
                self.tracer.instant("sched", f"exec{exec_.exec_id}/board", start, cat="join",
                                    batch_id=g.batch_id, size=g.size,
                                    slo=g.slo.name)
        for queue in (self._ready, self._unready):
            queue[:] = [g for g in queue if g not in boarding]

    # -- layer boundaries ------------------------------------------------
    def _run_span(self, exec_: _Execution, start: float) -> None:
        """Run an execution's remaining segments from ``start`` to its
        finish: join points are the chained sums of its intervals, which
        at one device are the segments the pool books (:meth:`_book_span`),
        so every join point is a bit-exact layer boundary."""
        k = exec_.seg_idx
        bounds = list(itertools.accumulate(exec_.intervals[k:], initial=start))
        exec_.span_s, exec_.boundaries = start, bounds[1:-1]
        if exec_.state is PAUSED:  # who joined it while paused attaches now
            exec_.joiners = [(r, start if a is None else a, *rest)
                             for r, a, *rest in exec_.joiners]
        exec_.state = RUNNING
        *_, end = itertools.accumulate(exec_.segments[k:], initial=start)
        self._after(end, self._finish, (exec_, start))

    def _book_span(self, exec_: _Execution, n: int) -> None:
        """Book the first ``n`` segments of the current span on the
        execution's devices, as one booking."""
        first = exec_.seg_idx
        exec_.seg_idx = first + n
        self.pool.book(exec_.devices, exec_.segments[first:first + n], exec_.span_s,
                       busy_s=exec_.busy_s, batch_id=exec_.exec_id, batch_size=exec_.size)

    def _arm_preemption(self, t: float) -> None:
        """Arm a boundary check on every running one-device execution the
        first unsharded ready group outranks: its next join point is
        where that group may take the device.  Only a one-device
        execution is a victim: a preemptor of width 1 would strand the
        other members of a wider one at a barrier."""
        top = next((g.slo.priority for g in self._ready if g.shards == 1), None)
        if top is None:
            return
        for exec_ in self._assignment:
            if (exec_ is None or len(exec_.devices) > 1 or exec_.check
                    or exec_.priority >= top):
                continue
            i = bisect_left(exec_.boundaries, t)
            if i < len(exec_.boundaries):
                exec_.check = True
                self._after(exec_.boundaries[i], self._at_boundary, exec_)

    def _at_boundary(self, exec_: _Execution, t: float) -> None:
        """Pause ``exec_`` at this boundary for a strictly-higher-priority
        ready group, if one still waits."""
        exec_.check = False
        if exec_.state is DONE:  # a zero-second final layer
            return
        preemptor = None
        for i, g in enumerate(self._ready):
            if g.slo.priority <= exec_.priority:
                break  # dispatch order: nothing behind ranks higher
            if g.shards == 1:  # sharded groups wait for a full idle set
                preemptor = i
                break
        if preemptor is None:
            return
        group = self._ready.pop(preemptor)
        dev = exec_.devices[0]
        self._book_span(exec_, bisect_left(exec_.boundaries, t) + 1)
        exec_.state = PAUSED
        exec_.preemptions += 1
        self._count("serve.sched.preemptions")
        self._paused_stack[dev].append(exec_)
        self._assignment[dev] = None
        if self.tracer.enabled:
            self.tracer.instant("sched", f"exec{exec_.exec_id}/preempted", t, cat="preempt",
                                by=group.batch_id, device=dev)
        self._start_execution(group, t, [dev])
        self._arm_preemption(t)

    # -- completion -----------------------------------------------------
    def _finish(self, span: tuple, t: float) -> None:
        exec_, span_s = span
        if exec_.state is not RUNNING or exec_.span_s != span_s:
            return  # armed for a span a pause cut short
        exec_.state = DONE
        self._book_span(exec_, len(exec_.segments) - exec_.seg_idx)
        if self._inflight.get(exec_.key) is exec_:
            del self._inflight[exec_.key]
        self._respond(exec_, t)
        if self.tracer.enabled:
            self.tracer.span("sched", f"exec{exec_.exec_id}", exec_.start_s, t, cat="exec",
                             size=exec_.size, shards=exec_.run.num_shards,
                             preemptions=exec_.preemptions)
        for dev in exec_.devices:
            self._assignment[dev] = None
            if self._paused_stack[dev]:
                # LIFO resume keeps forward progress for preempted work;
                # an interactive group can re-preempt at the next boundary
                resumed = self._paused_stack[dev].pop()
                self._assignment[dev] = resumed
                self._run_span(resumed, t)
            else:
                self._occupied_count -= 1
        self._readmit_deferred(t)
        self._autoscale(t)
        self._schedule(t)

    def _readmit_deferred(self, t: float) -> None:
        """Re-admit parked requests once the queue drains (FIFO)."""
        while self._deferred:
            req, template = self._deferred[0]
            watermark = self.admission.low_watermark(template.cls)
            if watermark is not None and self._waiting >= watermark:
                break
            self._deferred.popleft()
            self._admit(req, template, t, deferred=True)

    # -- autoscaling ----------------------------------------------------
    def _autoscale(self, now: float) -> None:
        if self.autoscaler is None:
            return
        active = self.pool.num_active
        proposal = self.autoscaler.propose(
            now, active=active, queue_depth=self._queue_depth(),
            busy_devices=self._occupied_count, pool_devices=self.pool.num_devices)
        if proposal is None:
            return
        target, reason = proposal
        if target < active:
            # never park a device that owns work — drain first — nor one
            # a queued batch needs to start at all
            queued = itertools.chain(self._groups.values(), self._unready, self._ready)
            floor = max([g.shards for g in queued]
                        + [d + 1 for d in range(active) if self._occupied(d)], default=0)
            target = max(target, floor)
            if target >= active:
                return
        self._resize(target, now, reason)
        if target > active:
            self._schedule(now)

    def _resize(self, target: int, now: float, reason: str) -> None:
        """Commit an active-set transition to the pool and the log."""
        active = self.pool.num_active
        grow = target > active
        self.pool.set_active(target, now=now,
                             provision_delay_s=self.autoscaler.provision_delay_s if grow else 0.0)
        self._count("serve.sched.scale_ups" if grow else "serve.sched.scale_downs")
        self.autoscaler.commit(now, from_devices=active, to_devices=target, reason=reason,
                               queue_depth=self._queue_depth(),
                               busy_devices=self._occupied_count)
        if self.tracer.enabled:
            self.tracer.counter("sched", "active_devices", now, target)

    # -- reporting ------------------------------------------------------
    def _report(self) -> ServingReport:
        """Build the report of the finished sweep from what it counted
        (``metrics``) and answered (``answers``): the answers' columns, one
        array into each histogram, and every field the registry then holds
        read off its one snapshot (:func:`~repro.serve.report._held`)."""
        answers, registry, pool = self.answers, self.metrics, self.pool
        n = len(answers)
        columns = answers.arrays()
        arrival, start, finish, barrier, joined, deferred, slo = (columns[name] for name in (
            "arrival_s", "start_s", "finish_s", "barrier_s", "joined", "deferred", "slo"))
        latency, queue = finish - arrival, start - arrival
        # utilization over the same serving window the report's makespan
        # and throughput use (the pool's own clock starts at t=0, which
        # would dilute utilization for streams arriving late)
        span = float(finish.max() - arrival.min()) if n else 0.0
        utilization = [float(b) / span if span > 0 else 0.0 for b in pool.busy]

        registry.counter("serve.requests").inc(n)
        hits = registry.counter("serve.cache_hits").value
        lookups = hits + registry.counter("serve.cache_misses").value
        registry.gauge("serve.cache_hit_rate").set(hits / lookups if lookups else 0.0)
        registry.gauge("serve.load_balance").set(pool.load_balance())
        for d, u in enumerate(utilization):
            registry.gauge(f"serve.dev{d}.busy_fraction").set(u)
        # per-request phases: queueing (arrival -> device start), exposed
        # compile, execution net of barriers, barrier waits; latency_s =
        # queue_wait + execute + barrier (compile overlaps the queue phase)
        phases = {"queue_wait": queue, "compile": columns["compile_s"],
                  "execute": columns["service_s"] - barrier, "barrier": barrier}
        for name, values in (
            ("latency_s", latency), ("queue_s", queue),
            *((f"phase.{phase}_s", v) for phase, v in phases.items()),
            ("batch_size", columns["batch_size"]),
        ):
            registry.histogram(f"serve.{name}").extend(values)

        # per-SLO-class block: percentiles for every class seen (the
        # ``serve.sched.<class>.*`` histograms), violations and goodput
        # against the policy's targets
        class_breakdown: dict[str, dict] = {}
        met_total = 0
        for name in map(str, np.unique(slo)):
            members = slo == name
            stats = {}
            for what, values in (("latency_s", latency), ("queue_s", queue)):
                hist = registry.histogram(f"serve.sched.{name}.{what}")
                hist.extend(values[members])
                stats[what] = hist.snapshot()
            graded = self.slo_policy is not None and name in self.slo_policy.names
            target = self.slo_policy.get(name).target_p99_s if graded else None
            violations = int((latency[members] > target).sum()) if target is not None else 0
            count = stats["latency_s"]["count"]
            met_total += count - violations
            class_breakdown[name] = {
                "count": count,
                **{f"{q}_s": stats["latency_s"][q]
                   for q in ("p50", "p95", "p99", "mean")},
                "queue_p95_s": stats["queue_s"]["p95"],
                "target_p99_s": target,
                "violations": violations,
                "joined": int(joined[members].sum()),
                "deferred": int(deferred[members].sum()),
            }

        metrics = registry.snapshot()
        held = {}
        for f in fields(ServingReport):
            if "held" in f.metadata:
                table, metric, stat = f.metadata["held"]
                value = metrics[table].get(metric, 0)
                value = value[stat] if stat else value
                held[f.name] = int(value) if f.type == "int" else value
        num_batches = held["num_batches"]
        return ServingReport(
            **held,
            num_requests=n,
            pool_size=pool.num_devices,
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            makespan_s=span,
            throughput_rps=n / span if span > 0 else 0.0,
            avg_batch_size=n / num_batches if num_batches else 0.0,
            device_busy_s=[float(b) for b in pool.busy],
            device_utilization=utilization,
            patch_s=self.patch_s,
            mutation_evictions=self.mutation_evictions,
            halo_s=self.halo_s,
            goodput_rps=met_total / span if span > 0 else 0.0,
            active_devices=pool.num_active,
            class_breakdown=class_breakdown,
            autoscaler_events=[
                e.to_dict() for e in (self.autoscaler.events if self.autoscaler else ())
            ],
            metrics=metrics,
            phase_breakdown={
                phase: metrics["histograms"][f"serve.phase.{phase}_s"]
                for phase in phases
            },
            responses=answers,
        )
