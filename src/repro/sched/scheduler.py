"""The serve loop: one discrete-event scheduler on the virtual clock.

Every :meth:`Engine.serve <repro.engine.core.Engine.serve>` sweep runs
here, as continuous batching, and ends in the sweep's
:class:`~repro.serve.report.ServingReport`.  The loop merges the
arrival-sorted stream with a heap of timers (batch windows, compiles
finishing, completions, preemption checks at layer boundaries).  Each
inference arrival is looked up in the program cache (a miss's compile is
charged to the one host clock), then joins an execution of its
``batch_key`` in flight, or the forming micro-batch of its ``batch_key``
and SLO class, which closes when full or when the class's window expires
and waits, in priority order, for a device.  A finished execution answers
its requests as one entry of the sweep's
:class:`~repro.serve.request.ResponseColumns`.

**What a request costs.**  A template is a request's ``(model, dataset,
strategy, prune, scale, seed, shards, slo)``.  Its first request in a
sweep resolves it (binds a registered graph's live snapshot, checks shard
width and SLO class, keys its program and ``batch_key``) to its batch
key's slot, which holds that key's program and compile-ready time, its
execution in flight and its forming group per class; a mutation drops
every resolution.  Any later request costs one template lookup and one
call of :meth:`_admit <ContinuousScheduler._admit>`, the one admission
path of every sweep, traced, autoscaled or neither: no key is hashed
again, an unbounded class admits without a decision, and a program found
in the cache since the cache last changed is a hit, recorded as a touch.
The touches are counted and replayed into the cache, in last-touch order,
before the cache next changes (a compile or a mutation) and when the
sweep ends, so the cache's order, evictions and counters are those of one
counted ``get`` per request.  A traced sweep emits a request's
``enqueue`` and ``join`` instants when its execution answers it.

**Batch windows.**  A group closes once it holds ``max_batch_size``
requests, or once its oldest request has waited its class's window
(``max_wait_s`` by default).  The window is strict: a deadline *at* an
arrival's instant is still open, so ``max_wait_s=0`` coalesces
same-instant arrivals.

**Per-layer segments.**  An execution is an input-PCIe segment (0 s
where its devices already hold the program's inputs) plus one segment
per kernel layer; its layer boundaries are the chained sums of its
segments from its start.  It runs as spans from its start or a resume to
its finish or a pause, each booked on all its devices as one
:meth:`~repro.engine.pool.AcceleratorPool.book`: one device a segment per
layer; lanes, which meet at every barrier, for ``input + latency``.

**Join-in-flight.**  Requests sharing a ``batch_key`` are bit-identical
runs, so an arrival joins a compatible execution in flight at its next
layer boundary, at no added service time.  When an execution starts,
every queued group of its ``batch_key`` its SLO class does not outrank
*boards* it (forming, closed, or closed on a compile done by the start),
so a queued batch never finishes after a later arrival that joined the
run it could have boarded.  Only the founding group respects
``max_batch_size``.

**Priority + preemption.**  Closed groups dispatch in SLO-priority order,
and a strictly-higher-priority group may pause a one-device execution at
a layer boundary (:meth:`ContinuousScheduler._arm_preemption`); it
resumes when its device frees.  Wider executions are never paused (a
width-1 preemptor would strand their other members at a barrier).

**Admission + autoscaling.**  Arrivals pass the
:class:`~repro.sched.admission.AdmissionController` (shed/defer past
per-class queue bounds); arrivals and completions let the
:class:`~repro.sched.autoscaler.PoolAutoscaler` resize the active set.
A queued group's shard width is a floor on it, as a busy device is.

Accounting invariants: ``latency_s = queue_s + execute_s + barrier_s``
for every response; a joiner starts at its join boundary with
``barrier_s = 0``; a device's busy seconds are the chained sum of what it
was charged (its segments alone, or a lane's work plus its input share).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, fields
from typing import NamedTuple

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


@dataclass(eq=False, slots=True)
class _Program:
    """A program key's state in a sweep, shared by its batch keys' slots."""

    key: tuple
    #: the cache's entry, as found at the cache's ``epoch``-th change this
    #: sweep (-1: not since), and the compile seconds a hit on it saves
    program: object = None
    epoch: int = -1
    saved_s: float = 0.0
    #: when its compile (or patch) finishes this sweep: a hit waits for it
    ready_s: float = -math.inf


@dataclass(eq=False, slots=True)
class _Slot:
    """What one ``batch_key``'s requests share in a sweep, found without
    hashing a key: its program, its forming group of each SLO class (by
    the class's index in the policy) and its execution in flight."""

    prog: _Program
    forming: list
    inflight: _Execution | None = None


class _Template(NamedTuple):
    """One request template, resolved once per sweep."""

    req: InferenceRequest  # bound to the live snapshot of a registered graph
    cls: SLOClass
    slot: _Slot
    ci: int  # the class's index in the policy
    #: an unbounded class's admission counters (it admits every request
    #: without a decision); None: each request is decided
    admits: dict | None


_HIT = (0.0, True)  # the lookup of a cache hit: no compile seconds charged


@dataclass(eq=False, slots=True)
class _Group:
    """A micro-batch of one ``batch_key`` and SLO class: forming (while it
    is its slot's ``forming[ci]``), then closed and waiting for devices."""

    slot: _Slot
    slo: SLOClass
    ci: int
    #: arrival of the oldest request (when the group was opened)
    opened_s: float
    #: earliest time the batch may start (compile of its miss request done)
    ready_s: float
    #: the sweep's open order: 0 for its first batch
    batch_id: int
    shards: int  # devices the batch spans when it runs
    #: (request, deferred by admission, its lookup: compile seconds
    #: charged, cache hit) of each of its requests, in admission order
    rows: list[tuple] = field(default_factory=list)


def _rank(group: _Group) -> tuple:
    """Dispatch order: priority first, then open order (batch id)."""
    return (-group.slo.priority, group.batch_id)


#: an execution's states: running on its devices, paused at a layer
#: boundary by a preemption, done
RUNNING, PAUSED, DONE = "running", "paused", "done"


class _Execution:
    """One started execution: segments, devices, members, join state."""

    __slots__ = (
        "exec_id", "slot", "run", "founders", "joiners", "boarded",
        "segments", "intervals", "busy_s", "seg_idx", "span_s", "boundaries",
        "devices", "start_s", "priority", "state", "check", "preemptions",
    )

    def __init__(self, group: _Group, run, input_s: float, devices: list[int]):
        self.exec_id, self.slot, self.run = group.batch_id, group.slot, run
        self.priority = group.slo.priority
        #: the rows of the batch it was started for, answered from its start
        self.founders: list[tuple] = group.rows
        #: the member rows (request, join boundary, deferred, lookup, True)
        #: of the requests that joined or boarded it (boundary None: joined
        #: while it was paused, attached at the resume)
        self.joiners: list[tuple] = []
        self.boarded = 0  # how many joiners boarded it at its start
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
        self.preemptions = 0  # how many times it was paused

    @property
    def size(self) -> int:
        return len(self.founders) + len(self.joiners)


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
            raise ValueError(f"mutation_policy must be one of {MUTATION_POLICIES}, "
                             f"got {mutation_policy!r}")
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
        self.patch_s, self.halo_s, self.mutation_evictions = 0.0, 0.0, 0

        self._timers: list[tuple] = []
        self._seq = itertools.count()
        self._order = itertools.count()
        #: closed groups whose program is compiled, in dispatch order, and
        #: (keys, in closing order) those whose compile is still running
        self._ready: list[_Group] = []
        self._unready: dict[_Group, None] = {}
        #: requests in open or closed-but-undispatched groups
        self._waiting = 0
        #: deepest backlog (waiting + parked) seen after an arrival
        self._max_depth = 0
        #: parked (request, template) pairs
        self._deferred: deque[tuple] = deque()
        #: template -> its resolution, for the graph snapshots now live
        self._templates: dict[tuple, _Template] = {}
        #: batch key -> slot and program key -> state, kept across mutations
        self._slots: dict[tuple, _Slot] = {}
        self._programs: dict[tuple, _Program] = {}
        #: how often the cache changed this sweep (a compile or a mutation),
        #: and the programs hit since the last replay of their touches
        self._epoch = 0
        self._touched: list[_Program] = []
        self._assignment: list = [None] * self.pool.num_devices
        self._paused_stack: list[list] = [[] for _ in self._assignment]
        #: devices that own a running or paused execution (all active: a
        #: device that owns work is never parked)
        self._occupied_count = 0
        #: the one host CPU: compiles and mutation patches serialise on it
        self._host_free_s = 0.0

    # -- queue state ----------------------------------------------------
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
        pool, cache = self.pool, self.cache
        hits, misses = cache.hits, cache.misses
        compile_s, saved_s = cache.compile_s, cache.saved_s
        pool.reset()
        self.admission.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
            pool.set_active(min(self.autoscaler.min_devices, pool.num_devices), now=0.0)

        # a stable sort: mutations first on timestamp ties
        mutations = [r for r in requests if isinstance(r, MutationRequest)]
        if mutations:
            requests = mutations + [r for r in requests if not isinstance(r, MutationRequest)]
        arrival_s = operator.attrgetter("arrival_s")
        arrivals = sorted(requests, key=arrival_s)
        # one pass per stream: a NaN or infinite arrival makes the sum one
        if not math.isfinite(sum(map(arrival_s, arrivals))):
            raise ValueError("every request's arrival_s must be finite")
        try:
            self._drain(arrivals)
        finally:  # the recency per-request gets leave, a failed sweep's too
            self._replay_touches()
        if self._waiting or self._deferred:
            raise RuntimeError(f"the serve loop ran out of events with "
                               f"{self._waiting + len(self._deferred)} admitted "
                               f"request(s) undispatched")

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

    def _drain(self, arrivals: list) -> None:
        """Merge the sorted arrivals with the timers until both run out."""
        timers, ready, tracer, autoscaler = self._timers, self._ready, self.tracer, self.autoscaler
        admit, templates = self._admit, self._templates
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
                key = _TEMPLATE(event)
                if not isinstance(key[1], str):  # an inline graph is unhashable: by identity
                    key = (key[0], id(key[1]), *key[2:])
                admit(event, templates.get(key) or self._template(event, key), t)
            depth = self._waiting + len(self._deferred)
            if depth > self._max_depth:
                self._max_depth = depth
            if tracer.enabled:
                tracer.counter("serve", "queue_depth", t, depth)
            if autoscaler is not None or len(ready) != before:
                self._autoscale(t)
                self._schedule(t)
        if arrivals:
            self._end_of_stream(arrivals[-1].arrival_s)
        while timers:
            due_s, _, callback, payload = heapq.heappop(timers)
            callback(payload, due_s)

    # -- arrivals -------------------------------------------------------
    def _mutate(self, mutation: MutationRequest, now: float) -> None:
        """Apply one mutation at virtual time ``now``: the engine patches or
        evicts cached programs (the sweep's mutation policy), and each
        patch is booked on the host clock the compiles share."""
        self._replay_touches()
        outcome = self.engine.apply_delta(mutation.graph_id, mutation.delta,
                                          policy=self.mutation_policy)
        self._epoch += 1  # patched, re-keyed or evicted: look every program up again
        self._templates.clear()  # later requests bind to the new snapshot
        self._count("serve.mutations")
        self.mutation_evictions += outcome.evictions
        for event in outcome.patches:
            # the patch queues behind whatever the host is doing (an
            # in-flight compile of this very program included) and holds
            # the host while it runs
            start = max(now, self._host_free_s, self._program(event.old_key).ready_s)
            self._host_free_s = start + event.report.wall_s
            self._program(event.new_key).ready_s = self._host_free_s
            self._count("serve.patches" if event.report.patched else "serve.patch_fallbacks")
            self.patch_s += event.report.wall_s

    def _program(self, key: tuple) -> _Program:
        return self._programs.get(key) or self._programs.setdefault(key, _Program(key))

    def _template(self, req: InferenceRequest, key: tuple) -> _Template:
        """Resolve the template ``key`` of ``req``, its first request."""
        req = self.engine.resolve_request(req)
        check_shards(req, self.pool.num_devices, self._max_shards)
        cls, prog_key = self._class_of(req), req.program_key(self.config)
        pkey = req.batch_key(self.config, prog_key)
        slot = self._slots.get(pkey) or self._slots.setdefault(
            pkey, _Slot(self._program(prog_key), [None] * len(self.classes.classes)))
        admits = self.admission.counters[cls.name] if cls.max_queue_depth is None else None
        template = self._templates[key] = _Template(
            req, cls, slot, self.classes.classes.index(cls), admits)
        return template

    def _class_of(self, req: InferenceRequest) -> SLOClass:
        cls = self._class_named.get(req.slo)
        if cls is None:
            raise ValueError(
                f"request {req.request_id} carries SLO class {req.slo!r} "
                f"but the policy defines {self.classes.names}"
            )
        return cls

    def _admit(self, req: InferenceRequest, template: _Template, now: float,
               deferred: bool = False) -> None:
        """Join the request to its batch key's execution in flight, or admit
        it into its class's forming group.  Either way its program is looked
        up: one found in the cache since the cache last changed is a hit, its
        touch kept for :meth:`_replay_touches`; any other is looked up in the
        cache again, and compiled into it on a miss."""
        # join-in-flight first: a join consumes no capacity, so it is
        # exempt from admission bounds (shedding a joinable request would
        # refuse work already paid for).  It joins at the first layer
        # boundary from now, or a paused execution's resume (None); none is
        # left past the start of the final segment (joining *at* the finish
        # would share a result without ever being part of the execution)
        slot = template.slot
        exec_, prog, at = slot.inflight, slot.prog, False
        if exec_ is not None and exec_.state is PAUSED:
            at = None
        elif exec_ is not None and (bounds := exec_.boundaries) and now <= bounds[-1]:
            at = bounds[bisect_left(bounds, now)]
        if at is False and not deferred and template.admits is not None:  # unbounded class
            template.admits["admit"] += 1
        elif at is False and not deferred:
            decision = self.admission.decide(template.cls, self._waiting + len(self._deferred))
            if decision.action != "admit":
                if decision.action == "defer":
                    self._deferred.append((req, template))
                self._count("serve.sched.shed" if decision.action == "shed"
                            else "serve.sched.deferred")
                if self.tracer.enabled:
                    self.tracer.instant("sched", f"req{req.request_id}/{decision.action}", now,
                                        cat=decision.action, slo=req.slo, reason=decision.reason)
                return

        lookup = _HIT
        if prog.epoch != self._epoch:
            program = self.cache.peek(prog.key)
            if program is None:  # a miss: the compile queues behind the host's work
                self._replay_touches()  # the compile's put evicts the least recent
                program, compile_s, _ = self.cache.get_or_compile(
                    prog.key, lambda: self.engine.compile_request(template.req))
                self._epoch += 1  # the put may have evicted another program
                lookup, compile_start = (compile_s, False), max(now, self._host_free_s)
                self._host_free_s = prog.ready_s = compile_start + compile_s
                if self.tracer.enabled:
                    self.tracer.span("host/compile", f"compile {req.model}/{req.dataset_name}",
                                     compile_start, self._host_free_s, cat="compile")
            prog.program, prog.saved_s, prog.epoch = program, program.timings.total_s, self._epoch
        if lookup is _HIT:
            self._touched.append(prog)
        if deferred and self.tracer.enabled:  # re-admitted: its instants are now
            self._trace_admission(req, now, lookup, exec_ if at is not False else None)
        if at is not False:
            exec_.joiners.append((req, at, deferred, lookup, True))
            return

        # into the forming group of its batch key and class
        self._waiting += 1
        group = slot.forming[template.ci]
        if group is None:
            cls = template.cls
            wait = cls.max_wait_s if cls.max_wait_s is not None else self.max_wait_s
            group = slot.forming[template.ci] = _Group(
                slot, cls, template.ci, opened_s=now, ready_s=now, batch_id=next(self._order),
                shards=req.shards)
            self._after(now + wait, self._window_expired, group)
            if req.shards > self.pool.num_active:
                # a queued batch's width is a floor on the active set: it
                # grows now, because no later event need come to grow it
                self._resize(req.shards, now, f"queued batch spans {req.shards} devices")
        group.rows.append((req, deferred, lookup))
        if prog.ready_s > group.ready_s:  # it starts past now anyway: only a compile counts
            group.ready_s = prog.ready_s
        if len(group.rows) >= self.max_batch_size:
            self._close_group(group, now)

    def _trace_admission(self, req: InferenceRequest, t: float, lookup: tuple,
                         joined: _Execution | None) -> None:
        """A request's enqueue instant, and its join of ``joined`` in flight."""
        self.tracer.instant("serve", f"req{req.request_id}/enqueue", t, cat="enqueue",
                            model=str(req.model), cache="hit" if lookup[1] else "miss",
                            shards=req.shards)
        if joined is not None:
            self.tracer.instant("sched", f"req{req.request_id}/join", t, cat="join",
                                exec_id=joined.exec_id, slo=req.slo)

    def _replay_touches(self) -> None:
        """Count the hits since the last replay, and move their programs to
        the cache's most recent end in the order of their last hits: the
        counters, bit for bit, and the order per-request gets would have
        left (a hit's ``saved_s`` is fixed until the cache next changes)."""
        touched, cache = self._touched, self.cache
        cache.hits += len(touched)
        cache.saved_s = functools.reduce(operator.add, map(operator.attrgetter("saved_s"), touched),
                                         cache.saved_s)
        last = dict.fromkeys(reversed(touched))
        cache.touch([prog.key for prog in reversed(last)])
        touched.clear()

    # -- batch windows --------------------------------------------------
    def _window_expired(self, group: _Group, now: float) -> None:
        if group.slot.forming[group.ci] is group:
            self._close_group(group, now)
            self._schedule(now)

    def _close_group(self, group: _Group, now: float) -> None:
        group.slot.forming[group.ci] = None
        if self.tracer.enabled:
            # the batch-formation window: first member's admission to
            # the size trigger or window expiry that closed the batch
            self.tracer.span("serve", f"batch{group.batch_id}/form", group.opened_s, now,
                             cat="batch", size=len(group.rows), key=str(group.rows[0][0].model),
                             slo=group.slo.name)
        if group.ready_s <= now:
            insort(self._ready, group, key=_rank)
        else:
            # compile still running: becomes schedulable at ready_s
            self._unready[group] = None
            self._after(group.ready_s, self._group_ready, group)

    def _group_ready(self, group: _Group, now: float) -> None:
        if group in self._unready:  # else it boarded an execution of its program
            del self._unready[group]
            insort(self._ready, group, key=_rank)
            self._schedule(now)

    def _forming(self) -> list[_Group]:
        """The open groups, in open order."""
        return sorted((g for slot in self._slots.values() for g in slot.forming
                       if g is not None), key=operator.attrgetter("batch_id"))

    def _end_of_stream(self, t: float) -> None:
        """No further arrivals can join: flush the parking lot and close
        the open groups now instead of idling out their windows (which
        would floor the makespan and understate throughput)."""
        while self._deferred:
            self._admit(*self._deferred.popleft(), t, deferred=True)
        for group in self._forming():
            self._close_group(group, t)
        self._schedule(t)

    # -- dispatch -------------------------------------------------------
    def _prepare(self, group: _Group, ready_s: float):
        """Replay (or simulate, the first time) the group's execution
        through the engine's one door and count it; returns the run.  K2P
        analysis and any PCIe input transfer are paid once per execution."""
        first = group.rows[0][0]
        run = self.engine.execute(group.slot.prog.program, first.strategy, first.shards,
                                  ready_s=ready_s)
        self._count("serve.batches")
        if run.num_shards > 1:
            self._count("serve.sharded_batches")
            self._count("serve.sharded_requests", len(group.rows))
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
        slot = group.slot
        transfer_s = pcie_transfer_seconds(slot.prog.program.input_bytes(), self.config)
        slices = {(d, slot.prog.key, len(devices), i) for i, d in enumerate(devices)}
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
        run, start = exec_.run, exec_.start_s
        rows = [(r, start, deferred, lookup, False) for r, deferred, lookup in exec_.founders]
        rows += exec_.joiners
        self._count("serve.sched.joined", len(exec_.joiners))
        if run.num_shards > 1:
            self._count("serve.sharded_requests", len(exec_.joiners))
        self.answers.add(rows, t, exec_.exec_id, exec_.devices[0], run.num_shards,
                         run.barrier_s, run.total_cycles,
                         run.served_output() if self.return_outputs else None)
        if self.tracer.enabled:
            joined_from = len(exec_.founders) + exec_.boarded
            for i, (req, start, deferred, lookup, joined) in enumerate(rows):
                if not deferred:  # a re-admission traced its instants when it was made
                    self._trace_admission(req, req.arrival_s, lookup,
                                          exec_ if i >= joined_from else None)
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
        self._waiting -= len(group.rows)
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
        group.slot.inflight = exec_
        if self.tracer.enabled:
            self.tracer.instant("sched", f"exec{exec_.exec_id}/start", exec_.start_s,
                                cat="dispatch", size=len(group.rows), slo=group.slo.name,
                                shards=shards, devices=str(chosen))
        # the backlog of its key boards it: any group its class does not
        # outrank, open or closed, whose program is ready by the start
        start, slot = exec_.start_s, group.slot
        boarding = sorted((g for g in itertools.chain(slot.forming, self._ready, self._unready)
                           if g is not None and g.slot is slot
                           and g.slo.priority <= exec_.priority and g.ready_s <= start),
                          key=_rank)
        for g in boarding:
            if slot.forming[g.ci] is g:
                slot.forming[g.ci] = None  # its window timer finds it gone
            elif g in self._unready:
                del self._unready[g]  # and its ready timer
            else:
                self._ready.remove(g)  # by identity: the rest keep their order
            self._waiting -= len(g.rows)
            exec_.joiners += [(r, start, deferred, lookup, True) for r, deferred, lookup in g.rows]
            if self.tracer.enabled:
                self.tracer.instant("sched", f"exec{exec_.exec_id}/board", start, cat="join",
                                    batch_id=g.batch_id, size=len(g.rows), slo=g.slo.name)
        exec_.boarded = len(exec_.joiners)

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
        # in dispatch order, nothing behind a group it does not outrank
        # ranks higher; sharded groups wait for a full idle set
        preemptor = next((i for i, g in enumerate(self._ready)
                          if g.slo.priority <= exec_.priority or g.shards == 1), None)
        if preemptor is None or self._ready[preemptor].slo.priority <= exec_.priority:
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
        if exec_.slot.inflight is exec_:
            exec_.slot.inflight = None
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
                resumed = self._assignment[dev] = self._paused_stack[dev].pop()
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
            now, active=active, queue_depth=self._waiting + len(self._deferred),
            busy_devices=self._occupied_count, pool_devices=self.pool.num_devices)
        if proposal is None:
            return
        target, reason = proposal
        if target < active:
            # never park a device that owns work — drain first — nor one
            # a queued batch needs to start at all
            queued = itertools.chain(self._forming(), self._unready, self._ready)
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
                               queue_depth=self._waiting + len(self._deferred),
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
        for i, name in enumerate(columns["slo_names"]):
            members = slo == i
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
            autoscaler_events=[e.to_dict() for e in (self.autoscaler.events
                                                     if self.autoscaler else ())],
            metrics=metrics,
            phase_breakdown={phase: metrics["histograms"][f"serve.phase.{phase}_s"]
                             for phase in phases},
            responses=answers,
        )
