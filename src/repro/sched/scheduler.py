"""The serve loop: one discrete-event scheduler on the virtual clock.

Every ``InferenceServer.serve`` sweep runs here.  The loop merges the
arrival-sorted request stream with a small heap of timers (batch
windows, compiles finishing, layer boundaries, completions) and, for
each inference arrival, does the same things in the same order whatever
the dispatch policy: resolve the graph, validate, look the program up in
the cache (charging a miss's compile to the one host clock), and add the
request to the forming micro-batch of its ``batch_key``.  A batch closes
when it fills or when its window expires.

What happens to a closed batch, and which class a request is scheduled
as, is the :class:`~repro.serve.batcher.DispatchPolicy` named by
``InferenceServer(scheduler=...)``.  ``"legacy"`` schedules everything as
one class and books each closed batch ahead and whole, so nothing below
ever comes into play.  ``"continuous"`` keeps closed batches in a ready
queue and books them layer by layer, which is what the rest of this
module is about:

**Per-layer segments.**  Every distinct (program, strategy, shards)
execution decomposes into an input-PCIe segment (0 s where its devices
already hold the program's inputs) plus one segment per
kernel layer (unsharded: kernel cycles + exposed analysis; sharded: the
per-layer barrier intervals ``ShardedRuntime`` exposes).  The scheduler
books an execution segment-by-segment
(:meth:`~repro.engine.pool.AcceleratorPool.submit_on`), which turns
layer boundaries into scheduling points.

**Join-in-flight.**  Requests sharing a ``batch_key`` are bit-identical
runs, so a request arriving while a compatible execution is in flight
*joins* it at the next layer boundary and shares its result — zero added
service time.  This is what keeps goodput up under overload: booking
ahead caps sharing at ``max_batch_size`` per batch and re-executes every
subsequent batch, while joins let the backlog ride one booking.  (The
founding group still respects ``max_batch_size``; joins are free riders
on an already-paid booking.)

**Priority + preemption.**  Closed groups dispatch in SLO-priority
order, and a strictly-higher-priority group may preempt an unsharded
execution at a layer boundary: the running execution pauses (its
remaining segments stay with its device), the interactive batch runs,
and the paused work resumes when the device frees.  Sharded executions
are barrier-locked groups and are never preempted (they are still
joinable).

**Admission + autoscaling.**  Every arrival passes the
:class:`~repro.sched.admission.AdmissionController` (shed/defer past
per-class queue bounds); every arrival/completion lets the
:class:`~repro.sched.autoscaler.PoolAutoscaler` resize the pool's
active set with hysteresis.  A queued group's shard width is a floor on
the active set, as a device that owns work is.

Accounting invariants, under both policies: for every response,
``latency_s = queue_s + execute_s + barrier_s``; a joiner's ``start_s``
is its join boundary (queue time ends when its execution window begins)
with ``barrier_s = 0``.  An un-preempted, un-joined execution books
exactly the device seconds the same batch booked whole would.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field

from repro.hw.memory import pcie_transfer_seconds
from repro.obs.metrics import MetricsRegistry
from repro.sched.admission import AdmissionController
from repro.sched.autoscaler import PoolAutoscaler
from repro.sched.slo import SLOClass, SLOPolicy
from repro.serve.batcher import POLICIES, MicroBatch
from repro.serve.request import (
    InferenceRequest,
    InferenceResponse,
    MutationRequest,
)

__all__ = ["ContinuousScheduler"]

#: what every request is scheduled as under a one-class dispatch policy:
#: no priority to order by, no queue bound to shed at, the server's window
_ONE_CLASS = SLOPolicy((SLOClass(name="all", priority=0),))


@dataclass
class _Member:
    """One request riding an execution."""

    req: InferenceRequest
    #: when the request's execution window began: the execution start
    #: for founders, the join boundary for joiners (None until a join
    #: into a paused execution resolves at resume)
    attach_s: float | None
    joined: bool = False
    deferred: bool = False


@dataclass
class _Group:
    """A forming micro-batch plus its SLO class and window deadline."""

    batch: MicroBatch
    slo: SLOClass
    deadline: float
    #: devices the batch spans when it runs
    shards: int
    deferred_ids: set = field(default_factory=set)

    @property
    def key(self) -> tuple:
        """What the group is filed under while it is open."""
        return (self.batch.key, self.slo.name)

    @property
    def rank(self) -> tuple:
        """Dispatch order: priority first, then open order (batch id)."""
        return (-self.slo.priority, self.batch.batch_id)


_RANK = operator.attrgetter("rank")


class _Execution:
    """One booked execution: segments, devices, members, join state."""

    __slots__ = (
        "exec_id", "key", "run", "members", "pending_joins", "segments",
        "seg_idx", "seg_end_s", "devices", "start_s", "finish_s",
        "priority", "paused", "atomic", "boundaries", "preemptions",
    )

    def __init__(self, exec_id, key, run, segments, priority):
        self.exec_id = exec_id
        self.key = key
        self.run = run
        self.members: list[_Member] = []
        self.pending_joins: list[_Member] = []
        #: segment 0 is the input-PCIe transfer (0 s if resident), then
        #: one per layer
        self.segments: list[float] = segments
        self.seg_idx = 0
        self.seg_end_s = 0.0
        self.devices: list[int] = []
        self.start_s = 0.0
        self.finish_s: float | None = None
        self.priority = priority
        self.paused = False
        #: sharded executions book atomically (barrier-locked group):
        #: joinable via precomputed boundaries, never preempted
        self.atomic = False
        self.boundaries: list[float] = []
        self.preemptions = 0

    def joinable(self, now: float) -> bool:
        """Is there still a layer boundary this execution can admit at?

        The last admission point is the start of the final segment —
        joining *at* the finish would be result-sharing without ever
        being part of the execution.
        """
        if self.finish_s is not None:
            return False
        if self.atomic:
            return bool(self.boundaries) and now <= self.boundaries[-1]
        if self.paused:
            # the resume instant is a boundary; attach resolves then
            return True
        return self.seg_idx < len(self.segments) - 1

    def attach_time(self, now: float) -> float | None:
        """Join boundary for an arrival at ``now`` (None = at resume)."""
        if self.atomic:
            return self.boundaries[bisect_left(self.boundaries, now)]
        if self.paused:
            return None
        return self.seg_end_s


class ContinuousScheduler:
    """The serve loop over one ``InferenceServer``, for one sweep.

    The server constructs one per
    :meth:`~repro.serve.server.InferenceServer.serve` call, so all state
    here is sweep-local (the server's admission controller and autoscaler
    may be caller-owned and are reset at the start of :meth:`run`).  The
    knobs are the server's: its ``scheduler`` is the dispatch policy, its
    ``slo_policy`` what responses are graded against and, under a
    dispatch policy that acts on classes, scheduled by.
    """

    def __init__(self, server) -> None:
        self.server = server
        #: the engine's resources, bound once for the sweep
        self.engine = engine = server.engine
        self.pool, self.cache = engine.pool, engine.cache
        self.config, self.tracer = engine.config, engine.tracer
        self.dispatch = POLICIES[server.scheduler]
        self.slo_policy = policy = server.slo_policy
        admission = server.admission
        #: the classes requests are scheduled as
        self.classes = (_ONE_CLASS if self.dispatch.one_class
                        else policy if policy is not None else SLOPolicy.default())
        self.admission = (admission if admission is not None
                          else AdmissionController(self.classes))
        self.autoscaler: PoolAutoscaler | None = server.autoscaler

        #: the sweep's counters; ``ServingReport`` is built from these
        self.metrics = MetricsRegistry()
        for name in ("batches", "mutations", "patches", "patch_fallbacks",
                     "sharded_batches", "sharded_requests", "halo_bytes",
                     "pcie_transfers", "pcie_s", "pcie_saved_s"):
            self.metrics.counter(f"serve.{name}")  # reported even at zero
        self.metrics.gauge("serve.max_shard_width")
        self.responses: list[InferenceResponse] = []
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
        #: book-ahead only: (ready time, close order, group)
        self._booked: list[tuple[float, int, _Group]] = []
        #: requests in open or closed-but-undispatched groups
        self._waiting = 0
        #: deepest backlog (waiting + parked) seen after an arrival
        self._max_depth = 0
        self._deferred: deque[InferenceRequest] = deque()
        self._inflight: dict[tuple, _Execution] = {}
        self._assignment: list = [None] * self.pool.num_devices
        self._paused_stack: list[list] = [[] for _ in self._assignment]
        self._programs: dict[tuple, object] = {}
        #: request id -> (compile seconds charged, cache hit)
        self._lookups: dict[int, tuple[float, bool]] = {}
        #: virtual time each program's compile (or patch) finishes this
        #: sweep — a cache hit on a program whose miss is still compiling
        #: must wait for it (compiles from previous sweeps are long done)
        self._program_ready: dict[tuple, float] = {}
        #: the host CPU is one resource: compiles and mutation patches
        #: serialise against each other on the virtual clock
        self._host_free_s = 0.0

    # -- queue state ----------------------------------------------------
    def _queue_depth(self) -> int:
        """The admission-facing backlog: waiting + parked (deferred)."""
        return self._waiting + len(self._deferred)

    def _occupied(self, device: int) -> bool:
        """Does the device own a running or paused execution?"""
        return self._assignment[device] is not None or bool(self._paused_stack[device])

    def _idle_active(self) -> list[int]:
        return [d for d in range(self.pool.num_active) if not self._occupied(d)]

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
            initial = min(self.autoscaler.min_devices, pool.num_devices)
            pool.set_active(initial, now=0.0)

        timers = self._timers
        arrivals = sorted(
            requests,
            key=lambda r: (r.arrival_s, isinstance(r, InferenceRequest)),
        )
        for event in arrivals:
            t = event.arrival_s
            # strictly earlier timers only: a window ending at this very
            # instant stays open for a same-instant arrival to join
            while timers and timers[0][0] < t:
                due_s, _, callback, payload = heapq.heappop(timers)
                callback(payload, due_s)
            if isinstance(event, MutationRequest):
                self._mutate(event, t)
            else:
                req = self.engine.resolve_request(event)
                self.server._check_shards(req)
                self._admit(req, t, deferred=False)
            depth = self._queue_depth()
            if depth > self._max_depth:
                self._max_depth = depth
            if tracer.enabled:
                tracer.counter("serve", "queue_depth", t, depth)
            self._autoscale(t)
            self._schedule(t)
        if arrivals:
            self._end_of_stream(arrivals[-1].arrival_s)
        while timers:
            due_s, _, callback, payload = heapq.heappop(timers)
            callback(payload, due_s)
        for ready_s, _, group in sorted(self._booked, key=lambda b: b[:2]):
            self._book_whole(group, ready_s)
        if self._queue_depth():
            raise RuntimeError(
                f"the serve loop ran out of events with "
                f"{self._queue_depth()} admitted request(s) undispatched"
            )

        self._count("serve.cache_hits", cache.hits - hits)
        self._count("serve.cache_misses", cache.misses - misses)
        self._count("serve.compile_s", cache.compile_s - compile_s)
        self._count("serve.compile_saved_s", cache.saved_s - saved_s)
        if not self.dispatch.book_ahead:
            self._account_in_flight()
        return self.server._report(self)

    # -- arrivals -------------------------------------------------------
    def _mutate(self, mutation: MutationRequest, now: float) -> None:
        """Apply one mutation at virtual time ``now`` and charge its cost.

        The cache reconciliation itself (patch or evict, per the server's
        mutation policy) is the engine's job; here the work is booked on
        the sweep's host clock: patches and compiles share one host, so
        they serialise against each other on the virtual timeline.
        """
        outcome = self.engine.apply_delta(
            mutation.graph_id, mutation.delta,
            policy=self.server.mutation_policy,
        )
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

    def _class_of(self, req: InferenceRequest) -> SLOClass:
        if self.dispatch.one_class:
            return self.classes.classes[0]
        try:
            return self.classes.get(req.slo)
        except KeyError as exc:
            raise ValueError(
                f"request {req.request_id} carries SLO class {req.slo!r} "
                f"but the policy defines {self.classes.names}"
            ) from exc

    def _admit(self, req: InferenceRequest, now: float, *, deferred: bool) -> None:
        cls = self._class_of(req)
        prog_key = req.program_key(self.config)
        pkey = req.batch_key(self.config, prog_key)

        # join-in-flight first: a join consumes no capacity, so it is
        # exempt from admission bounds — shedding a joinable request
        # would refuse work that is already paid for
        exec_ = self._inflight.get(pkey)
        if exec_ is not None and exec_.joinable(now):
            self._lookup(req, prog_key, pkey, now)
            member = _Member(
                req, exec_.attach_time(now), joined=True, deferred=deferred
            )
            exec_.members.append(member)
            if member.attach_s is None:
                exec_.pending_joins.append(member)
            self._count("serve.sched.joined")
            if self.tracer.enabled:
                self.tracer.instant(
                    "sched", f"req{req.request_id}/join", now,
                    cat="join", exec_id=exec_.exec_id, slo=req.slo,
                )
            return

        if not deferred:
            decision = self.admission.decide(cls, self._queue_depth())
            if decision.action != "admit":
                if decision.action == "defer":
                    self._deferred.append(req)
                self._count(
                    "serve.sched.shed" if decision.action == "shed"
                    else "serve.sched.deferred"
                )
                if self.tracer.enabled:
                    self.tracer.instant(
                        "sched", f"req{req.request_id}/{decision.action}",
                        now, cat=decision.action, slo=req.slo,
                        reason=decision.reason,
                    )
                return

        ready_s = self._lookup(req, prog_key, pkey, now)
        self._group_add(req, cls, pkey, ready_s, now, deferred=deferred)

    def _lookup(self, req: InferenceRequest, prog_key: tuple, pkey: tuple, now: float) -> float:
        """Program-cache lookup + host-clock compile charge; returns the
        virtual time the request's program is ready to run."""
        program, compile_s, hit = self.cache.get_or_compile(
            prog_key, lambda: self.engine.compile_request(req)
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "serve", f"req{req.request_id}/enqueue", now,
                cat="enqueue", model=str(req.model),
                cache="hit" if hit else "miss", shards=req.shards,
            )
        if not hit:
            # the compile queues behind the host's in-flight work
            compile_start = max(now, self._host_free_s)
            self._host_free_s = compile_start + compile_s
            self._program_ready[prog_key] = self._host_free_s
            if self.tracer.enabled:
                self.tracer.span(
                    "host/compile",
                    f"compile {req.model}/{req.dataset_name}",
                    compile_start, self._host_free_s, cat="compile",
                )
        self._programs[pkey] = program
        self._lookups[req.request_id] = (compile_s, hit)
        return max(now, self._program_ready.get(prog_key, now))

    # -- batch windows --------------------------------------------------
    def _group_add(self, req: InferenceRequest, cls: SLOClass, pkey: tuple, ready_s: float,
                   now: float, *, deferred: bool) -> None:
        gkey = (pkey, cls.name)
        group = self._groups.get(gkey)
        opened = group is None
        if opened:
            wait = cls.max_wait_s if cls.max_wait_s is not None else self.server.max_wait_s
            batch = MicroBatch(key=pkey, requests=[], opened_s=now, ready_s=now,
                               batch_id=next(self._order))
            group = self._groups[gkey] = _Group(batch, cls, deadline=now + wait,
                                                shards=req.shards)
            self._after(group.deadline, self._window_expired, group)
        batch = group.batch
        batch.requests.append(req)
        if ready_s > batch.ready_s:
            batch.ready_s = ready_s
        if deferred:
            group.deferred_ids.add(req.request_id)
        self._waiting += 1
        if opened and req.shards > self.pool.num_active:
            # a queued batch's width is a floor on the active set: it
            # grows now, because no later event need come to grow it
            self._resize(req.shards, now, f"queued batch spans {req.shards} devices")
        if len(batch.requests) >= self.server.max_batch_size:
            self._close_group(group, now)

    def _window_expired(self, group: _Group, now: float) -> None:
        if self._groups.get(group.key) is group:
            self._close_group(group, now)
            self._schedule(now)

    def _close_group(self, group: _Group, now: float) -> None:
        batch = group.batch
        del self._groups[group.key]
        if self.tracer.enabled:
            # the batch-formation window: first member's admission to
            # the size trigger or window expiry that closed the batch
            self.tracer.span(
                "serve", f"batch{batch.batch_id}/form",
                batch.opened_s, now, cat="batch", size=batch.size,
                key=str(batch.requests[0].model), slo=group.slo.name,
            )
        if self.dispatch.book_ahead:
            # booked once the stream has been read, in ready order, so a
            # batch stuck waiting on a compile never blocks an idle
            # device from taking later-closed but earlier-ready work
            self._waiting -= batch.size
            self._booked.append((max(batch.ready_s, now), len(self._booked), group))
        elif batch.ready_s <= now:
            insort(self._ready, group, key=_RANK)
        else:
            # compile still running: becomes schedulable at ready_s
            self._unready.append(group)
            self._after(batch.ready_s, self._group_ready, group)

    def _group_ready(self, group: _Group, now: float) -> None:
        self._unready.remove(group)
        insort(self._ready, group, key=_RANK)
        self._schedule(now)

    def _end_of_stream(self, t: float) -> None:
        """No further arrivals can join: flush the parking lot and close
        the open groups now instead of idling out their windows (which
        would floor the makespan and understate throughput)."""
        while self._deferred:
            self._admit(self._deferred.popleft(), t, deferred=True)
        for group in list(self._groups.values()):
            self._close_group(group, t)
        self._schedule(t)

    # -- dispatch -------------------------------------------------------
    def _prepare(self, batch: MicroBatch, ready_s: float):
        """Replay (or simulate, the first time) the batch's execution
        through the engine's one door and count it; returns the run.  K2P
        analysis (inside ``latency_s``) and any PCIe input transfer
        (:meth:`_input_s`) are paid once for the whole batch: the
        amortization micro-batching buys."""
        first = batch.requests[0]
        run = self.engine.execute(self._programs[batch.key], first.strategy, first.shards,
                                  ready_s=ready_s)
        self._count("serve.batches")
        if run.num_shards > 1:
            self._count("serve.sharded_batches")
            self._count("serve.sharded_requests", batch.size)
            self._count("serve.halo_bytes", run.halo_bytes)
            self.halo_s += run.halo_s
            width = self.metrics.gauge("serve.max_shard_width")
            width.set(max(width.value, run.num_shards))
        return run

    def _input_s(self, batch: MicroBatch, devices: list[int]) -> float:
        """PCIe seconds the batch pays to send its program's inputs to
        ``devices`` (slice ``i`` to ``devices[i]``): none when each holds
        its slice already (sent earlier this sweep, never evicted), else
        the whole transfer, after which each does."""
        transfer_s = pcie_transfer_seconds(self._programs[batch.key].input_bytes(), self.config)
        # the batch key is the program key + (strategy, shards)
        slices = {(d, batch.key[:-2], len(devices), i) for i, d in enumerate(devices)}
        sent = slices - self._resident
        if not sent:
            self._count("serve.pcie_saved_s", transfer_s)
            return 0.0
        self._resident |= sent
        self._count("serve.pcie_transfers", len(sent))
        self._count("serve.pcie_s", transfer_s)
        return transfer_s

    def _respond(
        self, req: InferenceRequest, batch_id: int, batch_size: int,
        device: int, run, start_s: float, finish_s: float,
        service_s: float, barrier_s: float,
        joined: bool = False, deferred: bool = False,
    ) -> None:
        # strict: a request the loop never looked up is an admission
        # bug — raising beats silently reporting it as a cache hit
        # (inflated hit rates)
        compile_s, hit = self._lookups[req.request_id]
        self.responses.append(InferenceResponse(
            request_id=req.request_id, model=req.model, dataset=req.dataset_name,
            strategy=req.strategy, arrival_s=req.arrival_s, compile_s=compile_s,
            start_s=start_s, finish_s=finish_s, service_s=service_s, cache_hit=hit,
            batch_id=batch_id, batch_size=batch_size, device=device,
            shards=run.num_shards, barrier_s=barrier_s, accel_cycles=run.total_cycles,
            output=run.served_output() if self.server.return_outputs else None,
            slo=req.slo, joined=joined, deferred=deferred,
        ))

    def _book_whole(self, group: _Group, ready_s: float) -> None:
        """Book-ahead dispatch: one reservation for the whole execution."""
        batch, pool = group.batch, self.pool
        run = self._prepare(batch, ready_s)
        shards = run.num_shards
        # the device(s) submit / submit_group pick, seen before booking
        devices = (pool.peek_group(shards, ready_s)[0] if shards > 1
                   else [pool.peek_device(ready_s)])
        input_s = self._input_s(batch, devices)
        service_s = input_s + run.latency_s
        if shards > 1:
            # a sharded batch occupies all of its shard devices from the
            # common start to the last per-layer barrier; per-device busy
            # stays honest (each shard's own work + its input-PCIe share)
            busy = [b + input_s / shards for b in run.shard_busy_s]
            _, start, end = pool.submit_group(
                service_s, shards, ready_s, busy_s=busy,
                batch_id=batch.batch_id, batch_size=batch.size,
            )
        else:
            start, end = pool.submit_on(
                devices[0], service_s, ready_s, batch_id=batch.batch_id,
                batch_size=batch.size,
            )
        for req in batch.requests:
            self._respond(
                req, batch.batch_id, batch.size, devices[0], run,
                start, end, service_s, run.barrier_s,
            )

    def _schedule(self, t: float) -> None:
        """Start as many ready groups as idle active devices allow.

        Priority order with backfill: a sharded group that cannot get
        its full device set does not block a narrower group behind it.
        """
        while self._ready:
            idle = self._idle_active()
            if not idle:
                return
            fits = next((i for i, g in enumerate(self._ready) if g.shards <= len(idle)), None)
            if fits is None:
                return
            self._start_execution(self._ready.pop(fits), t, idle)

    def _start_execution(self, group: _Group, t: float, idle: list[int]) -> None:
        pool, batch = self.pool, group.batch
        self._waiting -= batch.size
        ready_s = max(batch.ready_s, t)
        run = self._prepare(batch, ready_s)
        shards = run.num_shards
        # the earliest-available idle device(s), lowest-numbered on ties
        by_idle = sorted(idle, key=lambda d: (pool.available[d], d))
        chosen = sorted(by_idle[:shards])
        input_s = self._input_s(batch, chosen)
        exec_ = _Execution(
            exec_id=batch.batch_id,
            key=batch.key,
            run=run,
            segments=[input_s, *map(float, run.segments_s)],
            priority=group.slo.priority,
        )
        exec_.members = [_Member(r, None, deferred=r.request_id in group.deferred_ids)
                         for r in batch.requests]
        exec_.devices = chosen
        if shards > 1:
            # barrier-locked group: one atomic booking per member device,
            # all held from the common start to the last barrier (the
            # busy accounting of a whole submit_group booking)
            start = max(ready_s, max(float(pool.available[d]) for d in chosen))
            service_s = input_s + run.latency_s
            for i, d in enumerate(chosen):
                pool.submit_on(
                    d, service_s, start,
                    busy_s=run.shard_busy_s[i] + input_s / shards,
                    batch_id=exec_.exec_id, batch_size=batch.size,
                    label=f"batch{exec_.exec_id}/shard{i}",
                )
                self._assignment[d] = exec_
            exec_.atomic = True
            exec_.start_s = start
            # admission points: every segment start; the last one (start
            # of the final barrier interval) is the last join point
            exec_.boundaries = list(
                itertools.accumulate(exec_.segments[:-1], initial=start)
            )
            self._after(start + service_s, self._finish, exec_)
        else:
            dev = chosen[0]
            start, end = pool.submit_on(
                dev, input_s, ready_s,
                batch_id=exec_.exec_id, batch_size=batch.size,
                label=f"batch{exec_.exec_id}/seg0",
            )
            self._assignment[dev] = exec_
            exec_.start_s = start
            exec_.seg_end_s = end
            self._after(end, self._on_segment_end, exec_)
        self._inflight[batch.key] = exec_
        if self.tracer.enabled:
            self.tracer.instant(
                "sched", f"exec{exec_.exec_id}/start", exec_.start_s,
                cat="dispatch", size=batch.size, slo=group.slo.name,
                shards=shards, devices=str(chosen),
            )

    # -- layer boundaries ------------------------------------------------
    def _on_segment_end(self, exec_: _Execution, t: float) -> None:
        if exec_.paused:
            return  # stale event from before a pause
        exec_.seg_idx += 1
        if exec_.seg_idx >= len(exec_.segments):
            self._finish(exec_, t)
            return
        dev = exec_.devices[0]
        if self._try_preempt(exec_, dev, t):
            return
        self._book_next_segment(exec_, dev, t)

    def _book_next_segment(
        self, exec_: _Execution, dev: int, t: float
    ) -> None:
        seg = exec_.segments[exec_.seg_idx]
        start, end = self.pool.submit_on(
            dev, seg, t,
            batch_id=exec_.exec_id, batch_size=len(exec_.members),
            label=f"batch{exec_.exec_id}/seg{exec_.seg_idx}",
        )
        exec_.seg_end_s = end
        for member in exec_.pending_joins:
            member.attach_s = start
        exec_.pending_joins.clear()
        self._after(end, self._on_segment_end, exec_)

    def _try_preempt(self, exec_: _Execution, dev: int, t: float) -> bool:
        """Pause ``exec_`` for a strictly-higher-priority ready group."""
        preemptor = None
        for i, g in enumerate(self._ready):
            if g.slo.priority <= exec_.priority:
                break  # dispatch order: nothing behind ranks higher
            if g.shards == 1:  # sharded groups wait for a full idle set
                preemptor = i
                break
        if preemptor is None:
            return False
        group = self._ready.pop(preemptor)
        exec_.paused = True
        exec_.preemptions += 1
        self._count("serve.sched.preemptions")
        self._paused_stack[dev].append(exec_)
        self._assignment[dev] = None
        if self.tracer.enabled:
            self.tracer.instant(
                "sched", f"exec{exec_.exec_id}/preempted", t,
                cat="preempt", by=group.batch.batch_id, device=dev,
            )
        self._start_execution(group, t, [dev])
        return True

    # -- completion -----------------------------------------------------
    def _finish(self, exec_: _Execution, t: float) -> None:
        exec_.finish_s = t
        if self._inflight.get(exec_.key) is exec_:
            del self._inflight[exec_.key]
        size = len(exec_.members)
        for m in exec_.members:
            req = m.req
            start = exec_.start_s if not m.joined else m.attach_s
            self._respond(
                req, exec_.exec_id, size, exec_.devices[0], exec_.run,
                start, t, t - start,
                exec_.run.barrier_s if not m.joined else 0.0,
                m.joined, m.deferred,
            )
            if self.tracer.enabled and start > req.arrival_s:
                self.tracer.span(
                    f"sched/{req.slo}", f"req{req.request_id}/queue-wait",
                    req.arrival_s, start, cat="queue",
                    joined=m.joined, deferred=m.deferred,
                )
        if self.tracer.enabled:
            self.tracer.span(
                "sched", f"exec{exec_.exec_id}", exec_.start_s, t,
                cat="exec", size=size, shards=exec_.run.num_shards,
                preemptions=exec_.preemptions,
            )
        for dev in exec_.devices:
            self._assignment[dev] = None
            if self._paused_stack[dev]:
                # LIFO resume keeps forward progress for preempted work;
                # an interactive group can re-preempt at the next boundary
                resumed = self._paused_stack[dev].pop()
                resumed.paused = False
                self._assignment[dev] = resumed
                self._book_next_segment(resumed, dev, t)
        self._readmit_deferred(t)
        self._autoscale(t)
        self._schedule(t)

    def _readmit_deferred(self, t: float) -> None:
        """Re-admit parked requests once the queue drains (FIFO)."""
        while self._deferred:
            req = self._deferred[0]
            watermark = self.admission.low_watermark(self._class_of(req))
            if watermark is not None and self._waiting >= watermark:
                break
            self._deferred.popleft()
            self._admit(req, t, deferred=True)

    # -- autoscaling ----------------------------------------------------
    def _autoscale(self, now: float) -> None:
        if self.autoscaler is None:
            return
        active = self.pool.num_active
        proposal = self.autoscaler.propose(
            now, active=active, queue_depth=self._queue_depth(),
            busy_devices=sum(map(self._occupied, range(active))),
            pool_devices=self.pool.num_devices,
        )
        if proposal is None:
            return
        target, reason = proposal
        if target < active:
            # never park a device that owns work — drain first — nor one
            # a queued batch needs to start at all
            queued = itertools.chain(
                self._groups.values(), self._unready, self._ready
            )
            floor = max(
                [g.shards for g in queued]
                + [d + 1 for d in range(active) if self._occupied(d)],
                default=0,
            )
            target = max(target, floor)
            if target >= active:
                return
        self._resize(target, now, reason)
        if target > active:
            self._schedule(now)

    def _resize(self, target: int, now: float, reason: str) -> None:
        """Commit an active-set transition to the self.pool and the log."""
        active = self.pool.num_active
        if target > active:
            self.pool.set_active(
                target, now=now,
                provision_delay_s=self.autoscaler.provision_delay_s,
            )
            self._count("serve.sched.scale_ups")
        else:
            self.pool.set_active(target, now=now)
            self._count("serve.sched.scale_downs")
        self.autoscaler.commit(
            now, from_devices=active, to_devices=target, reason=reason,
            queue_depth=self._queue_depth(),
            busy_devices=sum(map(self._occupied, range(active))),
        )
        if self.tracer.enabled:
            self.tracer.counter("sched", "active_devices", now, target)

    # -- reporting ------------------------------------------------------
    def _account_in_flight(self) -> None:
        """The ``serve.sched.*`` counters and gauges: what in-flight
        dispatch did.  (The per-class ``serve.sched.<class>.*`` histograms,
        the counter view of trace-analyze's ``sched/<class>`` queue-wait
        spans, are fed by the report's one pass over the responses.)"""
        metrics = self.metrics
        for name in ("joined", "shed", "deferred", "preemptions",
                     "scale_ups", "scale_downs"):
            metrics.counter(f"serve.sched.{name}")  # reported even at zero
        admitted = sum(c["admit"] for c in self.admission.snapshot().values())
        self._count("serve.sched.admitted", admitted)
        self._count("serve.sched.executions", metrics.counter("serve.batches").value)
        metrics.gauge("serve.sched.active_devices").set(self.pool.num_active)
        metrics.gauge("serve.sched.max_queue_depth").set(self._max_depth)
