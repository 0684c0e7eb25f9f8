"""A pool of simulated accelerators on one shared virtual clock.

Scales the single-device simulator to N devices the same way
:class:`~repro.runtime.scheduler.CoreTimeline` scales one kernel across
Computation Cores: a per-device available-time vector.  Three rules pick
the device(s) a booking lands on: ``submit`` takes the device that can
start first (the multi-device analogue of Algorithm 8's idle-core
interrupts), ``submit_on`` the one it is told, ``submit_group`` the N
earliest-available, held to a common barrier (``peek_device`` /
``peek_group`` show the choice before booking).  What a booking *is* is
written once (``_book``): the device's availability and busy seconds, a
:class:`DispatchEvent`, a dispatch span.

Each slot owns a real :class:`~repro.hw.accelerator.Accelerator`: the
engine runs a batch's functional/cycle simulation on the chosen device's
hardware state, so outputs come from the same simulator a single-shot run
uses.  The pool is owned by the :class:`~repro.engine.core.Engine`; the
serving front-end books batches on it but never wires devices itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.config import AcceleratorConfig, u250_default
from repro.hw.accelerator import Accelerator
from repro.obs.tracer import NULL_TRACER


@dataclass
class DispatchEvent:
    """One batch execution booked on a device (Gantt-style record)."""

    device: int
    start: float
    end: float
    batch_id: int
    batch_size: int


class AcceleratorPool:
    """N identical simulated devices sharing one virtual clock.

    When a :class:`~repro.obs.tracer.Tracer` is attached (``pool.tracer``)
    every booking also lands as a span on a ``pool/dev{d}`` track — the
    pool clock is the serving clock, so these are the per-device execute
    spans of a ``serve()`` sweep.
    """

    def __init__(
        self, config: AcceleratorConfig | None = None, num_devices: int = 1
    ) -> None:
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        self.config = config or u250_default()
        self.devices = [Accelerator(self.config) for _ in range(num_devices)]
        self.available = np.zeros(num_devices, dtype=np.float64)
        self.busy = np.zeros(num_devices, dtype=np.float64)
        self.events: list[DispatchEvent] = []
        self.tracer = NULL_TRACER
        #: devices [0, num_active) accept new earliest-idle bookings; the
        #: rest are parked (repro.sched's autoscaler shrinks/grows this)
        self._num_active = num_devices

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def num_active(self) -> int:
        """Devices currently accepting new earliest-idle bookings."""
        return self._num_active

    def set_active(
        self, n: int, *, now: float = 0.0, provision_delay_s: float = 0.0
    ) -> None:
        """Resize the active set to the first ``n`` devices.

        Growing models provisioning: a newly activated device only
        becomes available ``provision_delay_s`` after ``now`` (cold
        start / reconfiguration on the virtual clock).  Shrinking parks
        devices for *new* work only — in-flight bookings on a parked
        device run to completion (drain semantics), and
        :meth:`submit_on` can still target it explicitly.
        """
        if not 1 <= n <= self.num_devices:
            raise ValueError(
                f"active set must be within [1, {self.num_devices}], got {n}"
            )
        if provision_delay_s < 0:
            raise ValueError("provision_delay_s must be >= 0")
        for d in range(self._num_active, n):
            self.available[d] = max(
                float(self.available[d]), now + provision_delay_s
            )
        self._num_active = n

    def peek_device(self, ready_s: float) -> int:
        """Active device that can start a batch ready at ``ready_s`` first.

        All devices are identical, so the earliest start time wins; ties
        break toward the earliest-idle (then lowest-numbered) device,
        matching the idle-interrupt order of the core scheduler.
        """
        active = self.available[: self._num_active]
        starts = np.maximum(active, ready_s)
        best = int(np.argmin(starts))
        # prefer the device that has been idle longest among equal starts
        candidates = np.flatnonzero(starts == starts[best])
        if candidates.size > 1:
            best = int(candidates[np.argmin(active[candidates])])
        return best

    def peek_group(self, num_devices: int, ready_s: float) -> tuple[list[int], float]:
        """The active devices :meth:`submit_group` books for a group ready
        at ``ready_s`` (the ``num_devices`` earliest to start, ascending),
        and their common start."""
        if not 1 <= num_devices <= self._num_active:
            raise ValueError(
                f"group needs {num_devices} device(s), pool has "
                f"{self._num_active} active of {self.num_devices}"
            )
        starts = np.maximum(self.available[: self._num_active], ready_s)
        order = np.argsort(starts, kind="stable")
        chosen = sorted(int(d) for d in order[:num_devices])
        return chosen, float(starts[chosen].max())

    def _book(
        self, device: int, start: float, end: float, work: Sequence[float],
        batch_id: int, batch_size: int, label: str, **span_args,
    ) -> None:
        """The one booking: hold ``device`` from ``start`` to ``end``,
        charge it each of the ``work`` seconds in turn, log the
        :class:`DispatchEvent` and the dispatch span.  How the device and
        the start were chosen is the caller's rule."""
        self.available[device] = end
        busy = self.busy[device]
        for seconds in work:
            busy += seconds
        self.busy[device] = busy
        self.events.append(
            DispatchEvent(device, start, end, batch_id, batch_size)
        )
        if self.tracer.enabled:
            self.tracer.span(
                f"pool/dev{device}", label, start, end, cat="dispatch",
                batch_size=batch_size, **span_args,
            )

    def submit(
        self,
        service_s: float,
        ready_s: float,
        *,
        batch_id: int = -1,
        batch_size: int = 1,
    ) -> tuple[int, float, float]:
        """Book ``service_s`` seconds of work on the device that can start
        it first (:meth:`peek_device`); returns (device, start, end)."""
        device = self.peek_device(ready_s)
        start, end = self.submit_on(
            device, service_s, ready_s, batch_id=batch_id, batch_size=batch_size
        )
        return device, start, end

    def submit_on(
        self,
        device: int,
        service_s: float,
        ready_s: float,
        *,
        busy_s: float | None = None,
        batch_id: int = -1,
        batch_size: int = 1,
        label: str = "",
    ) -> tuple[float, float]:
        """Book ``service_s`` seconds on a *specific* device.

        The directed analogue of :meth:`submit`, used by the continuous
        scheduler (:mod:`repro.sched`) to keep an execution's per-layer
        segments sticky on one device.  The device may be outside the
        active set (a parked device draining its in-flight execution).
        ``busy_s`` optionally overrides the busy charge (a sharded
        member held to a barrier is occupied, not working, for part of
        the booking).  Returns ``(start, end)``.
        """
        if not 0 <= device < self.num_devices:
            raise ValueError(
                f"device must be within [0, {self.num_devices}), got {device}"
            )
        if service_s < 0:
            raise ValueError("service_s must be non-negative")
        start = float(max(self.available[device], ready_s))
        end = start + service_s
        self._book(
            device, start, end, (service_s if busy_s is None else float(busy_s),),
            batch_id, batch_size, label or f"batch{batch_id}",
            queued_s=start - ready_s,
        )
        return start, end

    def submit_run(
        self,
        device: int,
        segments: Sequence[float],
        start: float,
        *,
        batch_id: int = -1,
        batch_size: int = 1,
    ) -> float:
        """Book consecutive ``segments`` (seconds) on ``device`` from
        ``start`` as one reservation; returns its end.

        The end is the chained sum ``start + s0 + s1 + ...`` and the
        device is charged each segment in turn: the bits booking them one
        after another with :meth:`submit_on` gives, in one event.  The
        serve loop books an unsharded execution this way once it ends or
        pauses at a layer boundary (:mod:`repro.sched.scheduler`).
        """
        end = start
        for seconds in segments:
            end += seconds
        self._book(device, start, end, segments, batch_id, batch_size,
                   f"batch{batch_id}", segments=len(segments))
        return end

    def submit_group(
        self,
        service_s: float,
        num_devices: int,
        ready_s: float,
        *,
        busy_s: list | None = None,
        batch_id: int = -1,
        batch_size: int = 1,
    ) -> tuple[list[int], float, float]:
        """Book a barrier-synchronised group on ``num_devices`` devices.

        The multi-device analogue of :meth:`submit`, used for sharded
        executions: the ``num_devices`` earliest-available devices all
        start together (the shards are lock-stepped by per-layer
        barriers) and are all held until ``start + service_s``.
        ``busy_s`` optionally gives each member's *actual* busy seconds
        (its shard's work), so utilization stays honest while
        availability reflects the barrier.  Returns
        ``(devices, start, end)``.
        """
        chosen, start = self.peek_group(num_devices, ready_s)
        if busy_s is not None and len(busy_s) != num_devices:
            raise ValueError("busy_s must have one entry per group device")
        if service_s < 0:
            raise ValueError("service_s must be non-negative")
        end = start + service_s
        for idx, device in enumerate(chosen):
            busy = service_s if busy_s is None else float(busy_s[idx])
            self._book(
                device, start, end, (busy,), batch_id, batch_size,
                f"batch{batch_id}/shard{idx}", group=num_devices, busy_s=busy,
            )
        return chosen, start, end

    @property
    def makespan_s(self) -> float:
        """Virtual time at which the last booked batch finishes."""
        return float(self.available.max()) if self.num_devices else 0.0

    def utilization(self) -> np.ndarray:
        """Per-device busy fraction of the pool makespan, in [0, 1]."""
        span = self.makespan_s
        if span <= 0.0:
            return np.zeros(self.num_devices)
        return self.busy / span

    def load_balance(self) -> float:
        """Mean busy time / max busy time; 1.0 = perfectly even."""
        mx = float(self.busy.max()) if self.num_devices else 0.0
        if mx == 0.0:
            return 1.0
        # clamp: mean() summation can overshoot max by an ulp on even load
        return min(float(self.busy.mean()) / mx, 1.0)

    def reset(self) -> None:
        """Clear the virtual clock, statistics and device hardware state.

        Also re-activates every device: autoscaler shrinkage is per-sweep
        state, and a sweep without an autoscaler must see the whole pool.
        """
        self.available[:] = 0.0
        self.busy[:] = 0.0
        self.events.clear()
        self._num_active = self.num_devices
        for dev in self.devices:
            dev.reset()
