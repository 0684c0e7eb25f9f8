"""A pool of simulated accelerators on one shared virtual clock.

Scales the single-device simulator to N devices the same way
:class:`~repro.runtime.scheduler.CoreTimeline` scales one kernel across
Computation Cores: a per-device available-time vector.  There is one
booking rule (:meth:`AcceleratorPool.book`): a sequence of barrier
segments on a device set, every member starting at the latest
availability of the set and held to the chained sum of the segments.
Which devices is the caller's rule: :meth:`AcceleratorPool.peek_device`
shows the active device that can start first (the multi-device analogue
of Algorithm 8's idle-core interrupts).  A booking records each member's
availability and busy seconds, a :class:`DispatchEvent` and a dispatch
span.

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
        :meth:`book` can still name it.
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

    def book(
        self,
        devices: Sequence[int],
        segments: Sequence[float],
        ready_s: float = 0.0,
        *,
        busy_s: Sequence[float] | None = None,
        batch_id: int = -1,
        batch_size: int = 1,
    ) -> tuple[float, float]:
        """Book a sequence of barrier segments on ``devices``; returns
        ``(start, end)``.

        Every member starts at the latest of ``ready_s`` and the members'
        availability, and is held to the chained sum ``start + s0 + s1 +
        ...`` of the ``segments`` (the bits booking them one after another
        gives).  A member is charged each segment in turn, or its own
        entry of ``busy_s`` (a lane held to a barrier is occupied, not
        working, for part of the booking).  A caller that stops at a
        barrier books the segments run so far.  A device may be outside
        the active set (a parked device draining its in-flight work).
        """
        if not devices or min(devices) < 0 or max(devices) >= self.num_devices:
            raise ValueError(
                f"devices must be a non-empty list within [0, {self.num_devices}), "
                f"got {list(devices)}"
            )
        if segments and min(segments) < 0:
            raise ValueError(f"segments must be non-negative, got {list(segments)}")
        if busy_s is not None and len(busy_s) != len(devices):
            raise ValueError("busy_s must have one entry per device")
        start = max(ready_s, *(float(self.available[d]) for d in devices))
        end = start
        for seconds in segments:
            end += seconds
        label = f"batch{batch_id}"
        for i, device in enumerate(devices):
            self.available[device] = end
            busy = self.busy[device]
            for seconds in (segments if busy_s is None else (float(busy_s[i]),)):
                busy += seconds
            self.busy[device] = busy
            self.events.append(DispatchEvent(device, start, end, batch_id, batch_size))
            if self.tracer.enabled:
                self.tracer.span(
                    f"pool/dev{device}", label if len(devices) == 1 else f"{label}/shard{i}",
                    start, end, cat="dispatch", batch_size=batch_size,
                    segments=len(segments),
                )
        return start, end

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
