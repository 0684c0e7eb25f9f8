"""Pool autoscaling: size the active device set to the offered load.

The :class:`~repro.engine.pool.AcceleratorPool` owns N devices but a
steady trickle of traffic does not need all of them energised — and a
10x burst needs them *now*.  The autoscaler watches two signals the
scheduler hands it at every arrival/completion event (queue depth and
busy devices) and proposes growing or shrinking the pool's *active set*
(:meth:`~repro.engine.pool.AcceleratorPool.set_active`) within
``[min_devices, max_devices]``.

Hysteresis comes from three knobs, all virtual-clock seconds:

- asymmetric thresholds: grow when the queue exceeds
  ``scale_up_queue_per_device`` requests per active device, shrink only
  when it falls below ``scale_down_queue_per_device`` *and* a device is
  idle — the gap between the two is the dead band;
- ``cooldown_s`` between consecutive scale events, so one burst edge
  cannot flap the pool;
- ``provision_delay_s``: a grown device becomes usable only after a
  cold-start delay, charged by the pool when it activates the device.

The autoscaler only *proposes* targets; the scheduler commits them once
it has clamped for feasibility (a busy device cannot be parked — it
drains first).  Committed transitions land in :attr:`events` as
:class:`ScaleEvent` records, which ``ServingReport`` surfaces as the
autoscaler event log.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class ScaleEvent:
    """One committed active-set transition."""

    t_s: float
    from_devices: int
    to_devices: int
    reason: str
    queue_depth: int
    busy_devices: int

    def to_dict(self) -> dict:
        return asdict(self)


class PoolAutoscaler:
    """Queue-depth/utilization autoscaler with hysteresis."""

    def __init__(
        self,
        *,
        min_devices: int = 1,
        max_devices: int | None = None,
        scale_up_queue_per_device: float = 4.0,
        scale_down_queue_per_device: float = 1.0,
        cooldown_s: float = 0.0,
        provision_delay_s: float = 0.0,
        step: int = 1,
    ) -> None:
        if min_devices < 1:
            raise ValueError("min_devices must be >= 1")
        if max_devices is not None and max_devices < min_devices:
            raise ValueError("max_devices must be >= min_devices")
        if scale_up_queue_per_device <= scale_down_queue_per_device:
            raise ValueError(
                "scale_up_queue_per_device must exceed "
                "scale_down_queue_per_device (the gap is the hysteresis "
                "dead band)"
            )
        if cooldown_s < 0 or provision_delay_s < 0:
            raise ValueError("cooldown_s/provision_delay_s must be >= 0")
        if step < 1:
            raise ValueError("step must be >= 1")
        self.min_devices = min_devices
        self.max_devices = max_devices
        self.scale_up_queue_per_device = scale_up_queue_per_device
        self.scale_down_queue_per_device = scale_down_queue_per_device
        self.cooldown_s = cooldown_s
        self.provision_delay_s = provision_delay_s
        self.step = step
        self.events: list[ScaleEvent] = []
        self._last_change_s = float("-inf")

    def reset(self) -> None:
        """Clear the event log and cooldown (start of a sweep)."""
        self.events = []
        self._last_change_s = float("-inf")

    def propose(
        self,
        now: float,
        *,
        active: int,
        queue_depth: int,
        busy_devices: int,
        pool_devices: int,
    ) -> tuple[int, str] | None:
        """Proposed new active-set size, or None to hold steady."""
        if now - self._last_change_s < self.cooldown_s:
            return None
        ceiling = min(pool_devices, self.max_devices or pool_devices)
        floor = min(self.min_devices, ceiling)
        if (
            active < ceiling
            and queue_depth > self.scale_up_queue_per_device * active
        ):
            target = min(active + self.step, ceiling)
            return target, (
                f"queue depth {queue_depth} > "
                f"{self.scale_up_queue_per_device:g}/device x {active}"
            )
        if (
            active > floor
            and busy_devices < active
            and queue_depth
            < self.scale_down_queue_per_device * max(active - self.step, 1)
        ):
            target = max(active - self.step, floor)
            return target, (
                f"queue depth {queue_depth} < "
                f"{self.scale_down_queue_per_device:g}/device with "
                f"{active - busy_devices} idle"
            )
        return None

    def commit(
        self,
        now: float,
        *,
        from_devices: int,
        to_devices: int,
        reason: str,
        queue_depth: int,
        busy_devices: int,
    ) -> ScaleEvent:
        """Record a transition the scheduler actually applied."""
        event = ScaleEvent(now, from_devices, to_devices, reason, queue_depth, busy_devices)
        self.events.append(event)
        self._last_change_s = now
        return event
