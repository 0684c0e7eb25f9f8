"""Dynamic task scheduling over Computation Cores (paper Algorithm 8).

Each Computation Core raises an interrupt when idle; the soft processor
assigns it the next task of the current kernel.  Tasks within a kernel
are independent; a barrier separates kernels (Algorithm 8 line 6).

:class:`CoreTimeline` is the event-driven model of this: a per-core
available-time vector.  ``peek_next_core`` returns the core that will be
idle first (the next interrupt), ``assign_to`` books a task on it, and
``barrier`` closes a kernel, returning its makespan.  Per-core busy time
is tracked so load balance — the whole point of the ``eta * N_CC`` task
constraint of §VI-C — can be reported and tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.stats import mean_over_max


@dataclass
class TimelineEvent:
    """One task execution on the timeline (for Gantt-style reporting)."""

    core: int
    start: float
    end: float
    kernel_id: str
    task_index: int


class CoreTimeline:
    """Event-driven multi-core schedule with per-kernel barriers."""

    def __init__(self, num_cores: int) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.num_cores = num_cores
        self.available = np.zeros(num_cores, dtype=np.float64)
        self.busy = np.zeros(num_cores, dtype=np.float64)
        self.events: list[TimelineEvent] = []
        self._now = 0.0  # time of the last barrier

    def peek_next_core(self) -> int:
        """The core whose idle interrupt fires next (earliest available)."""
        return int(np.argmin(self.available))

    def assign_to(
        self,
        core: int,
        duration: float,
        *,
        kernel_id: str = "",
        task_index: int = -1,
    ) -> tuple[float, float]:
        """Book ``duration`` cycles on ``core``; returns (start, end)."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = float(self.available[core])
        end = start + duration
        self.available[core] = end
        self.busy[core] += duration
        self.events.append(TimelineEvent(core, start, end, kernel_id, task_index))
        return start, end

    def barrier(self) -> float:
        """Wait until all tasks of the kernel finish (Algorithm 8 line 6).

        Returns the kernel's makespan (cycles since the previous barrier)
        and aligns all cores to the barrier time.
        """
        end = float(self.available.max()) if self.num_cores else 0.0
        span = end - self._now
        self.available[:] = end
        self._now = end
        return span

    @property
    def now(self) -> float:
        return self._now

    def load_balance(self) -> float:
        """Mean busy time / max busy time in [0, 1]; 1.0 = perfectly even."""
        return mean_over_max(self.busy)

    def utilisation(self) -> float:
        """Aggregate busy fraction of the schedule so far."""
        if self._now == 0.0:
            return 1.0
        return float(self.busy.sum()) / (self._now * self.num_cores)
