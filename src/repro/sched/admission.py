"""Admission control: bound the queue instead of letting it run away.

An open-loop overload (arrivals outrunning capacity) grows the queue —
and therefore every latency percentile — without bound.  The admission
controller caps that: each SLO class declares a queue-depth bound
(:attr:`~repro.sched.slo.SLOClass.max_queue_depth`) and an overload
action.  Past the bound, ``"shed"`` classes are rejected outright
(interactive traffic: a late answer is a wrong answer) and ``"defer"``
classes are parked in a FIFO for re-admission once the queue drains
below the low watermark (bulk traffic: throughput matters, latency is
negotiable).  A hard limit (``hard_limit_factor`` x the bound) sheds
even defer-class traffic so the parking lot itself stays bounded.

The controller is clock- and queue-agnostic: the scheduler passes the
observed depth in, which keeps this trivially unit-testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sched.slo import SLOClass, SLOPolicy

#: possible admission outcomes
ADMISSION_ACTIONS = ("admit", "defer", "shed")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    action: str  # one of ADMISSION_ACTIONS
    reason: str = ""

    def __post_init__(self) -> None:
        if self.action not in ADMISSION_ACTIONS:
            raise ValueError(
                f"action must be one of {ADMISSION_ACTIONS}, "
                f"got {self.action!r}"
            )


#: the one decision that carries no reason (immutable, so shared)
_ADMIT = AdmissionDecision("admit")


class AdmissionController:
    """Per-class queue-depth-bounded admit / defer / shed decisions."""

    def __init__(
        self, policy: SLOPolicy, *, hard_limit_factor: float = 4.0
    ) -> None:
        if hard_limit_factor < 1.0:
            raise ValueError("hard_limit_factor must be >= 1")
        self.policy = policy
        self.hard_limit_factor = hard_limit_factor
        self.counters: dict[str, dict[str, int]] = {}
        self.reset()

    def reset(self) -> None:
        """Zero the per-class counters (start of a sweep)."""
        self.counters = {
            cls.name: {"admit": 0, "defer": 0, "shed": 0}
            for cls in self.policy.classes
        }

    def decide(self, slo_class: SLOClass, queue_depth: int) -> AdmissionDecision:
        """Admission outcome for one request, given the current depth.

        ``queue_depth`` is whatever backlog measure the caller bounds —
        the continuous scheduler passes waiting + deferred requests.
        Counters are updated as a side effect.
        """
        bound = slo_class.max_queue_depth
        if bound is None or queue_depth < bound:
            decision = _ADMIT
        else:
            hard = math.ceil(bound * self.hard_limit_factor)
            defer = slo_class.overload == "defer"
            limit = f"hard limit {hard}" if defer and queue_depth >= hard else f"bound {bound}"
            decision = AdmissionDecision("defer" if defer and queue_depth < hard else "shed",
                                         f"queue depth {queue_depth} >= {limit}")
        self.counters[slo_class.name][decision.action] += 1
        return decision

    def low_watermark(self, slo_class: SLOClass) -> int | None:
        """Depth below which deferred requests of this class re-admit.

        Half the bound (at least 1): re-admitting right at the bound
        would thrash admit/defer on every completion.
        """
        if slo_class.max_queue_depth is None:
            return None
        return max(1, slo_class.max_queue_depth // 2)

    def snapshot(self) -> dict:
        """JSON-ready per-class decision counts."""
        return {name: dict(c) for name, c in self.counters.items()}
