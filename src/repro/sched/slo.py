"""SLO classes: per-request service tiers the scheduler can act on.

"Towards Sparsification of GNNs" and "Not All Neighbors Matter" frame
latency/quality as a per-request tradeoff; this module makes the latency
side expressible.  A request carries an SLO class tag
(:attr:`~repro.serve.request.InferenceRequest.slo`); the class maps it to
a scheduling *policy*: how urgently it dispatches (``priority``), how
long it may wait for batch company (``max_wait_s``), what latency it was
promised (``target_p99_s``, reporting/goodput only — the scheduler does
not deadline-schedule), and how the admission controller treats it under
overload (``max_queue_depth`` + ``overload``).

Everything is a frozen dataclass: one policy is shared by every sweep
it is passed to (``Engine.serve(..., slo_policy=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: the built-in class names `workload.synthesize` emits
SLO_CLASSES = ("interactive", "bulk")

_OVERLOAD_ACTIONS = ("defer", "shed")


@dataclass(frozen=True)
class SLOClass:
    """Scheduling policy for one service tier."""

    name: str
    #: higher dispatches first; strictly-higher may preempt at layer
    #: boundaries
    priority: int
    #: latency promise for goodput/violation reporting (None = none made)
    target_p99_s: float | None = None
    #: batching window for this class (None = the server's ``max_wait_s``)
    max_wait_s: float | None = None
    #: admission bound: queued requests of this class beyond which the
    #: admission controller stops admitting (None = unbounded)
    max_queue_depth: int | None = None
    #: what happens past the bound: "defer" parks the request for
    #: re-admission when the queue drains, "shed" rejects it outright
    overload: str = "defer"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO class needs a name")
        if self.overload not in _OVERLOAD_ACTIONS:
            raise ValueError(
                f"overload must be one of {_OVERLOAD_ACTIONS}, "
                f"got {self.overload!r}"
            )
        if self.target_p99_s is not None and self.target_p99_s <= 0:
            raise ValueError("target_p99_s must be positive when set")
        if self.max_wait_s is not None and self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0 when set")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 when set")


@dataclass(frozen=True)
class SLOPolicy:
    """The set of SLO classes one scheduler run recognises."""

    classes: tuple[SLOClass, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("policy needs at least one SLO class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO class names: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)

    def get(self, name: str) -> SLOClass:
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(
            f"unknown SLO class {name!r}; policy defines {self.names}"
        )

    @classmethod
    def default(
        cls,
        *,
        interactive_target_p99_s: float | None = None,
        bulk_target_p99_s: float | None = None,
        interactive_queue_depth: int | None = None,
        bulk_queue_depth: int | None = None,
    ) -> "SLOPolicy":
        """The standard two-tier policy.

        ``interactive`` dispatches eagerly (zero batching window, high
        priority, sheds past its bound — a stale interactive answer is
        worthless); ``bulk`` batches patiently at base priority and is
        deferred, not dropped, under overload.
        """
        return cls(
            classes=(
                SLOClass(
                    name="interactive",
                    priority=10,
                    target_p99_s=interactive_target_p99_s,
                    max_wait_s=0.0,
                    max_queue_depth=interactive_queue_depth,
                    overload="shed",
                ),
                SLOClass(
                    name="bulk",
                    priority=0,
                    target_p99_s=bulk_target_p99_s,
                    max_wait_s=None,
                    max_queue_depth=bulk_queue_depth,
                    overload="defer",
                ),
            )
        )
