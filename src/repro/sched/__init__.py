"""The serve loop and what it schedules by (`repro.sched`).

Every :meth:`InferenceServer.serve <repro.serve.server.InferenceServer.serve>`
sweep runs through the one event-driven loop here, on the virtual clock:

- :mod:`repro.sched.scheduler` — the loop: arrivals, batch windows,
  cache lookups charged to the host clock, dispatch, completion;
- :mod:`repro.sched.slo` — SLO classes (interactive / bulk) with
  per-class priority, batching window and latency target;
- :mod:`repro.sched.admission` — queue-depth-bounded admission control
  (admit / defer / shed);
- :mod:`repro.sched.autoscaler` — queue-depth/utilization pool
  autoscaling with hysteresis.

``InferenceServer(scheduler=...)`` names the loop's dispatch policy
(:data:`repro.serve.batcher.POLICIES`).  The default, ``"legacy"``,
schedules every request as one class and books each closed batch ahead
and whole; ``"continuous"`` acts on SLO classes and books layer by layer,
which is what makes join-in-flight, preemption, admission control and
autoscaling possible::

    from repro.serve import InferenceServer
    from repro.sched import SLOPolicy, PoolAutoscaler

    server = InferenceServer(
        pool_size=4,
        scheduler="continuous",
        slo_policy=SLOPolicy.default(interactive_target_p99_s=5e-3),
        autoscaler=PoolAutoscaler(min_devices=1),
    )
"""

from repro.sched.admission import AdmissionController, AdmissionDecision
from repro.sched.autoscaler import PoolAutoscaler, ScaleEvent
from repro.sched.scheduler import ContinuousScheduler
from repro.sched.slo import SLO_CLASSES, SLOClass, SLOPolicy

__all__ = [
    "SLO_CLASSES",
    "AdmissionController",
    "AdmissionDecision",
    "ContinuousScheduler",
    "PoolAutoscaler",
    "SLOClass",
    "SLOPolicy",
    "ScaleEvent",
]
