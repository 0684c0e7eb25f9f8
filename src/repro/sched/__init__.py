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

The loop is continuous batching (:mod:`repro.sched.scheduler`: joins,
boarding, priority dispatch and preemption at layer boundaries).  Every
request is scheduled by its SLO class (the server's ``slo_policy``, by
default :meth:`SLOPolicy.default <repro.sched.slo.SLOPolicy.default>`:
``bulk`` and ``interactive``); admission control and autoscaling are
opt-in::

    from repro.serve import InferenceServer
    from repro.sched import SLOPolicy, PoolAutoscaler

    server = InferenceServer(
        pool_size=4,
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
