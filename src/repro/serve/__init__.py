"""Batched multi-accelerator inference serving (`repro.serve`).

Turns the one-shot Dynasparse simulator into a traffic-serving system:

- :mod:`repro.serve.request` — request/response dataclasses and program
  fingerprints;
- :mod:`repro.serve.workload` — Poisson / bursty / steady traffic
  generators with skewed model/dataset mixes, and the rate calibration
  (:func:`~repro.serve.workload.saturating_rate`) they are drawn at;
- :mod:`repro.serve.report` — :class:`~repro.serve.report.ServingReport`,
  what a sweep reports.

A sweep is one :meth:`Engine.serve <repro.engine.core.Engine.serve>`
call: the serve loop, :mod:`repro.sched.scheduler`, is continuous
batching (a request joins an execution of its program already in flight,
and SLO classes set priority, batching window and admission bound) over
the engine's program cache and device pool (:mod:`repro.engine.cache`,
:mod:`repro.engine.pool`).

Quickstart::

    from repro.engine import Engine
    from repro.serve import synthesize

    engine = Engine(pool_size=4)
    requests = synthesize(200, arrival="poisson", rate_rps=5e4,
                          models=("GCN", "GIN"), datasets=("CO", "CI"))
    report = engine.serve(requests, max_batch_size=8)
    print(report.format_report())
"""

from repro.serve.report import ServingReport
from repro.serve.request import InferenceRequest, InferenceResponse, MutationRequest
from repro.serve.workload import (
    ARRIVAL_KINDS,
    bursty_arrivals,
    churn_stream,
    estimate_service_s,
    poisson_arrivals,
    saturating_rate,
    steady_arrivals,
    synthesize,
)

__all__ = [
    "ARRIVAL_KINDS", "InferenceRequest", "InferenceResponse", "MutationRequest",
    "ServingReport", "bursty_arrivals", "churn_stream", "estimate_service_s",
    "poisson_arrivals", "saturating_rate", "steady_arrivals", "synthesize"
]
