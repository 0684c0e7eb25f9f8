"""Batched multi-accelerator inference serving (`repro.serve`).

Turns the one-shot Dynasparse simulator into a traffic-serving system:

- :mod:`repro.serve.request` — request/response dataclasses and program
  fingerprints;
- :mod:`repro.serve.batcher` — what a micro-batch is;
- :mod:`repro.serve.workload` — Poisson / bursty / steady traffic
  generators with skewed model/dataset mixes;
- :mod:`repro.serve.server` — the front-end: serving knobs, one
  simulation per distinct execution, and
  :class:`~repro.serve.server.ServingReport`.

The serve loop is :mod:`repro.sched.scheduler`, continuous batching:
a request joins an execution of its program already in flight, and SLO
classes set priority, batching window and admission bound.  The program
cache and the device pool a server uses belong to its
:class:`~repro.engine.core.Engine` (:mod:`repro.engine.cache`,
:mod:`repro.engine.pool`).

Quickstart::

    from repro.serve import InferenceServer, synthesize

    server = InferenceServer(pool_size=4, max_batch_size=8)
    requests = synthesize(200, arrival="poisson", rate_rps=5e4,
                          models=("GCN", "GIN"), datasets=("CO", "CI"))
    report = server.serve(requests)
    print(report.format_report())
"""

from repro.serve.batcher import MicroBatch
from repro.serve.request import InferenceRequest, InferenceResponse, MutationRequest
from repro.serve.server import MUTATION_POLICIES, InferenceServer, ServingReport
from repro.serve.workload import (
    ARRIVAL_KINDS,
    bursty_arrivals,
    churn_stream,
    poisson_arrivals,
    steady_arrivals,
    synthesize,
)

__all__ = [
    "ARRIVAL_KINDS",
    "MUTATION_POLICIES",
    "InferenceRequest",
    "InferenceResponse",
    "InferenceServer",
    "MicroBatch",
    "MutationRequest",
    "ServingReport",
    "bursty_arrivals",
    "churn_stream",
    "poisson_arrivals",
    "steady_arrivals",
    "synthesize",
]
