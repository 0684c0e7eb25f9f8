"""Synthetic traffic generators for serving experiments.

Three arrival processes (the standard serving-benchmark trio):

``poisson``
    memoryless arrivals at a mean rate — the classic open-loop model;
``bursty``
    clumps of near-simultaneous requests separated by idle gaps (same
    mean rate), stressing the batcher and queueing;
``steady``
    deterministic uniform spacing — the closed-form baseline.

Request *content* is drawn from a (model, dataset) mix that is either
uniform or Zipf-skewed.  Skew matters for the program cache: real traffic
concentrates on a few hot models ("Not All Neighbors Matter"-style
workload dependence), so the LRU hit rate under skew is a headline metric.

Everything is seeded and deterministic.  The rate a stream is drawn at is
calibrated against an engine's capacity by :func:`saturating_rate`, from
:func:`estimate_service_s`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.dyngraph.delta import random_delta
from repro.hw.memory import pcie_transfer_seconds
from repro.serve.request import InferenceRequest, MutationRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.core import Engine

ARRIVAL_KINDS = ("poisson", "bursty", "steady")


def poisson_arrivals(
    num_requests: int, rate_rps: float, seed: int = 0
) -> np.ndarray:
    """Arrival times (seconds) of a Poisson process at ``rate_rps``."""
    if not rate_rps > 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=num_requests)
    return np.cumsum(gaps)


def bursty_arrivals(
    num_requests: int,
    rate_rps: float,
    seed: int = 0,
    *,
    burst_size: int = 8,
    burst_spread_s: float | None = None,
) -> np.ndarray:
    """Bursts of ``burst_size`` near-simultaneous arrivals.

    Matches :func:`steady_arrivals`' rate contract: the achieved mean
    rate ``num_requests / max(times)`` equals ``rate_rps`` up to the
    within-burst spread, including when the final burst is partial
    (burst *deadlines* are placed at the cumulative request count over
    ``rate_rps``, so the stream always ends at ``num_requests /
    rate_rps``).  Requests land within ``burst_spread_s`` (default: 1%
    of the burst period) *before* their burst's deadline; the spread is
    clamped below the smallest inter-burst gap so bursts cannot dissolve
    into each other after the final sort.
    """
    if not rate_rps > 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    if burst_size < 1:
        raise ValueError("burst_size must be >= 1")
    if burst_spread_s is not None and not burst_spread_s >= 0:
        raise ValueError("burst_spread_s must be >= 0")
    rng = np.random.default_rng(seed)
    period = burst_size / rate_rps
    idx = np.arange(num_requests)
    deadlines = np.minimum((idx // burst_size + 1) * burst_size,
                           num_requests) / rate_rps
    # the last burst may be partial: its gap to the previous deadline is
    # smaller than a full period, and it bounds how far arrivals may be
    # smeared backwards without merging bursts (or going negative when
    # there is only one burst).  The spread is clamped to half that gap
    # so every burst stays separated from its neighbours by at least the
    # spread itself — a spread of a full period would smear arrivals
    # uniformly and dissolve the burst structure entirely
    last_size = num_requests - ((num_requests - 1) // burst_size) * burst_size
    max_spread = 0.5 * min(period, last_size / rate_rps)
    spread = period * 0.01 if burst_spread_s is None else burst_spread_s
    spread = min(spread, max_spread)
    times = deadlines - rng.uniform(0.0, spread, size=num_requests)
    return np.sort(times)


def steady_arrivals(num_requests: int, rate_rps: float) -> np.ndarray:
    """Deterministic arrivals at exactly ``rate_rps``."""
    if not rate_rps > 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    return (np.arange(num_requests) + 1) / rate_rps


def estimate_service_s(engine: "Engine", request: InferenceRequest) -> float:
    """Per-batch device occupancy of one request's program (seconds) on a
    device of ``engine`` that holds none of its inputs: the PCIe transfer
    plus the run's latency, an upper bound on a served batch's
    ``service_s`` whatever a sweep kept resident.

    Checks the request's shard width as the serve loop does, then reads
    the program cache without populating or recounting it (calibrating
    before an engine's first sweep does not turn its compiles warm); the
    run is replayed if the program holds its record, simulated if not.
    """
    from repro.sched.scheduler import check_shards

    request = engine.resolve_request(request)
    check_shards(request, engine.pool.num_devices, engine.pool.num_devices)
    program = engine.cache.peek(request.program_key(engine.config))
    if program is None:
        program = engine.compile_request(request)
    run = engine.execute(program, request.strategy, request.shards, ready_s=0.0)
    return pcie_transfer_seconds(program.input_bytes(), engine.config) + run.latency_s


def saturating_rate(
    engine: "Engine", probes: Sequence[InferenceRequest], *,
    max_batch_size: int = 8, pool_size: int | None = None, factor: float = 8.0,
) -> float:
    """Arrival rate (req/s) offering ``factor`` x a pool's capacity.

    Probes each request's batch service time on ``engine`` through
    :func:`estimate_service_s` (PCIe included, as on a device holding
    nothing), normalises to per-request occupancy at full batches of
    ``max_batch_size``, and scales to ``pool_size`` devices (default: the
    engine's pool).  The serving benchmarks all calibrate load with it.
    """
    if not probes:
        raise ValueError("need at least one probe request")
    service = [estimate_service_s(engine, p) for p in probes]
    per_request_s = (sum(service) / len(service)) / max_batch_size
    pool = engine.pool.num_devices if pool_size is None else pool_size
    return factor * pool / per_request_s


def _arrival_times(arrival: str, num_requests: int, rate_rps: float, seed: int) -> np.ndarray:
    """Arrival times of the process ``arrival`` names (``ARRIVAL_KINDS``)."""
    if arrival not in ARRIVAL_KINDS:
        raise ValueError(f"arrival must be one of {ARRIVAL_KINDS}, got {arrival!r}")
    if arrival == "poisson":
        return poisson_arrivals(num_requests, rate_rps, seed)
    if arrival == "bursty":
        return bursty_arrivals(num_requests, rate_rps, seed)
    return steady_arrivals(num_requests, rate_rps)


def _mix_probabilities(n: int, skew: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like popularity over ``n`` combos (skew=0 -> uniform)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-skew) if skew > 0 else np.ones(n)
    probs = weights / weights.sum()
    # shuffle so popularity is not tied to declaration order
    rng.shuffle(probs)
    return probs


def synthesize(
    num_requests: int,
    *,
    arrival: str = "poisson",
    rate_rps: float = 1000.0,
    models: Sequence[str] = ("GCN",),
    datasets: Sequence[str] = ("CO",),
    strategies: Sequence[str] = ("Dynamic",),
    prune_levels: Sequence[float] = (0.0,),
    scale: float | None = None,
    skew: float = 0.0,
    seed: int = 0,
    shards: int = 1,
    class_skew: float = 0.0,
) -> list[InferenceRequest]:
    """Build a deterministic request stream for a serve sweep.

    The content mix is the cross product of ``models x datasets x
    strategies x prune_levels``, sampled uniformly (``skew=0``) or with
    Zipf popularity (``skew>0`` — hot programs dominate, which is what
    makes the program cache pay off).  ``shards > 1`` marks every
    request for sharded multi-device execution (``repro.shard``).

    ``class_skew`` is the fraction of requests tagged with the
    ``"interactive"`` SLO class (the rest stay ``"bulk"``); the tags are
    drawn from their own seeded stream, so the same seed yields the same
    interactive/bulk assignment regardless of the content mix — which is
    what makes overload benches reproducible.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if not 0.0 <= class_skew <= 1.0:
        raise ValueError(f"class_skew must be within [0, 1], got {class_skew}")
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    times = _arrival_times(arrival, num_requests, rate_rps, seed)

    combos = [(m, d, s, p) for m in models for d in datasets
              for s in strategies for p in prune_levels]
    rng = np.random.default_rng(seed + 1)
    probs = _mix_probabilities(len(combos), skew, rng)
    picks = rng.choice(len(combos), size=num_requests, p=probs)
    # independent stream: class tags must not perturb (or be perturbed
    # by) the content draws above
    class_rng = np.random.default_rng(seed + 2)
    interactive = class_rng.random(num_requests) < class_skew

    requests = []
    for i, (t, pick) in enumerate(zip(times, picks)):
        model, dataset, strategy, prune = combos[int(pick)]
        requests.append(InferenceRequest(
            model=model, dataset=dataset, strategy=strategy, prune=prune, scale=scale,
            seed=seed, shards=shards, arrival_s=float(t),
            slo="interactive" if interactive[i] else "bulk",
        ))
    return requests


def churn_stream(
    num_requests: int,
    *,
    graph,
    models: Sequence[str] = ("GCN",),
    strategies: Sequence[str] = ("Dynamic",),
    mutation_every: int = 8,
    edge_fraction: float = 0.005,
    feature_updates: int = 0,
    arrival: str = "poisson",
    rate_rps: float = 1000.0,
    seed: int = 0,
) -> list:
    """An interleaved infer/mutate stream against one dynamic graph.

    Every ``mutation_every``-th arrival becomes a
    :class:`~repro.serve.request.MutationRequest` carrying a random
    delta that churns ``edge_fraction`` of the graph's *initial* edge
    population (half inserts, half deletes, so nnz stays roughly
    stationary) plus ``feature_updates`` point feature writes; the rest
    are inference requests referencing the graph by id.  Deterministic:
    the same seed yields bit-identical deltas and arrival times, which
    is what lets the patch-vs-evict comparison replay one stream against
    two engines.

    ``graph`` is a :class:`~repro.dyngraph.mutable.MutableGraph` (only
    its id and dimensions are read — the stream never mutates it;
    mutations apply when a *sweep* processes them).
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if mutation_every < 2:
        raise ValueError("mutation_every must be >= 2 (streams need traffic)")
    if not 0.0 < edge_fraction <= 1.0:
        raise ValueError(f"edge_fraction must be in (0, 1], got {edge_fraction}")
    times = _arrival_times(arrival, num_requests, rate_rps, seed)

    n_changes = max(1, int(graph.nnz * edge_fraction / 2))
    num_features = graph.snapshot().num_features
    rng = np.random.default_rng(seed + 7)
    combos = [(m, s) for m in models for s in strategies]
    picks = rng.choice(len(combos), size=num_requests)

    stream: list = []
    for i, t in enumerate(times):
        if i % mutation_every == mutation_every - 1:
            stream.append(
                MutationRequest(
                    graph_id=graph.graph_id,
                    delta=random_delta(
                        graph.num_vertices,
                        num_features,
                        edge_inserts=n_changes,
                        edge_deletes=n_changes,
                        feature_updates=feature_updates,
                        seed=seed + 31 * (i + 1),
                    ),
                    arrival_s=float(t),
                )
            )
        else:
            model, strategy = combos[int(picks[i])]
            stream.append(
                InferenceRequest(
                    model=model,
                    dataset=graph.graph_id,
                    strategy=strategy,
                    arrival_s=float(t),
                )
            )
    return stream
