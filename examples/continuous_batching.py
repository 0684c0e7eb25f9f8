#!/usr/bin/env python
"""Continuous batching: SLO-aware serving under overload.

The `repro.sched` subsystem replaces the legacy fire-whole-batches
serving loop with an event-driven continuous scheduler:

1. tag a synthetic workload with SLO classes (`class_skew` controls the
   interactive fraction);
2. serve the same overloaded stream through the legacy batcher and the
   continuous scheduler and compare goodput — requests that met their
   SLO target per second;
3. join-in-flight: same-program requests attach to an execution already
   on a device at the next layer boundary, at zero added service cost;
4. admission control sheds hopeless interactive requests and defers
   bulk ones instead of letting queues grow without bound;
5. the pool autoscaler grows the active device set under backlog and
   parks devices again when the burst drains.
"""

from repro.sched import AdmissionController, PoolAutoscaler, SLOPolicy
from repro.serve import InferenceServer, synthesize


def main() -> None:
    # 1. a bursty overloaded workload: 30% interactive, 70% bulk -------
    requests = synthesize(
        48,
        arrival="poisson",
        rate_rps=4e5,
        models=("GCN",),
        datasets=("CO",),
        seed=11,
        class_skew=0.3,
    )
    n_inter = sum(1 for r in requests if r.slo == "interactive")
    print(f"workload: {len(requests)} requests, {n_inter} interactive, "
          f"{len(requests) - n_inter} bulk (poisson @ 400k req/s)")

    # 2. both schedulers grade against the same SLO policy -------------
    policy = SLOPolicy.default(interactive_target_p99_s=2e-4)

    legacy = InferenceServer(pool_size=2, max_batch_size=8,
                             slo_policy=policy)
    legacy.serve(requests)                    # cold: populate the cache
    legacy_report = legacy.serve(requests)    # warm: graded sweep

    continuous = InferenceServer(
        pool_size=2,
        max_batch_size=8,
        scheduler="continuous",
        slo_policy=policy,
        admission=AdmissionController(policy),
        autoscaler=PoolAutoscaler(min_devices=1),
    )
    continuous.serve(requests)
    report = continuous.serve(requests)

    print("\nscheduler comparison (warm cache, virtual clock):")
    for name, r in (("legacy", legacy_report), ("continuous", report)):
        p99 = r.class_breakdown["interactive"]["p99_s"]
        print(f"  {name:>10}: goodput {r.goodput_rps:10,.0f} req/s, "
              f"interactive p99 {p99 * 1e3:7.3f} ms, "
              f"{r.num_batches} executions")
    ratio = report.goodput_rps / legacy_report.goodput_rps
    print(f"  continuous goodput is {ratio:.2f}x legacy under overload")

    # 3. join-in-flight is where the win comes from --------------------
    print(f"\njoin-in-flight: {report.joined_requests}/"
          f"{report.num_requests} requests joined an execution already "
          f"on a device (zero added service time)")

    # 4. admission control + 5. autoscaling ----------------------------
    print(f"admission: shed={report.shed_requests} "
          f"deferred={report.deferred_requests} "
          f"preemptions={report.preemptions} "
          f"max queue depth={report.max_queue_depth}")
    print(f"autoscaler: finished with {report.active_devices} active "
          f"device(s), {len(report.autoscaler_events)} scaling event(s)")
    for ev in report.autoscaler_events:
        print(f"  t={ev['t_s'] * 1e3:8.4f} ms  {ev['from_devices']} -> "
              f"{ev['to_devices']} ({ev['reason']})")

    # the report carries the full per-class breakdown ------------------
    print()
    print(report.format_report())


if __name__ == "__main__":
    main()
