#!/usr/bin/env python
"""Continuous batching: SLO-aware serving under overload.

Every `Engine.serve` sweep runs the `repro.sched` serve loop,
an event-driven continuous-batching scheduler:

1. tag a synthetic workload with SLO classes (`class_skew` controls the
   interactive fraction);
2. join-in-flight: same-program requests attach to an execution already
   on a device at the next layer boundary, at zero added service cost,
   so an overloaded stream needs far fewer executions than requests;
3. goodput — requests that met their SLO target per second — graded per
   class against the sweep's SLO policy;
4. admission control sheds hopeless interactive requests and defers
   bulk ones instead of letting queues grow without bound;
5. the pool autoscaler grows the active device set under backlog and
   parks devices again when the burst drains.
"""

from repro.engine import Engine
from repro.sched import AdmissionController, PoolAutoscaler, SLOPolicy
from repro.serve import synthesize


def main() -> None:
    # 1. a bursty overloaded workload: 30% interactive, 70% bulk -------
    requests = synthesize(
        48,
        arrival="poisson",
        rate_rps=4e5,
        models=("GCN", "GIN"),
        datasets=("CO",),
        seed=11,
        class_skew=0.3,
    )
    n_inter = sum(1 for r in requests if r.slo == "interactive")
    print(f"workload: {len(requests)} requests, {n_inter} interactive, "
          f"{len(requests) - n_inter} bulk (poisson @ 400k req/s)")

    # 2 + 3. the serve loop, graded against one SLO policy --------------
    policy = SLOPolicy.default(interactive_target_p99_s=2e-4)
    plain = Engine(pool_size=2)
    plain.serve(requests, max_batch_size=8, slo_policy=policy)  # cold: populate the cache
    plain_report = plain.serve(requests, max_batch_size=8, slo_policy=policy)  # warm: graded

    # 4 + 5. the same loop with queue bounds and autoscaling -----------
    bounded = SLOPolicy.default(interactive_target_p99_s=2e-4,
                                interactive_queue_depth=4, bulk_queue_depth=4)
    managed = Engine(pool_size=2)
    knobs = dict(max_batch_size=8, slo_policy=bounded,
                 admission=AdmissionController(bounded),
                 autoscaler=PoolAutoscaler(min_devices=1))
    managed.serve(requests, **knobs)
    report = managed.serve(requests, **knobs)

    print("\ncontinuous batching (warm cache, virtual clock):")
    for name, r in (("plain", plain_report), ("managed", report)):
        p99 = r.class_breakdown["interactive"]["p99_s"]
        print(f"  {name:>8}: goodput {r.goodput_rps:10,.0f} req/s, "
              f"interactive p99 {p99 * 1e3:7.3f} ms, "
              f"{r.num_batches} executions for {r.num_requests} requests")

    print(f"\njoin-in-flight: {report.joined_requests}/"
          f"{report.num_requests} requests joined an execution already "
          f"on a device (zero added service time)")
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
