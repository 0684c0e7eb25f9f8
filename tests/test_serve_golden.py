"""Golden digests of whole ``serve()`` sweeps, under both dispatch policies.

Every cell builds a fresh server, runs one request stream and hashes what
came back: the report dictionary (key order included) and, per response,
which batch it rode, on which device, and the exact bits of its start,
finish, service and barrier times.  The digests were recorded from the
commit *before* the two serve loops were merged (``python
tests/test_serve_golden.py`` prints the table), so any difference means
the one loop books, batches or accounts differently from the loop it
replaced.

Warm sweeps are deterministic as they are, apart from the compile seconds
the program cache measures on the host; those two fields are dropped.  The
``pinned`` cells replace every host-measured duration (compile time, patch
time) by a constant, so compile queueing and host serialisation on the
virtual clock are in the digest too and nothing is dropped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
from unittest import mock

import pytest
from conftest import make_tiny_config

from repro.compiler.compile import CompileTimings
from repro.datasets import load_dataset
from repro.dyngraph import GraphDelta, MutableGraph
from repro.dyngraph.patcher import ProgramPatcher
from repro.sched import AdmissionController, PoolAutoscaler, SLOClass, SLOPolicy
from repro.serve import (
    InferenceRequest,
    InferenceServer,
    MutationRequest,
    churn_stream,
    synthesize,
)

SCALE = 0.15
COMPILE_S = 3e-3
PATCH_S = 2.5e-4


def server(**overrides) -> InferenceServer:
    base = dict(config=make_tiny_config(), pool_size=1, max_batch_size=4,
                max_wait_s=1e-3)
    base.update(overrides)
    return InferenceServer(**base)


def request(**overrides) -> InferenceRequest:
    base = dict(model="GCN", dataset="CO", scale=SCALE, seed=3)
    base.update(overrides)
    return InferenceRequest(**base)


def stream(n, **overrides) -> list:
    base = dict(arrival="poisson", models=("GCN",), datasets=("CO",),
                strategies=("Dynamic", "S1"), prune_levels=(0.0, 0.5),
                scale=SCALE, seed=3)
    base.update(overrides)
    return synthesize(n, **base)


def numbered(requests: list) -> list:
    """Request ids come from a process-wide counter; number the stream
    from zero so the digest does not depend on what ran earlier."""
    for i, r in enumerate(requests):
        r.request_id = i
    return requests


def exec_s(srv: InferenceServer, **overrides) -> float:
    """Warm one program; returns its one-request execution time.

    The compile is charged a constant 1 ms.  The continuous loop books a
    cold execution segment by segment from the instant its compile ends,
    so the seconds the response reports are rounded at the magnitude of
    the compile's host time: a compile slower than 2**-9 s (1.95 ms; it
    takes about 1.2) moves them by a few ulp, and with them every arrival
    time a cell derives from this number.  The table was recorded below
    that bound, where any compile time gives the same float."""
    with mock.patch.object(CompileTimings, "total_s", property(lambda self: 1e-3)):
        return srv.serve([request(**overrides)]).responses[0].execute_s


def warm_then_serve(srv: InferenceServer, requests: list):
    requests = numbered(requests)
    srv.serve(list(requests))
    return srv.serve(list(requests))


@contextlib.contextmanager
def pinned_host_clock():
    """Every host-measured second the server charges to the virtual
    clock becomes a constant: compiles take ``COMPILE_S``, patches (and
    their recompile fallbacks) ``PATCH_S``."""
    patch = ProgramPatcher.patch

    def pinned_patch(self, program, new_data, applied):
        patched, report = patch(self, program, new_data, applied)
        return patched, dataclasses.replace(report, wall_s=PATCH_S)

    with mock.patch.object(CompileTimings, "total_s",
                           property(lambda self: COMPILE_S)), \
            mock.patch.object(ProgramPatcher, "patch", pinned_patch):
        yield


# -- default policy -----------------------------------------------------
def burst_one_device(scheduler):
    srv = server(scheduler=scheduler)
    t = exec_s(srv)
    return warm_then_serve(srv, stream(24, arrival="bursty", rate_rps=6.0 / t))


def poisson_four_devices(scheduler, max_batch_size):
    srv = server(scheduler=scheduler, pool_size=4, max_batch_size=max_batch_size)
    t = exec_s(srv)
    return warm_then_serve(srv, stream(40, rate_rps=12.0 / t))


def zero_wait(scheduler):
    srv = server(scheduler=scheduler, pool_size=2, max_wait_s=0.0)
    t = exec_s(srv)
    requests = stream(16, rate_rps=4.0 / t)
    # same-instant arrivals must still coalesce under a zero window
    requests += [request(arrival_s=requests[5].arrival_s) for _ in range(3)]
    return warm_then_serve(srv, requests)


def mixed_shards(scheduler):
    """Widths 1/2/4 on four devices: group reservations, and narrow
    batches backfilling around a wide one."""
    srv = server(scheduler=scheduler, pool_size=4, max_batch_size=2)
    t = exec_s(srv)
    requests = [
        request(shards=(1, 2, 4, 2, 1, 1)[i % 6], seed=3 + i % 2,
                arrival_s=i * 0.3 * t)
        for i in range(30)
    ]
    return warm_then_serve(srv, requests)


def two_class_goodput(scheduler):
    probe = server()
    t = exec_s(probe)
    policy = SLOPolicy.default(interactive_target_p99_s=2.5 * t,
                               bulk_target_p99_s=6.0 * t)
    srv = server(scheduler=scheduler, pool_size=2, slo_policy=policy)
    return warm_then_serve(srv, stream(36, rate_rps=8.0 / t, class_skew=0.4))


def unknown_slo_tags(scheduler):
    probe = server()
    t = exec_s(probe)
    srv = server(scheduler=scheduler, pool_size=2,
                 slo_policy=SLOPolicy.default(bulk_target_p99_s=3.0 * t))
    requests = stream(20, rate_rps=6.0 / t)
    for i, r in enumerate(requests):
        r.slo = ("gold", "bulk", "silver")[i % 3]
    return warm_then_serve(srv, requests)


def empty_stream(scheduler):
    return server(scheduler=scheduler, pool_size=2).serve([])


def dynamic_server(scheduler, **overrides):
    graph = MutableGraph(load_dataset("CO", scale=SCALE, seed=0), graph_id="dyn")
    srv = server(scheduler=scheduler, **overrides)
    srv.register_graph(graph)
    return srv, graph


def mutation_only(scheduler):
    with pinned_host_clock():
        srv, graph = dynamic_server(scheduler)
        srv.serve(numbered([request(dataset="dyn", scale=None, seed=0)]))
        mutations = [
            MutationRequest(graph_id="dyn",
                            delta=GraphDelta.edges(inserts=[(i, i + 7)]),
                            arrival_s=i * 1e-4)
            for i in range(4)
        ]
        return srv.serve(numbered(mutations))


def cold_pinned(scheduler, **overrides):
    """A cold sweep over four programs whose compiles queue on the one
    host: hits on a program still compiling wait for it."""
    with pinned_host_clock():
        srv = server(scheduler=scheduler, pool_size=2, **overrides)
        requests = stream(24, rate_rps=1.0 / 4e-4, datasets=("CO", "CI"))
        return srv.serve(numbered(requests))


def churn_pinned(scheduler, **overrides):
    with pinned_host_clock():
        srv, graph = dynamic_server(scheduler, pool_size=2, **overrides)
        requests = churn_stream(32, graph=graph, strategies=("Dynamic", "S1"),
                                mutation_every=5, rate_rps=1.0 / 5e-4, seed=4)
        return srv.serve(numbered(requests))


# -- continuous policy --------------------------------------------------
def overload_joins():
    srv = server(scheduler="continuous", pool_size=2)
    t = exec_s(srv)
    return warm_then_serve(srv, stream(48, rate_rps=10.0 / t, class_skew=0.3))


def preemption():
    srv = server(scheduler="continuous", max_wait_s=0.0,
                 slo_policy=SLOPolicy.default())
    t = exec_s(srv, seed=3)
    exec_s(srv, seed=4), exec_s(srv, seed=5)
    requests = [
        request(slo="bulk", seed=3, arrival_s=0.0),
        request(slo="interactive", seed=4, arrival_s=0.45 * t),
        request(slo="bulk", seed=3, arrival_s=0.5 * t),     # joins the paused run
        request(slo="bulk", seed=5, arrival_s=0.6 * t),
        request(slo="interactive", seed=4, arrival_s=1.7 * t),
    ]
    return srv.serve(numbered(requests))


def admission_shed_and_defer():
    policy = SLOPolicy.default(interactive_queue_depth=2, bulk_queue_depth=3)
    srv = server(scheduler="continuous", slo_policy=policy, max_batch_size=2,
                 max_wait_s=0.0,
                 admission=AdmissionController(policy, hard_limit_factor=3.0))
    t = exec_s(srv, seed=3)
    exec_s(srv, seed=4), exec_s(srv, seed=5)
    requests = [
        request(slo=("bulk", "interactive", "bulk")[i % 3], seed=3 + i % 3,
                arrival_s=i * t * 2e-2)
        for i in range(30)
    ]
    return srv.serve(numbered(requests))


def autoscaler_up_and_down():
    srv = server(
        scheduler="continuous", pool_size=3, max_wait_s=0.0,
        autoscaler=PoolAutoscaler(min_devices=1, scale_up_queue_per_device=2.0,
                                  provision_delay_s=1e-4),
    )
    t = exec_s(srv, seed=9)
    exec_s(srv, seed=9, prune=0.5)
    burst = stream(30, rate_rps=12.0 / t, seed=9)
    # a late trickle lets the drained pool scale back down
    tail = [request(seed=9, arrival_s=burst[-1].arrival_s + (8 + 3 * i) * t)
            for i in range(4)]
    return srv.serve(numbered(burst + tail))


def sharded_join():
    srv = server(scheduler="continuous", pool_size=4, max_wait_s=0.0)
    t = exec_s(srv, shards=2)
    exec_s(srv)
    requests = [request(shards=2, arrival_s=0.0)] + [
        request(shards=2, arrival_s=f * t) for f in (0.2, 0.5, 0.8, 1.4)
    ] + [request(arrival_s=0.3 * t), request(arrival_s=0.35 * t)]
    return srv.serve(numbered(requests))


def custom_classes():
    """Per-class windows and three priorities (not the default tiers)."""
    policy = SLOPolicy((
        SLOClass("gold", priority=5, max_wait_s=0.0, target_p99_s=1.0),
        SLOClass("silver", priority=2, max_wait_s=2e-4),
        SLOClass("bulk", priority=0),
    ))
    srv = server(scheduler="continuous", pool_size=2, slo_policy=policy)
    t = exec_s(srv)
    requests = stream(30, rate_rps=9.0 / t)
    for i, r in enumerate(requests):
        r.slo = ("bulk", "gold", "silver")[i % 3]
    return warm_then_serve(srv, requests)


CELLS = {
    "legacy/burst_one_device": lambda: burst_one_device("legacy"),
    "legacy/poisson_four_devices/batch1": lambda: poisson_four_devices("legacy", 1),
    "legacy/poisson_four_devices/batch8": lambda: poisson_four_devices("legacy", 8),
    "legacy/zero_wait": lambda: zero_wait("legacy"),
    "legacy/mixed_shards": lambda: mixed_shards("legacy"),
    "legacy/two_class_goodput": lambda: two_class_goodput("legacy"),
    "legacy/unknown_slo_tags": lambda: unknown_slo_tags("legacy"),
    "legacy/empty_stream": lambda: empty_stream("legacy"),
    "legacy/mutation_only/pinned": lambda: mutation_only("legacy"),
    "legacy/cold/pinned": lambda: cold_pinned("legacy"),
    "legacy/churn/pinned": lambda: churn_pinned("legacy"),
    "legacy/churn_evict/pinned": lambda: churn_pinned(
        "legacy", mutation_policy="evict"),
    "continuous/overload_joins": overload_joins,
    "continuous/preemption": preemption,
    "continuous/admission_shed_and_defer": admission_shed_and_defer,
    "continuous/autoscaler_up_and_down": autoscaler_up_and_down,
    "continuous/sharded_join": sharded_join,
    "continuous/custom_classes": custom_classes,
    "continuous/burst_one_device": lambda: burst_one_device("continuous"),
    "continuous/mixed_shards": lambda: mixed_shards("continuous"),
    "continuous/two_class_goodput": lambda: two_class_goodput("continuous"),
    "continuous/empty_stream": lambda: empty_stream("continuous"),
    "continuous/mutation_only/pinned": lambda: mutation_only("continuous"),
    "continuous/cold/pinned": lambda: cold_pinned("continuous"),
    "continuous/churn/pinned": lambda: churn_pinned("continuous"),
}


@functools.lru_cache(maxsize=None)
def sweep(key: str):
    """The report of one cell (each cell is run once per process)."""
    return CELLS[key]()


def strip_wallclock(d: dict) -> dict:
    """Drop the two host-measured fields of a report dictionary."""
    d = dict(d)
    d.pop("compile_s"), d.pop("compile_saved_s")
    metrics = {k: dict(v) for k, v in d["metrics"].items()}
    metrics["counters"].pop("serve.compile_s")
    metrics["counters"].pop("serve.compile_saved_s")
    d["metrics"] = metrics
    return d


def exact(value):
    """Floats as hex, so the digest moves when and only when a bit does;
    dictionary order is kept, so it moves when a key does."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [[k, exact(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return value


def sweep_payload(key: str, report) -> list:
    """Everything the digest covers, bit-exact and JSON-serialisable."""
    summary = report.to_dict()
    if not key.endswith("/pinned"):
        summary = strip_wallclock(summary)
    first_batch = min((r.batch_id for r in report.responses), default=0)
    rows = [
        (r.request_id, r.batch_id - first_batch, r.batch_size, r.device,
         r.shards, r.start_s, r.finish_s, r.service_s, r.barrier_s,
         r.compile_s, r.cache_hit, r.joined, r.deferred, r.slo)
        for r in report.responses
    ]
    return exact([summary, rows])


def payload_digest(payload: list) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def sweep_digest(key: str, report) -> str:
    return payload_digest(sweep_payload(key, report))


def first_difference(a: list, b: list) -> str | None:
    """Where two payloads part: the first differing response row, else
    the first differing report entry; ``None`` when they are equal."""
    (summary_a, rows_a), (summary_b, rows_b) = a, b
    for what, xs, ys in (("response row", rows_a, rows_b),
                         ("report entry", summary_a, summary_b)):
        for i, (x, y) in enumerate(zip(xs, ys)):
            if x != y:
                return f"{what} {i}: {str(x)[:400]} then {str(y)[:400]}"
        if len(xs) != len(ys):
            return f"{len(xs)} then {len(ys)} {what}s"
    return None


# Recorded with ``python tests/test_serve_golden.py`` at commit e087005,
# the last one with two serve loops.  The three cells that serve sharded
# requests (``*/mixed_shards``, ``continuous/sharded_join``) were recorded
# again, by the same command, by the change that made the sharded schedule
# overlap halo transfers with compute and priced shards in modelled cycles:
# an execution's seconds moved, the loop that books them did not, and the
# command prints the other 22 rows unchanged on both sides of that change.
# The 21 cells that run an inference (every one serves Dynamic) were
# recorded once more by the change that made the Analyzer minimise the
# cycles the core bills (``max(compute, load + transform)``) instead of
# Table IV's compute: each execution's seconds moved again, ``sched/`` and
# ``serve/`` are not in that diff, the command reproduces the old table at
# its parent and prints the four cells that run nothing unchanged.
# Never regenerate the table to make a change pass.
GOLDEN_DIGESTS: dict[str, str] = {
    'legacy/burst_one_device':
        '9973f3b8db74c87d05f503cf77f98a4eadafdd89bc5b5379a12c177d67931431',
    'legacy/poisson_four_devices/batch1':
        '21a9a201dc1a0a945c4cba6a38420837beed119af4a3f2423532bf8917e41b85',
    'legacy/poisson_four_devices/batch8':
        '4f4fcf6e6bb3c5bc6d71ca9f2e27a867742e59f7c5c938ebc6382c6d8ab22382',
    'legacy/zero_wait':
        'cd98d46387965b9be6f33b739bb6c078ea67cdc4772238fb2511a6b35f486c1d',
    'legacy/mixed_shards':
        '3304109447bcfeffbd62232cdfa9e23af4ef4ba5ff3c9fce5ef962de7dc5d0e1',
    'legacy/two_class_goodput':
        '3635716adcf14a63ef965cb427eebb2789801e5f4423175f4cb5ea82df78526a',
    'legacy/unknown_slo_tags':
        '8b28641b0a4411bad5f563f3e1c393114b681b7a147639beda5d6b443fb6cf53',
    'legacy/empty_stream':
        '8f23ce71d3443b1f54a09ccb7c59ff1606c494ea1c7a4040a735a48c49078a8b',
    'legacy/mutation_only/pinned':
        '3f519c851bc623b4abf46bbd8bae3c2869dc189032ef29b0594627c06ff9183f',
    'legacy/cold/pinned':
        'b239bcdc2940a124b7ab29053d1acb6e8711a00676699c4b763ad55257d67ae0',
    'legacy/churn/pinned':
        '560240aa2e590b931c7592312f8d916e5d8a8c20fb5406197093ca2742a6465b',
    'legacy/churn_evict/pinned':
        'e6329708ddaad2e86a8dca9c33da7cfea2f3d22354ae7d779268a1a887d1b5c0',
    'continuous/overload_joins':
        '0e68aa913b49a00db2d962373142079c7435b54df012b12ae1b876d196785e2b',
    'continuous/preemption':
        '1b440adf838871d5e2d7f850559030e6146b6dc4652b48a527da4f1d47822b19',
    'continuous/admission_shed_and_defer':
        '9944e7cf0b2dbda8d44ed46c3245464feff32a3b7506b17a8d7d3ca363ff656b',
    'continuous/autoscaler_up_and_down':
        'a7d6040f7965a216890cf64a2417b55a31bb36ac6d3606bd6eb6993e847b074d',
    'continuous/sharded_join':
        '28b3fce97544b575c0930c72145090190e3ffbecb93f9813a6f755f2321e69eb',
    'continuous/custom_classes':
        'a1001bd50c37751ba270561f700dc25c38b373ad08576c6c025cf3b8c517bb7c',
    'continuous/burst_one_device':
        '7dad44ee1ea8d637ff788c8c90c53fac1cae0205fb54e4472d875312f488ac78',
    'continuous/mixed_shards':
        '2dc795a25356fb6d86cf5f719c890334a2ba9b1b26dfbda6f279be06ef85954e',
    'continuous/two_class_goodput':
        'c0afbba4e19cfbebc709cf58c0f09f68473e498e1681cc0ff9cd8133bf9a22a3',
    'continuous/empty_stream':
        '9c32585684613694413db4dd0ceb54e4304f4790a15e3e3da20b9240c02fac4e',
    'continuous/mutation_only/pinned':
        '230b6b507eb1eec828a331633e7f5ccb2d23fb61bb1af6f3687ba4dba83f7a5c',
    'continuous/cold/pinned':
        'a5521fd9f2293e730071405196dbcc3087e9689590a0e7b71387e51c5a55952d',
    'continuous/churn/pinned':
        'b9818395d0eb31f1e8e19bdaeb1c1884522876168ae06aebee8c0ab3b4542e2f',
}


def test_table_is_complete():
    assert set(GOLDEN_DIGESTS) == set(CELLS)


@pytest.mark.parametrize("key", CELLS)
def test_sweep_is_bit_identical_to_recorded(key, tmp_path):
    payload = sweep_payload(key, sweep(key))
    if payload_digest(payload) == GOLDEN_DIGESTS[key]:
        return
    # The table holds digests only, so say what can be said without the
    # recorded payload: keep this run's, and run the cell a second time.
    # Two runs of one tree that differ are a host-clock leak (ROADMAP
    # item 1) and the first differing row is where it enters; two equal
    # runs are a real change, to be diffed against the dump of a passing
    # tree.
    dump = tmp_path / "payload.json"
    dump.write_text(json.dumps(payload, indent=1))
    again = sweep_payload(key, CELLS[key]())
    moved = first_difference(payload, again)
    if moved:
        verdict = f"NOT reproducible, a second run of this tree differs at {moved}"
    else:
        verdict = "reproducible, a second run of this tree is identical"
    pytest.fail(f"{key}: digest {payload_digest(payload)} != recorded "
                f"{GOLDEN_DIGESTS[key]}; {verdict}; payload dumped to {dump}")


def test_cells_reach_what_they_name():
    """A digest pins whatever happened; this pins that the interesting
    thing did happen."""
    report = sweep("legacy/mixed_shards")
    assert report.max_shard_width == 4 and report.sharded_batches > 2
    assert sweep("legacy/cold/pinned").cache_misses == 4
    churn = sweep("legacy/churn/pinned")
    assert churn.num_mutations == 6 and churn.num_patches > 0
    assert sweep("legacy/churn_evict/pinned").mutation_evictions > 0
    assert sweep("legacy/mutation_only/pinned").num_patches == 4
    assert sweep("legacy/unknown_slo_tags").class_breakdown.keys() == {
        "bulk", "gold", "silver"}
    assert sweep("continuous/overload_joins").joined_requests > 10
    assert sweep("continuous/preemption").preemptions >= 1
    admission = sweep("continuous/admission_shed_and_defer")
    assert admission.shed_requests > 0 and admission.deferred_requests > 0
    scaled = [e["to_devices"] - e["from_devices"]
              for e in sweep("continuous/autoscaler_up_and_down").autoscaler_events]
    assert max(scaled) > 0 and min(scaled) < 0
    sharded = sweep("continuous/sharded_join")
    assert any(r.joined and r.shards == 2 for r in sharded.responses)
    assert sweep("continuous/cold/pinned").cache_misses == 4


if __name__ == "__main__":  # regenerate the table (only ever from a trusted commit)
    print("GOLDEN_DIGESTS = {")
    for cell in CELLS:
        print(f"    {cell!r}:\n        {sweep_digest(cell, sweep(cell))!r},")
    print("}")
