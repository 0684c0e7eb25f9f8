"""Golden digests of whole ``serve()`` sweeps: the serve loop's, and the
book-ahead oracle's.

Every cell builds a fresh server, runs one request stream and hashes what
came back: the report dictionary (key order included) and, per response,
which batch it rode, on which device, and the exact bits of its start,
finish, service and barrier times.  The digests were recorded from the
commit *before* the two serve loops were merged (``python
tests/test_serve_golden.py`` prints the table), so any difference means
the one loop books, batches or accounts differently from the loop it
replaced.  The ``legacy/*`` cells run the retired whole-batch book-ahead
policy, kept as a test oracle (``tests/book_ahead.py``); the
``continuous/*`` cells run the serve loop itself.

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
from book_ahead import book_ahead
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

    The compile is charged a constant 1 ms.  The serve loop chains a cold
    execution's segments from the instant its compile ends, so the
    seconds the response reports are rounded at the magnitude of the
    compile's host time: a compile slower than 2**-9 s (1.95 ms; it
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


def probe_s() -> float:
    """One-request execution time on the default server, as the book-ahead
    default measured it when these cells were recorded."""
    with book_ahead():
        return exec_s(server())


# -- cells of the oracle, several of them also run by the loop -----------
def burst_one_device():
    srv = server()
    t = exec_s(srv)
    return warm_then_serve(srv, stream(24, arrival="bursty", rate_rps=6.0 / t))


def poisson_four_devices(max_batch_size):
    srv = server(pool_size=4, max_batch_size=max_batch_size)
    t = exec_s(srv)
    return warm_then_serve(srv, stream(40, rate_rps=12.0 / t))


def zero_wait():
    srv = server(pool_size=2, max_wait_s=0.0)
    t = exec_s(srv)
    requests = stream(16, rate_rps=4.0 / t)
    # same-instant arrivals must still coalesce under a zero window
    requests += [request(arrival_s=requests[5].arrival_s) for _ in range(3)]
    return warm_then_serve(srv, requests)


def mixed_shards():
    """Widths 1/2/4 on four devices: group reservations, and narrow
    batches backfilling around a wide one."""
    srv = server(pool_size=4, max_batch_size=2)
    t = exec_s(srv)
    requests = [
        request(shards=(1, 2, 4, 2, 1, 1)[i % 6], seed=3 + i % 2,
                arrival_s=i * 0.3 * t)
        for i in range(30)
    ]
    return warm_then_serve(srv, requests)


def two_class_goodput():
    t = probe_s()
    policy = SLOPolicy.default(interactive_target_p99_s=2.5 * t,
                               bulk_target_p99_s=6.0 * t)
    srv = server(pool_size=2, slo_policy=policy)
    return warm_then_serve(srv, stream(36, rate_rps=8.0 / t, class_skew=0.4))


def unknown_slo_tags():
    t = probe_s()
    srv = server(pool_size=2,
                 slo_policy=SLOPolicy.default(bulk_target_p99_s=3.0 * t))
    requests = stream(20, rate_rps=6.0 / t)
    for i, r in enumerate(requests):
        r.slo = ("gold", "bulk", "silver")[i % 3]
    return warm_then_serve(srv, requests)


def empty_stream():
    return server(pool_size=2).serve([])


def dynamic_server(**overrides):
    graph = MutableGraph(load_dataset("CO", scale=SCALE, seed=0), graph_id="dyn")
    srv = server(**overrides)
    srv.register_graph(graph)
    return srv, graph


def mutation_only():
    with pinned_host_clock():
        srv, graph = dynamic_server()
        srv.serve(numbered([request(dataset="dyn", scale=None, seed=0)]))
        mutations = [
            MutationRequest(graph_id="dyn",
                            delta=GraphDelta.edges(inserts=[(i, i + 7)]),
                            arrival_s=i * 1e-4)
            for i in range(4)
        ]
        return srv.serve(numbered(mutations))


def cold_pinned(**overrides):
    """A cold sweep over four programs whose compiles queue on the one
    host: hits on a program still compiling wait for it."""
    with pinned_host_clock():
        srv = server(pool_size=2, **overrides)
        requests = stream(24, rate_rps=1.0 / 4e-4, datasets=("CO", "CI"))
        return srv.serve(numbered(requests))


def churn_pinned(**overrides):
    with pinned_host_clock():
        srv, graph = dynamic_server(pool_size=2, **overrides)
        requests = churn_stream(32, graph=graph, strategies=("Dynamic", "S1"),
                                mutation_every=5, rate_rps=1.0 / 5e-4, seed=4)
        return srv.serve(numbered(requests))


# -- cells of the loop alone -------------------------------------------
def overload_joins():
    srv = server(pool_size=2)
    t = exec_s(srv)
    return warm_then_serve(srv, stream(48, rate_rps=10.0 / t, class_skew=0.3))


def preemption():
    srv = server(max_wait_s=0.0, slo_policy=SLOPolicy.default())
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
    srv = server(slo_policy=policy, max_batch_size=2, max_wait_s=0.0,
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
        pool_size=3, max_wait_s=0.0,
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
    srv = server(pool_size=4, max_wait_s=0.0)
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
    srv = server(pool_size=2, slo_policy=policy)
    t = exec_s(srv)
    requests = stream(30, rate_rps=9.0 / t)
    for i, r in enumerate(requests):
        r.slo = ("bulk", "gold", "silver")[i % 3]
    return warm_then_serve(srv, requests)


def legacy(cell, *args, **kwargs):
    """A cell run through the book-ahead oracle."""
    def run():
        with book_ahead():
            return cell(*args, **kwargs)
    return run


CELLS = {
    "legacy/burst_one_device": legacy(burst_one_device),
    "legacy/poisson_four_devices/batch1": legacy(poisson_four_devices, 1),
    "legacy/poisson_four_devices/batch8": legacy(poisson_four_devices, 8),
    "legacy/zero_wait": legacy(zero_wait),
    "legacy/mixed_shards": legacy(mixed_shards),
    "legacy/two_class_goodput": legacy(two_class_goodput),
    "legacy/unknown_slo_tags": legacy(unknown_slo_tags),
    "legacy/empty_stream": legacy(empty_stream),
    "legacy/mutation_only/pinned": legacy(mutation_only),
    "legacy/cold/pinned": legacy(cold_pinned),
    "legacy/churn/pinned": legacy(churn_pinned),
    "legacy/churn_evict/pinned": legacy(churn_pinned, mutation_policy="evict"),
    "continuous/overload_joins": overload_joins,
    "continuous/preemption": preemption,
    "continuous/admission_shed_and_defer": admission_shed_and_defer,
    "continuous/autoscaler_up_and_down": autoscaler_up_and_down,
    "continuous/sharded_join": sharded_join,
    "continuous/custom_classes": custom_classes,
    "continuous/burst_one_device": burst_one_device,
    "continuous/mixed_shards": mixed_shards,
    "continuous/two_class_goodput": two_class_goodput,
    "continuous/empty_stream": empty_stream,
    "continuous/mutation_only/pinned": mutation_only,
    "continuous/cold/pinned": cold_pinned,
    "continuous/churn/pinned": churn_pinned,
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
    rows = [
        (r.request_id, r.batch_id, r.batch_size, r.device,
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
# All 25 were recorded again, by the same command, by the change that
# made a device keep the program inputs it was sent for the rest of a
# sweep (a batch pays the PCIe transfer only where its devices do not
# hold them) and numbered batches per sweep, hashed as they come: the
# report gained the ``pcie_*`` fields and counters.  With every transfer
# charged again, that change reproduces each cell's response rows and
# report, the new keys aside, bit for bit.
# The 13 ``continuous/*`` cells were recorded again, by the same command,
# by the change that made continuous batching the only dispatch policy
# and booked an unsharded execution as one reservation: the report lost
# its ``scheduler`` key.  The parent's command, with that key popped from
# each report dictionary, prints 12 of those 13 rows as they are here; the
# 13th, ``continuous/sharded_join``, differs from its popped row only in
# ``sharded_requests`` (and its counter), 2 -> 5: the same change counts a
# request that joins a sharded execution as a sharded request.  The 12
# ``legacy/*`` rows, now the book-ahead oracle's, are the parent's.
# Eight ``continuous/*`` cells were recorded again, by the same command,
# by the change that made a queued group board the execution of its
# ``batch_key`` that starts (``overload_joins``, ``admission_shed_and_defer``,
# ``autoscaler_up_and_down``, ``custom_classes``, ``burst_one_device``,
# ``two_class_goodput``, ``cold/pinned``, ``churn/pinned``): each runs fewer
# executions with more joined requests.  The command reproduces the old
# table at that change's parent and prints the other 17 rows unchanged.
# Never regenerate the table to make a change pass.
GOLDEN_DIGESTS: dict[str, str] = {
    'legacy/burst_one_device':
        'c09a9bc8b40b7a390592d31a9e78ab09eaa8b2ade43c46e29b986faaeb6f2bd3',
    'legacy/poisson_four_devices/batch1':
        'd607dd59d945a34d9f396ef0acc39e86b04bb0d6767f3005237ab146cf6e2fb1',
    'legacy/poisson_four_devices/batch8':
        'b4ede08c229c56a57620d588819946789ebcde35c329b30118a23b653b091744',
    'legacy/zero_wait':
        'f1c2d1dfaa8a86e0bd7890ed1fcef5132bde96afedfaf714883bdb1c585041e8',
    'legacy/mixed_shards':
        'e71095593986b965b6a8910e5b010d723b1e863b5b20dda3e16d958918245729',
    'legacy/two_class_goodput':
        '7abbe2347873fc81e2989b69fdd912d324610672f297cf30e731a66bf66bc45b',
    'legacy/unknown_slo_tags':
        'a19524af6f497a36e85de73a6bb340ef859e681757b73d95fea265c130bc9707',
    'legacy/empty_stream':
        '72ed31d373600d482639da113dda1783e2c30b060c3a24d003255d39d8638716',
    'legacy/mutation_only/pinned':
        '64e494365d1d4484e30574325aae8f041b723d6fb82103eb64ee7ede75cab543',
    'legacy/cold/pinned':
        '8970b37d5e35070c033a1e0e419f56a223a2c89c3a5745d69c1260a058a4001e',
    'legacy/churn/pinned':
        '1b515d74b94ad84c006a33fdc1731bbe6f59ede8327398481504a6d10053807d',
    'legacy/churn_evict/pinned':
        '95b816ea94e3d17466f594e1bf7a31795300e75d9e3bf27cd5840e3c9b13b07c',
    'continuous/overload_joins':
        '3364779c53af571fb5a13d96fc3943745fbf2af491377bdbba8a51a5a0de9f84',
    'continuous/preemption':
        '7085435c9ae4170799bc8e38cecc5b5044e29053bd0dffb7a21aa4c42bb7a16a',
    'continuous/admission_shed_and_defer':
        'd3a7e935a2e6c44bc7b6b9cd79887e216c3f9bab7dd5cb831980e099a88760d7',
    'continuous/autoscaler_up_and_down':
        '8882f15ed61c9272b13861b214358e536fc119db8e76b1018c10faa86ac7048c',
    'continuous/sharded_join':
        '10cc666c90a3c97f890d8725424b7d8ec530be241bdbada7c28b078c3409d857',
    'continuous/custom_classes':
        '06eb3216e66e942c381abfe4b584f0774ab0f6b372e865dab4cf9cbb918217cb',
    'continuous/burst_one_device':
        'dc74ab5e4771a6cbf20ab16a2498171f1b65b8a5dd3084a81fdc8ee96d11a397',
    'continuous/mixed_shards':
        '364d95dd2ebac2b6f6125ae1ea454ce5b5030f2ce83cf23206b924ab5cbc9249',
    'continuous/two_class_goodput':
        'f0bdab6b70f7e1f3d2aba8c8310e180bca1685ad90d182e7db29d7cd3a580396',
    'continuous/empty_stream':
        '99b36182fa4890751854b4b4a5ccf3d23e73bea209e29ba56c606dfd46f9b07a',
    'continuous/mutation_only/pinned':
        '2498f6c62c1f207c2248dfab4571718ac56a4081fcfab534c90e4007e4092271',
    'continuous/cold/pinned':
        'a2b15ee08c72f99b7d91d34b0bdbc082df938d7d22376541eb21b97a6ba6ec3d',
    'continuous/churn/pinned':
        '1814b4922ca7e93be58b02cf3409d071dd12a4e86f639c2c2fceb6899bd7ca17',
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
    assert sharded.sharded_requests == sum(r.shards == 2 for r in sharded.responses)
    assert sweep("continuous/cold/pinned").cache_misses == 4


if __name__ == "__main__":  # regenerate the table (only ever from a trusted commit)
    print("GOLDEN_DIGESTS = {")
    for cell in CELLS:
        print(f"    {cell!r}:\n        {sweep_digest(cell, sweep(cell))!r},")
    print("}")
