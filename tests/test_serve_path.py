"""The serve path says each thing once: one door to a simulated
execution, one booking, one pass over a sweep's responses.

The digests below were recorded at commit 20ed90e, before the source
edits that collapsed the three (``PYTHONPATH=src:tests python
tests/test_serve_path.py`` prints all three tables; at 20ed90e the
execution table was read off ``InferenceServer._execute``'s
``_RunMemo``).  The ``x2`` rows of the execution table were recorded
again, by that command, by the change that made the sharded schedule
overlap halo transfers with compute and priced shards in modelled cycles:
it prints the ``x1`` rows and the other two tables unchanged on both
sides of that change.  The GraphSAGE, GIN and SGC ``S1`` rows and both
report-dictionary digests were recorded again, by the same command, by
the change that billed the AHM's format passes beside the DDR transfer
they convert instead of after it; it prints the booking digest and every
other row unchanged.  Both report-dictionary digests were recorded once
more, by the same command, by the change that let a device keep the
program inputs it was sent for the rest of a sweep (warm batches stop
paying PCIe; the report counts ``pcie_*``); the booking digest and every
execution row are unchanged.  The ``continuous`` report digest was
recorded again, by the same command, by the change that made continuous
batching the only dispatch policy: the report lost its ``scheduler`` key,
and the parent's command with that key popped prints the same digest.
The ``legacy`` digest is now the book-ahead oracle's (``tests/book_ahead.py``)
and the parent's.  The booking digest was recorded again, by the same
command, by the change that replaced the pool's four booking methods
(``submit``, ``submit_on``, ``submit_run``, ``submit_group``) by one,
``book``: the methods its script called were deleted, and the script was
rewritten over ``book`` with every case it covered; the other two tables
print unchanged.  Never regenerate a table to make a change pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import json

import numpy as np
import pytest
from book_ahead import book_ahead, peek_group
from conftest import cold_then_warm, make_tiny_config
from test_serve_golden import exact, strip_wallclock

from repro.engine import Engine
from repro.engine.pool import AcceleratorPool
from repro.obs import Tracer
from repro.serve import InferenceRequest, estimate_service_s, saturating_rate, synthesize

SCALE = 0.15
MODELS = ("GCN", "GraphSAGE", "GIN", "SGC")


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(exact(payload)).encode()).hexdigest()


# -- one booking --------------------------------------------------------
def booking_payload() -> list:
    """A scripted sequence over the one booking: equal-start ties under
    ``peek_device`` and the oracle's ``peek_group``, a chained run of
    segments, per-member busy seconds, a parked device, a provisioning
    delay and every argument error.  Every time is dyadic, so the floats
    are exact."""
    pool = AcceleratorPool(make_tiny_config(), 4)
    pool.tracer = Tracer()

    def earliest(segments, ready_s, **kwargs):
        device = pool.peek_device(ready_s)
        return device, *pool.book([device], segments, ready_s, **kwargs)

    def group(n, segments, ready_s, **kwargs):
        devices = peek_group(pool, n, ready_s)[0]
        return devices, *pool.book(devices, segments, ready_s, **kwargs)

    returned = [
        earliest([1.0], 0.0, batch_id=0, batch_size=2),  # all idle: dev0
        earliest([0.5], 0.0, batch_id=1),
        # every device starts at 2.0: the longest idle wins
        earliest([0.25], 2.0, batch_id=2, batch_size=3),
        pool.book([3], [0.75, 0.5, 0.125], 0.125, batch_id=3, batch_size=4),
        # both members start when dev2 frees, each charged its own seconds
        pool.book([2, 3], [0.5, 0.25], 0.375, busy_s=[0.25, 0.375], batch_id=4,
                  batch_size=2),
        group(3, [0.125], 0.0, batch_id=5),
    ]
    pool.set_active(2, now=3.0)
    returned += [
        earliest([0.5], 0.0, batch_id=6),  # dev2/dev3 are parked
        pool.book([3], [0.25], 0.0, batch_id=7),  # ... but can be named
        # both active devices start at 5.0: the stable sort keeps dev0 first
        group(2, [0.25], 5.0, busy_s=[0.0625, 0.125], batch_id=8),
    ]
    pool.set_active(4, now=6.0, provision_delay_s=0.5)
    returned += [
        earliest([0.125], 6.0, batch_id=9),
        group(4, [1.0], 0.0, batch_id=10, batch_size=8),
        earliest([0.0], 0.0),
    ]
    errors = []
    for call in (
        lambda: pool.book([0], [1.0, -1.0], 0.0),
        lambda: pool.book([4], [1.0], 0.0),
        lambda: pool.book([], [1.0], 0.0),
        lambda: pool.book([0, 1], [1.0], 0.0, busy_s=[1.0]),
        lambda: peek_group(pool, 5, 0.0),
    ):
        with pytest.raises(ValueError) as err:
            call()
        errors.append(str(err.value))
    return [
        returned,
        [(e.device, e.start, e.end, e.batch_id, e.batch_size)
         for e in pool.events],
        [float(b) for b in pool.busy],
        [float(a) for a in pool.available],
        [(s.track, s.name, s.cat, s.start_s, s.dur_s, s.kind, s.args)
         for s in pool.tracer.spans],
        errors,
    ]


BOOKING_DIGEST = (
    "75e3a64d45c31fb1e2ff937dad63016d218c9ebe73f0444a2484e8199204ab07"
)


def test_the_booking_table_is_the_parents():
    assert digest(booking_payload()) == BOOKING_DIGEST


def test_every_booking_is_one_event_and_one_span():
    payload = booking_payload()
    events, spans = payload[1], payload[4]
    assert len(events) == len(spans) == 19
    for (device, start, end, *_), (track, _, cat, s0, dur, *_) in zip(
        events, spans
    ):
        assert (track, cat, s0, dur) == (
            f"pool/dev{device}", "dispatch", start, end - start)


# -- one door, one record -----------------------------------------------
EXECUTION_CELLS = [
    (model, shards, strategy)
    for model in MODELS for shards in (1, 2) for strategy in ("Dynamic", "S1")
]

#: sha256 over the seven numbers the scheduler reads off an execution
#: (``float.hex``), as ``_RunMemo`` held them at 20ed90e (``x2`` rows:
#: as the overlapped sharded schedule first produced them; ``Dynamic``
#: rows: as the Analyzer's ``max(compute, load + transform)`` rule first
#: produced them; GraphSAGE, GIN and SGC ``S1`` rows: as the core first
#: billed its AHM passes beside the transfer, ``max(compute, memory,
#: transform)``, which moved no ``Dynamic`` row)
EXECUTION_DIGESTS = {
    "GCN/x1/Dynamic":
        "2aa029d02d9dc03ce9718636f8522e765eb9f6eee4766b26792847d4e254ccd0",
    "GCN/x1/S1":
        "30d283235a308a5f6bf3230a252371f7a04e153502cbbc3251853f6d6eed6d5a",
    "GCN/x2/Dynamic":
        "7523044de679cb6547d11ad25ff630fd972f1a3d8c0e9537807ccf52d224a57b",
    "GCN/x2/S1":
        "9f4a53e1c7423e36ef1b23053a211a3913a9049e13b264563c446ac7c82eb433",
    "GraphSAGE/x1/Dynamic":
        "9f55de40a1b8adac63932bf652872b96168e72b89c531c6c38ef11e709e3c68c",
    "GraphSAGE/x1/S1":
        "faa8dc98921a091db4b202a2c05f8dc38e6f674d94089131e6721d39799fbaee",
    "GraphSAGE/x2/Dynamic":
        "b9afecd72a5f3005b70fcc55d67f51dc16d0410bb0eb17b5005c18676556972f",
    "GraphSAGE/x2/S1":
        "2d8b388827e7802e13fbfdce292e79bbc7901cbda648877d62742f697589bb99",
    "GIN/x1/Dynamic":
        "3ffb430a72b84b4feb280d1c22ef4879d882b04b1834bbeba0f5d902d55352eb",
    "GIN/x1/S1":
        "54aea77a9e3db86a4c48f7bb1416df70a6038eecb99d44d6fea2420d8cc87617",
    "GIN/x2/Dynamic":
        "a947269e9970bec696a00872c5236772658b8905d354a8516283bcf2e7ba1bd6",
    "GIN/x2/S1":
        "0025e90604d9b0c6c5753a3791e87c9e0925777ba28b1fdf52b79addda89099d",
    "SGC/x1/Dynamic":
        "744d3d6fe9e2cc6ee5bab05cc3c770316d697b5aefd5d363b5c2b4d1de11ed18",
    "SGC/x1/S1":
        "8de82ccd218326786f6bebbfec6f307d0817f1f1dad3addea916c83eadde81c4",
    "SGC/x2/Dynamic":
        "d5dcca028bcd442f35eed54917a66dc96096fa8abdc83a3bdf299e88452ca85b",
    "SGC/x2/S1":
        "bd1df0650e33fb9a001c3b7258eba89dcc367bd9f3e6d35aaf82644a83fad249",
}


def execution_request(model, shards, strategy) -> InferenceRequest:
    return InferenceRequest(model=model, dataset="CO", scale=SCALE, seed=3,
                            strategy=strategy, shards=shards)


def seven_numbers(run) -> list:
    """What the scheduler reads off a recorded execution."""
    return [
        run.latency_s, float(run.total_cycles),
        [float(b) for b in run.shard_busy_s], int(run.halo_bytes),
        float(run.halo_s), float(run.barrier_s),
        [float(s) for s in run.segments_s],
    ]


class TestOneDoor:
    @pytest.mark.parametrize("model,shards,strategy", EXECUTION_CELLS)
    def test_results_answer_what_the_memo_held(self, model, shards, strategy):
        engine = Engine(make_tiny_config(), pool_size=2)
        request = execution_request(model, shards, strategy)
        program = engine.compile_request(request)
        run = engine.execute(program, strategy, shards, ready_s=0.0)
        assert run.num_shards == shards
        assert sum(run.segments_s) == run.latency_s  # exactly
        key = f"{model}/x{shards}/{strategy}"
        assert digest(seven_numbers(run)) == EXECUTION_DIGESTS[key]

    # ``kernel_calls`` (conftest) records every entry of the one task
    # loop: an empty list after a replay means nothing was simulated
    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_program_warmed_by_infer_is_warm_for_serve(self, kernel_calls,
                                                          shards):
        engine = Engine(make_tiny_config(), pool_size=2)
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3,
                                shards=shards)
        result = engine.infer(
            handle, backend="sharded" if shards > 1 else None)
        assert kernel_calls
        del kernel_calls[:]
        request = execution_request("GCN", shards, "Dynamic")
        report = engine.serve([request, request])
        assert kernel_calls == []  # the record was replayed
        assert report.cache_misses == 0
        for response in report.responses:
            assert np.array_equal(response.output, result.output_dense())

    def test_infer_after_serve_overwrites_the_record(self, kernel_calls):
        engine = Engine(make_tiny_config())
        request = execution_request("GCN", 1, "Dynamic")
        engine.serve([request])
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        served = handle.program._runs["Dynamic", 1]
        del kernel_calls[:]
        result = engine.infer(handle)
        assert kernel_calls  # simulated again, not replayed
        assert handle.program._runs["Dynamic", 1] is result is not served
        assert result.latency_s == served.latency_s

    def test_n_infers_are_n_walks(self, kernel_calls):
        engine = Engine(make_tiny_config())
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        results = [engine.infer(handle) for _ in range(3)]
        assert len(kernel_calls) == 3 * handle.program.num_kernels
        assert len({id(r) for r in results}) == 3

    def test_the_array_infer_returned_stays_writable(self):
        engine = Engine(make_tiny_config())
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        result = engine.infer(handle)
        before = result.output_dense().copy()
        first, second = engine.serve(
            [execution_request("GCN", 1, "Dynamic") for _ in range(2)],
            max_batch_size=1,
        ).responses
        # served outputs share one frozen copy...
        assert first.output is second.output
        assert not first.output.flags.writeable
        # ...which is not the caller's array
        result.output[0, 0] += 1.0
        assert np.array_equal(first.output, before)

    def test_a_one_shard_plan_is_the_unsharded_record(self, kernel_calls):
        # one device is the plan of width 1: the same run, so the record
        # the serve path replays
        engine = Engine(make_tiny_config(), pool_size=1)
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        result = engine.infer(handle, backend="sharded")
        assert result.plan is not None and result.plan.num_shards == 1
        assert handle.program._runs == {("Dynamic", 1): result}
        del kernel_calls[:]
        report = engine.serve([execution_request("GCN", 1, "Dynamic")])
        assert kernel_calls == []  # the record was replayed
        (response,) = report.responses
        assert response.shards == 1
        assert np.array_equal(response.output, result.output_dense())


class TestEstimateChecksWhatTheLoopChecks:
    @pytest.mark.parametrize("shards", [0, 3])
    def test_shards_outside_the_pool_raise_the_loops_message(self, shards):
        engine = Engine(make_tiny_config(), pool_size=2)
        request = execution_request("GCN", shards, "Dynamic")
        with pytest.raises(ValueError, match=r"shards must be within \[1, 2\]"
                           r": the pool has 2 device") as estimated:
            estimate_service_s(engine, request)
        with pytest.raises(ValueError) as served:
            engine.serve([request])
        assert str(estimated.value) == str(served.value)
        with pytest.raises(ValueError, match="shards"):
            saturating_rate(engine, [request])


# -- one pass -------------------------------------------------------------
def json_cell_sweeps():
    """The serving cell of ``tests/test_cli.py``'s ``JSON_CELLS``: a
    12-request GCN x Cora stream at 8x the capacity of 2 devices, served
    cold then warm on pools of 1 and 2; returns ``(rate, sweeps)``."""
    probe = InferenceRequest(model="GCN", dataset="CO", scale=SCALE)
    rate = saturating_rate(Engine(), [probe], pool_size=2, factor=8.0)
    return rate, cold_then_warm(synthesize(12, rate_rps=rate, scale=SCALE))


def json_cell_payload(scheduler: str) -> dict:
    """The warm sweeps of :func:`json_cell_sweeps` (cold sweeps charge
    host-measured compile seconds), run by the serve loop
    (``"continuous"``) or the book-ahead oracle (``"legacy"``, the
    default when the digest was recorded)."""
    with book_ahead() if scheduler == "legacy" else contextlib.nullcontext():
        _, sweeps = json_cell_sweeps()
    return {
        f"warm_pool{n}": strip_wallclock(warm.to_dict())
        for n, (_, warm) in sweeps.items()
    }


JSON_CELL_DIGESTS = {
    "legacy":
        "28ebed7d83f4191db7833b8d8cde625b4f7d633c6e468b1fc6ce3996d162eb43",
    "continuous":
        "942e006c1f8dd62e29e836b08d0ec3bb025c6f554b3a125b3c310da4bcc4dcb6",
}


@pytest.mark.parametrize("scheduler", sorted(JSON_CELL_DIGESTS))
def test_report_dictionary_is_bit_for_bit_the_parents(scheduler):
    assert digest(json_cell_payload(scheduler)) == JSON_CELL_DIGESTS[scheduler]


def test_report_fields_are_the_snapshots():
    """Every number the report and the sweep's registry both hold is one
    number: the field is read off the snapshot, not computed beside it."""
    report = Engine(make_tiny_config(), pool_size=2).serve(
        [execution_request("GCN", 1 + i % 2, "Dynamic") for i in range(9)],
    )
    hists = report.metrics["histograms"]
    latency = hists["serve.latency_s"]
    assert latency["count"] == report.num_requests
    assert (report.latency_p50_s, report.latency_p95_s, report.latency_p99_s,
            report.latency_mean_s) == (
        latency["p50"], latency["p95"], latency["p99"], latency["mean"])
    queue = hists["serve.queue_s"]
    assert (report.queue_mean_s, report.queue_p95_s) == (
        queue["mean"], queue["p95"])
    assert report.phase_breakdown["queue_wait"] == queue
    for name, block in report.class_breakdown.items():
        per_class = hists[f"serve.sched.{name}.latency_s"]
        assert (block["count"], block["p50_s"], block["p95_s"], block["p99_s"],
                block["mean_s"]) == (
            per_class["count"], per_class["p50"], per_class["p95"],
            per_class["p99"], per_class["mean"])
        assert block["queue_p95_s"] == hists[f"serve.sched.{name}.queue_s"]["p95"]


if __name__ == "__main__":
    print("BOOKING_DIGEST =", repr(digest(booking_payload())))
    for scheduler in sorted(JSON_CELL_DIGESTS):
        print(f"JSON_CELL_DIGESTS[{scheduler!r}] =",
              repr(digest(json_cell_payload(scheduler))))
    for model, shards, strategy in EXECUTION_CELLS:
        engine = Engine(make_tiny_config(), pool_size=2)
        program = engine.compile_request(
            execution_request(model, shards, strategy))
        run = engine.execute(program, strategy, shards, ready_s=0.0)
        print(f"EXECUTION_DIGESTS['{model}/x{shards}/{strategy}'] =",
              repr(digest(seven_numbers(run))))
