"""Tests for the Analyzer (Algorithm 7) and the mapping strategies."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from k2p_oracle import batch_of, decide, pair_costs
from repro.config import BufferConfig, u250_default
from repro.engine import Engine
from repro.formats.convert import SparseToDenseModule
from repro.formats.layout import LayoutMerger, LayoutTransformationUnit
from repro.hw.accelerator import Accelerator
from repro.hw.spdmm_unit import spdmm_compute_cycles
from repro.hw.report import (
    CANDIDATES, CODE_ORDER, SKIP_CODE, SPDMM_CODE, SPMM_CODE, Primitive,
)
from repro.ir.kernel import KernelIR, KernelType
from repro.runtime.executor import run_strategy
from repro.runtime.perf_model import (
    PairBatch, candidate_cycles, region_primitive_batch,
)
from repro.runtime.strategies import (
    DynamicMapping,
    FixedMapping,
    OracleMapping,
    Static1,
    Static2,
    make_strategy,
)

CFG = u250_default()


def agg_kernel():
    return KernelIR("agg", 1, KernelType.AGGREGATE, 16, 16, 100, 200,
                    x_name="A", y_name="H0", out_name="H1")


def upd_kernel():
    return KernelIR("upd", 1, KernelType.UPDATE, 16, 8, 100, 200,
                    x_name="H0", y_name="W1", out_name="H1")


def one(strategy, kernel, ax, ay, **extra):
    """The decision for one pair of the given densities: (primitive,
    transposed)."""
    codes, transposed, _ = strategy.decide_batch(kernel, batch_of(ax, ay, **extra))
    return CODE_ORDER[codes[0]], bool(transposed[0])


class TestAnalyzer:
    """Operands stored as the compiler stores them (sparse below 1/3)."""

    def test_skip_on_empty(self):
        an = DynamicMapping(CFG)
        assert one(an, agg_kernel(), 0.0, 1.0)[0] is Primitive.SKIP
        assert one(an, agg_kernel(), 0.7, 0.0)[0] is Primitive.SKIP

    def test_gemm_region(self):
        assert one(DynamicMapping(CFG), upd_kernel(), 0.6, 0.9)[0] is Primitive.GEMM

    def test_spdmm_region_and_buffer_placement(self):
        an = DynamicMapping(CFG)
        # X is sparser -> X in BufferU
        assert one(an, agg_kernel(), 0.01, 0.9) == (Primitive.SPDMM, False)
        # Y is sparser -> transposed orientation
        assert one(an, upd_kernel(), 0.9, 0.01) == (Primitive.SPDMM, True)

    def test_spdmm_tie_keeps_x_in_buffer_u(self):
        assert one(DynamicMapping(CFG), agg_kernel(), 0.3, 0.3) == (
            Primitive.SPDMM, False)

    def test_spmm_region(self):
        assert one(DynamicMapping(CFG), agg_kernel(), 0.01, 0.05) == (
            Primitive.SPMM, False)

    def test_sparse_block_against_dense_block_takes_spdmm(self):
        """A 512 x 512 block at 3% stored sparse against a dense 512 x 128
        one, no kernel given: SpDMM with X in BufferU."""
        pair = PairBatch(
            m=np.array([512]), n=np.array([512]), d=np.array([128]),
            x_nnz=np.array([7864]), y_nnz=np.array([52429]),
            x_stored_sparse=True, y_stored_sparse=False,
            task=np.zeros(1, dtype=np.int64), num_tasks=1,
        )
        codes, transposed, _ = DynamicMapping(CFG).decide_batch(None, pair)
        assert (codes[0], transposed[0]) == (SPDMM_CODE, False)

    def test_a_format_pass_outweighs_compute_the_load_hides(self):
        """The GraphSAGE/p0.9 case: H stored sparse at 15%, W pruned to 9%.
        The region rule puts W in BufferU and pays an S2D and an LTU pass
        over H for it, 45 k cycles beside a 16 k-cycle transfer: the AHM
        binds.  The Analyzer takes a mapping that reads H as it is stored,
        which the transfer alone binds (SpDMM and SPMM tie there; Algorithm
        7's order keeps SpDMM)."""
        batch = batch_of([0.15] * 7, [0.09] * 7, m=720, n=500, d=16)
        assert region_primitive_batch(0.15, 0.09, CFG) == SPDMM_CODE  # transposed
        codes, transposed, modelled = DynamicMapping(CFG).decide_batch(
            upd_kernel(), batch)
        assert not transposed.any() and (codes == SPDMM_CODE).all()
        # 7 one-pair tasks on 7 cores, 44 B a cycle each: H's 54,000 and
        # W's 720 COO nonzeros in, the dense 720 x 16 result out
        load = (12 * 54_000 + 12 * 720 + 4 * 720 * 16) / 44
        assert modelled["chosen"] == modelled["SPMM"] == pytest.approx(7 * load)
        p, h, out = CFG.psys, 720 * 500, 720 * 16
        passes = (SparseToDenseModule(p).cycles_for(h)
                  + LayoutTransformationUnit(p).cycles_for(h)
                  + LayoutMerger(p).cycles_for(out))
        assert modelled["SpDMM^T"] == 7 * passes > 2.8 * modelled["chosen"]

    @given(
        st.floats(0.001, 1.0, allow_nan=False),
        st.floats(0.001, 1.0, allow_nan=False),
        st.sampled_from([16, 100, 512]),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_decision_minimises_model(self, ax, ay, d, x_sparse, y_sparse, overlap):
        """Algorithm 7's choice always has the least modelled stage
        cycles (``max(compute, load, transform)`` double-buffered, their
        sum without), and the cost array is the scalar loop's, bit for
        bit."""
        cfg = dataclasses.replace(
            CFG, buffers=dataclasses.replace(CFG.buffers, double_buffering=overlap))
        batch = batch_of(ax, ay, d=d, x_sparse=x_sparse, y_sparse=y_sparse)
        codes, transposed, modelled = DynamicMapping(cfg).decide_batch(
            upd_kernel(), batch)
        live = (batch.x_nnz != 0) & (batch.y_nnz != 0)
        costs = pair_costs(batch, cfg, live)
        assert candidate_cycles(batch, cfg, live).T.tolist() == costs
        if live[0]:
            assert modelled["chosen"] == min(costs[0])
        ref_codes, ref_t = decide(batch, cfg)
        assert (codes.tolist(), transposed.tolist()) == (
            ref_codes.tolist(), ref_t.tolist())

    @given(st.integers(0, 2**19), st.integers(0, 2**19))
    @settings(max_examples=100, deadline=None)
    def test_never_an_over_capacity_candidate(self, x_nnz, y_nnz):
        """With 64 Ki-word buffers a 512 x 512 operand fits no buffer
        densely and from 21,846 nonzeros on no BufferU as COO: whatever is
        chosen fits, and a pair nothing fits falls to the first candidate,
        which the task loop's capacity check then names."""
        cfg = dataclasses.replace(CFG, buffers=BufferConfig(words_per_buffer=64 * 1024))
        batch = PairBatch(
            m=np.array([128]), n=np.array([512]), d=np.array([512]),
            x_nnz=np.array([min(x_nnz, 128 * 512)]), y_nnz=np.array([y_nnz // 2]),
            x_stored_sparse=True, y_stored_sparse=True,
            task=np.zeros(1, dtype=np.int64), num_tasks=1,
        )
        live = np.ones(1, dtype=bool)
        cost = candidate_cycles(batch, cfg, live)[:, 0]
        # X (64 Ki elements) fits, Y (256 Ki) does not
        assert np.isinf(cost[[0, 1]]).all() and np.isfinite(cost[2])
        assert np.isfinite(cost[3]) == (3 * batch.y_nnz[0] <= 64 * 1024)
        codes, transposed, _ = OracleMapping(cfg).decide_batch(upd_kernel(), batch)
        assert np.isfinite(cost[codes[0] + transposed[0] + (codes[0] == 2)])


class TestStrategies:
    def test_dynamic_delegates_to_analyzer(self):
        s = DynamicMapping(CFG)
        assert s.charges_analysis
        assert one(s, agg_kernel(), 0.0, 1.0)[0] is Primitive.SKIP

    def test_static1_mapping(self):
        s = Static1(CFG)
        assert not s.charges_analysis
        assert one(s, agg_kernel(), 0.0, 1.0)[0] is Primitive.SPDMM
        assert one(s, upd_kernel(), 0.0, 0.0)[0] is Primitive.GEMM

    def test_static1_never_skips(self):
        """S1 cannot exploit empty partitions (that is Dynamic's edge)."""
        s = Static1(CFG)
        for k in (agg_kernel(), upd_kernel()):
            assert one(s, k, 0.0, 0.0)[0] is not Primitive.SKIP

    def test_static2_all_spdmm(self):
        s = Static2(CFG)
        for k in (agg_kernel(), upd_kernel()):
            # always left operand sparse
            assert one(s, k, 0.9, 0.9) == (Primitive.SPDMM, False)

    def test_oracle_matches_dynamic_in_nonzero_region(self):
        dyn = DynamicMapping(CFG)
        orc = OracleMapping(CFG)
        k = upd_kernel()
        for ax, ay in [(0.9, 0.9), (0.01, 0.9), (0.01, 0.02)]:
            assert one(orc, k, ax, ay) == one(dyn, k, ax, ay)
        # and it weighs an empty pair instead of skipping it
        assert one(orc, k, 0.0, 0.5)[0] is not Primitive.SKIP

    def test_fixed_mapping(self):
        s = FixedMapping(CFG, Primitive.SPMM)
        assert one(s, agg_kernel(), 1.0, 1.0)[0] is Primitive.SPMM
        assert s.name == "Fixed-SPMM"

    def test_make_strategy_lookup(self):
        assert make_strategy("Dynamic", CFG).name == "Dynamic"
        assert make_strategy("S1", CFG).name == "S1"
        assert make_strategy("S2", CFG).name == "S2"
        assert make_strategy("Oracle", CFG).name == "Oracle"
        assert make_strategy("Fixed-GEMM", CFG).name == "Fixed-GEMM"
        # an instance passes through, so a spy drives run_strategy
        oracle = make_strategy("Oracle", CFG)
        assert make_strategy(oracle, CFG) is oracle
        with pytest.raises(KeyError):
            make_strategy("nope", CFG)


class Recorded(DynamicMapping):
    """Dynamic, keeping each kernel's batch and decision; with ``force``,
    every live pair of a kernel whose tasks hold one pair takes that
    candidate instead (the skips, and so the DDR shares, stay Dynamic's)."""

    def __init__(self, config, force=None):
        super().__init__(config)
        self.force, self.seen = force, {}

    def decide_batch(self, kernel, batch):
        codes, transposed, modelled = super().decide_batch(kernel, batch)
        self.seen[kernel.kernel_id] = (batch, codes, transposed)
        if self.force is not None and len(batch) == batch.num_tasks:
            _, code, flip = CANDIDATES[self.force]
            live = codes != SKIP_CODE
            codes = np.where(live, code, codes).astype(np.int8)
            transposed = live & flip
        return codes, transposed, modelled


def task_cycles(result) -> dict:
    return {
        (ev.kernel_id, ev.task_index): ev.end - ev.start
        for ev in result.timeline_events
    }


MATRIX = [("CO", 1.0), ("CI", 0.5), ("PU", 0.25)]
MODELS = ("GCN", "GraphSAGE", "GIN", "SGC")
PRUNES = (0.0, 0.9, 0.99)


@pytest.mark.parametrize("dataset,scale", MATRIX)
@pytest.mark.parametrize("model", MODELS)
def test_dynamic_on_the_small_matrix(model, dataset, scale):
    """Per cell of {CO, CI@0.5, PU@0.25} x 4 models x prune {0, 0.9, 0.99}:
    Dynamic is never above the better static mapping by more than its own
    exposed analysis, pruning never makes it slower (0.5%: the analysis
    charge moves with the pair count), and on one-pair tasks every mapping
    but SPMM is billed at most what the Analyzer priced it plus the
    compute Table IV leaves out of SpDMM (BufferU's fetch bound and the
    pipeline fill): the write-back only ever shortens a task.  So the
    mapping it chose is billed above the fewest cycles of the four by at
    most that unpriced SpDMM compute, unless SPMM's estimate (which sits
    inside the skew bound) misled it or a COO write-back, which it prices
    dense, shortened the best mapping's task below its price."""
    engine = Engine()
    cfg = engine.config
    slack = cfg.mode_switch_cycles + 1e-6
    soft = Accelerator(cfg).soft_processor
    dispatch = soft.seconds_to_accel_cycles(
        soft.dispatch_seconds(1) + soft.sparsity_receive_seconds(1))
    spmm = len(CANDIDATES) - 1
    latencies = []
    for prune in PRUNES:
        program = engine.compile(model, dataset, scale=scale, seed=0, prune=prune).program
        spy = Recorded(cfg)
        dyn = run_strategy(program, spy, Accelerator(cfg))
        best_static = min(
            run_strategy(program, name).total_cycles for name in ("S1", "S2")
        )
        assert dyn.total_cycles <= best_static + dyn.exposed_overhead_cycles + 1e-6
        latencies.append(dyn.total_cycles)

        chosen_cycles = task_cycles(dyn)
        forced = [
            task_cycles(run_strategy(program, Recorded(cfg, c), Accelerator(cfg)))
            for c in range(len(CANDIDATES))
        ]
        for kernel_id, (batch, codes, transposed) in spy.seen.items():
            if len(batch) != batch.num_tasks:
                continue
            live = codes != SKIP_CODE
            cost = candidate_cycles(batch, cfg, live)
            assert np.isfinite(cost).all()  # every candidate fits at this scale
            for t in np.flatnonzero(live):
                key = (kernel_id, int(t))
                billed = [run[key] for run in forced]
                pick = int(codes[t] + transposed[t] + (codes[t] == 2))
                # a core that last ran another mode pays one switch cycle
                assert abs(billed[pick] - chosen_cycles[key]) <= slack
                priced = cost[:, t] + dispatch
                tol = slack + 1e-12 * max(billed)
                unpriced = [0.0] + [
                    max(spdmm_compute_cycles(nnz, cols, cfg)
                        - 2 * nnz * cols / cfg.psys**2, 0.0)
                    for nnz, cols in ((batch.x_nnz[t], batch.d[t]),
                                      (batch.y_nnz[t], batch.m[t]))
                ]
                for c in range(spmm):
                    assert billed[c] <= priced[c] + unpriced[c] + tol, (key, c)
                best = int(np.argmin(billed))
                shortened = billed[best] < priced[best] - tol  # by a COO write-back
                if spmm not in (pick, best) and not shortened:
                    assert billed[pick] <= billed[best] + unpriced[pick] + tol, (key, billed, pick)
    for denser, sparser in zip(latencies, latencies[1:]):
        assert sparser <= denser * 1.005, latencies


def test_spmm_estimate_sits_inside_the_skew_bound():
    """What the simulator charges an SPMM pair lies between the busiest
    pipeline's X entries times Y's emptiest and fullest row; the estimate
    (Table IV x skew: those entries times Y's mean row) lies there too."""
    from conftest import random_sparse
    from repro.formats.partition import PartitionedMatrix
    from repro.hw.spmm_unit import spmm_workloads

    psys = CFG.psys
    x = PartitionedMatrix(random_sparse(300, 200, 0.03, seed=5, zero_rows=True), 128, 96)
    y = PartitionedMatrix(random_sparse(200, 64, 0.1, seed=6), 96, 64)
    skew = x.scp_skew_grid(psys)
    for i in range(x.num_row_blocks):
        for j in range(x.num_col_blocks):
            xb, yb = x.block(i, j), y.block(j, 0)
            loads, _ = spmm_workloads(xb, yb, psys)
            busiest = skew[i, j] * xb.nnz / psys
            y_rows = np.diff(yb.indptr)
            assert busiest * y_rows.min() <= loads.max() <= busiest * y_rows.max()
            m, n = xb.shape
            estimate = candidate_cycles(
                PairBatch(
                    m=np.array([m]), n=np.array([n]), d=np.array([64]),
                    x_nnz=np.array([xb.nnz]), y_nnz=np.array([yb.nnz]),
                    x_stored_sparse=True, y_stored_sparse=True,
                    task=np.zeros(1, dtype=np.int64), num_tasks=1,
                    x_skew=lambda p: skew[i, j],
                ),
                dataclasses.replace(CFG, memory=dataclasses.replace(
                    CFG.memory, bandwidth_gbps=float("inf"))),
                np.ones(1, dtype=bool),
            )[3, 0]
            assert estimate == pytest.approx(busiest * y_rows.mean())


def test_fixed_spmm_still_degrades():
    """A mapping fixed beforehand can ask for SPMM where Y's COO form does
    not fit BufferU; the task loop degrades such a pair to SpDMM.  The
    Analyzer never asks: it weighs no candidate that does not fit."""
    program = Engine().compile("GCN", "CO", seed=0).program
    # a dense 1024 x 16 block of W1 fits a 32 Ki-word buffer as it is and
    # not as COO (3 words a nonzero)
    small = dataclasses.replace(CFG, buffers=BufferConfig(words_per_buffer=32 * 1024))
    fixed = run_strategy(program, "Fixed-SPMM", accelerator=Accelerator(small))
    assert fixed.primitive_totals[Primitive.SPDMM] > 0
    assert run_strategy(program, "Fixed-SPMM").primitive_totals[Primitive.SPDMM] == 0
    dyn = run_strategy(program, "Dynamic", accelerator=Accelerator(small))
    np.testing.assert_array_equal(dyn.output_dense(), fixed.output_dense())
