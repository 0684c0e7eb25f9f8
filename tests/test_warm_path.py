"""The exact warm path: pair products, the profiled census, SPMM workloads.

A warm inference is the task loop's functional pass and little else, and
each statement of it that was made faster has to stay *the same
function*, bit for bit:

- the pair product with both operands stored sparse, on either route
  (entry by entry through ``csr_matmat``; S2D into one scratch +
  ``csr_matvecs``), against SciPy's ``csr @ csr``, and the rule that
  picks the route from the census;
- the write-back profiler's counts, reused as the consumer's census,
  against ``block_nnz_grid`` of the stored output;
- ``spmm_workloads`` (prefix sums) against Algorithm 6 walked element
  by element;
- the ``_matmul`` route the loop falls back to when SciPy's private
  kernels are missing, against the fast route and the reference loop.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import repro.formats.partition as partition_mod
import repro.runtime.executor as executor_mod
import repro.runtime.vectorized as vectorized_mod
from repro import Engine
from repro.compiler import Compiler
from repro.config import u250_default
from repro.datasets import load_dataset
from repro.formats.dense import DTYPE
from repro.formats.partition import PartitionedMatrix, block_nnz_grid
from repro.gnn import build_model, init_weights
from repro.hw import Accelerator
from repro.hw.report import SPDMM_CODE
from repro.hw.spmm_unit import row_counts, spmm_census, spmm_workloads
from repro.runtime import execute_kernel_tasks, make_strategy
from repro.runtime.executor import KernelAssembly, Lane, run_kernels, run_strategy
from repro.runtime.strategies import MappingStrategy
from repro.shard import plan_shards

from conftest import make_tiny_config
from task_oracle import execute_kernel_lanes_reference
from unit_oracles import run_spmm_faithful
from test_executor_vectorised import (
    ACC_VIEW,
    ASSEMBLY,
    STRATEGY,
    _loop_args,
    _timeline,
    assert_results_identical,
    oracle_run,
)

MODELS = ("GCN", "GraphSAGE", "GIN", "SGC")


def bits(a) -> bytes:
    """The exact float32 bits (``NaN == NaN``, ``-0.0 != +0.0``); a CSR
    matrix's are those of its ``toarray()``."""
    if sp.issparse(a):
        a = a.toarray()
    return np.ascontiguousarray(a, dtype=DTYPE).tobytes()


def compiled(model_name, data, config):
    model = build_model(
        model_name, data.num_features, data.hidden_dim, data.num_classes
    )
    weights = init_weights(model, seed=5)
    return Compiler(config).compile(model, data, weights)


# -- (a) the pair product ------------------------------------------------
#: values that make a float32 product care about order, sign and zero
VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-30, -1e-30, 3e38, -3e38, 1 / 3, 1e-45]
)


@st.composite
def csr_blocks(draw, rows, cols, values=VALUES):
    """A canonical CSR block with drawn structure: empty rows/columns,
    all-zero blocks and explicit stored zeros (``0.0`` and ``-0.0`` are
    in ``values``) all occur."""
    mask = draw(
        st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)
    )
    if draw(st.booleans()):  # thin it out: empty rows and columns
        keep = draw(st.integers(0, 3))
        mask = [m and (i % 4 < keep) for i, m in enumerate(mask)]
    mask = np.array(mask, dtype=bool).reshape(rows, cols)
    data = np.array(
        draw(st.lists(values, min_size=int(mask.sum()), max_size=int(mask.sum()))),
        dtype=DTYPE,
    )
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1)))).astype(index_dtype)
    indices = np.nonzero(mask)[1].astype(index_dtype)
    blk = sp.csr_matrix((rows, cols), dtype=DTYPE)
    # assigned, not passed to the constructor: scipy would drop the
    # index dtype and the task loop's blocks are hand-built the same way
    blk.data, blk.indices, blk.indptr = data, indices, indptr
    return blk


@st.composite
def operand_pairs(draw, x_values=VALUES):
    m, n, d = (draw(st.integers(1, 9)) for _ in range(3))
    return draw(csr_blocks(m, n, x_values)), draw(csr_blocks(n, d))


def csr_csr_reference(x, y) -> np.ndarray:
    """The statement the fast route replaced (still ``_matmul``'s)."""
    return np.asarray((x @ y).todense(), dtype=DTYPE)


def fast_product(x, y) -> np.ndarray:
    m, n = x.shape
    d = y.shape[1]
    out = np.zeros((m, d), dtype=DTYPE)
    # garbage in the scratch must not matter: it is zero-filled per pair
    s2d = np.full(n * d + 3, np.nan, dtype=DTYPE)
    vectorized_mod._accumulate_csr_product(x, y, None, s2d, out)
    return out


def structural(x, y) -> int:
    """What the task loop sizes a pair's product from: the census's
    structural MACs."""
    return int(spmm_census([x], row_counts(y), np.zeros(1, np.intp), y.shape[1], 1)[2][0])


def entry_product(x, y):
    """The product on the entry-by-entry route, its scratch as an
    earlier, larger pair of the same call would have left it."""
    m, d = x.shape[0], y.shape[1]
    out = np.zeros((m, d), dtype=DTYPE)
    idx = np.result_type(x.indptr, y.indptr)
    work = {idx: (
        np.full(m + 4, -7, dtype=idx),
        np.full(m * d + 3, -7, dtype=idx),
        np.full(m * d + 3, np.nan, dtype=DTYPE),
    )}
    vectorized_mod._add_csr_csr_product(x, y, structural(x, y), work, out)
    return out


#: what a poisoned adjacency holds, against structural zeros of Y
NONFINITE = st.sampled_from([np.inf, -np.inf, np.nan, 1.0, -2.5, 0.0, -0.0])


class TestPairProduct:
    @settings(max_examples=300, deadline=None)
    @given(operand_pairs())
    def test_s2d_matvecs_is_csr_matmat_bit_for_bit(self, pair):
        x, y = pair
        assert bits(fast_product(x, y)) == bits(csr_csr_reference(x, y))

    @settings(max_examples=300, deadline=None)
    @given(operand_pairs())
    def test_entry_route_is_csr_matmat_bit_for_bit(self, pair):
        x, y = pair
        # an int32 block against an int64 one is multiplied in int64
        assert bits(entry_product(x, y)) == bits(csr_csr_reference(x, y))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @settings(max_examples=200, deadline=None)
    @given(operand_pairs(x_values=NONFINITE))
    def test_entry_route_needs_no_finite_guard(self, pair):
        x, y = pair
        assert bits(entry_product(x, y)) == bits(csr_csr_reference(x, y))

    @settings(max_examples=100, deadline=None)
    @given(operand_pairs(), operand_pairs())
    def test_entry_route_adds_like_a_dense_partial(self, first, second):
        """Onto a sum that started at ``+0.0``, adding the product's
        stored cells is adding the dense product (``z + P`` grouping)."""
        m, d = first[0].shape[0], first[1].shape[1]
        z = csr_csr_reference(*first)
        rng = np.random.default_rng(m * 16 + d)
        x = sp.random(m, 5, 0.4, format="csr", dtype=DTYPE, rng=rng)
        y = sp.random(5, d, 0.4, format="csr", dtype=DTYPE, rng=rng)
        expected = z + csr_csr_reference(x, y)
        vectorized_mod._add_csr_csr_product(x, y, structural(x, y), {}, z)
        assert bits(z) == bits(expected)

    def test_entry_route_with_an_empty_product_allocates_nothing(self):
        x = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=DTYPE))
        y = sp.csr_matrix((2, 3), dtype=DTYPE)
        out = np.zeros((2, 3), dtype=DTYPE)
        work = {}
        assert structural(x, y) == 0
        vectorized_mod._add_csr_csr_product(x, y, 0, work, out)
        assert work == {} and bits(out) == bits(np.zeros((2, 3)))

    @settings(max_examples=100, deadline=None)
    @given(operand_pairs())
    def test_dense_y_route_agrees_too(self, pair):
        x, y = pair
        out = np.zeros((x.shape[0], y.shape[1]), dtype=DTYPE)
        y_flat = np.asarray(y.todense(), dtype=DTYPE).ravel()
        vectorized_mod._accumulate_csr_product(x, None, y_flat, None, out)
        assert bits(out) == bits(csr_csr_reference(x, y))

    @pytest.mark.parametrize("shape", [(1, 7, 1), (7, 1, 7), (1, 1, 1), (5, 3, 1)])
    def test_thin_shapes(self, shape):
        m, n, d = shape
        rng = np.random.default_rng(0)
        x = sp.random(m, n, 0.7, format="csr", dtype=DTYPE, rng=rng)
        y = sp.random(n, d, 0.7, format="csr", dtype=DTYPE, rng=rng)
        assert bits(fast_product(x, y)) == bits(csr_csr_reference(x, y))
        assert bits(entry_product(x, y)) == bits(csr_csr_reference(x, y))

    def test_nonfinite_x_is_the_one_place_the_routes_differ(self):
        """``inf`` in X against a structural zero of Y: ``csr_matmat``
        skips the cell, a dense Y makes it ``NaN`` — so the guard in
        the task loop is needed, not decorative."""
        x = sp.csr_matrix(np.array([[np.inf, 1.0]], dtype=DTYPE))
        y = sp.csr_matrix(np.array([[0.0, 2.0], [3.0, 0.0]], dtype=DTYPE))
        assert bits(fast_product(x, y)) != bits(csr_csr_reference(x, y))


#: what a task's products hold: exact cancellations, signed zeros (only
#: ever as a cancelled sum: a product stores none), NaN, inf and overflow
MERGE_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 0.5, 1 / 3, 3e38, -3e38, np.inf, np.nan]
)


@st.composite
def task_products(draw):
    """``(m, d, products)``: one to eight ``m x d`` products of
    ``_csr_csr_product``, as a task of that many pairs would hold them
    (their cells overlap, and int32 and int64 products mix)."""
    m, n, d = (draw(st.integers(1, 9)) for _ in range(3))
    products = []
    for _ in range(draw(st.integers(1, 8))):
        x, y = draw(csr_blocks(m, n, MERGE_VALUES)), draw(csr_blocks(n, d, MERGE_VALUES))
        y.indptr, y.indices = (a.astype(x.indptr.dtype) for a in (y.indptr, y.indices))
        products.append(vectorized_mod._csr_csr_product(x, y, d, structural(x, y), {}))
    return m, d, products


class TestMergedProducts:
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    @settings(max_examples=200, deadline=None)
    @given(task_products())
    def test_merge_is_the_dense_accumulation(self, task):
        """After ``todense`` the bits of ``((0 + P1) + P2) + ...`` as the
        dense route sums it (each product's stored cells added into a zero
        ``z`` in turn), and the nonzero count of that sum."""
        m, d, products = task
        z = np.zeros((m, d), dtype=DTYPE)
        for product in products:
            vectorized_mod._CSR_TODENSE(m, d, *product, z.ravel())
        merged = vectorized_mod._merge_csr_products(m, d, products)
        assert bits(merged) == bits(z)
        assert merged.indptr[-1] == merged.nnz == np.count_nonzero(z)
        # whole dense products added with NumPy agree too, except on which
        # NaN a NaN + NaN keeps (NumPy's in-place add may keep the second)
        plain = np.zeros((m, d), dtype=DTYPE)
        for cp, cj, cx in products:
            plain += sp.csr_matrix((cx, cj, cp), shape=(m, d)).toarray()
        np.testing.assert_array_equal(merged.toarray(), plain)
        signed = ~np.isnan(plain)
        assert (np.signbit(z)[signed] == np.signbit(plain)[signed]).all()
        assert merged.indptr.dtype == merged.indices.dtype == np.int32
        assert (merged.data != 0).all()
        for row in np.split(merged.indices, merged.indptr[1:-1]):
            assert (np.diff(row) > 0).all()


@pytest.fixture(scope="module")
def tiny_programs():
    """GCN and GraphSAGE on a slice of Cora, many small partitions.
    GraphSAGE's ``A_mean @ H0`` multiplies two CSR operands."""
    data = load_dataset("CO", scale=0.15, seed=3)
    cfg = make_tiny_config()
    return {name: compiled(name, data, cfg) for name in ("GCN", "GraphSAGE")}


class TestNonFiniteGuard:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
    def test_nonfinite_adjacency_keeps_the_reference_bits(
        self, tiny_programs, poison
    ):
        program = tiny_programs["GraphSAGE"]
        name = next(
            k.x_name for k in program.graph.topo_order()
            if sp.issparse(program.store[k.x_name])
            and sp.issparse(program.store[k.y_name])
        )
        a = program.store[name]
        saved = a.data.copy()
        try:
            # a few poisoned entries in some block rows, none in others:
            # both routes run in one kernel
            a.data[:: max(1, a.nnz // 5)][:3] = poison
            program._views.clear()
            rv = run_strategy(program, "S2")
            rr = oracle_run(run_strategy, program, "S2")
        finally:
            a.data[:] = saved
            program._views.clear()
        assert not np.isfinite(rv.output_dense()).all()
        assert bits(rv.output_dense()) == bits(rr.output_dense())
        assert rv.total_cycles == rr.total_cycles


def csr_csr_kernel(program):
    """The first kernel multiplying two stored-sparse operands."""
    return next(
        k for k in program.graph.topo_order()
        if sp.issparse(program.store[k.x_name])
        and sp.issparse(program.store[k.y_name])
    )


def both_loops(program, kernel, strategy=None, acc_view=None):
    """One kernel through the task loop and the reference loop:
    ``[(output bits, stats, timeline events)] * 2``."""
    runs = []
    for loop in (execute_kernel_tasks, execute_kernel_lanes_reference):
        args = _loop_args(
            program, kernel, Accelerator(program.config),
            kernel.exec_scheme.task_batch(),
        )
        if strategy is not None:
            args[STRATEGY] = strategy
        args[ACC_VIEW] = acc_view
        (stats,) = loop(*args)
        runs.append((bits(args[ASSEMBLY].finalize()[0]), stats, _timeline(args).events))
    return runs


class OrientedSpDMM(MappingStrategy):
    """Every pair SpDMM, transposed where Y is the sparser operand."""

    name = "oriented"

    def decide_batch(self, kernel, batch):
        codes = np.full(len(batch), SPDMM_CODE, dtype=np.int8)
        sparser_y = batch.y_nnz * batch.m < batch.x_nnz * batch.d
        return codes, sparser_y, None


@pytest.fixture()
def route_spy(monkeypatch):
    """Which product function every pair of a run went through."""
    taken = {"entry": 0, "s2d": 0, "dense_y": 0, "matmul": 0}
    entry = vectorized_mod._add_csr_csr_product
    accumulate = vectorized_mod._accumulate_csr_product
    matmul = vectorized_mod._matmul

    def spy_entry(x, y, nmax, work, out):
        taken["entry"] += 1
        return entry(x, y, nmax, work, out)

    def spy_accumulate(x, y, y_flat, s2d, out):
        taken["s2d" if y_flat is None else "dense_y"] += 1
        return accumulate(x, y, y_flat, s2d, out)

    def spy_matmul(x, y):
        taken["matmul"] += 1
        return matmul(x, y)

    monkeypatch.setattr(vectorized_mod, "_add_csr_csr_product", spy_entry)
    monkeypatch.setattr(vectorized_mod, "_accumulate_csr_product", spy_accumulate)
    monkeypatch.setattr(vectorized_mod, "_matmul", spy_matmul)
    return taken


class TestEntryRoute:
    def test_transposed_pairs_equal_the_reference(self, tiny_programs, route_spy):
        program = tiny_programs["GraphSAGE"]
        kernel = csr_csr_kernel(program)
        strategy = OrientedSpDMM(program.config)
        xv = program.view(kernel.x_name, *kernel.exec_scheme.x_blocking)
        yv = program.view(kernel.y_name, *kernel.exec_scheme.y_blocking)
        # both orientations occur among this kernel's live pairs
        live = (xv.density_grid[:, :, None] > 0) & (yv.density_grid[None] > 0)
        flipped = yv.density_grid[None] < xv.density_grid[:, :, None]
        assert (live & flipped).any() and (live & ~flipped).any()
        fast, reference = both_loops(program, kernel, strategy)
        assert fast == reference
        assert route_spy["entry"] > 0 and route_spy["s2d"] == 0

    def test_a_task_seeded_with_negative_zero_keeps_the_dense_route(
        self, tiny_programs, route_spy
    ):
        """``-0.0 + (+0.0)`` is ``+0.0``: adding only the stored cells
        of the product would leave the ``-0.0`` the reference loses."""
        program = tiny_programs["GraphSAGE"]
        kernel = csr_csr_kernel(program)
        scheme = kernel.exec_scheme
        shape = (program.store[kernel.x_name].shape[0],
                 program.store[kernel.y_name].shape[1])
        seed = PartitionedMatrix(np.full(shape, -0.0, dtype=DTYPE), *scheme.out_blocking)
        fast, reference = both_loops(program, kernel, acc_view=seed)
        assert fast == reference
        assert route_spy["entry"] == 0 and route_spy["s2d"] > 0
        out = np.frombuffer(fast[0], dtype=DTYPE)
        assert not np.signbit(out[out == 0]).any()

    def test_rule_is_a_function_of_the_census_alone(self):
        rule = vectorized_mod._entry_route
        n1, d = 720, 500
        # a ledger pair: a few hundred adjacency entries, 10%-dense features
        assert rule(450, n1 * d // 10, n1, n1, d)
        # 30%-dense against 30%-dense: sweeping two buffers is cheaper
        assert not rule(3 * n1 * n1 // 10, 3 * n1 * d // 10, n1, n1, d)
        # nothing to multiply on either side costs nothing entry by entry
        assert rule(0, n1 * d, n1, n1, d) and rule(n1 * n1, 0, n1, n1, d)
        census = [np.array(c) for c in ([450, 155520], [36000, 108000], n1, n1, d)]
        assert rule(*census).tolist() == [True, False]

    @pytest.mark.parametrize("dataset,scale", [("CO", 1.0), ("CI", 1.0), ("PU", 0.25)])
    def test_every_input_aggregate_pair_of_gin_goes_entry_by_entry(
        self, dataset, scale, monkeypatch
    ):
        """Adjacency blocks against blocks of input features: the same
        pairs take the same route whatever the strategy maps them to."""
        decisions = {}
        rule = vectorized_mod._entry_route

        def recording_rule(*census):
            routed = rule(*census)
            decisions[strategy].append(([c.tolist() for c in census], routed.tolist()))
            return routed

        monkeypatch.setattr(vectorized_mod, "_entry_route", recording_rule)
        engine = Engine()
        handle = engine.compile("GIN", dataset, scale=scale, seed=0)
        for strategy in ("S1", "S2", "Dynamic"):
            decisions[strategy] = []
            engine.infer(handle, strategy=strategy)
        assert decisions["S1"] == decisions["S2"] == decisions["Dynamic"]
        (_, routed), = decisions["S1"]  # L1.agg is the one CSR x CSR kernel
        assert routed and all(routed)

    def test_no_partition_sized_fill_for_a_csr_csr_pair(self, monkeypatch):
        """GIN x CiteSeer, the ledger's costliest cold cell: no pair of
        two sparse blocks expands Y into the S2D scratch or forms a dense
        product (every such pair did one or the other before the route)."""
        dense_products = []
        accumulate = vectorized_mod._accumulate_csr_product
        matmul = vectorized_mod._matmul

        def spy_accumulate(x, y, y_flat, s2d, out):
            dense_products.append(y_flat is None)
            return accumulate(x, y, y_flat, s2d, out)

        def spy_matmul(x, y):
            dense_products.append(sp.issparse(x) and sp.issparse(y))
            return matmul(x, y)

        monkeypatch.setattr(vectorized_mod, "_accumulate_csr_product", spy_accumulate)
        monkeypatch.setattr(vectorized_mod, "_matmul", spy_matmul)
        engine = Engine()
        handle = engine.compile("GIN", "CI", seed=0)
        engine.infer(handle, strategy="Dynamic")
        assert dense_products and not any(dense_products)


class TestFiniteScan:
    def test_asked_once_per_view_and_again_after_a_rebind(self):
        rng = np.random.default_rng(3)
        mat = sp.random(40, 30, 0.3, format="csr", dtype=DTYPE, rng=rng)
        view = PartitionedMatrix(mat, 16, 8)
        assert all(view.block_row_is_finite(i) for i in range(3))
        poisoned = mat.copy()
        poisoned.data[poisoned.indptr[20]] = np.nan  # block row 1
        mat.data[:] = poisoned.data
        assert view.block_row_is_finite(1)  # kept with the layout
        view.apply_structural_delta(poisoned, [], [], [], [])
        assert [view.block_row_is_finite(i) for i in range(3)] == [True, False, True]

    def test_only_a_block_row_with_an_s2d_pair_is_scanned(self, tiny_programs):
        program = tiny_programs["GraphSAGE"]
        kernel = csr_csr_kernel(program)
        program._views.clear()
        run_strategy(program, "S2")  # every CSR x CSR pair goes entry by entry
        xv = program.view(kernel.x_name, *kernel.exec_scheme.x_blocking)
        assert xv._layout.finite == [None] * xv.num_row_blocks


# -- (b) the profiler's counts are the census ----------------------------
@pytest.fixture(scope="module")
def census_programs():
    cfg = u250_default()
    datasets = (load_dataset("CO", seed=0), load_dataset("PU", scale=0.1, seed=0))
    return [compiled(m, data, cfg) for data in datasets for m in MODELS]


def lanes_for(program, n):
    if n == 1:
        return [Lane(Accelerator(program.config))]
    return [
        Lane(Accelerator(program.config), f"dev{s.index}", (s.v0, s.v1))
        for s in plan_shards(program, n).shards
    ]


def check_census_of_every_kernel(program, strategy_name, lanes, monkeypatch):
    """Run ``program`` and compare, at every kernel's finalize, the
    recorded grid with a scan of the matrix just assembled."""
    checked = []
    finalize = KernelAssembly.finalize

    def checking_finalize(self):
        out_mat, density = finalize(self)
        scanned = block_nnz_grid(out_mat, self.out_br, self.out_bc)
        assert self.nnz_grid.dtype == scanned.dtype
        np.testing.assert_array_equal(self.nnz_grid, scanned)
        checked.append(self)
        return out_mat, density

    monkeypatch.setattr(KernelAssembly, "finalize", checking_finalize)
    strategy = make_strategy(strategy_name, program.config)
    for _ in run_kernels(program, strategy, lanes, {}):
        pass
    assert len(checked) == program.num_kernels


#: ``SPARSE_HOLDING`` that holds every output partition dense / as CSR
HOLDING = {True: 0.0, False: 1.5}


class TestProfiledCensus:
    @pytest.mark.parametrize("dense_assembly", [True, False])
    @pytest.mark.parametrize("num_lanes", [1, 2, 4])
    @pytest.mark.parametrize("strategy", ["S1", "S2", "Dynamic"])
    def test_recorded_grid_is_the_scan(
        self, census_programs, strategy, num_lanes, dense_assembly, monkeypatch
    ):
        monkeypatch.setattr(vectorized_mod, "SPARSE_HOLDING", HOLDING[dense_assembly])
        for program in census_programs:
            check_census_of_every_kernel(
                program, strategy, lanes_for(program, num_lanes), monkeypatch
            )

    @pytest.mark.parametrize("dense_assembly", [True, False])
    def test_reference_loop_records_the_same_grid(
        self, census_programs, dense_assembly, monkeypatch
    ):
        monkeypatch.setattr(vectorized_mod, "SPARSE_HOLDING", HOLDING[dense_assembly])
        monkeypatch.setattr(
            executor_mod, "execute_kernel_tasks", execute_kernel_lanes_reference
        )
        for program in census_programs:
            for num_lanes in (1, 2):
                check_census_of_every_kernel(
                    program, "Dynamic", lanes_for(program, num_lanes), monkeypatch
                )

    def test_skipped_and_negative_zero_and_nan_partitions(self, monkeypatch):
        """What the count means is what the scan means: an unwritten
        partition is 0, ``-0.0`` is a zero, ``NaN`` a nonzero."""
        z = np.array([[-0.0, np.nan], [0.0, 2.0]], dtype=DTYPE)
        for dense in (True, False):
            monkeypatch.setattr(vectorized_mod, "SPARSE_HOLDING", HOLDING[dense])
            asm = KernelAssembly(
                rows=4, cols=2, out_br=2, out_bc=2,
                nnz_grid=np.zeros((2, 1), dtype=np.int64),
            )
            assert asm.write(1, 0, z) == 2
            out_mat, density = asm.finalize()
            assert sp.issparse(out_mat) != dense
            np.testing.assert_array_equal(
                asm.nnz_grid, block_nnz_grid(out_mat, 2, 2)
            )
            assert asm.nnz_grid.tolist() == [[0], [2]]
            assert asm.total_out_nnz == 2 and density == 2 / 8
            # a CSR block stores the nonzeros: a -0.0 comes back +0.0
            back = out_mat.toarray() if sp.issparse(out_mat) else out_mat
            assert np.signbit(back[2, 0]) == dense and np.isnan(back[2, 1])

    @pytest.mark.parametrize("dense_majority", [False, True])
    def test_partitions_straddling_the_holding_rule(self, dense_majority, monkeypatch):
        """Partitions on both sides of ``SPARSE_HOLDING``, ragged at both
        edges, one never written: either ``finalize`` outcome converts the
        minority and leaves the bits every-partition-dense leaves (no
        ``-0.0``: see above), and a CSR output's blocks are the ones a
        split of it gives."""
        rng = np.random.default_rng(11)
        rows, cols, br, bc = 11, 8, 4, 3  # 3 x 3 partitions, last row/col ragged
        values = np.array([1.5, -2.0, np.nan, 3e38, 1e-45], dtype=DTYPE)
        full = rng.choice(values, size=(rows, cols))
        keep = rng.random((rows, cols)) < (0.9 if dense_majority else 0.15)
        full = np.where(keep, full, DTYPE(0))
        full[:br, :bc] = 0 if dense_majority else values[0]  # the minority
        written = [(i, k) for i in range(3) for k in range(3) if (i, k) != (2, 0)]

        def assemble(rho):
            monkeypatch.setattr(vectorized_mod, "SPARSE_HOLDING", rho)
            asm = KernelAssembly(rows=rows, cols=cols, out_br=br, out_bc=bc,
                                 nnz_grid=np.zeros((3, 3), dtype=np.int64))
            for i, k in written:
                part = np.ascontiguousarray(full[i * br : (i + 1) * br, k * bc : (k + 1) * bc])
                assert asm.write(i, k, part) == np.count_nonzero(part)
            straddles = 0 < len(asm.blocks) < len(written) and asm.out_dense is not None
            return asm, straddles, *asm.finalize()

        asm, straddles, out_mat, density = assemble(0.5)
        assert straddles and sp.issparse(out_mat) != dense_majority
        _, _, dense_out, dense_density = assemble(0.0)
        assert isinstance(dense_out, np.ndarray)
        assert bits(out_mat) == bits(dense_out) and density == dense_density
        np.testing.assert_array_equal(asm.nnz_grid, block_nnz_grid(dense_out, br, bc))
        assert asm.nnz_grid[2, 0] == 0
        if sp.issparse(out_mat):
            adopted = PartitionedMatrix(out_mat, br, bc, split=asm.block_rows)
            split = PartitionedMatrix(out_mat, br, bc)
            for i in range(3):
                for a, b in zip(adopted.csr_blocks_for_row(i), split.csr_blocks_for_row(i)):
                    assert a.shape == b.shape and bits(a) == bits(b)
                    for f in ("data", "indices", "indptr"):
                        assert getattr(a, f).tobytes() == getattr(b, f).tobytes(), f
                        assert not getattr(a, f).flags.writeable

    def test_a_sparse_intermediate_is_never_dense(self):
        """GIN x CiteSeer: the 3%-dense first Aggregate is held as CSR, so
        one inference's traced peak is a fraction of that output held
        dense (49 MB; 54 MB traced when every output was)."""
        engine = Engine()
        handle = engine.compile("GIN", "CI", seed=0)
        tracemalloc.start()
        try:
            engine.infer(handle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2**20

    @pytest.mark.parametrize("model_name", MODELS)
    def test_warm_inference_scans_no_intermediate(self, model_name, monkeypatch):
        """The ledger's ``warm_sweep`` cells: once the program's own
        operands are viewed, an inference calls ``block_nnz_grid`` on
        nothing (every consumer blocking equals its producer's)."""
        engine = Engine()
        handle = engine.compile(model_name, "PU", scale=0.25, seed=0)
        cold = engine.infer(handle, strategy="Dynamic")
        calls = []
        scan = partition_mod.block_nnz_grid

        def recording_scan(mat, block_rows, block_cols):
            calls.append((mat.shape, block_rows, block_cols))
            return scan(mat, block_rows, block_cols)

        monkeypatch.setattr(partition_mod, "block_nnz_grid", recording_scan)
        warm = engine.infer(handle, strategy="Dynamic")
        assert calls == []
        assert_results_identical(warm, cold)

    def test_constructor_rejects_a_grid_of_another_blocking(self):
        """The driver hands a grid over only under the producer's own
        blocking; the constructor rejects one that cannot be the census
        of the blocking it is given."""
        m = np.arange(24, dtype=DTYPE).reshape(4, 6)
        grid = block_nnz_grid(m, 2, 3)
        assert PartitionedMatrix(m, 2, 3, nnz_grid=grid).nnz == 23
        with pytest.raises(ValueError, match="nnz_grid"):
            PartitionedMatrix(m, 2, 2, nnz_grid=grid)
        with pytest.raises(ValueError, match="nnz_grid"):
            PartitionedMatrix(m, 2, 3, nnz_grid=grid.astype(np.int32))


# -- (c) SPMM workloads ---------------------------------------------------
def faithful_loads(x, y, psys):
    """Per-SCP multiply counts, walked entry by entry (Algorithm 6's
    ``scp_cycles`` in :func:`run_spmm_faithful`)."""
    loads = np.zeros(psys, dtype=np.int64)
    xs, ys = sp.csr_matrix(x), sp.csr_matrix(y)
    y_row_nnz = [
        int(np.count_nonzero(ys.data[ys.indptr[i]:ys.indptr[i + 1]]))
        for i in range(ys.shape[0])
    ]
    for j in range(xs.shape[0]):
        for idx in range(xs.indptr[j], xs.indptr[j + 1]):
            if xs.data[idx] != 0:
                loads[j % psys] += y_row_nnz[xs.indices[idx]]
    return loads


class TestSpmmWorkloads:
    @settings(max_examples=150, deadline=None)
    @given(operand_pairs(), st.sampled_from([1, 2, 4, 16]))
    def test_matches_algorithm_6(self, pair, psys):
        x, y = pair  # rows < psys, rows % psys != 0, zero rows, stored zeros
        expected = faithful_loads(x, y, psys)
        # either operand CSR or held dense (counted as it lies)
        for xx, yy in (
            (x, y), (x, y.toarray()), (x.toarray(), y), (x.toarray(), y.toarray()),
        ):
            loads, macs = spmm_workloads(xx, yy, psys)
            assert loads.dtype == np.int64 and loads.shape == (psys,)
            np.testing.assert_array_equal(loads, expected)
            assert macs == int(expected.sum())

    @pytest.mark.parametrize("rows", [3, 4, 10])
    def test_against_run_spmm_faithful_cycles(self, rows, tiny_config):
        rng = np.random.default_rng(rows)
        x = sp.random(rows, 12, 0.4, format="csr", dtype=DTYPE, rng=rng)
        y = sp.random(12, 9, 0.4, format="csr", dtype=DTYPE, rng=rng)
        x.data[::3] = 0  # explicit zeros do no work
        loads, _ = spmm_workloads(x, y, tiny_config.psys)
        _, cycles = run_spmm_faithful(x, y, tiny_config)
        assert int(loads.max()) + tiny_config.pipeline_depth == cycles

    def test_mac_totals_past_int32(self):
        """70,000 X entries each meeting a Y row of 40,000: 2.8e9
        multiplies, past 2^31, from int32 index arrays."""
        m, d = 70_000, 40_000
        x = sp.csr_matrix(np.ones((m, 1), dtype=DTYPE))
        y = sp.csr_matrix(np.ones((1, d), dtype=DTYPE))
        assert x.indices.dtype == y.indptr.dtype == np.int32
        loads, macs = spmm_workloads(x, y, 4)
        assert macs == m * d > 2**31
        assert loads.tolist() == [m * d // 4] * 4
        loads, macs = spmm_workloads(x, y, 1)
        assert loads.tolist() == [m * d]


# -- the private SciPy entry points --------------------------------------
class TestNativeEntryPoints:
    def test_scipy_still_has_them_with_this_signature(self):
        """Fails by name on the SciPy release that moves or re-types one
        of the six, rather than silently costing a third of every warm
        inference (or, for the three the merge calls, a held-sparse task
        its dense ``z``)."""
        for name in ("MATVECS", "TODENSE", "MATMAT", "HSTACK", "TOCSC", "SUM_DUPLICATES"):
            assert callable(getattr(vectorized_mod, f"_CSR_{name}")), name
        for index_dtype in (np.int32, np.int64):
            indptr = np.array([0, 1, 2], dtype=index_dtype)
            indices = np.array([1, 0], dtype=index_dtype)
            data = np.array([2.0, 3.0], dtype=DTYPE)
            dense = np.zeros(4, dtype=DTYPE)
            vectorized_mod._CSR_TODENSE(2, 2, indptr, indices, data, dense)
            assert dense.tolist() == [0.0, 2.0, 3.0, 0.0]
            out = np.zeros(4, dtype=DTYPE)
            vectorized_mod._CSR_MATVECS(2, 2, 2, indptr, indices, data, dense, out)
            assert out.tolist() == [6.0, 0.0, 0.0, 6.0]
            # [[0, 2], [3, 0]] squared, into arrays the caller owns
            operand = (indptr, indices)
            cp, cj = np.empty(3, dtype=index_dtype), np.empty(2, dtype=index_dtype)
            cx = np.empty(2, dtype=DTYPE)
            vectorized_mod._CSR_MATMAT(
                2, 2, *operand, data, *operand, data, cp, cj, cx
            )
            assert (cp.tolist(), cj.tolist(), cx.tolist()) == (
                [0, 1, 2], [0, 1], [6.0, 6.0]
            )
            # the merge: two copies side by side at width 0, one row's
            # entries after the other's; transposed; duplicates summed
            bp, bj, bx = np.empty(3, index_dtype), np.empty(4, index_dtype), np.empty(4, DTYPE)
            vectorized_mod._CSR_HSTACK(
                2, 2, np.zeros(2, index_dtype), np.concatenate([indptr, indptr]),
                np.concatenate([indices, indices]), np.concatenate([data, data]), bp, bj, bx,
            )
            assert (bp.tolist(), bj.tolist(), bx.tolist()) == (
                [0, 2, 4], [1, 1, 0, 0], [2.0, 2.0, 3.0, 3.0]
            )
            tp, tj, tx = np.empty(3, index_dtype), np.empty(4, index_dtype), np.empty(4, DTYPE)
            vectorized_mod._CSR_TOCSC(2, 2, bp, bj, bx, tp, tj, tx)
            assert (tp.tolist(), tj.tolist(), tx.tolist()) == (
                [0, 2, 4], [1, 1, 0, 0], [3.0, 3.0, 2.0, 2.0]
            )
            vectorized_mod._CSR_SUM_DUPLICATES(2, 2, bp, bj, bx)
            assert (bp.tolist(), bj[:2].tolist(), bx[:2].tolist()) == (
                [0, 1, 2], [1, 0], [4.0, 6.0]
            )

    @pytest.mark.parametrize(
        "missing",
        ["_CSR_MATVECS", "_CSR_TODENSE", "_CSR_MATMAT"],
    )
    @pytest.mark.parametrize("model_name", ["GCN", "GraphSAGE"])
    def test_fallback_is_bit_identical(
        self, tiny_programs, missing, model_name, monkeypatch
    ):
        """Without the entry points every pair takes ``_matmul``: same
        result as the fast route and as the reference loop."""
        program = tiny_programs[model_name]
        fast = run_strategy(program, "Dynamic")
        products = []
        monkeypatch.setattr(vectorized_mod, missing, None)
        monkeypatch.setattr(
            vectorized_mod, "_matmul",
            lambda x, y, _m=vectorized_mod._matmul: products.append(1) or _m(x, y),
        )
        slow = run_strategy(program, "Dynamic")
        assert_results_identical(slow, fast)
        assert_results_identical(slow, oracle_run(run_strategy, program, "Dynamic"))
        # the fallback really ran, for every live pair
        assert len(products) == sum(
            sum(n for prim, n in ks.primitive_counts.items() if prim.name != "SKIP")
            for ks in slow.kernel_stats
        )


    @pytest.mark.parametrize(
        "missing", ["_CSR_HSTACK", "_CSR_TOCSC", "_CSR_SUM_DUPLICATES"]
    )
    def test_without_a_merge_kernel_tasks_sum_dense(
        self, tiny_programs, missing, monkeypatch
    ):
        """A SciPy without one of the merge's three entry points holds no
        task's products: every task sums a dense ``z``, with the same bits."""
        program = tiny_programs["GraphSAGE"]
        merges = []
        merge = vectorized_mod._merge_csr_products
        monkeypatch.setattr(
            vectorized_mod, "_merge_csr_products",
            lambda m, d, products: merges.append(1) or merge(m, d, products),
        )
        held = run_strategy(program, "Dynamic")
        assert merges
        merges.clear()
        monkeypatch.setattr(vectorized_mod, missing, None)
        dense = run_strategy(program, "Dynamic")
        assert not merges
        assert bits(dense.output_dense()) == bits(held.output_dense())
        assert_results_identical(dense, held)

    def test_without_the_product_kernel_spmm_still_bills_from_the_census(
        self, monkeypatch
    ):
        """``csr_matmat`` missing, no pair goes entry by entry, yet every
        SPMM pair is still billed from the census, and identically."""
        program = Engine().compile("GIN", "CO", seed=0).program
        fast = run_strategy(program, "Dynamic")
        censused = []
        census = vectorized_mod.spmm_census
        monkeypatch.setattr(
            vectorized_mod, "spmm_census",
            lambda x_blocks, *rest: censused.append(len(x_blocks)) or census(x_blocks, *rest),
        )
        monkeypatch.setattr(vectorized_mod, "_CSR_MATMAT", None)
        slow = run_strategy(program, "Dynamic")
        assert_results_identical(slow, fast)
        spmm = sum(n for ks in slow.kernel_stats
                   for prim, n in ks.primitive_counts.items() if prim.name == "SPMM")
        assert spmm and sum(censused) == spmm  # the SPMM pairs, and nothing else


# -- the third view site --------------------------------------------------
def test_hetero_run_censuses_stored_operands_once(tiny_programs, monkeypatch):
    from repro.hetero.executor import HeterogeneousRuntime

    program = tiny_programs["GCN"]
    program._views.clear()
    scans = []
    scan = partition_mod.block_nnz_grid
    monkeypatch.setattr(
        partition_mod, "block_nnz_grid",
        lambda mat, br, bc: scans.append(mat.shape) or scan(mat, br, bc),
    )
    runtime = HeterogeneousRuntime()
    first = runtime.run(program)
    first_scans = len(scans)
    # A, H0 and the weights were viewed through the program, which keeps them
    stored = [key for key in program._views if key[0] in program.store]
    assert len(stored) >= 3
    second = runtime.run(program)
    assert second == first
    # only the intermediates the run materialises itself are scanned again
    assert len(scans) - first_scans == first_scans - len(stored)


class TestLanesShareRowCounts:
    """Phase 1 counts each Y block's rows once per view: the lanes of a
    sharded run and later runs over the same view share the count."""

    def test_four_lanes_count_what_one_lane_counts(self, monkeypatch):
        calls = []
        count = partition_mod.PartitionedMatrix.block_row_counts

        def counting(self, i, j):
            if (i, j) not in self._row_counts:  # a count is taken, not read back
                calls.append((self.name, i, j))
            return count(self, i, j)

        monkeypatch.setattr(partition_mod.PartitionedMatrix, "block_row_counts", counting)
        data = load_dataset("PU", scale=0.2, seed=0)
        runs = {}
        for lanes in (1, 4):
            program = Compiler().compile(
                build_model("GIN", data.num_features, data.hidden_dim, data.num_classes),
                data, seed=0)
            plan = plan_shards(program, lanes) if lanes > 1 else None
            devices = [Accelerator(program.config) for _ in range(lanes)]
            del calls[:]
            runs[lanes] = run_strategy(program, "Dynamic", devices if plan else devices[0],
                                       plan=plan), len(calls)
            run_strategy(program, "Dynamic", devices if plan else devices[0], plan=plan)
            # the stored operands' counts stay with the program's views
            assert len(calls) < 2 * runs[lanes][1]
        (one, one_calls), (four, four_calls) = runs[1], runs[4]
        assert one_calls == four_calls > 0
        assert bits(one.output_dense()) == bits(four.output_dense())
        assert [ks.macs for ks in one.kernel_stats] == [
            sum(ks.macs for ks in layer.lanes) for layer in four.layers]

    def test_a_block_count_is_row_counts(self):
        """``block_row_counts`` is ``row_counts`` of the block as int32, one
        row read twice where no stored zero parts the two: CSR blocks storing
        zeros, ``-0.0``, ``NaN`` or nothing, and dense blocks."""
        rng = np.random.default_rng(5)
        csr = sp.random(24, 20, density=0.3, format="csr", dtype=DTYPE, rng=rng)
        csr.data[[0, 5]], csr.data[9], csr.data[13] = 0.0, -0.0, np.nan
        dense = csr.toarray()
        for mat in (csr, dense):
            pm = PartitionedMatrix(mat, 8, 10)
            for i in range(pm.num_row_blocks):
                for j in range(pm.num_col_blocks):
                    got = pm.block_row_counts(i, j)
                    want = row_counts(pm.block(i, j))
                    assert got.dtype == np.int32 and got.shape == want.shape
                    np.testing.assert_array_equal(got, want)
                    assert not got.flags.writeable
                    assert pm.block_row_counts(i, j) is got  # counted once per view
        # one row read twice (stride 0) but where a stored zero parts them
        pm = PartitionedMatrix(csr, 8, 10)
        one_row = {pm.block_row_counts(i, j).strides[0] == 0
                   for i in range(pm.num_row_blocks) for j in range(pm.num_col_blocks)}
        assert one_row == {True, False}
