"""M1 — microbenchmarks of the vectorised runtime hot paths.

``repro bench --profile`` on the compile and inference paths surfaced
these inner loops, each rewritten as single numpy / native passes:

1. ``formats.partition.block_nnz_grid`` — the per-block nonzero census
   every compile and re-profile runs.  The ``np.add.at`` scatter-add
   became a CSR-native ``np.bincount`` over contiguous ``indptr`` slices
   (the reference implementation is kept in the test suite as
   ``block_nnz_grid_reference``, ``tests/unit_oracles.py``).  Dense
   operands — every intermediate feature matrix of a warm ``infer`` —
   are counted as a boolean mask,
   contiguous axis first; the dense cell below is GIN/CiteSeer's
   3327x3703 intermediate, the costliest census of the perf ledger.
2. ``runtime.strategies.DynamicMapping.decide_batch`` — Algorithm 7
   over all K pairs of a kernel in one vectorised pass instead of one
   call (record construction included) per pair.
3. ``hw.spmm_unit.spmm_workloads`` — the exact per-SCP loads of every
   SPMM pair, one int64 prefix sum instead of ``tocoo`` and two
   ``np.add.at`` scatters (kept below as the comparison); a dense-held
   operand is counted as it lies (``count_nonzero`` for Y's rows, one
   boolean mat-vec for X's row loads) instead of through a CSR built
   for the purpose.
   The task loop no longer counts pair by pair: one census per kernel
   (``hw.spmm_unit.spmm_census``) bills every SPMM pair and sizes every
   entry-route product, timed on one GIN x PU@0.5 Aggregate against
   ``spmm_compute_cycles`` + ``csr_matmat_maxnnz`` for each pair.
4. The task loop's pair product with both operands stored sparse, on
   its two routes, instead of SciPy's ``(x @ y).todense()`` (kept below
   as the comparison) and its fresh dense temporary per pair: entry by
   entry (``csr_matmat`` into a reusable scratch, the product's stored
   cells added where they fall) and S2D into one reusable scratch +
   ``csr_matvecs``.  The pair is what a warm inference of the perf
   ledger multiplies, a 720x720 adjacency block against a 720x500 block
   of features, at CiteSeer/Cora's feature density (1%), PubMed's (10%)
   and past the crossover (30%); the bench prints which route the
   task loop's rule takes at each and the crossover its three constants
   encode.
   A task of such pairs whose products stay sparse (a cold CiteSeer
   Aggregate's, ~3% stored) is timed two ways: summed into a dense ``z``
   that the assembly then masks and rescans (kept below), against its
   products held as CSR and merged into the one block the assembly keeps.
5. ``formats.partition``'s split of a sparse operand into its CSR
   blocks: one block-major layout (one radix sort of a 16-bit block id,
   or no sort at all for one block column) instead of a SciPy slice,
   ``sort_indices``, an int64 ``argsort`` and a bincount per block row
   (kept below as the comparison).  The three operands are the ones a
   patched program of the perf ledger re-splits or a cold one splits.
6. ``dyngraph.mutable._csr_find`` — where a delta's edges sit in the
   stored adjacency: every edge bisects its own row, all of them in
   step, instead of a Python iteration per edge (kept below).
7. The serve loop, ``repro.sched.scheduler``: host microseconds per
   request of one warm sweep, the loop (arrivals, batch windows,
   dispatch) apart from the report it ends in.  No "before" arm: the
   committed baseline is the layer's number, and two replays must report
   alike.
8. The shard lanes, ``runtime.vectorized.execute_kernel_tasks``: a
   four-lane inference's host time over the one-lane inference's of the
   same program (``shard_sweep``'s GCN x PU@0.5).  The task loop runs
   once per kernel at every width and a lane splits only the DDR share
   and the dispatch, so the ratio stays near 1; a loop called once per
   kernel and lane (the Analyzer pass, the pair bills and the
   write-back four times) reads about 1.7x.  The "before" arm is the
   one-lane run, and the two outputs must be bit-identical.

Each bench times before/after on the same inputs, in alternating calls,
asserts the results are bit-identical, and reports the speedup, the
median of the rounds' paired ratios (``paired_speedups``) that its floor
asserts — the committed baseline under
``results/baselines/`` is the repo's record that the optimisation landed
(>= 2x on both at the default scale) and CI's guard that it stays in.
"""

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from _common import (
    MODELS, Metric, emit, format_table, paired_speedups, register_bench,
)
from repro import load_dataset, u250_default
from repro.config import small_test_config
from repro.dyngraph.mutable import _csr_find
from repro.engine import Engine
from repro.formats.dense import DTYPE
from repro.formats.partition import PartitionedMatrix, block_nnz_grid
from repro.gnn import build_adjacency_variants
from repro.hw.spmm_unit import (
    row_counts, scp_cycles, spmm_census, spmm_compute_cycles, spmm_workloads,
)
from repro.runtime.executor import KernelAssembly
from repro.runtime.perf_model import PairBatch
from repro.runtime.strategies import DynamicMapping
from repro.runtime.vectorized import (
    _NS_PER_CELL,
    _NS_PER_MAC,
    _NS_PER_ROW_CELL,
    _accumulate_csr_product,
    _add_csr_csr_product,
    _csr_csr_product,
    _entry_route,
    _merge_csr_products,
)
from repro.sched.scheduler import ContinuousScheduler
from repro.serve import synthesize

_tests = str(Path(__file__).resolve().parent.parent / "tests")
if _tests not in sys.path:
    sys.path.append(_tests)
from unit_oracles import block_nnz_grid_reference  # noqa: E402

#: default scale of both microbenches (identical in smoke and full: the
#: kernels are milliseconds, and the baseline must record the real ratio)
GRID_N = 6000
GRID_DENSITY = 0.02
GRID_BLOCK = 256
DENSE_SHAPE = (3327, 3703)
DENSE_DENSITY = 0.5
DENSE_BLOCK = 720
NUM_PAIRS = 100_000
#: the ledger's sparse x sparse pair (N1 = 720, PubMed's 500 features)
PAIR_N1 = 720
PAIR_D = 500
PAIR_X_NNZ = 600
PAIR_Y_DENSITY = 0.10
#: Y densities of the two-route comparison (CI/CO features, PU's, past
#: the crossover)
ROUTE_Y_DENSITIES = (0.01, PAIR_Y_DENSITY, 0.30)
PAIR_CALLS = 50
#: a cold CiteSeer Aggregate task: 720 x 720 adjacency blocks of ~500
#: entries against 720 x 720 blocks of 1%-dense features, five pairs,
#: about 3% of the partition stored in the sum
TASK_PAIRS = 5
TASK_X_NNZ = 500
TASK_Y_DENSITY = 0.01
TASK_CALLS = 10
#: the operands the perf ledger splits: (label, dataset, scale, operand,
#: block columns) under N1 = 720 row blocking
SPLIT_N1 = 720
SPLIT_CELLS = (
    ("A_norm PU@0.5 14x14", "PU", 0.5, "A_norm", SPLIT_N1),
    ("H0 PU@0.5 14x1", "PU", 0.5, "H0", None),
    ("A_norm RE@0.02 7x7", "RE", 0.02, "A_norm", SPLIT_N1),
)
#: the GIN x PU@0.5 Aggregate of ``micro_pair_census``: (dataset, scale)
CENSUS_CELL = ("PU", 0.5)
#: share of the stored edges one mutation of ``serve_churn`` touches
FIND_EDGE_FRACTION = 0.005
#: hot path 8's program (``shard_sweep``'s GCN cell), its widest plan and
#: the paired rounds
SHARD_CELL, SHARD_LANES, SHARD_ROUNDS = ("GCN", "PU", 0.5), 4, 15


def _grid_inputs():
    rng = np.random.default_rng(11)
    return sp.random(
        GRID_N, GRID_N, density=GRID_DENSITY, format="csr",
        dtype=np.float32, rng=rng,
    )


def _dense_inputs():
    rng = np.random.default_rng(13)
    mat = rng.uniform(0.5, 1.5, size=DENSE_SHAPE).astype(np.float32)
    mat[rng.random(DENSE_SHAPE) >= DENSE_DENSITY] = 0.0
    return mat


@register_bench(
    "micro_block_nnz_grid",
    tier=("smoke", "full"),
    tags=("micro", "hotpath"),
    # same-machine before/after ratio: the bincount-vs-scatter gap is
    # machine-stable in class but not in digits; the band still catches
    # the vectorisation being reverted (speedup collapsing toward 1x)
    tolerances={"speedup": 0.6, "dense_speedup": 0.6},
)
def _grid_spec():
    """Hot path 1: block-nnz census, np.bincount vs np.add.at scatter."""
    mat = _grid_inputs()
    (ref, new), (ref_s, new_s), ratio = paired_speedups(
        lambda: block_nnz_grid_reference(mat, GRID_BLOCK, GRID_BLOCK),
        lambda: block_nnz_grid(mat, GRID_BLOCK, GRID_BLOCK),
    )
    assert np.array_equal(ref, new), "vectorised grid must be bit-exact"
    speedup = ratio[0, 1]
    dense = _dense_inputs()
    (dref, dnew), (dref_s, dnew_s), ratio = paired_speedups(
        lambda: block_nnz_grid_reference(dense, DENSE_BLOCK, DENSE_BLOCK),
        lambda: block_nnz_grid(dense, DENSE_BLOCK, DENSE_BLOCK),
        repeats=3,
    )
    assert np.array_equal(dref, dnew), "dense census must be bit-exact"
    dense_speedup = ratio[0, 1]
    emit("micro_block_nnz_grid", format_table(
        ["operand", "variant", "best (ms)", "speedup"],
        [
            ["CSR", "np.add.at (reference)", f"{ref_s * 1e3:.3f}", "1.00x"],
            ["CSR", "np.bincount", f"{new_s * 1e3:.3f}", f"{speedup:.2f}x"],
            ["dense", "np.nonzero + np.add.at (reference)",
             f"{dref_s * 1e3:.3f}", "1.00x"],
            ["dense", "mask, columns then rows", f"{dnew_s * 1e3:.3f}",
             f"{dense_speedup:.2f}x"],
        ],
        title=(
            f"M1a: block_nnz_grid, {GRID_N}x{GRID_N} CSR "
            f"@ {GRID_DENSITY:.0%} density, {GRID_BLOCK}-blocks; "
            f"{DENSE_SHAPE[0]}x{DENSE_SHAPE[1]} float32 ndarray "
            f"@ {DENSE_DENSITY:.0%}, {DENSE_BLOCK}-blocks"
        ),
    ))
    assert speedup > 1.5, f"vectorised grid only {speedup:.2f}x faster"
    assert dense_speedup > 1.5, f"dense census only {dense_speedup:.2f}x faster"
    return {
        "speedup": Metric("speedup", speedup, "x", "higher"),
        "vectorized_ms": Metric("vectorized_ms", new_s * 1e3, "ms"),
        "dense_speedup": Metric("dense_speedup", dense_speedup, "x", "higher"),
        "dense_ms": Metric("dense_ms", dnew_s * 1e3, "ms"),
    }


def _pair_census():
    """Nonzero counts of ``NUM_PAIRS`` pairs of a 512 x 512 block against
    a 512 x 128 one, every branch reachable."""
    rng = np.random.default_rng(23)
    ax = rng.uniform(0.0, 1.0, NUM_PAIRS)
    ay = rng.uniform(0.0, 1.0, NUM_PAIRS)
    # zeros (skip) and exact ties
    ax[::17] = 0.0
    ay[::29] = 0.0
    ay[::13] = ax[::13]
    return (np.rint(ax * 512 * 512).astype(np.int64),
            np.rint(ay * 512 * 128).astype(np.int64))


def _pairs(census, lo=0, hi=NUM_PAIRS):
    """Pairs ``lo:hi`` (X stored sparse, Y dense), each a task of its own
    in a kernel that keeps every core streaming, so a pair's decision
    does not depend on which others are asked about with it."""
    k = hi - lo
    return PairBatch(
        m=np.full(k, 512), n=np.full(k, 512), d=np.full(k, 128),
        x_nnz=census[0][lo:hi], y_nnz=census[1][lo:hi],
        x_stored_sparse=True, y_stored_sparse=False,
        task=np.arange(k), num_tasks=u250_default().num_cores, seeded=True,
    )


def _decide_scalar(analyzer, census, count):
    codes = np.empty(count, dtype=np.int8)
    transposed = np.zeros(count, dtype=bool)
    for i in range(count):
        code, flip, _ = analyzer.decide_batch(None, _pairs(census, i, i + 1))
        codes[i], transposed[i] = code[0], flip[0]
    return codes, transposed


@register_bench(
    "micro_k2p_decision_batch",
    tier=("smoke", "full"),
    tags=("micro", "hotpath"),
    tolerances={"speedup": 0.6},
)
def _k2p_spec():
    """Hot path 2: Algorithm 7 K2P mapping, one batch vs a call per pair."""
    analyzer = DynamicMapping(u250_default())
    census = _pair_census()
    batch = _pairs(census)
    # the per-pair arm runs a slice of 2,000 pairs, held bit-exact, and is
    # scaled to the whole grid (every branch recurs within 17 * 29 pairs)
    part = NUM_PAIRS // 50
    ((ref_codes, ref_t), (new_codes, new_t, _)), (ref_s, new_s), ratio = paired_speedups(
        lambda: _decide_scalar(analyzer, census, part),
        lambda: analyzer.decide_batch(None, batch),
        repeats=3,
    )
    ref_s *= NUM_PAIRS / part
    assert np.array_equal(ref_codes, new_codes[:part]), "decisions must be bit-exact"
    assert np.array_equal(ref_t, new_t[:part]), "orientation flags must be bit-exact"
    speedup = ratio[0, 1] * NUM_PAIRS / part
    emit("micro_k2p_decision_batch", format_table(
        ["variant", "best (ms)", "speedup"],
        [
            ["decide_batch() per pair", f"{ref_s * 1e3:.3f}", "1.00x"],
            ["decide_batch()", f"{new_s * 1e3:.3f}", f"{speedup:.2f}x"],
        ],
        title=f"M1b: K2P mapping over {NUM_PAIRS:,} pairs",
    ))
    assert speedup > 1.5, f"batched K2P only {speedup:.2f}x faster"
    return {
        "speedup": Metric("speedup", speedup, "x", "higher"),
        "vectorized_ms": Metric("vectorized_ms", new_s * 1e3, "ms"),
    }


def _structural(x, y) -> int:
    """The size the task loop's census gives ``x @ y``'s product."""
    return int(spmm_census([x], row_counts(y), np.zeros(1, np.intp), y.shape[1], 1)[2][0])


def _operand_pair(y_density=PAIR_Y_DENSITY):
    rng = np.random.default_rng(31)
    x = sp.random(
        PAIR_N1, PAIR_N1, density=PAIR_X_NNZ / PAIR_N1**2, format="csr",
        dtype=np.float32, rng=rng,
    )
    y = sp.random(
        PAIR_N1, PAIR_D, density=y_density, format="csr",
        dtype=np.float32, rng=rng,
    )
    return x, y


def _per_pair(fn, *args):
    """``fn(*args)`` ``PAIR_CALLS`` times over (one call is too short to
    time); the last result."""
    return lambda: [fn(*args) for _ in range(PAIR_CALLS)][-1]


def _spmm_workloads_scatter(x, y, psys):
    """``spmm_workloads`` as it was: COO rows + two ``np.add.at``."""
    y_row_nnz = np.diff(y.indptr)
    xc = x.tocoo()
    row_macs = np.zeros(x.shape[0], dtype=np.int64)
    np.add.at(row_macs, xc.row, y_row_nnz[xc.col])
    scp_loads = np.zeros(psys, dtype=np.int64)
    np.add.at(scp_loads, np.arange(x.shape[0]) % psys, row_macs)
    return scp_loads, int(row_macs.sum())


@register_bench(
    "micro_spmm_workloads",
    tier=("smoke", "full"),
    tags=("micro", "hotpath"),
    tolerances={"speedup": 0.6, "dense_y_speedup": 0.6, "dense_speedup": 0.6},
)
def _spmm_workloads_spec():
    """Hot path 3: exact SPMM per-SCP loads, prefix sum vs np.add.at.

    Each pair of arms is timed in alternating calls, and each speedup is
    the median of the rounds' paired ratios."""
    x, y = _operand_pair()
    psys = u250_default().psys
    ((ref_loads, ref_macs), (new_loads, new_macs)), (ref_s, new_s), ratio = paired_speedups(
        _per_pair(_spmm_workloads_scatter, x, y, psys), _per_pair(spmm_workloads, x, y, psys))
    assert np.array_equal(ref_loads, new_loads) and ref_macs == new_macs
    speedup = ratio[0, 1]
    # a dense-held operand (an intermediate the Analyzer sends to SPMM):
    # counted as it lies against a CSR built through ``nonzero`` first
    xd, yd = x.toarray(), y.toarray()
    dense_rows, dense = [], {}
    for label, key, args in (
        ("CSR x dense Y", "dense_y_speedup", (x, yd)),
        ("dense X x dense Y", "dense_speedup", (xd, yd)),
    ):
        ((was_loads, was_macs), (got_loads, got_macs)), (was_s, got_s), ratio = paired_speedups(
            _per_pair(lambda a, b: spmm_workloads(sp.csr_matrix(a), sp.csr_matrix(b), psys),
                      *args),
            _per_pair(spmm_workloads, *args, psys))
        assert np.array_equal(got_loads, new_loads) and got_macs == new_macs
        assert np.array_equal(was_loads, new_loads) and was_macs == new_macs
        dense[key] = Metric(key, ratio[0, 1], "x", "higher")
        dense_rows.append([f"{label}: through csr_matrix",
                           f"{was_s / PAIR_CALLS * 1e6:.1f}", "1.00x"])
        dense_rows.append([f"{label}: as it lies",
                           f"{got_s / PAIR_CALLS * 1e6:.1f}", f"{ratio[0, 1]:.2f}x"])
    emit("micro_spmm_workloads", format_table(
        ["variant", "best (us / pair)", "speedup"],
        [
            ["tocoo + 2x np.add.at", f"{ref_s / PAIR_CALLS * 1e6:.1f}", "1.00x"],
            ["prefix sum + fold", f"{new_s / PAIR_CALLS * 1e6:.1f}",
             f"{speedup:.2f}x"],
            *dense_rows,
        ],
        title=(
            f"M1c: spmm_workloads, {PAIR_N1}x{PAIR_N1} block of "
            f"{x.nnz} nonzeros against {PAIR_N1}x{PAIR_D} "
            f"@ {PAIR_Y_DENSITY:.0%}, psys={psys}"
        ),
    ))
    assert speedup > 1.2, f"prefix-sum workloads only {speedup:.2f}x faster"
    return {
        "speedup": Metric("speedup", speedup, "x", "higher"),
        "per_pair_us": Metric("per_pair_us", new_s / PAIR_CALLS * 1e6, "us"),
        **dense,
    }


def _census_inputs():
    """Every pair of one GIN x PU@0.5 Aggregate: its 14 x 14 adjacency
    blocks (720 x 720) against the 14 CSR blocks of the features
    (720 x 500); pair ``(i, j)`` meets feature block ``j``."""
    a, h = (_split_operand(*CENSUS_CELL, operand) for operand in ("A_gin", "H0"))
    av = PartitionedMatrix(a, SPLIT_N1, SPLIT_N1)
    hv = PartitionedMatrix(h, SPLIT_N1, h.shape[1])
    nr = av.num_row_blocks
    x_blocks = [blk for i in range(nr) for blk in av.csr_blocks_for_row(i)]
    y_blocks = [hv.csr_blocks_for_row(j)[0] for j in range(nr)]
    return x_blocks, y_blocks, np.tile(np.arange(nr), nr)


def _bill_per_pair(x_blocks, y_blocks, y_of, config):
    """Pair by pair, as the task loop did: the SPMM bill and the size
    ``csr_matmat_maxnnz`` gives the product."""
    bills = []
    for x, k in zip(x_blocks, y_of):
        y = y_blocks[k]
        bills.append((*spmm_compute_cycles(x, y, config), _sparsetools.csr_matmat_maxnnz(
            x.shape[0], y.shape[1], x.indptr, x.indices, y.indptr, y.indices)))
    return np.array(bills, dtype=np.int64).T


def _bill_by_census(x_blocks, y_blocks, y_of, config):
    """The same pairs as the task loop bills them: each feature block's
    row counts once, then one census per adjacency block row (cycles,
    MACs, structural MACs)."""
    counts = [row_counts(y) for y in y_blocks]
    starts = np.cumsum([0] + [c.shape[1] for c in counts])[y_of]
    y_counts, rows = np.concatenate(counts, axis=1), len(y_blocks)
    widths = y_blocks[0].shape[1]
    bills = [spmm_census(x_blocks[lo : lo + rows], y_counts, starts[lo : lo + rows], widths,
                         config.psys) for lo in range(0, len(x_blocks), rows)]
    loads, macs, structural = (np.concatenate(parts) for parts in zip(*bills))
    return scp_cycles(loads, macs, config), macs, structural


@register_bench(
    "micro_pair_census",
    tier=("smoke", "full"),
    tags=("micro", "hotpath"),
    tolerances={"speedup": 0.6},
)
def _pair_census_spec():
    """Hot path 3b: a kernel's SPMM bills and product sizes, per pair vs one census."""
    config = u250_default()
    args = (*_census_inputs(), config)
    ((cycles, macs, maxnnz), (got_cycles, got_macs, structural)), (per_pair_s, census_s), \
        ratio = paired_speedups(lambda: _bill_per_pair(*args), lambda: _bill_by_census(*args))
    assert np.array_equal(cycles, got_cycles) and np.array_equal(macs, got_macs), (
        "the census must bill what each pair bills")
    d = args[1][0].shape[1]
    assert (structural >= maxnnz).all(), "a product outgrew its size"
    speedup = ratio[0, 1]
    emit("micro_pair_census", format_table(
        ["variant", "best (ms / kernel)", "speedup"],
        [
            ["spmm_compute_cycles + csr_matmat_maxnnz per pair",
             f"{per_pair_s * 1e3:.2f}", "1.00x"],
            ["spmm_census", f"{census_s * 1e3:.2f}", f"{speedup:.2f}x"],
        ],
        title=(
            f"M1c': SPMM bills and product sizes of {len(macs)} pairs, GIN x "
            f"{CENSUS_CELL[0]}@{CENSUS_CELL[1]:g}'s Aggregate ({SPLIT_N1}x{SPLIT_N1} "
            f"adjacency blocks against {SPLIT_N1}x{d} CSR features), psys={config.psys}"
        ),
    ))
    assert speedup > 2, f"the census only {speedup:.2f}x faster"
    return {
        "speedup": Metric("speedup", speedup, "x", "higher"),
        "census_ms": Metric("census_ms", census_s * 1e3, "ms"),
    }


def _pair_product_scipy(x, y):
    """The statement the task loop used for a sparse x sparse pair."""
    return np.asarray((x @ y).todense(), dtype=DTYPE)


@register_bench(
    "micro_pair_product",
    tier=("smoke", "full"),
    tags=("micro", "hotpath"),
    tolerances={
        "speedup": 0.6, "entry_speedup_1pct": 0.6, "entry_speedup_10pct": 0.6,
        "entry_speedup_30pct": 0.6,
    },
)
def _pair_product_spec():
    """Hot path 4: sparse x sparse pair, entry by entry vs S2D vs csr @ csr."""
    n1, d = PAIR_N1, PAIR_D
    s2d = np.empty(n1 * d, dtype=DTYPE)
    partial = np.empty((n1, d), dtype=DTYPE)
    work: dict = {}
    # the running sum of a task whose earlier pairs started it from +0.0
    z0 = _pair_product_scipy(*_operand_pair(0.05))
    rows, metrics = [], {}
    for y_density in ROUTE_Y_DENSITIES:
        x, y = _operand_pair(y_density)

        # each arm is what the task loop runs for a pair after the first
        def by_scipy(z):
            z += _pair_product_scipy(x, y)

        def by_s2d(z):
            partial.fill(0)
            _accumulate_csr_product(x, y, None, s2d, partial)
            z += partial

        def by_entry(z, nmax=_structural(x, y)):
            _add_csr_csr_product(x, y, nmax, work, z)

        arms = (by_scipy, by_s2d, by_entry)
        sums = [z0.copy() for _ in arms]
        for arm, z in zip(arms, sums):
            arm(z)
        assert sums[0].tobytes() == sums[1].tobytes() == sums[2].tobytes(), (
            "pair product must be bit-exact on every route"
        )
        _, seconds, ratio = paired_speedups(*map(_per_pair, arms, sums))
        ref_s, s2d_s, entry_s = seconds / PAIR_CALLS
        rows.append([
            f"{y_density:.0%}", f"{ref_s * 1e6:.1f}", f"{s2d_s * 1e6:.1f}",
            f"{entry_s * 1e6:.1f}", f"{ratio[1, 2]:.2f}x",
            "entry" if _entry_route(x.nnz, y.nnz, n1, n1, d) else "S2D",
        ])
        name = f"entry_speedup_{y_density:.0%}".replace("%", "pct")
        metrics[name] = Metric(name, ratio[1, 2], "x", "higher")
        if y_density == PAIR_Y_DENSITY:
            speedup = ratio[0, 1]
            metrics["speedup"] = Metric("speedup", speedup, "x", "higher")
            metrics["per_pair_us"] = Metric("per_pair_us", s2d_s * 1e6, "us")
    # the Y density at which the rule hands this X block over to S2D
    crossover = (
        _NS_PER_CELL * 2 * n1 + _NS_PER_ROW_CELL * x.nnz
    ) / (_NS_PER_MAC * x.nnz)
    emit("micro_pair_product", format_table(
        ["Y density", "z += (x @ y).todense()", "S2D + csr_matvecs + add",
         "csr_matmat + scatter", "entry vs S2D", "rule takes"],
        rows,
        title=(
            f"M1d: pair product, best us / pair, {n1}x{n1} block of {x.nnz} "
            f"nonzeros @ {n1}x{d} CSR; the rule's {_NS_PER_MAC:g} / "
            f"{_NS_PER_CELL:g} / {_NS_PER_ROW_CELL:g} ns put the crossover "
            f"at {crossover:.1%} (S2D scratch held for the call: "
            f"{s2d.nbytes + partial.nbytes:,} B)"
        ),
    ))
    assert speedup > 1.2, f"native pair product only {speedup:.2f}x faster"
    sparse_gain = metrics["entry_speedup_1pct"].value
    assert sparse_gain > 2, f"entry route only {sparse_gain:.2f}x faster at 1%"
    return {
        **metrics,
        "crossover_y_density": Metric("crossover_y_density", crossover, "ratio"),
        "temp_bytes_saved": Metric(
            "temp_bytes_saved", float(partial.nbytes), "B", "higher"
        ),
    }


def _task_pairs():
    """The task's ``(x, y, product size)`` triples (the size is phase 1's)."""
    rng = np.random.default_rng(41)
    n1 = PAIR_N1
    pairs = [(
        sp.random(n1, n1, density=TASK_X_NNZ / n1**2, format="csr",
                  dtype=np.float32, rng=rng),
        sp.random(n1, n1, density=TASK_Y_DENSITY, format="csr",
                  dtype=np.float32, rng=rng),
    ) for _ in range(TASK_PAIRS)]
    return [(x, y, _structural(x, y)) for x, y in pairs]


def _per_task(fn, *args):
    """``fn(*args)`` ``TASK_CALLS`` times over; the last result."""
    return lambda: [fn(*args) for _ in range(TASK_CALLS)][-1]


def _task_densified(pairs, work):
    """The output block as the task loop held it: a dense ``z`` summed
    pair by pair, then masked and rescanned by the assembly's write."""
    n1 = PAIR_N1
    z = np.zeros((n1, n1), dtype=DTYPE)
    for x, y, nmax in pairs:
        _add_csr_csr_product(x, y, nmax, work, z)
    asm = KernelAssembly(n1, n1, n1, n1, np.zeros((1, 1), np.int64))
    asm.write(0, 0, z)
    return asm.blocks[0, 0]


def _task_merged(pairs, work):
    """The same block from the products held as CSR and merged."""
    n1 = PAIR_N1
    held = [[a.copy() for a in _csr_csr_product(x, y, n1, nmax, work)] for x, y, nmax in pairs]
    return _merge_csr_products(n1, n1, held)


@register_bench(
    "micro_task_merge",
    tier=("smoke", "full"),
    tags=("micro", "hotpath"),
    tolerances={"speedup": 0.6},
)
def _task_merge_spec():
    """Hot path 4b: a sparse task's output block, densify + rescan vs merge."""
    pairs = _task_pairs()
    work: dict = {}
    (dense, merged), (dense_s, merged_s), ratio = paired_speedups(
        _per_task(_task_densified, pairs, work), _per_task(_task_merged, pairs, work))
    assert all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip((dense.indptr, dense.indices, dense.data),
                        (merged.indptr, merged.indices, merged.data))
    ), "the merged block must be the densified one, byte for byte"
    dense_s, merged_s = dense_s / TASK_CALLS, merged_s / TASK_CALLS
    speedup = ratio[0, 1]
    density = merged.nnz / PAIR_N1**2
    emit("micro_task_merge", format_table(
        ["variant", "best (us / task)", "speedup"],
        [
            ["dense z + mask + flatnonzero", f"{dense_s * 1e6:.1f}", "1.00x"],
            ["held CSR + hstack / 2x tocsc / sum_duplicates",
             f"{merged_s * 1e6:.1f}", f"{speedup:.2f}x"],
        ],
        title=(
            f"M1d': one {PAIR_N1}x{PAIR_N1} output partition of {TASK_PAIRS} "
            f"CSR x CSR pairs, {merged.nnz} stored ({density:.1%})"
        ),
    ))
    assert speedup > 1.5, f"merging a sparse task only {speedup:.2f}x faster"
    return {
        "speedup": Metric("speedup", speedup, "x", "higher"),
        "merged_us": Metric("merged_us", merged_s * 1e6, "us"),
        "out_density": Metric("out_density", density, "ratio"),
    }


def _split_stripe_by_stripe(mat, block_rows, block_cols):
    """``csr_blocks_for_row`` over every block row, as it was: a SciPy
    slice, ``sort_indices``, an int64 ``argsort`` and a bincount per
    stripe; each block as its ``(data, indices, indptr)``."""
    nrows_total, ncols = mat.shape
    nc = -(-ncols // block_cols)
    out = []
    for r0 in range(0, nrows_total, block_rows):
        stripe = mat[r0 : r0 + block_rows, :].tocsr()
        stripe.sort_indices()
        nrows = stripe.shape[0]
        idx = stripe.indices
        cb = idx // block_cols
        order = np.argsort(cb, kind="stable")
        data_s = stripe.data[order]
        local_s = (idx - cb * block_cols).astype(idx.dtype, copy=False)[order]
        entry_rows = np.repeat(
            np.arange(nrows, dtype=np.int64), np.diff(stripe.indptr)
        )
        counts2d = np.bincount(
            cb * nrows + entry_rows, minlength=nc * nrows
        ).reshape(nc, nrows)
        indptr2d = np.zeros((nc, nrows + 1), dtype=np.int64)
        np.cumsum(counts2d, axis=1, out=indptr2d[:, 1:])
        offsets = np.concatenate(([0], np.cumsum(indptr2d[:, -1])))
        out.append([
            (data_s[offsets[b] : offsets[b + 1]],
             local_s[offsets[b] : offsets[b + 1]],
             indptr2d[b].astype(idx.dtype, copy=False))
            for b in range(nc)
        ])
    return out


def _split_layout(mat, block_rows, block_cols, census):
    """The same blocks off a fresh view's block-major layout (the census
    handed over, as a patched program's views get it)."""
    view = PartitionedMatrix(mat, block_rows, block_cols, nnz_grid=census)
    return [
        [(blk.data, blk.indices, blk.indptr) for blk in view.csr_blocks_for_row(i)]
        for i in range(view.num_row_blocks)
    ]


def _split_operand(dataset, scale, operand):
    data = load_dataset(dataset, scale=scale, seed=0)
    if operand == "H0":
        return data.h0.tocsr()
    return build_adjacency_variants(data.a, {operand})[operand]


def _same_blocks(ref, new) -> bool:
    return all(
        a.dtype == b.dtype and np.array_equal(a, b)
        for ref_row, new_row in zip(ref, new, strict=True)
        for ref_blk, new_blk in zip(ref_row, new_row, strict=True)
        for a, b in zip(ref_blk, new_blk)
    )


@register_bench(
    "micro_block_split",
    tier=("smoke", "full"),
    tags=("micro", "hotpath"),
    tolerances={"speedup": 0.6, "one_column_speedup": 0.6, "large_speedup": 0.6},
)
def _block_split_spec():
    """Hot path 5: CSR blocks of a sparse operand, one layout vs per stripe."""
    rows, metrics = [], {}
    names = ("speedup", "one_column_speedup", "large_speedup")
    for name, (label, dataset, scale, operand, block_cols) in zip(names, SPLIT_CELLS):
        mat = _split_operand(dataset, scale, operand)
        block_cols = block_cols or mat.shape[1]
        census = block_nnz_grid(mat, SPLIT_N1, block_cols)
        (ref, new), (ref_s, new_s), ratio = paired_speedups(
            lambda: _split_stripe_by_stripe(mat, SPLIT_N1, block_cols),
            lambda: _split_layout(mat, SPLIT_N1, block_cols, census))
        assert _same_blocks(ref, new), f"{label}: blocks must be byte-identical"
        speedup = ratio[0, 1]
        rows.append([label, f"{mat.nnz:,}", f"{ref_s * 1e3:.3f}",
                     f"{new_s * 1e3:.3f}", f"{speedup:.2f}x"])
        metrics[name] = Metric(name, speedup, "x", "higher")
        # the ledger's serve_churn operand (first cell) in absolute terms
        metrics.setdefault("layout_ms", Metric("layout_ms", new_s * 1e3, "ms"))
        assert speedup > 1.2, f"{label}: layout only {speedup:.2f}x faster"
    emit("micro_block_split", format_table(
        ["operand", "stored", "per stripe (ms)", "one layout (ms)", "speedup"],
        rows,
        title=f"M1e: every CSR block of a sparse operand, {SPLIT_N1}-row blocks",
    ))
    return metrics


def _csr_find_per_edge(mat, rows, cols):
    """``_csr_find`` as it was: one binary search per edge, in Python."""
    indptr, indices = mat.indptr, mat.indices
    out = np.full(rows.size, -1, dtype=np.int64)
    for k in range(rows.size):
        lo, hi = int(indptr[rows[k]]), int(indptr[rows[k] + 1])
        pos = lo + int(np.searchsorted(indices[lo:hi], cols[k]))
        if pos < hi and indices[pos] == cols[k]:
            out[k] = pos
    return out


def _find_inputs():
    """PU@0.5's adjacency and one mutation's worth of lookups: half the
    delta's edges stored (the deletes), half random (the inserts)."""
    a = load_dataset("PU", scale=0.5, seed=0).a.tocsr()
    rng = np.random.default_rng(37)
    k = max(1, int(a.nnz * FIND_EDGE_FRACTION / 2))
    coo = a.tocoo()
    gone = rng.choice(a.nnz, size=k, replace=False)
    rows = np.concatenate((coo.row[gone], rng.integers(0, a.shape[0], k)))
    cols = np.concatenate((coo.col[gone], rng.integers(0, a.shape[0], k)))
    return a, rows.astype(np.int64), cols.astype(np.int64)


@register_bench(
    "micro_csr_find",
    tier=("smoke", "full"),
    tags=("micro", "hotpath", "dyngraph"),
    tolerances={"speedup": 0.6},
)
def _csr_find_spec():
    """Hot path 6: a delta's edges in the stored adjacency, search vs loop."""
    a, rows, cols = _find_inputs()
    (ref, new), (ref_s, new_s), ratio = paired_speedups(
        lambda: _csr_find_per_edge(a, rows, cols), lambda: _csr_find(a, rows, cols))
    assert np.array_equal(ref, new) and (new >= 0).sum() >= rows.size // 2
    speedup = ratio[0, 1]
    emit("micro_csr_find", format_table(
        ["variant", "best (ms)", "speedup"],
        [
            ["searchsorted per edge", f"{ref_s * 1e3:.3f}", "1.00x"],
            ["every edge bisects its row, in step", f"{new_s * 1e3:.3f}",
             f"{speedup:.2f}x"],
        ],
        title=(
            f"M1f: _csr_find, {rows.size} lookups "
            f"({FIND_EDGE_FRACTION:.1%} edge delta) in PU@0.5's "
            f"{a.nnz:,} stored edges"
        ),
    ))
    assert speedup > 1.5, f"vectorised find only {speedup:.2f}x faster"
    return {
        "speedup": Metric("speedup", speedup, "x", "higher"),
        "vectorized_ms": Metric("vectorized_ms", new_s * 1e3, "ms"),
    }


#: hot path 7's stream: 8 templates (every model on Cora and CiteSeer at a
#: tenth of their size) arriving in a burst four devices of the small test
#: accelerator drain, so most requests join an execution in flight
SWEEP_REQUESTS, SWEEP_SCALE, SWEEP_REPLAYS = 4000, 0.1, 7


class _TimedSweep(ContinuousScheduler):
    """A sweep whose report is timed apart from the loop before it."""

    report_s = 0.0

    def _report(self):
        t0 = time.perf_counter()
        report = super()._report()
        self.report_s = time.perf_counter() - t0
        return report


@register_bench(
    "micro_serve_sweep",
    tier=("smoke", "full"),
    tags=("micro", "hotpath", "serve"),
)
def _serve_sweep_spec():
    """Hot path 7: a warm serve sweep's host cost per request."""
    engine = Engine(small_test_config(), pool_size=4)
    stream = synthesize(SWEEP_REQUESTS, arrival="poisson", rate_rps=1e6, models=MODELS,
                        datasets=("CO", "CI"), scale=SWEEP_SCALE, seed=0)
    engine.serve(stream)  # compiles and simulates each program once
    loop_s = report_s = float("inf")
    first = None
    for _ in range(SWEEP_REPLAYS):
        sweep = _TimedSweep(engine)
        t0 = time.perf_counter()
        report = sweep.run(stream)
        total_s = time.perf_counter() - t0
        loop_s = min(loop_s, total_s - sweep.report_s)
        report_s = min(report_s, sweep.report_s)
        # what two replays must agree on: the report and every response
        rows = (report.to_dict(),
                [dataclasses.replace(r, output=None) for r in report.responses])
        first = first or rows
        assert rows == first, "two warm replays of one stream reported differently"
    assert report.cache_misses == 0 and report.num_requests == SWEEP_REQUESTS
    loop_us, report_us = (s / SWEEP_REQUESTS * 1e6 for s in (loop_s, report_s))
    emit("micro_serve_sweep", format_table(
        ["part", "best (us / request)"],
        [["the loop: arrivals, batch windows, dispatch", f"{loop_us:.2f}"],
         ["the report: columns, histograms, classes", f"{report_us:.2f}"]],
        title=(
            f"M1g: one warm sweep of {SWEEP_REQUESTS} requests ({len(MODELS) * 2} "
            f"templates at scale {SWEEP_SCALE}) over {report.num_batches} executions, "
            f"best of {SWEEP_REPLAYS}"
        ),
    ))
    return {
        "loop_us_per_request": Metric("loop_us_per_request", loop_us, "us"),
        "report_us_per_request": Metric("report_us_per_request", report_us, "us"),
    }


@register_bench(
    "micro_shard_lanes",
    tier=("smoke", "full"),
    tags=("micro", "hotpath", "shard"),
)
def _shard_lanes_spec():
    """Hot path 8: a four-lane inference's host time over one lane's."""
    model, dataset, scale = SHARD_CELL
    engine = Engine(pool_size=SHARD_LANES)
    one = engine.compile(model, dataset, scale=scale, seed=0)
    four = engine.compile(model, dataset, scale=scale, seed=0, shards=SHARD_LANES)
    (single, sharded), (one_s, four_s), ratio = paired_speedups(
        lambda: engine.infer(one), lambda: engine.infer(four, backend="sharded"),
        repeats=SHARD_ROUNDS)
    assert sharded.num_shards == SHARD_LANES
    assert np.array_equal(sharded.output_dense(), single.output_dense())
    overhead = ratio[1, 0]
    emit("micro_shard_lanes", format_table(
        ["run", "best (ms)", "host time over one lane"],
        [
            ["one lane", f"{one_s * 1e3:.3f}", "1.00x"],
            [f"{SHARD_LANES} lanes", f"{four_s * 1e3:.3f}", f"{overhead:.2f}x"],
        ],
        title=(
            f"M1h: {model} x {dataset}@{scale:g} on one device and over "
            f"{SHARD_LANES}, median of {SHARD_ROUNDS} paired rounds"
        ),
    ))
    assert overhead <= 1.15, f"{SHARD_LANES} lanes cost {overhead:.2f}x one lane's host time"
    return {
        "overhead": Metric("overhead", overhead, "x", "lower"),
        "sharded_ms": Metric("sharded_ms", four_s * 1e3, "ms"),
    }
