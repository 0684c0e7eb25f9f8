"""The block-major layout behind every sparse block read.

Three oracles, none of which reads the layout:

* SciPy's own slicing, ``mat[r0:r1, c0:c1]`` with sorted indices: every
  block's ``data`` / ``indices`` / ``indptr`` values *and dtypes*;
* sha256 digests of every block of twelve fixed-seed views, recorded at
  the last commit that split stripe by stripe (5ced785: a per-stripe
  ``matrix[r0:r1]`` slice, ``sort_indices``, int64 ``argsort``), so "the
  same bytes as before" is a table, not a comparison of the code with
  itself;
* a dense count for the census, which must ignore stored ``0.0`` /
  ``-0.0`` although the blocks keep them.

Plus the two things the layout is for: a block row is split once however
many block rows the view has, and nothing sized ``num_blocks x
block_rows`` is ever allocated for the whole matrix.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.partition import PartitionedMatrix

from conftest import reassemble_from_blocks

NONE = (np.empty(0, np.int64),) * 2


def random_csr(rng, m, n, density, *, index_dtype=np.int32, unsorted=False,
               zeros=False) -> sp.csr_matrix:
    """Canonical float32 CSR, then made awkward on request: every fourth
    stored value ``0.0`` and the next ``-0.0``; each row's entries
    shuffled; indices and indptr widened."""
    mat = sp.random(m, n, density=density, format="csr", dtype=np.float32, rng=rng)
    if zeros and mat.nnz >= 4:
        mat.data[::4] = 0.0
        mat.data[1::4] = -0.0
    if unsorted:
        for r in range(m):
            lo, hi = mat.indptr[r], mat.indptr[r + 1]
            perm = rng.permutation(hi - lo)
            mat.indices[lo:hi] = mat.indices[lo:hi][perm]
            mat.data[lo:hi] = mat.data[lo:hi][perm]
        mat.has_sorted_indices = False
    mat.indices = mat.indices.astype(index_dtype)
    mat.indptr = mat.indptr.astype(index_dtype)
    return mat


def scipy_block(mat: sp.csr_matrix, pm: PartitionedMatrix, i: int, j: int):
    r0, c0 = i * pm.block_rows, j * pm.block_cols
    blk = mat[r0 : r0 + pm.block_rows, c0 : c0 + pm.block_cols].tocsr()
    blk.sort_indices()
    return blk


def assert_blocks_match_scipy(mat: sp.csr_matrix, pm: PartitionedMatrix, every=1) -> None:
    for i in range(0, pm.num_row_blocks, every):
        blocks = pm.csr_blocks_for_row(i)
        assert len(blocks) == pm.num_col_blocks
        for j, blk in enumerate(blocks):
            ref = scipy_block(mat, pm, i, j)
            assert blk.shape == ref.shape == pm.block_shape(i, j)
            for name in ("data", "indices", "indptr"):
                got, want = getattr(blk, name), getattr(ref, name)
                assert got.dtype == want.dtype, (i, j, name)
                np.testing.assert_array_equal(got, want)
            # the signs of stored zeros survive too
            np.testing.assert_array_equal(np.signbit(blk.data), np.signbit(ref.data))
            np.testing.assert_array_equal(pm.block(i, j).toarray(), ref.toarray())
            np.testing.assert_array_equal(pm.dense_block(i, j), ref.toarray())


def assert_census_counts_nonzeros(mat: sp.csr_matrix, pm: PartitionedMatrix) -> None:
    dense = mat.toarray()
    for i in range(pm.num_row_blocks):
        for j in range(pm.num_col_blocks):
            r0, c0 = i * pm.block_rows, j * pm.block_cols
            assert pm.block_nnz(i, j) == np.count_nonzero(
                dense[r0 : r0 + pm.block_rows, c0 : c0 + pm.block_cols]
            )


# -- the recorded table ---------------------------------------------------
def fixed_cases():
    """Twelve views on one seed: ``(name, view, the matrix it shows)``."""
    rng = np.random.default_rng(20260917)

    def view(mat, br, bc):
        return PartitionedMatrix(mat, br, bc), mat

    yield "ragged", *view(random_csr(rng, 57, 43, 0.2), 16, 12)
    yield "one_block", *view(random_csr(rng, 9, 7, 0.5), 16, 12)
    holes = random_csr(rng, 40, 30, 0.3).tolil()
    holes[5:19, :] = 0
    holes[:, 8:20] = 0
    yield "empty_rows_cols_blocks", *view(holes.tocsr(), 6, 5)
    yield "all_empty", *view(sp.csr_matrix((20, 18), dtype=np.float32), 6, 5)
    yield "stored_zeros", *view(random_csr(rng, 33, 29, 0.4, zeros=True), 8, 7)
    yield "unsorted", *view(random_csr(rng, 31, 37, 0.3, unsorted=True), 7, 9)
    yield "int64", *view(random_csr(rng, 31, 37, 0.3, index_dtype=np.int64), 7, 9)
    yield "int64_unsorted_one_col", *view(
        random_csr(rng, 31, 37, 0.3, index_dtype=np.int64, unsorted=True), 7, 37)
    yield "one_block_column", *view(random_csr(rng, 45, 11, 0.4), 8, 11)
    # 90,000 blocks: past what a 16-bit sort key can name
    yield "wide_key", *view(random_csr(rng, 300, 300, 0.01), 1, 1)
    base = random_csr(rng, 32, 32, 0.2)
    new = base.tolil()
    new[0, 31] = 2.5
    new = new.tocsr()
    added = (np.array([0]), np.array([31])) if base[0, 31] == 0 else NONE
    rebound = PartitionedMatrix(base, 8, 8)
    rebound.csr_blocks_for_row(0)  # a split of the old bytes must not survive
    rebound.apply_structural_delta(new, *added, *NONE)
    yield "after_structural_delta", rebound, new
    old = PartitionedMatrix(base, 8, 8)
    old.csr_blocks_for_row(1)
    yield "from_patched", PartitionedMatrix.from_patched(old, new, *added, *NONE)[0], new


#: ``blocks_digest`` of every case at 5ced785 (the parent of the layout)
RECORDED = {
    'ragged': 'ec96d27e5eeb54b9d2e836fe19ca30c168de25a93294b51c9823a505c934222a',
    'one_block': '534e36d4b8af6700e10432404ada99e63e404bff1d590de0c949c0777b67d280',
    'empty_rows_cols_blocks': 'd8ca97a4cd6e54fdf3b80e478b451421d726844fb669c7178342906c1e862480',
    'all_empty': '03119406c7d384dddf2efc568fd99f61445217349f6eaa74a40fed233ca6661e',
    'stored_zeros': 'd61e9d798b68219791cbbbddae0fd5fcb590b98a66369c654934141cd663ba4a',
    'unsorted': '16ada29db1a738ceef6c354fc232c8522fe9474baf82752ef3a75d70a769cb91',
    'int64': '3e52b68128f7888331098e0f68311741cf83a120210958770011979d395d01a9',
    'int64_unsorted_one_col': 'e14c31450c64014eeb9b21048690aabb426106e05dbbf4fce8fd28e0cef7e153',
    'one_block_column': 'd15bc2ce9cbbb8ce48627d6cf116c3f727280554a97da2cdfe07cd72954421b3',
    'wide_key': '62482f97fed76e55595151865a82b821556250583f766c22315612842fdc9939',
    'after_structural_delta': '26c93ad2e84c1e079d62814b568397525123cbdeee64c37090cda38f37a14002',
    'from_patched': '26c93ad2e84c1e079d62814b568397525123cbdeee64c37090cda38f37a14002',
}


def blocks_digest(pm: PartitionedMatrix) -> str:
    """Shape, dtype and bytes of every block's three arrays, then the census."""
    h = hashlib.sha256()
    for i in range(pm.num_row_blocks):
        for blk in pm.csr_blocks_for_row(i):
            h.update(repr(blk.shape).encode())
            for arr in (blk.data, blk.indices, blk.indptr):
                h.update(arr.dtype.str.encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    h.update(pm.nnz_grid.tobytes())
    return h.hexdigest()


FIXED = {name: (pm, mat) for name, pm, mat in fixed_cases()}


@pytest.mark.parametrize("name", RECORDED)
def test_blocks_are_the_bytes_recorded_before_the_layout(name):
    assert blocks_digest(FIXED[name][0]) == RECORDED[name]


@pytest.mark.parametrize("name", RECORDED)
def test_fixed_cases_match_scipy_slicing(name):
    pm, mat = FIXED[name]
    # SciPy slices 90,000 blocks in 18 s: sample the wide case's block rows
    assert_blocks_match_scipy(mat, pm, every=37 if name == "wide_key" else 1)
    assert_census_counts_nonzeros(mat, pm)


# -- shape x blocking, generated -------------------------------------------
@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    block_rows=st.integers(1, 45),
    block_cols=st.integers(1, 45),
    density=st.sampled_from([0.0, 0.05, 0.3, 0.9]),
    seed=st.integers(0, 2**16),
    index_dtype=st.sampled_from([np.int32, np.int64]),
    unsorted=st.booleans(),
    zeros=st.booleans(),
    census_given=st.booleans(),
)
def test_every_block_matches_scipy_slicing(
    m, n, block_rows, block_cols, density, seed, index_dtype, unsorted, zeros,
    census_given,
):
    mat = random_csr(np.random.default_rng(seed), m, n, density,
                     index_dtype=index_dtype, unsorted=unsorted, zeros=zeros)
    pm = PartitionedMatrix(mat, block_rows, block_cols)
    if census_given:  # what the write-back profiler and from_patched do
        pm = PartitionedMatrix(mat, block_rows, block_cols, nnz_grid=pm.nnz_grid)
    assert_blocks_match_scipy(mat, pm)
    assert_census_counts_nonzeros(mat, pm)
    np.testing.assert_array_equal(reassemble_from_blocks(pm), mat.toarray())


@pytest.mark.parametrize("nr,nc", [
    (1, 255), (1, 256), (1, 257), (2, 128), (16, 16), (3, 85), (5, 51),
    (1, 65535), (1, 65536), (1, 65537), (2, 32768), (256, 256), (257, 255),
])
def test_block_counts_where_the_sort_key_changes_width(nr, nc):
    """255 / 256 / 257 and 65,535 / 65,536 / 65,537 blocks, and grids whose
    block-column count alone does not fit the key that names every block
    (1 x 256 in ``uint8``, 1 x 65,536 in ``uint16``)."""
    rng = np.random.default_rng(nr * 100003 + nc)
    mat = random_csr(rng, 2 * nr, 3 * nc, min(0.2, 600 / (6 * nr * nc)))
    pm = PartitionedMatrix(mat, 2, 3)
    assert (pm.num_row_blocks, pm.num_col_blocks) == (nr, nc)
    rows = [pm.csr_blocks_for_row(i) for i in range(nr)]
    np.testing.assert_array_equal(
        [[blk.nnz for blk in row] for row in rows], pm.nnz_grid
    )
    # SciPy slices a few hundred blocks a second: the populated ones, the
    # corners and a few empty ones
    bi, bj = np.nonzero(pm.nnz_grid)
    extra = rng.integers(0, [nr, nc], size=(8, 2))
    sample = {(0, 0), (nr - 1, nc - 1), *zip(bi[:150].tolist(), bj[:150].tolist()),
              *map(tuple, extra.tolist())}
    for i, j in sample:
        blk, ref = rows[i][j], scipy_block(mat, pm, i, j)
        assert blk.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            assert getattr(blk, name).dtype == getattr(ref, name).dtype
            np.testing.assert_array_equal(getattr(blk, name), getattr(ref, name))


# -- what the layout is for ---------------------------------------------------
@pytest.mark.parametrize("name", ["ragged", "one_block_column", "unsorted"])
def test_blocks_cannot_be_written_to(name):
    """Every reader is handed the same blocks (with one block column, the
    stored operand's own bytes): a writer must fail, not corrupt them."""
    pm, mat = FIXED[name]
    for i in range(pm.num_row_blocks):
        for blk in pm.csr_blocks_for_row(i):
            for arr in (blk.data, blk.indices, blk.indptr):
                assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        pm.block(0, 0).data[:] = 0
    assert mat.data.flags.writeable  # the stored operand itself is not frozen


def test_one_block_column_shares_the_stored_arrays():
    """CSR order already is block-major when there is one block column:
    no sort, no copy (``H0`` under update blocking)."""
    mat = random_csr(np.random.default_rng(5), 45, 11, 0.4)
    pm = PartitionedMatrix(mat, 8, 11)
    for i in range(pm.num_row_blocks):
        (blk,) = pm.csr_blocks_for_row(i)
        if blk.nnz:
            assert np.shares_memory(blk.data, mat.data)
            assert np.shares_memory(blk.indices, mat.indices)
    assert_blocks_match_scipy(mat, pm)


def test_more_than_512_block_rows_are_each_split_once():
    """Two bounded stripe caches used to evict the oldest block row even
    while a sweep was using it, so a view with more than 512 block rows
    was re-split for every task.  A second sweep must be handed the very
    lists the first one built."""
    mat = random_csr(np.random.default_rng(6), 1200, 24, 0.1)
    pm = PartitionedMatrix(mat, 2, 8)
    assert pm.num_row_blocks == 600
    first = [pm.csr_blocks_for_row(i) for i in range(pm.num_row_blocks)]
    for i in range(pm.num_row_blocks):
        assert pm.csr_blocks_for_row(i) is first[i]
        assert all(pm.block(i, j) is first[i][j] for j in range(pm.num_col_blocks))


def test_nothing_sized_blocks_times_block_rows_is_allocated():
    """Full-scale Reddit is 324 x 324 blocks of 720 rows: a per-block
    ``indptr`` table for the whole matrix would be 75M entries.  Here
    300 x 300 blocks of 700 rows (63M slots, 500 MB as int64) must split
    their first block row within a few MB."""
    n = 300 * 700
    rng = np.random.default_rng(7)
    rows, cols = rng.integers(0, n, 5000), rng.integers(0, n, 5000)
    mat = sp.csr_matrix((np.ones(5000, np.float32), (rows, cols)), shape=(n, n))
    tracemalloc.start()
    try:
        pm = PartitionedMatrix(mat, 700, 700)
        blocks = pm.csr_blocks_for_row(17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(blocks) == 300
    assert peak < 16 * 2**20
    ref = mat[17 * 700 : 18 * 700]
    assert sum(blk.nnz for blk in blocks) == ref.nnz


def test_sort_temporaries_do_not_outlive_the_build():
    """What stays after a split is the block-major copy of ``data`` and
    ``indices`` (8 B a stored entry) and the extents, not the keys, the
    block columns or the permutation (another 14 B an entry)."""
    mat = random_csr(np.random.default_rng(8), 4000, 4000, 0.025)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        pm = PartitionedMatrix(mat, 500, 500)
        pm.csr_blocks_for_row(0)  # lays the operand out
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 8 * mat.nnz * 1.25
