"""Data partitioning of Fig. 5: blocks, fibers and subfibers.

The compiler partitions the three matrix kinds (§IV-C):

- adjacency ``A`` (|V| x |V|) into ``N1 x N1`` *blocks* ``A_ij``;
- feature ``H`` (|V| x f) into ``N1 x N2`` *fibers* ``H_ij``, each further
  divisible into ``N2 x N2`` *subfibers* ``H_ij-k``;
- weight ``W`` (f1 x f2) into ``N2 x N2`` *blocks* ``W_ij``.

:class:`PartitionedMatrix` is a *lazy view*: it keeps the full matrix once
(CSR for sparse data, ndarray for dense) and hands out blocks on demand.
This mirrors the hardware, where partitions are just address ranges in
DDR, and lets the Aggregate kernel view ``H`` as ``N1 x N2`` fibers while
the Update kernel views the *same* bytes as ``N2 x N2`` subfibers.

A sparse operand is re-laid-out once per view, into **one block-major
layout** (:class:`_BlockLayout`): its stored entries ordered by (block
row, block column), row-major inside a block, so every block is a slice.
``csr_blocks_for_row``, sparse ``block`` and ``dense_block`` read it; the
first of them builds it, and its arrays are read-only.  Building it costs
about one pass over what is stored — one radix sort of an 8- or 16-bit
block id, no sort and no copy when the view has one block column — which
is what a runtime whose operands change under it (``repro.dyngraph``
patches the adjacency on every mutation) can afford to pay again.
Memory rule: nothing sized ``num_blocks x block_rows`` is allocated for
the whole matrix at once; per-block ``indptr`` arrays are built one block
row at a time, on first touch, and the sort's temporaries do not outlive
it.

Per-block nonzero counts are taken by :func:`block_nnz_grid` (one
vectorised pass) unless the caller hands them over, giving the exact
density table the compiler profiles at compile time and the Sparsity
Profiler reproduces at runtime.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp

from repro.formats.csr import MatrixLike, as_csr, as_dense, sorted_unique
from repro.formats.dense import DTYPE

#: store a matrix in dense format off-chip when its density exceeds this;
#: below it COO (12 B/nnz) is smaller than dense (4 B/elem)
SPARSE_STORAGE_THRESHOLD = 1.0 / 3.0


def grid_dims(shape: tuple[int, int], block_rows: int, block_cols: int) -> tuple[int, int]:
    """Number of block rows/cols covering ``shape`` (ceil division)."""
    return (
        math.ceil(shape[0] / block_rows) if shape[0] else 0,
        math.ceil(shape[1] / block_cols) if shape[1] else 0,
    )


def _block_sizes(n: int, block: int) -> np.ndarray:
    """Length of each block along an axis of ``n`` (the last may be ragged)."""
    return np.diff(np.minimum(np.arange(0, n + block, block), n))


def _nonzero_coords(mat: MatrixLike) -> tuple[np.ndarray, np.ndarray]:
    """Row/col coordinates of every numerically-nonzero element."""
    if sp.issparse(mat):
        coo = mat.tocoo()
        if not coo.has_canonical_format:
            # duplicate COO coordinates represent their sum: a (+v, -v)
            # pair at one position is a single zero element, not two
            coo = coo.copy()
            coo.sum_duplicates()
        mask = coo.data != 0
        return coo.row[mask], coo.col[mask]
    return np.nonzero(np.asarray(mat))


class _BlockLayout:
    """The stored entries of one CSR operand in block-major order.

    Entries are ordered by (block row, block column) and row-major inside
    a block, so block ``(i, j)`` is the slice ``extents[i * nc + j] :
    extents[i * nc + j + 1]`` of ``data`` / ``local`` (column indices
    relative to the block), and ``extents`` are the prefix sums of the
    per-block stored-entry counts.  One stable sort of the entries' block
    ids builds it; a view with one block column needs no sort and no copy,
    because CSR order already is block-major there (its blocks are
    ``indptr`` slices of the stored arrays).

    Memory rule: nothing sized ``num_blocks x block_rows`` exists for the
    whole matrix at once.  The per-block ``indptr`` arrays are built one
    block row at a time, on first touch (:meth:`block_row`), and the sort
    temporaries (keys, block columns, the permutation) die with
    ``__init__``.
    """

    def __init__(self, mat: sp.csr_matrix, block_rows: int, block_cols: int, split=None) -> None:
        if not mat.has_sorted_indices:
            mat = mat.copy()
            mat.sort_indices()
        nr, nc = grid_dims(mat.shape, block_rows, block_cols)
        # what SciPy's own slicing would index a block of this matrix with
        idx_dtype = sp.get_index_dtype(maxval=max(mat.nnz, *mat.shape))
        self.shape = mat.shape
        self.block_rows, self.block_cols, self.nc = block_rows, block_cols, nc
        self.indptr, self.indices = mat.indptr, mat.indices
        # where each block row's stored entries start and end
        edges = np.minimum(np.arange(nr + 1) * block_rows, mat.shape[0])
        bounds = mat.indptr[edges].astype(np.int64)
        if split is not None:  # canonical CSR blocks: concatenated, no sort
            flat = [blk for row in split for blk in row]
            self.data = np.concatenate([blk.data for blk in flat])
            self.local = np.concatenate([blk.indices for blk in flat])
            self.extents = np.cumsum([0] + [blk.nnz for blk in flat])
        elif nc <= 1:
            self.data = mat.data
            self.local = mat.indices.astype(idx_dtype, copy=False)
            self.extents = bounds
        else:
            # row-major block id of every stored entry, in the narrowest
            # type that names every block: NumPy's stable sort of an 8- or
            # 16-bit key is a radix sort (0.2 ms against 1.2 ms for the
            # int64 key on a 41k-entry adjacency, one pass fewer again
            # under 256 blocks), and this sort is most of a split
            key_dtype = next(
                t for t in (np.uint8, np.uint16, np.int64)
                if nr * nc - 1 <= np.iinfo(t).max
            )
            col_block = mat.indices // block_cols
            keys = col_block.astype(key_dtype)
            # nc itself may not fit the key (1 x 256 blocks): offsets in int64
            keys += np.repeat(
                (np.arange(nr) * nc).astype(key_dtype), np.diff(bounds)
            )
            order = np.argsort(keys, kind="stable")
            self.data = mat.data.take(order)
            # column inside its block, written over the block columns
            col_block *= block_cols
            np.subtract(mat.indices, col_block, out=col_block)
            self.local = col_block.astype(idx_dtype, copy=False).take(order)
            # a block starts where the sorted keys first reach its id
            self.extents = np.append(
                np.searchsorted(keys.take(order), np.arange(nr * nc, dtype=key_dtype)),
                keys.size,
            )
        # every reader is handed the same blocks, and with one block column
        # they are the stored operand's own bytes: read-only views
        self.data, self.local = self.data.view(), self.local.view()
        self.data.flags.writeable = self.local.flags.writeable = False
        #: block row -> its list of CSR blocks, filled on first touch
        self.rows: list[list | None] = [None] * nr if split is None else split
        for blk, lo, hi in zip(flat if split else (), self.extents, self.extents[1:]):
            blk.data, blk.indices = self.data[lo:hi], self.local[lo:hi]
            blk.indptr.flags.writeable = False
        #: block row -> whether its stored data is all finite, on first ask
        self.finite: list[bool | None] = [None] * nr
        #: psys -> :meth:`scp_skew` grid, on first ask
        self.skew: dict[int, np.ndarray] = {}

    def block_row(self, i: int) -> list:
        """The CSR blocks of block row ``i``, split once."""
        blocks = self.rows[i]
        if blocks is not None:
            return blocks
        nc, bc = self.nc, self.block_cols
        r0 = i * self.block_rows
        r1 = min(r0 + self.block_rows, self.shape[0])
        nrows = r1 - r0
        row_ptr = self.indptr[r0 : r1 + 1]
        lo, hi = int(row_ptr[0]), int(row_ptr[-1])
        idx_dtype = self.local.dtype
        indptr = np.zeros((nc, nrows + 1), dtype=idx_dtype)
        if nc == 1:
            indptr[0] = row_ptr - lo
        else:
            # stored entries per (block column, local row), prefix-summed
            # into every block's indptr at once
            slot = (self.indices[lo:hi] // bc) * np.int64(nrows)
            slot += np.repeat(np.arange(nrows), np.diff(row_ptr))
            np.cumsum(
                np.bincount(slot, minlength=nc * nrows).reshape(nc, nrows),
                axis=1, out=indptr[:, 1:],
            )
        indptr.flags.writeable = False
        extents = self.extents[i * nc : (i + 1) * nc + 1].tolist()
        blocks = []
        for b in range(nc):
            blk = sp.csr_matrix.__new__(sp.csr_matrix)
            blk.data = self.data[extents[b] : extents[b + 1]]
            blk.indices = self.local[extents[b] : extents[b + 1]]
            blk.indptr = indptr[b]
            blk._shape = (nrows, min(bc, self.shape[1] - b * bc))
            blocks.append(blk)
        self.rows[i] = blocks
        return blocks

    def scp_skew(self, psys: int) -> np.ndarray:
        """Per block, the busiest Sparse Computation Pipeline's share of
        its stored entries times ``psys`` (SPMM gives local row ``r`` to
        pipeline ``r mod psys``, Algorithm 6): 1.0 is perfectly even, also
        for an empty block.  Counted block row by block row, once."""
        grid = self.skew.get(psys)
        if grid is None:
            grid = self.skew[psys] = np.ones((len(self.rows), self.nc))
            for i in range(len(self.rows)):
                counts = np.diff([blk.indptr for blk in self.block_row(i)])
                loads = np.zeros((self.nc, -(-counts.shape[1] // psys) * psys), np.int64)
                loads[:, : counts.shape[1]] = counts
                loads = loads.reshape(self.nc, -1, psys).sum(axis=1)
                total = loads.sum(axis=1)
                np.divide(loads.max(axis=1) * psys, total, out=grid[i], where=total > 0)
        return grid


def block_nnz_grid(
    mat: MatrixLike, block_rows: int, block_cols: int
) -> np.ndarray:
    """Exact nonzero count of every block, in one vectorised pass.

    Canonical CSR (the pipeline's storage format) takes a native path:
    each block row is a contiguous ``indptr`` slice, so the census is one
    ``indices // block_cols`` pass plus one :func:`numpy.bincount` per
    block row — no row-coordinate materialisation at all, ~6x faster
    than the scatter-add (``np.add.at``) this replaced (kept in the test
    suite as the oracle, timed by the ``micro_block_nnz_grid`` bench),
    and bit-identical to it.  A dense operand is counted as a
    boolean mask (``-0.0`` a zero, ``NaN`` a nonzero), each row's column
    blocks first (the contiguous axis), block rows second: no coordinate
    arrays, no integer copy of the operand.  Everything else (COO,
    explicit zeros, duplicates) goes through the linearised-coordinate
    bincount.
    """
    nr, nc = grid_dims(mat.shape, block_rows, block_cols)
    if nr == 0 or nc == 0:
        return np.zeros((nr, nc), dtype=np.int64)
    if (
        sp.issparse(mat)
        and mat.format == "csr"
        and mat.has_canonical_format
        and (mat.data != 0).all()
    ):
        grid = np.empty((nr, nc), dtype=np.int64)
        col_blocks = mat.indices // block_cols
        indptr = mat.indptr
        n_rows = mat.shape[0]
        for i in range(nr):
            lo = indptr[min(i * block_rows, n_rows)]
            hi = indptr[min((i + 1) * block_rows, n_rows)]
            grid[i] = np.bincount(col_blocks[lo:hi], minlength=nc)
        return grid
    if not sp.issparse(mat):
        # the mask is C-ordered whatever the input's layout; a row's count
        # inside one column block is at most min(block_cols, columns), so
        # the narrowest unsigned type holding that bound cannot wrap
        mask = np.not_equal(np.asarray(mat), 0, order="C").view(np.uint8)
        per_row = np.add.reduceat(
            mask, np.arange(0, mat.shape[1], block_cols), axis=1,
            dtype=np.min_scalar_type(min(block_cols, mat.shape[1])),
        )
        return np.ascontiguousarray(np.add.reduceat(
            per_row, np.arange(0, mat.shape[0], block_rows), axis=0,
            dtype=np.int64,
        ))
    rows, cols = _nonzero_coords(mat)
    if not rows.size:
        return np.zeros((nr, nc), dtype=np.int64)
    flat = (rows // block_rows).astype(np.int64) * nc + cols // block_cols
    return np.bincount(flat, minlength=nr * nc).reshape(nr, nc).astype(np.int64)


class PartitionedMatrix:
    """A matrix plus a block decomposition (Fig. 5) and its density table.

    Sparse storage keeps one structure over the operand besides the
    census: the block-major layout (:class:`_BlockLayout`), built by the
    first block read and dropped when the view is rebound to a mutated
    matrix.  Every block row is split once, however many there are, and
    every reader (``block``, ``dense_block``, ``csr_blocks_for_row``) is
    handed the same read-only block objects.

    Parameters
    ----------
    matrix:
        Full matrix, ndarray or scipy sparse.  Kept as CSR when sparse.
    block_rows, block_cols:
        Partition dimensions.  ``A`` uses ``(N1, N1)``; ``H`` uses
        ``(N1, N2)`` for Aggregate (fibers) or ``(N2, N2)`` for Update
        (subfibers); ``W`` uses ``(N2, N2)``.
    name:
        Identifier used by the runtime's density table and stats.
    nnz_grid:
        ``block_nnz_grid`` of ``matrix`` under this blocking, when the
        caller already holds it (the write-back profiler's counts, a
        patched view's old grid).  Omitted, the matrix is scanned.
    split:
        A sparse ``matrix``'s CSR blocks, one list per block row, when the
        caller holds them (a kernel's assembly): adopted, not re-split.
    produced:
        ``matrix`` is a kernel's output, whose rows no profiler counted:
        SCP skew 1.0 however the host holds it.
    """

    def __init__(
        self,
        matrix: MatrixLike,
        block_rows: int,
        block_cols: int,
        name: str = "",
        nnz_grid: np.ndarray | None = None,
        split: list | None = None,
        produced: bool = False,
    ) -> None:
        if block_rows < 1 or block_cols < 1:
            raise ValueError("block dimensions must be positive")
        if sp.issparse(matrix):
            self.matrix: MatrixLike = as_csr(matrix)
            self.is_sparse_storage = True
        else:
            arr = np.asarray(matrix, dtype=DTYPE)
            if arr.ndim != 2:
                raise ValueError("expected a 2-D matrix")
            self.matrix = np.ascontiguousarray(arr)
            self.is_sparse_storage = False
        self.block_rows = int(block_rows)
        self.block_cols = int(block_cols)
        self.name = name
        dims = grid_dims(self.matrix.shape, self.block_rows, self.block_cols)
        if nnz_grid is None:
            nnz_grid = block_nnz_grid(self.matrix, self.block_rows, self.block_cols)
        elif nnz_grid.dtype != np.int64 or nnz_grid.shape != dims:
            raise ValueError(
                f"nnz_grid must be int64 of shape {dims}, "
                f"got {nnz_grid.dtype} of shape {nnz_grid.shape}"
            )
        self._nnz_grid = nnz_grid
        self.produced = produced
        #: the block-major layout, built by the first sparse block read
        self._layout = None if split is None else _BlockLayout(
            self.matrix, block_rows, block_cols, split)
        self._density_grid: np.ndarray | None = None

    # -- geometry --------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape  # type: ignore[return-value]

    @property
    def num_row_blocks(self) -> int:
        return self._nnz_grid.shape[0]

    @property
    def num_col_blocks(self) -> int:
        return self._nnz_grid.shape[1]

    @property
    def num_blocks(self) -> int:
        return self.num_row_blocks * self.num_col_blocks

    def block_shape(self, i: int, j: int) -> tuple[int, int]:
        """Actual (possibly ragged, at the edges) shape of block (i, j)."""
        self._check_index(i, j)
        m, n = self.shape
        r = min(self.block_rows, m - i * self.block_rows)
        c = min(self.block_cols, n - j * self.block_cols)
        return r, c

    # -- block access ------------------------------------------------------
    def block(self, i: int, j: int) -> MatrixLike:
        """Block (i, j) in the matrix's storage type (CSR or ndarray)."""
        self._check_index(i, j)
        if self.is_sparse_storage:
            return self.csr_blocks_for_row(i)[j]
        r0, c0 = i * self.block_rows, j * self.block_cols
        return self.matrix[r0 : r0 + self.block_rows, c0 : c0 + self.block_cols]

    def csr_blocks_for_row(self, i: int) -> list:
        """All CSR blocks of block row ``i``, read off the block-major
        layout (:class:`_BlockLayout`).

        SciPy's own slicing costs a getitem and a constructor per block;
        the layout splits the whole operand with one sort and hands every
        caller the same block objects, which are not to be written to.
        Inside a block
        entries are row-major with ascending columns, the order SciPy's
        own slicing gives, so functional products are bit-identical.
        Only valid for sparse storage.
        """
        return self._block_layout().block_row(i)

    def _block_layout(self) -> _BlockLayout:
        if not self.is_sparse_storage:
            raise TypeError("block layouts require sparse storage")
        if self._layout is None:
            self._layout = _BlockLayout(self.matrix, self.block_rows, self.block_cols)
        return self._layout

    def block_row_is_finite(self, i: int) -> bool:
        """Whether block row ``i`` of a sparse operand stores no ``inf`` or
        ``NaN``: one scan of the row's slice of the layout, kept with it."""
        layout = self._block_layout()
        finite = layout.finite[i]
        if finite is None:
            lo, hi = layout.extents[[i * layout.nc, (i + 1) * layout.nc]]
            finite = layout.finite[i] = bool(np.isfinite(layout.data[lo:hi]).all())
        return finite

    def scp_skew_grid(self, psys: int) -> np.ndarray:
        """Per block, busiest-SCP share of its stored entries x ``psys``:
        what the simulator's SPMM count is above Table IV's balanced one.
        All ones for a dense-held or produced operand, whose rows are not
        counted."""
        if self.produced or not self.is_sparse_storage:
            return np.ones(self._nnz_grid.shape)
        return self._block_layout().scp_skew(psys)

    def dense_block(self, i: int, j: int) -> np.ndarray:
        return as_dense(self.block(i, j))

    # -- sparsity ------------------------------------------------------------
    @property
    def nnz_grid(self) -> np.ndarray:
        """Exact nonzero count of every block; not to be written to."""
        return self._nnz_grid

    def block_nnz(self, i: int, j: int) -> int:
        self._check_index(i, j)
        return int(self._nnz_grid[i, j])

    def block_density(self, i: int, j: int) -> float:
        r, c = self.block_shape(i, j)
        total = r * c
        return self.block_nnz(i, j) / total if total else 0.0

    @functools.cached_property
    def row_block_sizes(self) -> np.ndarray:
        """Actual row count of each block row (last one may be ragged)."""
        return _block_sizes(self.shape[0], self.block_rows)

    @functools.cached_property
    def col_block_sizes(self) -> np.ndarray:
        """Actual column count of each block column."""
        return _block_sizes(self.shape[1], self.block_cols)

    @property
    def density_grid(self) -> np.ndarray:
        """Per-block densities as a float array (the compiler's counters)."""
        if self._density_grid is None:
            elements = np.outer(self.row_block_sizes, self.col_block_sizes)
            with np.errstate(invalid="ignore", divide="ignore"):
                grid = np.where(
                    elements > 0, self._nnz_grid / np.maximum(elements, 1), 0.0
                )
            self._density_grid = grid
        return self._density_grid

    @property
    def nnz(self) -> int:
        return int(self._nnz_grid.sum())

    @property
    def density(self) -> float:
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    # -- incremental maintenance (repro.dyngraph) ----------------------------
    def apply_structural_delta(
        self,
        new_matrix: MatrixLike,
        added_rows: np.ndarray,
        added_cols: np.ndarray,
        removed_rows: np.ndarray,
        removed_cols: np.ndarray,
    ) -> np.ndarray:
        """Rebind to a mutated matrix, updating the nnz grid incrementally.

        ``added_*`` / ``removed_*`` are the coordinates whose population
        changed (zero -> nonzero and nonzero -> zero respectively); value
        changes between nonzeros need no grid update.  The per-block nnz
        grid is adjusted in O(delta + blocks), the block-major layout and
        the density grid are dropped (the next block read re-splits the
        new matrix) — no re-scan of the matrix happens here.  Returns the
        unique dirty ``(block_i, block_j)`` coordinates as an ``(n, 2)``
        array (the blocks whose density changed, which is what the
        Analyzer must re-decide).
        """
        if tuple(new_matrix.shape) != self.shape:
            raise ValueError(
                f"mutated matrix shape {new_matrix.shape} != {self.shape}; "
                "partition geometry only survives same-shape mutations"
            )
        added_rows = np.asarray(added_rows, dtype=np.int64).ravel()
        added_cols = np.asarray(added_cols, dtype=np.int64).ravel()
        removed_rows = np.asarray(removed_rows, dtype=np.int64).ravel()
        removed_cols = np.asarray(removed_cols, dtype=np.int64).ravel()
        if added_rows.shape != added_cols.shape or removed_rows.shape != removed_cols.shape:
            raise ValueError("delta row/col arrays must pair up")
        if sp.issparse(new_matrix) != self.is_sparse_storage:
            raise ValueError("mutation must preserve the storage type")

        # stage the grid update on a copy so a validation failure leaves
        # the view untouched rather than half-patched
        nc = self.num_col_blocks
        rows = np.concatenate((added_rows, removed_rows))
        cols = np.concatenate((added_cols, removed_cols))
        if rows.size:
            if (
                min(rows.min(), cols.min()) < 0
                or rows.max() >= self.shape[0]
                or cols.max() >= self.shape[1]
            ):
                raise IndexError(f"delta coordinate outside shape {self.shape}")
            # row-major block id of every flipped coordinate
            flat = rows // self.block_rows * nc + cols // self.block_cols
            blocks = self.num_blocks
            grid = (
                self._nnz_grid.ravel()
                + np.bincount(flat[: added_rows.size], minlength=blocks)
                - np.bincount(flat[added_rows.size :], minlength=blocks)
            ).reshape(self._nnz_grid.shape)
            if grid.min() < 0:
                raise ValueError(
                    "nnz grid went negative: removed coordinates were not "
                    "all populated"
                )
            dirty = np.stack(np.divmod(sorted_unique(flat), nc), axis=1)
        else:
            grid = self._nnz_grid
            dirty = np.empty((0, 2), dtype=np.int64)

        if self.is_sparse_storage:
            self.matrix = as_csr(new_matrix)
        else:
            self.matrix = np.ascontiguousarray(np.asarray(new_matrix, dtype=DTYPE))
        self._nnz_grid = grid
        self._density_grid = None
        # the layout observes the old bytes; the next block read rebuilds it
        self._layout = None
        return dirty

    @classmethod
    def from_patched(
        cls,
        old: "PartitionedMatrix",
        new_matrix: MatrixLike,
        added_rows: np.ndarray,
        added_cols: np.ndarray,
        removed_rows: np.ndarray,
        removed_cols: np.ndarray,
    ) -> tuple["PartitionedMatrix", np.ndarray]:
        """A new view of the mutated matrix reusing ``old``'s nnz grid.

        The O(nnz) ``block_nnz_grid`` scan of ``__init__`` is replaced by
        handing it the old grid and applying the delta in O(delta) — the
        incremental re-profiling at the heart of ``repro.dyngraph``.
        ``old`` is left untouched (it may still back cached programs).
        Returns ``(view, dirty_blocks)``.
        """
        # the grid is never written in place (the delta is staged on a copy)
        pm = cls(old.matrix, old.block_rows, old.block_cols, old.name, old._nnz_grid)
        dirty = pm.apply_structural_delta(
            new_matrix, added_rows, added_cols, removed_rows, removed_cols
        )
        return pm, dirty

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.num_row_blocks and 0 <= j < self.num_col_blocks):
            raise IndexError(
                f"block ({i}, {j}) out of range "
                f"({self.num_row_blocks} x {self.num_col_blocks})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionedMatrix(name={self.name!r}, shape={self.shape}, "
            f"blocks={self.num_row_blocks}x{self.num_col_blocks}, "
            f"block=({self.block_rows}x{self.block_cols}), "
            f"density={self.density:.4g})"
        )


def partition_adjacency(a: MatrixLike, n1: int, name: str = "A") -> PartitionedMatrix:
    """Partition the adjacency matrix into ``N1 x N1`` blocks (Fig. 5)."""
    return PartitionedMatrix(a, n1, n1, name=name)


def partition_features(
    h: MatrixLike, n1: int, n2: int, name: str = "H", *, as_subfibers: bool = False
) -> PartitionedMatrix:
    """Partition a feature matrix into fibers (``N1 x N2``) or subfibers
    (``N2 x N2`` when ``as_subfibers``)."""
    rows = n2 if as_subfibers else n1
    return PartitionedMatrix(h, rows, n2, name=name)


def partition_weights(w: MatrixLike, n2: int, name: str = "W") -> PartitionedMatrix:
    """Partition a weight matrix into ``N2 x N2`` blocks (Fig. 5)."""
    return PartitionedMatrix(w, n2, n2, name=name)
