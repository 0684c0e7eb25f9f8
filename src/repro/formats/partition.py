"""Data partitioning of Fig. 5: blocks, fibers and subfibers.

The compiler partitions the three matrix kinds (§IV-C):

- adjacency ``A`` (|V| x |V|) into ``N1 x N1`` *blocks* ``A_ij``;
- feature ``H`` (|V| x f) into ``N1 x N2`` *fibers* ``H_ij``, each further
  divisible into ``N2 x N2`` *subfibers* ``H_ij-k``;
- weight ``W`` (f1 x f2) into ``N2 x N2`` *blocks* ``W_ij``.

:class:`PartitionedMatrix` is a *lazy view*: it keeps the full matrix once
(CSR for sparse data, ndarray for dense) and materialises any block on
demand.  This mirrors the hardware, where partitions are just address
ranges in DDR, and lets the Aggregate kernel view ``H`` as ``N1 x N2``
fibers while the Update kernel views the *same* bytes as ``N2 x N2``
subfibers without any copying.  Per-block nonzero counts are precomputed
vectorised (one pass over the nonzeros), giving the exact density table the
compiler profiles at compile time and the Sparsity Profiler reproduces at
runtime.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.formats.csr import as_csr, as_dense
from repro.formats.dense import DTYPE

MatrixLike = Union[np.ndarray, sp.spmatrix]

#: store a matrix in dense format off-chip when its density exceeds this;
#: below it COO (12 B/nnz) is smaller than dense (4 B/elem)
SPARSE_STORAGE_THRESHOLD = 1.0 / 3.0


def grid_dims(shape: tuple[int, int], block_rows: int, block_cols: int) -> tuple[int, int]:
    """Number of block rows/cols covering ``shape`` (ceil division)."""
    return (
        math.ceil(shape[0] / block_rows) if shape[0] else 0,
        math.ceil(shape[1] / block_cols) if shape[1] else 0,
    )


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


def block_nnz_grid(
    mat: MatrixLike, block_rows: int, block_cols: int
) -> np.ndarray:
    """Exact nonzero count of every block, in one vectorised pass.

    Canonical CSR (the pipeline's storage format) takes a native path:
    each block row is a contiguous ``indptr`` slice, so the census is one
    ``indices // block_cols`` pass plus one :func:`numpy.bincount` per
    block row — no row-coordinate materialisation at all, ~6x faster
    than the scatter-add (``np.add.at``) this replaced (see
    ``block_nnz_grid_reference`` and the ``micro_block_nnz_grid``
    bench), and bit-identical to it.  A dense operand is counted as a
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


def block_nnz_grid_reference(
    mat: MatrixLike, block_rows: int, block_cols: int
) -> np.ndarray:
    """Pre-vectorisation ``block_nnz_grid`` (scatter-add), kept as the
    bit-exactness oracle and the "before" side of the hot-path
    microbenchmark (``repro bench --names micro_block_nnz_grid``)."""
    nr, nc = grid_dims(mat.shape, block_rows, block_cols)
    grid = np.zeros((nr, nc), dtype=np.int64)
    if nr == 0 or nc == 0:
        return grid
    rows, cols = _nonzero_coords(mat)
    if rows.size:
        np.add.at(grid, (rows // block_rows, cols // block_cols), 1)
    return grid


class PartitionedMatrix:
    """A matrix plus a block decomposition (Fig. 5) and its density table.

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
    """

    def __init__(
        self,
        matrix: MatrixLike,
        block_rows: int,
        block_cols: int,
        name: str = "",
        nnz_grid: np.ndarray | None = None,
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
        # Row-stripe cache for sparse matrices: tasks sweep blocks in
        # row-major order, so converting each N-row stripe to CSC once
        # makes the subsequent column slices O(nnz_block) instead of
        # O(nnz_stripe) — the difference between seconds and minutes on
        # Flickr/Reddit-scale adjacency matrices.
        self._stripe_cache: dict[int, sp.csc_matrix] = {}
        self._block_row_cache: dict[int, list] = {}
        self._row_sizes: np.ndarray | None = None
        self._col_sizes: np.ndarray | None = None
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
        r0, c0 = i * self.block_rows, j * self.block_cols
        r1 = min(r0 + self.block_rows, self.shape[0])
        c1 = min(c0 + self.block_cols, self.shape[1])
        if not self.is_sparse_storage:
            return self.matrix[r0:r1, c0:c1]
        stripe = self._stripe_cache.get(i)
        if stripe is None:
            stripe = self.matrix[r0:r1, :].tocsc()
            self._stripe_cache[i] = stripe
            if len(self._stripe_cache) > 512:  # bound stale stripes
                self._stripe_cache.pop(next(iter(self._stripe_cache)))
        return stripe[:, c0:c1].tocsr()

    def csr_blocks_for_row(self, i: int) -> list:
        """All CSR blocks of block row ``i`` in one vectorised stripe split.

        The per-block ``stripe[:, c0:c1].tocsr()`` slicing in
        :meth:`block` is the simulator's hottest path on large graphs
        (scipy's getitem + constructor overhead per block).  This method
        splits a whole row stripe into its column blocks with one stable
        argsort over the stripe's column-block ids plus bincount/cumsum
        index arithmetic, then assembles each block's CSR arrays
        directly.  Entry order within each block is identical to the
        CSC-sliced path (row-major, columns ascending), so functional
        products are bit-identical.  Only valid for sparse storage.
        """
        if not self.is_sparse_storage:
            raise TypeError("csr_blocks_for_row requires sparse storage")
        blocks = self._block_row_cache.get(i)
        if blocks is not None:
            return blocks
        r0 = i * self.block_rows
        r1 = min(r0 + self.block_rows, self.shape[0])
        stripe = self.matrix[r0:r1, :].tocsr()
        stripe.sort_indices()
        nrows = r1 - r0
        nc = self.num_col_blocks
        bc = self.block_cols
        ncols = self.shape[1]
        idx = stripe.indices
        idx_dtype = idx.dtype
        cb = idx // bc
        order = np.argsort(cb, kind="stable")
        data_s = stripe.data[order]
        local_s = (idx - cb * bc).astype(idx_dtype, copy=False)[order]
        entry_rows = np.repeat(
            np.arange(nrows, dtype=np.int64), np.diff(stripe.indptr)
        )
        counts2d = np.bincount(
            cb * nrows + entry_rows, minlength=nc * nrows
        ).reshape(nc, nrows)
        indptr2d = np.zeros((nc, nrows + 1), dtype=np.int64)
        np.cumsum(counts2d, axis=1, out=indptr2d[:, 1:])
        offsets = np.concatenate(([0], np.cumsum(indptr2d[:, -1])))
        blocks = []
        for b in range(nc):
            w = min(bc, ncols - b * bc)
            lo, hi = int(offsets[b]), int(offsets[b + 1])
            blk = sp.csr_matrix.__new__(sp.csr_matrix)
            blk.data = data_s[lo:hi]
            blk.indices = local_s[lo:hi]
            blk.indptr = indptr2d[b].astype(idx_dtype, copy=False)
            blk._shape = (nrows, w)
            blocks.append(blk)
        self._block_row_cache[i] = blocks
        if len(self._block_row_cache) > 512:  # bound stale stripes
            self._block_row_cache.pop(next(iter(self._block_row_cache)))
        return blocks

    def dense_block(self, i: int, j: int) -> np.ndarray:
        return as_dense(self.block(i, j))

    def csr_block(self, i: int, j: int) -> sp.csr_matrix:
        return as_csr(self.block(i, j))

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

    @property
    def row_block_sizes(self) -> np.ndarray:
        """Actual row count of each block row (last one may be ragged)."""
        if self._row_sizes is None:
            m = self.shape[0]
            nr = self.num_row_blocks
            sizes = np.full(nr, self.block_rows, dtype=np.int64)
            if nr:
                sizes[-1] = m - (nr - 1) * self.block_rows
            self._row_sizes = sizes
        return self._row_sizes

    @property
    def col_block_sizes(self) -> np.ndarray:
        """Actual column count of each block column."""
        if self._col_sizes is None:
            n = self.shape[1]
            nc = self.num_col_blocks
            sizes = np.full(nc, self.block_cols, dtype=np.int64)
            if nc:
                sizes[-1] = n - (nc - 1) * self.block_cols
            self._col_sizes = sizes
        return self._col_sizes

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
        grid is adjusted in O(delta), touched row-stripe caches are
        dropped, and the density grid is invalidated — no re-scan of the
        matrix happens.  Returns the unique dirty ``(block_i, block_j)``
        coordinates as an ``(n, 2)`` array (the blocks whose density
        changed, which is what the Analyzer must re-decide).
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
        bi = np.concatenate((added_rows, removed_rows)) // self.block_rows
        bj = np.concatenate((added_cols, removed_cols)) // self.block_cols
        if bi.size:
            signs = np.concatenate(
                (
                    np.ones(added_rows.size, dtype=np.int64),
                    -np.ones(removed_rows.size, dtype=np.int64),
                )
            )
            grid = self._nnz_grid.copy()
            np.add.at(grid, (bi, bj), signs)
            if grid.min() < 0:
                raise ValueError(
                    "nnz grid went negative: removed coordinates were not "
                    "all populated"
                )
            dirty = np.unique(np.stack((bi, bj), axis=1), axis=0)
        else:
            grid = self._nnz_grid
            dirty = np.empty((0, 2), dtype=np.int64)

        if self.is_sparse_storage:
            self.matrix = as_csr(new_matrix)
        else:
            self.matrix = np.ascontiguousarray(np.asarray(new_matrix, dtype=DTYPE))
        self._nnz_grid = grid
        self._density_grid = None
        # every cached stripe observes the old bytes; rebinding the matrix
        # invalidates them all (stripes rebuild lazily on next access)
        self._stripe_cache.clear()
        self._block_row_cache.clear()
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

    # -- storage accounting ----------------------------------------------------
    def block_bytes(self, i: int, j: int, *, sparse: bool | None = None) -> int:
        """Off-chip bytes of block (i, j): COO 12 B/nnz or dense 4 B/elem.

        ``sparse=None`` picks the cheaper format per block, which is what
        the compiler's storage-format policy does.
        """
        r, c = self.block_shape(i, j)
        dense_bytes = 4 * r * c
        sparse_bytes = 12 * self.block_nnz(i, j)
        if sparse is True:
            return sparse_bytes
        if sparse is False:
            return dense_bytes
        return min(dense_bytes, sparse_bytes)

    # -- reassembly (used by tests) ----------------------------------------------
    def to_dense(self) -> np.ndarray:
        return as_dense(self.matrix)

    def reassemble_from_blocks(self) -> np.ndarray:
        """Rebuild the full matrix from its blocks (round-trip check)."""
        out = np.zeros(self.shape, dtype=DTYPE)
        for i in range(self.num_row_blocks):
            for j in range(self.num_col_blocks):
                r0, c0 = i * self.block_rows, j * self.block_cols
                blk = self.dense_block(i, j)
                out[r0 : r0 + blk.shape[0], c0 : c0 + blk.shape[1]] = blk
        return out

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
