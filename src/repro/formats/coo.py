"""COO (coordinate) sparse format, the paper's sparse representation.

§V-A: *"We use Coordinate (COO) format to represent a sparse matrix where a
nonzero element is represented using a three-tuple (col, row, value)"*, and
the element order (row-major vs column-major) is the matrix *layout*.

A :class:`COOMatrix` keeps three parallel arrays (``row``, ``col``,
``val``) sorted according to its layout:

- ``ROW_MAJOR``: lexicographic by ``(row, col)`` — required by SpDMM/SPMM
  modes (Table III);
- ``COL_MAJOR``: lexicographic by ``(col, row)``.

Each stored nonzero occupies 12 bytes off-chip (two 4-byte indices plus a
4-byte value), which is what the external-memory traffic model charges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.formats.dense import Layout, DTYPE

INDEX_DTYPE = np.int32
#: off-chip bytes per stored nonzero: (col, row, value) tuple of 32-bit words
BYTES_PER_NNZ = 12


@dataclass
class COOMatrix:
    """Sparse matrix in COO format with an explicit element order."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]
    layout: Layout = Layout.ROW_MAJOR

    def __post_init__(self) -> None:
        self.row = np.asarray(self.row, dtype=INDEX_DTYPE)
        self.col = np.asarray(self.col, dtype=INDEX_DTYPE)
        self.val = np.asarray(self.val, dtype=DTYPE)
        if not (self.row.shape == self.col.shape == self.val.shape):
            raise ValueError("row/col/val arrays must have identical shape")
        if self.row.ndim != 1:
            raise ValueError("COO arrays must be 1-D")
        m, n = self.shape
        if self.row.size:
            if self.row.min() < 0 or self.row.max() >= m:
                raise ValueError("row index out of bounds")
            if self.col.min() < 0 or self.col.max() >= n:
                raise ValueError("col index out of bounds")
        self._sort()

    # -- construction ----------------------------------------------------
    @classmethod
    def from_dense(
        cls, data: np.ndarray, layout: Layout = Layout.ROW_MAJOR
    ) -> "COOMatrix":
        data = np.asarray(data, dtype=DTYPE)
        rows, cols = np.nonzero(data)
        return cls(rows, cols, data[rows, cols], data.shape, layout)

    @classmethod
    def from_scipy(
        cls, mat: sp.spmatrix, layout: Layout = Layout.ROW_MAJOR
    ) -> "COOMatrix":
        coo = mat.tocoo()
        return cls(coo.row, coo.col, coo.data.astype(DTYPE), coo.shape, layout)

    @classmethod
    def empty(
        cls, shape: tuple[int, int], layout: Layout = Layout.ROW_MAJOR
    ) -> "COOMatrix":
        z = np.zeros(0)
        return cls(z, z, z, shape, layout)

    # -- queries ----------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self.val.size

    @property
    def density(self) -> float:
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    @property
    def nbytes(self) -> int:
        """Bytes occupied off-chip in COO format."""
        return self.nnz * BYTES_PER_NNZ

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(cols, vals)`` of row ``i`` (``B[i]`` in the paper)."""
        mask = self.row == i
        return self.col[mask], self.val[mask]

    # -- conversions -------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=DTYPE)
        # duplicate coordinates accumulate, matching hardware reduce semantics
        np.add.at(out, (self.row, self.col), self.val)
        return out

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.val, (self.row, self.col)), shape=self.shape, dtype=DTYPE
        )

    def with_layout(self, layout: Layout) -> "COOMatrix":
        """Return the same matrix re-sorted for the requested layout."""
        if layout == self.layout:
            return self
        return COOMatrix(self.row, self.col, self.val, self.shape, layout)

    def transpose(self) -> "COOMatrix":
        """Logical transpose: swaps indices and flips the layout, so the
        stored element *order on the wire* is unchanged (a row-major matrix
        is its transpose stored column-major)."""
        return COOMatrix(
            self.col, self.row, self.val, (self.shape[1], self.shape[0]),
            self.layout.flipped(),
        )

    # -- internals ----------------------------------------------------------
    def _sort(self) -> None:
        if self.nnz == 0:
            return
        if self.layout is Layout.ROW_MAJOR:
            order = np.lexsort((self.col, self.row))
        else:
            order = np.lexsort((self.row, self.col))
        self.row = self.row[order]
        self.col = self.col[order]
        self.val = self.val[order]

    def is_sorted(self) -> bool:
        """Check the element order matches the declared layout."""
        if self.nnz <= 1:
            return True
        if self.layout is Layout.ROW_MAJOR:
            major, minor = self.row, self.col
        else:
            major, minor = self.col, self.row
        key = major.astype(np.int64) * (max(self.shape) + 1) + minor
        return bool(np.all(np.diff(key) >= 0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.to_dense(), other.to_dense())
        )
