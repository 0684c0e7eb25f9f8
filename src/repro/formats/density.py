"""Density computation and the hardware Sparsity Profiler (paper §II-B, §V-B2).

The paper defines density as *"the total number of non-zero elements
divided by the total number of elements"* (sparsity = 1 - density).  The
Sparsity Profiler sits at the output port of the Result Buffer: a
comparator array feeding an adder tree counts nonzeros as ``Z`` streams
out, ``width`` elements per cycle, so profiling is fully overlapped with
the write-back (§V-B3) — the executor records its cycles but they never
extend the critical path when double buffering is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.formats.convert import StreamingUnit
from repro.formats.coo import COOMatrix
from repro.formats.dense import DenseMatrix

MatrixLike = Union[np.ndarray, sp.spmatrix, DenseMatrix, COOMatrix]


def nnz_count(mat: MatrixLike) -> int:
    """Exact number of numerically-nonzero elements of any matrix type.

    Robust to the two ways a sparse matrix can lie about its population:
    *explicit zeros* (stored entries whose value is 0) are not counted,
    and *duplicate coordinates* (legal in COO; two stored entries at one
    position represent their sum) are summed before counting — e.g. the
    pair ``(+v, -v)`` at one coordinate is a single zero element.
    """
    if isinstance(mat, DenseMatrix):
        return mat.nnz
    if isinstance(mat, COOMatrix):
        return int(np.count_nonzero(_summed_coo_values(mat)))
    if sp.issparse(mat):
        if mat.nnz == 0:
            return 0
        if not getattr(mat, "has_canonical_format", True):
            # COO (or un-canonicalised CSR/CSC) with duplicate entries:
            # sum duplicates on a copy so the caller's matrix is untouched
            mat = mat.tocsr() if mat.format == "coo" else mat.copy()
            mat.sum_duplicates()
        return int(np.count_nonzero(mat.data))
    return int(np.count_nonzero(np.asarray(mat)))


def _summed_coo_values(mat: COOMatrix) -> np.ndarray:
    """Values of a :class:`COOMatrix` with duplicate coordinates summed.

    ``COOMatrix`` keeps its triplets sorted by layout, so duplicates are
    adjacent and one linear scan finds them; the common duplicate-free
    case returns the value array untouched.
    """
    if mat.val.size < 2:
        return mat.val
    same = (mat.row[1:] == mat.row[:-1]) & (mat.col[1:] == mat.col[:-1])
    if not bool(same.any()):
        return mat.val
    # np.unique over the linearised coordinates groups duplicates
    keys = mat.row.astype(np.int64) * mat.shape[1] + mat.col.astype(np.int64)
    _, inverse = np.unique(keys, return_inverse=True)
    summed = np.zeros(int(inverse.max()) + 1, dtype=np.float64)
    np.add.at(summed, inverse, mat.val.astype(np.float64))
    return summed.astype(mat.val.dtype)


def num_elements(mat: MatrixLike) -> int:
    if isinstance(mat, (DenseMatrix, COOMatrix)):
        m, n = mat.shape
        return m * n
    if sp.issparse(mat):
        return mat.shape[0] * mat.shape[1]
    return np.asarray(mat).size


def density(mat: MatrixLike) -> float:
    """Density in [0, 1]: nnz / total elements (paper §II-B)."""
    total = num_elements(mat)
    if total == 0:
        return 0.0
    return nnz_count(mat) / total


@dataclass(frozen=True)
class ProfileReport:
    """Result of one hardware profiling pass."""

    nnz: int
    elements: int
    density: float
    cycles: int


class SparsityProfiler(StreamingUnit):
    """Adder-tree nonzero counter at the Result Buffer output port.

    Parameters
    ----------
    width:
        Comparators per cycle (matches the Result Buffer port width,
        ``psys`` in the implementation).
    """

    @property
    def adder_tree_depth(self) -> int:
        """The pipeline behind the comparators: ``log2(width)`` adders deep."""
        return self.pipeline_stages

    def profile(self, mat: MatrixLike) -> ProfileReport:
        """Count nonzeros the way the hardware does (streaming pass)."""
        nnz = nnz_count(mat)
        total = num_elements(mat)
        # a sparse-format matrix streams out nnz elements; dense streams all
        streamed = nnz if isinstance(mat, COOMatrix) or sp.issparse(mat) else total
        return ProfileReport(
            nnz=nnz,
            elements=total,
            density=(nnz / total if total else 0.0),
            cycles=self.cycles_for(streamed),
        )
