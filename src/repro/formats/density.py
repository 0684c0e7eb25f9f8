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

import numpy as np
import scipy.sparse as sp

from repro.formats.convert import StreamingUnit
from repro.formats.csr import MatrixLike


def nnz_count(mat: MatrixLike) -> int:
    """Exact number of numerically-nonzero elements of any matrix type.

    Robust to the two ways a sparse matrix can lie about its population:
    *explicit zeros* (stored entries whose value is 0) are not counted,
    and *duplicate coordinates* (legal in COO; two stored entries at one
    position represent their sum) are summed before counting — e.g. the
    pair ``(+v, -v)`` at one coordinate is a single zero element.
    """
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


def num_elements(mat: MatrixLike) -> int:
    if sp.issparse(mat):
        return mat.shape[0] * mat.shape[1]
    return np.asarray(mat).size


def density(mat: MatrixLike) -> float:
    """Density in [0, 1]: nnz / total elements (paper §II-B)."""
    total = num_elements(mat)
    if total == 0:
        return 0.0
    return nnz_count(mat) / total


class SparsityProfiler(StreamingUnit):
    """Adder-tree nonzero counter at the Result Buffer output port; the
    tree behind the comparators is its ``pipeline_stages``, ``log2(width)``
    adders deep.

    Parameters
    ----------
    width:
        Comparators per cycle (matches the Result Buffer port width,
        ``psys`` in the implementation).
    """
