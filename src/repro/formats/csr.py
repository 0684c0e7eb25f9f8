"""CSR helpers: the simulator's one matrix vocabulary.

Every operand is a NumPy array or a ``scipy.sparse`` matrix (CSR for the
products, because it is the fastest representation for them), and
:data:`MatrixLike` names that pair.  What the paper's buffers hold, dense
or COO, reaches the model only as the bytes and cycles a core bills.
These helpers centralise the conversions between the two.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.formats.dense import DTYPE

MatrixLike = Union[np.ndarray, sp.spmatrix]


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array: ``np.unique(keys)``.

    Sort, then keep what differs from its left neighbour.  It exists so
    the host cost of a cold request does not depend on which ``np.unique``
    the installed numpy ships (``pyproject.toml`` pins none): 2.4.6 hashes
    flat integer keys and measured 3x slower than this at 1e2 keys, 16x at
    1e4, 20-40x from 1e5 to 1e6 (202 ms against 7.0 for 640k cell ids).
    """
    keys = np.sort(keys, axis=None)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def as_csr(mat: MatrixLike) -> sp.csr_matrix:
    """Convert any 2-D matrix-like to float32 CSR without copying when possible."""
    if sp.issparse(mat):
        csr = mat.tocsr()
        if csr.dtype != DTYPE:
            csr = csr.astype(DTYPE)
        return csr
    arr = np.asarray(mat, dtype=DTYPE)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return sp.csr_matrix(arr)


def as_dense(mat: MatrixLike) -> np.ndarray:
    """Convert any 2-D matrix-like to a float32 ndarray."""
    if sp.issparse(mat):
        return np.asarray(mat.todense(), dtype=DTYPE)
    return np.asarray(mat, dtype=DTYPE)


def matmul(x: MatrixLike, y: MatrixLike) -> np.ndarray:
    """Ground-truth product as a dense float32 array (the Result Buffer view)."""
    if sp.issparse(x) and sp.issparse(y):
        return np.asarray((x @ y).todense(), dtype=DTYPE)
    if sp.issparse(x):
        return np.asarray(x @ as_dense(y), dtype=DTYPE)
    if sp.issparse(y):
        # dense @ sparse: compute (y.T @ x.T).T to stay in sparse-friendly form
        return np.asarray((y.T @ as_dense(x).T).T, dtype=DTYPE)
    return np.asarray(as_dense(x) @ as_dense(y), dtype=DTYPE)
