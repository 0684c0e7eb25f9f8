"""Preprocessed adjacency operands for the Aggregate kernel.

The Aggregate kernel is a matrix product ``H_out = A_hat @ H_in`` (paper
§III-A).  Each model's aggregation operator is folded into ``A_hat`` at
compile time, the standard trick all full-graph frameworks use:

- **GCN / SGC** (sum with symmetric normalisation):
  ``A_hat = D^{-1/2} (A + I) D^{-1/2}`` (Kipf & Welling);
- **GraphSAGE** (mean over neighbours): ``A_hat = D^{-1} A``;
- **GIN** (sum plus weighted self-loop): ``A_hat = A + (1 + eps) I``.

All variants are float32 CSR.  The compiler stores whichever variants the
model's layers reference under the names returned by
:func:`build_adjacency_variants`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.csr import as_csr, MatrixLike
from repro.formats.dense import DTYPE


def _degrees(a: sp.csr_matrix) -> np.ndarray:
    return np.asarray(a.sum(axis=1)).ravel()


def _canonical(a: MatrixLike) -> sp.csr_matrix:
    """``a`` as float32 CSR in canonical form: duplicate coordinates
    summed, indices sorted, no stored zeros.

    The builders reuse their input's index structure, and the incremental
    operand patching of :mod:`repro.dyngraph` relies on a deterministic
    entry order (a patched operand is bit-identical, downstream
    accumulation order included, to a rebuilt one), so the structure has
    to be the canonical one.  An input that already is comes back as it
    is; anything else is put in order on a copy, never in the caller's
    matrix.
    """
    csr = as_csr(a)
    if not (csr.has_canonical_format and (csr.data != 0).all()):
        csr = csr.copy()
        csr.sum_duplicates()
        csr.eliminate_zeros()
    return csr


def _scaled_like(
    source: sp.csr_matrix,
    scale_left: np.ndarray,
    scale_right: np.ndarray | None,
) -> sp.csr_matrix:
    """CSR sharing canonical ``source``'s index structure, with values
    ``(scale_left[r] * src) * scale_right[c]``: the same two float32
    products, in the same order, as ``diags(left) @ source @ diags(right)``
    (so bit-identical to it), without the sparse products (2.3-6.5x faster
    on the ledger's graphs).  The row scale is repeated along ``indptr``;
    no row ids are materialised.
    """
    vals = np.repeat(scale_left, np.diff(source.indptr))
    vals *= source.data
    if scale_right is not None:
        vals *= scale_right[source.indices]
    out = sp.csr_matrix(
        (vals.astype(DTYPE, copy=False), source.indices, source.indptr),
        shape=source.shape,
    )
    out.has_sorted_indices = True  # source is canonical
    return out


def gcn_norm(a: MatrixLike) -> sp.csr_matrix:
    """Symmetric GCN normalisation with self-loops: D^-1/2 (A+I) D^-1/2."""
    a = _canonical(a)
    a_hat = (a + sp.identity(a.shape[0], dtype=DTYPE, format="csr")).tocsr()
    deg = _degrees(a_hat)
    with np.errstate(divide="ignore"):
        d_inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0).astype(DTYPE)
    return _scaled_like(a_hat, d_inv_sqrt, d_inv_sqrt)


def mean_norm(a: MatrixLike) -> sp.csr_matrix:
    """Row-normalised adjacency D^-1 A (GraphSAGE mean aggregator)."""
    a = _canonical(a)
    deg = _degrees(a)
    with np.errstate(divide="ignore"):
        d_inv = np.where(deg > 0, 1.0 / deg, 0.0)
    return _scaled_like(a, d_inv.astype(DTYPE), None)


def gin_adj(a: MatrixLike, eps: float = 0.0) -> sp.csr_matrix:
    """GIN aggregation operand: A + (1 + eps) I."""
    a = _canonical(a)
    identity = sp.identity(a.shape[0], dtype=DTYPE, format="csr")
    return (a + DTYPE(1.0 + eps) * identity).tocsr().astype(DTYPE)


#: adjacency-variant name -> builder
ADJACENCY_BUILDERS = {
    "A_norm": gcn_norm,
    "A_mean": mean_norm,
    "A_gin": gin_adj,
}


def build_adjacency_variants(a: MatrixLike, names: set[str]) -> dict[str, sp.csr_matrix]:
    """Materialise the requested preprocessed adjacency matrices."""
    out = {}
    for name in names:
        if name not in ADJACENCY_BUILDERS:
            raise KeyError(f"unknown adjacency variant {name!r}")
        out[name] = ADJACENCY_BUILDERS[name](a)
    return out
