"""Incremental recomputation of preprocessed adjacency operands.

A structural edge change at ``(i, j)`` perturbs the degrees of vertices
``i`` and ``j``, and the normalised adjacency operands the compiler
stores (:mod:`repro.gnn.adjacency`) fold degrees into their values:
``A_norm`` entries depend on both endpoint degrees, ``A_mean`` entries
on the row degree, ``A_gin`` entries on nothing.

**Structure** is the part worth maintaining incrementally: edge weights
are positive and the identity is folded into ``A_norm``/``A_gin``, so
every variant's sparsity structure tracks the structure of ``A`` (plus
an ever-present diagonal).  Per-block nnz grids and matrix profiles
therefore update in O(delta) straight from the applied delta
(:meth:`~repro.formats.partition.PartitionedMatrix.from_patched`,
:func:`~repro.compiler.sparsity.update_profile`) — no re-scan.

**Values** are the part *not* worth splicing: a degree change rescales a
whole row and a whole column, so re-scaling every stored value — two
vectorised multiplies over the nnz array, the row scale repeated along
``indptr`` with no row ids materialised — is cheaper than finding which
values moved, and far cheaper than the builders' sparse matrix products.
(The splice pays no sort of what is stored either: :class:`MutableGraph`
merges a delta's sorted additions into the kept entries at their
insertion points, and :class:`~repro.formats.partition.PartitionedMatrix`
re-splits the patched operand in one pass.)  The
``patch_*`` functions below reuse the mutated adjacency's CSR index
structure as-is and recompute values with exactly the float32
operation sequence of the from-scratch builders, so the result is
**bit-identical** to recompiling — including downstream accumulation
order — which is what the dyngraph exactness tests assert.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.dyngraph.delta import AppliedDelta
from repro.formats.dense import DTYPE
from repro.gnn.adjacency import ADJACENCY_BUILDERS, _degrees, gin_adj


def variant_structural_delta(
    name: str, applied: AppliedDelta
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Structural (population-flip) coordinates of one adjacency variant.

    For variants with the identity folded in (``A_norm``, ``A_gin``) the
    diagonal is populated regardless of ``A``'s diagonal, so diagonal
    edge deletes are value changes, not structural ones.
    """
    ar, ac = applied.a_added_rows, applied.a_added_cols
    rr, rc = applied.a_removed_rows, applied.a_removed_cols
    if name in ("A_norm", "A_gin"):
        keep_a = ar != ac
        keep_r = rr != rc
        return ar[keep_a], ac[keep_a], rr[keep_r], rc[keep_r]
    if name == "A_mean":
        return ar, ac, rr, rc
    raise KeyError(f"unknown adjacency variant {name!r}")


def _scaled_like(
    source: sp.csr_matrix,
    scale_left: np.ndarray,
    scale_right: np.ndarray | None,
) -> sp.csr_matrix:
    """CSR sharing ``source``'s index structure with re-scaled values.

    ``value = (scale_left[r] * src) * scale_right[c]`` — the same two
    float32 products, in the same order, as the diagonal matmuls in the
    from-scratch builders, so every value is bit-identical.
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


def patch_gcn_norm(a_new: sp.csr_matrix) -> sp.csr_matrix:
    """``D^-1/2 (A+I) D^-1/2`` without the two sparse matmuls —
    bit-identical to :func:`repro.gnn.adjacency.gcn_norm`."""
    n = a_new.shape[0]
    a_hat = (a_new + sp.identity(n, dtype=DTYPE, format="csr")).tocsr()
    deg = _degrees(a_hat)
    with np.errstate(divide="ignore"):
        d_inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    d_inv_sqrt = d_inv_sqrt.astype(DTYPE)
    return _scaled_like(a_hat, d_inv_sqrt, d_inv_sqrt)


def patch_mean_norm(a_new: sp.csr_matrix) -> sp.csr_matrix:
    """``D^-1 A`` reusing ``A``'s index structure — bit-identical to
    :func:`repro.gnn.adjacency.mean_norm`."""
    deg = _degrees(a_new)
    with np.errstate(divide="ignore"):
        d_inv = np.where(deg > 0, 1.0 / deg, 0.0)
    return _scaled_like(a_new, d_inv.astype(DTYPE), None)


def patch_variant(name: str, a_new: sp.csr_matrix) -> sp.csr_matrix:
    """Rebuild one stored adjacency operand for a mutated adjacency, on
    the fast (matmul-free) path."""
    if name == "A_norm":
        return patch_gcn_norm(a_new)
    if name == "A_mean":
        return patch_mean_norm(a_new)
    if name == "A_gin":
        # unnormalised: the from-scratch builder is one sparse add
        return gin_adj(a_new)
    if name in ADJACENCY_BUILDERS:  # pragma: no cover - future variants
        return ADJACENCY_BUILDERS[name](a_new)
    raise KeyError(f"unknown adjacency variant {name!r}")
