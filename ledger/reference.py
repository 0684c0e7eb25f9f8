"""The ledger's own oracle: GCN / GraphSAGE / GIN / SGC from the layer formulas.

Independent of ``repro``: it imports nothing from it, normalises the
adjacency itself (from the COO triplets, in float64) and multiplies
features by weights *before* aggregating, which is the same product by
associativity but a different operation order and precision than the
simulator's float32 kernel sequence.  That is why outputs are compared
with a tolerance and not for equality; the tolerance is fixed here.

Weight names follow the models' public convention (``W1``, ``W1_root``,
``W1_neigh``, ``W1_mlp1``, ``W1_mlp2``); both 2-layer models apply ReLU
after layer 1 only, SGC is two propagation hops and one linear map.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: |out - ref| <= ATOL_SCALE * max|ref| + RTOL * |ref|, elementwise.  The
#: simulator accumulates in float32, so errors scale with the magnitude
#: of the output, not of each element; probes on every ledger cell stay
#: below 3e-7 * max|ref|.
RTOL = 1e-4
ATOL_SCALE = 1e-5


def _triplets(a) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    coo = sp.coo_matrix(a)
    return coo.row, coo.col, coo.data.astype(np.float64), coo.shape[0]


def _with_self_loops(a, weight: float):
    rows, cols, vals, n = _triplets(a)
    loop = np.arange(n)
    return (
        np.concatenate([rows, loop]),
        np.concatenate([cols, loop]),
        np.concatenate([vals, np.full(n, weight)]),
        n,
    )


def _inverse(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    np.divide(1.0, x, out=out, where=x > 0)
    return out


def sym_norm(a) -> sp.csr_matrix:
    """D^-1/2 (A + I) D^-1/2 with D the degrees of A + I (Kipf & Welling)."""
    rows, cols, vals, n = _with_self_loops(a, 1.0)
    scale = np.sqrt(_inverse(np.bincount(rows, weights=vals, minlength=n)))
    return sp.csr_matrix((vals * scale[rows] * scale[cols], (rows, cols)), shape=(n, n))


def mean_agg(a) -> sp.csr_matrix:
    """D^-1 A: the mean over each vertex's neighbours."""
    rows, cols, vals, n = _triplets(a)
    scale = _inverse(np.bincount(rows, weights=vals, minlength=n))
    return sp.csr_matrix((vals * scale[rows], (rows, cols)), shape=(n, n))


def sum_agg(a, eps: float = 0.0) -> sp.csr_matrix:
    """A + (1 + eps) I: GIN's sum with a weighted self term."""
    rows, cols, vals, n = _with_self_loops(a, 1.0 + eps)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _times(h, w: np.ndarray) -> np.ndarray:
    return np.asarray(h @ w.astype(np.float64))


def infer(model: str, a, h0, weights: dict) -> np.ndarray:
    """Embeddings of ``model`` on adjacency ``a`` and features ``h0``."""
    if model == "GCN":
        op = sym_norm(a)
        h = _relu(op @ _times(h0, weights["W1"]))
        return op @ _times(h, weights["W2"])
    if model == "GraphSAGE":
        op = mean_agg(a)
        h = _relu(_times(h0, weights["W1_root"]) + op @ _times(h0, weights["W1_neigh"]))
        return _times(h, weights["W2_root"]) + op @ _times(h, weights["W2_neigh"])
    if model == "GIN":
        op = sum_agg(a)
        h = _times(_relu(op @ _times(h0, weights["W1_mlp1"])), weights["W1_mlp2"])
        h = _relu(h)
        return _times(_relu(op @ _times(h, weights["W2_mlp1"])), weights["W2_mlp2"])
    if model == "SGC":
        op = sym_norm(a)
        return op @ (op @ _times(h0, weights["W1"]))
    raise ValueError(f"the oracle knows GCN, GraphSAGE, GIN and SGC, not {model!r}")


def matches(out, ref: np.ndarray) -> bool:
    """Is ``out`` the oracle's answer within the file's tolerance?"""
    out = np.asarray(out, dtype=np.float64)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return False
    atol = ATOL_SCALE * float(np.max(np.abs(ref))) if ref.size else 0.0
    return bool(np.allclose(out, ref, rtol=RTOL, atol=atol))
