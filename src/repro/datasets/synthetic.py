"""Power-law random graph generator (configuration-model style).

Real-world graphs in the paper's benchmark suite are sparse with heavy
skew: most vertices have few neighbours, a few are hubs (§I).  The
generator draws endpoint probabilities from a Zipf-like weight vector and
samples edges until the exact target count is reached, deduplicating and
rejecting self-loops.  Hub positions are shuffled so block partitions see
realistic density variation (different parts of A having different
densities is central to the paper's fine-grained mapping).

The output for given arguments is a contract (golden digests in
``tests/test_datasets.py``): uniforms are drawn in a fixed order and the
endpoint cdf is inverted exactly as ``Generator.choice`` inverts it, only
through a guide table instead of one binary search per draw; rounds are
merged by :func:`repro.formats.csr.sorted_unique`, and the sorted edge
keys are written straight into canonical CSR.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.csr import sorted_unique
from repro.formats.dense import DTYPE

#: buckets of the endpoint sampler's guide table (a power of two, so a
#: uniform's bucket ``floor(u * _GUIDE)`` is computed exactly in float64)
_GUIDE = 1 << 16


def _zipf_weights(
    n: int, exponent: float, rng: np.random.Generator, uniform_mix: float = 0.25
) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-1.0 / max(exponent - 1.0, 1e-6))
    w /= w.sum()
    # blend in a uniform floor: keeps the hub skew but caps the collision
    # rate of rejection sampling on dense-ish scaled graphs
    w = (1.0 - uniform_mix) * w + uniform_mix / n
    rng.shuffle(w)  # hubs scattered over vertex ids
    return w / w.sum()


def _endpoint_sampler(p: np.ndarray):
    """``draw(rng, size)`` equal to ``rng.choice(len(p), size, p=p)``
    element for element, consuming the same ``rng.random(size)``.

    ``guide[b]`` counts the cdf entries ``<= b / _GUIDE``, i.e. those with
    ``ceil(cdf * _GUIDE) <= b`` (both scalings are exact).  A uniform in
    bucket ``b`` lies in ``[b, b + 1) / _GUIDE``, so unless a cdf step
    falls inside its bucket, ``guide[b]`` is the binary search's answer;
    only the uniforms of the (at most ``len(p)``) other buckets are searched.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    guide = np.bincount(
        np.ceil(cdf * _GUIDE).astype(np.intp), minlength=_GUIDE + 1
    ).cumsum(dtype=np.int64)  # rng.choice returns int64 on every platform
    straddles = guide[1:] != guide[:-1]

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        bucket = (u * _GUIDE).astype(np.intp)
        idx = guide[bucket]
        hard = np.flatnonzero(straddles[bucket])
        idx[hard] = cdf.searchsorted(u[hard], "right")
        return idx

    return draw


def powerlaw_graph(
    num_vertices: int,
    num_edges: int,
    *,
    seed: int = 0,
    exponent: float = 2.1,
    symmetric: bool = False,
) -> sp.csr_matrix:
    """Random graph with a power-law degree profile.

    Parameters
    ----------
    num_edges:
        Target number of stored nonzeros of the returned adjacency matrix
        (for ``symmetric=True`` this counts *undirected* edges; the matrix
        then has ``~2 * num_edges`` nonzeros, as in the Planetoid counts).
    exponent:
        Degree-distribution exponent (2-3 in real graphs).
    """
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    max_possible = num_vertices * (num_vertices - 1) // (2 if symmetric else 1)
    if num_edges > max_possible:
        raise ValueError(f"too many edges requested: {num_edges} > {max_possible}")
    if np.isnan(exponent):
        raise ValueError(f"exponent must be a number, got {exponent}")
    rng = np.random.default_rng(seed)
    draw = _endpoint_sampler(_zipf_weights(num_vertices, exponent, rng))

    seen = np.zeros(0, dtype=np.int64)
    need = num_edges
    v = np.int64(num_vertices)
    rounds = 0
    while need > 0:
        batch = max(int(need * 1.5), 1024)
        src = draw(rng, batch)
        dst = draw(rng, batch)
        mask = src != dst
        src, dst = src[mask], dst[mask]
        if symmetric:
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            keys = lo * v + hi
        else:
            keys = src * v + dst
        seen = sorted_unique(np.concatenate([seen, keys]))
        need = num_edges - seen.size
        rounds += 1
        if rounds > 200:  # pragma: no cover - safety valve
            raise RuntimeError("edge sampling failed to converge")
    if seen.size > num_edges:
        # the draws of ``rng.choice(seen, ...)``; a mask keeps them sorted
        keep = np.zeros(seen.size, dtype=bool)
        keep[rng.choice(seen.size, size=num_edges, replace=False)] = True
        seen = seen[keep]

    # the keys, sorted, are the matrix in row-major order: canonical CSR
    # without the coo -> csr -> sort_indices round trip
    if symmetric:
        seen = np.sort(np.concatenate([seen, seen % v * v + seen // v]))
    indptr = seen.searchsorted(np.arange(num_vertices + 1, dtype=np.int64) * v)
    a = sp.csr_matrix(
        (np.ones(seen.size, dtype=DTYPE), seen % v, indptr),
        shape=(num_vertices, num_vertices),
    )
    a.has_canonical_format = True
    return a
