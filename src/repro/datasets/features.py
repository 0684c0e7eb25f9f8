"""Feature-matrix generation with an exact target density.

Vertex feature matrices in the benchmark graphs range from near-empty
(NELL: 0.01%) to fully dense (Reddit: 100%) — Table VI.  The generator
produces a matrix whose nonzero count matches ``round(density * V * f)``
exactly; sparse outputs are CSR, dense ones ndarray (mirroring the
compiler's off-chip storage-format policy threshold).

The sparse path rejection-samples flat cell ids (rounds merged by
:func:`repro.formats.csr.sorted_unique`), subsamples to the exact count,
then draws the values and writes the sorted ids straight into canonical
CSR; the dense path draws every value and zeroes an exact-count random
subset.  The output for a given ``(shape, density, seed)`` is a
contract: golden digests in ``tests/test_datasets.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.csr import sorted_unique
from repro.formats.dense import DTYPE
from repro.formats.partition import SPARSE_STORAGE_THRESHOLD


def sparse_features(
    num_vertices: int,
    num_features: int,
    density: float,
    *,
    seed: int = 0,
):
    """Random feature matrix with exactly ``round(density * V * f)`` nonzeros.

    Values are uniform in [0.5, 1.5] (bounded away from zero so the nonzero
    count is exact).  Returns CSR when the density is below the off-chip
    sparse-storage threshold, ndarray otherwise.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    total = num_vertices * num_features
    target = int(round(density * total))

    if density >= SPARSE_STORAGE_THRESHOLD:
        dense = rng.uniform(0.5, 1.5, size=(num_vertices, num_features)).astype(DTYPE)
        n_zero = total - target
        if n_zero > 0:
            zero_idx = rng.choice(total, size=n_zero, replace=False)
            dense.ravel()[zero_idx] = DTYPE(0.0)
        return dense

    # sparse path: sample flat cell indices without replacement
    flat = np.zeros(0, dtype=np.int64)
    need = target
    rounds = 0
    while need > 0:
        batch = max(int(need * 1.3), 256)
        cand = rng.integers(0, total, size=batch, dtype=np.int64)
        flat = sorted_unique(np.concatenate([flat, cand]))
        need = target - flat.size
        rounds += 1
        if rounds > 200:  # pragma: no cover - safety valve
            raise RuntimeError("feature sampling failed to converge")
    if flat.size > target:
        # the draws of ``rng.choice(flat, ...)``, each value paired with its
        # pick; a slot scatter keeps the subset sorted, values alongside
        pick = rng.choice(flat.size, size=target, replace=False)
        vals = rng.uniform(0.5, 1.5, size=target).astype(DTYPE)
        slot = np.full(flat.size, -1, dtype=np.int64)
        slot[pick] = np.arange(target)
        keep = slot >= 0
        flat, vals = flat[keep], vals[slot[keep]]
    else:
        vals = rng.uniform(0.5, 1.5, size=flat.size).astype(DTYPE)
    f = np.int64(num_features)
    indptr = flat.searchsorted(np.arange(num_vertices + 1, dtype=np.int64) * f)
    x = sp.csr_matrix(
        (vals, (flat % f).astype(np.int32), indptr.astype(np.int32)),
        shape=(num_vertices, num_features),
    )
    x.has_canonical_format = True
    return x
