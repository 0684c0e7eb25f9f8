"""Feature-matrix generation with an exact target density.

Vertex feature matrices in the benchmark graphs range from near-empty
(NELL: 0.01%) to fully dense (Reddit: 100%) — Table VI.  The generator
produces a matrix whose nonzero count matches ``round(density * V * f)``
exactly; sparse outputs are CSR, dense ones ndarray (mirroring the
compiler's off-chip storage-format policy threshold).

The sparse path rejection-samples flat cell ids (rounds merged by
:func:`repro.formats.csr.sorted_unique`), subsamples to the exact count,
then draws the values; the dense path draws every value and zeroes an
exact-count random subset.  The output for a given ``(shape, density,
seed)`` is a contract: golden digests in ``tests/test_datasets.py``.
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
        flat = rng.choice(flat, size=target, replace=False)
    rows = (flat // num_features).astype(np.int64)
    cols = (flat % num_features).astype(np.int64)
    vals = rng.uniform(0.5, 1.5, size=flat.size).astype(DTYPE)
    return sp.csr_matrix(
        (vals, (rows, cols)), shape=(num_vertices, num_features), dtype=DTYPE
    )
