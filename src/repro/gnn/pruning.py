"""Weight pruning for the §VIII-B pruned-model experiments.

The paper evaluates the three mapping strategies on models whose weight
matrices are pruned (magnitude pruning in the spirit of [15], [16]) to a
range of sparsities; all weight matrices of a model share the same target
sparsity, matching the paper's setup ("all the weight matrices in a GNN
model are pruned to have the same sparsity").
"""

from __future__ import annotations

import numpy as np

from repro.formats.dense import DTYPE


def prune_to_sparsity(w: np.ndarray, sparsity: float) -> np.ndarray:
    """Magnitude-prune ``w`` so exactly ``round(sparsity * size)`` entries
    are zero (smallest magnitudes dropped; deterministic tie-break by
    flat index)."""
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    w = np.asarray(w, dtype=DTYPE)
    size = w.size
    n_zero = int(round(sparsity * size))
    if n_zero == 0:
        return w.copy()
    flat = np.abs(w).ravel()
    # stable argsort on (|w|, index) gives a deterministic tie-break
    order = np.argsort(flat, kind="stable")
    out = w.ravel().copy()
    out[order[:n_zero]] = DTYPE(0.0)
    return out.reshape(w.shape)


def prune_weights(
    weights: dict[str, np.ndarray], sparsity: float
) -> dict[str, np.ndarray]:
    """Prune every weight matrix of a model to the same target sparsity."""
    return {name: prune_to_sparsity(w, sparsity) for name, w in weights.items()}

