"""Reference full-graph inference in NumPy/SciPy (the simulator's oracle).

Implements the message-passing abstraction (Algorithm 1) directly from
the layer formulas — *independently* of the IR/compiler/runtime path —
so integration tests can assert that the accelerator simulation produces
numerically identical embeddings.

Also provides :func:`layerwise_feature_densities`, which records the
density of the feature matrix at every kernel boundary; this regenerates
Fig. 2 (the density of the feature matrices across GCN stages) and is
what motivates *dynamic* kernel-to-primitive mapping in the first place.
"""

from __future__ import annotations


import numpy as np

from repro.formats.csr import MatrixLike, as_csr, as_dense
from repro.formats.dense import DTYPE
from repro.formats.density import density
from repro.gnn.activations import apply_activation
from repro.gnn.adjacency import gcn_norm, gin_adj, mean_norm
from repro.gnn.models import ModelSpec
from repro.ir.kernel import Activation


def reference_inference(
    model: ModelSpec,
    a: MatrixLike,
    h0: MatrixLike,
    weights: dict[str, np.ndarray],
) -> np.ndarray:
    """Ground-truth embeddings for ``model`` on graph ``a`` / features ``h0``."""
    a = as_csr(a)
    h = as_dense(h0)
    for idx, layer in enumerate(model.layers, start=1):
        if layer.kind == "gcn":
            a_hat = gcn_norm(a)
            h = np.asarray(a_hat @ (h @ weights[f"W{idx}"]), dtype=DTYPE)
            h = apply_activation(layer.activation, h)
        elif layer.kind == "sage":
            a_hat = mean_norm(a)
            root = h @ weights[f"W{idx}_root"]
            neigh = np.asarray(a_hat @ h, dtype=DTYPE) @ weights[f"W{idx}_neigh"]
            h = apply_activation(layer.activation, np.asarray(root + neigh, dtype=DTYPE))
        elif layer.kind == "gin":
            a_hat = gin_adj(a, layer.eps)
            agg = np.asarray(a_hat @ h, dtype=DTYPE)
            mid = apply_activation(Activation.RELU, np.asarray(agg @ weights[f"W{idx}_mlp1"], dtype=DTYPE))
            h = apply_activation(
                layer.activation,
                np.asarray(mid @ weights[f"W{idx}_mlp2"], dtype=DTYPE),
            )
        elif layer.kind == "sgc":
            a_hat = gcn_norm(a)
            for _ in range(layer.hops):
                h = np.asarray(a_hat @ h, dtype=DTYPE)
            h = apply_activation(
                layer.activation, np.asarray(h @ weights[f"W{idx}"], dtype=DTYPE)
            )
        else:  # pragma: no cover - LayerSpec validates kinds
            raise ValueError(f"unknown layer kind {layer.kind}")
        h = np.asarray(h, dtype=DTYPE)
    return h


def layerwise_feature_densities(
    model: ModelSpec,
    a: MatrixLike,
    h0: MatrixLike,
    weights: dict[str, np.ndarray],
) -> list[tuple[str, float]]:
    """Density of the feature matrix at each kernel boundary (Fig. 2).

    For the GCN model the returned stages match Fig. 2's legend:
    input, after Update() of layer 1, after Aggregate()+sigma() of layer 1,
    after Update() of layer 2, after Aggregate()+sigma() of layer 2.
    """
    if any(layer.kind != "gcn" for layer in model.layers):
        raise ValueError("layerwise_feature_densities reproduces Fig. 2 for GCN")
    a_hat = gcn_norm(as_csr(a))
    h = as_dense(h0)
    stages: list[tuple[str, float]] = [("input", density(h))]
    for idx, layer in enumerate(model.layers, start=1):
        h = np.asarray(h @ weights[f"W{idx}"], dtype=DTYPE)
        stages.append((f"after Update() of layer {idx}", density(h)))
        h = np.asarray(a_hat @ h, dtype=DTYPE)
        h = apply_activation(layer.activation, h)
        suffix = "+sigma()" if layer.activation is not Activation.NONE else ""
        stages.append((f"after Aggregate(){suffix} of layer {idx}", density(h)))
    return stages
