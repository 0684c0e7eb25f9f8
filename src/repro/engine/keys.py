"""Program fingerprints: one identity scheme for every cache in the system.

A compiled program is a pure function of (model, graph content, scale,
seed, prune, accelerator config).  Everything that caches or shares
programs — the :class:`~repro.engine.core.Engine` facade, the serving
front-end's admission path, micro-batching — must agree on that identity,
so the fingerprint helpers live here, beneath all of them.

Named datasets are regenerated deterministically from (name, scale,
seed), so their name alone identifies the graph.  Inline
:class:`~repro.datasets.catalog.GraphData` is keyed by a content digest:
metadata (dims, nnz) cannot distinguish two hand-built graphs with equal
shapes but different values, which would silently share cached programs.
Snapshots of :class:`~repro.dyngraph.mutable.MutableGraph` piggyback an
O(1) per-version fingerprint on the digest memo, so serving a mutating
graph never pays an O(nnz) hash.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.config import AcceleratorConfig
from repro.datasets.catalog import GraphData
from repro.gnn.models import ModelSpec

__all__ = [
    "config_fingerprint",
    "dataset_fingerprint",
    "graph_content_digest",
    "model_fingerprint",
    "program_key",
]


def config_fingerprint(config: AcceleratorConfig) -> str:
    """Stable identity of an accelerator configuration
    (:attr:`AcceleratorConfig.fingerprint <repro.config.AcceleratorConfig.fingerprint>`,
    computed once per instance: every request key reads it)."""
    return config.fingerprint


def graph_content_digest(data: GraphData) -> str:
    """Content hash of an inline graph (adjacency + features).

    The digest is memoized on the object, keyed by the identities of its
    ``a``/``h0`` matrices so rebinding either one invalidates it.
    *In-place* mutation of the underlying arrays is not detected — treat
    a ``GraphData`` as frozen once it has been fingerprinted.
    """
    cached = getattr(data, "_serve_content_digest", None)
    if cached is not None and cached[:2] == (id(data.a), id(data.h0)):
        return cached[2]
    h = hashlib.sha1()
    a = data.a.tocsr()
    for arr in (a.indptr, a.indices, a.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    h0 = data.h0
    if sp.issparse(h0):
        h0 = h0.tocsr()
        for arr in (h0.indptr, h0.indices, h0.data):
            h.update(np.ascontiguousarray(arr).tobytes())
    else:
        h.update(np.ascontiguousarray(h0).tobytes())
    digest = h.hexdigest()
    data._serve_content_digest = (id(data.a), id(data.h0), digest)
    return digest


def dataset_fingerprint(dataset: Union[str, GraphData]) -> tuple:
    """Identity of the graph a program runs on (name or content digest)."""
    if isinstance(dataset, GraphData):
        return (
            dataset.name,
            float(dataset.scale),
            int(dataset.seed),
            graph_content_digest(dataset),
        )
    return (str(dataset),)


def model_fingerprint(model: ModelSpec) -> tuple:
    """Identity of an explicit :class:`ModelSpec`.

    Every semantically meaningful layer parameter participates — kind,
    dimensions, activation, GIN ``eps``, SGC ``hops`` — so two models
    that differ only in, say, epsilon never share a compiled program.
    """
    return (
        model.name,
        tuple(
            (
                layer.kind, layer.in_dim, layer.out_dim,
                layer.activation.value, float(layer.eps), int(layer.hops),
            )
            for layer in model.layers
        ),
    )


def program_key(
    model: Union[str, ModelSpec],
    dataset: Union[str, GraphData],
    scale: float | None,
    seed: int,
    prune: float,
    config: AcceleratorConfig,
) -> tuple:
    """Fingerprint of a compiled program.

    Requests and engine handles that share this key can share one
    ``Compiler.compile`` result; adding the mapping strategy yields the
    batch key under which whole executions are shareable.
    """
    return (
        model if isinstance(model, str) else model_fingerprint(model),
        dataset_fingerprint(dataset),
        None if scale is None else float(scale),
        int(seed),
        float(prune),
        config_fingerprint(config),
    )
