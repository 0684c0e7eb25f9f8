"""The six benchmark datasets of Table VI, as seeded synthetic equivalents.

========  ========  ===========  ========  =======  ==========  ===========
Dataset   Vertices  Edges        Features  Classes  Density(A)  Density(H0)
========  ========  ===========  ========  =======  ==========  ===========
CI        3,327     4,732        3,703     6        0.08%       0.85%
CO        2,708     5,429        1,433     7        0.14%       1.27%
PU        19,717    44,338       500       3        0.02%       10.0%
FL        89,250    899,756      500       7        0.01%       46.4%
NE        65,755    251,550      61,278    186      0.0058%     0.01%
RE        232,965   11e7         602       41       0.21%       100.0%
========  ========  ===========  ========  =======  ==========  ===========

CI/CO/PU are citation networks whose |E| counts undirected edges (the
adjacency then stores ~2|E| nonzeros, which is what reproduces the paper's
density column); FL/NE/RE's |E| counts stored nonzeros directly.

``scale`` shrinks a dataset for memory/runtime-constrained runs: vertices
and edges scale linearly (preserving the degree profile and the
Aggregate:Update work ratio; adjacency density inflates by 1/scale —
documented in DESIGN.md).  Reddit defaults to scale 0.05 because its full
110M-edge adjacency does not fit comfortably in laptop memory; every other
dataset defaults to full scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import scipy.sparse as sp

from repro.datasets.features import sparse_features
from repro.datasets.synthetic import powerlaw_graph
from repro.gnn.layers import GraphMeta


@dataclass(frozen=True)
class DatasetSpec:
    """Statistics row of Table VI plus evaluation metadata (§VIII-A)."""

    name: str
    full_name: str
    vertices: int
    edges: int
    features: int
    classes: int
    a_density: float
    h0_density: float
    #: hidden dimension used in the paper's 2-layer models
    hidden_dim: int
    #: |E| counts undirected edges (citation networks)
    symmetric: bool
    #: default generation scale (Reddit shrinks by default; see module doc)
    default_scale: float = 1.0


TABLE_VI: dict[str, DatasetSpec] = {
    "CI": DatasetSpec("CI", "CiteSeer", 3_327, 4_732, 3_703, 6, 0.0008, 0.0085, 16, True),
    "CO": DatasetSpec("CO", "Cora", 2_708, 5_429, 1_433, 7, 0.0014, 0.0127, 16, True),
    "PU": DatasetSpec("PU", "PubMed", 19_717, 44_338, 500, 3, 0.0002, 0.10, 16, True),
    "FL": DatasetSpec("FL", "Flickr", 89_250, 899_756, 500, 7, 0.0001, 0.464, 128, False),
    "NE": DatasetSpec("NE", "NELL", 65_755, 251_550, 61_278, 186, 0.000058, 0.0001, 128, False),
    "RE": DatasetSpec(
        "RE", "Reddit", 232_965, 110_000_000, 602, 41, 0.0021, 1.0, 128, False,
        default_scale=0.05,
    ),
}

DATASET_NAMES = tuple(TABLE_VI)


def format_catalog() -> str:
    """Table VI as text (``repro datasets``)."""
    from repro.harness import format_table

    return format_table(
        ["key", "name", "vertices", "edges", "features", "classes",
         "hidden", "default scale"],
        [
            [s.name, s.full_name, f"{s.vertices:,}", f"{s.edges:,}",
             f"{s.features:,}", s.classes, s.hidden_dim, s.default_scale]
            for s in TABLE_VI.values()
        ],
        title="Table VI benchmark datasets",
    )


@dataclass
class GraphData:
    """A loaded dataset: adjacency + input features + metadata."""

    name: str
    a: sp.csr_matrix
    h0: object  # csr_matrix or ndarray depending on density
    spec: DatasetSpec
    scale: float
    seed: int

    @property
    def num_vertices(self) -> int:
        return self.a.shape[0]

    @property
    def num_edges(self) -> int:
        return int(self.a.nnz)

    @property
    def num_features(self) -> int:
        return self.h0.shape[1]

    @property
    def num_classes(self) -> int:
        return self.spec.classes

    @property
    def hidden_dim(self) -> int:
        return self.spec.hidden_dim

    def meta(self) -> GraphMeta:
        return GraphMeta(self.num_vertices, self.num_edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphData({self.name}, |V|={self.num_vertices}, "
            f"nnz(A)={self.num_edges}, f={self.num_features}, "
            f"scale={self.scale})"
        )


def load_dataset(
    name: str,
    *,
    scale: float | None = None,
    seed: int = 0,
    feature_dim: int | None = None,
) -> GraphData:
    """Generate the named dataset at the given scale.

    ``feature_dim`` optionally overrides the feature dimension (useful for
    shrinking NELL's 61k-dimensional features in quick tests); the input
    density is preserved.
    """
    if name not in TABLE_VI:
        raise KeyError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    spec = TABLE_VI[name]
    s = spec.default_scale if scale is None else scale
    if not 0 < s <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {s}")
    v = max(int(round(spec.vertices * s)), 16)
    # edges scale as s**1.5: halfway between preserving the average degree
    # (s**1) and preserving the adjacency density (s**2) — keeps both the
    # degree profile and the per-block density regime recognisable at
    # small scales (DESIGN.md substitution notes)
    e = max(int(round(spec.edges * s**1.5)), v)
    f = feature_dim if feature_dim is not None else spec.features
    if f < 1:
        raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    max_edges = v * (v - 1) // (2 if spec.symmetric else 1)
    e = min(e, max_edges)
    a = powerlaw_graph(v, e, seed=seed, symmetric=spec.symmetric)
    h0 = sparse_features(v, f, spec.h0_density, seed=seed + 1)
    return GraphData(name=name, a=a, h0=h0, spec=spec, scale=s, seed=seed)
