"""Synthetic datasets matching the paper's six benchmark graphs (Table VI).

Planetoid/Flickr/NELL/Reddit cannot be downloaded in this offline
environment, so :mod:`repro.datasets.catalog` generates seeded synthetic
equivalents that match Table VI exactly at scale 1.0: |V|, |E|, feature
dimension, class count, adjacency density and input-feature density —
the only statistics the kernel-to-primitive machinery observes — with a
power-law degree distribution like the real graphs.  Reddit defaults to a
scaled-down instance so full functional simulation fits in laptop memory
(see DESIGN.md substitutions).
"""

from repro.datasets.catalog import (
    DATASET_NAMES,
    DatasetSpec,
    GraphData,
    TABLE_VI,
    format_catalog,
    load_dataset,
)
from repro.datasets.synthetic import powerlaw_graph
from repro.datasets.features import sparse_features

__all__ = [
    "DATASET_NAMES",
    "DatasetSpec",
    "GraphData",
    "TABLE_VI",
    "format_catalog",
    "load_dataset",
    "powerlaw_graph",
    "sparse_features",
]
