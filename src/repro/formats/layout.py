"""Layout Transformation Unit and Layout Merger (paper §V-B2).

*Layout Transformation Unit (LTU)* — transposing between row-major and
column-major order, implemented in hardware as a streaming permutation
network (the paper reuses the bitonic permutation network of [19]).  A
matrix of ``E`` elements streams through ``width`` lanes, so a full pass
costs ``ceil(E / width)`` cycles plus the network's ``O(log^2 width)``
pipeline latency.

*Layout Merger* — when a task's partial results are produced in different
orientations (a pair computed "transposed" lands column-major in the
Result Buffer), the two partial accumulators are merged into row-major
order while ``Z`` streams back to DDR.  Functionally this is an addition;
the cycle model charges one streaming pass.

Both units are streaming and overlap with data movement under double
buffering; the executor reports their cycles in the ``transform`` bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.formats.convert import StreamingUnit
from repro.formats.coo import COOMatrix
from repro.formats.dense import DenseMatrix, DTYPE


@dataclass(frozen=True)
class TransformReport:
    elements: int
    cycles: int


class LayoutTransformationUnit(StreamingUnit):
    """Streaming permutation network that transposes layouts."""

    @property
    def pipeline_stages(self) -> int:
        # bitonic permutation network depth: log2(w) * (log2(w)+1) / 2
        lg = int(math.log2(self.width)) if self.width > 1 else 1
        return lg * (lg + 1) // 2

    def transform_dense(self, mat: DenseMatrix) -> tuple[DenseMatrix, TransformReport]:
        """Flip a dense matrix's layout (logical content unchanged)."""
        out = mat.with_layout(mat.layout.flipped())
        return out, TransformReport(mat.num_elements, self.cycles_for(mat.num_elements))

    def transform_coo(self, mat: COOMatrix) -> tuple[COOMatrix, TransformReport]:
        """Re-sort a COO matrix for the flipped layout."""
        out = mat.with_layout(mat.layout.flipped())
        return out, TransformReport(mat.nnz, self.cycles_for(mat.nnz))


class LayoutMerger(StreamingUnit):
    """Merges row-major and column-major partial results of ``Z``.

    §V-B2: the Result Buffer keeps two partial accumulators of ``Z`` (one
    per orientation); on write-back the merger adds them into a single
    row-major matrix.
    """

    #: one streaming pass, no pipeline fill
    pipeline_stages = 0

    def merge(
        self, row_major_part: np.ndarray, col_major_part: np.ndarray
    ) -> tuple[np.ndarray, TransformReport]:
        """Combine the two partial accumulators into row-major ``Z``."""
        a = np.asarray(row_major_part, dtype=DTYPE)
        b = np.asarray(col_major_part, dtype=DTYPE)
        if a.shape != b.shape:
            raise ValueError(f"partial result shapes differ: {a.shape} vs {b.shape}")
        merged = a + b
        return merged, TransformReport(merged.size, self.cycles_for(merged.size))
