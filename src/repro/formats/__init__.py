"""Data formats, format/layout hardware and partitioning (paper §IV-C, §V-A).

The simulator has one matrix vocabulary: NumPy arrays and SciPy sparse
matrices (:mod:`repro.formats.csr`).  What the paper's hardware stores,
dense or COO, row- or column-major, reaches a modelled number only as the
bytes and cycles a core bills for it.

A hardware unit is the cycles it bills.  A functional model of one stays
only where a test holds a billed formula against it: Fig. 8's
:meth:`~repro.formats.convert.DenseToSparseModule.compact_staged`, whose
stage count is the D2S unit's ``pipeline_stages``.

- :mod:`repro.formats.csr` — the array/CSR conversions and ``MatrixLike``.
- :mod:`repro.formats.convert` — the Dense-to-Sparse / Sparse-to-Dense
  units (Fig. 8) and ``StreamingUnit.cycles_for``, the one streaming-pass
  formula every auxiliary unit bills.
- :mod:`repro.formats.layout` — the layout transformation unit (streaming
  permutation network) and the layout merger.
- :mod:`repro.formats.density` — nonzero counting and the adder-tree
  Sparsity Profiler.
- :mod:`repro.formats.partition` — the block/fiber/subfiber partitioning of
  Fig. 5, exposed as :class:`~repro.formats.partition.PartitionedMatrix`.
"""

from repro.formats.density import density, nnz_count, SparsityProfiler
from repro.formats.partition import PartitionedMatrix
from repro.formats.convert import DenseToSparseModule, SparseToDenseModule
from repro.formats.layout import LayoutTransformationUnit, LayoutMerger

__all__ = [
    "density",
    "nnz_count",
    "SparsityProfiler",
    "PartitionedMatrix",
    "DenseToSparseModule",
    "SparseToDenseModule",
    "LayoutTransformationUnit",
    "LayoutMerger",
]
