"""Dense <-> Sparse format-transformation hardware (paper §V-B2, Fig. 8).

The Auxiliary Hardware Module contains a Format Transformation Module with
a Dense-to-Sparse (D2S) and a Sparse-to-Dense (S2D) unit.  D2S streams the
matrix ``n`` elements per cycle through a ``log2(n)``-stage pipeline that
compacts nonzeros using the prefix-sum of the zero count before each
element: in stage ``i`` an element shifts left by ``2**(i-1)`` positions if
bit ``i-1`` of its prefix-sum value is set (Fig. 8).

A unit is the cycles it bills: :meth:`StreamingUnit.cycles_for`,
``ceil(elements / n) + pipeline_stages``.  The simulator's data stay NumPy
and SciPy arrays, so no unit converts anything; the one functional model
kept, :meth:`DenseToSparseModule.compact_staged`, is Fig. 8's worked
example, and its stage count is what tests hold ``pipeline_stages`` to.

The units convert the DDR transfers on the fly, a stage of the load
stream: with double buffering (§V-B3) a task takes ``max(compute, memory,
transform)``, and only a pass longer than both the transfer and the
compute lengthens it (:func:`repro.hw.report.stage_cycles`).
"""

from __future__ import annotations

import math
from typing import TypeVar

import numpy as np

from repro.formats.dense import DTYPE


#: a size, or an int64 array of sizes: what a cycle formula is asked
Sizes = TypeVar("Sizes", int, np.ndarray)


class StreamingUnit:
    """A unit that streams ``width`` elements per cycle through a
    ``pipeline_stages``-deep pipeline: D2S, S2D, the LTU, the layout
    merger and the Sparsity Profiler, each with its own depth."""

    def __init__(self, width: int = 16) -> None:
        if width < 1 or width & (width - 1):
            raise ValueError(f"lane width must be a power of two, got {width}")
        self.width = width

    @property
    def pipeline_stages(self) -> int:
        return int(math.log2(self.width)) if self.width > 1 else 1

    def cycles_for(self, num_elements: Sizes) -> Sizes:
        """Cycles of one streaming pass: ``ceil(num_elements / width) +
        pipeline_stages``, and zero when nothing streams.  Integer
        arithmetic throughout, so it takes an ``int`` or an ``int64`` array
        of sizes and answers in kind."""
        passes = -(num_elements // -self.width)
        return (passes + self.pipeline_stages) * (num_elements != 0)


class DenseToSparseModule(StreamingUnit):
    """D2S unit: compacts a dense stream into (index, value) pairs.

    Parameters
    ----------
    width:
        Elements consumed per cycle (``n`` in the paper).  A DDR4 channel
        delivers 16 32-bit words per cycle, so the paper sizes the unit at
        ``n = 16``.
    """

    # -- faithful pipeline simulation (Fig. 8) -------------------------
    def compact_staged(
        self, values: np.ndarray, indices: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Simulate the prefix-sum shifting pipeline on one ``width`` chunk.

        Returns ``(kept_values, kept_indices, per_stage_snapshots)`` where
        the snapshots record the array after each pipeline stage, exactly
        as drawn in Fig. 8.
        """
        values = np.asarray(values, dtype=DTYPE)
        if values.size > self.width:
            raise ValueError("chunk larger than lane width")
        if indices is None:
            indices = np.arange(values.size, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)

        # Prefix-sum of the number of zeros strictly before each element.
        is_zero = (values == 0).astype(np.int64)
        prefix = np.concatenate(([0], np.cumsum(is_zero)[:-1]))

        vals = list(values)
        idxs = list(indices)
        pref = list(prefix)
        snapshots: list[np.ndarray] = []
        for stage in range(1, self.pipeline_stages + 1):
            shift = 1 << (stage - 1)
            bit = stage - 1
            new_vals: list = [None] * len(vals)
            new_idxs: list = [None] * len(vals)
            new_pref: list = [None] * len(vals)
            for pos in range(len(vals)):
                v = vals[pos]
                if v is None:
                    continue
                target = pos - shift if (pref[pos] >> bit) & 1 else pos
                # zeros are dropped as soon as a nonzero shifts onto them;
                # the hardware simply never forwards zero lanes.
                if v == 0:
                    continue
                new_vals[target] = v
                new_idxs[target] = idxs[pos]
                new_pref[target] = pref[pos]
            vals, idxs, pref = new_vals, new_idxs, new_pref
            snapshots.append(
                np.array([0 if v is None else v for v in vals], dtype=DTYPE)
            )
        kept = [(i, v) for i, v in zip(idxs, vals) if v is not None]
        if kept:
            out_idx = np.array([k[0] for k in kept], dtype=np.int64)
            out_val = np.array([k[1] for k in kept], dtype=DTYPE)
        else:
            out_idx = np.zeros(0, dtype=np.int64)
            out_val = np.zeros(0, dtype=DTYPE)
        return out_val, out_idx, snapshots


class SparseToDenseModule(StreamingUnit):
    """S2D unit: scatters (index, value) pairs back into a dense stream.

    §V-B2: *"The architecture of S2D is similar to D2S, but in the reverse
    direction."*  Throughput is therefore also ``width`` lanes per cycle,
    but the number of cycles is bounded by the *dense* output size because
    zero lanes must still be emitted: ``cycles_for`` takes the dense size.
    """

