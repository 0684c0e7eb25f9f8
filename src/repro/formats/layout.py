"""The layout transformation unit and the layout merger (paper §V-B2).

*The layout transformation unit (LTU)* transposes between row-major and
column-major order, implemented in hardware as a streaming permutation
network (the paper reuses the bitonic permutation network of [19]).  A
matrix of ``E`` elements streams through ``width`` lanes, so a full pass
costs ``ceil(E / width)`` cycles plus the network's ``O(log^2 width)``
pipeline latency.

*The layout merger*: when a task's partial results are produced in different
orientations (a pair computed "transposed" lands column-major in the
Result Buffer), the two partial accumulators are merged into row-major
order while ``Z`` streams back to DDR.  Functionally this is an addition,
which the core performs itself; the unit bills one streaming pass.

Both units are streaming and overlap with data movement under double
buffering; the executor reports their cycles in the ``transform`` bucket.
"""

from __future__ import annotations

import math

from repro.formats.convert import StreamingUnit


class LayoutTransformationUnit(StreamingUnit):
    """Streaming permutation network that transposes layouts."""

    @property
    def pipeline_stages(self) -> int:
        # bitonic permutation network depth: log2(w) * (log2(w)+1) / 2
        lg = int(math.log2(self.width)) if self.width > 1 else 1
        return lg * (lg + 1) // 2


class LayoutMerger(StreamingUnit):
    """Merges row-major and column-major partial results of ``Z``.

    §V-B2: the Result Buffer keeps two partial accumulators of ``Z`` (one
    per orientation); on write-back the merger adds them into a single
    row-major matrix.
    """

    #: one streaming pass, no pipeline fill
    pipeline_stages = 0
