"""On-chip buffer capacity (paper §V-B1, §V-B3).

Each Computation Core has four data buffers — BufferU (sparse operand),
BufferO (dense/sparse operand), BufferP (GEMM right operand) and the
Result Buffer — of ``BufferConfig.words_per_buffer`` 32-bit words each,
built from ``psys`` banks in the paper.  What the model reads of them is
that one capacity: whether a partition fits, which bounds Algorithm 9's
``g(So)`` here and, in :mod:`repro.hw.core` and the task loops, which
mappings a pair may take (dense: one word an element; COO: three words a
nonzero).
"""

from __future__ import annotations

import math


class BufferOverflowError(RuntimeError):
    """A partition exceeded on-chip buffer capacity."""


def max_partition_dim(buffer_words: int, *, align: int = 1) -> int:
    """``g(So)`` of Algorithm 9: largest square partition side fitting on chip.

    A dense ``N x N`` partition needs ``N**2`` words in one buffer, so the
    bound is ``floor(sqrt(words))``, optionally rounded down to a multiple
    of ``align`` (the hardware prefers multiples of ``psys``).
    """
    n = int(math.isqrt(buffer_words))
    if align > 1:
        n = (n // align) * align
    return max(n, align)
