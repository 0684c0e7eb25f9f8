"""Cycle accounting shared by all hardware units.

:class:`CycleReport` splits a task's cycles into the buckets the paper
reasons about:

- ``compute`` — ALU-array cycles of the chosen execution mode;
- ``memory`` — DDR transfer cycles for operand loads and result store;
- ``transform`` — AHM cycles (layout transformation, D2S/S2D, merging);
- ``profile`` — Sparsity Profiler cycles.

With double buffering (§V-B3) the memory, transform and profile streams
overlap the compute of the *previous/next* task and the AHM transforms
the load stream on the fly, so a task takes ``max(compute, memory,
transform)`` (profiling rides on the write-back stream); without, all
serialises.  That is :func:`stage_cycles`, which the core bills and the
Analyzer minimises per pair, over :data:`CANDIDATES`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np


class Primitive(enum.Enum):
    """The three computation primitives (paper §III-A)."""

    GEMM = "GEMM"
    SPDMM = "SpDMM"
    SPMM = "SPMM"
    #: pseudo-primitive: the multiplication was skipped because one operand
    #: was entirely zero (Algorithm 7, line 6-7)
    SKIP = "SKIP"


#: dense integer codes for the vectorised decision paths — constructing a
#: :class:`Primitive` per pair is what the batched Analyzer avoids, so the
#: batch APIs speak int8 arrays indexed by this order
CODE_ORDER: tuple[Primitive, ...] = (
    Primitive.GEMM,
    Primitive.SPDMM,
    Primitive.SPMM,
    Primitive.SKIP,
)
PRIMITIVE_CODES: dict[Primitive, int] = {p: i for i, p in enumerate(CODE_ORDER)}
GEMM_CODE = PRIMITIVE_CODES[Primitive.GEMM]
SPDMM_CODE = PRIMITIVE_CODES[Primitive.SPDMM]
SPMM_CODE = PRIMITIVE_CODES[Primitive.SPMM]
SKIP_CODE = PRIMITIVE_CODES[Primitive.SKIP]

#: the mappings the Analyzer weighs for a pair, in Algorithm 7's tie-break
#: order (the row order of ``candidate_transform_cycles`` and
#: ``candidate_cycles``): label, primitive code, SpDMM orientation
#: (transposed: the right operand takes BufferU)
CANDIDATES: tuple[tuple[str, int, bool], ...] = (
    ("GEMM", GEMM_CODE, False),
    ("SpDMM", SPDMM_CODE, False),
    ("SpDMM^T", SPDMM_CODE, True),
    ("SPMM", SPMM_CODE, False),
)


def exposed_stream(stream, chunks, consumer):
    """What a double-buffered producer costs the consumer it feeds.

    ``stream`` arrives in ``chunks`` equal pieces, piece t+1 moving while
    the consumer (busy for ``consumer``) works on piece t, so what shows
    is the lead-in (the first piece) plus whatever the stream outlasts the
    consumer by.  Unit-free and elementwise, it prices both pipelines of
    the stack: §VI-B's K2P analysis under a kernel's tasks (cycles) and a
    shard's halo DMA under its Aggregate kernel (seconds; a pair may read
    a remote ``Y`` block only once it has landed).
    """
    return stream / np.maximum(chunks, 1) + np.maximum(stream - consumer, 0.0)


def stage_cycles(*streams, profile=0, double_buffering: bool):
    """A task's cycles before mode switches, elementwise over its streams (compute, DDR, AHM):
    the longest double-buffered, else their sum in the order given plus the profile pass."""
    if double_buffering:
        return functools.reduce(np.maximum, streams)
    return sum(streams[1:], streams[0]) + profile


@dataclass
class CycleReport:
    """Cycle and work accounting of one (or an aggregation of) executions."""

    compute: float = 0.0
    memory: float = 0.0
    transform: float = 0.0
    profile: float = 0.0
    #: exact multiply-accumulate operations performed
    macs: int = 0
    #: bytes moved from/to external memory
    bytes_read: int = 0
    bytes_written: int = 0
    #: execution-mode switches performed
    mode_switches: int = 0
