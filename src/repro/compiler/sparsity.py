"""Compile-time sparsity preprocessing (paper §III-B, step 1-3).

While partitioning the data, the compiler counts nonzeros per partition of
the adjacency matrix, the weight matrices and the *input* feature matrix —
the three operands whose sparsity is known before runtime: step 3 of
:meth:`~repro.compiler.compile.Compiler.compile` builds the partitioned
view of each under the blocking its kernels read, and a matrix's profile
here is that census's total (:func:`profile_of`).  Densities of
intermediate feature matrices are profiled by the accelerator's Sparsity
Profiler during execution.

This module also implements the off-chip storage-format policy: a matrix
(or partition) is stored in COO when that is smaller than dense — the
break-even density is 1/3 (12 bytes per COO nonzero vs. 4 per dense
element).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.formats.density import nnz_count
from repro.formats.partition import SPARSE_STORAGE_THRESHOLD


@dataclass(frozen=True)
class MatrixProfile:
    """Compile-time profile of one matrix in the store."""

    name: str
    shape: tuple[int, int]
    nnz: int
    density: float
    stored_sparse: bool
    stored_bytes: int


def choose_storage_format(density: float) -> bool:
    """True -> store sparse (COO) off-chip; False -> dense."""
    return density < SPARSE_STORAGE_THRESHOLD


def stored_bytes(nnz: int, elements: int, sparse: bool) -> int:
    return 12 * nnz if sparse else 4 * elements


def profile_of(name: str, shape: tuple[int, int], nnz: int) -> MatrixProfile:
    """The profile a nonzero count implies: density, off-chip format and
    stored bytes all follow from ``(shape, nnz)``."""
    elements = shape[0] * shape[1]
    dens = nnz / elements if elements else 0.0
    sparse = choose_storage_format(dens)
    return MatrixProfile(
        name=name,
        shape=tuple(shape),
        nnz=nnz,
        density=dens,
        stored_sparse=sparse,
        stored_bytes=stored_bytes(nnz, elements, sparse),
    )


def profile_matrix(name: str, mat) -> MatrixProfile:
    """Profile a matrix by one global count of its nonzeros.  The compiler
    does not call this: it reads the total off the per-partition census
    (:meth:`~repro.compiler.compile.Compiler.compile`, step 3)."""
    return profile_of(name, mat.shape, nnz_count(mat))


def update_profile(profile: MatrixProfile, nnz_delta: int) -> MatrixProfile:
    """Re-profile a mutated matrix in O(1) from its structural nnz delta.

    The dyngraph hot path: instead of re-scanning the matrix, the new
    density and off-chip storage format are derived from the old profile
    plus the number of population changes (inserts minus removals).
    Exact by construction — the delta comes from the mutation log, not
    an estimate — so the result is bit-identical to a from-scratch
    re-profile.
    """
    nnz = profile.nnz + int(nnz_delta)
    elements = profile.shape[0] * profile.shape[1]
    if nnz < 0 or nnz > elements:
        raise ValueError(
            f"nnz delta {nnz_delta} drives {profile.name!r} out of range "
            f"(nnz {profile.nnz} -> {nnz} of {elements})"
        )
    return profile_of(profile.name, profile.shape, nnz)
