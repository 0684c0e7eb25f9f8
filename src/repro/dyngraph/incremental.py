"""What a graph delta changes in a preprocessed adjacency operand.

A structural edge change at ``(i, j)`` perturbs the degrees of vertices
``i`` and ``j``, and the normalised adjacency operands the compiler
stores (:mod:`repro.gnn.adjacency`) fold degrees into their values:
``A_norm`` entries depend on both endpoint degrees, ``A_mean`` entries
on the row degree, ``A_gin`` entries on nothing.

**Structure** is the part worth maintaining incrementally: edge weights
are positive and the identity is folded into ``A_norm``/``A_gin``, so
every variant's sparsity structure tracks the structure of ``A`` (plus
an ever-present diagonal).  Per-block nnz grids and matrix profiles
therefore update in O(delta) straight from the applied delta
(:func:`variant_structural_delta`,
:meth:`~repro.formats.partition.PartitionedMatrix.from_patched`,
:func:`~repro.compiler.sparsity.update_profile`) — no re-scan.

**Values** are the part *not* worth splicing: a degree change rescales a
whole row and a whole column, so re-scaling every stored value is cheaper
than finding which values moved.  That is what the builders of
:mod:`repro.gnn.adjacency` do for a compile as well (two vectorised
multiplies over the mutated adjacency's own index structure, no sparse
product), so a patch calls the same ``ADJACENCY_BUILDERS[name]`` a
compile calls and a patched operand is a rebuilt one.
"""

from __future__ import annotations

import numpy as np

from repro.dyngraph.delta import AppliedDelta


def variant_structural_delta(
    name: str, applied: AppliedDelta
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Structural (population-flip) coordinates of one adjacency variant.

    For variants with the identity folded in (``A_norm``, ``A_gin``) the
    diagonal is populated regardless of ``A``'s diagonal, so diagonal
    edge deletes are value changes, not structural ones.
    """
    ar, ac = applied.a_added_rows, applied.a_added_cols
    rr, rc = applied.a_removed_rows, applied.a_removed_cols
    if name in ("A_norm", "A_gin"):
        keep_a = ar != ac
        keep_r = rr != rc
        return ar[keep_a], ac[keep_a], rr[keep_r], rc[keep_r]
    if name == "A_mean":
        return ar, ac, rr, rc
    raise KeyError(f"unknown adjacency variant {name!r}")
