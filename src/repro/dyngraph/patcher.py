"""Patch a :class:`~repro.compiler.compile.CompiledProgram` for a graph delta.

Full recompilation re-runs the paper's whole preprocessing pipeline:
parse + adjacency preprocessing, partitioning, per-matrix profiling —
and discards every cached partitioned view, whose per-block nnz grids
the runtime then rebuilds with an O(nnz) scan per operand.  For a small
delta almost all of that work reproduces bytes that did not change.

:class:`ProgramPatcher` instead produces a **new** program (the old one
stays valid — cached responses and in-flight batches may still reference
it) by:

1. re-deriving the IR graph and execution schemes (cheap, pure Python:
   the compiler's own :meth:`~repro.compiler.compile.Compiler.lower`),
   which is also the **staleness check**: if Algorithm 9 now chooses
   different ``(N1, N2)`` partition sizes, or the delta changes more
   than ``MAX_EDGE_FRACTION`` of the edges, it falls back to a full
   recompile;
2. rebuilding the stored adjacency operands with the compiler's own
   builders (:mod:`repro.gnn.adjacency`: two multiplies over the mutated
   adjacency's index structure);
3. updating matrix profiles in O(1) from the structural nnz delta
   (:func:`repro.compiler.sparsity.update_profile`);
4. patching every cached partitioned view's nnz grid in O(delta +
   dirty blocks) via
   :meth:`~repro.formats.partition.PartitionedMatrix.from_patched`;
5. re-running the Analyzer's K2P decision for the *dirty blocks only*,
   reporting how many block mappings flipped primitive — the paper's
   dynamic kernel-to-primitive remapping, triggered by data churn
   instead of a new dataset.

Patched programs keep their ancestor's ``timings`` (the measured cost a
recompile would have paid), which is what the serve cache's saved-time
accounting charges on hits; the patch's own wall-clock cost is measured
and returned in the :class:`PatchReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.compiler.compile import CompiledProgram, Compiler
from repro.compiler.sparsity import update_profile
from repro.datasets.catalog import GraphData
from repro.dyngraph.delta import AppliedDelta
from repro.dyngraph.incremental import variant_structural_delta
from repro.formats.partition import PartitionedMatrix
from repro.gnn.adjacency import ADJACENCY_BUILDERS
from repro.runtime.perf_model import PairBatch
from repro.runtime.strategies import DynamicMapping


#: structural edge changes / nnz(A) beyond which patching is a false
#: economy (the splice pass approaches a rebuild's cost and density drift
#: makes most blocks dirty anyway): such a delta recompiles
MAX_EDGE_FRACTION = 0.02


@dataclass(frozen=True)
class PatchReport:
    """What one patch did and what it cost."""

    patched: bool
    #: empty when patched; the fallback trigger otherwise
    reason: str
    #: measured wall-clock seconds of the patch (or of the fallback compile)
    wall_s: float
    version_from: int
    version_to: int
    a_nnz_delta: int
    h_nnz_delta: int
    #: dirty (density-changed) blocks across all patched views
    dirty_blocks: int = 0
    #: K2P pair decisions re-run for dirty blocks (Analyzer, dirty only)
    reanalyzed_pairs: int = 0
    #: re-run decisions that chose a different primitive than before
    decision_flips: int = 0

    @classmethod
    def since(cls, t0: float, applied: AppliedDelta, **outcome) -> "PatchReport":
        """The report of a patch or fallback started at ``perf_counter``
        reading ``t0``: the delta's own numbers plus ``outcome``."""
        return cls(
            wall_s=time.perf_counter() - t0,
            version_from=applied.version_from,
            version_to=applied.version_to,
            a_nnz_delta=applied.a_nnz_delta,
            h_nnz_delta=applied.h_nnz_delta,
            **outcome,
        )


class ProgramPatcher:
    """Keeps compiled programs valid under graph mutation."""

    def patch(
        self,
        program: CompiledProgram,
        new_data: GraphData,
        applied: AppliedDelta,
    ) -> tuple[CompiledProgram, PatchReport]:
        """Patched (or, on fallback, recompiled) program for the mutated
        graph, plus the report.  ``program`` itself is never modified."""
        t0 = time.perf_counter()
        nnz_old = int(new_data.a.nnz) - applied.a_nnz_delta
        churn = applied.num_structural_edge_changes / max(nnz_old, 1)
        if churn > MAX_EDGE_FRACTION:
            return self.recompile(
                program, new_data, applied,
                reason=f"edge churn {churn:.2%} exceeds "
                       f"{MAX_EDGE_FRACTION:.2%}",
            )

        # -- staleness check: would Algorithm 9 still pick (N1, N2)? ----
        graph, n1, n2 = Compiler(program.config).lower(
            program.model, new_data.meta()
        )
        if (n1, n2) != (program.n1, program.n2):
            return self.recompile(
                program, new_data, applied,
                reason=f"partition sizes stale: "
                       f"({program.n1}, {program.n2}) -> ({n1}, {n2})",
            )

        # -- rebuild operands, patch profiles and views -----------------
        store = dict(program.store)
        profiles = dict(program.profiles)
        views = dict(program._views)
        dirty_by_view: dict[tuple, object] = {}

        def patch_matrix(name, new_matrix, ar, ac, rr, rc):
            store[name] = new_matrix
            profiles[name] = update_profile(
                profiles[name], int(ar.size) - int(rr.size)
            )
            for key in [k for k in views if k[0] == name]:
                views[key], dirty = PartitionedMatrix.from_patched(
                    views[key], new_matrix, ar, ac, rr, rc
                )
                dirty_by_view[key] = dirty

        if applied.touches_adjacency:
            for name in sorted(program.model.adjacency_names()):
                patch_matrix(
                    name,
                    ADJACENCY_BUILDERS[name](new_data.a),
                    *variant_structural_delta(name, applied),
                )
        if applied.touches_features:
            patch_matrix("H0", new_data.h0, *applied.h_structural())

        # executions recorded on the ancestor are not the patched program's
        patched = replace(
            program, data_name=new_data.name, graph=graph, store=store,
            profiles=profiles, _views=views, _runs={},
        )
        reanalyzed, flips = self._reanalyze(
            program, graph.topo_order(), views, profiles, dirty_by_view
        )
        return patched, PatchReport.since(
            t0, applied, patched=True, reason="",
            dirty_blocks=sum(len(d) for d in dirty_by_view.values()),
            reanalyzed_pairs=reanalyzed, decision_flips=flips,
        )

    def recompile(
        self,
        program: CompiledProgram,
        new_data: GraphData,
        applied: AppliedDelta,
        *,
        reason: str,
    ) -> tuple[CompiledProgram, PatchReport]:
        """The fallback: a full compile of ``program``'s model, with its
        weights, on the mutated graph; ``reason`` says why no patch."""
        t0 = time.perf_counter()
        weights = {
            name: program.store[name] for name in program.model.weight_shapes()
        }
        fresh = Compiler(program.config).compile(program.model, new_data, weights)
        return fresh, PatchReport.since(t0, applied, patched=False, reason=reason)

    # -- internals -------------------------------------------------------
    def _reanalyze(
        self, program: CompiledProgram, kernels, views: dict, profiles: dict,
        dirty_by_view: dict,
    ) -> tuple[int, int]:
        """Algorithm 7 for dirty blocks only: count re-decisions and flips.

        The runtime re-decides every pair each run anyway (the paper's
        dynamic mapping); this quantifies how much of the K2P table the
        delta moved: each dirty block of a patched left operand against the
        compiler's census of every right block it meets, priced as a task
        of its own in a kernel that dispatches its whole grid (balanced
        rows, the patched program's formats), old census and new in one
        batch a kernel."""
        analyzer = DynamicMapping(program.config)
        reanalyzed = flips = 0
        for kernel in kernels:
            scheme = kernel.exec_scheme
            xkey = (kernel.x_name, *scheme.x_blocking)
            dirty = dirty_by_view.get(xkey)
            if dirty is None or not len(dirty):
                continue
            y_view = views.get((kernel.y_name, *scheme.y_blocking))
            if y_view is None:
                continue  # runtime-profiled intermediate: nothing known
            width, new_x = y_view.num_col_blocks, views[xkey]
            half = len(dirty) * width
            pair = np.arange(2 * half) % half  # old census, then new
            (i, j), k = dirty[pair // width].T, pair % width
            x_nnz = new_x.nnz_grid[i, j]
            x_nnz[:half] = program._views[xkey].nnz_grid[i[:half], j[:half]]
            codes, _, _ = analyzer.decide_batch(kernel, PairBatch(
                m=new_x.row_block_sizes[i], n=new_x.col_block_sizes[j],
                d=y_view.col_block_sizes[k], x_nnz=x_nnz, y_nnz=y_view.nnz_grid[j, k],
                x_stored_sparse=profiles[kernel.x_name].stored_sparse,
                y_stored_sparse=profiles[kernel.y_name].stored_sparse,
                task=np.arange(2 * half), num_tasks=scheme.num_tasks, seeded=True,
            ))
            reanalyzed += half
            flips += int(np.count_nonzero(codes[:half] != codes[half:]))
        return reanalyzed, flips
