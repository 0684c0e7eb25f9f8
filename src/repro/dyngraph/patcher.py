"""Patch a :class:`~repro.compiler.compile.CompiledProgram` for a graph delta.

Full recompilation re-runs the paper's whole preprocessing pipeline:
parse + adjacency preprocessing, partitioning, per-matrix profiling —
and discards every cached partitioned view, whose per-block nnz grids
the runtime then rebuilds with an O(nnz) scan per operand.  For a small
delta almost all of that work reproduces bytes that did not change.

:class:`ProgramPatcher` instead produces a **new** program (the old one
stays valid — cached responses and in-flight batches may still reference
it) by:

1. re-deriving the IR graph and execution schemes (cheap, pure Python)
   after a **staleness check**: if Algorithm 9 would now choose different
   ``(N1, N2)`` partition sizes, or the delta exceeds the policy's churn
   budget, it falls back to a full recompile;
2. splicing touched rows/columns into the stored adjacency operands
   (:mod:`repro.dyngraph.incremental`) — bit-identical to rebuilding;
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
from dataclasses import dataclass

import numpy as np

from repro.compiler.compile import CompiledProgram, Compiler
from repro.compiler.parser import parse_model
from repro.compiler.partitioner import choose_partition_sizes
from repro.compiler.sparsity import update_profile
from repro.datasets.catalog import GraphData
from repro.dyngraph.delta import AppliedDelta
from repro.dyngraph.incremental import patch_variant, variant_structural_delta
from repro.formats.partition import PartitionedMatrix
from repro.ir.scheme import build_scheme
from repro.runtime.analyzer import Analyzer


@dataclass(frozen=True)
class PatchPolicy:
    """When to patch and when to give up and recompile."""

    #: structural edge changes / nnz(A) beyond which patching is a false
    #: economy (the splice pass approaches a rebuild's cost and density
    #: drift makes most blocks dirty anyway)
    max_edge_fraction: float = 0.02
    #: re-run Algorithm 9 on the mutated metadata and recompile when the
    #: chosen (N1, N2) partition sizes went stale
    recheck_partition: bool = True


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
    dirty_blocks: int
    #: K2P pair decisions re-run for dirty blocks (Analyzer, dirty only)
    reanalyzed_pairs: int
    #: re-run decisions that chose a different primitive than before
    decision_flips: int


class ProgramPatcher:
    """Keeps compiled programs valid under graph mutation."""

    def __init__(self, policy: PatchPolicy | None = None) -> None:
        self.policy = policy or PatchPolicy()

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
        if churn > self.policy.max_edge_fraction:
            return self.recompile(
                program, new_data, applied,
                reason=f"edge churn {churn:.2%} exceeds policy "
                       f"{self.policy.max_edge_fraction:.2%}",
            )

        # -- staleness check: would Algorithm 9 still pick (N1, N2)? ----
        graph = parse_model(program.model, new_data.meta())
        kernels = graph.topo_order()
        if self.policy.recheck_partition:
            n1, n2 = choose_partition_sizes(kernels, program.config)
            if (n1, n2) != (program.n1, program.n2):
                return self.recompile(
                    program, new_data, applied,
                    reason=f"partition sizes stale: "
                           f"({program.n1}, {program.n2}) -> ({n1}, {n2})",
                )
        for kernel in kernels:
            kernel.exec_scheme = build_scheme(kernel, program.n1, program.n2)

        # -- splice operands, patch profiles and views ------------------
        store = dict(program.store)
        profiles = dict(program.profiles)
        stored_sparse = dict(program.stored_sparse)
        views = dict(program._views)
        dirty_by_view: dict[tuple, object] = {}

        def patch_matrix(name, new_matrix, ar, ac, rr, rc):
            store[name] = new_matrix
            profiles[name] = update_profile(
                profiles[name], int(ar.size) - int(rr.size)
            )
            stored_sparse[name] = profiles[name].stored_sparse
            for key in [k for k in views if k[0] == name]:
                views[key], dirty = PartitionedMatrix.from_patched(
                    views[key], new_matrix, ar, ac, rr, rc
                )
                dirty_by_view[key] = dirty

        if applied.touches_adjacency:
            for name in sorted(program.model.adjacency_names()):
                new_variant = patch_variant(name, new_data.a)
                patch_matrix(
                    name, new_variant, *variant_structural_delta(name, applied)
                )
        if applied.touches_features:
            patch_matrix("H0", new_data.h0, *applied.h_structural())

        reanalyzed, flips = self._reanalyze(
            program, kernels, views, dirty_by_view
        )

        patched = CompiledProgram(
            model=program.model,
            data_name=new_data.name,
            graph=graph,
            n1=program.n1,
            n2=program.n2,
            store=store,
            stored_sparse=stored_sparse,
            profiles=profiles,
            timings=program.timings,
            config=program.config,
            output_name=program.output_name,
            compile_time_profiled=frozenset(store),
            _views=views,
        )
        dirty_blocks = sum(len(d) for d in dirty_by_view.values())
        report = PatchReport(
            patched=True,
            reason="",
            wall_s=time.perf_counter() - t0,
            version_from=applied.version_from,
            version_to=applied.version_to,
            a_nnz_delta=applied.a_nnz_delta,
            h_nnz_delta=applied.h_nnz_delta,
            dirty_blocks=dirty_blocks,
            reanalyzed_pairs=reanalyzed,
            decision_flips=flips,
        )
        return patched, report

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
        report = PatchReport(
            patched=False,
            reason=reason,
            wall_s=time.perf_counter() - t0,
            version_from=applied.version_from,
            version_to=applied.version_to,
            a_nnz_delta=applied.a_nnz_delta,
            h_nnz_delta=applied.h_nnz_delta,
            dirty_blocks=0,
            reanalyzed_pairs=0,
            decision_flips=0,
        )
        return fresh, report

    # -- internals -------------------------------------------------------
    def _reanalyze(
        self,
        program: CompiledProgram,
        kernels,
        views: dict,
        dirty_by_view: dict,
    ) -> tuple[int, int]:
        """Algorithm 7 for dirty blocks only: count re-decisions and flips.

        The runtime re-decides every pair each run anyway (that is the
        paper's dynamic mapping); this pass quantifies how much of the
        K2P table the delta actually moved, per patched left operand,
        against the compile-time-known right operand densities.
        """
        analyzer = Analyzer(program.config)
        reanalyzed = flips = 0
        for kernel in kernels:
            scheme = kernel.exec_scheme
            xkey = (kernel.x_name, *scheme.x_blocking)
            dirty = dirty_by_view.get(xkey)
            if dirty is None or not len(dirty):
                continue
            old_x = program._views[xkey]
            new_x = views[xkey]
            ykey = (kernel.y_name, *scheme.y_blocking)
            y_view = views.get(ykey) or program._views.get(ykey)
            bi, bj = dirty[:, 0], dirty[:, 1]
            if y_view is not None:
                ay = y_view.density_grid[bj]
            elif kernel.y_name in program.profiles:
                # no cached blocked view: use the operand's global density
                num_k = max(1, -(-kernel.output_dim // scheme.y_blocking[1]))
                ay = np.full(
                    (len(dirty), num_k), program.profiles[kernel.y_name].density
                )
            else:
                continue  # runtime-profiled intermediate: nothing known
            # the decision depends on densities, not on block dimensions
            old_codes, _ = analyzer.decide_batch(
                np.broadcast_to(old_x.density_grid[bi, bj][:, None], ay.shape), ay
            )
            new_codes, _ = analyzer.decide_batch(
                np.broadcast_to(new_x.density_grid[bi, bj][:, None], ay.shape), ay
            )
            reanalyzed += ay.size
            flips += int(np.count_nonzero(old_codes != new_codes))
        return reanalyzed, flips
