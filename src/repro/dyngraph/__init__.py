"""Streaming graph mutations with incremental re-profiling (`repro.dyngraph`).

Dynasparse's premise is that sparsity is a runtime quantity: the
accelerator re-analyses operand densities and re-maps kernels to
primitives on every run.  This subsystem extends that premise to the
*data*: graphs evolve (edge inserts/deletes, feature updates) and the
compiled-program state follows along incrementally instead of being
recompiled from scratch —

- :mod:`repro.dyngraph.delta` — batched mutation requests
  (:class:`GraphDelta`) and their exact effects (:class:`AppliedDelta`);
- :mod:`repro.dyngraph.mutable` — :class:`MutableGraph`, versioned
  immutable snapshots under mutation with a change log;
- :mod:`repro.dyngraph.incremental` — which coordinates of a normalised
  adjacency operand a delta flips (its values are rebuilt by the
  compiler's own builders, :mod:`repro.gnn.adjacency`);
- :mod:`repro.dyngraph.patcher` — :class:`ProgramPatcher`: O(delta)
  patching of compiled programs (profiles, partitioned views, dirty-block
  K2P re-analysis) with a recompile fallback policy.

Quickstart::

    from repro.dyngraph import GraphDelta, MutableGraph, ProgramPatcher

    graph = MutableGraph(load_dataset("CO"))
    program = Compiler().compile(model, graph.snapshot(), weights)
    applied = graph.apply(GraphDelta.edges(inserts=[(0, 5)], deletes=[(1, 2)]))
    program, report = ProgramPatcher().patch(program, graph.snapshot(), applied)
"""

from repro.dyngraph.delta import AppliedDelta, GraphDelta, random_delta
from repro.dyngraph.incremental import variant_structural_delta
from repro.dyngraph.mutable import MutableGraph
from repro.dyngraph.patcher import PatchReport, ProgramPatcher

__all__ = [
    "AppliedDelta",
    "GraphDelta",
    "MutableGraph",
    "PatchReport",
    "ProgramPatcher",
    "random_delta",
    "variant_structural_delta",
]
