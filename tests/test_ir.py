"""Tests for the IR: kernels (Table II), graphs, execution schemes."""

import pytest

from repro.ir.graph import ComputationGraph, CycleError
from repro.ir.kernel import Activation, AggOp, KernelIR, KernelType
from repro.ir.scheme import build_scheme
from task_oracle import scheme_tasks


def mk_kernel(kid="k0", ktype=KernelType.UPDATE, fin=8, fout=4, v=32, e=64,
              x="H0", y="W1", out="H1", **kw):
    return KernelIR(
        kernel_id=kid, layer_id=1, ktype=ktype, input_dim=fin, output_dim=fout,
        num_vertices=v, num_edges=e, x_name=x, y_name=y, out_name=out, **kw,
    )


class TestKernelIR:
    def test_table_ii_fields(self):
        k = mk_kernel(agg_op=AggOp.MEAN, activation=Activation.RELU,
                      activation_enabled=True)
        assert k.ktype is KernelType.UPDATE
        assert k.agg_op is AggOp.MEAN
        assert k.workload == 32 * 4
        assert "ReLU" in k.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            mk_kernel(fin=0)
        with pytest.raises(ValueError):
            mk_kernel(v=0)
        with pytest.raises(ValueError):
            mk_kernel(kid="")


class TestComputationGraph:
    def build_chain(self):
        g = ComputationGraph()
        g.add_kernel(mk_kernel("a", x="H0", y="W1", out="T1"))
        g.add_kernel(mk_kernel("b", ktype=KernelType.AGGREGATE, x="A", y="T1", out="H1"))
        g.add_kernel(mk_kernel("c", x="H1", y="W2", out="H_out"))
        g.infer_dependencies()
        return g

    def test_topo_order(self):
        g = self.build_chain()
        order = [k.kernel_id for k in g.topo_order()]
        assert order == ["a", "b", "c"]

    def test_infer_dependencies(self):
        g = self.build_chain()
        assert g.successors("a") == ["b"]
        assert g.predecessors("c") == ["b"]

    def test_duplicate_id_rejected(self):
        g = ComputationGraph()
        g.add_kernel(mk_kernel("a"))
        with pytest.raises(ValueError):
            g.add_kernel(mk_kernel("a"))

    def test_unknown_dependency_rejected(self):
        g = ComputationGraph()
        g.add_kernel(mk_kernel("a"))
        with pytest.raises(KeyError):
            g.add_dependency("a", "nope")

    def test_cycle_detected(self):
        g = ComputationGraph()
        g.add_kernel(mk_kernel("a", x="H1", out="T1"))
        g.add_kernel(mk_kernel("b", x="T1", out="H1"))
        g.add_dependency("a", "b")
        g.add_dependency("b", "a")
        with pytest.raises(CycleError):
            g.topo_order()

    def test_accumulate_into_dependency(self):
        g = ComputationGraph()
        g.add_kernel(mk_kernel("root", out="H1_root"))
        g.add_kernel(mk_kernel("neigh", out="H1", accumulate_into="H1_root"))
        g.infer_dependencies()
        assert g.predecessors("neigh") == ["root"]

    def test_layers_grouping(self):
        g = self.build_chain()
        ids = {k.kernel_id for k in g.layers()[1]}
        assert ids == {k.kernel_id for k in g.kernels()}


class TestExecutionScheme:
    def test_aggregate_scheme_algorithm2(self):
        k = mk_kernel(ktype=KernelType.AGGREGATE, fin=8, fout=8, v=32,
                      x="A", y="H0", out="H1")
        s = build_scheme(k, n1=8, n2=4)
        # T_a = (V/N1) * (f/N2) = 4 * 2 tasks, K = V/N1 = 4 pairs each
        assert s.num_tasks == 8
        assert s.inner_blocks == 4
        assert s.x_blocking == (8, 8)
        assert s.y_blocking == (8, 4)
        assert s.out_blocking == (8, 4)

    def test_update_scheme_algorithm3(self):
        k = mk_kernel(ktype=KernelType.UPDATE, fin=8, fout=4, v=32)
        s = build_scheme(k, n1=8, n2=4)
        # T_u = (V/N2) * (f2/N2) = 8 * 1, K = f1/N2 = 2
        assert s.num_tasks == 8
        assert s.inner_blocks == 2
        assert s.x_blocking == (4, 4)
        assert s.y_blocking == (4, 4)

    def test_ragged_dims_ceil(self):
        k = mk_kernel(ktype=KernelType.AGGREGATE, fin=9, fout=9, v=33,
                      x="A", y="H0")
        s = build_scheme(k, n1=8, n2=4)
        assert s.out_grid == (5, 3)
        assert s.inner_blocks == 5

    def test_tasks_cover_output_grid_exactly_once(self):
        k = mk_kernel(ktype=KernelType.UPDATE, fin=12, fout=8, v=20)
        tasks = scheme_tasks(build_scheme(k, n1=8, n2=4))
        coords = {(t.out_row, t.out_col) for t in tasks}
        assert len(coords) == len(tasks)
        assert coords == {(i, j) for i in range(5) for j in range(2)}

    def test_pairs_index_inner_dimension(self):
        k = mk_kernel(ktype=KernelType.UPDATE, fin=12, fout=4, v=8)
        tasks = scheme_tasks(build_scheme(k, n1=8, n2=4))
        for t in tasks:
            assert [p[0] for p in t.pairs] == [0, 1, 2]

    def test_count_matches_materialisation(self):
        k = mk_kernel(ktype=KernelType.AGGREGATE, fin=16, fout=16, v=64,
                      x="A", y="H0")
        assert build_scheme(k, 8, 8).num_tasks == len(scheme_tasks(build_scheme(k, 8, 8)))
