"""Shared fixtures: tiny configurations, graphs and compiled programs.

Unit tests run against :func:`repro.config.small_test_config` (psys=4,
2 cores, small buffers, no partition floor pressure) so the faithful
element-level simulators stay fast; integration tests use scaled-down
versions of the Table VI datasets.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import scipy.sparse as sp

from repro.config import AcceleratorConfig, BufferConfig, u250_default
from repro.compiler import Compiler
from repro.datasets import load_dataset
from repro.engine import Engine
from repro.gnn import build_model, init_weights


def make_tiny_config(**overrides) -> AcceleratorConfig:
    """psys=4, 2 cores, min partition 8 — exercises ragged edges fast."""
    base = dict(
        psys=4,
        num_cores=2,
        buffers=BufferConfig(words_per_buffer=64 * 1024),
        max_partition_dim=64,
        min_partition_dim=8,
    )
    base.update(overrides)
    return AcceleratorConfig(**base)


@pytest.fixture(scope="session")
def tiny_config() -> AcceleratorConfig:
    return make_tiny_config()


@pytest.fixture(scope="session")
def u250_config() -> AcceleratorConfig:
    return u250_default()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_sparse(m, n, density, seed=0, zero_rows=False):
    """Random float32 CSR with approximately the given density."""
    rs = np.random.default_rng(seed)
    mat = sp.random(
        m, n, density=density, format="csr", dtype=np.float32, rng=rs
    )
    mat.data = rs.uniform(0.5, 1.5, size=mat.data.shape).astype(np.float32)
    if zero_rows and m > 2:
        lil = mat.tolil()
        lil[m // 2] = 0
        mat = lil.tocsr()
    return mat


def reassemble_from_blocks(pm) -> np.ndarray:
    """Rebuild a ``PartitionedMatrix``'s full matrix from its blocks (the
    round-trip check of a split)."""
    out = np.zeros(pm.shape, dtype=np.float32)
    for i in range(pm.num_row_blocks):
        for j in range(pm.num_col_blocks):
            r0, c0 = i * pm.block_rows, j * pm.block_cols
            blk = pm.dense_block(i, j)
            out[r0 : r0 + blk.shape[0], c0 : c0 + blk.shape[1]] = blk
    return out


def formula_adjacency(name: str, a: sp.csr_matrix) -> sp.csr_matrix:
    """One adjacency variant of canonical float32 CSR ``a`` by its literal
    formula, SciPy's sparse products included: ``diags(d) @ (A + I) @
    diags(d)``, ``diags(1 / deg) @ A``, ``A + I``.  The oracle the
    builders of ``repro.gnn.adjacency`` (which multiply no matrices) are
    held to, bit for bit."""
    identity = sp.identity(a.shape[0], dtype=np.float32, format="csr")
    with np.errstate(divide="ignore"):
        if name == "A_norm":
            a_hat = (a + identity).tocsr()
            deg = np.asarray(a_hat.sum(axis=1)).ravel()
            d = sp.diags(np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0).astype(np.float32))
            out = d @ a_hat @ d
        elif name == "A_mean":
            deg = np.asarray(a.sum(axis=1)).ravel()
            out = sp.diags(np.where(deg > 0, 1.0 / deg, 0.0).astype(np.float32)) @ a
        else:
            out = a + identity
    out = out.tocsr().astype(np.float32)
    out.sort_indices()
    return out


@pytest.fixture(scope="session")
def tiny_graph():
    """A 60-vertex graph with 40-dim sparse features."""
    a = random_sparse(60, 60, 0.05, seed=7)
    a.setdiag(0)
    a.eliminate_zeros()
    h0 = random_sparse(60, 40, 0.15, seed=8)
    return a, h0


@pytest.fixture(scope="session")
def tiny_dataset():
    """A scaled-down Cora instance used by integration tests."""
    return load_dataset("CO", scale=0.15, seed=3)


@pytest.fixture(scope="session")
def tiny_gcn_program(tiny_dataset, tiny_config):
    data = tiny_dataset
    model = build_model("GCN", data.num_features, data.hidden_dim, data.num_classes)
    weights = init_weights(model, seed=11)
    program = Compiler(tiny_config).compile(model, data, weights)
    return program, model, weights


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Every call of the one task loop, as ``(kernel id, devices, tasks
    of each)``: a recorder substituted for the kernel driver's
    module-level loop."""
    import repro.runtime.executor as executor_mod

    seen = []
    original = executor_mod.execute_kernel_tasks

    def recorder(kernel, *args, **kw):
        lanes = original(kernel, *args, **kw)
        devices = [acc for acc, _, _ in args[6]]
        seen.append((kernel.kernel_id, devices, [st.num_tasks for st in lanes]))
        return lanes

    monkeypatch.setattr(executor_mod, "execute_kernel_tasks", recorder)
    return seen


def serving(config=None, *, pool_size: int = 1, **knobs) -> tuple:
    """A fresh engine and its sweeps: ``(engine, serve)``, where
    ``serve(requests)`` is ``engine.serve(requests, **knobs)`` (the knobs
    stay readable as ``serve.keywords``)."""
    engine = Engine(config, pool_size=pool_size)
    return engine, functools.partial(engine.serve, **knobs)


def cold_then_warm(workload, pools=(1, 2)) -> dict:
    """Pool size -> (cold, warm) report: a fresh U250 engine per pool size
    serves ``workload`` twice (the second sweep finds every program
    cached)."""
    sweeps = {}
    for n in pools:
        engine = Engine(pool_size=n)
        sweeps[n] = tuple(engine.serve(workload, return_outputs=False) for _ in range(2))
    return sweeps


def comparison_json(rate_rps: float, sweeps: dict) -> dict:
    """A cold/warm pool comparison as its JSON was recorded: every sweep's
    report, then the largest pool's warm throughput over the smallest's."""
    top = max(sweeps)
    return {
        "arrival_rate_rps": rate_rps,
        "pool_size": top,
        "sweeps": {f"{temperature}_pool{n}": report.to_dict()
                   for n, reports in sweeps.items()
                   for temperature, report in zip(("cold", "warm"), reports)},
        "throughput_scaling": (sweeps[top][1].throughput_rps
                               / sweeps[min(sweeps)][1].throughput_rps),
    }
