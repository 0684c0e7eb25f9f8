"""E13 — Table IV / §VI-A: performance-model crossovers, model vs simulator.

Sweeps operand densities over a grid, executes each point with all three
modes on a simulated core, and verifies the §VI-A regions: the mode the
closed-form rule selects is (near-)optimal in *simulated* cycles too, and
the crossovers sit where the analysis puts them (alpha_min = 1/2 for
GEMM/SpDMM, alpha_max = 2/psys for SpDMM/SPMM).
"""

import numpy as np
import scipy.sparse as sp

from _common import Metric, emit, format_table, register_bench
from repro import u250_default
from repro.hw.gemm_unit import gemm_compute_cycles
from repro.hw.report import CODE_ORDER
from repro.hw.spdmm_unit import spdmm_compute_cycles
from repro.hw.spmm_unit import spmm_compute_cycles
from repro.runtime.perf_model import model_cycles_batch, region_primitive_batch

CFG = u250_default()
N = 256  # partition side for the sweep


def rand_density(n, dens, seed):
    rng = np.random.default_rng(seed)
    mat = sp.random(n, n, density=dens, format="csr", dtype=np.float32, rng=rng)
    mat.data[:] = 1.0
    return mat


def simulated_cycles(x, y):
    """Exact simulator cycles of each mode for one operand pair."""
    ax = x.nnz / (N * N)
    ay = y.nnz / (N * N)
    gemm = gemm_compute_cycles(N, N, N, CFG)
    nnz_min = min(x.nnz, y.nnz)
    spdmm = spdmm_compute_cycles(nnz_min, N, CFG)
    spmm, _ = spmm_compute_cycles(x, y, CFG)
    return {"GEMM": gemm, "SpDMM": spdmm, "SPMM": spmm}, ax, ay


def build_table():
    densities = [0.002, 0.01, 0.05, 0.125, 0.3, 0.6, 1.0]
    rows = []
    agreements = 0
    total = 0
    for i, dx in enumerate(densities):
        for dy in densities[i:]:
            x = rand_density(N, dx, seed=int(dx * 1e4))
            y = rand_density(N, dy, seed=int(dy * 1e4) + 1)
            cyc, ax, ay = simulated_cycles(x, y)
            best_sim = min(cyc, key=cyc.get)
            rule = CODE_ORDER[region_primitive_batch(ax, ay, CFG)].value
            total += 1
            # "agreement" = the rule's mode is within 25% of the simulated
            # optimum (ties and ceil effects blur exact argmin)
            ok = cyc[rule] <= 1.25 * cyc[best_sim]
            agreements += ok
            rows.append(
                [f"{ax:.3f}", f"{ay:.3f}", rule, best_sim,
                 f"{cyc['GEMM']}", f"{cyc['SpDMM']}", f"{cyc['SPMM']}",
                 "ok" if ok else "MISS"]
            )
    table = format_table(
        ["alpha_x", "alpha_y", "rule", "sim best", "GEMM cyc", "SpDMM cyc",
         "SPMM cyc", "agree"],
        rows,
        title=(
            "Table IV / SVI-A: region rule vs simulated cycles "
            f"(psys={CFG.psys}, N={N}; crossovers at 0.5 and {2 / CFG.psys})"
        ),
    )
    return table, agreements, total


@register_bench("perfmodel_crossover", tier="full", tags=("model",))
def _spec():
    """Table IV / §VI-A: region rule vs simulated cycles."""
    table, agreements, total = build_table()
    emit("perfmodel_crossover", table)
    assert agreements / total >= 0.85, f"rule optimal in only {agreements}/{total}"
    # Table IV predictions correlate with simulated cycles across modes
    pred, sim = [], []
    for dens in (0.01, 0.05, 0.2, 0.7):
        x = rand_density(N, dens, seed=int(dens * 1e5))
        y = rand_density(N, dens, seed=int(dens * 1e5) + 9)
        cyc, ax, ay = simulated_cycles(x, y)
        pred.extend(model_cycles_batch(N, N, N, ax, ay, CFG))
        sim.extend(cyc[key] for key in ("GEMM", "SpDMM", "SPMM"))
    corr = np.corrcoef(np.log1p(pred), np.log1p(sim))[0, 1]
    assert corr > 0.95, f"model/simulator correlation too low: {corr:.3f}"
    return {
        "agreement_rate": Metric(
            "agreement_rate", agreements / total, "frac", "higher"
        ),
    }
