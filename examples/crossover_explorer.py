#!/usr/bin/env python
"""Performance-model explorer: where GEMM / SpDMM / SPMM win (§VI-A).

Evaluates the Table IV analytical model over a density grid and prints
the optimal-primitive map with its closed-form region boundaries
(alpha_min = 1/2 and alpha_max = 2/psys), then cross-checks a few points
against the cycle-exact simulator units.
"""

import numpy as np
import scipy.sparse as sp

from repro import u250_default
from repro.hw.gemm_unit import gemm_compute_cycles
from repro.hw.report import CODE_ORDER
from repro.hw.spdmm_unit import spdmm_compute_cycles
from repro.hw.spmm_unit import spmm_compute_cycles
from repro.runtime.perf_model import region_primitive_batch, region_thresholds

CFG = u250_default()
GLYPH = {"GEMM": "G", "SpDMM": "D", "SPMM": "S"}


def main() -> None:
    gemm_from, spdmm_from = region_thresholds(CFG)
    print(f"psys = {CFG.psys}; crossovers: GEMM from alpha_min = {gemm_from}, "
          f"SpDMM over SPMM from alpha_max = {spdmm_from}\n")

    densities = np.geomspace(0.002, 1.0, 24)
    print("optimal primitive over (alpha_x [rows], alpha_y [cols]); "
          "G=GEMM D=SpDMM S=SPMM")
    header = "        " + "".join(f"{d:>5.2f}"[-5:] for d in densities[::4])
    print(header)
    for ax in densities:
        line = "".join(
            GLYPH[CODE_ORDER[code].value]
            for code in region_primitive_batch(ax, densities, CFG)
        )
        print(f"ax={ax:5.3f} {line}")

    print("\ncycle-exact cross-check at N=256 partitions:")
    n = 256
    rng = np.random.default_rng(0)
    for ax, ay in [(0.8, 0.9), (0.02, 0.9), (0.02, 0.05)]:
        x = sp.random(n, n, density=ax, format="csr", dtype=np.float32, rng=rng)
        y = sp.random(n, n, density=ay, format="csr", dtype=np.float32, rng=rng)
        gemm = gemm_compute_cycles(n, n, n, CFG)
        spdmm = spdmm_compute_cycles(min(x.nnz, y.nnz), n, CFG)
        spmm, _ = spmm_compute_cycles(x, y, CFG)
        best = min(("GEMM", gemm), ("SpDMM", spdmm), ("SPMM", spmm),
                   key=lambda t: t[1])
        rule = CODE_ORDER[region_primitive_batch(ax, ay, CFG)].value
        print(f"  a=({ax:.2f},{ay:.2f}): GEMM={gemm:>7} SpDMM={spdmm:>7} "
              f"SPMM={spmm:>7} | simulator best={best[0]:<6} rule={rule}")


if __name__ == "__main__":
    main()
