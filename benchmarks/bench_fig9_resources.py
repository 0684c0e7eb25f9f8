"""E12 — Fig. 9: FPGA resource utilisation of the proposed design.

Regenerates the resource table (soft processor / per-CC / shell / totals
vs U250 availability) from the architecture parameters and checks the
published utilisation percentages.
"""

from _common import Metric, emit, register_bench
from repro import estimate_resources, u250_default


@register_bench("fig9_resources", tier=("smoke", "full"), tags=("paper", "figure"))
def _spec():
    """Fig. 9: FPGA resource utilisation (analytical, machine-independent)."""
    report = estimate_resources(u250_default())
    emit("fig9_resources", report.format_table())
    assert report.fits
    util = report.utilization
    # paper: 58.6% LUTs, 58.4% DSPs, 42.6% BRAMs, 87.5% URAMs
    for unit, paper, slack in (("LUT", 0.586, 0.02), ("DSP", 0.584, 0.01),
                               ("BRAM", 0.426, 0.02), ("URAM", 0.875, 0.01)):
        assert abs(util[unit] - paper) <= slack, (unit, util[unit], paper)
    # resource scaling across psys shows why the paper stops at 16: 7 CCs
    # at psys = 32 exceed the U250
    fits = {p: estimate_resources(u250_default().replace(psys=p)).fits
            for p in (8, 16, 32)}
    assert fits == {8: True, 16: True, 32: False}, fits
    return {
        "lut_util": Metric("lut_util", util["LUT"], "frac"),
        "dsp_util": Metric("dsp_util", util["DSP"], "frac"),
        "uram_util": Metric("uram_util", util["URAM"], "frac"),
    }
