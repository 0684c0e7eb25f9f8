"""The shard scaling sweep: one program at width 1, 2, ... N.

Shared by ``repro shard-bench`` and the ``sharded_scaling`` bench specs:
run a compiled program once per width through the one driver (width 1,
the single device, first), and report modelled latency, speedup, halo
traffic and shard balance beside the one property sharding must never
lose — the output is bit-identical to the single-device run at every
width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.compile import CompiledProgram
from repro.harness import format_table, sci, speedup_fmt
from repro.runtime.executor import InferenceResult, run_strategy
from repro.shard.planner import plan_shards

__all__ = ["ShardSweep", "shard_scaling_sweep"]


@dataclass
class ShardSweep:
    """One run per width, the single device first."""

    #: width -> the run, ascending from 1
    runs: dict[int, InferenceResult]
    #: width -> is the output bit-identical to the width-1 run's
    bit_exact: dict[int, bool]

    @property
    def mismatches(self) -> list[int]:
        """Widths whose output diverged (empty = all exact)."""
        return [n for n, exact in self.bit_exact.items() if not exact]

    def format_report(self) -> str:
        single = self.runs[1]
        rows = [
            [
                n, sci(r.latency_ms), speedup_fmt(r.speedup_vs(single)),
                f"{r.halo_bytes:,}", f"{r.halo_fraction * 100:.1f}%",
                f"{r.load_balance():.3f}" if n > 1 else "-",
                "yes" if self.bit_exact[n] else "NO",
            ]
            for n, r in self.runs.items()
        ]
        report = format_table(
            ["shards", "latency (ms)", "speedup", "halo bytes", "halo %",
             "balance", "bit-exact"],
            rows,
            title=f"{single.model_name} on {single.data_name}, strategy "
                  f"{single.strategy_name}: sharded scaling vs single "
                  f"device (modelled)",
        )
        if self.mismatches:
            report += (
                f"\n\nFAIL: sharded output diverges from the single-device "
                f"run at shard count(s) {self.mismatches}"
            )
        return report

    def to_dict(self) -> dict:
        """JSON-serialisable summary (``repro shard-bench --json``)."""
        single = self.runs[1]
        return {
            "single_device": single.to_dict(),
            "sweeps": [
                dict(r.to_dict(), speedup=r.speedup_vs(single),
                     bit_exact=self.bit_exact[n])
                for n, r in self.runs.items() if n > 1
            ],
            "mismatched_shard_counts": self.mismatches,
        }


def shard_scaling_sweep(
    program: CompiledProgram,
    shard_counts=(2, 4),
    *,
    strategy: str = "Dynamic",
) -> ShardSweep:
    """Run ``program`` at width 1 and at each of ``shard_counts`` (each
    width on its own fresh devices)."""
    if not shard_counts:
        raise ValueError("shard_counts must name at least one shard count")
    runs = {
        n: run_strategy(program, strategy, plan=plan_shards(program, n))
        for n in sorted({1, *shard_counts})
    }
    reference = runs[1].output_dense()
    return ShardSweep(
        runs=runs,
        bit_exact={
            n: bool(np.array_equal(r.output_dense(), reference))
            for n, r in runs.items()
        },
    )
