"""The shard scaling sweep: one program on one device, then on N.

Shared by ``repro shard-bench`` and ``benchmarks/bench_sharded_scaling.py``:
run a compiled program single-device, then once per shard count, and
report modelled latency, speedup, halo traffic and shard balance beside
the one property sharding must never lose — the output is bit-identical
to the single-device run at every shard count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.compile import CompiledProgram
from repro.harness import format_table, sci, speedup_fmt
from repro.runtime.executor import InferenceResult, run_strategy
from repro.shard.executor import ShardedResult, run_sharded

__all__ = ["ShardSweep", "shard_scaling_sweep"]


@dataclass
class ShardSweep:
    """A single-device run and one sharded run per shard count."""

    single: InferenceResult
    #: shard count -> the sharded run, ascending
    runs: dict[int, ShardedResult]
    #: shard count -> is the output bit-identical to ``single``'s
    bit_exact: dict[int, bool]

    @property
    def mismatches(self) -> list[int]:
        """Shard counts whose output diverged (empty = all exact)."""
        return [n for n, exact in self.bit_exact.items() if not exact]

    def format_report(self) -> str:
        single = self.single
        rows = [["1", sci(single.latency_ms), "1.00x", "0", "0.0%", "-", "yes"]]
        rows += [
            [
                n, sci(r.latency_ms), speedup_fmt(r.speedup_vs(single)),
                f"{r.halo_bytes:,}", f"{r.halo_fraction * 100:.1f}%",
                f"{r.load_balance():.3f}", "yes" if self.bit_exact[n] else "NO",
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
        return {
            "single_device": self.single.to_dict(),
            "sweeps": [
                dict(
                    r.to_dict(),
                    speedup=r.speedup_vs(self.single),
                    bit_exact=self.bit_exact[n],
                )
                for n, r in self.runs.items()
            ],
            "mismatched_shard_counts": self.mismatches,
        }


def shard_scaling_sweep(
    program: CompiledProgram,
    shard_counts=(2, 4),
    *,
    strategy: str = "Dynamic",
) -> ShardSweep:
    """Run ``program`` single-device and across each of ``shard_counts``
    devices (each count on its own dedicated pool)."""
    counts = sorted(set(shard_counts))
    if not counts:
        raise ValueError("shard_counts must name at least one shard count")
    single = run_strategy(program, strategy)
    reference = single.output_dense()
    runs = {n: run_sharded(program, n, strategy_name=strategy) for n in counts}
    return ShardSweep(
        single=single,
        runs=runs,
        bit_exact={
            n: bool(np.array_equal(r.output_dense(), reference))
            for n, r in runs.items()
        },
    )
