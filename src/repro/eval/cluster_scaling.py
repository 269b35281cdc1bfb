"""Cluster scaling — speedup vs cores for the parallel XpulpNN kernels.

The paper evaluates XpulpNN on a single RI5CY core; its companion
software stack (PULP-NN, arXiv:1908.11263) reports near-linear scaling
of the same kernels across a PULP cluster of 8 cores.  This experiment
closes that loop on our model: the parallel MatMul microkernel runs on
1/2/4/8 cores per bitwidth, and the table reports

* modeled compute cycles (wall-clock, barriers included),
* speedup over the 1-core run and parallel efficiency (speedup / N),
* the TCDM-contention share (bank-conflict stalls per core-cycle),
* cluster power (idle-discounted) and the resulting Gop/s/W.

Efficiency stays well above 75 % at 8 cores: the kernels are MAC-bound,
so doubling the banked TCDM over cores (banking factor 2) keeps the
conflict share in the low percent — the same argument PULP-NN makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from ..qnn import random_threshold_table
from .reporting import format_table

#: Default workload: one MatMul tile sized like the benchmark layer's
#: im2col product (64 filters over a 256-deep reduction).
DEFAULT_OUT_CH = 64
DEFAULT_REDUCTION = 256

CORE_COUNTS = (1, 2, 4, 8)
BITWIDTHS = (8, 4, 2)


@dataclass
class ScalingPoint:
    """One (bits, cores) measurement."""

    bits: int
    cores: int
    cycles: int
    instructions: int
    speedup: float
    efficiency: float
    tcdm_conflicts: int
    contention_share: float
    idle_cycles: int
    dma_cycles: int
    power_mw: float
    gops_per_s_per_w: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "bits": self.bits,
            "cores": self.cores,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "speedup": round(self.speedup, 4),
            "efficiency": round(self.efficiency, 4),
            "tcdm_conflicts": self.tcdm_conflicts,
            "contention_share": round(self.contention_share, 6),
            "idle_cycles": self.idle_cycles,
            "dma_cycles": self.dma_cycles,
            "power_mw": round(self.power_mw, 3),
            "gops_per_s_per_w": round(self.gops_per_s_per_w, 2),
        }


@dataclass
class ClusterScalingResult:
    out_ch: int
    reduction: int
    points: Dict[Tuple[int, int], ScalingPoint] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "workload": {
                "kind": "matmul",
                "out_ch": self.out_ch,
                "reduction": self.reduction,
            },
            "core_counts": list(CORE_COUNTS),
            "points": [
                self.points[(bits, n)].to_dict()
                for bits in BITWIDTHS
                for n in CORE_COUNTS
                if (bits, n) in self.points
            ],
        }


@lru_cache(maxsize=16)
def matmul_workload(bits: int, out_ch: int, reduction: int, seed: int):
    """Seeded ``(w, x0, x1, thresholds)`` for one MatMul tile, drawn once
    per process (the arrays are read-only): a run and its cache key
    share the draw.

    The scaling sweep and explore points draw from seed 7, the kernel
    matrix's MatMul points from 2020+bits; 8-bit tiles requantize by
    shift (``thresholds`` is None).
    """
    rng = np.random.default_rng(seed)
    lo, hi = -(1 << (bits - 1)), 1 << (bits - 1)
    w = rng.integers(lo, hi, (out_ch, reduction)).astype(np.int32)
    x0 = rng.integers(0, 1 << bits, reduction).astype(np.int32)
    x1 = rng.integers(0, 1 << bits, reduction).astype(np.int32)
    table = (None if bits == 8 else
             random_threshold_table(out_ch, bits, spread=600, rng=rng))
    arrays = (w, x0, x1) + (() if table is None else (table.thresholds,))
    for array in arrays:
        array.flags.writeable = False
    return w, x0, x1, table


def _default_service():
    """Inline service; the on-disk cache engages via ``REPRO_CACHE_DIR``."""
    import os

    from ..serve import SimulationService, open_cache

    return SimulationService(
        cache=open_cache(enabled=bool(os.environ.get("REPRO_CACHE_DIR"))))


def run(out_ch: int = DEFAULT_OUT_CH, reduction: int = DEFAULT_REDUCTION,
        service=None) -> ClusterScalingResult:
    """Run the 12-point sweep as a client of the batch service.

    Every (bits, cores) point is a typed :class:`~repro.serve.ScalingJob`
    submitted through *service* (default: inline execution, with the
    content-addressed result cache when ``REPRO_CACHE_DIR`` is set).
    Passing ``SimulationService(workers=N, cache=...)`` shards the sweep
    across processes and dedupes repeats — the harvest below is
    identical either way because every point payload is deterministic.
    """
    from ..errors import ReproError
    from ..serve import ScalingJob

    if service is None:
        service = _default_service()
    jobs = [
        ScalingJob(bits=bits, cores=n, out_ch=out_ch, reduction=reduction)
        for bits in BITWIDTHS for n in CORE_COUNTS
    ]
    report = service.run(jobs, label="cluster-scaling")
    result = ClusterScalingResult(out_ch=out_ch, reduction=reduction)
    by_key = {}
    for job, outcome in zip(jobs, report.results):
        if not outcome.ok:
            raise ReproError(
                f"scaling point {job.bits}-bit x{job.cores} failed: "
                f"{outcome.error_type}: {outcome.message}")
        by_key[(job.bits, job.cores)] = outcome.payload
    for bits in BITWIDTHS:
        baseline_cycles = by_key[(bits, CORE_COUNTS[0])]["cycles"]
        reference = np.asarray(by_key[(bits, CORE_COUNTS[0])]["output"])
        for n in CORE_COUNTS:
            payload = by_key[(bits, n)]
            if not np.array_equal(np.asarray(payload["output"]), reference):
                raise AssertionError(
                    f"{bits}-bit output diverged at {n} cores")
            speedup = baseline_cycles / payload["cycles"]
            result.points[(bits, n)] = ScalingPoint(
                bits=bits,
                cores=n,
                cycles=payload["cycles"],
                instructions=payload["instructions"],
                speedup=speedup,
                efficiency=speedup / n,
                tcdm_conflicts=payload["tcdm_conflicts"],
                contention_share=payload["contention_share"],
                idle_cycles=payload["idle_cycles"],
                dma_cycles=payload["dma_cycles"],
                power_mw=payload["power_mw"],
                gops_per_s_per_w=payload["gops_per_s_per_w"],
            )
    return result


def render(result: ClusterScalingResult) -> str:
    blocks = [
        f"Cluster scaling — parallel MatMul, {result.out_ch} filters x "
        f"{result.reduction}-deep reduction, banking factor 2"
    ]
    for bits in BITWIDTHS:
        rows: List[list] = []
        for n in CORE_COUNTS:
            p = result.points.get((bits, n))
            if p is None:
                continue
            rows.append([
                p.cores, p.cycles, f"{p.speedup:.2f}x",
                f"{p.efficiency:.1%}", p.tcdm_conflicts,
                f"{p.contention_share:.2%}", f"{p.power_mw:.2f}",
                f"{p.gops_per_s_per_w:.1f}",
            ])
        blocks.append(format_table(
            ["cores", "cycles", "speedup", "efficiency", "conflicts",
             "contention", "power mW", "Gop/s/W"],
            rows,
            title=f"{bits}-bit MatMul",
        ))
    return "\n\n".join(blocks)
