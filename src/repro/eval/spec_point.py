"""One explore design point, measured cycle-exactly.

:func:`run_spec_point` is the unit of work behind
:class:`repro.serve.SpecPointJob` and :class:`repro.serve.ScalingJob`
(the latter on the registry's ``xpulpnn-cluster<N>`` targets): it
builds a cluster shaped by an arbitrary :class:`~repro.target.TargetSpec`
— core count *and* memory sizes come from the spec, not from the SoC
defaults — runs the parallel MatMul microkernel on the requested
quantization path, and returns a plain-JSON payload.  The physical
rollup (energy per inference, silicon area) happens on the explorer
side from this payload plus the spec, so cached simulation results
survive physical-model recalibration.

The workload is the cluster-scaling one (:mod:`.cluster_scaling`): same
seed, same tensors, so an explore point at the default geometry shares
simulated ground truth with the cluster-scaling sweep.
"""

from __future__ import annotations

from typing import Any, Dict

from ..cluster import Cluster
from ..kernels import ParallelMatmulConfig, ParallelMatmulKernel
from ..physical import OPS_PER_MAC, cluster_model_for
from ..target.spec import TargetSpec
from .cluster_scaling import DEFAULT_OUT_CH, DEFAULT_REDUCTION, matmul_workload

#: Seed of the cluster-scaling tensors (shared with every explore point).
_SEED = 7


def spec_point_kernel(spec: TargetSpec, bits: int, quant: str,
                      out_ch: int = DEFAULT_OUT_CH,
                      reduction: int = DEFAULT_REDUCTION
                      ) -> ParallelMatmulKernel:
    """The parallel MatMul one (spec, bits, quant) design point runs."""
    return ParallelMatmulKernel(ParallelMatmulConfig(
        reduction=reduction, out_ch=out_ch, bits=bits,
        num_cores=spec.cores, isa=spec.isa, quant=quant,
    ))


def spec_point_operands(bits: int, out_ch: int = DEFAULT_OUT_CH,
                        reduction: int = DEFAULT_REDUCTION):
    """The seeded ``(w, x0, x1, thresholds)`` a design point runs on."""
    return matmul_workload(bits, out_ch, reduction, _SEED)


def run_spec_point(spec: TargetSpec, bits: int, quant: str,
                   out_ch: int = DEFAULT_OUT_CH,
                   reduction: int = DEFAULT_REDUCTION) -> Dict[str, Any]:
    """Simulate one (spec, bits, quant) design point; plain-JSON result.

    *quant* is the requantization path actually executed — ``"shift"``
    for 8-bit, ``"hw"`` (pv.qnt) or ``"sw"`` (staircase) for sub-byte —
    independent of the spec's default, so one silicon variant can be
    measured on both paths.
    """
    kern = spec_point_kernel(spec, bits, quant, out_ch, reduction)
    w, x0, x1, table = spec_point_operands(bits, out_ch, reduction)
    cluster = Cluster(num_cores=spec.cores, isa=spec.isa,
                      tcdm_size=spec.tcdm_bytes, l2_size=spec.l2_bytes)
    kr = kern.run(w, x0, x1, thresholds=table, shift=10, cluster=cluster)
    agg = kr.run.aggregate
    breakdown = cluster_model_for(spec.power_model).evaluate(
        kr.run.per_core, sub_byte_bits=bits)
    macs = kern.config.macs
    runtime_s = kr.cycles / spec.freq_hz
    gops = macs * OPS_PER_MAC / runtime_s / 1e9
    return {
        "spec": spec.name,
        "spec_digest": spec.digest(),
        "bits": bits,
        "quant": quant,
        "cores": spec.cores,
        "tcdm_bytes": spec.tcdm_bytes,
        "l2_bytes": spec.l2_bytes,
        "freq_hz": spec.freq_hz,
        "macs": macs,
        "cycles": kr.cycles,
        "total_cycles": kr.total_cycles,
        "instructions": agg.instructions,
        "tcdm_conflicts": kr.run.tcdm_conflicts,
        "contention_share": kr.run.contention_share,
        "idle_cycles": agg.idle_cycles,
        "dma_cycles": kr.dma_in_cycles + kr.dma_out_cycles,
        "power_mw": breakdown.cluster_total_mw,
        "gops_per_s_per_w": gops / breakdown.cluster_total_w,
        "output": kr.output.tolist(),
    }
