"""Benchmark workloads and the shared convolution-suite runner.

The paper's evaluation (§IV) runs one convolution layer — 16x16x32 input,
64x3x3x32 filters — at 8/4/2-bit on four platforms.  Running the full
layer through a Python ISS takes tens of seconds per configuration, so
benchmarks default to :data:`SCALED_LAYER` (identical shape ratios, 1/8
the MACs; all the reported ratios are geometry-stable because every
kernel shares the inner-loop structure) and honor ``REPRO_FULL=1`` to run
the exact paper layer.

:func:`conv_suite` executes and *verifies* every (bits, core, quant)
kernel once per process and caches the results, so the per-figure benches
share one set of simulations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..asm.builder import KernelBuilder
from ..asm.program import Program
from ..core.perf import PerfCounters
from ..errors import ReproError
from ..kernels import ConvConfig, ConvKernel
from ..target.names import RI5CY, XPULPNN
from ..qnn import (
    PAPER_LAYER,
    ConvGeometry,
    conv2d_golden,
    random_activations,
    random_weights,
    requantize_shift,
    thresholds_from_accumulators,
)

#: 1/8-scale benchmark layer (same kernel/stride/pad shape, same channel
#: packing constraints at every bitwidth).
SCALED_LAYER = ConvGeometry(in_h=8, in_w=8, in_ch=32, out_ch=16, kh=3, kw=3,
                            stride=1, pad=1)

_SEED = 2020  # DATE 2020


def use_full_layer() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")


def benchmark_geometry() -> ConvGeometry:
    """The geometry benches run at (env ``REPRO_FULL=1`` for the paper's)."""
    return PAPER_LAYER if use_full_layer() else SCALED_LAYER


@dataclass(frozen=True)
class ConvPoint:
    """One verified kernel execution."""

    bits: int
    isa: str
    quant: str
    cycles: int
    instructions: int
    macs: int
    verified: bool
    quant_cycles: int
    perf: PerfCounters

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / self.cycles

    @property
    def quant_share(self) -> float:
        return self.quant_cycles / self.cycles

    @property
    def key(self) -> Tuple[int, str, str]:
        return (self.bits, self.isa, self.quant)


#: The full kernel matrix of the evaluation.
SUITE_CONFIGS = (
    (8, XPULPNN, "shift"),
    (4, XPULPNN, "hw"),
    (4, XPULPNN, "sw"),
    (4, RI5CY, "sw"),
    (2, XPULPNN, "hw"),
    (2, XPULPNN, "sw"),
    (2, RI5CY, "sw"),
)


def conv_workload(geometry: ConvGeometry, bits: int):
    """Seeded ``(weights, acts, acc, thresholds)`` for one conv layer.

    Weights then activations are drawn from seed 2020+bits; ``acc`` is the
    golden accumulator tensor, and sub-byte layers get the staircase fitted
    to it (8-bit layers requantize by shift: ``thresholds`` is None).
    """
    g = geometry
    rng = np.random.default_rng(_SEED + bits)
    weights = random_weights((g.out_ch, g.kh, g.kw, g.in_ch), bits, rng)
    acts = random_activations((g.in_h, g.in_w, g.in_ch), bits, rng)
    acc = conv2d_golden(acts, weights, stride=g.stride, pad=g.pad)
    thresholds = (None if bits == 8
                  else thresholds_from_accumulators(acc, bits))
    return weights, acts, acc, thresholds


def suite_kernel(geometry: ConvGeometry, bits: int, isa: str,
                 quant: str) -> ConvKernel:
    """The single-core conv kernel of one suite point."""
    return ConvKernel(ConvConfig(geometry=geometry, bits=bits, isa=isa,
                                 quant=quant))


def _run_one(geometry: ConvGeometry, bits: int, isa: str, quant: str) -> ConvPoint:
    kernel = suite_kernel(geometry, bits, isa, quant)
    weights, acts, acc, thresholds = conv_workload(geometry, bits)
    run = kernel.run(weights, acts, thresholds=thresholds, shift=8,
                     profile_quant=True)
    if thresholds is None:
        expected = requantize_shift(acc, 8, 8, signed=False)
    else:
        expected = thresholds.quantize(acc, channel_axis=-1)
    verified = bool(np.array_equal(run.output, expected))
    if not verified:
        raise ReproError(
            f"conv kernel {bits}-bit/{isa}/{quant} diverged from the golden model"
        )
    return ConvPoint(
        bits=bits,
        isa=isa,
        quant=quant,
        cycles=run.cycles,
        instructions=run.instructions,
        macs=geometry.macs,
        verified=verified,
        quant_cycles=run.detail.get("quant_cycles", 0),
        perf=run.perf,
    )


@lru_cache(maxsize=64)
def _point_for(geom_key: tuple, bits: int, isa: str, quant: str) -> ConvPoint:
    return _run_one(ConvGeometry(*geom_key), bits, isa, quant)


def conv_point(geometry: ConvGeometry, bits: int, isa: str,
               quant: str) -> ConvPoint:
    """Run (once per process) and return one verified suite point.

    The 8-bit kernel is byte-identical on both RISC-V cores (same ISA
    subset), so the RI5CY baseline point aliases the extended core's
    measurement, exactly as :func:`conv_suite` reports it.
    """
    key = (geometry.in_h, geometry.in_w, geometry.in_ch, geometry.out_ch,
           geometry.kh, geometry.kw, geometry.stride, geometry.pad)
    if bits == 8 and isa == RI5CY and quant == "shift":
        ext8 = _point_for(key, 8, XPULPNN, "shift")
        return ConvPoint(
            bits=8, isa=RI5CY, quant="shift", cycles=ext8.cycles,
            instructions=ext8.instructions, macs=ext8.macs, verified=True,
            quant_cycles=ext8.quant_cycles, perf=ext8.perf,
        )
    return _point_for(key, bits, isa, quant)


def _suite_for(geom_key: tuple) -> Dict[Tuple[int, str, str], ConvPoint]:
    geometry = ConvGeometry(*geom_key)
    points = {}
    for bits, isa, quant in SUITE_CONFIGS + ((8, RI5CY, "shift"),):
        point = conv_point(geometry, bits, isa, quant)
        points[point.key] = point
    return points


def conv_suite(geometry: ConvGeometry | None = None) -> Dict[Tuple[int, str, str], ConvPoint]:
    """Run (once) and return the verified kernel matrix for *geometry*."""
    g = geometry or benchmark_geometry()
    key = (g.in_h, g.in_w, g.in_ch, g.out_ch, g.kh, g.kw, g.stride, g.pad)
    return _suite_for(key)


# ---------------------------------------------------------------------------
# General-purpose application (Table III's "GP application" row)
# ---------------------------------------------------------------------------

def build_gp_app(iterations: int = 200, isa: str = XPULPNN) -> Program:
    """A mixed load/store/control/arithmetic loop (~50 % ALU, ~20 % loads,
    ~10 % stores, ~15 % control, ~5 % multiply), the workload class the
    paper uses to show the extensions do not hurt general-purpose power."""
    b = KernelBuilder(isa=isa)
    b.li("a0", 0x1000)        # working buffer
    b.li("a1", 0x2000)
    b.li("t0", iterations)
    b.li("s2", 7)
    b.li("s3", 13)
    b.label("loop")
    # 4 loads
    b.emit("lw", "t1", 0, "a0")
    b.emit("lw", "t2", 4, "a0")
    b.emit("lw", "t3", 8, "a0")
    b.emit("lw", "t4", 12, "a0")
    # ~10 ALU ops
    b.emit("add", "t5", "t1", "t2")
    b.emit("xor", "t6", "t3", "t4")
    b.emit("slli", "s4", "t5", 3)
    b.emit("sub", "s5", "t6", "t1")
    b.emit("and", "s6", "s4", "s5")
    b.emit("or", "s7", "s6", "t2")
    b.emit("srli", "s8", "s7", 2)
    b.emit("add", "s9", "s8", "s2")
    b.emit("slti", "s10", "s9", 100)
    b.emit("addi", "a0", "a0", 4)
    # 1 multiply
    b.emit("mul", "s11", "t1", "s3")
    # 2 stores
    b.emit("sw", "s9", 0, "a1")
    b.emit("p.sw", "s11", 4, "a1", inc=True)
    # control: compare + conditional + loop branch
    b.emit("andi", "t5", "t0", 3)
    b.beqz("t5", "skip")
    b.emit("addi", "s2", "s2", 1)
    b.label("skip")
    b.emit("addi", "t0", "t0", -1)
    b.bnez("t0", "loop")
    b.ebreak()
    return b.build()


def run_gp_app(isa: str = XPULPNN, iterations: int = 200) -> PerfCounters:
    """Execute the GP mix and return its counters."""
    from ..core.cpu import Cpu

    cpu = Cpu(isa=isa)
    return cpu.run_program(build_gp_app(iterations, isa=isa)).copy()
