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
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..asm.builder import KernelBuilder
from ..asm.program import Program
from ..core.perf import PerfCounters
from ..errors import ReproError
from ..target.names import RI5CY, XPULPNN
from ..qnn import PAPER_LAYER, ConvGeometry, requantize_shift
from .matrix import POINTS, Point, region_table, run

#: 1/8-scale benchmark layer (same kernel/stride/pad shape, same channel
#: packing constraints at every bitwidth).
SCALED_LAYER = ConvGeometry(in_h=8, in_w=8, in_ch=32, out_ch=16, kh=3, kw=3,
                            stride=1, pad=1)


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


#: ``(bits, isa, quant)`` of the kernel matrix's conv suite points
#: (:mod:`repro.eval.matrix`), in table order: widest first.
SUITE_CONFIGS = tuple((p.bits, p.isa, p.quant) for p in POINTS
                      if p.kind == "conv" and "suite" in p.lists)


@lru_cache(maxsize=64)
def _point_for(geometry: ConvGeometry, bits: int, isa: str,
               quant: str) -> ConvPoint:
    execution = run(Point("conv", bits, isa, quant), geometry, region_table)
    result, regions = execution.result, execution.observer
    _, _, acc, thresholds = execution.draw
    expected = (requantize_shift(acc, 8, 8, signed=False) if thresholds is None
                else thresholds.quantize(acc, channel_axis=-1))
    if not np.array_equal(result.output, expected):
        raise ReproError(
            f"conv kernel {bits}-bit/{isa}/{quant} diverged from the golden model"
        )
    return ConvPoint(
        bits=bits, isa=isa, quant=quant, cycles=result.cycles,
        instructions=result.instructions, macs=geometry.macs, verified=True,
        quant_cycles=regions["quant"].cycles if "quant" in regions else 0,
        perf=result.perf,
    )


def conv_point(geometry: ConvGeometry, bits: int, isa: str,
               quant: str) -> ConvPoint:
    """Run (once per process) and return one verified suite point.

    The 8-bit kernel is byte-identical on both RISC-V cores (same ISA
    subset), so the RI5CY baseline point aliases the extended core's
    measurement, exactly as :func:`conv_suite` reports it.
    """
    if bits == 8 and isa == RI5CY and quant == "shift":
        return replace(_point_for(geometry, 8, XPULPNN, "shift"), isa=RI5CY)
    return _point_for(geometry, bits, isa, quant)


def conv_suite(geometry: ConvGeometry | None = None) -> Dict[Tuple[int, str, str], ConvPoint]:
    """Run (once) and return the verified kernel matrix for *geometry*."""
    g = geometry or benchmark_geometry()
    points = [conv_point(g, *config)
              for config in SUITE_CONFIGS + ((8, RI5CY, "shift"),)]
    return {point.key: point for point in points}


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
