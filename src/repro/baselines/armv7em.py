"""Cortex-M4 / Cortex-M7 baseline: CMSIS-NN-style cost model.

The paper's Figs 8 and 9 compare against STM32L476 (Cortex-M4 @ 80 MHz)
and STM32H743 (Cortex-M7 @ 400 MHz) running the *extended CMSIS-NN* of
Rusci et al. (paper reference [12]).  We do not own that silicon, so —
per the substitution rule — this module reproduces the **execution model**
of those kernels as a structural cost model: it counts the instruction mix
(loads, SMLAD MACs, SXTB16/mask unpack ops, stores, loop control) that the
CMSIS-NN convolution performs for a given layer geometry and bitwidth, and
charges each class with documented per-core cycle costs.

Execution model being costed (arm_convolve_HWC_q7-style):

* **im2col + widening**: activations are expanded to q15; 8-bit data uses
  the SXTB16/ROR idiom (~6 instructions per 4 elements), 4-/2-bit data
  needs mask/shift unpack sequences (~15 per 8, ~31 per 16 elements) —
  this is the sub-byte overhead the paper's Fig 8 shows;
* **MatMul**: 2x2-blocked q15 loop, 4 LDR + 4 SMLAD per 2 reduction
  elements (2 MACs per SMLAD);
* **weights widening** in-loop for sub-byte kernels (same sequences);
* **requantization**: shift+saturate, ~8 instructions per output.

Per-core cycle costs come from the ARM technical reference manuals and
published CoreMark/CMSIS-NN characterizations: the M4 pays 2 cycles per
(non-pipelined) load and ~3 per taken branch; the M7 is dual-issue
(~0.55 CPI on independent arithmetic) but gains little on the dependent
unpack chains.  Operating points (frequency, typical active power) come
from the STM32 datasheets the paper cites ([14], [15]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from ..errors import ModelError

if TYPE_CHECKING:  # numpy-free at import: the target registry reads CORES
    from ..qnn.layers import ConvGeometry


@dataclass(frozen=True)
class CortexMCore:
    """One commercial MCU operating point."""

    name: str
    mcu: str
    freq_hz: float
    power_w: float
    #: on-chip SRAM available to activations/weights (datasheet)
    sram_bytes: int = 128 * 1024
    #: per-instruction-class cycle costs
    alu: float = 1.0
    mac: float = 1.0
    load: float = 2.0
    store: float = 1.0
    branch: float = 3.0
    unpack_op: float = 1.0

    def cycles_for_mix(self, mix: Dict[str, float]) -> float:
        total = 0.0
        for cls, count in mix.items():
            cost = getattr(self, cls, None)
            if cost is None:
                raise ModelError(f"{self.name}: unknown instruction class {cls!r}")
            total += cost * count
        return total


#: STM32L476 (paper ref [15]): Cortex-M4F, 80 MHz; ~130 uA/MHz run mode
#: at ~1.0-1.2 V regulated from 3.0 V gives ~11 mW active.
STM32L476 = CortexMCore(
    name="STM32L4",
    mcu="STM32L476 (Cortex-M4 @ 80 MHz)",
    freq_hz=80e6,
    power_w=11e-3,
    sram_bytes=128 * 1024,
    alu=1.0, mac=1.0, load=2.0, store=1.0, branch=3.0, unpack_op=1.0,
)

#: STM32H743 (paper ref [14]): Cortex-M7, 400 MHz; ~250 mW typical active
#: (VOS1, peripherals idle).  Dual-issue on independent arithmetic.
STM32H743 = CortexMCore(
    name="STM32H7",
    mcu="STM32H743 (Cortex-M7 @ 400 MHz)",
    freq_hz=400e6,
    power_w=250e-3,
    sram_bytes=1024 * 1024,
    alu=0.55, mac=0.55, load=1.0, store=0.6, branch=1.5, unpack_op=0.9,
)

CORES: Dict[str, CortexMCore] = {"STM32L4": STM32L476, "STM32H7": STM32H743}

#: Unpack cost in instructions per *packed source word*, from the
#: extended-CMSIS-NN mask/shift/sign-extension sequences of [12]
#: (~2.75 ops per 4-bit element, ~3 ops per 2-bit element: Thumb-2 has no
#: sub-byte SIMD extract, so each element costs a shift + mask + sign fix
#: plus q15 re-packing).
_UNPACK_OPS_PER_WORD = {4: 22, 2: 48}
_ELEMENTS_PER_WORD = {8: 4, 4: 8, 2: 16}


@dataclass
class CmsisConvModel:
    """Instruction-mix model of one CMSIS-NN convolution layer."""

    geometry: ConvGeometry
    bits: int
    #: loop/pointer bookkeeping charged per inner-loop iteration (index
    #: updates, address generation the compiler cannot fold).
    loop_overhead: float = 1.0

    def __post_init__(self) -> None:
        if self.bits not in (2, 4, 8):
            raise ModelError(f"unsupported operand width {self.bits}")

    # -- phase mixes -----------------------------------------------------

    def im2col_mix(self) -> Dict[str, float]:
        """Widen + copy each pixel's receptive field to q15."""
        g = self.geometry
        elements = g.out_pixels * g.reduction
        if self.bits == 8:
            # LDR + 2x SXTB16 + ROR + 2x STR per 4 elements.
            groups = elements / 4
            return {
                "load": groups,
                "unpack_op": groups * 3,
                "store": groups * 2,
                "branch": g.out_pixels * g.kh * 0.5,
            }
        words = elements / _ELEMENTS_PER_WORD[self.bits]
        stores = elements / 2  # q15 pairs
        return {
            "load": words,
            "unpack_op": words * _UNPACK_OPS_PER_WORD[self.bits],
            "store": stores,
            "branch": g.out_pixels * g.kh * 0.5,
        }

    def matmul_mix(self) -> Dict[str, float]:
        """2x2-blocked q15 MatMul: 4 LDR + 4 SMLAD per 2 elements."""
        g = self.geometry
        pair_blocks = (g.out_pixels / 2) * (g.out_ch / 2)
        iters = pair_blocks * (g.reduction / 2)
        mix = {
            "load": iters * 2,          # 2 activation loads (shared weights are
            "mac": iters * 4,           # re-loaded below)
            "alu": iters * self.loop_overhead,
            "branch": pair_blocks * 1.0,
        }
        if self.bits == 8:
            mix["load"] += iters * 2    # weight loads (already q7->q15 via SXTB16)
            mix["unpack_op"] = iters * 2
        else:
            # Packed weights widened in-loop.
            w_words = pair_blocks * 2 * (
                self.geometry.reduction / _ELEMENTS_PER_WORD[self.bits]
            )
            mix["load"] += w_words
            mix["unpack_op"] = w_words * _UNPACK_OPS_PER_WORD[self.bits]
        return mix

    def requant_mix(self) -> Dict[str, float]:
        """Shift + saturate + narrow-store per output."""
        g = self.geometry
        outputs = g.out_pixels * g.out_ch
        per_output = 6.0 if self.bits == 8 else 8.0  # sub-byte adds re-packing
        return {"alu": outputs * per_output, "store": outputs / (8 // self.bits) if self.bits != 8 else outputs}

    def total_mix(self) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for mix in (self.im2col_mix(), self.matmul_mix(), self.requant_mix()):
            for cls, count in mix.items():
                total[cls] = total.get(cls, 0.0) + count
        return total

    # -- results ----------------------------------------------------------

    def cycles(self, core: CortexMCore) -> int:
        return int(round(core.cycles_for_mix(self.total_mix())))

    def macs_per_cycle(self, core: CortexMCore) -> float:
        return self.geometry.macs / self.cycles(core)

    def runtime_s(self, core: CortexMCore) -> float:
        return self.cycles(core) / core.freq_hz

    def gmacs_per_watt(self, core: CortexMCore) -> float:
        """Energy efficiency in GMAC/s/W at the core's operating point."""
        macs_per_s = self.geometry.macs / self.runtime_s(core)
        return macs_per_s / core.power_w / 1e9


def conv_cycles(core_name: str, geometry: ConvGeometry, bits: int) -> int:
    """Convenience: cycle count of one conv layer on a named STM32."""
    return CmsisConvModel(geometry, bits).cycles(CORES[core_name])
