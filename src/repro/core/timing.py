"""Cycle-approximate timing rules of the (extended) RI5CY pipeline.

The paper's performance results are cycle counts on a 4-stage in-order
single-issue core.  On such a core, kernel cycle counts decompose into
per-instruction occupancy plus a small set of hazards; the rules are
fixed, as on the silicon:

* single-cycle ALU/SIMD/MUL/dot-product ops (the extended dot-product unit
  is designed *not* to add pipeline stages — paper §III-B1);
* loads/stores: 1-cycle occupancy against single-cycle TCDM, plus a 1-cycle
  load-use stall when the next instruction consumes the loaded register;
* taken branches flush the front-end (+2), jumps always do (+1);
* zero-overhead hardware-loop back-edges;
* ``pv.qnt.n`` / ``pv.qnt.c``: 9 / 5 cycles total for two activations, the
  pipelined quantization-FSM latency of §III-B2;
* misaligned data accesses split into two transactions (+1).

Each timing class's base cycles are
:data:`~repro.isa.instruction.CLASS_CYCLES` (``InstrSpec.cycles``); the
penalties are the constants below.  The rules are applied per retire by
:meth:`repro.core.cpu.Cpu.step`, in plain integers; :class:`StepTiming`
is only the breakdown handed to an attached tracer's ``on_retire``.  A
straight-line run is priced by :meth:`repro.engine.blocks.Block.price`,
which the block engine's fast blocks and fused loops and the static walker
of :mod:`repro.analysis.cost` all charge through.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Front-end flush of a taken conditional branch.
BRANCH_TAKEN_PENALTY = 2
#: Front-end flush of an unconditional jump.
JUMP_PENALTY = 1
#: Stall when an instruction reads the register the previous one loaded.
LOAD_USE_PENALTY = 1
#: Extra transaction of a misaligned data access.
MISALIGNED_PENALTY = 1


@dataclass
class StepTiming:
    """Cycle breakdown of one retired instruction: the payload of a
    tracer's ``on_retire``, built only while a tracer is attached."""

    base: int
    branch_stall: int = 0
    jump_stall: int = 0
    load_use_stall: int = 0
    misaligned_stall: int = 0

    @property
    def total(self) -> int:
        return (
            self.base
            + self.branch_stall
            + self.jump_stall
            + self.load_use_stall
            + self.misaligned_stall
        )
