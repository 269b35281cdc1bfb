"""Cycle-approximate timing model of the (extended) RI5CY pipeline.

The paper's performance results are cycle counts on a 4-stage in-order
single-issue core.  On such a core, kernel cycle counts decompose into
per-instruction occupancy plus a small set of hazards; this module encodes
exactly those, with every parameter documented and overridable:

* single-cycle ALU/SIMD/MUL/dot-product ops (the extended dot-product unit
  is designed *not* to add pipeline stages — paper §III-B1);
* loads/stores: 1-cycle occupancy against single-cycle TCDM, plus a 1-cycle
  load-use stall when the next instruction consumes the loaded register;
* taken branches flush the front-end (+2), jumps always do (+1);
* zero-overhead hardware-loop back-edges;
* ``pv.qnt.n`` / ``pv.qnt.c``: 9 / 5 cycles total for two activations, the
  pipelined quantization-FSM latency of §III-B2;
* misaligned data accesses split into two transactions (+1).

The rules are applied per retire by :meth:`repro.core.cpu.Cpu.step`, in
plain integers; :class:`StepTiming` is only the breakdown handed to an
attached tracer's ``on_retire``.  The block engine
(:mod:`repro.engine`) precomputes the same rules per translated block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


def _default_class_cycles() -> Dict[str, int]:
    return {
        "alu": 1,
        "mul": 1,
        "div": 35,
        "load": 1,
        "store": 1,
        "branch": 1,     # not-taken occupancy; taken adds branch_penalty
        "jump": 1,       # plus jump_penalty (always)
        "hwloop": 1,
        "qnt_n": 9,      # two 4-bit activations (paper §III-B2)
        "qnt_c": 5,      # two 2-bit activations
        "system": 1,
        "csr": 1,
    }


@dataclass
class TimingParams:
    """Tunable pipeline parameters (defaults model RI5CY in PULPissimo)."""

    class_cycles: Dict[str, int] = field(default_factory=_default_class_cycles)
    branch_taken_penalty: int = 2
    jump_penalty: int = 1
    load_use_penalty: int = 1
    misaligned_penalty: int = 1

    def signature(self) -> tuple:
        """Hashable identity of the parameter set.  Part of the
        translated-block cache key: blocks precompute static cycle
        prefix sums, so two cores may only share translations when
        every timing parameter agrees."""
        return (
            tuple(sorted(self.class_cycles.items())),
            self.branch_taken_penalty,
            self.jump_penalty,
            self.load_use_penalty,
            self.misaligned_penalty,
        )


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


class TimingModel:
    """A core's timing parameters plus the one piece of pipeline state
    the model carries between retires: the register the previous
    instruction loaded (``None`` when it was not a load).  The retire
    path in :meth:`repro.core.cpu.Cpu.step` and the block engine both
    charge cycles from it."""

    def __init__(self, params: Optional[TimingParams] = None) -> None:
        self.params = params or TimingParams()
        self._pending_load_rd: Optional[int] = None

    def reset(self) -> None:
        self._pending_load_rd = None
