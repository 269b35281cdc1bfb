"""Reference retire path for the core, and the parity harness.

:func:`reference_step` is :meth:`Cpu.step` as it was before the retire
path absorbed the timing model, kept verbatim as the test oracle
together with the timing model's own per-instruction method
(:func:`timing_step`): every retire allocates a
:class:`~repro.core.timing.StepTiming`, builds the source-register
tuple, and asks the hardware-loop controller for a redirect.  The lean
:meth:`Cpu.step` must reach exactly the state this one reaches and hand
a tracer the same per-retire breakdown.  An attached region profile is
charged from the same :class:`~repro.core.timing.StepTiming`, its region
looked up in the table on every retire, so the region tables it leaves
check the core's own region charging rather than reuse it.

:func:`use_reference_step` patches the oracle onto one core; the cluster
scheduler and the block engine both step through ``cpu.step``, so every
retire that does not run from a translated block goes through it.
"""

import types

from repro.core.timing import (
    BRANCH_TAKEN_PENALTY,
    JUMP_PENALTY,
    LOAD_USE_PENALTY,
    MISALIGNED_PENALTY,
    StepTiming,
)
from repro.errors import TrapError
from repro.isa.instruction import CLASS_CYCLES
from repro.trace.tracer import Tracer


def timing_step(self, ins, taken, misaligned_accesses):
    """Account one instruction; *taken* flags a non-fall-through next PC
    for control transfers, *misaligned_accesses* counts split data
    transactions performed by the instruction.  (*self* is the core,
    whose ``_pending_load_rd`` carries the load-use hazard.)"""
    timing = StepTiming(base=CLASS_CYCLES[ins.spec.timing])

    if self._pending_load_rd is not None:
        if self._pending_load_rd != 0 and self._pending_load_rd in ins.source_registers():
            timing.load_use_stall = LOAD_USE_PENALTY
    cls = ins.spec.timing
    self._pending_load_rd = ins.rd if cls == "load" else None

    if cls == "branch" and taken:
        timing.branch_stall = BRANCH_TAKEN_PENALTY
    elif cls == "jump":
        timing.jump_stall = JUMP_PENALTY

    if misaligned_accesses:
        timing.misaligned_stall = misaligned_accesses * MISALIGNED_PENALTY
    return timing


def reference_step(self) -> None:
    """Execute one instruction and account its cycles."""
    ins = self._imem.get(self.pc)
    if ins is None:
        if self.pc in self._illegal:
            raise TrapError("illegal instruction", self.pc)
        raise TrapError("instruction fetch fault", self.pc)
    charged = [self.perf]
    regions = self.regions
    if regions is not None:
        name = regions.map.get(self.pc, regions.default_region)
        if self._epoch is not None:
            self._epoch.setdefault(name, self.perf.cycles)
        charged.append(regions.counters_for(name))

    self._misaligned = 0
    self._extra_stalls = 0
    self._tcdm_stalls = 0
    next_pc = ins.spec.execute(self, ins)
    taken = next_pc is not None

    fall_through = self.pc + ins.spec.size
    if next_pc is None:
        # A halting ebreak/ecall takes no hardware-loop back-edge.
        redirect = (None if self._halted is not None
                    else self.hwloops.redirect(fall_through))
        if redirect is not None:
            next_pc = redirect
            for perf in charged:
                perf.hwloop_backedges += 1
            if self._tracer is not None:
                self._tracer.on_hwloop(self, self.pc, redirect)
        else:
            next_pc = fall_through

    timing = timing_step(self, ins, taken, self._misaligned)
    step_extra = self._extra_stalls + self._tcdm_stalls
    for perf in charged:
        perf.cycles += timing.total + step_extra
        perf.instructions += 1
        perf.by_class[ins.spec.timing] += 1
        perf.stall_load_use += timing.load_use_stall
        perf.stall_branch += timing.branch_stall
        perf.stall_jump += timing.jump_stall
        perf.stall_misaligned += timing.misaligned_stall + self._extra_stalls
        perf.stall_tcdm_contention += self._tcdm_stalls
    if self._tracer is not None:
        self._tracer.on_retire(self, self.pc, ins, timing)
    self.pc = next_pc


def use_reference_step(cpu) -> None:
    """Make *cpu* retire through :func:`reference_step`."""
    cpu.step = types.MethodType(reference_step, cpu)


class RetireRecorder(Tracer):
    """Records everything a tracer sees of each retire: the core, pc,
    mnemonic, the :class:`StepTiming` fields, the step's unit and TCDM
    stalls, and the core's clock after the retire; plus every
    hardware-loop back-edge."""

    def __init__(self) -> None:
        self.events = []

    def on_retire(self, cpu, pc, ins, timing) -> None:
        self.events.append((
            "retire", cpu.hart_id, pc, ins.mnemonic, type(timing).__name__,
            timing.base, timing.branch_stall, timing.jump_stall,
            timing.load_use_stall, timing.misaligned_stall, timing.total,
            cpu._extra_stalls, cpu._tcdm_stalls, cpu.perf.cycles))

    def on_hwloop(self, cpu, pc, target) -> None:
        self.events.append(("hwloop", cpu.hart_id, pc, target,
                            cpu.perf.cycles))
