"""The core instruction-set simulator.

:class:`Cpu` models a RI5CY-class 4-stage in-order single-issue core at
instruction granularity with cycle-approximate timing (see
:mod:`repro.core.timing`).  The same class simulates both cores of the
paper, selected by the ISA configuration:

>>> from repro.core import Cpu
>>> from repro.target import names
>>> baseline = Cpu(isa=names.RI5CY)     # RV32IMC + XpulpV2
>>> extended = Cpu(isa=names.XPULPNN)   # ... + XpulpNN

Programs come from :mod:`repro.asm` (text assembly or the builder DSL);
data lives in the attached :class:`~repro.soc.memory.Memory`.
"""

from __future__ import annotations

from typing import Optional

from ..engine.config import resolve_mode
from ..errors import SimError, TrapError
from ..isa.registers import RegisterFile
from ..isa.registry import Isa, build_isa
from ..soc.memory import Memory
from ..soc.memmap import L2_SIZE
from ..target.names import XPULPNN
from ..trace.tracer import Tracer
from .hwloop import HwLoopController
from .perf import PerfCounters
from .regions import RegionCounters
from .timing import TimingModel, TimingParams

#: Default standalone data/instruction memory size (PULPissimo's L2).
DEFAULT_MEM_SIZE = L2_SIZE


class Cpu:
    """Cycle-approximate functional model of the (extended) RI5CY core."""

    def __init__(
        self,
        isa: str | Isa = XPULPNN,
        mem: Optional[Memory] = None,
        timing: Optional[TimingParams] = None,
        hart_id: int = 0,
        engine: Optional[str] = None,
    ) -> None:
        self.isa = build_isa(isa) if isinstance(isa, str) else isa
        self.mem = mem if mem is not None else Memory(DEFAULT_MEM_SIZE, base=0)
        self.hart_id = hart_id
        self.regs = RegisterFile()
        self.pc = 0
        self.hwloops = HwLoopController()
        self.perf = PerfCounters()
        self.timing = TimingModel(timing)
        self._tracer: Optional[Tracer] = None
        self._mem_tracer: Optional[Tracer] = None

        #: Execution engine for :meth:`run` — "interp" steps every
        #: instruction; "block" runs translated basic blocks
        #: (:mod:`repro.engine`) when nothing observable prevents it.
        self.engine = resolve_mode(engine)
        self._block_engine = None
        self._loaded_program = None
        self._block_digest: Optional[str] = None
        self._imem_version = 0

        self._imem: dict = {}
        self._halted: Optional[str] = None
        self._misaligned = 0
        self._extra_stalls = 0
        self._tcdm_stalls = 0
        self._csrs: dict = {}

        #: Region profile (:class:`~repro.core.regions.RegionCounters`)
        #: charged by every run while attached; None keeps the hot path
        #: to one check per retired instruction.
        self.regions: Optional[RegionCounters] = None
        self._region: Optional[str] = None
        self._region_acc: Optional[PerfCounters] = None
        self._region_mark: Optional[PerfCounters] = None

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    @property
    def tracer(self) -> Optional[Tracer]:
        """The attached :class:`~repro.trace.tracer.Tracer` (or None).

        Detached tracing costs one ``is not None`` check per retired
        instruction; memory-access hooks are gated separately on the
        tracer's ``trace_memory`` flag so span-level tracing never touches
        the load/store fast path.
        """
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self._mem_tracer = (
            tracer if tracer is not None and tracer.trace_memory else None
        )

    # ------------------------------------------------------------------
    # Region profile
    # ------------------------------------------------------------------

    def _enter_region(self, name: str) -> None:
        """Close the open region and open *name*: the next instruction
        to retire is charged to it."""
        self._close_region()
        self._region = name
        self._region_acc = self.regions.counters_for(name)
        self._region_mark = self.perf.copy()

    def _close_region(self) -> None:
        """Charge the open region with the counters accrued since it
        was entered."""
        if self._region is not None:
            self._region_acc.merge(self.perf.delta_since(self._region_mark))
            self._region = None

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------

    def load_program(self, program) -> None:
        """Attach a linked :class:`~repro.asm.program.Program`.

        Instructions are indexed by address for fetch; use
        :meth:`materialize` as well if the run should also place encoded
        bytes into data memory (needed only when code reads itself).
        """
        imem = {}
        for ins in program.instructions:
            if ins.addr is None:
                raise SimError(
                    f"instruction {ins!r} has no address; link the program first"
                )
            imem[ins.addr] = ins
        self._imem = imem
        self.pc = program.entry
        self._loaded_program = program
        self._block_digest = None
        self._imem_version += 1

    def materialize(self, program) -> None:
        """Write the program's encoded bytes into data memory."""
        self.mem.write_bytes(program.base, program.encode())

    def load_from_memory(self, base: int, size: int, entry: Optional[int] = None) -> None:
        """Decode *size* bytes of memory at *base* and fetch from them.

        This is the fetch-from-encoded-image path: the binary placed in
        memory (e.g. by :meth:`materialize` or a loader) is decoded with
        the core's own decoder, closing the encode -> store -> decode ->
        execute loop end to end.
        """
        from ..asm.disassembler import disassemble_bytes

        blob = self.mem.read_bytes(base, size)
        imem = {}
        for ins in disassemble_bytes(blob, isa=self.isa, base=base):
            imem[ins.addr] = ins
        self._imem = imem
        self.pc = entry if entry is not None else base
        self._loaded_program = None
        self._block_digest = None
        self._imem_version += 1

    # ------------------------------------------------------------------
    # Memory interface used by instruction semantics
    # ------------------------------------------------------------------

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        if size > 1 and addr % size:
            self._misaligned += 1
        if self._mem_tracer is not None:
            self._mem_tracer.on_mem(
                self.hart_id, self.perf.cycles, addr, size, "r", None, 0)
        return self.mem.load(addr, size, signed)

    def store(self, addr: int, size: int, value: int) -> None:
        if size > 1 and addr % size:
            self._misaligned += 1
        if self._mem_tracer is not None:
            self._mem_tracer.on_mem(
                self.hart_id, self.perf.cycles, addr, size, "w", None, 0)
        self.mem.store(addr, size, value)

    def add_stall_cycles(self, cycles: int) -> None:
        """Charge extra stall cycles from a multicycle unit (e.g. the
        quantization FSM hitting a misaligned threshold)."""
        self._extra_stalls += cycles

    def add_tcdm_stall(self, cycles: int) -> None:
        """Charge cycles lost to TCDM bank arbitration (cluster memory
        ports call this when a same-bank access must wait its turn)."""
        self._tcdm_stalls += cycles

    # ------------------------------------------------------------------
    # Control and status registers (Zicsr)
    # ------------------------------------------------------------------

    def csr_read(self, addr: int) -> int:
        """Read a CSR: live counters, hardware-loop mirrors, or storage."""
        from ..isa import zicsr as z

        if addr in (z.CSR_MCYCLE, z.CSR_CYCLE):
            return self.perf.cycles & 0xFFFF_FFFF
        if addr in (z.CSR_MINSTRET, z.CSR_INSTRET):
            return self.perf.instructions & 0xFFFF_FFFF
        if addr == z.CSR_MHARTID:
            return self.hart_id
        hwloop_map = {
            z.CSR_LPSTART0: ("start", 0), z.CSR_LPEND0: ("end", 0),
            z.CSR_LPCOUNT0: ("count", 0), z.CSR_LPSTART1: ("start", 1),
            z.CSR_LPEND1: ("end", 1), z.CSR_LPCOUNT1: ("count", 1),
        }
        if addr in hwloop_map:
            attr, level = hwloop_map[addr]
            return getattr(self.hwloops, attr)[level]
        return self._csrs.get(addr, 0)

    def csr_write(self, addr: int, value: int) -> None:
        from ..isa import zicsr as z

        value &= 0xFFFF_FFFF
        hwloop_map = {
            z.CSR_LPSTART0: ("start", 0), z.CSR_LPEND0: ("end", 0),
            z.CSR_LPCOUNT0: ("count", 0), z.CSR_LPSTART1: ("start", 1),
            z.CSR_LPEND1: ("end", 1), z.CSR_LPCOUNT1: ("count", 1),
        }
        if addr in hwloop_map:
            attr, level = hwloop_map[addr]
            self.hwloops.configure(level, **{attr: value})
            return
        self._csrs[addr] = value

    def halt(self, reason: str) -> None:
        self._halted = reason

    @property
    def halted(self) -> Optional[str]:
        return self._halted

    @property
    def engine_stats(self) -> Optional[dict]:
        """Block-engine dispatch statistics accumulated by this core, or
        ``None`` when the translation engine has never been engaged."""
        if self._block_engine is None:
            return None
        return self._block_engine.stats.as_dict()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def reset(self, pc: int = 0) -> None:
        self.regs = RegisterFile()
        self.pc = pc
        self.hwloops.reset()
        self.perf.reset()
        self.timing.reset()
        self._halted = None
        self._misaligned = 0
        self._extra_stalls = 0
        self._tcdm_stalls = 0
        self._csrs.clear()
        self._region = None

    def step(self) -> None:
        """Execute one instruction and account its cycles."""
        ins = self._imem.get(self.pc)
        if ins is None:
            raise TrapError("instruction fetch fault", self.pc)
        regions = self.regions
        if regions is not None:
            name = regions.map.get(self.pc, regions.default_region)
            if name != self._region:
                self._enter_region(name)

        self._misaligned = 0
        self._extra_stalls = 0
        self._tcdm_stalls = 0
        next_pc = ins.spec.execute(self, ins)
        taken = next_pc is not None

        fall_through = self.pc + ins.spec.size
        if next_pc is None:
            redirect = self.hwloops.redirect(fall_through)
            if redirect is not None:
                next_pc = redirect
                self.perf.hwloop_backedges += 1
                if self._tracer is not None:
                    self._tracer.on_hwloop(self, self.pc, redirect)
            else:
                next_pc = fall_through

        timing = self.timing.step(ins, taken, self._misaligned)
        step_extra = self._extra_stalls + self._tcdm_stalls
        perf = self.perf
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

    def run(
        self,
        entry: Optional[int] = None,
        max_instructions: int = 200_000_000,
    ) -> PerfCounters:
        """Run until the program halts (``ebreak``/``ecall``).

        Returns the performance counters.  Raises :class:`SimError` if the
        instruction budget is exhausted (runaway loop guard).

        With ``engine="block"`` the run is dispatched through the
        block-translation engine (:mod:`repro.engine`) — bit- and
        cycle-identical to interpreting, but only engaged when nothing
        can observe intermediate state: a tracer or a contended cluster
        memory port falls back to the interpreter automatically.  An
        attached region profile does not; both paths charge it, and it
        is complete when the run returns.
        """
        if entry is not None:
            self.pc = entry
        self._halted = None
        try:
            if (
                self.engine == "block"
                and self._tracer is None
                and type(self.mem) is Memory
            ):
                from ..engine.engine import BlockEngine

                if self._block_engine is None:
                    self._block_engine = BlockEngine(self)
                return self._block_engine.run(max_instructions)
            step = self.step
            for _ in range(max_instructions):
                step()
                if self._halted is not None:
                    if self._tracer is not None:
                        self._tracer.on_halt(self)
                    return self.perf
            raise SimError(
                f"program did not halt within {max_instructions} "
                f"instructions (pc={self.pc:#010x})"
            )
        finally:
            self._close_region()

    def run_program(self, program, **kwargs) -> PerfCounters:
        """Convenience: load, reset perf, and run a linked program."""
        self.load_program(program)
        self.perf.reset()
        self.timing.reset()
        return self.run(entry=program.entry, **kwargs)

    # ------------------------------------------------------------------
    # Register convenience (tests and harnesses)
    # ------------------------------------------------------------------

    def set_args(self, *values: int) -> None:
        """Place call arguments in a0..a7 (the kernel calling convention)."""
        if len(values) > 8:
            raise SimError("at most 8 register arguments (a0..a7)")
        for i, value in enumerate(values):
            self.regs[10 + i] = value

    def result(self, index: int = 0) -> int:
        """Return aN after a run (a0 by default)."""
        return self.regs[10 + index]

    def __repr__(self) -> str:
        state = self._halted or "running"
        return f"Cpu(isa={self.isa.name}, pc={self.pc:#010x}, {state})"
