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

from ..errors import DecodeError, SimError, TrapError
from ..isa.registers import RegisterFile
from ..isa.registry import Isa, build_isa
from ..soc.memory import Memory
from ..soc.memmap import L2_SIZE
from ..target.names import XPULPNN
from ..trace.tracer import Tracer
from .hwloop import HwLoopController
from .perf import PerfCounters
from .regions import RegionCounters
from .timing import (
    BRANCH_TAKEN_PENALTY,
    JUMP_PENALTY,
    LOAD_USE_PENALTY,
    MISALIGNED_PENALTY,
    StepTiming,
)

#: Default standalone data/instruction memory size (PULPissimo's L2).
DEFAULT_MEM_SIZE = L2_SIZE

#: The engine of a core built without ``engine=``; ``"interp"`` is the
#: interpreter the block-translation engine is checked against.
DEFAULT_ENGINE = "block"


class ProvisionalClock(SimError):
    """A cycle CSR was read while the core's clock was provisional: a
    cluster replay epoch charges TCDM stalls only after every core has
    run, so the value such a read returns is not known yet."""


class Cpu:
    """Cycle-approximate functional model of the (extended) RI5CY core."""

    def __init__(
        self,
        isa: str | Isa = XPULPNN,
        mem: Optional[Memory] = None,
        hart_id: int = 0,
        engine: Optional[str] = None,
    ) -> None:
        engine = DEFAULT_ENGINE if engine is None else engine
        if engine not in ("block", "interp"):
            raise SimError(f"unknown engine {engine!r}; choose block or interp")
        self.isa = build_isa(isa) if isinstance(isa, str) else isa
        self.mem = mem if mem is not None else Memory(DEFAULT_MEM_SIZE, base=0)
        self.hart_id = hart_id
        self.regs = RegisterFile()
        self.pc = 0
        self.hwloops = HwLoopController()
        self.perf = PerfCounters()
        #: The register the previous instruction loaded (``None`` when
        #: it was not a load): the one piece of pipeline state the
        #: timing rules carry between retires.
        self._pending_load_rd: Optional[int] = None
        self._tracer: Optional[Tracer] = None
        self._mem_tracer: Optional[Tracer] = None

        #: Execution engine for :meth:`run` — "block" runs translated
        #: basic blocks (:mod:`repro.engine`) when nothing observable
        #: prevents it; "interp" steps every instruction.
        self.engine = engine
        self._block_engine = None
        self._loaded_program = None
        self._block_digest: Optional[str] = None
        self._imem_version = 0

        self._imem: dict = {}
        self._illegal: frozenset = frozenset()
        self._halted: Optional[str] = None
        self._misaligned = 0
        self._extra_stalls = 0
        self._tcdm_stalls = 0
        self._csrs: dict = {}

        #: Region profile (:class:`~repro.core.regions.RegionCounters`)
        #: charged by every run while attached; None keeps the hot path
        #: to one check per retired instruction.  Every retire path
        #: charges its region directly, the numbers it charges ``perf``.
        self.regions: Optional[RegionCounters] = None
        #: The region :meth:`step` last charged and its counters; dropped
        #: wherever the table can change under them (a run's start,
        #: :meth:`reset`, :meth:`restore`).
        self._region: Optional[str] = None
        self._region_acc: Optional[PerfCounters] = None
        #: While a cluster replays an epoch on this core: the stall-free
        #: clock at which the core first entered each region.  Not None
        #: also marks ``perf.cycles`` as provisional (TCDM stalls come
        #: later), so reading a cycle CSR raises :class:`ProvisionalClock`.
        self._epoch: Optional[dict] = None

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

    def region_counters(self, name: str) -> PerfCounters:
        """The counters of region *name*, which the next retires enter;
        under a cluster's replay the region's first-entry clock is
        noted."""
        if self._epoch is not None:
            self._epoch.setdefault(name, self.perf.cycles)
        return self.regions.counters_for(name)

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------

    def load_program(self, program, digest: Optional[str] = None) -> None:
        """Attach a linked :class:`~repro.asm.program.Program`.

        Instructions are indexed by address for fetch; use
        :meth:`materialize` as well if the run should also place encoded
        bytes into data memory (needed only when code reads itself).
        *digest* is the program's :meth:`~repro.asm.program.Program.digest`
        when the caller already has it (a cluster computes it once for
        all its cores); otherwise the block engine computes it on use.
        """
        imem = {}
        for ins in program.instructions:
            if ins.addr is None:
                raise SimError(
                    f"instruction {ins!r} has no address; link the program first"
                )
            imem[ins.addr] = ins
        self._imem = imem
        self._illegal = frozenset()
        self.pc = program.entry
        self._loaded_program = program
        self._block_digest = digest
        self._imem_version += 1

    def materialize(self, program) -> None:
        """Write the program's encoded bytes into data memory."""
        self.mem.write_bytes(program.base, program.encode())

    def load_from_memory(self, base: int, size: int, entry: Optional[int] = None) -> None:
        """Decode *size* bytes of memory at *base* and fetch from them.

        This is the fetch-from-encoded-image path: the binary placed in
        memory (e.g. by :meth:`materialize` or a loader) is decoded with
        the core's own decoder, closing the encode -> store -> decode ->
        execute loop end to end.  A word that does not decode (data
        placed after the code, or a truncated tail) is left out, and
        fetching it traps as an illegal instruction.
        """
        from ..asm.disassembler import decode_at, instruction_size

        blob = self.mem.read_bytes(base, size)
        imem = {}
        illegal = set()
        offset = 0
        while offset < size:
            try:
                ins = decode_at(blob, offset, self.isa)
            except DecodeError:
                illegal.add(base + offset)
                offset += instruction_size(blob[offset])
                continue
            ins.addr = base + offset
            imem[ins.addr] = ins
            offset += ins.size
        self._imem = imem
        self._illegal = frozenset(illegal)
        self.pc = entry if entry is not None else base
        self._loaded_program = None
        self._block_digest = None
        self._imem_version += 1

    # ------------------------------------------------------------------
    # Memory interface used by instruction semantics
    # ------------------------------------------------------------------

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        if addr & (size - 1) or self._mem_tracer is not None:
            self._note_access(addr, size, "r")
        return self.mem.load(addr, size, signed)

    def store(self, addr: int, size: int, value: int) -> None:
        if addr & (size - 1) or self._mem_tracer is not None:
            self._note_access(addr, size, "w")
        self.mem.store(addr, size, value)

    def _note_access(self, addr: int, size: int, kind: str) -> None:
        """The slow side of a data access (*size* is 1, 2 or 4): count
        a misaligned one as a split transaction and report the access
        to a memory tracer."""
        if addr & (size - 1):
            self._misaligned += 1
        if self._mem_tracer is not None:
            self._mem_tracer.on_mem(
                self.hart_id, self.perf.cycles, addr, size, kind, None, 0)

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
            if self._epoch is not None:
                raise ProvisionalClock(
                    f"cycle CSR {addr:#05x} read during a replayed epoch")
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

    def checkpoint(self) -> tuple:
        """The state :meth:`restore` puts back: registers, pc, hardware
        loops, counters, the pending load-use hazard, the halt reason and
        the CSRs (a cluster rolls a replayed epoch back with it)."""
        hw = self.hwloops
        return (self.regs.snapshot(), self.pc, list(hw.start), list(hw.end),
                list(hw.count), self.perf.copy(), self._pending_load_rd,
                self._halted, dict(self._csrs))

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`checkpoint` (counters are restored in place)."""
        (regs, self.pc, start, end, count, perf, self._pending_load_rd,
         self._halted, csrs) = state
        self.regs = RegisterFile(regs)
        hw = self.hwloops
        hw.start[:], hw.end[:], hw.count[:] = start, end, count
        self.perf.reset()
        self.perf.merge(perf)
        self._csrs.clear()
        self._csrs.update(csrs)
        self._region = None

    def reset(self, pc: int = 0) -> None:
        self.regs = RegisterFile()
        self.pc = pc
        self.hwloops.reset()
        self.perf.reset()
        self._pending_load_rd = None
        self._halted = None
        self._misaligned = 0
        self._extra_stalls = 0
        self._tcdm_stalls = 0
        self._csrs.clear()
        self._region = None

    def step(self) -> None:
        """Execute one instruction and account its cycles.

        The retire is priced in plain integers: the timing class's base
        cycles, the taken-branch or jump penalty, a load-use stall when
        the previous instruction loaded a register this one reads, the
        misaligned-access penalty, and the multicycle-unit and TCDM
        stalls the semantics charged.  A
        :class:`~repro.core.timing.StepTiming` is built only as the
        payload of an attached tracer's ``on_retire``.
        """
        pc = self.pc
        ins = self._imem.get(pc)
        if ins is None:
            if pc in self._illegal:
                raise TrapError("illegal instruction", pc)
            raise TrapError("instruction fetch fault", pc)
        regions = self.regions
        if regions is not None:
            name = regions.map.get(pc, regions.default_region)
            if name != self._region:
                self._region = name
                self._region_acc = self.region_counters(name)

        self._misaligned = 0
        self._extra_stalls = 0
        self._tcdm_stalls = 0
        spec = ins.spec
        next_pc = spec.execute(self, ins)
        cls = spec.timing
        perf = self.perf
        tracer = self._tracer

        branch = jump = 0
        if next_pc is None:
            next_pc = pc + spec.size
            hw = self.hwloops
            count = hw.count
            end = hw.end
            # A halting ebreak/ecall at a loop end retires without taking
            # the back-edge: the core stops on the fall-through.
            if (((count[0] and end[0] == next_pc)
                    or (count[1] and end[1] == next_pc))
                    and self._halted is None):
                redirect = hw.redirect(next_pc)
                if redirect is not None:
                    perf.hwloop_backedges += 1
                    if regions is not None:
                        self._region_acc.hwloop_backedges += 1
                    if tracer is not None:
                        tracer.on_hwloop(self, pc, redirect)
                    next_pc = redirect
        elif cls == "branch":
            branch = BRANCH_TAKEN_PENALTY
        if cls == "jump":
            jump = JUMP_PENALTY

        load_use = 0
        pending = self._pending_load_rd
        if pending:
            for source in spec.source_fields:
                if getattr(ins, source) == pending:
                    load_use = LOAD_USE_PENALTY
                    break
        self._pending_load_rd = ins.rd if cls == "load" else None

        base = spec.cycles
        misaligned = self._misaligned * MISALIGNED_PENALTY
        extra = self._extra_stalls
        tcdm = self._tcdm_stalls
        cycles = base + branch + jump + load_use + misaligned + extra + tcdm
        perf.cycles += cycles
        perf.instructions += 1
        perf.by_class[cls] += 1
        if load_use:
            perf.stall_load_use += load_use
        if branch:
            perf.stall_branch += branch
        if jump:
            perf.stall_jump += jump
        if misaligned or extra:
            perf.stall_misaligned += misaligned + extra
        if tcdm:
            perf.stall_tcdm_contention += tcdm
        if regions is not None:
            region = self._region_acc
            region.cycles += cycles
            region.instructions += 1
            region.by_class[cls] += 1
            region.stall_load_use += load_use
            region.stall_branch += branch
            region.stall_jump += jump
            region.stall_misaligned += misaligned + extra
            region.stall_tcdm_contention += tcdm
        if tracer is not None:
            tracer.on_retire(self, pc, ins, StepTiming(
                base, branch, jump, load_use, misaligned))
        self.pc = next_pc

    def run(
        self,
        entry: Optional[int] = None,
        max_instructions: int = 200_000_000,
    ) -> PerfCounters:
        """Run until the program halts (``ebreak``/``ecall``).

        Returns the performance counters.  Raises :class:`SimError` if the
        instruction budget is exhausted (runaway loop guard).

        The run is dispatched through the block-translation engine
        (:mod:`repro.engine`) — bit- and cycle-identical to interpreting,
        but only engaged when nothing can observe intermediate state: a
        plain :class:`~repro.soc.memory.Memory`, or a memory that logs
        every access for a later arbitration replay (``logs_accesses``:
        the port a cluster core runs an epoch against, see
        :mod:`repro.cluster.replay`).  A tracer or any other memory, such
        as a cluster core's arbitrating TCDM port, falls back to the
        interpreter, as does ``engine="interp"``.  An attached region
        profile does not; both paths charge it, and it is complete when
        the run returns.
        """
        if entry is not None:
            self.pc = entry
        self._halted = None
        self._region = None
        if (
            self.engine == "block"
            and self._tracer is None
            and (type(self.mem) is Memory
                 or getattr(self.mem, "logs_accesses", False))
        ):
            from ..engine.engine import BlockEngine

            if self._block_engine is None:
                self._block_engine = BlockEngine()
            return self._block_engine.run(self, max_instructions)
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

    def run_program(self, program, **kwargs) -> PerfCounters:
        """Convenience: load, reset perf, and run a linked program."""
        self.load_program(program)
        self.perf.reset()
        self._pending_load_rd = None
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
