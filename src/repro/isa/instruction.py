"""Instruction and instruction-specification model.

The ISA layer separates *what an instruction is* (:class:`InstrSpec`:
mnemonic, encoding fields, operand syntax, semantics, timing class) from
*one occurrence of it* (:class:`Instruction`: a spec plus concrete operand
values and, once linked, an address).

Semantics are plain functions ``execute(cpu, ins) -> int | None`` that
mutate the CPU state and return the next program counter, or ``None`` to
fall through to ``pc + ins.size``.  The timing model never lives in the
semantic function; it is driven by ``InstrSpec.timing``, priced by
:data:`CLASS_CYCLES` and the penalties in :mod:`repro.core.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

#: Base cycles of each timing class on RI5CY/XpulpNN: the pipeline
#: occupancy of one instruction before hazards.  The stall penalties
#: (taken branch, jump, load-use, misaligned access) live in
#: :mod:`repro.core.timing`.
CLASS_CYCLES = {
    "alu": 1,       # single-cycle integer/SIMD arithmetic
    "mul": 1,       # single-cycle multiplier (RI5CY mul/ dotp family)
    "div": 35,      # iterative divider
    "load": 1,      # data memory read
    "store": 1,     # data memory write
    "branch": 1,    # conditional branch (penalty when taken)
    "jump": 1,      # unconditional control transfer (always flushes)
    "hwloop": 1,    # hardware-loop setup instructions
    "qnt_n": 9,     # pv.qnt.n: two 4-bit activations (paper §III-B2)
    "qnt_c": 5,     # pv.qnt.c: two 2-bit activations
    "system": 1,    # fence/ecall/ebreak
    "csr": 1,       # CSR access
}

#: Timing classes understood by the core timing model.
TIMING_CLASSES = frozenset(CLASS_CYCLES)

#: Data-memory transactions of one instruction of each class that
#: reaches the memory system: a load or store is one access; the
#: quantization FSM performs 2 threshold reads per tree level, 8 per
#: ``pv.qnt.n`` and 4 per ``pv.qnt.c``.
DATA_ACCESSES = {"load": 1, "store": 1, "qnt_n": 8, "qnt_c": 4}

#: Timing classes whose instructions reach the memory system.  Every
#: other class touches only its own core's registers, CSRs and hardware
#: loops, which lets the cluster scheduler run those instructions ahead
#: of the global clock order (see :mod:`repro.cluster.cluster`).
SHARED_TIMING_CLASSES = frozenset(DATA_ACCESSES)


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one instruction mnemonic.

    Attributes:
        mnemonic: canonical assembler mnemonic, e.g. ``pv.sdotsp.n``.
        fmt: encoding-format key registered in :mod:`repro.isa.encoding`.
        fixed: fixed encoding field values (``opcode``, ``funct3``, ...).
        syntax: operand syntax signature used by the assembler and
            disassembler, e.g. ``("rd", "rs1", "rs2")`` or
            ``("rd", "imm(rs1!)",)``.
        execute: semantic function ``(cpu, ins) -> next_pc | None``.
        timing: timing class (one of :data:`TIMING_CLASSES`).
        rd_is_src: the destination register is also read (accumulating
            ops such as ``pv.sdotsp`` and ``p.mac``); used by the hazard
            model and by the builder's liveness checks.
        size: encoded size in bytes (2 for compressed, else 4).
        isa: name of the ISA subset this spec belongs to (``rv32i``,
            ``xpulpv2``, ``xpulpnn``, ...), used to build per-core
            instruction registries.
        fusion: vectorizable-semantics descriptor for the block engine
            (:mod:`repro.engine`), or ``None`` when the op has no batch
            form and hot loops containing it run block-at-a-time.  The
            first element names the handler family (``"load_post"``,
            ``"dotp"``, ``"alu_rr"``, ...); the rest parameterize it.
            ``("interp",)`` explicitly marks ops whose timing depends on
            dynamic machine state (the quantization FSM) and must never
            be folded into a fused superinstruction.
    """

    mnemonic: str
    fmt: str
    fixed: dict
    syntax: Tuple[str, ...]
    execute: Callable[["object", "Instruction"], Optional[int]]
    timing: str = "alu"
    rd_is_src: bool = False
    size: int = 4
    isa: str = "rv32i"
    fusion: Optional[Tuple] = None
    #: Operand fields the instruction reads (a subset of ``rs1``, ``rs2``,
    #: ``rd``), derived from *syntax* and *rd_is_src* once per spec.
    source_fields: Tuple[str, ...] = field(
        init=False, repr=False, compare=False)
    #: Base cycles of the timing class (:data:`CLASS_CYCLES`).
    cycles: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.timing not in TIMING_CLASSES:
            raise ValueError(
                f"{self.mnemonic}: unknown timing class {self.timing!r}"
            )
        sources = [
            name for name in ("rs1", "rs2")
            if any(name in part for part in self.syntax)
        ]
        if self.rd_is_src:
            sources.append("rd")
        object.__setattr__(self, "source_fields", tuple(sources))
        object.__setattr__(self, "cycles", CLASS_CYCLES[self.timing])

    def __reduce__(self):
        # The ``execute`` closure is unpicklable, but every spec is a
        # module-level singleton in its subset table — reconstruct by
        # name so instructions, programs, and compile plans can cross
        # process boundaries (repro.serve workers) intact.
        return (_restore_spec, (self.isa, self.mnemonic))

    def __repr__(self) -> str:
        return f"InstrSpec({self.mnemonic})"


def _restore_spec(subset: str, mnemonic: str) -> "InstrSpec":
    """Unpickle helper: the canonical spec for (subset, mnemonic)."""
    from .registry import SUBSETS

    for spec in SUBSETS[subset]:
        if spec.mnemonic == mnemonic:
            return spec
    raise ValueError(
        f"cannot restore spec {mnemonic!r}: not in ISA subset {subset!r}")


@dataclass
class Instruction:
    """One concrete instruction: a spec plus operand values.

    ``imm`` holds the immediate in its *semantic* form (byte offsets for
    branches/jumps, the 20-bit value for ``lui``/``auipc``).  ``target``
    carries an unresolved label name between assembly and linking; the
    linker replaces it with a concrete ``imm`` relative to ``addr``.
    """

    spec: InstrSpec
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    rs3: int = 0
    imm: int = 0
    addr: Optional[int] = None
    target: Optional[str] = None
    comment: str = ""

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    @property
    def size(self) -> int:
        return self.spec.size

    def source_registers(self) -> Tuple[int, ...]:
        """Register indices read by this instruction (for hazard checks)."""
        return tuple([getattr(self, name) for name in self.spec.source_fields])

    def __repr__(self) -> str:
        ops = []
        for part in self.spec.syntax:
            if part == "rd":
                ops.append(f"x{self.rd}")
            elif "rs1" in part:
                ops.append(part.replace("rs1", f"x{self.rs1}").replace("imm", str(self.imm)))
            elif "rs2" in part:
                ops.append(f"x{self.rs2}")
            elif "imm" in part or part in {"label", "uimm"}:
                ops.append(self.target if self.target else str(self.imm))
        loc = f"@{self.addr:#x}" if self.addr is not None else ""
        return f"<{self.mnemonic} {', '.join(ops)}{loc}>"
