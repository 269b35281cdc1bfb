"""A small forward-dataflow engine over the CFG.

Analyses subclass :class:`ForwardAnalysis` and provide three pieces: the
state at the program entry, a join for control-flow merges, and a
per-instruction transfer function.  :meth:`ForwardAnalysis.run` iterates
a worklist to the fixed point and returns the state *before* every
instruction, which is what the checkers consume (they inspect each use
site against the facts that hold on entry to the instruction).

States are treated as immutable values: ``transfer`` must return a fresh
state (or the input unchanged), and ``join`` must be commutative,
associative, and idempotent.  Plain dicts/frozensets work well.

Three concrete lattices used by the checkers live here as well:

* :class:`DefinednessAnalysis` — which registers are surely written on
  every path from the entry (a *must* analysis; the complement is the
  maybe-undefined set);
* :class:`ConstantAnalysis` — register values known statically
  (constant propagation through ``lui``/``addi``/moves and friends);
* :class:`FormatAnalysis` — the packed-SIMD element format last written
  to each register (byte/half/nibble/crumb or scalar).

Three facts serve the static cost walker (:mod:`repro.analysis.cost`):
:func:`find_counted_loops` recovers the software counted loops,
:func:`decision_registers` the registers whose constants can steer a
branch or a loop count, and :func:`decision_liveness` (a backward
analysis) where each of them still can.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from ..isa.bits import to_signed, u32
from ..isa.instruction import Instruction
from .cfg import HALT_MNEMONICS, HWLOOP_MNEMONICS, HWLOOP_SETUP_MNEMONICS, Cfg

#: Sentinel lattice values for per-register facts.
UNKNOWN = "?"


class ForwardAnalysis:
    """Worklist fixed-point over a :class:`~repro.analysis.cfg.Cfg`."""

    def entry_state(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def transfer(self, state, ins: Instruction):
        raise NotImplementedError

    def run(self, cfg: Cfg) -> Dict[int, object]:
        """Fixed point; returns ``{instruction address: state before}``."""
        block_in: Dict[int, object] = {cfg.entry_block: self.entry_state()}
        worklist = [cfg.entry_block]
        while worklist:
            index = worklist.pop()
            block = cfg.blocks[index]
            state = block_in.get(index)
            if state is None:
                continue
            for ins in block.instructions:
                state = self.transfer(state, ins)
            for succ in block.successors:
                merged = (
                    state if succ not in block_in
                    else self.join(block_in[succ], state)
                )
                if succ not in block_in or merged != block_in[succ]:
                    block_in[succ] = merged
                    if succ not in worklist:
                        worklist.append(succ)

        before: Dict[int, object] = {}
        for index, block in enumerate(cfg.blocks):
            state = block_in.get(index)
            if state is None:
                continue  # unreachable block
            for ins in block.instructions:
                before[ins.addr] = state
                state = self.transfer(state, ins)
        return before


# ---------------------------------------------------------------------------
# Register helpers shared by the concrete analyses
# ---------------------------------------------------------------------------

def written_registers(ins: Instruction) -> Tuple[int, ...]:
    """All registers the instruction writes (rd and/or post-inc base)."""
    regs = []
    syntax = ins.spec.syntax
    if any(part == "rd" for part in syntax):
        regs.append(ins.rd)
    if any("!" in part for part in syntax):
        regs.append(ins.rs1)
    return tuple(regs)


# ---------------------------------------------------------------------------
# Definedness (must-defined registers)
# ---------------------------------------------------------------------------

class DefinednessAnalysis(ForwardAnalysis):
    """Registers written on *every* path from the entry.

    The join is set intersection, so a register counts as defined at an
    instruction only when all incoming paths wrote it.  ``x0`` and the
    *entry_defined* set (registers the harness preloads per the kernel
    calling convention) are defined from the start.
    """

    def __init__(self, entry_defined: Iterable[int] = ()) -> None:
        self._entry: FrozenSet[int] = frozenset(entry_defined) | {0}

    def entry_state(self) -> FrozenSet[int]:
        return self._entry

    def join(self, a: FrozenSet[int], b: FrozenSet[int]) -> FrozenSet[int]:
        return a & b

    def transfer(self, state: FrozenSet[int], ins: Instruction) -> FrozenSet[int]:
        written = written_registers(ins)
        if not written:
            return state
        return state | frozenset(written)


# ---------------------------------------------------------------------------
# Constant propagation
# ---------------------------------------------------------------------------

_CONST_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & 31),
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: to_signed(a) >> (b & 31),
    "mul": lambda a, b: a * b,
}

_CONST_IMMOPS = {
    "addi": lambda a, imm: a + imm,
    "andi": lambda a, imm: a & u32(imm),
    "ori": lambda a, imm: a | u32(imm),
    "xori": lambda a, imm: a ^ u32(imm),
    "slli": lambda a, imm: a << (imm & 31),
    "srli": lambda a, imm: a >> (imm & 31),
    "srai": lambda a, imm: to_signed(a) >> (imm & 31),
}


class ConstantAnalysis(ForwardAnalysis):
    """Track statically-known register values.

    The state maps register index to a 32-bit value; absent registers are
    unknown.  The join keeps only agreeing constants.  The transfer
    understands the ``li`` expansion (``lui`` + ``addi``), ``auipc``, the
    common ALU ops on known inputs, and kills the destination of
    everything else (loads, CSR reads, SIMD, ...).
    """

    def entry_state(self) -> Dict[int, int]:
        return {0: 0}

    def join(self, a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
        if a == b:
            return a
        return {r: v for r, v in a.items() if b.get(r) == v}

    def transfer(self, state: Dict[int, int], ins: Instruction) -> Dict[int, int]:
        written = written_registers(ins)
        if not written:
            return state
        new = dict(state)
        apply_constant(new, ins, written)
        return new


def constant_operands(ins: Instruction) -> Tuple[int, ...]:
    """The registers :class:`ConstantAnalysis` reads to know what *ins*
    writes to ``rd`` (``()`` when the value is a constant or unknowable)."""
    name = ins.mnemonic
    if name in _CONST_IMMOPS:
        return (ins.rs1,)
    if name in _CONST_BINOPS:
        return (ins.rs1, ins.rs2)
    return ()


def apply_constant(state: Dict[int, int], ins: Instruction,
                   written: Tuple[int, ...]) -> None:
    """:meth:`ConstantAnalysis.transfer` in place: *written* is
    ``written_registers(ins)``, which callers hoist out of hot loops."""
    name = ins.mnemonic
    value: Optional[int] = None
    if name == "lui":
        value = u32(ins.imm << 12)
    elif name == "auipc":
        value = u32(ins.addr + (ins.imm << 12))
    elif name in _CONST_IMMOPS and ins.rs1 in state:
        value = u32(_CONST_IMMOPS[name](state[ins.rs1], ins.imm))
    elif name in _CONST_BINOPS and ins.rs1 in state and ins.rs2 in state:
        value = u32(_CONST_BINOPS[name](state[ins.rs1], state[ins.rs2]))
    for reg in written:
        state.pop(reg, None)
    if value is not None and written == (ins.rd,):
        state[ins.rd] = value
    state[0] = 0


_BRANCH_CONDS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: to_signed(a) < to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
    "bltu": lambda a, b: u32(a) < u32(b),
    "bgeu": lambda a, b: u32(a) >= u32(b),
}


def decide_branch(ins: Instruction, consts: Dict[int, int]) -> Optional[bool]:
    """Decide a branch from known register values (``None``: it depends
    on an unknown one)."""
    name = ins.mnemonic
    if name in ("c.beqz", "c.bnez"):
        if ins.rs1 not in consts:
            return None
        return (consts[ins.rs1] == 0) == (name == "c.beqz")
    if name in ("p.beqimm", "p.bneimm"):
        if ins.rs1 not in consts:
            return None
        equal = to_signed(consts[ins.rs1]) == to_signed(ins.rs2, 5)
        return equal == (name == "p.beqimm")
    cond = _BRANCH_CONDS.get(name)
    if cond is None or ins.rs1 not in consts or ins.rs2 not in consts:
        return None
    return bool(cond(consts[ins.rs1], consts[ins.rs2]))


# ---------------------------------------------------------------------------
# Software counted loops and decision liveness
# ---------------------------------------------------------------------------

#: The ``lp.starti``/``lp.endi``/``lp.count*`` style the walk leaves unfolded.
_SPLIT_HWLOOP_SETUP = HWLOOP_MNEMONICS - HWLOOP_SETUP_MNEMONICS


class CountedLoop(NamedTuple):
    """A software counted loop.  The backward ``bne counter, zero`` (or
    ``c.bnez counter``) at ``latch`` is the only such back-edge to
    ``head``; the body ``[head, latch]`` reads and writes ``counter`` only
    in one ``addi counter, counter, -step`` of the latch's basic block,
    so each iteration takes ``step`` off it.  The body cannot halt or
    jump indirectly, and its branches, jumps and hardware loops stay
    inside it (past ``head``), so the loop is left only through the
    latch, to ``exit``."""

    head: int
    latch: int
    exit: int
    counter: int
    step: int


def find_counted_loops(cfg: Cfg) -> List[CountedLoop]:
    """Every :class:`CountedLoop` of *cfg*'s program."""
    instrs = cfg.program.instructions
    index = {ins.addr: i for i, ins in enumerate(instrs)}
    latches: Dict[int, List[Instruction]] = {}
    for ins in instrs:
        head = u32(ins.addr + ins.imm)
        if ins.mnemonic in ("bne", "c.bnez") and head <= ins.addr:
            latches.setdefault(head, []).append(ins)
    loops = []
    for head, found in latches.items():
        latch = found[0]
        counter = (latch.rs1 if latch.mnemonic == "c.bnez" or latch.rs2 == 0
                   else latch.rs2 if latch.rs1 == 0 else 0)
        if len(found) > 1 or not counter or head not in index:
            continue
        tail = cfg.block_of(latch.addr).start
        step = 0
        for ins in instrs[index[head]:index[latch.addr]]:
            name, target = ins.mnemonic, u32(ins.addr + ins.imm)
            if (name in HALT_MNEMONICS or name in _SPLIT_HWLOOP_SETUP
                    or name in HWLOOP_SETUP_MNEMONICS and target > tail
                    or ins.spec.timing in ("branch", "jump") and not (
                        "label" in ins.spec.syntax and target in index
                        and head < target <= latch.addr)):
                break
            if counter in (ins.rd, ins.rs1, ins.rs2) and (
                    counter in written_registers(ins)
                    or counter in ins.source_registers()):
                if (step or name != "addi" or ins.imm >= 0
                        or ins.rd != counter or ins.rs1 != counter
                        or ins.addr < tail):
                    break
                step = -ins.imm
        else:
            if step:
                loops.append(CountedLoop(head, latch.addr,
                                         latch.addr + latch.size, counter,
                                         step))
    return loops


def _decides(ins: Instruction) -> bool:
    return ins.spec.timing == "branch" or ins.mnemonic == "lp.setup"


def decision_registers(cfg: Cfg) -> FrozenSet[int]:
    """The registers whose constant value can reach a decision — a branch
    operand or a ``lp.setup`` count register — directly or through the
    operations :class:`ConstantAnalysis` evaluates, anywhere in *cfg*'s
    program: a constant-propagating walk need track no other."""
    instrs = cfg.program.instructions
    regs = {reg for ins in instrs if _decides(ins)
            for reg in ins.source_registers()} - {0}
    size = 0
    while size != len(regs):
        size = len(regs)
        for ins in instrs:
            if ins.rd in regs:
                regs.update(constant_operands(ins))
        regs.discard(0)
    return frozenset(regs)


def decision_liveness(cfg: Cfg,
                      registers: FrozenSet[int]) -> Dict[int, FrozenSet[int]]:
    """Per block index, which of the :func:`decision_registers`
    *registers* can carry their value on entry to a decision (a backward
    may-analysis to the fixed point).  A register live at no point
    cannot change which way a constant-propagating walk goes."""
    def mask(regs) -> int:
        bits = 0
        for reg in regs:
            bits |= 1 << reg
        return bits & ~1

    tracked = mask(registers)
    code = [[(mask(written_registers(ins)) & tracked,
              mask(constant_operands(ins)),
              mask(ins.source_registers()) if _decides(ins) else 0)
             for ins in reversed(block.instructions)
             if _decides(ins) or ins.rd in registers or ins.rs1 in registers]
            for block in cfg.blocks]
    live_in = [0] * len(cfg.blocks)
    changed = True
    while changed:
        changed = False
        for block in reversed(cfg.blocks):
            live = 0
            for succ in block.successors:
                live |= live_in[succ]
            for written, operands, reads in code[block.index]:
                if live & written:
                    live = live & ~written | operands
                live |= reads
            if live != live_in[block.index]:
                live_in[block.index] = live
                changed = True
    return {index: frozenset(r for r in registers if live >> r & 1)
            for index, live in enumerate(live_in)}


# ---------------------------------------------------------------------------
# Packed-SIMD format tracking
# ---------------------------------------------------------------------------

#: Formats a register can hold: SIMD element widths or a scalar result.
FMT_SCALAR = "scalar"
FMT_NAMES = {"b": "byte", "h": "half", "n": "nibble", "c": "crumb"}

#: ``pv.*`` operation stems whose result is a plain 32-bit scalar (dot
#: products accumulate into one word; extracts select one lane).
_SCALAR_RESULT_STEMS = frozenset(
    {"dotup", "dotusp", "dotsp", "sdotup", "sdotusp", "sdotsp",
     "extract", "extractu"}
)


def simd_parts(mnemonic: str) -> Optional[Tuple[str, str, str]]:
    """Split ``pv.<stem>[.<variant>].<width>`` into its parts.

    Returns ``(stem, variant, width)`` with variant ``""``, ``"sc"`` or
    ``"sci"``; ``None`` for non-SIMD mnemonics.
    """
    if not mnemonic.startswith("pv."):
        return None
    parts = mnemonic.split(".")
    if len(parts) == 3:
        return parts[1], "", parts[2]
    if len(parts) == 4 and parts[2] in ("sc", "sci"):
        return parts[1], parts[2], parts[3]
    return None


class FormatAnalysis(ForwardAnalysis):
    """Track which SIMD element format each register was produced in.

    Vector-producing ``pv.*`` ops tag their destination with the width
    suffix; dot products and extracts tag it scalar; every other write
    (loads, ALU, moves) resets the register to unknown, since packed data
    routinely arrives via plain ``lw``.
    """

    def entry_state(self) -> Dict[int, str]:
        return {}

    def join(self, a: Dict[int, str], b: Dict[int, str]) -> Dict[int, str]:
        if a == b:
            return a
        return {r: v for r, v in a.items() if b.get(r) == v}

    def transfer(self, state: Dict[int, str], ins: Instruction) -> Dict[int, str]:
        written = written_registers(ins)
        if not written:
            return state
        new = dict(state)
        for reg in written:
            new.pop(reg, None)
        parts = simd_parts(ins.mnemonic)
        if parts is not None and written:
            stem, _, width = parts
            fmt = FMT_SCALAR if stem in _SCALAR_RESULT_STEMS else width
            new[written[0]] = fmt
        new.pop(0, None)
        return new
