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
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..isa.bits import to_signed, u32
from ..isa.instruction import Instruction
from .cfg import Cfg

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

        new = dict(state)
        for reg in written:
            new.pop(reg, None)
        if value is not None and written == (ins.rd,):
            new[ins.rd] = value
        new[0] = 0
        return new


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
