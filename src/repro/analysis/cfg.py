"""Control-flow graph construction over linked :class:`Program`s.

Basic blocks are split at the usual leaders — the entry point, branch and
jump targets, and instructions following a control transfer — plus the two
leaders the RI5CY hardware loops introduce: the loop start (the
instruction after the ``lp.setup``/``lp.setupi``) and the loop end target.
The instruction whose fall-through address equals an active loop's end
gets an implicit back-edge to the loop start, which is exactly how
:class:`~repro.core.hwloop.HwLoopController` redirects fetch at run time.

Indirect jumps (``jalr``) terminate a block with no static successors;
for leaf kernels they only appear as ``ret``, so treating them as exits
keeps the graph honest without a pointer analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..asm.program import Program
from ..isa.instruction import Instruction

#: Mnemonics that configure hardware-loop state (XpulpV2 ``lp.*`` family).
HWLOOP_MNEMONICS = frozenset(
    {"lp.setup", "lp.setupi", "lp.starti", "lp.endi", "lp.count", "lp.counti"}
)

#: ``lp.*`` forms that define a complete loop region in one instruction.
HWLOOP_SETUP_MNEMONICS = frozenset({"lp.setup", "lp.setupi"})

#: Mnemonics that halt the core (no static successor).
HALT_MNEMONICS = frozenset({"ebreak", "ecall"})


@dataclass(frozen=True)
class HwLoop:
    """One statically-known hardware-loop region.

    ``start`` is the address of the first body instruction, ``end`` the
    address *after* the last body instruction (the controller convention).
    """

    level: int
    start: int
    end: int
    setup_addr: int
    count: Optional[int] = None   # known iteration count (lp.setupi)

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence."""

    index: int
    instructions: List[Instruction] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    @property
    def start(self) -> int:
        return self.instructions[0].addr

    @property
    def end(self) -> int:
        last = self.instructions[-1]
        return last.addr + last.size

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]

    def __repr__(self) -> str:
        return (
            f"BasicBlock({self.index}, {self.start:#x}..{self.end:#x}, "
            f"-> {self.successors})"
        )


@dataclass
class Cfg:
    """Blocks plus the loop regions recovered from the program."""

    program: Program
    blocks: List[BasicBlock]
    block_at: Dict[int, int]          # leader address -> block index
    loops: List[HwLoop]
    entry_block: int

    def block_of(self, addr: int) -> BasicBlock:
        """Block containing the instruction at *addr*."""
        for block in self.blocks:
            if block.start <= addr < block.end:
                return block
        raise KeyError(f"no block contains address {addr:#x}")

    def loops_containing(self, addr: int) -> List[HwLoop]:
        return [loop for loop in self.loops if loop.contains(addr)]


def _branch_target(ins: Instruction) -> Optional[int]:
    """Resolved PC-relative target of a branch/jump, if statically known."""
    if ins.addr is None:
        return None
    if "label" in ins.spec.syntax:
        return (ins.addr + ins.imm) & 0xFFFF_FFFF
    return None


def find_hwloops(program: Union[Program, List[Instruction]]
                 ) -> List[HwLoop]:
    """Recover loop regions from the ``lp.setup``/``lp.setupi``
    instructions of *program* (a :class:`Program` or its instructions).

    The split ``lp.starti``/``lp.endi``/``lp.count*`` configuration style
    is paired best-effort: consecutive ``starti``/``endi`` of the same
    level form a region (the kernel builders only emit the fused setups).
    """
    loops: List[HwLoop] = []
    pending_start: Dict[int, int] = {}
    if isinstance(program, Program):
        program = program.instructions
    for ins in program:
        name = ins.mnemonic
        if name in HWLOOP_SETUP_MNEMONICS:
            count = ins.rs1 if name == "lp.setupi" else None
            loops.append(
                HwLoop(
                    level=ins.rd,
                    start=ins.addr + ins.size,
                    end=(ins.addr + ins.imm) & 0xFFFF_FFFF,
                    setup_addr=ins.addr,
                    count=count,
                )
            )
        elif name == "lp.starti":
            pending_start[ins.rd] = (ins.addr + ins.imm) & 0xFFFF_FFFF
        elif name == "lp.endi" and ins.rd in pending_start:
            loops.append(
                HwLoop(
                    level=ins.rd,
                    start=pending_start.pop(ins.rd),
                    end=(ins.addr + ins.imm) & 0xFFFF_FFFF,
                    setup_addr=ins.addr,
                )
            )
    return loops


def postdominators(cfg: Cfg) -> Dict[int, Optional[int]]:
    """Immediate postdominator of every block (``None`` = the exit).

    Computed against a virtual exit node that every block without
    successors (halts, indirect jumps) flows into.  The static cost
    analyzer uses the immediate postdominator of a data-dependent branch
    as the fork/join point: both arms are walked to the join and merged
    as an interval, which keeps the analysis linear instead of
    enumerating paths.
    """
    n = len(cfg.blocks)
    exit_node = n
    succs = {
        block.index: (list(block.successors) or [exit_node])
        for block in cfg.blocks
    }
    everything = set(range(n + 1))
    pdom: Dict[int, set] = {i: set(everything) for i in range(n)}
    pdom[exit_node] = {exit_node}
    changed = True
    while changed:
        changed = False
        for index in range(n - 1, -1, -1):
            new = set.intersection(*(pdom[s] for s in succs[index]))
            new = new | {index}
            if new != pdom[index]:
                pdom[index] = new
                changed = True
    ipdom: Dict[int, Optional[int]] = {}
    for index in range(n):
        strict = pdom[index] - {index}
        # The immediate postdominator is the candidate whose own
        # postdominator set covers all candidates (strict pdoms chain).
        imm = next((c for c in strict if len(pdom[c]) == len(strict)), None)
        ipdom[index] = None if imm is None or imm == exit_node else imm
    return ipdom


def block_leaders(instructions: List[Instruction], entry: Optional[int],
                  loops: Optional[List[HwLoop]] = None) -> List[int]:
    """The sorted addresses that start a basic block of *instructions*
    (in address order) entered at *entry* (None: the first one); *loops*
    defaults to their :func:`find_hwloops`."""
    addrs = {ins.addr for ins in instructions}
    leaders = {instructions[0].addr}
    if entry is not None:
        leaders.add(entry)
    for ins in instructions:
        timing = ins.spec.timing
        fall_through = ins.addr + ins.size
        if timing in ("branch", "jump"):
            target = _branch_target(ins)
            if target is not None:
                leaders.add(target)
            leaders.add(fall_through)
        if ins.mnemonic in HALT_MNEMONICS:
            leaders.add(fall_through)
    for loop in find_hwloops(instructions) if loops is None else loops:
        # loop.end being a leader makes the back-edge source terminate
        # its block exactly at the loop boundary.
        leaders.add(loop.start)
        leaders.add(loop.end)
    return sorted(a for a in leaders if a in addrs)


def build_cfg(program: Program) -> Cfg:
    """Split *program* into basic blocks and wire the edges."""
    instructions = program.instructions
    if not instructions:
        raise ValueError("cannot build a CFG for an empty program")
    loops = find_hwloops(program)
    leaders = block_leaders(instructions, program.entry, loops)

    blocks: List[BasicBlock] = []
    block_at: Dict[int, int] = {}
    leader_set = set(leaders)
    current: Optional[BasicBlock] = None
    for ins in instructions:
        if ins.addr in leader_set or current is None:
            current = BasicBlock(index=len(blocks))
            blocks.append(current)
            block_at[ins.addr] = current.index
        current.instructions.append(ins)

    loop_ends = {loop.end: loop for loop in loops}

    def link(src: BasicBlock, target_addr: int) -> None:
        index = block_at.get(target_addr)
        if index is None:
            return
        if index not in src.successors:
            src.successors.append(index)
            blocks[index].predecessors.append(src.index)

    for block in blocks:
        last = block.terminator
        timing = last.spec.timing
        fall_through = last.addr + last.size
        if last.mnemonic in HALT_MNEMONICS:
            continue
        if timing == "jump":
            target = _branch_target(last)
            if target is not None:
                link(block, target)
            # jalr: indirect, no static successor.
            continue
        if timing == "branch":
            target = _branch_target(last)
            if target is not None:
                link(block, target)
            link(block, fall_through)
            continue
        # Straight-line block: hardware-loop back-edge, then fall-through.
        loop = loop_ends.get(fall_through)
        if loop is not None:
            link(block, loop.start)
        link(block, fall_through)

    entry_block = block_at.get(program.entry, 0)
    return Cfg(
        program=program,
        blocks=blocks,
        block_at=block_at,
        loops=loops,
        entry_block=entry_block,
    )
