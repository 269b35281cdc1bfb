"""Basic-block discovery and the translation cache.

A *block* is a maximal run of straight-line instructions, optionally
ended by one control transfer that executes in it: a conditional branch
or a direct jump (``jal``, ``c.j``, ``c.jal``).  ``ebreak``/``ecall``,
indirect jumps, CSR accesses (they read live cycle counters and can
write hardware-loop registers) and the ``lp.*`` setup instructions
terminate discovery before them and always execute on the interpreter.

A block is priced from flat per-instruction tables — static cycle and
load-use prefix sums, per-class retirement counts — that
:meth:`Block.price` reads: the one rule that prices a straight-line run,
entry load-use hazard included.  The fast blocks, the fused loops and
the static walker of :mod:`repro.analysis.cost` all charge through it;
a control transfer's taken-branch or jump penalty is the caller's to
add.  The executor's tables — semantics, addresses, fall-through
indexes — and the links to the blocks a control transfer leads to are
built only for a block the engine runs (:meth:`Block.translate`), so
the static walker pays for neither.

Translated blocks are cached process-wide keyed on
``(program digest, ISA name)`` and the block's start address, so
repeated runs of the same program (the serve pool, sweeps, trajectory
regeneration, a profiled run after a plain one) skip discovery
entirely.  A region profile does not enter the key: blocks run through
region boundaries, and the engine charges each region its share
(:func:`region_spans`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..core.timing import LOAD_USE_PENALTY

#: Timing classes that end a block: a conditional branch or a direct jump
#: as its last instruction (:func:`control_kind`), anything else before
#: it, to run on the interpreter.
TERMINATOR_CLASSES = frozenset({"branch", "jump", "system", "csr", "hwloop"})

#: Discovery cap; longer straight-line runs split into chained blocks.
MAX_BLOCK_INSTRUCTIONS = 256

#: Process-wide translated-program cap (LRU).
MAX_CACHED_PROGRAMS = 64

#: A successor link not yet resolved (see :meth:`Block.translate`).
UNLINKED = object()


def control_kind(ins) -> Optional[str]:
    """``"branch"`` or ``"jump"`` for a conditional branch or a direct
    (PC-relative) jump, which ends a block inside it; None otherwise."""
    timing = ins.spec.timing
    if timing == "branch" or (timing == "jump"
                              and "label" in ins.spec.syntax):
        return timing
    return None


class Block:
    """One decoded block with precomputed accounting."""

    __slots__ = (
        "addr", "n", "instrs", "end", "srcs", "lu", "prefix", "lu_prefix",
        "pending", "classes", "cls_prefix",
        # executor tables, built by translate()
        "execs", "addrs", "fts", "ft_index", "addr_index", "exit",
        "target", "taken", "fall", "head",
    )

    def __init__(self, instrs: list) -> None:
        n = len(instrs)
        self.addr = instrs[0].addr
        self.n = n
        self.instrs = instrs
        last = instrs[-1]
        #: the fall-through address of the last instruction
        self.end = last.addr + last.spec.size
        srcs = self.srcs = [ins.source_registers() for ins in instrs]

        # rd loaded by the previous instruction (None when it is not a
        # load) — the value Cpu._pending_load_rd holds after it.
        pending = self.pending = [
            ins.rd if ins.spec.timing == "load" else None for ins in instrs
        ]
        lu = [0] * n
        prefix = [0] * (n + 1)
        lu_prefix = [0] * (n + 1)
        cycles = stalls = 0
        pend = None
        for i, ins in enumerate(instrs):
            if pend and pend in srcs[i]:
                lu[i] = LOAD_USE_PENALTY
                stalls += LOAD_USE_PENALTY
            cycles += ins.spec.cycles + lu[i]
            prefix[i + 1] = cycles
            lu_prefix[i + 1] = stalls
            pend = pending[i]
        self.lu = lu
        self.prefix = prefix
        self.lu_prefix = lu_prefix
        self.classes = [ins.spec.timing for ins in instrs]
        self.cls_prefix = _prefix_counts(self.classes)

    def translate(self) -> "Block":
        """Build the executor's tables and leave the successor links
        unresolved; returns the block.  ``exit`` is the
        :func:`control_kind` of the last instruction, ``target`` its
        static taken target, and ``taken``/``fall`` the blocks at
        ``target``/``end`` once the engine has looked them up.  ``head``
        is the software counted loop (:class:`~repro.analysis.dataflow.
        CountedLoop`) the block starts, if any."""
        instrs = self.instrs
        self.execs = [ins.spec.execute for ins in instrs]
        self.addrs = [ins.addr for ins in instrs]
        self.fts = [ins.addr + ins.spec.size for ins in instrs]
        self.ft_index = {ft: i for i, ft in enumerate(self.fts)}
        self.addr_index = {a: i for i, a in enumerate(self.addrs)}
        last = instrs[-1]
        self.exit = control_kind(last)
        self.target = ((last.addr + last.imm) & 0xFFFF_FFFF
                       if self.exit else None)
        self.taken = self.fall = UNLINKED
        self.head = None
        return self

    def link(self, addr: int, block) -> None:
        """Record *block* (None: interpreter-only) as the one at *addr*
        when that is where this block's exit leads."""
        if addr == self.target:
            self.taken = block
        elif addr == self.end:
            self.fall = block

    def price(self, lo: int, hi: int,
              pending: Optional[int]) -> Tuple[int, int]:
        """``(cycles, load_use_stalls)`` of ``instrs[lo:hi]`` run straight
        through after an instruction that loaded *pending* (``None`` when
        it was not a load).  Dynamic stalls — misaligned accesses, unit
        and TCDM stalls, a taken branch's or a jump's penalty — are the
        caller's to add."""
        entry = (LOAD_USE_PENALTY if pending and pending in self.srcs[lo]
                 else 0) - self.lu[lo]
        return (self.prefix[hi] - self.prefix[lo] + entry,
                self.lu_prefix[hi] - self.lu_prefix[lo] + entry)

    def __repr__(self) -> str:
        return f"Block({self.addr:#x}, {self.n} instrs)"


def _prefix_counts(labels: List[str]) -> Dict[str, List[int]]:
    """Prefix counts per label, keyed in first-occurrence order."""
    out: Dict[str, List[int]] = {}
    n = len(labels)
    for key in dict.fromkeys(labels):
        pref = [0] * (n + 1)
        count = 0
        for i, label in enumerate(labels):
            if label == key:
                count += 1
            pref[i + 1] = count
        out[key] = pref
    return out


def region_spans(instrs: list, lo: int, hi: int,
                 region_of) -> List[Tuple[object, int, int]]:
    """``(region, a, b)`` for each maximal run ``instrs[a:b]`` of
    ``instrs[lo:hi]`` whose addresses *region_of* maps to one region."""
    spans = []
    a = lo
    name = region_of(instrs[lo].addr)
    for i in range(lo + 1, hi):
        other = region_of(instrs[i].addr)
        if other != name:
            spans.append((name, a, i))
            a, name = i, other
    spans.append((name, a, hi))
    return spans


def discover(imem: dict, addr: int, stops=()) -> Optional[Block]:
    """Decode and translate the block starting at *addr*, or ``None``
    when the first instruction is absent (fetch fault) or
    interpreter-only.  The block ends before any later address in
    *stops* (the heads of software counted loops, where a loop plan
    takes over)."""
    instrs = []
    a = addr
    while len(instrs) < MAX_BLOCK_INSTRUCTIONS:
        ins = imem.get(a)
        if ins is None or (instrs and a in stops):
            break
        if ins.spec.timing in TERMINATOR_CLASSES:
            if control_kind(ins):
                instrs.append(ins)
            break
        instrs.append(ins)
        a += ins.spec.size
    if not instrs:
        return None
    return Block(instrs).translate()


class ProgramBlockCache:
    """LRU map of translated programs shared across cores.

    Keys are ``(program digest, ISA name)``; the value
    is the per-program ``{start addr: Block | None}`` map (``None``
    records interpreter-only start addresses so repeated dispatches skip
    re-discovery), which also holds the loop shapes of
    :mod:`repro.engine.nest` under ``(start, end, level, other end)``.
    """

    def __init__(self, max_programs: int = MAX_CACHED_PROGRAMS) -> None:
        self._programs: OrderedDict[Tuple, Dict[object, object]] = (
            OrderedDict())
        self.max_programs = max_programs

    def map_for(self, key: Tuple) -> Dict[object, object]:
        try:
            blocks = self._programs[key]
            self._programs.move_to_end(key)
        except KeyError:
            blocks = self._programs[key] = {}
            while len(self._programs) > self.max_programs:
                self._programs.popitem(last=False)
        return blocks

    def clear(self) -> None:
        self._programs.clear()

    def __len__(self) -> int:
        return len(self._programs)


#: The shared cross-run cache (see :meth:`BlockEngine._block_map`).
GLOBAL_CACHE = ProgramBlockCache()
