"""Basic-block discovery and the translation cache.

A *block* is a maximal run of straight-line instructions: everything
whose timing class cannot transfer control or mutate loop/CSR state
mid-stream.  Branches, jumps, ``ebreak``/``ecall``, CSR accesses (they
read live cycle counters and can write hardware-loop registers) and the
``lp.*`` setup instructions terminate discovery and always execute on
the interpreter.

Blocks are decoded once into flat per-instruction tables — semantics,
fall-through addresses, static cycle/stall prefix sums, per-class
retirement counts — so the executors in :mod:`repro.engine.fastblock`
and :mod:`repro.engine.nest` never touch a dict-per-instruction fetch
or allocate a :class:`~repro.core.timing.StepTiming` again.
:meth:`Block.price` is the one rule that prices a straight-line run,
entry load-use hazard included; the fast blocks, the fused loops and
the static walker of :mod:`repro.analysis.cost` all charge through it.

Translated blocks are cached process-wide keyed on
``(program digest, ISA name)`` — plus the region partition when a
region profile is attached — and the block's start address, so repeated
runs of the same program (the serve pool, sweeps, trajectory
regeneration) skip discovery entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..core.timing import LOAD_USE_PENALTY

#: Timing classes that end a block (and run on the interpreter).
TERMINATOR_CLASSES = frozenset({"branch", "jump", "system", "csr", "hwloop"})

#: Discovery cap; longer straight-line runs split into chained blocks.
MAX_BLOCK_INSTRUCTIONS = 256

#: Process-wide translated-program cap (LRU).
MAX_CACHED_PROGRAMS = 64


class Block:
    """One decoded straight-line block with precomputed accounting."""

    __slots__ = (
        "addr", "n", "instrs", "execs", "addrs", "fts", "ft_index",
        "addr_index", "srcs", "lu", "prefix", "lu_prefix", "pending",
        "classes", "cls_prefix",
    )

    def __init__(self, instrs: list) -> None:
        n = len(instrs)
        self.addr = instrs[0].addr
        self.n = n
        self.instrs = instrs
        self.execs = [ins.spec.execute for ins in instrs]
        self.addrs = [ins.addr for ins in instrs]
        self.fts = [ins.addr + ins.spec.size for ins in instrs]
        self.ft_index = {ft: i for i, ft in enumerate(self.fts)}
        self.addr_index = {a: i for i, a in enumerate(self.addrs)}
        self.srcs = [ins.source_registers() for ins in instrs]

        # rd loaded by the previous instruction (None when it is not a
        # load) — the value Cpu._pending_load_rd holds after it.
        self.pending = [
            ins.rd if ins.spec.timing == "load" else None for ins in instrs
        ]
        lu = [0] * n
        for i in range(1, n):
            pend = self.pending[i - 1]
            if pend and pend in self.srcs[i]:
                lu[i] = LOAD_USE_PENALTY
        self.lu = lu
        prefix = [0] * (n + 1)
        lu_prefix = [0] * (n + 1)
        for i, ins in enumerate(instrs):
            prefix[i + 1] = prefix[i] + ins.spec.cycles + lu[i]
            lu_prefix[i + 1] = lu_prefix[i] + lu[i]
        self.prefix = prefix
        self.lu_prefix = lu_prefix
        self.classes = [ins.spec.timing for ins in instrs]
        self.cls_prefix = _prefix_counts(self.classes)

    def price(self, lo: int, hi: int,
              pending: Optional[int]) -> Tuple[int, int]:
        """``(cycles, load_use_stalls)`` of ``instrs[lo:hi]`` run straight
        through after an instruction that loaded *pending* (``None`` when
        it was not a load).  Dynamic stalls — misaligned accesses, unit
        and TCDM stalls — are the caller's to add."""
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


def discover(imem: dict, addr: int, regions=None) -> Optional[Block]:
    """Decode the block starting at *addr*, or ``None`` when the first
    instruction is absent (fetch fault) or interpreter-only.  With a
    region profile (:class:`~repro.core.regions.RegionCounters`) the
    block also ends where the next instruction lies in another region."""
    region = regions.region_of(addr) if regions is not None else None
    instrs = []
    a = addr
    while len(instrs) < MAX_BLOCK_INSTRUCTIONS:
        ins = imem.get(a)
        if ins is None or ins.spec.timing in TERMINATOR_CLASSES:
            break
        if regions is not None and regions.region_of(a) != region:
            break
        instrs.append(ins)
        a += ins.spec.size
    if not instrs:
        return None
    return Block(instrs)


class ProgramBlockCache:
    """LRU map of translated programs shared across cores.

    Keys are ``(program digest, ISA name[, region partition])``; the value
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
