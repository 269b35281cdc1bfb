"""Static cycle analysis: predict kernel cost without simulating.

The timing model of :mod:`repro.core.timing` is simple enough — per-class
occupancy plus load-use / taken-branch / jump hazards — that cycle counts
can be *derived* from the program text instead of measured, WCET-style.
This module walks a linked :class:`~repro.asm.program.Program` along its
control flow one *segment* at a time — a CFG basic block, cut where the
``.region`` changes — and prices each segment with
:meth:`~repro.engine.blocks.Block.price`, the rule the block engine
charges its straight-line runs with.  The segment's last instruction
does the control flow.  The walk carries three pieces of abstract state:

* a **constant environment** (the transfer function of
  :class:`~repro.analysis.dataflow.ConstantAnalysis`, applied
  path-sensitively to the registers a decision can read), which resolves
  loop trip counts — in this repo's kernels ``lp.setupi`` immediates or
  constants materialized with ``li`` — plus branch conditions and
  ``mhartid``;
* the **pending load destination** of the previous instruction, which
  decides a segment's entry load-use stall exactly like the core's
  retire path (:meth:`~repro.core.cpu.Cpu.step`) does — as an interval,
  since after a fork it may be a set of registers;
* the **loop folds**: a hardware loop, or a software counted loop
  (:class:`~repro.analysis.dataflow.CountedLoop`) entered with a known
  count, is walked twice — the first iteration with the incoming facts,
  a steady one with the body-written registers havoced — and charged
  ``first + (n-1) * steady`` plus ``n-1`` back-edges (taken-branch
  penalties for a software loop), so the walk grows with how loops nest,
  not with their trip counts.  A software loop folds only where that
  equals walking each iteration, as the constants resolve its back-edge
  otherwise: no register its body writes, the counter aside, may carry a
  value into a later branch or loop count
  (:func:`~repro.analysis.dataflow.decision_liveness`).  A hardware loop
  always folds; an unknown count leaves it unbounded above.

Costs are plain integers: two fixed-slot vectors, the low and high ends
of cycles, instructions, back-edges and every stall kind, timing class,
region and CFG block.  They part only where a data-dependent branch (the
software-quantization comparison trees) forks; the arms re-join at its
immediate postdominator and merge slot by slot, and the report's
:class:`Interval` values are built once, at the end.  The result is a
:class:`StaticCostReport` whose cycle count is **exact** (a one-point
interval, proven against the simulator in the parity tests) on
straight-line and hardware-loop kernels, and a tight interval on branchy
ones.

Modeling assumptions (also listed in every report): data accesses are
aligned, TCDM bank arbitration and event-unit idle cycles are not
charged (they are cluster-level effects, reported separately by the
simulator), and an indirect jump ends the analyzed path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..asm.program import Program
from ..core.perf import PerfCounters
from ..core.timing import BRANCH_TAKEN_PENALTY, JUMP_PENALTY, LOAD_USE_PENALTY
from ..engine.blocks import Block
from ..errors import ReproError
from ..isa.bits import u32
from ..isa.instruction import Instruction
from ..isa.zicsr import CSR_MHARTID
from .cfg import (HALT_MNEMONICS, HWLOOP_SETUP_MNEMONICS, Cfg, HwLoop,
                  build_cfg, postdominators)
from .dataflow import (CountedLoop, apply_constant, decide_branch,
                       decision_liveness, decision_registers,
                       find_counted_loops, written_registers)


class CostError(ReproError):
    """The static analyzer could not bound the program."""


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``; ``hi=None`` is unbounded."""

    lo: int
    hi: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hi is not None and self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, value: int) -> "Interval":
        return cls(value, value)

    @property
    def is_exact(self) -> bool:
        return self.hi == self.lo

    @property
    def bounded(self) -> bool:
        return self.hi is not None

    @property
    def midpoint(self) -> float:
        return self.lo if self.hi is None else (self.lo + self.hi) / 2

    @property
    def width(self) -> Optional[int]:
        return None if self.hi is None else self.hi - self.lo

    def contains(self, value: int) -> bool:
        return self.lo <= value and (self.hi is None or value <= self.hi)

    def __add__(self, other: "Interval | int") -> "Interval":
        if isinstance(other, int):
            other = Interval.exact(other)
        hi = (None if self.hi is None or other.hi is None
              else self.hi + other.hi)
        return Interval(self.lo + other.lo, hi)

    __radd__ = __add__

    def union(self, other: "Interval") -> "Interval":
        hi = (None if self.hi is None or other.hi is None
              else max(self.hi, other.hi))
        return Interval(min(self.lo, other.lo), hi)

    def to_json(self):
        if self.is_exact:
            return self.lo
        return [self.lo, self.hi]

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lo)
        if self.hi is None:
            return f">={self.lo}"
        return f"[{self.lo}, {self.hi}]"


ZERO = Interval.exact(0)


# ---------------------------------------------------------------------------
# Integer costs
# ---------------------------------------------------------------------------

#: Stall categories mirrored from :class:`~repro.core.perf.PerfCounters`.
STALL_KEYS = ("stall_load_use", "stall_branch", "stall_jump",
              "stall_misaligned", "stall_tcdm_contention")

#: The fixed cost slots; each timing class, region and CFG block of the
#: walked program gets one more (numbered by :class:`_Walker`).
_CYCLES, _INSTRUCTIONS, _BACKEDGES = 0, 1, 2
_STALL = {key: 3 + i for i, key in enumerate(STALL_KEYS)}
_FIXED = 3 + len(STALL_KEYS)
#: An upper end at or above this is unbounded (no real count reaches it).
_UNBOUNDED = 1 << 62


class _Cost:
    """A walked path's cost: the lower and upper ends of every slot's
    interval as two int lists.  They differ only below a data-dependent
    fork (or an unbounded loop count); intervals are built once, for the
    report.  A class, region or block slot whose upper end is 0 was never
    charged and stays out of the report."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: List[int], hi: Optional[List[int]] = None):
        self.lo, self.hi = lo, lo[:] if hi is None else hi

    def copy(self) -> "_Cost":
        return _Cost(self.lo[:], self.hi[:])

    def charge(self, slots, amount: int) -> None:
        for slot in slots:
            self.lo[slot] += amount
            self.hi[slot] += amount

    def add(self, other: "_Cost") -> "_Cost":
        self.lo = [a + b for a, b in zip(self.lo, other.lo)]
        self.hi = [a + b for a, b in zip(self.hi, other.hi)]
        return self

    def add_scaled(self, other: "_Cost", lo: int,
                   hi: Optional[int]) -> "_Cost":
        """Add *other* repeated ``lo..hi`` times (``hi=None``: unbounded,
        which leaves every fixed or charged slot unbounded above)."""
        self.lo = [a + b * lo for a, b in zip(self.lo, other.lo)]
        if hi is None:
            self.hi = [a + _UNBOUNDED if b or i < _FIXED else a
                       for i, (a, b) in enumerate(zip(self.hi, other.hi))]
        else:
            self.hi = [a + b * hi for a, b in zip(self.hi, other.hi)]
        return self

    def union(self, other: "_Cost") -> "_Cost":
        self.lo = list(map(min, self.lo, other.lo))
        self.hi = list(map(max, self.hi, other.hi))
        return self

    def interval(self, slot: int) -> Interval:
        hi = self.hi[slot]
        return Interval(self.lo[slot], None if hi >= _UNBOUNDED else hi)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

#: Bump when the JSON layout of :meth:`StaticCostReport.to_dict` changes.
COST_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LoopBound:
    """One hardware loop and where its trip count came from."""

    setup_addr: int
    level: int
    start: int
    end: int
    count: Interval
    source: str                 # "imm" | "const" | "unknown"

    def to_dict(self) -> Dict[str, object]:
        return {
            "setup_addr": self.setup_addr,
            "level": self.level,
            "start": self.start,
            "end": self.end,
            "count": self.count.to_json(),
            "source": self.source,
        }


@dataclass
class StaticCostReport:
    """Statically derived cycle cost of one linked program."""

    name: str
    cycles: Interval
    instructions: Interval
    hwloop_backedges: Interval
    stalls: Dict[str, Interval]
    by_class: Dict[str, Interval]
    by_region: Dict[str, Interval]
    by_block: Dict[int, Interval]
    loop_bounds: List[LoopBound] = field(default_factory=list)
    assumptions: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def exact(self) -> bool:
        """The analysis produced a single cycle count with no caveats."""
        return self.cycles.is_exact and not self.warnings

    @property
    def bounded(self) -> bool:
        return self.cycles.bounded

    def relative_error(self, cycles: int) -> float:
        """Relative error of the interval midpoint against *cycles*."""
        if cycles == 0:
            return 0.0 if self.cycles.contains(0) else float("inf")
        return abs(self.cycles.midpoint - cycles) / cycles

    def compare(self, perf: PerfCounters) -> List[str]:
        """Mismatches against simulated counters (empty = consistent).

        Idle and TCDM-contention cycles are cluster-level effects the
        static model deliberately excludes, so the comparison is against
        the core-active cycle count.
        """
        active = (perf.cycles - perf.idle_cycles
                  - perf.stall_tcdm_contention)
        problems = []
        checks = [
            ("cycles (active)", active, self.cycles),
            ("instructions", perf.instructions, self.instructions),
            ("hwloop_backedges", perf.hwloop_backedges,
             self.hwloop_backedges),
            ("stall_load_use", perf.stall_load_use,
             self.stalls["stall_load_use"]),
            ("stall_branch", perf.stall_branch, self.stalls["stall_branch"]),
            ("stall_jump", perf.stall_jump, self.stalls["stall_jump"]),
            ("stall_misaligned", perf.stall_misaligned,
             self.stalls["stall_misaligned"]),
        ]
        for label, actual, interval in checks:
            if not interval.contains(actual):
                problems.append(
                    f"{label}: simulated {actual}, static {interval}")
        for cls, interval in self.by_class.items():
            actual = perf.by_class.get(cls, 0)
            if not interval.contains(actual):
                problems.append(
                    f"class {cls}: simulated {actual}, static {interval}")
        return problems

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": COST_SCHEMA_VERSION,
            "name": self.name,
            "exact": self.exact,
            "cycles": self.cycles.to_json(),
            "instructions": self.instructions.to_json(),
            "hwloop_backedges": self.hwloop_backedges.to_json(),
            "stalls": {k: v.to_json() for k, v in self.stalls.items()},
            "by_class": {k: v.to_json()
                         for k, v in sorted(self.by_class.items())},
            "by_region": {k: v.to_json()
                          for k, v in sorted(self.by_region.items())},
            "by_block": {str(k): v.to_json()
                         for k, v in sorted(self.by_block.items())},
            "loop_bounds": [b.to_dict() for b in self.loop_bounds],
            "assumptions": list(self.assumptions),
            "warnings": list(self.warnings),
        }

    def render(self) -> str:
        kind = "exact" if self.exact else (
            "bounded" if self.bounded else "unbounded")
        lines = [f"{self.name}: {self.cycles} cycles ({kind}), "
                 f"{self.instructions} instructions"]
        stalls = ", ".join(f"{k.replace('stall_', '')}={v}"
                           for k, v in self.stalls.items()
                           if v != ZERO)
        if stalls:
            lines.append(f"  stalls: {stalls}")
        if self.hwloop_backedges != ZERO:
            lines.append(f"  hwloop back-edges: {self.hwloop_backedges}")
        for region, cycles in sorted(self.by_region.items()):
            lines.append(f"  region {region:<12s} {cycles}")
        for bound in self.loop_bounds:
            lines.append(
                f"  loop @{bound.setup_addr:#x} level {bound.level}: "
                f"count {bound.count} ({bound.source})")
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The abstract walker
# ---------------------------------------------------------------------------

#: Pending-load state: the set of registers that *may* hold an in-flight
#: load result, and whether "no pending load" is also possible.  A definite
#: single pending register is ``({rd}, False)``; merges widen both.
_Pending = Tuple[FrozenSet[int], bool]
_NO_PENDING: _Pending = (frozenset(), True)

_HALT = object()     # walk exit sentinel: the path retired ebreak/ecall

_CSR_READS = frozenset({"csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi",
                        "csrrci"})


class _PathEnd:
    """Result of one walked path segment."""

    __slots__ = ("cost", "consts", "pending", "exit", "terminals")

    def __init__(self, cost: _Cost, consts: Dict[int, int],
                 pending: _Pending, exit_at, terminals: List[_Cost]):
        self.cost, self.consts, self.pending = cost, consts, pending
        self.exit = exit_at       # address, or _HALT
        self.terminals = terminals  # halted fork-arm costs, walk-relative


class _Segment:
    """One priced segment and the cost slots charging it touches."""

    __slots__ = ("addr", "n", "index", "last", "cls", "srcs", "fall",
                 "pending", "writes", "cycles", "counts", "timed", "taken")

    def __init__(self, run: List[Instruction], index: int, region: str,
                 walker: "_Walker") -> None:
        block = Block(run)
        self.addr, self.n, self.index = block.addr, block.n, index
        self.last = run[-1]
        self.cls, self.srcs, self.fall = (self.last.spec.timing,
                                          block.srcs[0], block.end)
        rd = block.pending[-1]
        self.pending = (frozenset({rd}), False) if rd else _NO_PENDING
        # Register writes for the constant transfer, each with the value
        # an mhartid read yields or None: CSR reads are opaque to
        # ConstantAnalysis, but this one is a per-core constant.
        hart = walker.hart_id
        self.writes = [
            (ins, written, u32(hart) if hart is not None and ins.rd
             and ins.mnemonic in _CSR_READS and ins.imm == CSR_MHARTID
             else None)
            for ins in run if not walker.tracked.isdisjoint(
                written := walker.written_of[ins.addr])]
        cycles, stalls = block.price(0, block.n, None)
        jump = JUMP_PENALTY if self.cls == "jump" else 0
        self.cycles = cycles + jump
        self.timed = (_CYCLES, walker.slot("region", region),
                      walker.slot("block", index))
        self.taken = self.timed + (_STALL["stall_branch"],)
        self.counts = [(_INSTRUCTIONS, block.n),
                       (_STALL["stall_load_use"], stalls),
                       (_STALL["stall_jump"], jump)] + [
            (walker.slot("class", cls), pref[-1])
            for cls, pref in block.cls_prefix.items()]


class _Loop:
    """A loop the walk folds, walked from ``head`` to ``stop`` and left at
    ``exit``: a hardware loop (``hw``) or a software counted loop
    (``sw``), whose ``latch`` segment the fold charges itself; each
    repeat adds the ``backedge`` slots' amount."""

    __slots__ = ("hw", "sw", "latch", "head", "stop", "exit", "written",
                 "backedge")

    def __init__(self, written: FrozenSet[int], hw: Optional[HwLoop] = None,
                 sw: Optional[CountedLoop] = None,
                 latch: Optional[_Segment] = None) -> None:
        self.hw, self.sw, self.latch, self.written = hw, sw, latch, written
        self.head, self.stop, self.exit, self.backedge = (
            (hw.start, hw.end, hw.end, ((_BACKEDGES,), 1)) if hw else
            (sw.head, latch.addr, sw.exit,
             (latch.taken, BRANCH_TAKEN_PENALTY)))


class _Walker:
    """Path-sensitive abstract interpreter over the timing model."""

    def __init__(self, program: Program, cfg: Cfg,
                 hart_id: Optional[int], max_steps: int) -> None:
        self.cfg, self.hart_id = cfg, hart_id
        self.max_steps, self.steps = max_steps, 0
        self.slots: Dict[Tuple[str, object], int] = {}
        # One pass over the instructions: what each one writes, for the
        # constant transfer and the loops' havoc sets.  Constants are kept
        # only for the registers a branch or loop count can read.
        self.written_of = {ins.addr: written_registers(ins)
                           for ins in program.instructions}
        self.tracked = decision_registers(cfg)
        # Priced straight-line segments keyed by start address: the CFG
        # blocks, cut where the region changes, so each one charges
        # exactly one region and one CFG block.
        region_of = program.region_map()
        self.segments: Dict[int, _Segment] = {}
        for block in cfg.blocks:
            for region, run in groupby(
                    block.instructions,
                    key=lambda ins: region_of.get(ins.addr, "-")):
                run = list(run)
                self.segments[run[0].addr] = _Segment(run, block.index,
                                                      region, self)
        self.ipdom: Optional[Dict[int, Optional[int]]] = None  # on a fork

        def written(first: int, stop: int) -> FrozenSet[int]:
            return frozenset().union(*(
                self.written_of[ins.addr] for block in cfg.blocks[first:stop]
                for ins in block.instructions)) - {0}

        last = len(cfg.blocks)      # loop starts and ends are leaders
        self.hw_loops: Dict[int, _Loop] = {
            loop.setup_addr: _Loop(written(cfg.block_at.get(loop.start, last),
                                           cfg.block_at.get(loop.end, last)),
                                   hw=loop)
            for loop in cfg.loops}
        # A software loop folds where that equals walking each iteration:
        # no register its body writes, the counter aside, carries a value
        # around the back-edge or out of the loop into a branch or a loop
        # count, which the steady iteration's havoc would lose.
        tails = {seg.last.addr: seg for seg in self.segments.values()}
        counted = [(loop, tails[loop.latch])
                   for loop in find_counted_loops(cfg.program.instructions,
                                                  list(cfg.block_at))]
        live = decision_liveness(cfg, self.tracked) if counted else {}
        self.sw_loops: Dict[int, _Loop] = {}
        for loop, tail in counted:
            body = written(cfg.block_at[loop.head], tail.index + 1)
            if not live[cfg.block_at[loop.head]] & body - {loop.counter}:
                self.sw_loops[loop.head] = _Loop(body, sw=loop, latch=tail)
        self.loop_bounds: Dict[int, LoopBound] = {}
        self.warnings: List[str] = []
        self.assumptions: List[str] = []

    # -- helpers --------------------------------------------------------

    def slot(self, kind: str, name) -> int:
        return self.slots.setdefault((kind, name), _FIXED + len(self.slots))

    def zero(self) -> _Cost:
        return _Cost([0] * (_FIXED + len(self.slots)))

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    def assume(self, message: str) -> None:
        if message not in self.assumptions:
            self.assumptions.append(message)

    def _charge(self, cost: _Cost, seg: _Segment, pending: _Pending,
                branch: int) -> None:
        """Charge one pass through *seg* entered after *pending*; the
        entry load-use stall is the only interval-valued part."""
        regs, maybe_none = pending
        hits = regs.intersection(seg.srcs) if regs else None
        lu_hi = LOAD_USE_PENALTY if hits else 0
        lu_lo = lu_hi if hits == regs and not maybe_none else 0
        lo, hi = cost.lo, cost.hi
        for slot, amount in seg.counts:
            lo[slot] += amount
            hi[slot] += amount
        base = seg.cycles + branch
        for slot in seg.timed:
            lo[slot] += base + lu_lo
            hi[slot] += base + lu_hi
        lo[_STALL["stall_load_use"]] += lu_lo
        hi[_STALL["stall_load_use"]] += lu_hi
        cost.charge((_STALL["stall_branch"],), branch)

    @staticmethod
    def _transfer(seg: _Segment, consts: Dict[int, int]) -> Dict[int, int]:
        """Constants after *seg*; its control transfer writes no
        register, so its branch or loop count reads these."""
        if seg.writes:
            consts = dict(consts)
            for ins, written, hart in seg.writes:
                apply_constant(consts, ins, written)
                if hart is not None:
                    consts[ins.rd] = hart
        return consts

    @staticmethod
    def _join_consts(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
        if a == b:
            return a
        joined = {r: v for r, v in a.items() if b.get(r) == v}
        joined[0] = 0
        return joined

    # -- loop folding ---------------------------------------------------

    def _hw_count(self, ins: Instruction, loop: _Loop,
                  consts: Dict[int, int]) -> Interval:
        """Trip count of the hardware loop *ins* sets up, recorded in the
        loop bounds, where re-walks of one setup site merge (a nested
        loop is walked once per enclosing iteration)."""
        if ins.mnemonic == "lp.setupi":
            count, source = Interval.exact(ins.rs1), "imm"
        elif ins.rs1 in consts:
            count, source = Interval.exact(consts[ins.rs1]), "const"
        else:
            count, source = Interval(1, None), "unknown"
            self.warn(f"hardware-loop count at {ins.addr:#x} is not a "
                      f"materialized constant; cycles are unbounded above")
        old = self.loop_bounds.setdefault(ins.addr, LoopBound(
            setup_addr=ins.addr, level=loop.hw.level, start=loop.head,
            end=loop.stop, count=count, source=source))
        if old.count != count:
            self.loop_bounds[ins.addr] = replace(
                old, count=old.count.union(count),
                source=old.source if old.source == source else "unknown")
        return count

    def _iterate(self, loop: _Loop, consts: Dict[int, int],
                 pending: _Pending, stops: FrozenSet[int],
                 depth: int) -> _PathEnd:
        """Walk one iteration of *loop* to its exit."""
        if loop.hw is not None:
            return self.walk(loop.head, consts, pending,
                             frozenset({loop.stop}), depth + 1)
        end = self.walk(loop.head, consts, pending, stops | {loop.stop},
                        depth + 1, skip=loop.head)
        if end.exit == loop.stop:
            # The latch, untaken: the fold charges the back-edges.
            end.consts = self._transfer(loop.latch, end.consts)
            self._charge(end.cost, loop.latch, end.pending, 0)
            end.pending, end.exit = loop.latch.pending, loop.exit
        return end

    def _fold(self, loop: _Loop, lo: int, hi: Optional[int],
              consts: Dict[int, int], pending: _Pending,
              stops: FrozenSet[int], depth: int) -> _PathEnd:
        """Charge *loop* run ``lo..hi`` times (``None``: unbounded): the
        first iteration walked with the entry facts, one steady iteration
        with the body-written registers havoced, ``first + (n-1) *
        steady``, plus ``n-1`` back-edges."""
        # A count of zero still runs the body once and falls through
        # (HwLoopController.redirect never fires with count 0).
        lo, hi = max(lo, 1), None if hi is None else max(hi, 1)
        first = self._iterate(loop, consts, pending, stops, depth)
        cost, terminals = first.cost, list(first.terminals)
        if first.exit != loop.exit:
            if first.exit is not _HALT and loop.hw is not None:
                self.warn(f"hardware-loop body at {loop.head:#x} exited at "
                          f"an unexpected address; loop not folded")
            return _PathEnd(cost, first.consts, first.pending,
                            first.exit, terminals)
        exit_consts, pending_out = first.consts, first.pending
        if hi != 1:
            havoced = {r: v for r, v in first.consts.items()
                       if r not in loop.written}
            steady = self._iterate(loop, havoced, first.pending, stops, depth)
            if steady.exit != loop.exit:
                self.warn(f"hardware-loop body at {loop.head:#x} exited at "
                          f"an unexpected address on the steady-state "
                          f"iteration")
                return _PathEnd(cost, steady.consts, steady.pending,
                                steady.exit, terminals)
            if steady.terminals:
                self.warn(f"path halts inside the hardware-loop body at "
                          f"{loop.head:#x}; repeat count not applied to it")
                terminals.extend(steady.terminals)
            steady.cost.charge(*loop.backedge)
            cost.add_scaled(steady.cost, lo - 1,
                            None if hi is None else hi - 1)
            pending_out = steady.pending
            exit_consts = (steady.consts if lo >= 2
                           else self._join_consts(first.consts,
                                                  steady.consts))
            if loop.sw:     # the havoc lost what the exit test proves
                exit_consts = {**exit_consts, loop.sw.counter: 0}
        return _PathEnd(cost, exit_consts, pending_out, loop.exit, terminals)

    # -- the main walk --------------------------------------------------

    def walk(self, pc: int, consts: Dict[int, int], pending: _Pending,
             stops: FrozenSet[int], depth: int = 0,
             skip: Optional[int] = None) -> _PathEnd:
        """Walk from *pc* to a stop or a halt; *skip* is the head of the
        software loop whose one iteration this walk is."""
        if depth > 80:
            raise CostError("branch fork nesting exceeds the analyzer limit")
        cost = self.zero()
        terminals: List[_Cost] = []
        while True:
            if pc in stops:
                return _PathEnd(cost, consts, pending, pc, terminals)
            loop = self.sw_loops.get(pc)
            count = loop and pc != skip and consts.get(loop.sw.counter)
            # A software loop's trips; 0 (its count unknown, or one that
            # wraps) walks it per iteration.
            trips = (count // loop.sw.step
                     if count and not count % loop.sw.step else 0)
            skip = None
            if trips:
                end = self._fold(loop, trips, trips, consts, pending, stops,
                                 depth)
            elif (seg := self.segments.get(pc)) is None:
                self.warn(f"no instruction at {pc:#010x}; path abandoned")
                return _PathEnd(cost, consts, pending, _HALT, terminals)
            else:
                self.steps += seg.n
                if self.steps > self.max_steps:
                    raise CostError(
                        f"analysis exceeded {self.max_steps} abstract steps "
                        f"(unfoldable loop?)")
                consts = self._transfer(seg, consts)
                ins, cls = seg.last, seg.cls
                outcome = (decide_branch(ins, consts) if cls == "branch"
                           else None)
                self._charge(cost, seg, pending,
                             BRANCH_TAKEN_PENALTY if outcome else 0)
                pending, pc = seg.pending, seg.fall
                if ins.mnemonic in HWLOOP_SETUP_MNEMONICS:
                    loop = self.hw_loops.get(ins.addr)
                    if loop is None or loop.stop <= loop.head:
                        self.warn(f"malformed hardware loop at {ins.addr:#x}")
                        continue
                    count = self._hw_count(ins, loop, consts)
                    end = self._fold(loop, count.lo, count.hi, consts,
                                     pending, stops, depth)
                elif cls == "branch" and outcome is None:
                    end = self._fork(seg, consts, pending, stops, depth)
                elif cls == "branch" or (cls == "jump"
                                         and "label" in ins.spec.syntax):
                    if outcome is not False:    # taken, or a direct jump
                        pc = u32(ins.addr + ins.imm)
                    continue
                elif cls == "jump" or ins.mnemonic in HALT_MNEMONICS:
                    # An indirect jump ends the path; a halting ebreak or
                    # ecall is retired and counted, like the simulator does.
                    if cls == "jump":
                        self.assume("indirect jump (jalr/ret) treated as the "
                                    "end of the analyzed path")
                    return _PathEnd(cost, consts, pending, _HALT, terminals)
                else:
                    continue
            for terminal in end.terminals:
                terminals.append(cost.copy().add(terminal))
            cost.add(end.cost)
            if end.exit is _HALT:
                return _PathEnd(cost, end.consts, end.pending, _HALT,
                                terminals)
            consts, pending, pc = end.consts, end.pending, end.exit

    def _fork(self, seg: _Segment, consts: Dict[int, int],
              pending: _Pending, stops: FrozenSet[int],
              depth: int) -> _PathEnd:
        """Walk both arms of the data-dependent branch ending *seg* to its
        immediate postdominator and merge their costs as an interval."""
        ins = seg.last
        if self.ipdom is None:
            self.ipdom = postdominators(self.cfg)
        if (join := self.ipdom.get(seg.index)) is not None:
            stops = stops | {self.cfg.blocks[join].start}
        taken = self.walk(u32(ins.addr + ins.imm), consts, pending, stops,
                          depth + 1)
        fall = self.walk(seg.fall, consts, pending, stops, depth + 1)
        for path in (taken.cost, *taken.terminals):
            path.charge(seg.taken, BRANCH_TAKEN_PENALTY)
        arms = [end for end in (taken, fall) if end.exit is not _HALT]
        terminals = taken.terminals + fall.terminals + [
            end.cost for end in (taken, fall) if end.exit is _HALT]
        if not arms:
            # No path leaves the fork: one halted arm is the walk's own.
            return _PathEnd(terminals[0], consts, pending, _HALT,
                            terminals[1:])
        if len(arms) == 1:
            (end,) = arms
            return _PathEnd(end.cost, end.consts, end.pending, end.exit,
                            terminals)
        if taken.exit != fall.exit:
            self.warn(f"branch arms at {ins.addr:#x} rejoin at different "
                      f"addresses; continuing along the fall-through")
        return _PathEnd(
            taken.cost.union(fall.cost),
            self._join_consts(taken.consts, fall.consts),
            (taken.pending[0] | fall.pending[0],
             taken.pending[1] or fall.pending[1]),
            fall.exit, terminals)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

#: Modeling assumptions attached to every report.
BASE_ASSUMPTIONS = (
    "data accesses are aligned (no misaligned-split stalls)",
    "no TCDM bank contention (cluster arbitration not modeled)",
    "event-unit idle cycles excluded (compare against active cycles)",
)


def analyze_cost(
    program: Program,
    name: str = "<program>",
    hart_id: Optional[int] = 0,
    bindings: Optional[Dict[int, int]] = None,
    max_steps: int = 2_000_000,
) -> StaticCostReport:
    """Statically derive the cycle cost of a linked *program*.

    *hart_id* resolves ``mhartid`` reads (``None`` leaves them opaque,
    which turns hart guards into forks).  *bindings* seeds the constant
    environment with parameter registers the harness would preload
    (register index -> value); loop counts read from bound registers
    become exact instead of unbounded.
    """
    cfg = build_cfg(program)
    walker = _Walker(program, cfg, hart_id, max_steps)
    for note in BASE_ASSUMPTIONS:
        walker.assume(note)
    if hart_id is not None:
        walker.assume(f"mhartid reads resolve to hart {hart_id}")
    consts: Dict[int, int] = {0: 0}
    for reg, value in (bindings or {}).items():
        consts[reg] = u32(value)
    end = walker.walk(program.entry, consts, _NO_PENDING, frozenset())
    total = end.cost
    if end.exit is not _HALT:
        walker.warn("the analyzed path did not reach a halt")
    for terminal in end.terminals:
        total.union(terminal)
    named: Dict[str, Dict] = {"class": {}, "region": {}, "block": {}}
    for (kind, key), slot in walker.slots.items():
        if total.hi[slot]:
            named[kind][key] = total.interval(slot)
    return StaticCostReport(
        name=name,
        cycles=total.interval(_CYCLES),
        instructions=total.interval(_INSTRUCTIONS),
        hwloop_backedges=total.interval(_BACKEDGES),
        stalls={key: total.interval(slot) for key, slot in _STALL.items()},
        by_class=named["class"],
        by_region=named["region"],
        by_block=named["block"],
        loop_bounds=list(walker.loop_bounds.values()),
        assumptions=list(walker.assumptions),
        warnings=list(walker.warnings),
    )
