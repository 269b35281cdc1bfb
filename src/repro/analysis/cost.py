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
  path-sensitively), which resolves hardware-loop trip counts — in this
  repo's kernels they are either ``lp.setupi`` immediates or constants
  materialized with ``li`` — plus branch conditions and ``mhartid``;
* the **pending load destination** of the previous instruction, which
  decides a segment's entry load-use stall exactly like the core's
  retire path (:meth:`~repro.core.cpu.Cpu.step`) does — as an interval,
  since after a fork it may be a set of registers;
* the **hardware-loop fold**: a loop body is walked twice (entry
  iteration with the incoming facts, steady-state iteration with the
  body-written registers havoced) and charged ``first + (n-1) * steady``,
  so the analysis cost is independent of the trip count.

Data-dependent branches (the software-quantization comparison trees)
fork at the branch and re-join at its immediate postdominator; the two
arm costs merge as an :class:`Interval`.  The result is a
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

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..asm.program import Program
from ..core.perf import PerfCounters
from ..core.timing import BRANCH_TAKEN_PENALTY, JUMP_PENALTY, LOAD_USE_PENALTY
from ..engine.blocks import Block
from ..errors import ReproError
from ..isa.bits import to_signed, u32
from ..isa.instruction import Instruction
from ..isa.zicsr import CSR_MHARTID
from .cfg import (
    HALT_MNEMONICS,
    HWLOOP_SETUP_MNEMONICS,
    Cfg,
    HwLoop,
    build_cfg,
    postdominators,
)
from .dataflow import ConstantAnalysis, written_registers


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

    def scale(self, factor: "Interval | int") -> "Interval":
        """Multiply by a non-negative repetition count."""
        if isinstance(factor, int):
            factor = Interval.exact(factor)
        if factor.lo < 0:
            raise ValueError("cannot scale by a negative count")
        hi = (None if self.hi is None or factor.hi is None
              else self.hi * factor.hi)
        return Interval(self.lo * factor.lo, hi)

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
# Cost vectors
# ---------------------------------------------------------------------------

#: Stall categories mirrored from :class:`~repro.core.perf.PerfCounters`.
STALL_KEYS = (
    "stall_load_use",
    "stall_branch",
    "stall_jump",
    "stall_misaligned",
    "stall_tcdm_contention",
)


class CostVector:
    """Additive cost accumulator: cycles, instructions, stall taxonomy,
    per-timing-class instruction counts, per-region and per-block cycles.

    Supports the three operations the walker needs: elementwise add,
    add-scaled-by-a-repetition-count (hardware-loop folding), and union
    (branch fork/join merges)."""

    __slots__ = ("cycles", "instructions", "hwloop_backedges",
                 "stalls", "by_class", "by_region", "by_block")

    def __init__(self) -> None:
        self.cycles = ZERO
        self.instructions = ZERO
        self.hwloop_backedges = ZERO
        self.stalls: Dict[str, Interval] = {k: ZERO for k in STALL_KEYS}
        self.by_class: Dict[str, Interval] = {}
        self.by_region: Dict[str, Interval] = {}
        self.by_block: Dict[int, Interval] = {}

    def copy(self) -> "CostVector":
        new = CostVector()
        new.add(self)
        return new

    @staticmethod
    def _merge(dst: Dict, src: Dict, combine) -> None:
        for key, value in src.items():
            dst[key] = combine(dst.get(key, ZERO), value)

    def add(self, other: "CostVector") -> "CostVector":
        self.cycles += other.cycles
        self.instructions += other.instructions
        self.hwloop_backedges += other.hwloop_backedges
        for key in STALL_KEYS:
            self.stalls[key] += other.stalls[key]
        self._merge(self.by_class, other.by_class, lambda a, b: a + b)
        self._merge(self.by_region, other.by_region, lambda a, b: a + b)
        self._merge(self.by_block, other.by_block, lambda a, b: a + b)
        return self

    def add_scaled(self, other: "CostVector", count: Interval) -> "CostVector":
        self.cycles += other.cycles.scale(count)
        self.instructions += other.instructions.scale(count)
        self.hwloop_backedges += other.hwloop_backedges.scale(count)
        for key in STALL_KEYS:
            self.stalls[key] += other.stalls[key].scale(count)
        scaled = lambda a, b: a + b.scale(count)  # noqa: E731
        self._merge(self.by_class, other.by_class, scaled)
        self._merge(self.by_region, other.by_region, scaled)
        self._merge(self.by_block, other.by_block, scaled)
        return self

    def union(self, other: "CostVector") -> "CostVector":
        self.cycles = self.cycles.union(other.cycles)
        self.instructions = self.instructions.union(other.instructions)
        self.hwloop_backedges = self.hwloop_backedges.union(
            other.hwloop_backedges)
        for key in STALL_KEYS:
            self.stalls[key] = self.stalls[key].union(other.stalls[key])
        union_ = lambda a, b: a.union(b)  # noqa: E731
        # Keys absent on one side count as exactly zero there.
        for dst, src in ((self.by_class, other.by_class),
                         (self.by_region, other.by_region),
                         (self.by_block, other.by_block)):
            for key in set(dst) | set(src):
                dst[key] = union_(dst.get(key, ZERO), src.get(key, ZERO))
        return self


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
# Branch-condition evaluation
# ---------------------------------------------------------------------------

_BRANCH_CONDS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: to_signed(a) < to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
    "bltu": lambda a, b: u32(a) < u32(b),
    "bgeu": lambda a, b: u32(a) >= u32(b),
}


def _eval_branch(ins: Instruction, consts: Dict[int, int]) -> Optional[bool]:
    """Statically decide a branch (``None`` = data-dependent)."""
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
# The abstract walker
# ---------------------------------------------------------------------------

#: Pending-load state: the set of registers that *may* hold an in-flight
#: load result, and whether "no pending load" is also possible.  A definite
#: single pending register is ``({rd}, False)``; merges widen both.
_Pending = Tuple[FrozenSet[int], bool]
_NO_PENDING: _Pending = (frozenset(), True)

_HALT = object()     # walk exit sentinel: the path retired ebreak/ecall


class _PathEnd:
    """Result of one walked path segment."""

    __slots__ = ("cost", "consts", "pending", "exit", "terminals")

    def __init__(self, cost: CostVector, consts: Dict[int, int],
                 pending: _Pending, exit_at, terminals: List[CostVector]):
        self.cost = cost
        self.consts = consts
        self.pending = pending
        self.exit = exit_at       # address, or _HALT
        self.terminals = terminals  # halted fork-arm costs, walk-relative


class _Walker:
    """Path-sensitive abstract interpreter over the timing model."""

    def __init__(self, program: Program, cfg: Cfg,
                 hart_id: Optional[int], max_steps: int) -> None:
        self.hart_id = hart_id
        self.max_steps = max_steps
        self.steps = 0
        # Priced straight-line segments keyed by start address: the CFG
        # blocks, cut where the region changes, so each one charges
        # exactly one region and one CFG block.
        region_of = program.region_map()
        self.segments: Dict[int, Tuple[Block, int, str]] = {}
        for block in cfg.blocks:
            for region, run in groupby(
                    block.instructions,
                    key=lambda ins: region_of.get(ins.addr, "-")):
                run = list(run)
                self.segments[run[0].addr] = (Block(run), block.index,
                                              region)
        ipdom = postdominators(cfg)
        self.join_of: Dict[int, Optional[int]] = {
            index: (None if target is None else cfg.blocks[target].start)
            for index, target in ipdom.items()}
        self.loops_by_setup: Dict[int, HwLoop] = {
            loop.setup_addr: loop for loop in cfg.loops}
        self.body_written: Dict[int, FrozenSet[int]] = {}
        for loop in cfg.loops:
            written = set()
            for ins in program.instructions:
                if loop.contains(ins.addr):
                    written.update(written_registers(ins))
            self.body_written[loop.setup_addr] = frozenset(written - {0})
        self.transfer = ConstantAnalysis().transfer
        self.loop_bounds: List[LoopBound] = []
        self.warnings: List[str] = []
        self.assumptions: List[str] = []

    # -- helpers --------------------------------------------------------

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    def assume(self, message: str) -> None:
        if message not in self.assumptions:
            self.assumptions.append(message)

    def _load_use(self, pending: _Pending, sources) -> Interval:
        """Entry load-use stall of a segment whose first instruction
        reads *sources*: the only interval-valued part of its price."""
        regs, maybe_none = pending
        hits = regs.intersection(sources)
        if not hits:
            return ZERO
        definite = not maybe_none and hits == regs
        lo = LOAD_USE_PENALTY if definite else 0
        return Interval(lo, LOAD_USE_PENALTY)

    def _charge(self, cost: CostVector, segment: Tuple[Block, int, str],
                load_use: Interval, branch: int = 0, jump: int = 0) -> None:
        seg, block, region = segment
        cycles, stalls = seg.price(0, seg.n, None)
        total = load_use + (cycles + branch + jump)
        cost.cycles += total
        cost.instructions += seg.n
        for cls, pref in seg.cls_prefix.items():
            cost.by_class[cls] = cost.by_class.get(cls, ZERO) + pref[seg.n]
        cost.by_region[region] = cost.by_region.get(region, ZERO) + total
        cost.by_block[block] = cost.by_block.get(block, ZERO) + total
        cost.stalls["stall_load_use"] += load_use + stalls
        if branch:
            cost.stalls["stall_branch"] += branch
        if jump:
            cost.stalls["stall_jump"] += jump

    @staticmethod
    def _join_consts(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
        if a == b:
            return a
        joined = {r: v for r, v in a.items() if b.get(r) == v}
        joined[0] = 0
        return joined

    @staticmethod
    def _join_pending(a: _Pending, b: _Pending) -> _Pending:
        return (a[0] | b[0], a[1] or b[1])

    def _transfer_consts(self, consts: Dict[int, int],
                         ins: Instruction) -> Dict[int, int]:
        new = self.transfer(consts, ins)
        # CSR reads are opaque to ConstantAnalysis; mhartid is the one
        # the kernels actually branch on, and it is a per-core constant.
        if (self.hart_id is not None and ins.rd != 0
                and ins.mnemonic in ("csrrw", "csrrs", "csrrc",
                                     "csrrwi", "csrrsi", "csrrci")
                and ins.imm == CSR_MHARTID):
            new = dict(new)
            new[ins.rd] = u32(self.hart_id)
        return new

    # -- loop folding ---------------------------------------------------

    def _record_loop(self, bound: LoopBound) -> None:
        """Record a loop bound, merging re-walks of the same setup site
        (nested loops are walked once per enclosing-loop iteration)."""
        for i, existing in enumerate(self.loop_bounds):
            if existing.setup_addr == bound.setup_addr:
                if existing.count != bound.count:
                    merged = existing.count.union(bound.count)
                    source = (existing.source
                              if existing.source == bound.source
                              else "unknown")
                    self.loop_bounds[i] = LoopBound(
                        setup_addr=bound.setup_addr, level=bound.level,
                        start=bound.start, end=bound.end,
                        count=merged, source=source)
                return
        self.loop_bounds.append(bound)

    def _loop_count(self, ins: Instruction,
                    consts: Dict[int, int]) -> Tuple[Interval, str]:
        if ins.mnemonic == "lp.setupi":
            return Interval.exact(ins.rs1), "imm"
        if ins.rs1 in consts:
            return Interval.exact(consts[ins.rs1]), "const"
        return Interval(1, None), "unknown"

    def _fold_loop(self, loop: HwLoop, count: Interval, source: str,
                   consts: Dict[int, int], pending: _Pending,
                   depth: int) -> _PathEnd:
        """Walk the loop body and charge it ``count`` times."""
        self._record_loop(LoopBound(
            setup_addr=loop.setup_addr, level=loop.level, start=loop.start,
            end=loop.end, count=count, source=source))
        if source == "unknown":
            self.warn(
                f"hardware-loop count at {loop.setup_addr:#x} is not a "
                f"materialized constant; cycles are unbounded above")
        # A count of zero still runs the body once and falls through
        # (HwLoopController.redirect never fires with count 0).
        iters = Interval(max(count.lo, 1),
                         None if count.hi is None else max(count.hi, 1))

        cost = CostVector()
        terminals: List[CostVector] = []
        first = self.walk(loop.start, consts, pending,
                          frozenset({loop.end}), depth + 1)
        cost.add(first.cost)
        terminals.extend(first.terminals)
        if first.exit != loop.end:
            if first.exit is not _HALT:
                self.warn(
                    f"hardware-loop body at {loop.start:#x} exited at an "
                    f"unexpected address; loop not folded")
            return _PathEnd(cost, first.consts, first.pending,
                            first.exit, terminals)

        extra = Interval(iters.lo - 1,
                         None if iters.hi is None else iters.hi - 1)
        exit_consts = first.consts
        pending_out = first.pending
        if extra.hi != 0:
            havoced = {r: v for r, v in first.consts.items()
                       if r not in self.body_written[loop.setup_addr]}
            havoced[0] = 0
            steady = self.walk(loop.start, havoced, first.pending,
                               frozenset({loop.end}), depth + 1)
            if steady.exit != loop.end:
                self.warn(
                    f"hardware-loop body at {loop.start:#x} exited at an "
                    f"unexpected address on the steady-state iteration")
                return _PathEnd(cost, steady.consts, steady.pending,
                                steady.exit, terminals)
            if steady.terminals:
                self.warn(
                    f"path halts inside the hardware-loop body at "
                    f"{loop.start:#x}; repeat count not applied to it")
                terminals.extend(steady.terminals)
            cost.add_scaled(steady.cost, extra)
            cost.hwloop_backedges += extra
            pending_out = steady.pending
            exit_consts = (steady.consts if extra.lo >= 1
                           else self._join_consts(first.consts,
                                                  steady.consts))
        return _PathEnd(cost, exit_consts, pending_out, loop.end, terminals)

    # -- the main walk --------------------------------------------------

    def walk(self, pc: int, consts: Dict[int, int], pending: _Pending,
             stops: FrozenSet[int], depth: int = 0) -> _PathEnd:
        if depth > 80:
            raise CostError("branch fork nesting exceeds the analyzer limit")
        cost = CostVector()
        terminals: List[CostVector] = []
        while True:
            if pc in stops:
                return _PathEnd(cost, consts, pending, pc, terminals)
            segment = self.segments.get(pc)
            if segment is None:
                self.warn(f"no instruction at {pc:#010x}; path abandoned")
                return _PathEnd(cost, consts, pending, _HALT, terminals)
            seg, block, region = segment
            self.steps += seg.n
            if self.steps > self.max_steps:
                raise CostError(
                    f"analysis exceeded {self.max_steps} abstract steps "
                    f"(unfoldable loop?)")

            load_use = self._load_use(pending, seg.srcs[0])
            # Constants flow per instruction; ``before`` ends as the
            # environment the last one (the control transfer) reads.
            for ins in seg.instrs:
                before, consts = consts, self._transfer_consts(consts, ins)
            cls = ins.spec.timing
            outcome = _eval_branch(ins, before) if cls == "branch" else None
            self._charge(
                cost, segment, load_use,
                branch=BRANCH_TAKEN_PENALTY if outcome is True else 0,
                jump=JUMP_PENALTY if cls == "jump" else 0)
            rd = seg.pending[-1]
            pending = (frozenset({rd}), False) if rd else _NO_PENDING
            fall = seg.fts[-1]

            if ins.mnemonic in HWLOOP_SETUP_MNEMONICS:
                count, source = self._loop_count(ins, before)
                loop = self.loops_by_setup.get(ins.addr)
                if loop is None or loop.end <= loop.start:
                    self.warn(f"malformed hardware loop at {ins.addr:#x}")
                    pc = fall
                    continue
                prefix = cost.copy()
                folded = self._fold_loop(loop, count, source, consts,
                                         pending, depth)
                cost.add(folded.cost)
                for terminal in folded.terminals:
                    terminals.append(prefix.copy().add(terminal))
                if folded.exit is _HALT:
                    return _PathEnd(cost, folded.consts, folded.pending,
                                    _HALT, terminals)
                consts = folded.consts
                pending = folded.pending
                pc = folded.exit
                continue

            if cls == "branch":
                target = u32(ins.addr + ins.imm)
                if outcome is not None:
                    pc = target if outcome else fall
                    continue
                # Data-dependent: fork both arms to the immediate
                # postdominator and merge as an interval.
                join = self.join_of.get(block)
                arm_stops = stops if join is None else (stops
                                                        | frozenset({join}))
                taken = self.walk(target, consts, pending, arm_stops,
                                  depth + 1)
                pen = CostVector()
                pen.cycles += BRANCH_TAKEN_PENALTY
                pen.stalls["stall_branch"] += BRANCH_TAKEN_PENALTY
                pen.by_region[region] = Interval.exact(BRANCH_TAKEN_PENALTY)
                pen.by_block[block] = Interval.exact(BRANCH_TAKEN_PENALTY)
                fall_end = self.walk(fall, consts, pending, arm_stops,
                                     depth + 1)
                prefix = cost.copy()
                for terminal in taken.terminals:
                    terminals.append(prefix.copy().add(pen).add(terminal))
                for terminal in fall_end.terminals:
                    terminals.append(prefix.copy().add(terminal))
                taken_cost = pen.copy().add(taken.cost)
                arms = []
                if taken.exit is _HALT:
                    terminals.append(prefix.copy().add(taken_cost))
                else:
                    arms.append((taken_cost, taken))
                if fall_end.exit is _HALT:
                    terminals.append(prefix.copy().add(fall_end.cost))
                else:
                    arms.append((fall_end.cost, fall_end))
                if not arms:
                    return _PathEnd(cost, consts, pending, _HALT, terminals)
                if len(arms) == 1:
                    arm_cost, arm = arms[0]
                    cost.add(arm_cost)
                    consts, pending, pc = arm.consts, arm.pending, arm.exit
                    continue
                (cost_a, end_a), (cost_b, end_b) = arms
                if end_a.exit != end_b.exit:
                    self.warn(
                        f"branch arms at {ins.addr:#x} rejoin at different "
                        f"addresses; continuing along the fall-through")
                cost.add(cost_a.union(cost_b))
                consts = self._join_consts(end_a.consts, end_b.consts)
                pending = self._join_pending(end_a.pending, end_b.pending)
                pc = end_b.exit if end_a.exit != end_b.exit else end_a.exit
                continue

            if cls == "jump":
                if "label" in ins.spec.syntax:
                    pc = u32(ins.addr + ins.imm)
                    continue
                self.assume(
                    "indirect jump (jalr/ret) treated as the end of the "
                    "analyzed path")
                return _PathEnd(cost, consts, pending, _HALT, terminals)

            # The halting ebreak/ecall is retired and counted, like the
            # simulator does.
            if ins.mnemonic in HALT_MNEMONICS:
                return _PathEnd(cost, consts, pending, _HALT, terminals)
            pc = fall


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
    return StaticCostReport(
        name=name,
        cycles=total.cycles,
        instructions=total.instructions,
        hwloop_backedges=total.hwloop_backedges,
        stalls=dict(total.stalls),
        by_class=dict(total.by_class),
        by_region=dict(total.by_region),
        by_block=dict(total.by_block),
        loop_bounds=list(walker.loop_bounds),
        assumptions=list(walker.assumptions),
        warnings=list(walker.warnings),
    )
