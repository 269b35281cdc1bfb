"""Loop plans: one dispatch for all remaining iterations of a loop.

When dispatch lands on the start of an active hardware loop, its body
is walked once into *pieces* (:func:`walk`, a :class:`LoopShape`):
straight-line runs and complete ``lp0`` loops.  A one-level loop at
either level is a body of one run piece, a prefix of the block at its
start.  A PULP-NN conv kernel's ``lp1`` filter loop — clear the
accumulators, rewind the activation pointers, run a dot-product ``lp0``
loop (two in the 2-bit kernel), quantize — is runs and inner loops,
each inner loop an ``lp.setup``/``lp.setupi`` followed by a body that
is a block prefix, itself a shape of one run piece.

A software counted loop (:func:`counted_heads`) — the ``sw`` conv
kernels' filter loop, ``addi tp, tp, -1; bne tp, zero, head`` around
the dot-product loops and the staircase — is walked from its head by
:func:`walk_counted` into runs, inner loops and compare trees
(:mod:`repro.engine.tree`), then its latch; it runs ``counter / step``
iterations, its back-edge branch taken in all but the last.

The walks decline, as a side exit:

* ``loop-shape`` — a body that is not a block prefix at level 0 or
  while the other loop is active, or that holds a branch, jump, CSR or
  system instruction, a level-1 or partial ``lp.*`` setup, or an inner
  body that is not a block prefix;
* ``nested-loop-end`` — the other loop's back-edge would fire inside
  the body (or, for level 1 sharing the end address, *instead of* its
  own: level 0 has redirect priority), or an inner loop ends where the
  outer one does;
* ``tree-shape`` — a branch in a counted loop's body opens no compare
  tree.

Plan (:class:`LoopPlan`, per shape and inner trip counts): each inner
loop's plan is one op of the outer body, reading its invariants,
inductions and accumulators and writing its inductions (stepped by
``delta * trips``), accumulators and locals.  The body is classified
like any loop body (:func:`~repro.engine.fusion.classify_ops`), so a
pointer the inner loop steps and the outer body advances is an outer
induction (inside the inner loop an induction with an outer stride), a
register the outer body writes before the inner loop reads it (the
accumulator clear, the ``mv`` of an activation pointer) is reset per
outer iteration, and inner accumulators reduce along the inner axis,
once per outer row.  A loop count must be the same for every outer
iteration: an immediate, or a register the outer body never writes.
The runs execute over one row of iterations, each inner loop over
``rows x cols`` (``cols`` = its trip count) in execution order.

Cycles: one walk over an iteration's pieces (:class:`_Walk`) prices
each with :meth:`~repro.engine.blocks.Block.price` — the runs, each
``lp.setup``, each inner loop's ``first + steady * (trips - 1)``, a
counted loop's latch, each compare tree's leaf paths — split where a
region map changes region.  The core's own counters are the case where
every pc maps to one region; a region profile
(:class:`~repro.core.regions.RegionCounters`) maps them by its table, and
a plan is the same whether or not one is attached.  The walk yields each
region's share of the iteration, the order and clocks at which it first
enters each region and timing class, each op's issue clock, each inner
loop's start clock and each compare tree's entering load; it is cached
per entering load, on the plan for the core's counters and in the
table's memo for a profile.  The first iteration is entered after
whatever retired before the loop, the later ones after the body's own
last instruction (the hardware-loop back-edge is a pure fetch redirect,
so a load-use hazard wraps around): ``first + steady * (n - 1)``.

One charge (:func:`_charge`) books a dispatch directly, as every retire
path does, once to the core's counters and once more to the table when
a profile is attached: the first and steady iterations, the back-edges
or a counted loop's not-taken last latch, each iteration's compare-tree
leaf, each misaligned access at its pc, and — in the order iteration 0
retires them — the timing classes (whose order the energy model sums
in) and regions it enters first, with each region's first-entry clock
under a cluster's replay, so both are the interpreter's.  Against an
access-logging memory, every memory op is handed to the port as a
stream strided in clock and offset by the walk's clocks, an inner
loop's as a 2-D stream with one row per outer iteration; a plan with a
compare tree is not run there (its iterations differ in length).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.perf import PerfCounters
from ..core.timing import BRANCH_TAKEN_PENALTY, MISALIGNED_PENALTY
from .blocks import Block, region_spans
from .tree import Tree
from .fusion import (
    MASK32,
    Unfusable,
    _accesses,
    _compile_handlers,
    classify_ops,
    commit,
    enter,
)

_SETUPS = ("lp.setup", "lp.setupi")


class LoopShape:
    """The pieces of one loop body: ``("run", block, lo, hi)`` for
    ``block.instrs[lo:hi]``, ``("loop", setup, shape)`` for an ``lp0``
    setup and the shape of its body, and — in a software counted loop,
    whose :class:`~repro.analysis.dataflow.CountedLoop` is *counted* —
    ``("tree", tree)`` for a compare tree (:mod:`repro.engine.tree`) and
    ``("latch", block, k)`` for the back-edge branch ``block.instrs[k]``.
    *plans* caches a :class:`LoopPlan` (or the side-exit reason) per
    tuple of inner trip counts."""

    __slots__ = ("pieces", "counted", "setups", "straight", "inner_lengths",
                 "plans")

    def __init__(self, pieces: List[Tuple], counted=None) -> None:
        self.pieces = pieces
        self.counted = counted
        self.setups = [piece[1] for piece in pieces if piece[0] == "loop"]
        #: instructions of an iteration outside its inner loops' bodies,
        #: each compare tree on its longest path
        self.straight = len(self.setups) + sum(
            piece[3] - piece[2] if piece[0] == "run"
            else piece[1].max_len if piece[0] == "tree"
            else 1 if piece[0] == "latch" else 0
            for piece in pieces)
        self.inner_lengths = [piece[2].straight for piece in pieces
                              if piece[0] == "loop"]
        self.plans: Dict[Tuple[int, ...], object] = {}

    def trips(self, regs) -> Tuple[int, ...]:
        """Each inner loop's iterations at the dispatch: its count, run
        once when zero (the hardware then never takes the back-edge)."""
        return tuple(
            max(setup.rs1 if setup.spec.mnemonic == "lp.setupi"
                else regs[setup.rs1], 1)
            for setup in self.setups)

    def instructions(self, trips: Tuple[int, ...]) -> int:
        """Instructions one iteration retires at most, its inner loops
        run *trips* times."""
        count = self.straight
        for length, trip in zip(self.inner_lengths, trips):
            count += length * trip
        return count

    def plan(self, trips: Tuple[int, ...]):
        """The plan for *trips*, or the reason the body cannot fuse
        (compiled once)."""
        plan = self.plans.get(trips)
        if plan is None:
            try:
                plan = LoopPlan(self, trips)
            except Unfusable as declined:
                plan = declined.reason
            self.plans[trips] = plan
        return plan


def walk(imem: dict, start: int, end: int, level: int,
         other_end: Optional[int], block_at) -> LoopShape:
    """The shape of the loop *level* body ``[start, end)``; *other_end*
    is the other loop's end while it is active, else None.  Raises
    :class:`Unfusable` (see the module docstring)."""
    block = block_at(start)
    k = -1 if block is None else block.ft_index.get(end, -1)
    if k >= 0:
        if other_end is not None:
            jo = block.ft_index.get(other_end, -1)
            if 0 <= jo < k or (jo == k and level == 1):
                # The other loop's back-edge would fire inside (or, for
                # level 1 sharing the end address, *instead of* — level 0
                # has redirect priority) this loop's body.
                raise Unfusable("nested-loop-end")
        if block.exit is not None and k == block.n - 1:
            raise Unfusable("loop-shape")
        return LoopShape([("run", block, 0, k + 1)])
    if level == 0 or other_end is not None:
        raise Unfusable("loop-shape")
    pieces: List[Tuple] = []
    addr = start
    while True:
        lo = 0
        if block is None:
            block, lo = _inner_loop(imem, addr, end, block_at, pieces)
        k = block.ft_index.get(end, -1)
        if block.exit is not None and not lo <= k < block.n - 1:
            # A branch or jump in the body.
            raise Unfusable("loop-shape")
        if k >= lo:
            pieces.append(("run", block, lo, k + 1))
            break
        if lo < block.n:
            pieces.append(("run", block, lo, block.n))
        addr = block.end
        block = block_at(addr)
    return LoopShape(pieces)


def walk_counted(imem: dict, loop, block_at) -> LoopShape:
    """The shape of the software counted loop *loop* (a
    :class:`~repro.analysis.dataflow.CountedLoop`): its body from
    ``head`` to the latch as runs, complete ``lp0`` loops and compare
    trees, then the latch.  Raises :class:`Unfusable`: ``tree-shape``
    for a branch that does not open a compare tree
    (:class:`~repro.engine.tree.Tree`), ``loop-shape`` for any other
    body."""
    pieces: List[Tuple] = []
    addr = loop.head
    while loop.head <= addr <= loop.latch:
        block = block_at(addr)
        lo = 0
        if block is None:
            block, lo = _inner_loop(imem, addr, loop.exit, block_at, pieces)
        k = block.addr_index.get(loop.latch, -1)
        if k >= lo:
            if k > lo:
                pieces.append(("run", block, lo, k))
            pieces.append(("latch", block, k))
            return LoopShape(pieces, loop)
        if block.exit == "branch":
            # The tree's root is the load the branch compares.
            root = block.n - 2
            if root < lo:
                raise Unfusable("tree-shape")
            if root > lo:
                pieces.append(("run", block, lo, root))
            tree = Tree(imem, block.addrs[root])
            pieces.append(("tree", tree))
            addr = tree.merge
            continue
        if block.exit is not None:
            raise Unfusable("loop-shape")
        if lo < block.n:
            pieces.append(("run", block, lo, block.n))
        addr = block.end
    raise Unfusable("loop-shape")


def counted_heads(cpu) -> Dict[int, object]:
    """The software counted loops of the program *cpu* runs
    (:func:`~repro.analysis.dataflow.find_counted_loops`, the rule the
    static cost walker folds by) that can be loop plans, by head: those
    whose body holds no loop of their own level — no other backward
    branch or jump and no level-1 ``lp.setup`` — since a plan is an
    outer level over runs, compare trees and ``lp0`` loops."""
    from ..analysis.cfg import block_leaders
    from ..analysis.dataflow import find_counted_loops

    program = cpu._loaded_program
    if program is not None:
        instrs, entry = program.instructions, program.entry
    else:
        instrs = sorted(cpu._imem.values(), key=lambda ins: ins.addr)
        entry = None
    if not instrs:
        return {}
    heads = {}
    for loop in find_counted_loops(instrs, block_leaders(instrs, entry)):
        if not any(
                ins.spec.timing in ("branch", "jump")
                and (ins.addr + ins.imm) & MASK32 <= ins.addr
                or ins.spec.mnemonic in _SETUPS and ins.rd == 1
                for ins in instrs
                if loop.head <= ins.addr < loop.latch):
            heads[loop.head] = loop
    return heads


def _inner_loop(imem: dict, addr: int, end: int, block_at,
                pieces: List[Tuple]) -> Tuple[Block, int]:
    """Append the ``lp0`` loop set up at *addr* to *pieces*; returns the
    block its body starts and the index past the body.  *end* is where
    the outer loop's back-edge fires."""
    setup = imem.get(addr)
    if (setup is None or setup.spec.mnemonic not in _SETUPS
            or setup.rd != 0):
        raise Unfusable("loop-shape")
    block = block_at(addr + setup.spec.size)
    j = -1 if block is None else block.ft_index.get(
        (addr + setup.imm) & MASK32, -1)
    if j < 0 or (block.exit is not None and j == block.n - 1):
        raise Unfusable("loop-shape")
    if 0 <= block.ft_index.get(end, -1) <= j:
        # The outer back-edge would fire inside (or, at a shared end,
        # instead of) the inner loop's.
        raise Unfusable("nested-loop-end")
    pieces.append(("loop", setup, LoopShape([("run", block, 0, j + 1)])))
    return block, j + 1


class _Run:
    """A straight-line piece: ``block.instrs[lo:hi]``, its handlers
    numbered from body index *first*."""

    __slots__ = ("block", "lo", "hi", "first", "handlers")

    def __init__(self, block: Block, lo: int, hi: int, first: int) -> None:
        self.block, self.lo, self.hi, self.first = block, lo, hi, first
        self.handlers: list = []


class _Loop:
    """An inner loop piece: its setup and its body's plan, run *trips*
    times per outer iteration."""

    __slots__ = ("setup", "plan", "trips", "outer_acc", "locals")

    def __init__(self, setup, plan: "LoopPlan", trips: int) -> None:
        self.setup = Block([setup])
        self.plan = plan
        self.trips = trips
        self.outer_acc: frozenset = frozenset()
        inductions = {reg for reg, _ in plan.inductions}
        self.locals = [reg for reg in plan.committed_regs
                       if reg not in inductions]

    def accesses(self) -> List[Tuple]:
        """The loop as one op of the outer body (see the module
        docstring)."""
        plan = self.plan
        reads = [("r", reg) for reg in plan.invariants]
        reads += [("r", reg) for reg, _ in plan.inductions]
        reads += [("racc", reg) for reg in plan.acc_regs]
        writes = [("w", reg, ("incr", delta * self.trips))
                  for reg, delta in plan.inductions]
        writes += [("w", reg, "accadd") for reg in plan.acc_regs]
        writes += [("w", reg, "plain") for reg in self.locals]
        return reads + writes


class _Tree:
    """A compare tree piece at body index *index*: its handler runs every
    iteration's path, each charged its leaf's price."""

    __slots__ = ("tree", "index", "handler")

    def __init__(self, tree: Tree, index: int) -> None:
        self.tree = tree
        self.index = index
        self.handler = tree.handler(index)


class _Latch:
    """A counted loop's back-edge branch ``block.instrs[k]``, priced
    taken; the plan takes the penalty back for the last iteration."""

    __slots__ = ("block", "k")

    def __init__(self, block: Block, k: int) -> None:
        self.block, self.k = block, k


class LoopPlan:
    """A compiled loop body for one tuple of inner trip counts."""

    __slots__ = (
        "pieces", "counted", "trees", "body_len", "pcs", "invariants",
        "inductions", "acc_regs", "committed_regs", "walks",
        "pending_after", "inner_loop",
    )

    def __init__(self, shape: LoopShape, trips: Tuple[int, ...]) -> None:
        pieces: list = []
        ops: List[List[Tuple]] = []
        #: the pc of each straight-line op, by body index
        pcs: List[int] = []
        counts = iter(trips)
        for kind, *rest in shape.pieces:
            if kind == "run":
                block, lo, hi = rest
                instrs = block.instrs[lo:hi]
                if any(ins.spec.fusion is None for ins in instrs):
                    raise Unfusable("unsupported-op")
                pieces.append(_Run(block, lo, hi, len(pcs)))
                pcs += block.addrs[lo:hi]
                ops += [_accesses(ins) for ins in instrs]
            elif kind == "loop":
                setup, inner = rest
                plan = inner.plan(())
                if isinstance(plan, str):
                    raise Unfusable(plan)
                loop = _Loop(setup, plan, next(counts))
                if setup.spec.mnemonic == "lp.setup":
                    ops.append([("r", setup.rs1)])
                ops.append(loop.accesses())
                pieces.append(loop)
            elif kind == "tree":
                tree = rest[0]
                pieces.append(_Tree(tree, len(pcs)))
                pcs.append(tree.addr)
                ops.append(tree.accesses())
            else:
                block, k = rest
                pieces.append(_Latch(block, k))
                ops.append([("r", reg) for reg in block.srcs[k] if reg])
        classes, deltas = classify_ops(ops)
        for piece in pieces:
            if isinstance(piece, _Run):
                piece.handlers = _compile_handlers(
                    piece.block.instrs[piece.lo:piece.hi], classes,
                    piece.first)
            elif isinstance(piece, _Loop):
                setup = piece.setup.instrs[0]
                if (setup.spec.mnemonic == "lp.setup"
                        and classes.get(setup.rs1) != "invariant"):
                    # The count would change between outer iterations.
                    raise Unfusable("reg-pattern")
                piece.outer_acc = frozenset(
                    reg for reg in piece.plan.acc_regs
                    if classes.get(reg) == "acc")
        self.pieces = pieces
        self.counted = shape.counted
        self.trees = [piece for piece in pieces if isinstance(piece, _Tree)]
        self.body_len = len(pcs)
        self.pcs = pcs
        self.invariants = sorted(
            r for r, c in classes.items() if c == "invariant")
        self.inductions = sorted(
            (r, deltas[r]) for r, c in classes.items() if c == "induction")
        self.acc_regs = sorted(r for r, c in classes.items() if c == "acc")
        self.committed_regs = sorted(
            r for r, c in classes.items() if c in ("induction", "local"))
        #: one iteration under the core's own counters, per entering load
        self.walks: Dict[Optional[int], _Walk] = {}
        #: the load pending after an iteration, which enters the next
        self.pending_after = _walk(self, None).pending
        #: the lp0 start and end the body's last setup leaves behind
        self.inner_loop = None
        for piece in pieces:
            if isinstance(piece, _Loop):
                setup = piece.setup.instrs[0]
                self.inner_loop = (setup.addr + setup.spec.size,
                                   (setup.addr + setup.imm) & MASK32)


def _whole_core(addr: int) -> None:
    """The region map of the core's own counters: one region."""
    return None


def _walk(plan: LoopPlan, pending: Optional[int], table=None) -> "_Walk":
    """One iteration of *plan* entered after a load of *pending*, its pcs
    mapped to the regions of *table* (None: the core's own counters);
    cached on the plan, or in the table's memo."""
    if table is None:
        memo, key = plan.walks, pending
    else:
        memo, key = table.memo, (plan, pending)
    walk = memo.get(key)
    if walk is None:
        walk = memo[key] = _Walk(plan, pending, table)
    return walk


class _Walk:
    """The one pricing walk over a plan's pieces (see :func:`_walk`),
    each piece split where the region map changes and each part priced
    with :meth:`~repro.engine.blocks.Block.price`.

    *shares* maps each region, in first-entry order, to what the
    iteration charges it outside its compare trees (an inner loop's
    back-edges and a latch's taken penalty included); only their cycles
    and load-use stalls depend on the entering load.  *order* lists, as
    the iteration retires them, ``(region, clock, classes)`` where it
    first enters a region or one of the region's timing *classes*, and
    ``(t, None, None)`` where it enters compare tree ``t``.  *cycles* is
    the iteration's length outside the trees, ``issue[k]`` the clock at
    which straight-line op ``k`` issues and ``inner[p]`` the clock at
    which loop piece ``p``'s first inner iteration starts, all from the
    iteration's start.  ``trees[t]`` is tree ``t``'s
    :meth:`~repro.engine.tree.Tree.region_prices` for the load pending
    when it is entered, *pending* the load the iteration leaves, *back*
    the region of its back-edge (a counted loop's latch) and *classes*
    every timing class it can retire."""

    __slots__ = ("shares", "order", "cycles", "issue", "inner", "trees",
                 "pending", "back", "classes")

    def __init__(self, plan: LoopPlan, pending: Optional[int],
                 table) -> None:
        region_of = _whole_core if table is None else table.region_of
        self.shares: Dict[object, PerfCounters] = {}
        self.order: List[Tuple] = []
        self.cycles = 0
        self.issue: List[int] = []
        self.inner: Dict[int, int] = {}
        self.trees: List[Tuple] = []
        for p, piece in enumerate(plan.pieces):
            if isinstance(piece, _Run):
                block, lo, hi = piece.block, piece.lo, piece.hi
                self.issue += [self.cycles] + [
                    self.cycles + block.price(lo, j, pending)[0]
                    for j in range(lo + 1, hi)]
                for name, a, b in region_spans(block.instrs, lo, hi,
                                               region_of):
                    self._part(name, block, a, b, pending if a == lo
                               else block.pending[a - 1])
                pending = block.pending[hi - 1]
            elif isinstance(piece, _Loop):
                setup = piece.setup
                self._part(region_of(setup.addr), setup, 0, 1, pending)
                self.inner[p] = self.cycles
                loop, trips = piece.plan, piece.trips
                head = _walk(loop, None, table)
                rest = _walk(loop, loop.pending_after, table)
                for name, clock, classes in head.order:
                    self._enter(name, self.cycles + clock, classes)
                for (name, share), (_, later) in zip(head.shares.items(),
                                                     rest.shares.items()):
                    _add(self.shares[name], share, later, trips)
                self.shares[head.back].hwloop_backedges += trips - 1
                self.cycles += head.cycles + rest.cycles * (trips - 1)
                pending = loop.pending_after
            elif isinstance(piece, _Tree):
                # What follows a tree starts at a clock that depends on
                # its leaf; a plan with a tree never runs against a
                # logging port, the one reader of the clocks.
                self.issue.append(self.cycles)
                self.order.append((len(self.trees), None, None))
                self.trees.append(piece.tree.region_prices(pending,
                                                           region_of))
                pending = None
            else:
                block, k = piece.block, piece.k
                share = self._part(region_of(block.instrs[k].addr), block,
                                   k, k + 1, pending)
                share.cycles += BRANCH_TAKEN_PENALTY
                share.stall_branch += BRANCH_TAKEN_PENALTY
                self.cycles += BRANCH_TAKEN_PENALTY
                pending = None
        self.pending = pending
        self.back = region_of(plan.pcs[-1] if plan.counted is None
                              else plan.counted.latch)
        self.classes = set().union(
            *(share.by_class for share in self.shares.values()),
            *(classes for classes, _, _ in self.trees))

    def _enter(self, name, clock: int, classes) -> PerfCounters:
        """Region *name*'s share, entered at *clock* by a part retiring
        *classes*; notes in *order* what the part enters first."""
        share = self.shares.get(name)
        if share is None:
            share = self.shares[name] = PerfCounters()
        new = [cls for cls in dict.fromkeys(classes)
               if cls not in share.by_class]
        if new:
            self.order.append((name, clock, new))
            for cls in new:
                share.by_class[cls] += 0
        return share

    def _part(self, name, block: Block, a: int, b: int,
              pending: Optional[int]) -> PerfCounters:
        """Charge ``block.instrs[a:b]``, all in region *name*, entered
        after a load of *pending*, to the region's share."""
        classes = block.classes[a:b]
        share = self._enter(name, self.cycles, classes)
        cycles, load_use = block.price(a, b, pending)
        share.cycles += cycles
        share.stall_load_use += load_use
        share.instructions += b - a
        for cls in classes:
            share.by_class[cls] += 1
        self.cycles += cycles
        return share


def _add(perf: PerfCounters, first: PerfCounters, steady: PerfCounters,
         n: int) -> None:
    """Charge *perf* with *n* iterations: *first*, then *steady* for the
    rest (two shares of one region, see :class:`_Walk`)."""
    again = n - 1
    perf.cycles += first.cycles + steady.cycles * again
    perf.stall_load_use += first.stall_load_use + steady.stall_load_use * again
    perf.stall_branch += first.stall_branch * n
    perf.instructions += first.instructions * n
    perf.hwloop_backedges += first.hwloop_backedges * n
    by_class = perf.by_class
    for cls, count in first.by_class.items():
        by_class[cls] += count * n


def _run_loop(outer, piece: _Loop):
    """Run *piece*'s inner loop for every row of *outer* and fold its
    results back into *outer*; returns the inner context."""
    plan = piece.plan
    rows, cols = outer.n, piece.trips
    inner = outer.child(rows, cols, plan.body_len)
    env = inner.env
    for reg in plan.invariants:
        if reg in outer.affine:
            base, row_delta, _ = outer.affine[reg]
            inner.affine[reg] = (base, 0, row_delta)
            env[reg] = None
        else:
            value = outer.env[reg]
            env[reg] = np.repeat(value, cols) \
                if isinstance(value, np.ndarray) else value
    for reg, delta in plan.inductions:
        if reg in outer.affine:
            base, row_delta, _ = outer.affine[reg]
            inner.affine[reg] = (base, delta, row_delta)
        else:
            inner.affine[reg] = (outer.env[reg], delta, 0)
        env[reg] = None
    for run in plan.pieces:
        for handler in run.handlers:
            handler(inner)

    for reg in plan.acc_regs:
        contribution = inner.contribs.get(reg)
        if contribution is None:
            row_sum = 0
        elif isinstance(contribution, np.ndarray):
            row_sum = contribution.reshape(rows, cols).sum(axis=1)
        else:
            # Only the low word matters; an int64 row could not hold it.
            row_sum = contribution * cols & MASK32
        if reg in piece.outer_acc:
            before = outer.contribs.get(reg)
            outer.contribs[reg] = row_sum if before is None \
                else before + row_sum
        else:
            outer.env[reg] = (outer.get(reg) + row_sum) & MASK32
    for reg, delta in plan.inductions:
        if reg in outer.affine:
            outer.bump(reg, delta * cols)
        else:
            outer.env[reg] = (outer.env[reg] + delta * cols) & MASK32
    for reg in piece.locals:
        value = env[reg]
        outer.env[reg] = value.reshape(rows, cols)[:, -1] \
            if isinstance(value, np.ndarray) else value
    return inner


def execute(cpu, plan: LoopPlan, n: int, level: Optional[int] = None,
            port=None) -> int:
    """Run the *n* remaining iterations of the active hardware loop
    *level*, or of the software counted loop of *plan* (*level* None),
    under *plan*; returns instructions retired.  Raises
    :class:`Unfusable` (with no state mutated) when a dynamic
    precondition fails.  *port* is ``cpu.mem`` when it logs accesses,
    else None."""
    hw = cpu.hwloops
    ctx = enter(cpu, plan, n, port is not None)
    mis = 0
    # The inner contexts stay alive to the end of the dispatch: their
    # ids key the store streams a load may read back.
    inners = []
    for index, piece in enumerate(plan.pieces):
        if isinstance(piece, _Run):
            for handler in piece.handlers:
                handler(ctx)
        elif isinstance(piece, _Loop):
            inner = _run_loop(ctx, piece)
            mis += sum(inner.mis)
            inners.append((index, inner))
        elif isinstance(piece, _Tree):
            piece.handler(ctx)
    mis += sum(ctx.mis)
    if port is not None and mis:
        raise Unfusable("misaligned")
    commit(cpu, plan, ctx)

    perf = cpu.perf
    start, retired = perf.cycles, perf.instructions
    entering = cpu._pending_load_rd
    if port is not None:
        _log(port, plan, ctx.log, inners, start, entering, n)
    cpu._pending_load_rd = plan.pending_after
    if plan.inner_loop is not None:
        hw.count[0] = 0
        hw.start[0], hw.end[0] = plan.inner_loop
    exit_backedge = False
    if plan.counted is None:
        cpu.pc = hw.end[level]
        hw.count[level] = 0
    else:
        # The last back-edge branch falls through: a hardware loop
        # ending there takes its back-edge, as on the interpreter.
        redirect = hw.redirect(plan.counted.exit)
        exit_backedge = redirect is not None
        cpu.pc = redirect if exit_backedge else plan.counted.exit
    charge = (plan, n, entering, start, ctx.leaves,
              _misaligned(plan, ctx, inners) if mis else (), exit_backedge)
    if cpu.regions is not None:
        _charge(cpu, cpu.regions, *charge)
    _charge(cpu, None, *charge)
    return perf.instructions - retired


def _misaligned(plan: LoopPlan, ctx, inners) -> List[Tuple[int, int]]:
    """``(pc, count)`` for every op of the dispatch that accessed memory
    misaligned; a compare tree's reads counted per node."""
    misaligned = [(plan.pcs[index], count)
                  for index, count in enumerate(ctx.mis)
                  if index not in ctx.node_mis]
    for piece in plan.trees:
        if piece.index in ctx.node_mis:
            misaligned += zip(piece.tree.node_addrs,
                              ctx.node_mis[piece.index].tolist())
    for p, inner in inners:
        misaligned += zip(plan.pieces[p].plan.pcs, inner.mis)
    return [(pc, count) for pc, count in misaligned if count]


def _charge(cpu, table, plan: LoopPlan, n: int, entering: Optional[int],
            start: int, leaves, misaligned, exit_backedge: bool) -> None:
    """Charge the dispatch that ran *n* iterations of *plan*, entered at
    clock *start* after a load of *entering*, to each region of *table*,
    or to the core's own counters as one region when *table* is None:
    the first iteration and the steady ones, the back-edges (a counted
    loop's not-taken last latch, and *exit_backedge*: whether a hardware
    loop's back-edge fired after it), each compare tree's leaves
    (*leaves*), the *misaligned* ``(pc, count)`` stalls, and the timing
    classes and regions iteration 0 enters, in the order it retires them
    (see the module docstring)."""
    first = _walk(plan, entering, table)
    steady = _walk(plan, plan.pending_after, table)
    # The core's own counters are the table of one region.
    core = cpu.perf if table is None else None
    if core is not None:
        region_of, epoch = _whole_core, None
        fresh = not core.by_class.keys() >= first.classes
    else:
        region_of, epoch = table.region_of, cpu._epoch
        fresh = True
    if fresh:
        for name, clock, classes in first.order:
            if clock is None:
                # Compare tree ``name``, on the path iteration 0 took.
                parts = first.trees[name][2][int(leaves[name][0])]
            else:
                parts = [(name, classes)]
                if epoch is not None:
                    epoch.setdefault(name, start + clock)
            for region, path in parts:
                by_class = (core or table.counters_for(region)).by_class
                for cls in path:
                    by_class[cls] += 0
        if core is None:
            _enter_late_regions(table, first.trees, leaves)

    for (name, share), (_, later) in zip(first.shares.items(),
                                         steady.shares.items()):
        _add(core or table[name], share, later, n)
    back = core or table[first.back]
    if plan.counted is None:
        back.hwloop_backedges += n - 1
    else:
        # Every back-edge branch but the last is taken.
        back.cycles -= BRANCH_TAKEN_PENALTY
        back.stall_branch -= BRANCH_TAKEN_PENALTY
        back.hwloop_backedges += exit_backedge
    for pc, count in misaligned:
        perf = core or table[region_of(pc)]
        perf.cycles += count * MISALIGNED_PENALTY
        perf.stall_misaligned += count * MISALIGNED_PENALTY
    for (classes, first_tables, parts), (_, tables, _), reached in zip(
            first.trees, steady.trees, leaves):
        counts = np.bincount(reached, minlength=len(parts))
        leaf = int(reached[0])
        for name, rows in tables.items():
            charged = counts @ rows + first_tables[name][leaf] - rows[leaf]
            if not charged[4]:
                continue    # only on paths no iteration took
            perf = core or table[name]
            (cycles, load_use, branch, jump,
             instructions) = charged[:5].tolist()
            perf.cycles += cycles
            perf.stall_load_use += load_use
            perf.stall_branch += branch
            perf.stall_jump += jump
            perf.instructions += instructions
            for cls, count in zip(classes, charged[5:].tolist()):
                if count:
                    perf.by_class[cls] += count


def _enter_late_regions(table, trees, leaves) -> None:
    """Enter, in the order the interpreter first reaches them, the
    regions of leaf paths no iteration before has entered (the first
    iteration's leaves are entered in body order)."""
    late: Dict[str, Tuple[int, int, int]] = {}
    for t, ((_, _, parts), reached) in enumerate(zip(trees, leaves)):
        for leaf in np.unique(reached).tolist():
            regions = dict.fromkeys(name for name, _ in parts[leaf])
            for k, name in enumerate(regions):
                if name not in table:
                    when = (int(np.argmax(reached == leaf)), t, k)
                    if name not in late or when < late[name]:
                        late[name] = when
    for name in sorted(late, key=late.get):
        table.counters_for(name)


def _log(port, plan: LoopPlan, log, inners, start: int,
         entering: Optional[int], n: int) -> None:
    """Hand *port* every access of the dispatch with its stall-free
    issue clock.  Iteration 0 starts at *start*, entered after a load of
    *entering*; iteration ``r >= 1`` at ``start + first + steady * (r -
    1)``, clocked by the plan's walks.  An inner loop's accesses follow
    the same rule from their loop's start in each outer iteration, one
    2-D stream per op for the outer iterations after the first."""
    first = _walk(plan, entering)
    steady = _walk(plan, plan.pending_after)
    after = start + first.cycles - steady.cycles
    pcs = plan.pcs
    for index, offset, delta, size, write, _ in log:
        port.log_stream(n, start + first.issue[index],
                        after + steady.issue[index], steady.cycles, offset,
                        delta, size, write, pcs[index])
    for p, ctx in inners:
        piece = plan.pieces[p]
        loop, cols = piece.plan, piece.trips
        head = _walk(loop, None)
        rest = _walk(loop, loop.pending_after)
        again = rest.cycles
        row0 = start + first.inner[p]
        row1 = start + first.cycles + steady.inner[p]
        body = head.cycles - again
        for j, offset, delta, size, write, row_delta in ctx.log:
            if isinstance(offset, np.ndarray):
                head_offset, tail = offset[:cols], offset[cols:]
            else:
                head_offset, tail = offset, offset + row_delta
            pc = loop.pcs[j]
            port.log_stream(cols, row0 + head.issue[j],
                            row0 + body + rest.issue[j], again, head_offset,
                            delta, size, write, pc)
            port.log_stream(cols, row1 + head.issue[j],
                            row1 + body + rest.issue[j], again, tail, delta,
                            size, write, pc, n - 1, steady.cycles, row_delta)
