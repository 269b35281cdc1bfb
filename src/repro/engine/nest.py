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

Cycles: each iteration is priced from its pieces with
:meth:`~repro.engine.blocks.Block.price` — the runs, each ``lp.setup``,
each inner loop's ``first + steady * (trips - 1)`` — the first after
whatever retired before the loop, the later ones after the body's own
last instruction (the hardware-loop back-edge is a pure fetch redirect,
so a load-use hazard wraps around): ``first + steady * (n - 1)``.  The
timing is cached per entering load.  A compare tree adds each
iteration's leaf price (:meth:`LoopPlan.tree_charges`).  Against an
access-logging memory, every memory op is handed to the port as a
stream strided in clock and offset, an inner loop's as a 2-D stream
with one row per outer iteration; a plan with a compare tree is not
run there (its iterations differ in length).

Regions: a plan is the same whether or not a region profile
(:class:`~repro.core.regions.RegionCounters`) is attached, and charges
each region its share (:func:`_attribute`).  The pieces are split where
the table's map changes region and priced per part with
:meth:`~repro.engine.blocks.Block.price`; each region's share of one
iteration is cached in the table per entering load (:func:`_shares`).
Iteration 0 enters its regions part by part, so each region's
first-entry clock (under a cluster's replay) and place in the table are
the interpreter's; the later iterations are charged per region.  A
misaligned access, a back-edge, a compare tree's leaf path and the
counted loop's not-taken last latch are charged to their pc's region.
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

    def price(self, pending):
        cycles, stalls = self.block.price(self.lo, self.hi, pending)
        return cycles, stalls, self.block.pending[self.hi - 1]


class _Loop:
    """An inner loop piece: its setup and its body's plan, run *trips*
    times per outer iteration."""

    __slots__ = ("setup", "plan", "trips", "first", "outer_acc", "locals")

    def __init__(self, setup, plan: "LoopPlan", trips: int) -> None:
        self.setup = Block([setup])
        self.plan = plan
        self.trips = trips
        #: the first inner iteration, after the setup (not a load)
        self.first = plan.timing(None)
        self.outer_acc: frozenset = frozenset()
        inductions = {reg for reg, _ in plan.inductions}
        self.locals = [reg for reg in plan.committed_regs
                       if reg not in inductions]

    def price(self, pending):
        plan = self.plan
        cycles, stalls = self.setup.price(0, 1, pending)
        first, first_stalls = self.first[:2]
        steady, steady_stalls = plan.steady[:2]
        again = self.trips - 1
        return (cycles + first + steady * again,
                stalls + first_stalls + steady_stalls * again,
                plan.pending_after)

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
    iteration's path; its price is per iteration (see
    :meth:`LoopPlan.tree_charges`)."""

    __slots__ = ("tree", "index", "handler")

    def __init__(self, tree: Tree, index: int) -> None:
        self.tree = tree
        self.index = index
        self.handler = tree.handler(index)

    def price(self, pending):
        return 0, 0, None


class _Latch:
    """A counted loop's back-edge branch ``block.instrs[k]``, priced
    taken; the plan takes the penalty back for the last iteration."""

    __slots__ = ("block", "k")

    def __init__(self, block: Block, k: int) -> None:
        self.block, self.k = block, k

    def price(self, pending):
        cycles, stalls = self.block.price(self.k, self.k + 1, pending)
        return cycles + BRANCH_TAKEN_PENALTY, stalls, None


class LoopPlan:
    """A compiled loop body for one tuple of inner trip counts."""

    __slots__ = (
        "pieces", "counted", "trees", "body_len", "pcs", "invariants",
        "inductions", "acc_regs", "committed_regs", "row_instructions",
        "row_backedges", "row_classes", "pending_after", "steady",
        "inner_loop", "_timing",
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

        # Per iteration, outside the compare trees (charged per leaf).
        row_classes: Dict[str, int] = {}
        backedges = instructions = 0
        for piece in pieces:
            if isinstance(piece, _Run):
                run = piece.block.classes[piece.lo:piece.hi]
            elif isinstance(piece, _Loop):
                backedges += piece.trips - 1
                cls = piece.setup.classes[0]
                row_classes[cls] = row_classes.get(cls, 0) + 1
                for cls, count in piece.plan.row_classes.items():
                    row_classes[cls] = (row_classes.get(cls, 0)
                                        + count * piece.trips)
                instructions += 1 + piece.plan.row_instructions * piece.trips
                continue
            elif isinstance(piece, _Tree):
                continue
            else:
                run = piece.block.classes[piece.k:piece.k + 1]
            for cls in run:
                row_classes[cls] = row_classes.get(cls, 0) + 1
            instructions += len(run)
        self.row_instructions = instructions
        self.row_backedges = backedges
        self.row_classes = row_classes
        self._timing: Dict[Optional[int], Tuple] = {}
        pending = None
        for piece in pieces:
            pending = piece.price(pending)[2]
        self.pending_after = pending
        #: the timing of every iteration after the first
        self.steady = self.timing(pending)
        #: the lp0 start and end the body's last setup leaves behind
        self.inner_loop = None
        for piece in pieces:
            if isinstance(piece, _Loop):
                setup = piece.setup.instrs[0]
                self.inner_loop = (setup.addr + setup.spec.size,
                                   (setup.addr + setup.imm) & MASK32)

    def timing(self, pending: Optional[int]) -> Tuple:
        """One iteration entered after an instruction that loaded
        *pending*, outside its compare trees: ``(cycles,
        load_use_stalls, issue, inner, trees)``, where ``issue[k]`` is the
        cycle (from the iteration's start) at which straight-line op ``k``
        issues, ``inner[p]`` the cycle at which loop piece ``p``'s first
        inner iteration starts and ``trees[t]`` the load pending when
        compare tree ``t`` is entered."""
        timing = self._timing.get(pending)
        if timing is not None:
            return timing
        key = pending
        cycles = stalls = 0
        issue: List[int] = []
        inner: Dict[int, int] = {}
        trees: List[Optional[int]] = []
        for p, piece in enumerate(self.pieces):
            if isinstance(piece, _Run):
                block, lo = piece.block, piece.lo
                issue += [cycles] + [
                    cycles + block.price(lo, j, pending)[0]
                    for j in range(lo + 1, piece.hi)]
            elif isinstance(piece, _Loop):
                inner[p] = cycles + piece.setup.price(0, 1, pending)[0]
            elif isinstance(piece, _Tree):
                issue.append(cycles)
                trees.append(pending)
            piece_cycles, piece_stalls, pending = piece.price(pending)
            cycles += piece_cycles
            stalls += piece_stalls
        timing = self._timing[key] = (cycles, stalls, issue, inner, trees)
        return timing

    def tree_charges(self, leaves: List[np.ndarray],
                     timing) -> Tuple[List[int], Dict[str, int]]:
        """What the compare trees retired when iteration ``i`` reached
        leaf ``leaves[t][i]`` of tree ``t``, the first iteration entered
        with *timing*: ``[cycles, load_use_stalls, branch_stalls,
        jump_stalls, instructions]`` and the count per timing class."""
        totals = [0] * 5
        classes: Dict[str, int] = {}
        for piece, reached, first, steady in zip(
                self.trees, leaves, timing[4], self.steady[4]):
            names, table = piece.tree.prices(steady)
            row = np.bincount(reached, minlength=len(table)) @ table
            if first != steady:
                # The first iteration enters the tree after another load.
                leaf = reached[0]
                row += piece.tree.prices(first)[1][leaf] - table[leaf]
            row = row.tolist()
            for k in range(5):
                totals[k] += row[k]
            for cls, count in zip(names, row[5:]):
                classes[cls] = classes.get(cls, 0) + count
        return totals, classes


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
            row_sum = contribution * cols
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
    start = perf.cycles
    entering = cpu._pending_load_rd
    timing = plan.timing(entering)
    first, load_use = timing[:2]
    steady, steady_load_use = plan.steady[:2]
    if port is not None:
        _log(port, plan, ctx.log, inners, start, timing, n)
    if cpu.regions is not None:
        # The open region is charged up to here; the dispatch charges
        # each region directly (see _attribute).
        cpu._close_region()
    mis_cycles = mis * MISALIGNED_PENALTY
    cycles = first + steady * (n - 1) + mis_cycles
    instructions = plan.row_instructions * n
    classes = {cls: count * n for cls, count in plan.row_classes.items()}
    if plan.trees:
        (tree_cycles, tree_load_use, branch, jump,
         tree_instructions), tree_classes = plan.tree_charges(ctx.leaves,
                                                               timing)
        cycles += tree_cycles
        load_use += tree_load_use
        instructions += tree_instructions
        perf.stall_branch += branch
        perf.stall_jump += jump
        for cls, count in tree_classes.items():
            classes[cls] = classes.get(cls, 0) + count
        if not perf.by_class.keys() >= classes.keys():
            _enter_classes(perf.by_class, plan, ctx.leaves)
    if plan.counted is None:
        perf.hwloop_backedges += n - 1
        exit_pc = hw.end[level]
        hw.count[level] = 0
    else:
        # Every back-edge branch but the last is taken.
        cycles -= BRANCH_TAKEN_PENALTY
        perf.stall_branch += BRANCH_TAKEN_PENALTY * (n - 1)
        exit_pc = plan.counted.exit
    perf.cycles += cycles
    perf.instructions += instructions
    perf.hwloop_backedges += plan.row_backedges * n
    perf.stall_load_use += load_use + steady_load_use * (n - 1)
    perf.stall_misaligned += mis_cycles
    for cls, count in classes.items():
        if count:
            perf.by_class[cls] += count
    cpu._pending_load_rd = plan.pending_after
    if plan.inner_loop is not None:
        hw.count[0] = 0
        hw.start[0], hw.end[0] = plan.inner_loop
    cpu.pc = exit_pc
    exit_backedge = False
    if plan.counted is not None:
        # The last back-edge branch falls through: a hardware loop
        # ending there takes its back-edge, as on the interpreter.
        redirect = hw.redirect(exit_pc)
        if redirect is not None:
            perf.hwloop_backedges += 1
            cpu.pc = redirect
            exit_backedge = True
    if cpu.regions is not None:
        _attribute(cpu, plan, n, ctx, inners, entering, start,
                   exit_backedge)
    return instructions


def _enter_classes(by_class, plan: LoopPlan, leaves) -> None:
    """Enter the timing classes of the first iteration into *by_class*
    in the order it retires them: a class's first retire fixes its place
    in the counter, as on the interpreter."""
    reached = iter(leaves)
    for piece in plan.pieces:
        if isinstance(piece, _Run):
            classes = piece.block.classes[piece.lo:piece.hi]
        elif isinstance(piece, _Loop):
            classes = piece.setup.classes + list(piece.plan.row_classes)
        elif isinstance(piece, _Tree):
            path = piece.tree.paths[int(next(reached)[0])][0]
            classes = [ins.spec.timing for ins in path]
        else:
            classes = piece.block.classes[piece.k:piece.k + 1]
        for cls in classes:
            by_class[cls] += 0


def _shares(table, plan: LoopPlan, pending: Optional[int]) -> Tuple:
    """One iteration of *plan* entered after an instruction that loaded
    *pending*, under the region table *table*: ``(row, order)``.  *row*
    maps each region to the :class:`PerfCounters` the iteration charges
    it outside its compare trees (an inner loop's back-edges included);
    *order* lists the regions as the iteration first enters them,
    ``(name, clock)`` with the clock from the iteration's start, and
    ``(t, None)`` where it enters compare tree ``t``.  Cached in the
    table per plan and load."""
    key = (plan, pending)
    shares = table.memo.get(key)
    if shares is not None:
        return shares
    region_of = table.region_of
    row: Dict[str, PerfCounters] = {}
    order: List[Tuple] = []
    seen: set = set()

    def enter(name, clock: int) -> PerfCounters:
        if name not in seen:
            seen.add(name)
            order.append((name, clock))
        perf = row.get(name)
        if perf is None:
            perf = row[name] = PerfCounters()
        return perf

    def charge(block: Block, a: int, b: int, entering, clock: int) -> int:
        """Charge ``block.instrs[a:b]``, one region's, entered after
        *entering*; returns its cycles."""
        perf = enter(region_of(block.instrs[a].addr), clock)
        cycles, load_use = block.price(a, b, entering)
        perf.cycles += cycles
        perf.stall_load_use += load_use
        perf.instructions += b - a
        for cls, pref in block.cls_prefix.items():
            if pref[b] != pref[a]:
                perf.by_class[cls] += pref[b] - pref[a]
        return cycles

    clock = 0
    trees = 0
    for piece in plan.pieces:
        if isinstance(piece, _Run):
            block = piece.block
            for _, a, b in region_spans(block.instrs, piece.lo, piece.hi,
                                        region_of):
                clock += charge(block, a, b, pending if a == piece.lo
                                else block.pending[a - 1], clock)
            pending = block.pending[piece.hi - 1]
        elif isinstance(piece, _Loop):
            clock += charge(piece.setup, 0, 1, pending, clock)
            inner = piece.plan
            first, first_order = _shares(table, inner, None)
            for name, at in first_order:
                enter(name, clock + at)
            for name, perf in first.items():
                row[name].merge(perf)
            again = piece.trips - 1
            if again:
                for name, perf in _shares(table, inner,
                                          inner.pending_after)[0].items():
                    row[name].merge(perf, again)
                row[region_of(inner.pcs[-1])].hwloop_backedges += again
            clock += piece.first[0] + inner.steady[0] * again
            pending = inner.pending_after
        elif isinstance(piece, _Tree):
            # What follows a tree starts at a clock that depends on its
            # leaf; a plan with a tree never runs against a logging port,
            # the one reader of the clocks.
            order.append((trees, None))
            trees += 1
            pending = None
        else:
            block, k = piece.block, piece.k
            clock += charge(block, k, k + 1, pending, clock)
            perf = row[region_of(block.instrs[k].addr)]
            perf.cycles += BRANCH_TAKEN_PENALTY
            perf.stall_branch += BRANCH_TAKEN_PENALTY
            pending = None
    shares = table.memo[key] = (row, order)
    return shares


def _attribute(cpu, plan: LoopPlan, n: int, ctx, inners,
               entering: Optional[int], start: int,
               exit_backedge: bool) -> None:
    """Charge each region of the core's table its share of the dispatch
    that ran *n* iterations of *plan*, entered at clock *start* after a
    load of *entering* (see the module docstring); *exit_backedge* says
    whether a hardware loop's back-edge fired after a counted loop's
    last latch."""
    table = cpu.regions
    region_of = table.region_of
    epoch = cpu._epoch
    order = _shares(table, plan, entering)[1]
    leaves = ctx.leaves
    tree_prices = [
        _tree_prices(table, piece.tree, pending) for piece, pending
        in zip(plan.trees, plan.timing(entering)[4])]
    # Iteration 0 enters its regions in body order.
    for name, clock in order:
        if clock is None:
            for region in tree_prices[name][2][int(leaves[name][0])]:
                table.counters_for(region)
            continue
        if epoch is not None:
            epoch.setdefault(name, start + clock)
        table.counters_for(name)
    if plan.trees:
        _enter_late_regions(table, tree_prices, leaves)

    for name, perf in _totals(table, plan, entering, n):
        table[name].merge(perf)
    if exit_backedge:
        table[region_of(plan.counted.latch)].hwloop_backedges += 1

    misaligned = [(plan.pcs[index], count)
                  for index, count in enumerate(ctx.mis)
                  if count and index not in ctx.node_mis]
    for piece in plan.trees:
        if piece.index in ctx.node_mis:
            misaligned += zip(piece.tree.node_addrs,
                              ctx.node_mis[piece.index].tolist())
    for p, inner in inners:
        pcs = plan.pieces[p].plan.pcs
        misaligned += [(pcs[j], count) for j, count in enumerate(inner.mis)
                       if count]
    for pc, count in misaligned:
        if count:
            perf = table[region_of(pc)]
            perf.cycles += count * MISALIGNED_PENALTY
            perf.stall_misaligned += count * MISALIGNED_PENALTY

    for piece, reached, (classes, first_tables, _), pending in zip(
            plan.trees, leaves, tree_prices, plan.steady[4]):
        counts = np.bincount(reached, minlength=len(piece.tree.paths))
        tables = _tree_prices(table, piece.tree, pending)[1]
        leaf = int(reached[0])
        for name, rows in tables.items():
            charged = counts @ rows + first_tables[name][leaf] - rows[leaf]
            if not charged[4]:
                continue    # only on paths no iteration took
            perf = table[name]
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


def _totals(table, plan: LoopPlan, entering: Optional[int],
            n: int) -> List[Tuple[str, PerfCounters]]:
    """What *n* iterations of *plan* entered after a load of *entering*
    charge each region outside their compare trees and misaligned
    accesses: the first iteration's share, the steady one's for the
    rest, the back-edges between them and a counted loop's not-taken
    last latch.  Cached in the table."""
    key = (plan, entering, n)
    totals = table.memo.get(key)
    if totals is None:
        region_of = table.region_of
        charged = {name: perf.copy() for name, perf
                   in _shares(table, plan, entering)[0].items()}
        for name, perf in _shares(table, plan,
                                  plan.pending_after)[0].items():
            charged[name].merge(perf, n - 1)
        if plan.counted is None:
            charged[region_of(plan.pcs[-1])].hwloop_backedges += n - 1
        else:
            latch = charged[region_of(plan.counted.latch)]
            latch.cycles -= BRANCH_TAKEN_PENALTY
            latch.stall_branch -= BRANCH_TAKEN_PENALTY
        totals = table.memo[key] = list(charged.items())
    return totals


def _tree_prices(table, tree: Tree, pending: Optional[int]) -> Tuple:
    """*tree*'s leaf paths entered after a load of *pending*, split by
    the regions of *table*: ``(classes, {region: prices}, regions)``
    (:meth:`~repro.engine.tree.Tree.region_prices`), *regions* listing
    each leaf's regions in path order.  Cached in the table."""
    key = (tree, pending)
    prices = table.memo.get(key)
    if prices is None:
        classes, tables = tree.region_prices(pending, table.region_of)
        regions = [list(dict.fromkeys(table.region_of(ins.addr)
                                      for ins in instrs))
                   for instrs, _ in tree.paths]
        prices = table.memo[key] = (classes, tables, regions)
    return prices


def _enter_late_regions(table, tree_prices, leaves) -> None:
    """Enter, in the order the interpreter first reaches them, the
    regions of leaf paths no iteration before has entered (the first
    iteration's leaves are entered in body order)."""
    late: Dict[str, Tuple[int, int, int]] = {}
    for t, ((_, _, regions), reached) in enumerate(zip(tree_prices, leaves)):
        for leaf in np.unique(reached).tolist():
            for k, name in enumerate(regions[leaf]):
                if name not in table:
                    when = (int(np.argmax(reached == leaf)), t, k)
                    if name not in late or when < late[name]:
                        late[name] = when
    for name in sorted(late, key=late.get):
        table.counters_for(name)


def _log(port, plan: LoopPlan, log, inners, start: int, timing,
         n: int) -> None:
    """Hand *port* every access of the dispatch with its stall-free
    issue clock.  Iteration 0 starts at *start* with *timing*; iteration
    ``r >= 1`` at ``start + first + steady * (r - 1)`` with
    :attr:`LoopPlan.steady`.  An inner loop's accesses follow the same
    rule from their loop's start in each outer iteration, one 2-D
    stream per op for the outer iterations after the first."""
    first, _, issue0, inner0 = timing[:4]
    steady, _, issue, inner = plan.steady[:4]
    after = start + first - steady
    pcs = plan.pcs
    for index, offset, delta, size, write, _ in log:
        port.log_stream(n, start + issue0[index], after + issue[index],
                        steady, offset, delta, size, write, pcs[index])
    for p, ctx in inners:
        piece = plan.pieces[p]
        loop, cols = piece.plan, piece.trips
        again, _, leads = loop.steady[:3]
        leads0 = piece.first[2]
        row0 = start + inner0[p]
        row1 = start + first + inner[p]
        body = piece.first[0] - again
        for j, offset, delta, size, write, row_delta in ctx.log:
            if isinstance(offset, np.ndarray):
                head, tail = offset[:cols], offset[cols:]
            else:
                head, tail = offset, offset + row_delta
            pc = loop.pcs[j]
            port.log_stream(cols, row0 + leads0[j], row0 + body + leads[j],
                            again, head, delta, size, write, pc)
            port.log_stream(cols, row1 + leads0[j], row1 + body + leads[j],
                            again, tail, delta, size, write, pc,
                            n - 1, steady, row_delta)
