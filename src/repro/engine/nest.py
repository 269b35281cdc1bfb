"""Loop plans: one dispatch for all remaining iterations of a hardware loop.

When dispatch lands on the start of an active hardware loop, its body
is walked once into *pieces* (:func:`walk`, a :class:`LoopShape`):
straight-line runs and complete ``lp0`` loops.  A one-level loop at
either level is a body of one run piece, a prefix of the block at its
start.  A PULP-NN conv kernel's ``lp1`` filter loop — clear the
accumulators, rewind the activation pointers, run a dot-product ``lp0``
loop (two in the 2-bit kernel), quantize — is runs and inner loops,
each inner loop an ``lp.setup``/``lp.setupi`` followed by a body that
is a block prefix, itself a shape of one run piece.

The walk declines, as a side exit:

* ``loop-shape`` — a body that is not a block prefix at level 0 or
  while the other loop is active, or that holds a branch, jump, CSR or
  system instruction, a level-1 or partial ``lp.*`` setup, or an inner
  body that is not a block prefix;
* ``nested-loop-end`` — the other loop's back-edge would fire inside
  the body (or, for level 1 sharing the end address, *instead of* its
  own: level 0 has redirect priority), or an inner loop ends where the
  outer one does;
* ``region`` — with a region profile attached, a nest's body crosses a
  region boundary.

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
timing is cached per entering load.  Against an access-logging memory,
every memory op is handed to the port as a stream strided in clock and
offset, an inner loop's as a 2-D stream with one row per outer
iteration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.timing import MISALIGNED_PENALTY
from .blocks import Block
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
    ``block.instrs[lo:hi]`` and ``("loop", setup, shape)`` for an
    ``lp0`` setup and the shape of its body.  *plans* caches a
    :class:`LoopPlan` (or the side-exit reason) per tuple of inner trip
    counts."""

    __slots__ = ("pieces", "setups", "straight", "inner_lengths", "plans")

    def __init__(self, pieces: List[Tuple]) -> None:
        self.pieces = pieces
        self.setups = [piece[1] for piece in pieces if piece[0] == "loop"]
        #: instructions of an iteration outside its inner loops' bodies
        self.straight = len(self.setups) + sum(
            piece[3] - piece[2] for piece in pieces if piece[0] == "run")
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
        """Instructions one iteration retires, its inner loops run
        *trips* times."""
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
         other_end: Optional[int], block_at, regions=None) -> LoopShape:
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
        return LoopShape([("run", block, 0, k + 1)])
    if level == 0 or other_end is not None:
        raise Unfusable("loop-shape")
    if regions is not None:
        names = set()
        addr = start
        while addr < end and addr in imem:
            names.add(regions.region_of(addr))
            addr += imem[addr].spec.size
        if len(names) > 1:
            raise Unfusable("region")
    pieces: List[Tuple] = []
    addr = start
    while True:
        lo = 0
        if block is None:
            setup = imem.get(addr)
            if (setup is None or setup.spec.mnemonic not in _SETUPS
                    or setup.rd != 0):
                raise Unfusable("loop-shape")
            block = block_at(addr + setup.spec.size)
            j = -1 if block is None else block.ft_index.get(
                (addr + setup.imm) & MASK32, -1)
            if j < 0:
                raise Unfusable("loop-shape")
            if 0 <= block.ft_index.get(end, -1) <= j:
                # The outer back-edge would fire inside (or, at a
                # shared end, instead of) the inner loop's.
                raise Unfusable("nested-loop-end")
            pieces.append(("loop", setup,
                           LoopShape([("run", block, 0, j + 1)])))
            lo = j + 1
        k = block.ft_index.get(end, -1)
        if k >= lo:
            pieces.append(("run", block, lo, k + 1))
            break
        if lo < block.n:
            pieces.append(("run", block, lo, block.n))
        addr = block.fts[-1]
        block = block_at(addr)
    return LoopShape(pieces)


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


class LoopPlan:
    """A compiled loop body for one tuple of inner trip counts."""

    __slots__ = (
        "pieces", "body_len", "pcs", "invariants", "inductions",
        "acc_regs", "committed_regs", "row_instructions", "row_backedges",
        "row_classes", "pending_after", "steady", "inner_loop", "_timing",
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
            else:
                setup, inner = rest
                plan = inner.plan(())
                if isinstance(plan, str):
                    raise Unfusable(plan)
                loop = _Loop(setup, plan, next(counts))
                if setup.spec.mnemonic == "lp.setup":
                    ops.append([("r", setup.rs1)])
                ops.append(loop.accesses())
                pieces.append(loop)
        classes, deltas = classify_ops(ops)
        for piece in pieces:
            if isinstance(piece, _Run):
                piece.handlers = _compile_handlers(
                    piece.block.instrs[piece.lo:piece.hi], classes,
                    piece.first)
            else:
                setup = piece.setup.instrs[0]
                if (setup.spec.mnemonic == "lp.setup"
                        and classes.get(setup.rs1) != "invariant"):
                    # The count would change between outer iterations.
                    raise Unfusable("reg-pattern")
                piece.outer_acc = frozenset(
                    reg for reg in piece.plan.acc_regs
                    if classes.get(reg) == "acc")
        self.pieces = pieces
        self.body_len = len(pcs)
        self.pcs = pcs
        self.invariants = sorted(
            r for r, c in classes.items() if c == "invariant")
        self.inductions = sorted(
            (r, deltas[r]) for r, c in classes.items() if c == "induction")
        self.acc_regs = sorted(r for r, c in classes.items() if c == "acc")
        self.committed_regs = sorted(
            r for r, c in classes.items() if c in ("induction", "local"))

        row_classes: Dict[str, int] = {}
        backedges = 0
        for piece in pieces:
            if isinstance(piece, _Run):
                for cls in piece.block.classes[piece.lo:piece.hi]:
                    row_classes[cls] = row_classes.get(cls, 0) + 1
            else:
                backedges += piece.trips - 1
                cls = piece.setup.classes[0]
                row_classes[cls] = row_classes.get(cls, 0) + 1
                for cls, count in piece.plan.row_classes.items():
                    row_classes[cls] = (row_classes.get(cls, 0)
                                        + count * piece.trips)
        self.row_instructions = shape.instructions(trips)
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
        *pending*: ``(cycles, load_use_stalls, issue, inner)``, where
        ``issue[k]`` is the cycle (from the iteration's start) at which
        straight-line op ``k`` issues and ``inner[p]`` the cycle at which
        loop piece ``p``'s first inner iteration starts."""
        timing = self._timing.get(pending)
        if timing is not None:
            return timing
        key = pending
        cycles = stalls = 0
        issue: List[int] = []
        inner: Dict[int, int] = {}
        for p, piece in enumerate(self.pieces):
            if isinstance(piece, _Run):
                block, lo = piece.block, piece.lo
                issue += [cycles] + [
                    cycles + block.price(lo, j, pending)[0]
                    for j in range(lo + 1, piece.hi)]
            else:
                inner[p] = cycles + piece.setup.price(0, 1, pending)[0]
            piece_cycles, piece_stalls, pending = piece.price(pending)
            cycles += piece_cycles
            stalls += piece_stalls
        timing = self._timing[key] = (cycles, stalls, issue, inner)
        return timing


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


def execute(cpu, plan: LoopPlan, level: int, port=None) -> int:
    """Run all remaining iterations of the active loop *level* under
    *plan*; returns instructions retired.  Raises :class:`Unfusable`
    (with no state mutated) when a dynamic precondition fails.  *port*
    is ``cpu.mem`` when it logs accesses, else None."""
    hw = cpu.hwloops
    n = hw.count[level]
    ctx = enter(cpu, plan, n, port is not None)
    mis = 0
    # The inner contexts stay alive to the end of the dispatch: their
    # ids key the store streams a load may read back.
    inners = []
    for index, piece in enumerate(plan.pieces):
        if isinstance(piece, _Run):
            for handler in piece.handlers:
                handler(ctx)
        else:
            inner = _run_loop(ctx, piece)
            mis += sum(inner.mis)
            inners.append((index, inner))
    mis += sum(ctx.mis)
    if port is not None and mis:
        raise Unfusable("misaligned")
    commit(cpu, plan, ctx)

    perf = cpu.perf
    timing = plan.timing(cpu._pending_load_rd)
    first, load_use = timing[:2]
    steady, steady_load_use = plan.steady[:2]
    if port is not None:
        _log(port, plan, ctx.log, inners, perf.cycles, timing, n)
    mis_cycles = mis * MISALIGNED_PENALTY
    perf.cycles += first + steady * (n - 1) + mis_cycles
    perf.instructions += plan.row_instructions * n
    perf.hwloop_backedges += plan.row_backedges * n + n - 1
    perf.stall_load_use += load_use + steady_load_use * (n - 1)
    perf.stall_misaligned += mis_cycles
    for cls, count in plan.row_classes.items():
        perf.by_class[cls] += count * n
    cpu._pending_load_rd = plan.pending_after
    hw.count[level] = 0
    if plan.inner_loop is not None:
        hw.count[0] = 0
        hw.start[0], hw.end[0] = plan.inner_loop
    cpu.pc = hw.end[level]
    return plan.row_instructions * n


def _log(port, plan: LoopPlan, log, inners, start: int, timing,
         n: int) -> None:
    """Hand *port* every access of the dispatch with its stall-free
    issue clock.  Iteration 0 starts at *start* with *timing*; iteration
    ``r >= 1`` at ``start + first + steady * (r - 1)`` with
    :attr:`LoopPlan.steady`.  An inner loop's accesses follow the same
    rule from their loop's start in each outer iteration, one 2-D
    stream per op for the outer iterations after the first."""
    first, _, issue0, inner0 = timing
    steady, _, issue, inner = plan.steady
    after = start + first - steady
    pcs = plan.pcs
    for index, offset, delta, size, write, _ in log:
        port.log_stream(n, start + issue0[index], after + issue[index],
                        steady, offset, delta, size, write, pcs[index])
    for p, ctx in inners:
        piece = plan.pieces[p]
        loop, cols = piece.plan, piece.trips
        again, _, leads, _ = loop.steady
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
