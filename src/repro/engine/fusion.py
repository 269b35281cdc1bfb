"""Hardware-loop fusion: compile a loop body into one superinstruction.

When dispatch lands on the start of an active hardware loop whose body
is a single straight-line block, the body is compiled into a *fused
plan*: a register classification plus a list of numpy batch handlers
that execute all ``N`` remaining iterations in one pass.

Classification (per register, from the per-op ``fusion`` access roles):

* **invariant** — read but never written; one scalar for all iterations.
* **induction** — every write is a constant self-increment (post-
  increment writeback, ``addi r, r, imm``); its value at iteration
  ``i`` is the affine ``entry + delta*i``.  Induction values stay
  *symbolic* — a ``(base, delta)`` pair — so streaming loads and stores
  through them compile to contiguous array slices instead of gathers,
  and the address array is never materialized unless an ALU/dot-product
  op reads the pointer as data.
* **accumulator** — only ever read and written by accumulating
  dot-product/MAC ops (``rd += f(i)``); per-iteration contributions are
  summed once at commit (``entry + sum mod 2**32``).
* **local** — written (plainly) before any read each iteration; its
  committed value is the last iteration's.

Anything else — a cross-iteration recurrence the engine cannot express
in closed form — raises :class:`Unfusable` and the loop falls back to
block-at-a-time execution, as do dynamic conditions checked per
dispatch: out-of-bounds addresses (the interpreter must raise at the
exact faulting iteration), overlapping load/store ranges, and stores
with non-affine address patterns.  Handlers never mutate CPU or memory
state before every check has passed; commits (register file, memory
scatters, closed-form cycle accounting) happen only on success, so a
side exit is always invisible.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .vector import (
    ALU_OPS,
    MASK32,
    dot,
    gather,
    replicate,
    scalar_load,
    to_signed32,
)

#: Minimum remaining trip count worth a numpy dispatch.
FUSE_MIN_ITERS = 2


class Unfusable(Exception):
    """Fusion declined; ``reason`` keys the side-exit statistics."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


_IOTA_CACHE: Dict[int, np.ndarray] = {}


def _iota(n: int) -> np.ndarray:
    arr = _IOTA_CACHE.get(n)
    if arr is None:
        if len(_IOTA_CACHE) > 256:
            _IOTA_CACHE.clear()
        arr = _IOTA_CACHE[n] = np.arange(n, dtype=np.int64)
    return arr


# ---------------------------------------------------------------------------
# Access roles
# ---------------------------------------------------------------------------

#: ("r", reg) read | ("racc", reg) accumulator-read | ("w", reg, kind)
#: with kind "plain" | ("incr", delta) | "accadd".
def _accesses(ins) -> List[Tuple]:
    tag = ins.spec.fusion
    kind = tag[0]
    if kind == "load_post":
        return [("r", ins.rs1), ("w", ins.rd, "plain"),
                ("w", ins.rs1, ("incr", ins.imm))]
    if kind == "load_imm":
        return [("r", ins.rs1), ("w", ins.rd, "plain")]
    if kind == "store_post":
        return [("r", ins.rs1), ("r", ins.rs2),
                ("w", ins.rs1, ("incr", ins.imm))]
    if kind == "store_imm":
        return [("r", ins.rs1), ("r", ins.rs2)]
    if kind == "alu_imm":
        write = ("incr", ins.imm) \
            if tag[1] == "add" and ins.rd == ins.rs1 else "plain"
        return [("r", ins.rs1), ("w", ins.rd, write)]
    if kind == "alu_rr":
        return [("r", ins.rs1), ("r", ins.rs2), ("w", ins.rd, "plain")]
    if kind == "lui":
        return [("w", ins.rd, "plain")]
    if kind == "mac":
        return [("r", ins.rs1), ("r", ins.rs2), ("racc", ins.rd),
                ("w", ins.rd, "accadd")]
    if kind == "dotp":
        accumulate, variant = tag[4], tag[5]
        ops: List[Tuple] = [("r", ins.rs1)]
        if variant != "sci":
            ops.append(("r", ins.rs2))
        if accumulate:
            ops.extend([("racc", ins.rd), ("w", ins.rd, "accadd")])
        else:
            ops.append(("w", ins.rd, "plain"))
        return ops
    raise Unfusable("unsupported-op")


def _classify(instrs) -> Tuple[Dict[int, str], Dict[int, int]]:
    """Register classes and induction deltas for one loop body."""
    written: set = set()
    pre_read: Dict[int, str] = {}
    write_kinds: Dict[int, List] = {}
    for ins in instrs:
        if ins.spec.fusion is None or ins.spec.fusion[0] == "interp":
            raise Unfusable("unsupported-op")
        for access in _accesses(ins):
            if access[0] == "w":
                reg, kind = access[1], access[2]
                if reg == 0:
                    raise Unfusable("writes-x0")
                write_kinds.setdefault(reg, []).append(kind)
                if kind == "plain":
                    written.add(reg)
            else:
                reg = access[1]
                if reg in written:
                    continue
                role = "acc" if access[0] == "racc" else "plain"
                if pre_read.setdefault(reg, role) != role:
                    raise Unfusable("reg-pattern")
    classes: Dict[int, str] = {}
    deltas: Dict[int, int] = {}
    for reg, kinds in write_kinds.items():
        role = pre_read.get(reg)
        if role is None:
            classes[reg] = "local"
        elif role == "plain":
            if all(isinstance(k, tuple) and k[0] == "incr" for k in kinds):
                classes[reg] = "induction"
                deltas[reg] = sum(k[1] for k in kinds)
            else:
                raise Unfusable("reg-pattern")
        else:
            if all(k == "accadd" for k in kinds):
                classes[reg] = "acc"
            else:
                raise Unfusable("reg-pattern")
    for reg in pre_read:
        classes.setdefault(reg, "invariant")
    return classes, deltas


# ---------------------------------------------------------------------------
# Per-dispatch evaluation state
# ---------------------------------------------------------------------------

class _Ctx:
    """Evaluation state for one fused dispatch.

    ``env`` maps register -> materialized value (int scalar or ``(N,)``
    int64 array, masked to u32); induction registers live in ``affine``
    as ``(base, delta)`` and keep ``env[reg] is None`` until some
    handler reads them as data.  Memory writes are deferred in
    ``stores`` until every handler has succeeded.
    """

    __slots__ = ("n", "mem", "data", "data16", "data32", "env", "affine",
                 "contribs", "mis", "stores", "load_ranges",
                 "store_ranges")

    def __init__(self, n: int, mem, body_len: int) -> None:
        self.n = n
        self.mem = mem
        buf = mem._data
        self.data = np.frombuffer(buf, dtype=np.uint8)
        self.data16 = np.frombuffer(buf, dtype=np.uint16,
                                    count=len(buf) // 2)
        self.data32 = np.frombuffer(buf, dtype=np.uint32,
                                    count=len(buf) // 4)
        self.env: Dict[int, object] = {}
        self.affine: Dict[int, Tuple[int, int]] = {}
        self.contribs: Dict[int, object] = {}
        self.mis = [0] * body_len
        self.stores: List[Tuple] = []
        self.load_ranges: List[Tuple[int, int]] = []
        self.store_ranges: List[Tuple[int, int]] = []

    def get(self, reg: int):
        value = self.env[reg]
        if value is None:
            base, delta = self.affine[reg]
            value = self.env[reg] = (base + delta * _iota(self.n)) & MASK32
        return value

    def bump(self, reg: int, imm: int) -> None:
        base, delta = self.affine[reg]
        self.affine[reg] = (base + imm, delta)
        value = self.env[reg]
        if value is not None:
            self.env[reg] = (value + imm) & MASK32


def _check_range(ctx: _Ctx, lo: int, hi: int, size: int,
                 against: List[Tuple[int, int]]) -> None:
    if not ctx.mem.contains(lo, hi - lo + size):
        raise Unfusable("mem-bounds")
    end = hi + size
    for other_lo, other_end in against:
        if lo < other_end and other_lo < end:
            raise Unfusable("mem-alias")


# ---------------------------------------------------------------------------
# Batch handlers
# ---------------------------------------------------------------------------

def _contig_load(ctx: _Ctx, off: int, size: int, signed: bool, n: int):
    if size == 4:
        # Sign-extending a full word into the u32 domain is the identity.
        return ctx.data32[off >> 2:(off >> 2) + n].astype(np.int64)
    if size == 2:
        value = ctx.data16[off >> 1:(off >> 1) + n].astype(np.int64)
    else:
        value = ctx.data[off:off + n].astype(np.int64)
    if signed:
        sign_bit = 1 << (size * 8 - 1)
        value = ((value ^ sign_bit) - sign_bit) & MASK32
    return value


def _make_load(index: int, rd: int, rs1: int, imm: int, size: int,
               signed: bool, post: bool, rs1_induction: bool) -> Callable:
    imm_off = 0 if post else imm

    if rs1_induction:
        def step(ctx: _Ctx) -> None:
            n = ctx.n
            base, delta = ctx.affine[rs1]
            addr0 = base + imm_off
            last = addr0 + delta * (n - 1)
            lo, hi = (addr0, last) if delta >= 0 else (last, addr0)
            _check_range(ctx, lo, hi, size, ctx.store_ranges)
            ctx.load_ranges.append((lo, hi + size))
            off0 = addr0 - ctx.mem.base
            if delta == 0:
                ctx.env[rd] = scalar_load(ctx.data, off0, size, signed)
                if size > 1 and addr0 % size:
                    ctx.mis[index] = n
            elif delta == size and addr0 % size == 0 and off0 % size == 0:
                ctx.env[rd] = _contig_load(ctx, off0, size, signed, n)
            else:
                offsets = off0 + delta * _iota(n)
                ctx.env[rd] = gather(ctx.data, offsets, size, signed)
                if size > 1:
                    if delta % size == 0:
                        if addr0 % size:
                            ctx.mis[index] = n
                    else:
                        ctx.mis[index] = int(np.count_nonzero(
                            (offsets + ctx.mem.base) % size))
            if post:
                ctx.bump(rs1, imm)
    else:
        def step(ctx: _Ctx) -> None:
            base = ctx.get(rs1)
            addr = base if post else (base + imm) & MASK32
            if isinstance(addr, np.ndarray):
                lo, hi = int(addr.min()), int(addr.max())
                _check_range(ctx, lo, hi, size, ctx.store_ranges)
                ctx.load_ranges.append((lo, hi + size))
                ctx.env[rd] = gather(ctx.data, addr - ctx.mem.base,
                                     size, signed)
                if size > 1:
                    ctx.mis[index] = int(np.count_nonzero(addr % size))
            else:
                _check_range(ctx, addr, addr, size, ctx.store_ranges)
                ctx.load_ranges.append((addr, addr + size))
                ctx.env[rd] = scalar_load(ctx.data, addr - ctx.mem.base,
                                          size, signed)
                if size > 1 and addr % size:
                    ctx.mis[index] = ctx.n
            if post:
                ctx.env[rs1] = (base + imm) & MASK32

    return step


def _make_store(index: int, rs1: int, rs2: int, imm: int, size: int,
                post: bool, rs1_induction: bool) -> Callable:
    imm_off = 0 if post else imm

    if rs1_induction:
        def step(ctx: _Ctx) -> None:
            n = ctx.n
            base, delta = ctx.affine[rs1]
            addr0 = base + imm_off
            last = addr0 + delta * (n - 1)
            lo, hi = (addr0, last) if delta >= 0 else (last, addr0)
            _check_range(ctx, lo, hi, size,
                         ctx.store_ranges + ctx.load_ranges)
            ctx.store_ranges.append((lo, hi + size))
            values = ctx.get(rs2)
            off0 = addr0 - ctx.mem.base
            if delta == 0:
                last_value = int(values[-1]) \
                    if isinstance(values, np.ndarray) else values
                ctx.stores.append(("scalar", off0, size, last_value))
                if size > 1 and addr0 % size:
                    ctx.mis[index] = n
            elif delta == size and addr0 % size == 0 and off0 % size == 0:
                ctx.stores.append(("contig", off0, size, values))
            elif delta >= size or delta <= -size:
                offsets = off0 + delta * _iota(n)
                ctx.stores.append(("gather", offsets, size, values))
                if size > 1:
                    if delta % size == 0:
                        if addr0 % size:
                            ctx.mis[index] = n
                    else:
                        ctx.mis[index] = int(np.count_nonzero(
                            (offsets + ctx.mem.base) % size))
            else:
                # Iterations overlap (0 < |stride| < size): a scatter
                # cannot reproduce the interpreter's write order.
                raise Unfusable("store-pattern")
            if post:
                ctx.bump(rs1, imm)
    else:
        def step(ctx: _Ctx) -> None:
            base = ctx.get(rs1)
            addr = base if post else (base + imm) & MASK32
            values = ctx.get(rs2)
            if isinstance(addr, np.ndarray):
                lo, hi = int(addr.min()), int(addr.max())
                _check_range(ctx, lo, hi, size,
                             ctx.store_ranges + ctx.load_ranges)
                ctx.store_ranges.append((lo, hi + size))
                strides = np.diff(addr)
                if len(strides) and not ((strides >= size).all()
                                         or (strides <= -size).all()):
                    raise Unfusable("store-pattern")
                ctx.stores.append(("gather", addr - ctx.mem.base, size,
                                   values))
                if size > 1:
                    ctx.mis[index] = int(np.count_nonzero(addr % size))
            else:
                _check_range(ctx, addr, addr, size,
                             ctx.store_ranges + ctx.load_ranges)
                ctx.store_ranges.append((addr, addr + size))
                last_value = int(values[-1]) \
                    if isinstance(values, np.ndarray) else values
                ctx.stores.append(
                    ("scalar", addr - ctx.mem.base, size, last_value))
                if size > 1 and addr % size:
                    ctx.mis[index] = ctx.n
            if post:
                ctx.env[rs1] = (base + imm) & MASK32

    return step


def _make_dotp(rd: int, rs1: int, rs2: int, imm: int, width: int,
               a_signed: bool, b_signed: bool, accumulate: bool,
               variant: str, rd_is_acc: bool) -> Callable:
    lanes = 32 // width
    shifts = np.arange(lanes, dtype=np.int64) * width
    lane_mask = (1 << width) - 1
    sign_bit = 1 << (width - 1)
    sci_value = replicate(imm & MASK32, width) if variant == "sci" else 0

    def lane_split(value):
        if isinstance(value, np.ndarray):
            return (value[:, None] >> shifts) & lane_mask
        return (value >> shifts) & lane_mask

    def step(ctx: _Ctx) -> None:
        a = ctx.get(rs1)
        if variant == "sci":
            b = sci_value
        elif variant == "sc":
            b = replicate(ctx.get(rs2), width)
        else:
            b = ctx.get(rs2)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            la = lane_split(a)
            lb = lane_split(b)
            if a_signed:
                la = (la ^ sign_bit) - sign_bit
            if b_signed:
                lb = (lb ^ sign_bit) - sign_bit
            contribution = (la * lb).sum(axis=-1)
        else:
            contribution = dot(a, b, width, a_signed, b_signed)
        if not accumulate:
            ctx.env[rd] = contribution & MASK32
        elif rd_is_acc:
            existing = ctx.contribs.get(rd)
            ctx.contribs[rd] = contribution if existing is None \
                else existing + contribution
        else:
            ctx.env[rd] = (ctx.get(rd) + contribution) & MASK32

    return step


def _make_mac(rd: int, rs1: int, rs2: int, sign: int,
              rd_is_acc: bool) -> Callable:
    def step(ctx: _Ctx) -> None:
        contribution = sign * to_signed32(ctx.get(rs1)) \
            * to_signed32(ctx.get(rs2))
        if rd_is_acc:
            existing = ctx.contribs.get(rd)
            ctx.contribs[rd] = contribution if existing is None \
                else existing + contribution
        else:
            ctx.env[rd] = (ctx.get(rd) + contribution) & MASK32

    return step


def _make_alu(rd: int, rs1: int, rs2: Optional[int], imm: Optional[int],
              op: str) -> Callable:
    fn = ALU_OPS[op]
    imm_masked = imm & MASK32 if imm is not None else None

    def step(ctx: _Ctx) -> None:
        a = ctx.get(rs1)
        b = ctx.get(rs2) if rs2 is not None else imm_masked
        ctx.env[rd] = fn(a, b)

    return step


def _make_bump(rd: int, imm: int) -> Callable:
    def step(ctx: _Ctx) -> None:
        ctx.bump(rd, imm)

    return step


def _make_lui(rd: int, imm: int) -> Callable:
    value = (imm << 12) & MASK32

    def step(ctx: _Ctx) -> None:
        ctx.env[rd] = value

    return step


def _compile_handlers(instrs, classes) -> List[Callable]:
    handlers: List[Callable] = []
    for index, ins in enumerate(instrs):
        tag = ins.spec.fusion
        kind = tag[0]
        if kind in ("load_post", "load_imm"):
            handlers.append(_make_load(
                index, ins.rd, ins.rs1, ins.imm, tag[1], tag[2],
                post=(kind == "load_post"),
                rs1_induction=classes.get(ins.rs1) == "induction"))
        elif kind in ("store_post", "store_imm"):
            handlers.append(_make_store(
                index, ins.rs1, ins.rs2, ins.imm, tag[1],
                post=(kind == "store_post"),
                rs1_induction=classes.get(ins.rs1) == "induction"))
        elif kind == "dotp":
            _, width, a_signed, b_signed, accumulate, variant = tag
            rd_is_acc = accumulate and classes.get(ins.rd) == "acc"
            handlers.append(_make_dotp(
                ins.rd, ins.rs1, ins.rs2, ins.imm, width, a_signed,
                b_signed, accumulate, variant, rd_is_acc))
        elif kind == "mac":
            handlers.append(_make_mac(
                ins.rd, ins.rs1, ins.rs2, tag[1],
                classes.get(ins.rd) == "acc"))
        elif kind == "alu_imm":
            if (tag[1] == "add" and ins.rd == ins.rs1
                    and classes.get(ins.rd) == "induction"):
                handlers.append(_make_bump(ins.rd, ins.imm))
            else:
                handlers.append(_make_alu(ins.rd, ins.rs1, None, ins.imm,
                                          tag[1]))
        elif kind == "alu_rr":
            handlers.append(_make_alu(ins.rd, ins.rs1, ins.rs2, None,
                                      tag[1]))
        elif kind == "lui":
            handlers.append(_make_lui(ins.rd, ins.imm))
        else:
            raise Unfusable("unsupported-op")
    return handlers


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

class FusedPlan:
    """A compiled loop body plus its closed-form cycle model."""

    __slots__ = (
        "body_len", "handlers", "invariants", "inductions", "acc_regs",
        "committed_regs", "srcs0", "lu0_steady", "steady_sum",
        "lu_per_iter", "cls_counts", "pending_after", "mis_pen", "lu_pen",
    )

    def __init__(self, block, body_len: int, params) -> None:
        instrs = block.instrs[:body_len]
        classes, deltas = _classify(instrs)
        self.body_len = body_len
        self.handlers = _compile_handlers(instrs, classes)
        self.invariants = sorted(
            r for r, c in classes.items() if c == "invariant")
        self.inductions = sorted(
            (r, deltas[r]) for r, c in classes.items() if c == "induction")
        self.acc_regs = sorted(
            r for r, c in classes.items() if c == "acc")
        self.committed_regs = sorted(
            r for r, c in classes.items() if c in ("induction", "local"))

        self.mis_pen = params.misaligned_penalty
        self.lu_pen = params.load_use_penalty
        self.srcs0 = block.srcs[0]
        pending_last = block.pending[body_len - 1]
        # Steady-state load-use stall on the body's first instruction:
        # from iteration 2 on, the "previous" instruction is the body's
        # last one (the hardware-loop back-edge is a pure fetch
        # redirect, so the hazard wraps around).
        self.lu0_steady = (
            self.lu_pen
            if pending_last is not None and pending_last != 0
            and pending_last in self.srcs0 else 0
        )
        self.steady_sum = sum(
            block.base[i] + (self.lu0_steady if i == 0 else block.lu[i])
            for i in range(body_len)
        )
        self.lu_per_iter = self.lu0_steady + sum(
            block.lu[i] for i in range(1, body_len))
        self.cls_counts = {
            cls: pref[body_len]
            for cls, pref in block.cls_prefix.items() if pref[body_len]
        }
        self.pending_after = pending_last


def compile_plan(block, body_len: int, params) -> FusedPlan:
    """Compile the first *body_len* instructions of *block* as a loop
    body; raises :class:`Unfusable` on any statically-unprovable shape."""
    return FusedPlan(block, body_len, params)


def execute_plan(cpu, plan: FusedPlan, level: int) -> int:
    """Run all remaining iterations of the active loop *level* under
    *plan*; returns instructions retired.  Raises :class:`Unfusable`
    (with no state mutated) when a dynamic precondition fails."""
    hw = cpu.hwloops
    n = hw.count[level]
    regs = cpu.regs
    ctx = _Ctx(n, cpu.mem, plan.body_len)
    env = ctx.env
    for reg in plan.invariants:
        env[reg] = regs[reg]
    for reg, delta in plan.inductions:
        ctx.affine[reg] = (regs[reg], delta)
        env[reg] = None
    for handler in plan.handlers:
        handler(ctx)

    # -- every check passed: commit ------------------------------------
    data = ctx.data
    data16 = ctx.data16
    data32 = ctx.data32
    for shape, where, size, values in ctx.stores:
        if shape == "contig":
            if not isinstance(values, np.ndarray):
                values = np.full(n, values, dtype=np.int64)
            if size == 4:
                data32[where >> 2:(where >> 2) + n] = \
                    values.astype(np.uint32)
            elif size == 2:
                data16[where >> 1:(where >> 1) + n] = \
                    (values & 0xFFFF).astype(np.uint16)
            else:
                data[where:where + n] = (values & 0xFF).astype(np.uint8)
        elif shape == "gather":
            for k in range(size):
                data[where + k] = np.asarray(
                    (values >> (8 * k)) & 0xFF, dtype=np.uint8)
        else:  # scalar: one address, last write wins
            for k in range(size):
                data[where + k] = (values >> (8 * k)) & 0xFF
    for reg in plan.committed_regs:
        affine = ctx.affine.get(reg)
        if affine is not None:
            base, delta = affine
            regs[reg] = (base + delta * (n - 1)) & MASK32
        else:
            value = env[reg]
            regs[reg] = int(value[-1]) if isinstance(value, np.ndarray) \
                else value
    for reg in plan.acc_regs:
        contribution = ctx.contribs.get(reg)
        if contribution is None:
            total = 0
        elif isinstance(contribution, np.ndarray):
            total = int(contribution.sum())
        else:
            total = contribution * n
        regs[reg] = (regs[reg] + total) & MASK32

    perf = cpu.perf
    timing = cpu.timing
    pend = timing._pending_load_rd
    entry_lu = (
        plan.lu_pen
        if pend is not None and pend != 0 and pend in plan.srcs0 else 0
    )
    mis_cycles = sum(ctx.mis) * plan.mis_pen
    first_iter_extra = entry_lu - plan.lu0_steady
    perf.cycles += plan.steady_sum * n + first_iter_extra + mis_cycles
    perf.instructions += plan.body_len * n
    perf.hwloop_backedges += n - 1
    perf.stall_load_use += plan.lu_per_iter * n + first_iter_extra
    perf.stall_misaligned += mis_cycles
    for cls, count in plan.cls_counts.items():
        perf.by_class[cls] += count * n
    timing._pending_load_rd = plan.pending_after
    hw.count[level] = 0
    cpu.pc = hw.end[level]
    return plan.body_len * n
