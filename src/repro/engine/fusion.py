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
  through them compile to (strided) array slices instead of gathers
  whenever the pointer steps forward by a multiple of the access size
  from an aligned base, and the address array is never materialized
  unless an ALU/dot-product op reads the pointer as data.
* **accumulator** — only ever read and written by accumulating
  dot-product/MAC ops (``rd += f(i)``); per-iteration contributions are
  summed once at commit (``entry + sum mod 2**32``).
* **local** — written (plainly) before any read each iteration; its
  committed value is the last iteration's.  A register rebuilt lane by
  lane (``pv.insert``) counts as written once its *insert chain* has
  covered every lane; a full read before that, or a chain left open at
  the end of the body, is a recurrence.

Besides memory, ALU, MAC and dot-product ops, the batch handlers cover
the RI5CY unpack idioms: ``p.extract(u)``, ``pv.insert``,
``pv.shuffle2`` and the lane shifts and logic
(:mod:`repro.engine.vector` holds their lane arithmetic).

Anything else — a cross-iteration recurrence the engine cannot express
in closed form — raises :class:`Unfusable` and the loop falls back to
block-at-a-time execution, as do dynamic conditions checked per
dispatch: out-of-bounds addresses (the interpreter must raise at the
exact faulting iteration), overlapping load/store ranges, and stores
with non-affine address patterns.  Two affine store streams with one
stride are disjoint exactly when their residues modulo the stride leave
room for both accesses, however their ranges overlap; every other pair
of ranges must not overlap at all.  Handlers never mutate CPU or memory
state before every check has passed; commits (register file, memory
scatters, cycle accounting) happen only on success, so a side exit is
always invisible.  The cycles are ``first + steady * (n - 1)``, both
priced by :meth:`~repro.engine.blocks.Block.price`: the first iteration
after whatever retired before the loop, the steady one after the body's
own last instruction.

Against an access-logging memory (a cluster core's replay port) a
dispatch also hands the port every load and store of every iteration as
arrays of byte offsets and stall-free issue clocks, priced the same way;
a misaligned access there is a side exit, since its penalty would shift
the clocks of the iterations after it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.timing import MISALIGNED_PENALTY
from .vector import (
    ALU_OPS,
    MASK32,
    bit_extract,
    dot,
    gather,
    lane_shift,
    replicate,
    scalar_load,
    scatter,
    shuffle2,
    split_lanes,
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
#: with kind "plain" | ("incr", delta) | "accadd" | ("lane", bits), the
#: last a partial write of the register bits set in ``bits`` (``pv.insert``).
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
    if kind == "bitx":
        return [("r", ins.rs1), ("w", ins.rd, "plain")]
    if kind == "lane":
        ops = [("r", ins.rs1)]
        if tag[3] != "sci":
            ops.append(("r", ins.rs2))
        return ops + [("w", ins.rd, "plain")]
    if kind == "shuffle2":
        return [("r", ins.rs1), ("r", ins.rs2), ("r", ins.rd),
                ("w", ins.rd, "plain")]
    if kind == "insert":
        width = tag[1]
        bits = ((1 << width) - 1) << (ins.imm % (32 // width) * width)
        return [("r", ins.rs1), ("w", ins.rd, ("lane", bits))]
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
    """Register classes and induction deltas for one loop body.

    A register not yet written this iteration and rebuilt lane by lane
    (``pv.insert``) opens an *insert chain*; its old lanes are dead, and
    the register local, only if the chain covers every bit before any
    full read of it and before the body ends; byte and halfword inserts
    may mix."""
    written: set = set()
    pre_read: Dict[int, str] = {}
    write_kinds: Dict[int, List] = {}
    #: register -> the bits its open insert chain has not written yet
    chains: Dict[int, int] = {}
    for ins in instrs:
        if ins.spec.fusion is None or ins.spec.fusion[0] == "interp":
            raise Unfusable("unsupported-op")
        for access in _accesses(ins):
            if access[0] == "w":
                reg, kind = access[1], access[2]
                if reg == 0:
                    raise Unfusable("writes-x0")
                if isinstance(kind, tuple) and kind[0] == "lane":
                    if reg in chains or reg not in written:
                        missing = chains.get(reg, MASK32) & ~kind[1]
                        if missing:
                            chains[reg] = missing
                        else:
                            chains.pop(reg, None)
                    kind = "plain"
                else:
                    chains.pop(reg, None)
                write_kinds.setdefault(reg, []).append(kind)
                if kind == "plain":
                    written.add(reg)
            else:
                reg = access[1]
                if reg in chains:
                    raise Unfusable("reg-pattern")
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
    if chains:
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
                 "store_ranges", "streams", "log")

    def __init__(self, n: int, mem, body_len: int, logging: bool) -> None:
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
        #: affine store streams ``(addr0, delta, size)``, keyed by the
        #: index of their range in ``store_ranges``
        self.streams: Dict[int, Tuple[int, int, int]] = {}
        #: ``(body index, byte offset, delta, size, is_write)`` per memory
        #: op, kept only for an access-logging memory
        self.log: Optional[List[Tuple]] = [] if logging else None

    def get(self, reg: int):
        value = self.env[reg]
        if value is None:
            base, delta = self.affine[reg]
            value = self.env[reg] = (base + delta * _iota(self.n)) & MASK32
        return value

    def note(self, index: int, offset, size: int, write: bool,
             delta: int = 0) -> None:
        """Log one memory op: iteration ``i`` accesses byte ``offset +
        delta * i``, or ``offset[i]`` when *offset* is an array."""
        if self.log is not None:
            self.log.append((index, offset, delta, size, write))

    def bump(self, reg: int, imm: int) -> None:
        base, delta = self.affine[reg]
        self.affine[reg] = (base + imm, delta)
        value = self.env[reg]
        if value is not None:
            self.env[reg] = (value + imm) & MASK32


def _interleaved(a: Optional[Tuple[int, int, int]],
                 b: Optional[Tuple[int, int, int]]) -> bool:
    """True when two affine store streams ``(addr0, delta, size)`` with
    one stride never share a byte: every address gap between them is
    congruent to ``(b0 - a0) mod |delta|``, and that residue leaves room
    for both accesses."""
    if a is None or b is None or a[1] != b[1]:
        return False
    stride = abs(a[1])
    gap = (b[0] - a[0]) % stride
    return a[2] <= gap <= stride - b[2]


def _check_range(ctx: _Ctx, lo: int, hi: int, size: int,
                 against: List[Tuple[int, int]]) -> None:
    """Bounds-check ``[lo, hi + size)`` and reject an overlap with any
    range in *against*."""
    if not ctx.mem.contains(lo, hi - lo + size):
        raise Unfusable("mem-bounds")
    end = hi + size
    for other_lo, other_end in against:
        if lo < other_end and other_lo < end:
            raise Unfusable("mem-alias")


# ---------------------------------------------------------------------------
# Batch handlers
# ---------------------------------------------------------------------------

def _view(ctx: _Ctx, size: int) -> np.ndarray:
    return ctx.data32 if size == 4 else ctx.data16 if size == 2 \
        else ctx.data


def _strided(off: int, size: int, delta: int, n: int) -> slice:
    """Element slice of an aligned stream with ``delta`` a positive
    multiple of ``size``, in the ``size``-byte view."""
    first, step = off // size, delta // size
    return slice(first, first + step * (n - 1) + 1, step)


def _strided_load(ctx: _Ctx, off: int, size: int, signed: bool,
                  delta: int, n: int):
    value = _view(ctx, size)[_strided(off, size, delta, n)].astype(np.int64)
    # Sign-extending a full word into the u32 domain is the identity.
    if signed and size < 4:
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
            ctx.note(index, off0, size, False, delta)
            if delta == 0:
                ctx.env[rd] = scalar_load(ctx.data, off0, size, signed)
                if size > 1 and addr0 % size:
                    ctx.mis[index] = n
            elif delta > 0 and delta % size == 0 and addr0 % size == 0 \
                    and off0 % size == 0:
                ctx.env[rd] = _strided_load(ctx, off0, size, signed,
                                            delta, n)
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
                ctx.note(index, addr - ctx.mem.base, size, False)
                ctx.env[rd] = gather(ctx.data, addr - ctx.mem.base,
                                     size, signed)
                if size > 1:
                    ctx.mis[index] = int(np.count_nonzero(addr % size))
            else:
                _check_range(ctx, addr, addr, size, ctx.store_ranges)
                ctx.load_ranges.append((addr, addr + size))
                ctx.note(index, addr - ctx.mem.base, size, False)
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
            stream = (addr0, delta, size) if delta else None
            # Same-stride streams may share a range without a byte.
            stores = [r for i, r in enumerate(ctx.store_ranges)
                      if not _interleaved(stream, ctx.streams.get(i))]
            _check_range(ctx, lo, hi, size, stores + ctx.load_ranges)
            if stream:
                ctx.streams[len(ctx.store_ranges)] = stream
            ctx.store_ranges.append((lo, hi + size))
            values = ctx.get(rs2)
            off0 = addr0 - ctx.mem.base
            ctx.note(index, off0, size, True, delta)
            if delta == 0:
                last_value = int(values[-1]) \
                    if isinstance(values, np.ndarray) else values
                ctx.stores.append(("scalar", off0, size, last_value))
                if size > 1 and addr0 % size:
                    ctx.mis[index] = n
            elif delta > 0 and delta % size == 0 and addr0 % size == 0 \
                    and off0 % size == 0:
                ctx.stores.append(("strided", _strided(off0, size, delta, n),
                                   size, values))
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
                ctx.note(index, addr - ctx.mem.base, size, True)
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
                ctx.note(index, addr - ctx.mem.base, size, True)
                last_value = int(values[-1]) \
                    if isinstance(values, np.ndarray) else values
                ctx.stores.append(
                    ("scalar", addr - ctx.mem.base, size, last_value))
                if size > 1 and addr % size:
                    ctx.mis[index] = ctx.n
            if post:
                ctx.env[rs1] = (base + imm) & MASK32

    return step


def _simd_operand(rs2: int, imm: int, width: int,
                  variant: str) -> Callable:
    """Reader of a SIMD op's second operand: ``rs2``, ``rs2``'s low lane
    replicated (``.sc``) or the replicated immediate (``.sci``)."""
    if variant == "sci":
        value = replicate(imm & MASK32, width)
        return lambda ctx: value
    if variant == "sc":
        return lambda ctx: replicate(ctx.get(rs2), width)
    return lambda ctx: ctx.get(rs2)


def _make_dotp(rd: int, rs1: int, rs2: int, imm: int, width: int,
               a_signed: bool, b_signed: bool, accumulate: bool,
               variant: str, rd_is_acc: bool) -> Callable:
    sign_bit = 1 << (width - 1)
    operand = _simd_operand(rs2, imm, width, variant)

    def step(ctx: _Ctx) -> None:
        a = ctx.get(rs1)
        b = operand(ctx)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            la = split_lanes(a, width)
            lb = split_lanes(b, width)
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


def _make_bitx(rd: int, rs1: int, imm: int, signed: bool) -> Callable:
    # The IU immediate packs pos | (len - 1) << 5 (``pack_pos_len``).
    pos, length = imm & 0x1F, ((imm >> 5) & 0x1F) + 1

    def step(ctx: _Ctx) -> None:
        ctx.env[rd] = bit_extract(ctx.get(rs1), pos, length, signed)

    return step


def _make_lane(rd: int, rs1: int, rs2: int, imm: int, op: str, width: int,
               variant: str) -> Callable:
    operand = _simd_operand(rs2, imm, width, variant)
    if op in ("and", "or", "xor"):
        fn = ALU_OPS[op]          # bitwise: no lane split needed
    else:
        def fn(a, b):
            return lane_shift(op, a, b, width)

    def step(ctx: _Ctx) -> None:
        ctx.env[rd] = fn(ctx.get(rs1), operand(ctx))

    return step


def _make_shuffle2(rd: int, rs1: int, rs2: int, width: int) -> Callable:
    def step(ctx: _Ctx) -> None:
        ctx.env[rd] = shuffle2(ctx.get(rd), ctx.get(rs1), ctx.get(rs2),
                               width)

    return step


def _make_insert(rd: int, rs1: int, index: int, width: int) -> Callable:
    shift = index * width
    lane_mask = (1 << width) - 1
    keep = ~(lane_mask << shift) & MASK32

    def step(ctx: _Ctx) -> None:
        # An insert chain's first lane finds rd unset: its old lanes are
        # dead (see _classify), so it starts from zero.
        ctx.env[rd] = (ctx.env.get(rd, 0) & keep) \
            | ((ctx.get(rs1) & lane_mask) << shift)

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
        elif kind == "bitx":
            handlers.append(_make_bitx(ins.rd, ins.rs1, ins.imm, tag[1]))
        elif kind == "lane":
            _, op, width, variant = tag
            handlers.append(_make_lane(ins.rd, ins.rs1, ins.rs2, ins.imm,
                                       op, width, variant))
        elif kind == "shuffle2":
            handlers.append(_make_shuffle2(ins.rd, ins.rs1, ins.rs2,
                                           tag[1]))
        elif kind == "insert":
            handlers.append(_make_insert(ins.rd, ins.rs1,
                                         ins.imm % (32 // tag[1]), tag[1]))
        else:
            raise Unfusable("unsupported-op")
    return handlers


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

class FusedPlan:
    """A compiled loop body plus its steady-state price."""

    __slots__ = (
        "body_len", "handlers", "invariants", "inductions", "acc_regs",
        "committed_regs", "block", "steady", "cls_counts", "pending_after",
    )

    def __init__(self, block, body_len: int) -> None:
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

        self.block = block
        self.pending_after = block.pending[body_len - 1]
        # From iteration 2 on, the "previous" instruction is the body's
        # last one: the hardware-loop back-edge is a pure fetch redirect,
        # so its load-use hazard wraps around.
        self.steady = block.price(0, body_len, self.pending_after)
        self.cls_counts = {
            cls: pref[body_len]
            for cls, pref in block.cls_prefix.items() if pref[body_len]
        }


def compile_plan(block, body_len: int) -> FusedPlan:
    """Compile the first *body_len* instructions of *block* as a loop
    body; raises :class:`Unfusable` on any statically-unprovable shape."""
    return FusedPlan(block, body_len)


def execute_plan(cpu, plan: FusedPlan, level: int, port=None) -> int:
    """Run all remaining iterations of the active loop *level* under
    *plan*; returns instructions retired.  Raises :class:`Unfusable`
    (with no state mutated) when a dynamic precondition fails.  *port*
    is ``cpu.mem`` when it logs accesses, else None."""
    hw = cpu.hwloops
    n = hw.count[level]
    regs = cpu.regs
    ctx = _Ctx(n, cpu.mem, plan.body_len, port is not None)
    env = ctx.env
    for reg in plan.invariants:
        env[reg] = regs[reg]
    for reg, delta in plan.inductions:
        ctx.affine[reg] = (regs[reg], delta)
        env[reg] = None
    for handler in plan.handlers:
        handler(ctx)
    if port is not None and any(ctx.mis):
        raise Unfusable("misaligned")

    # -- every check passed: commit ------------------------------------
    data = ctx.data
    for shape, where, size, values in ctx.stores:
        if shape == "strided":
            _view(ctx, size)[where] = values & (MASK32 >> (32 - 8 * size))
        elif shape == "gather":
            scatter(data, where, size, values)
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
    cycles, load_use = plan.block.price(0, plan.body_len,
                                        cpu._pending_load_rd)
    if port is not None:
        _log_accesses(port, plan, ctx, perf.cycles, cpu._pending_load_rd,
                      cycles)
    steady_cycles, steady_load_use = plan.steady
    mis_cycles = sum(ctx.mis) * MISALIGNED_PENALTY
    perf.cycles += cycles + steady_cycles * (n - 1) + mis_cycles
    perf.instructions += plan.body_len * n
    perf.hwloop_backedges += n - 1
    perf.stall_load_use += load_use + steady_load_use * (n - 1)
    perf.stall_misaligned += mis_cycles
    for cls, count in plan.cls_counts.items():
        perf.by_class[cls] += count * n
    cpu._pending_load_rd = plan.pending_after
    hw.count[level] = 0
    cpu.pc = hw.end[level]
    return plan.body_len * n


def _log_accesses(port, plan: FusedPlan, ctx: _Ctx, start: int,
                  pending: Optional[int], first: int) -> None:
    """Hand *port* every logged access with its stall-free issue clock:
    iteration 0 issues body instruction ``k`` at ``start`` plus the price
    of the ``k`` instructions before it (after *pending*), iteration
    ``i >= 1`` at ``start + first + steady * (i - 1)`` plus that price
    after the body's own last instruction."""
    block = plan.block
    steady = plan.steady[0]
    for index, offset, delta, size, write in ctx.log:
        lead0 = block.price(0, index, pending)[0] if index else 0
        lead = block.price(0, index, plan.pending_after)[0] if index else 0
        port.log_stream(ctx.n, start + lead0, start + first - steady + lead,
                        steady, offset, delta, size, write,
                        block.addrs[index])
