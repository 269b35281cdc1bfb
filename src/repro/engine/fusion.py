"""Hardware-loop fusion: the batch semantics of a loop body.

A loop plan (:mod:`repro.engine.nest`) runs all ``N`` remaining
iterations of a hardware loop as one numpy pass over these handlers.
The body's registers are classified once, from the per-op ``fusion``
access roles:

* **invariant** — read but never written; one scalar for all iterations.
* **induction** — every write is a constant self-increment (post-
  increment writeback, ``addi r, r, imm``); its value at iteration
  ``i`` is the affine ``entry + delta*i``.  Induction values stay
  *symbolic* — ``(base, delta, row_delta)`` — so streaming loads and
  stores through them compile to strided slices or typed-view gathers
  instead of byte gathers, and the address array is never materialized
  unless an ALU/dot-product op reads the pointer as data.
* **accumulator** — only ever read and written by accumulating
  dot-product/MAC ops (``rd += f(i)``); per-iteration contributions are
  summed once at commit (``entry + sum mod 2**32``).
* **local** — written (plainly) before any read each iteration; its
  committed value is the last iteration's.  A register rebuilt lane by
  lane (``pv.insert``) counts as written once its *insert chain* has
  covered every lane; a full read before that, or a chain left open at
  the end of the body, is a recurrence.

The ``N`` iterations form ``rows`` rows of ``cols``: one row for a
loop's own body, one row per outer iteration for an inner loop of a
nest.  An induction stream there is ``base + row_delta * row + delta *
col``; it is one affine run when ``rows == 1`` or ``row_delta == delta
* cols``, and then a load or store of it is a scalar access (``delta ==
0``) or a strided slice where it can be, a gather otherwise.

Besides memory, ALU, MAC and dot-product ops, the batch handlers cover
the RI5CY unpack idioms: ``p.extract(u)``, ``pv.insert``,
``pv.shuffle2`` and the lane shifts and logic
(:mod:`repro.engine.vector` holds their lane arithmetic), and the
quantization epilogue: ``p.clip(u)``, the bit-field ``p.insert`` and
``pv.qnt.n``/``pv.qnt.c`` (every iteration's two threshold trees walked
level by level, one gather per level).

Anything else — a cross-iteration recurrence the engine cannot express
in closed form — raises :class:`Unfusable` and the loop falls back to
block-at-a-time execution, as do dynamic conditions checked per
dispatch: out-of-bounds addresses (the interpreter must raise at the
exact faulting iteration), overlapping load/store ranges, and stores
with non-affine address patterns.  Two affine store streams with one
stride ``|delta|``, each stepping by multiples of it along both axes,
are disjoint exactly when their residues modulo the stride leave room
for both accesses, however their ranges overlap, and a load of exactly
the stream an earlier store wrote reads the stored values back (a spill
slot); every other pair of ranges must not overlap at all.  A
``pv.qnt`` on an odd threshold base side-exits: its FSM stalls on every
read.  Handlers never mutate CPU or memory state before every check has
passed; commits (register file, memory scatters) happen only on
success, so a side exit is always invisible.

Against an access-logging memory (a cluster core's replay port) every
memory op also notes its accesses — an affine stream or the gathered
byte offsets — for the plan to hand over with their issue clocks; a
misaligned access there is a side exit, since its penalty would shift
the clocks of the iterations after it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

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
    if kind == "clip":
        return [("r", ins.rs1), ("w", ins.rd, "plain")]
    if kind == "bitins":
        return [("r", ins.rs1), ("r", ins.rd), ("w", ins.rd, "plain")]
    if kind == "qnt":
        return [("r", ins.rs1), ("r", ins.rs2), ("w", ins.rd, "plain")]
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


def classify_ops(ops) -> Tuple[Dict[int, str], Dict[int, int]]:
    """Register classes and induction deltas for a loop body given as one
    access list per op (see :func:`_accesses`).

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
    for accesses in ops:
        for access in accesses:
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
    as ``(base, delta, row_delta)`` and keep ``env[reg] is None`` until
    some handler reads them as data.  Memory writes are deferred in
    ``stores`` until every handler has succeeded.

    The ``N`` iterations form ``rows`` rows of ``cols`` in execution
    order (see the module docstring); *base* may also be one value per
    row.  An inner loop's context is a :meth:`child` sharing its
    parent's memory views, deferred stores and access ranges, so alias
    checks and commits span the whole nest.
    """

    __slots__ = ("n", "rows", "cols", "mem", "data", "data16", "data32",
                 "env", "affine", "contribs", "mis", "stores",
                 "load_ranges", "store_ranges", "sources", "streams", "log",
                 "leaves", "node_mis")

    def __init__(self, n: int, mem, body_len: int, logging: bool) -> None:
        self.n = self.cols = n
        self.rows = 1
        self.mem = mem
        buf = mem._data
        self.data = np.frombuffer(buf, dtype=np.uint8)
        self.data16 = np.frombuffer(buf, dtype=np.uint16,
                                    count=len(buf) // 2)
        self.data32 = np.frombuffer(buf, dtype=np.uint32,
                                    count=len(buf) // 4)
        self.env: Dict[int, object] = {}
        self.affine: Dict[int, Tuple] = {}
        self.contribs: Dict[int, object] = {}
        self.mis = [0] * body_len
        self.stores: List[Tuple] = []
        self.load_ranges: List[Tuple[int, int]] = []
        self.store_ranges: List[Tuple[int, int]] = []
        #: per store range: ``(stream key, values)`` of an affine store,
        #: which a later load of exactly that stream reads back, or None
        self.sources: List[Optional[Tuple]] = []
        #: affine store streams ``(addr0, delta, row_delta, size)``, keyed
        #: by the index of their range in ``store_ranges``
        self.streams: Dict[int, Tuple[int, int, int, int]] = {}
        #: ``(body index, byte offset, delta, size, is_write, row_delta)``
        #: per memory op, kept only for an access-logging memory
        self.log: Optional[List[Tuple]] = [] if logging else None
        #: the leaf every iteration reached, per compare tree in body
        #: order (:mod:`repro.engine.tree`)
        self.leaves: List[np.ndarray] = []
        #: misaligned threshold reads per tree node, by the body index of
        #: a compare tree that made any
        self.node_mis: Dict[int, np.ndarray] = {}

    def child(self, rows: int, cols: int, body_len: int) -> "_Ctx":
        """A context for ``rows`` x ``cols`` iterations of an inner loop
        that shares this one's memory state (see the class docstring)."""
        ctx = _Ctx.__new__(_Ctx)
        for name in ("mem", "data", "data16", "data32", "stores",
                     "load_ranges", "store_ranges", "sources", "streams"):
            setattr(ctx, name, getattr(self, name))
        ctx.n, ctx.rows, ctx.cols = rows * cols, rows, cols
        ctx.env, ctx.affine, ctx.contribs = {}, {}, {}
        ctx.mis = [0] * body_len
        ctx.log = [] if self.log is not None else None
        ctx.leaves = []
        ctx.node_mis = {}
        return ctx

    def addresses(self, base, delta: int, row_delta: int = 0) -> np.ndarray:
        """``base + row_delta * row + delta * col`` for every iteration
        (unmasked int64)."""
        if self.rows == 1:
            return base + delta * _iota(self.n)
        row = np.asarray(base + row_delta * _iota(self.rows))
        return (row[:, None] + delta * _iota(self.cols)).reshape(-1)

    def one_run(self, delta: int, row_delta: int) -> bool:
        """Whether a stream with these strides is one affine run of all
        ``n`` iterations, ``delta`` apart."""
        return self.rows == 1 or row_delta == delta * self.cols

    def span(self, addr0: int, delta: int, row_delta: int) -> Tuple[int, int]:
        """The lowest and highest address of an affine stream."""
        col_span = delta * (self.cols - 1)
        row_span = row_delta * (self.rows - 1)
        return (addr0 + min(0, col_span) + min(0, row_span),
                addr0 + max(0, col_span) + max(0, row_span))

    def get(self, reg: int):
        value = self.env[reg]
        if value is None:
            value = self.env[reg] = \
                self.addresses(*self.affine[reg]) & MASK32
        return value

    def note(self, index: int, offset, size: int, write: bool,
             delta: int = 0, row_delta: int = 0) -> None:
        """Log one memory op: iteration ``(row, col)`` accesses byte
        ``offset + row_delta * row + delta * col``, or ``offset[i]`` of
        iteration ``i`` when *offset* is an array."""
        if self.log is not None:
            self.log.append((index, offset, delta, size, write, row_delta))

    def bump(self, reg: int, imm: int) -> None:
        base, delta, row_delta = self.affine[reg]
        self.affine[reg] = (base + imm, delta, row_delta)
        value = self.env[reg]
        if value is not None:
            self.env[reg] = (value + imm) & MASK32

    def add_store(self, lo: int, end: int, source=None) -> None:
        self.store_ranges.append((lo, end))
        self.sources.append(source)

    def forwarded(self, lo: int, end: int, key):
        """The per-iteration values a load of ``[lo, end)`` reads back
        from an earlier store of this body, or None.  Only the last
        earlier store overlapping the range can supply it, and only when
        it is the same stream (*key*: the id of this context, start
        address, strides and size): every iteration then reads the
        bytes it has just written itself."""
        for i in range(len(self.store_ranges) - 1, -1, -1):
            other_lo, other_end = self.store_ranges[i]
            if lo < other_end and other_lo < end:
                source = self.sources[i]
                if source is not None and source[0] == key:
                    return source[1]
                return None
        return None


def _interleaved(a: Optional[Tuple[int, int, int, int]],
                 b: Optional[Tuple[int, int, int, int]]) -> bool:
    """True when two affine store streams ``(addr0, delta, row_delta,
    size)`` with one stride never share a byte: when both step by
    multiples of ``|delta|`` along both axes, every address gap between
    them is congruent to ``(b0 - a0) mod |delta|``, and that residue
    leaves room for both accesses."""
    if a is None or b is None or a[1] != b[1]:
        return False
    stride = abs(a[1])
    if a[2] % stride or b[2] % stride:
        return False
    gap = (b[0] - a[0]) % stride
    return a[3] <= gap <= stride - b[3]


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


def _sign(value, size: int, signed: bool):
    """Sign-extend *size*-byte values into the u32 domain (a full word is
    already there)."""
    if signed and size < 4:
        sign_bit = 1 << (size * 8 - 1)
        value = ((value ^ sign_bit) - sign_bit) & MASK32
    return value


def _affine_mis(ctx: _Ctx, addr0: int, delta: int, row_delta: int,
                size: int) -> int:
    """Misaligned accesses of an affine stream."""
    if size == 1:
        return 0
    if delta % size == 0 and row_delta % size == 0:
        return ctx.n if addr0 % size else 0
    return int(np.count_nonzero(
        ctx.addresses(addr0, delta, row_delta) % size))


def _read(ctx: _Ctx, off0: int, delta: int, row_delta: int, size: int,
          signed: bool):
    """The values of an affine stream starting at byte *off0*."""
    if ctx.one_run(delta, row_delta):
        if delta == 0:
            return scalar_load(ctx.data, off0, size, signed)
        if delta > 0 and delta % size == 0 and off0 % size == 0:
            value = _view(ctx, size)[_strided(off0, size, delta, ctx.n)]
            return _sign(value.astype(np.int64), size, signed)
    if off0 % size or delta % size or row_delta % size:
        return gather(ctx.data, ctx.addresses(off0, delta, row_delta),
                      size, signed)
    # Every access aligned: one gather from the typed view.
    value = _view(ctx, size)[ctx.addresses(
        off0 // size, delta // size, row_delta // size)]
    return _sign(value.astype(np.int64), size, signed)


def _load(ctx: _Ctx, index: int, rd: int, addr0, delta: int,
          row_delta: int, size: int, signed: bool) -> None:
    """An induction load: iteration ``(row, col)`` reads ``addr0 +
    row_delta * row + delta * col``."""
    if isinstance(addr0, np.ndarray):
        # One base per row: gather every address.
        addrs = ctx.addresses(addr0, delta, row_delta)
        lo, hi = int(addrs.min()), int(addrs.max())
        _check_range(ctx, lo, hi, size, ctx.store_ranges)
        ctx.load_ranges.append((lo, hi + size))
        offsets = addrs - ctx.mem.base
        ctx.env[rd] = gather(ctx.data, offsets, size, signed)
        if size > 1:
            ctx.mis[index] = int(np.count_nonzero(addrs % size))
        ctx.note(index, offsets, size, False)
        return
    lo, hi = ctx.span(addr0, delta, row_delta)
    off0 = addr0 - ctx.mem.base
    values = ctx.forwarded(lo, hi + size,
                           (id(ctx), addr0, delta, row_delta, size))
    if values is not None:
        if not ctx.mem.contains(lo, hi - lo + size):
            raise Unfusable("mem-bounds")
        # What a load reads back where a store of its size wrote the
        # u32 values.
        if size < 4:
            values = _sign(values & ((1 << (8 * size)) - 1), size, signed)
        ctx.env[rd] = values
    else:
        _check_range(ctx, lo, hi, size, ctx.store_ranges)
        ctx.load_ranges.append((lo, hi + size))
        ctx.env[rd] = _read(ctx, off0, delta, row_delta, size, signed)
    ctx.mis[index] = _affine_mis(ctx, addr0, delta, row_delta, size)
    ctx.note(index, off0, size, False, delta, row_delta)


def _store(ctx: _Ctx, index: int, addr0, delta: int, row_delta: int,
           size: int, values) -> None:
    """An induction store: iteration ``(row, col)`` writes ``addr0 +
    row_delta * row + delta * col``."""
    if isinstance(addr0, np.ndarray):
        addrs = ctx.addresses(addr0, delta, row_delta)
        lo, hi = int(addrs.min()), int(addrs.max())
        _check_range(ctx, lo, hi, size, ctx.store_ranges + ctx.load_ranges)
        ctx.add_store(lo, hi + size)
        offsets = addrs - ctx.mem.base
        _scatter(ctx, offsets, size, values)
        if size > 1:
            ctx.mis[index] = int(np.count_nonzero(addrs % size))
        ctx.note(index, offsets, size, True)
        return
    lo, hi = ctx.span(addr0, delta, row_delta)
    stream = (addr0, delta, row_delta, size) if delta else None
    # Same-stride streams may share a range without a byte.
    stores = [r for i, r in enumerate(ctx.store_ranges)
              if not _interleaved(stream, ctx.streams.get(i))]
    _check_range(ctx, lo, hi, size, stores + ctx.load_ranges)
    if stream:
        ctx.streams[len(ctx.store_ranges)] = stream
    ctx.add_store(lo, hi + size,
                  ((id(ctx), addr0, delta, row_delta, size), values))
    off0 = addr0 - ctx.mem.base
    if not ctx.one_run(delta, row_delta):
        _scatter(ctx, ctx.addresses(off0, delta, row_delta), size, values)
    elif delta == 0:
        last_value = int(values[-1]) \
            if isinstance(values, np.ndarray) else values
        ctx.stores.append(("scalar", off0, size, last_value))
    elif delta > 0 and delta % size == 0 and off0 % size == 0:
        ctx.stores.append(("strided", _strided(off0, size, delta, ctx.n),
                           size, values))
    elif delta >= size or delta <= -size:
        ctx.stores.append(("gather", off0 + delta * _iota(ctx.n), size,
                           values))
    else:
        # Iterations overlap (0 < |stride| < size): a scatter cannot
        # reproduce the interpreter's write order.
        raise Unfusable("store-pattern")
    ctx.mis[index] = _affine_mis(ctx, addr0, delta, row_delta, size)
    ctx.note(index, off0, size, True, delta, row_delta)


def _scatter(ctx: _Ctx, offsets: np.ndarray, size: int, values) -> None:
    """Defer a store to the byte *offsets* of every iteration."""
    # Iterations that share a byte would need the interpreter's write
    # order.
    if (np.diff(np.sort(offsets)) < size).any():
        raise Unfusable("store-pattern")
    ctx.stores.append(("gather", offsets, size, values))


def _make_load(index: int, rd: int, rs1: int, imm: int, size: int,
               signed: bool, post: bool, rs1_induction: bool) -> Callable:
    imm_off = 0 if post else imm

    if rs1_induction:
        def step(ctx: _Ctx) -> None:
            base, delta, row_delta = ctx.affine[rs1]
            _load(ctx, index, rd, base + imm_off, delta, row_delta, size,
                  signed)
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
            base, delta, row_delta = ctx.affine[rs1]
            _store(ctx, index, base + imm_off, delta, row_delta, size,
                   ctx.get(rs2))
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
                ctx.add_store(lo, hi + size)
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
                ctx.add_store(addr, addr + size)
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
    operand = _simd_operand(rs2, imm, width, variant)

    def step(ctx: _Ctx) -> None:
        a = ctx.get(rs1)
        b = operand(ctx)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            contribution = (split_lanes(a, width, a_signed)
                            * split_lanes(b, width, b_signed)).sum(axis=-1)
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
        # dead (see classify_ops), so it starts from zero.
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


def _make_clip(rd: int, rs1: int, bits: int, signed: bool) -> Callable:
    lo = -(1 << (bits - 1)) if signed and bits > 0 else 0
    hi = (1 << (bits - 1)) - 1 if bits > 0 else 0

    def step(ctx: _Ctx) -> None:
        value = to_signed32(ctx.get(rs1))
        if isinstance(value, np.ndarray):
            ctx.env[rd] = np.clip(value, lo, hi) & MASK32
        else:
            ctx.env[rd] = min(max(value, lo), hi) & MASK32

    return step


def _make_bitins(rd: int, rs1: int, imm: int) -> Callable:
    # ``p.insert``: *length* low bits of rs1 into rd at bit *pos* (the IU
    # immediate packs pos | (len - 1) << 5, as for ``p.extract``).
    pos, length = imm & 0x1F, ((imm >> 5) & 0x1F) + 1
    mask = ((1 << length) - 1) << pos
    keep = ~mask & MASK32

    def step(ctx: _Ctx) -> None:
        ctx.env[rd] = ((ctx.get(rd) & keep)
                       | ((ctx.get(rs1) << pos) & mask)) & MASK32

    return step


def _make_qnt(index: int, rd: int, rs1: int, rs2: int, depth: int,
              stride: int) -> Callable:
    """``pv.qnt``: the two packed 16-bit activations of every iteration
    walk their threshold trees (at ``rs2`` and ``rs2 + stride``) level by
    level, one gather per level for all trees: a vectorised binary
    search over the heap-ordered threshold rows."""
    # Byte offset of the second tree's last threshold from rs2.
    span = stride + 2 * ((1 << depth) - 2)

    def step(ctx: _Ctx) -> None:
        packed = ctx.get(rs1)
        base = ctx.get(rs2)
        offset = base - ctx.mem.base
        # A misaligned threshold read stalls the FSM for a cycle.
        if isinstance(base, np.ndarray):
            if ((base | offset) & 1).any():
                raise Unfusable("misaligned")
            lo, hi = int(base.min()), int(base.max()) + span
        else:
            if (base | offset) & 1:
                raise Unfusable("misaligned")
            lo, hi = base, base + span
        _check_range(ctx, lo, hi, 2, ctx.store_ranges)
        ctx.load_ranges.append((lo, hi + 2))
        n = ctx.n
        # Tree 0 of every iteration in [:n], tree 1 in [n:].
        root = np.empty(2 * n, dtype=np.int64)
        root[:n] = offset >> 1
        root[n:] = root[:n] + stride // 2
        act = np.empty(2 * n, dtype=np.int64)
        act[:n] = packed & 0xFFFF
        act[n:] = packed >> 16
        act = (act ^ 0x8000) - 0x8000
        thresholds = ctx.data16.view(np.int16)
        code = np.zeros(2 * n, dtype=np.int64)
        walk = np.empty((depth, 2 * n), dtype=np.int64)
        where = walk[0] = root
        for level in range(1, depth + 1):
            bit = act > thresholds[where]
            code = 2 * code + bit
            if level < depth:
                # Node k's children are 2k + 1 and 2k + 2.
                where = walk[level] = 2 * where - root + 1 + bit
        ctx.env[rd] = code[:n] | (code[n:] << depth)
        if ctx.log is not None:
            # Tree 0 top-down, then tree 1: the FSM's read order, all
            # issued in the instruction's cycle (one arbitration group).
            walk *= 2
            for tree in (slice(0, n), slice(n, 2 * n)):
                for offsets in walk:
                    ctx.note(index, offsets[tree], 2, False)

    return step


def _compile_handlers(instrs, classes, first: int = 0) -> List[Callable]:
    """Batch handlers for *instrs*, the first at body index *first*."""
    handlers: List[Callable] = []
    for index, ins in enumerate(instrs, first):
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
        elif kind == "clip":
            handlers.append(_make_clip(ins.rd, ins.rs1, ins.imm, tag[1]))
        elif kind == "bitins":
            handlers.append(_make_bitins(ins.rd, ins.rs1, ins.imm))
        elif kind == "qnt":
            handlers.append(_make_qnt(index, ins.rd, ins.rs1, ins.rs2,
                                      tag[1], tag[2]))
        else:
            raise Unfusable("unsupported-op")
    return handlers


# ---------------------------------------------------------------------------
# Entry and commit
# ---------------------------------------------------------------------------

def enter(cpu, plan, n: int, logging: bool) -> _Ctx:
    """A context for *n* iterations of *plan* (a
    :class:`~repro.engine.nest.LoopPlan`) entered with the core's
    registers."""
    regs = cpu.regs
    ctx = _Ctx(n, cpu.mem, plan.body_len, logging)
    env = ctx.env
    for reg in plan.invariants:
        env[reg] = regs[reg]
    for reg, delta in plan.inductions:
        ctx.affine[reg] = (regs[reg], delta, 0)
        env[reg] = None
    return ctx


def commit(cpu, plan, ctx: _Ctx) -> None:
    """Write back a dispatch whose every check passed: the deferred
    stores in body order, then *plan*'s committed and accumulator
    registers."""
    data = ctx.data
    for shape, where, size, values in ctx.stores:
        if shape == "strided":
            _view(ctx, size)[where] = values & (MASK32 >> (32 - 8 * size))
        elif shape == "gather":
            scatter(data, where, size, values)
        else:  # scalar: one address, last write wins
            for k in range(size):
                data[where + k] = (values >> (8 * k)) & 0xFF
    regs = cpu.regs
    n = ctx.n
    env = ctx.env
    for reg in plan.committed_regs:
        value = env[reg]
        if value is None:
            base, delta, _ = ctx.affine[reg]
            regs[reg] = (base + delta * (n - 1)) & MASK32
        else:
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
