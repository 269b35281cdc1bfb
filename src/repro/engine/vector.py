"""Numpy batch semantics for fusable instructions.

Values are modelled in the unsigned 32-bit register domain: a register
across all ``N`` loop iterations is either a Python ``int`` (the same
value every iteration) or an ``int64`` ndarray of shape ``(N,)`` with
every element already masked to ``[0, 2**32)``.  int64 leaves headroom
for the dot-product/MAC accumulation sums (|contribution| < 2**34 per
iteration, trip counts < 2**20) before the final 32-bit wraparound.
"""

from __future__ import annotations

from typing import Union

import numpy as np

MASK32 = 0xFFFF_FFFF

Value = Union[int, np.ndarray]


def to_signed32(value: Value) -> Value:
    """Reinterpret a u32 value (scalar or lane-packed word) as signed."""
    return (value ^ 0x8000_0000) - 0x8000_0000


def replicate(value: Value, width: int) -> Value:
    """Broadcast the low *width* bits across all 32-bit lanes (the
    ``.sc``/``.sci`` scalar-replication addressing variants)."""
    pattern = sum(1 << (width * lane) for lane in range(32 // width))
    return ((value & ((1 << width) - 1)) * pattern) & MASK32


def dot(a: Value, b: Value, width: int,
        a_signed: bool, b_signed: bool) -> Value:
    """Lane dot product of two packed words; returns the (unwrapped)
    integer sum — scalar or per-iteration int64 array."""
    lanes = 32 // width
    mask = (1 << width) - 1
    sign_bit = 1 << (width - 1)
    total: Value = 0
    for lane in range(lanes):
        la = (a >> (lane * width)) & mask
        lb = (b >> (lane * width)) & mask
        if a_signed:
            la = (la ^ sign_bit) - sign_bit
        if b_signed:
            lb = (lb ^ sign_bit) - sign_bit
        total = total + la * lb
    return total


def gather(data: np.ndarray, offsets: np.ndarray, size: int,
           signed: bool) -> np.ndarray:
    """Load *size*-byte little-endian values at byte *offsets* from the
    uint8 memory view; returns u32-masked int64 values."""
    value = data[offsets].astype(np.int64)
    for k in range(1, size):
        value |= data[offsets + k].astype(np.int64) << (8 * k)
    if signed:
        sign_bit = 1 << (size * 8 - 1)
        value = ((value ^ sign_bit) - sign_bit) & MASK32
    return value


def scatter(data: np.ndarray, offsets: np.ndarray, size: int,
            values: np.ndarray) -> None:
    """Store *size*-byte little-endian values at byte *offsets*."""
    for k in range(size):
        data[offsets + k] = np.asarray(
            (values >> (8 * k)) & 0xFF, dtype=np.uint8)


def scalar_load(data: np.ndarray, offset: int, size: int,
                signed: bool) -> int:
    value = 0
    for k in range(size):
        value |= int(data[offset + k]) << (8 * k)
    if signed:
        sign_bit = 1 << (size * 8 - 1)
        value = ((value ^ sign_bit) - sign_bit) & MASK32
    return value


def bit_extract(value: Value, pos: int, length: int, signed: bool) -> Value:
    """``p.extract(u)``: *length* bits from bit *pos* (bits above 31 read
    as zero), sign- or zero-extended."""
    field = (value >> pos) & ((1 << length) - 1)
    if signed:
        sign_bit = 1 << (length - 1)
        field = ((field ^ sign_bit) - sign_bit) & MASK32
    return field


#: lane width -> bit offset of every lane in a 32-bit word
_LANE_SHIFTS = {width: np.arange(0, 32, width, dtype=np.int64)
                for width in (2, 4, 8, 16)}

#: byte-aligned lane width -> (unsigned, signed) little-endian lane
#: dtype of a view of the u32 words
_LANE_VIEWS = {8: ("<u1", "<i1"), 16: ("<u2", "<i2")}


def split_lanes(value: Value, width: int, signed: bool = False) -> np.ndarray:
    """The *width*-bit lanes of a u32 value, lane 0 first, zero- or
    (*signed*) sign-extended to int64: shape ``(lanes,)`` for a scalar,
    ``(N, lanes)`` for a per-iteration array.  An array's byte and
    halfword lanes are read through a typed view of its words, the rest
    shifted out."""
    if isinstance(value, np.ndarray):
        views = _LANE_VIEWS.get(width)
        if views is not None:
            words = value.astype("<u4")
            return words.view(views[signed]).reshape(
                len(words), 32 // width).astype(np.int64)
        value = value[:, None]
    lanes = (value >> _LANE_SHIFTS[width]) & ((1 << width) - 1)
    if signed:
        sign_bit = 1 << (width - 1)
        lanes = (lanes ^ sign_bit) - sign_bit
    return lanes


def join_lanes(lanes: np.ndarray, width: int) -> Value:
    """Inverse of :func:`split_lanes` (for lanes within *width* bits); a
    scalar comes back as an ``int``."""
    views = _LANE_VIEWS.get(width)
    if views is not None and lanes.ndim == 2:
        return lanes.astype(views[0], order="C").view("<u4").reshape(-1).astype(
            np.int64)
    word = (lanes << _LANE_SHIFTS[width]).sum(axis=-1)
    return word if word.ndim else int(word)


def lane_shift(op: str, a: Value, b: Value, width: int) -> Value:
    """``pv.{srl,sll,sra}``: each lane of *a* shifted by the matching lane
    of *b* modulo the lane width."""
    mask = (1 << width) - 1
    lanes = split_lanes(a, width)
    amount = split_lanes(b, width) % width
    if op == "srl":
        lanes = lanes >> amount
    elif op == "sll":
        lanes = (lanes << amount) & mask
    else:
        sign_bit = 1 << (width - 1)
        lanes = (((lanes ^ sign_bit) - sign_bit) >> amount) & mask
    return join_lanes(lanes, width)


def shuffle2(old: Value, a: Value, sel: Value, width: int) -> Value:
    """``pv.shuffle2``: selector lanes index ``lanes(a) + lanes(old)``
    modulo twice the lane count."""
    count = 32 // width
    combined = np.concatenate(
        np.broadcast_arrays(split_lanes(a, width), split_lanes(old, width)),
        axis=-1)
    index = split_lanes(sel, width) % (2 * count)
    if index.ndim == 1:
        return join_lanes(combined[..., index], width)
    combined = np.broadcast_to(combined, index.shape[:-1] + (2 * count,))
    return join_lanes(np.take_along_axis(combined, index, axis=-1), width)


#: u32-domain binary ALU semantics shared by the register-register and
#: immediate forms (b is the already-masked second operand).
def _sra(a, b):
    shift = b & 31 if isinstance(b, int) else b & 31
    return (to_signed32(a) >> shift) & MASK32


def _slt(a, b):
    result = to_signed32(a) < to_signed32(b)
    return result.astype(np.int64) if isinstance(result, np.ndarray) \
        else int(result)


def _sltu(a, b):
    result = (a & MASK32) < (b & MASK32)
    return result.astype(np.int64) if isinstance(result, np.ndarray) \
        else int(result)


ALU_OPS = {
    "add": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "sll": lambda a, b: (a << (b & 31)) & MASK32,
    "srl": lambda a, b: (a & MASK32) >> (b & 31),
    "sra": _sra,
    "slt": _slt,
    "sltu": _sltu,
    "xor": lambda a, b: (a ^ b) & MASK32,
    "or": lambda a, b: (a | b) & MASK32,
    "and": lambda a, b: a & b & MASK32,
}
