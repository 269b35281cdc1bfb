"""Bit-level helpers shared by the whole ISA layer.

All register values in the simulator are stored as *unsigned* Python ints in
``[0, 2**32)``.  These helpers convert between signed/unsigned views, slice
and assemble bit fields, and pack/unpack the SIMD lane layouts used by the
XpulpV2 (8/16-bit) and XpulpNN (4/2-bit) vector instructions.

Lane numbering follows the paper's Table II: lane ``i`` occupies bits
``[i*w +: w]`` of the 32-bit register, i.e. lane 0 is the least significant.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import EncodingError

MASK32 = 0xFFFF_FFFF
MASK16 = 0xFFFF
MASK8 = 0xFF

#: Lane count per 32-bit register for each SIMD element width.
LANES = {2: 16, 4: 8, 8: 4, 16: 2}


def u32(value: int) -> int:
    """Wrap *value* to an unsigned 32-bit integer."""
    return value & MASK32


def to_signed(value: int, bits: int = 32) -> int:
    """Interpret the low *bits* of *value* as a two's complement number."""
    value &= (1 << bits) - 1
    sign = 1 << (bits - 1)
    return value - (1 << bits) if value & sign else value


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend the low *bits* of *value* to an unsigned 32-bit integer."""
    return u32(to_signed(value, bits))


def zero_extend(value: int, bits: int) -> int:
    """Zero-extend the low *bits* of *value* (i.e. mask everything above)."""
    return value & ((1 << bits) - 1)


def get_field(word: int, hi: int, lo: int) -> int:
    """Extract bits ``[hi:lo]`` (inclusive) of *word*."""
    if hi < lo:
        raise ValueError(f"invalid bit range [{hi}:{lo}]")
    return (word >> lo) & ((1 << (hi - lo + 1)) - 1)


def set_field(word: int, hi: int, lo: int, value: int) -> int:
    """Return *word* with bits ``[hi:lo]`` replaced by *value*.

    Raises :class:`EncodingError` if *value* does not fit the field.
    """
    width = hi - lo + 1
    if value < 0 or value >= (1 << width):
        raise EncodingError(
            f"value {value:#x} does not fit in {width}-bit field [{hi}:{lo}]"
        )
    mask = ((1 << width) - 1) << lo
    return (word & ~mask) | (value << lo)


def fits_signed(value: int, bits: int) -> bool:
    """True if *value* is representable as a *bits*-wide signed immediate."""
    return -(1 << (bits - 1)) <= value < (1 << (bits - 1))


def fits_unsigned(value: int, bits: int) -> bool:
    """True if *value* is representable as a *bits*-wide unsigned immediate."""
    return 0 <= value < (1 << bits)


def split_lanes(word: int, width: int, signed: bool = False) -> List[int]:
    """Split a 32-bit word into SIMD lanes of *width* bits, lane 0 first."""
    count = LANES[width]
    mask = (1 << width) - 1
    lanes = [(word >> (i * width)) & mask for i in range(count)]
    if signed:
        lanes = [to_signed(v, width) for v in lanes]
    return lanes


def join_lanes(lanes: Sequence[int], width: int) -> int:
    """Assemble SIMD *lanes* (lane 0 first) into an unsigned 32-bit word."""
    count = LANES[width]
    if len(lanes) != count:
        raise ValueError(f"expected {count} lanes of width {width}, got {len(lanes)}")
    word = 0
    mask = (1 << width) - 1
    for i, lane in enumerate(lanes):
        word |= (lane & mask) << (i * width)
    return word


def replicate_scalar(value: int, width: int) -> int:
    """Replicate the low *width* bits of *value* across all lanes.

    This implements the ``.sc`` addressing variant of the PULP SIMD
    instructions, where a scalar register operand is broadcast to every lane.
    """
    lane = value & ((1 << width) - 1)
    return join_lanes([lane] * LANES[width], width)


def bit_count(value: int) -> int:
    """Population count of the low 32 bits (p.cnt semantics)."""
    return bin(u32(value)).count("1")


def find_first_set(value: int) -> int:
    """Index of the least significant set bit, or 32 if none (p.ff1)."""
    value = u32(value)
    if value == 0:
        return 32
    return (value & -value).bit_length() - 1


def find_last_set(value: int) -> int:
    """Index of the most significant set bit, or 32 if none (p.fl1).

    RI5CY returns 32 (0x20) when the input is zero.
    """
    value = u32(value)
    if value == 0:
        return 32
    return value.bit_length() - 1


def count_leading_redundant_sign_bits(value: int) -> int:
    """Number of redundant sign bits (p.clb semantics).

    Counts how many bits below the MSB replicate it.  RI5CY defines the
    result for zero as 0.
    """
    value = u32(value)
    if value == 0:
        return 0
    sign = (value >> 31) & 1
    count = 0
    for bit in range(30, -1, -1):
        if (value >> bit) & 1 == sign:
            count += 1
        else:
            break
    return count
