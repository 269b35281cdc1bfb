"""Shared packed-SIMD machinery for the PULP vector extensions.

XpulpV2 defines 16-bit (``.h``) and 8-bit (``.b``) packed operations;
XpulpNN extends the same operation set to 4-bit *nibble* (``.n``) and
2-bit *crumb* (``.c``) vectors (paper Table II).  This module implements
the lane semantics once and stamps out :class:`InstrSpec` tables for any
(operation × width × addressing-variant) matrix.

Encoding (see :mod:`repro.isa.encoding`): opcode ``0x57``, ``op5`` selects
the operation, ``width2`` the element size, ``funct3`` the variant
(0 = vector-vector, 1 = ``.sc``, 2 = ``.sci``).
"""

from __future__ import annotations

import functools
from array import array
from typing import Callable, Dict, List, Optional, Sequence

from .bits import (
    LANES,
    join_lanes,
    replicate_scalar,
    split_lanes,
    to_signed,
    u32,
)
from .encoding import OPC_PULP_SIMD
from .instruction import Instruction, InstrSpec

#: width suffix -> (element bits, width2 encoding field value)
WIDTHS: Dict[str, tuple] = {"h": (16, 0), "b": (8, 1), "n": (4, 2), "c": (2, 3)}

#: operation name -> op5 encoding value
OP5: Dict[str, int] = {
    "add": 0, "sub": 1, "avg": 2, "avgu": 3,
    "min": 4, "minu": 5, "max": 6, "maxu": 7,
    "srl": 8, "sra": 9, "sll": 10,
    "or": 11, "xor": 12, "and": 13,
    "abs": 14,
    "dotup": 16, "dotusp": 17, "dotsp": 18,
    "sdotup": 19, "sdotusp": 20, "sdotsp": 21,
    "shuffle": 22, "shuffle2": 23, "pack": 24, "packhi": 25, "packlo": 26,
    "qnt": 27, "extract": 28, "extractu": 29, "insert": 30,
}

_VARIANT_FUNCT3 = {"": 0, "sc": 1, "sci": 2}


# ---------------------------------------------------------------------------
# Lane arithmetic
# ---------------------------------------------------------------------------

def _lane_add(a: int, b: int, w: int) -> int:
    return (a + b) & ((1 << w) - 1)


def _lane_sub(a: int, b: int, w: int) -> int:
    return (a - b) & ((1 << w) - 1)


def _lane_avg(a: int, b: int, w: int) -> int:
    return (to_signed(a, w) + to_signed(b, w)) >> 1 & ((1 << w) - 1)


def _lane_avgu(a: int, b: int, w: int) -> int:
    return (a + b) >> 1 & ((1 << w) - 1)


def _lane_min(a: int, b: int, w: int) -> int:
    return a if to_signed(a, w) < to_signed(b, w) else b


def _lane_minu(a: int, b: int, w: int) -> int:
    return min(a, b)


def _lane_max(a: int, b: int, w: int) -> int:
    return a if to_signed(a, w) > to_signed(b, w) else b


def _lane_maxu(a: int, b: int, w: int) -> int:
    return max(a, b)


def _lane_srl(a: int, b: int, w: int) -> int:
    return a >> (b % w)


def _lane_sra(a: int, b: int, w: int) -> int:
    return (to_signed(a, w) >> (b % w)) & ((1 << w) - 1)


def _lane_sll(a: int, b: int, w: int) -> int:
    return (a << (b % w)) & ((1 << w) - 1)


def _lane_or(a: int, b: int, w: int) -> int:
    return a | b


def _lane_xor(a: int, b: int, w: int) -> int:
    return a ^ b


def _lane_and(a: int, b: int, w: int) -> int:
    return a & b


LANE_OPS: Dict[str, Callable[[int, int, int], int]] = {
    "add": _lane_add, "sub": _lane_sub,
    "avg": _lane_avg, "avgu": _lane_avgu,
    "min": _lane_min, "minu": _lane_minu,
    "max": _lane_max, "maxu": _lane_maxu,
    "srl": _lane_srl, "sra": _lane_sra, "sll": _lane_sll,
    "or": _lane_or, "xor": _lane_xor, "and": _lane_and,
}


def simd_lane_op(op: str, a_word: int, b_word: int, width: int) -> int:
    """Apply lane operation *op* between two packed words (reference model)."""
    fn = LANE_OPS[op]
    lanes_a = split_lanes(a_word, width)
    lanes_b = split_lanes(b_word, width)
    return join_lanes([fn(a, b, width) for a, b in zip(lanes_a, lanes_b)], width)


def simd_abs(a_word: int, width: int) -> int:
    """Lane-wise absolute value of a packed word."""
    mask = (1 << width) - 1
    lanes = [abs(v) & mask for v in split_lanes(a_word, width, signed=True)]
    return join_lanes(lanes, width)


def simd_dotp(
    a_word: int,
    b_word: int,
    width: int,
    a_signed: bool,
    b_signed: bool,
    acc: int = 0,
) -> int:
    """Dot product of two packed words plus accumulator (reference model).

    Implements the whole ``pv.(s)dot{up,usp,sp}`` family: the paper's
    extended dot-product unit sign- or zero-extends each 4-/2-bit element
    and reduces through an adder tree into a 32-bit accumulator.
    """
    lanes_a = split_lanes(a_word, width, signed=a_signed)
    lanes_b = split_lanes(b_word, width, signed=b_signed)
    return u32(acc + sum(a * b for a, b in zip(lanes_a, lanes_b)))


def simd_shuffle(a_word: int, sel_word: int, width: int) -> int:
    """Rearrange lanes of ``a_word`` according to per-lane selectors."""
    count = LANES[width]
    lanes = split_lanes(a_word, width)
    selectors = split_lanes(sel_word, width)
    return join_lanes([lanes[s % count] for s in selectors], width)


def simd_shuffle2(rd_word: int, a_word: int, sel_word: int, width: int) -> int:
    """Two-source shuffle (``pv.shuffle2``): selector lanes index the
    concatenation of ``rs1`` (indices ``0..lanes-1``) and the *old* ``rd``
    (indices ``lanes..2*lanes-1``)."""
    count = LANES[width]
    combined = split_lanes(a_word, width) + split_lanes(rd_word, width)
    selectors = split_lanes(sel_word, width)
    return join_lanes([combined[s % (2 * count)] for s in selectors], width)


# ---------------------------------------------------------------------------
# Semantic factories (operate through the CPU register file)
# ---------------------------------------------------------------------------

def _rs2_value(cpu, ins: Instruction, variant: str, width: int) -> int:
    if variant == "":
        return cpu.regs[ins.rs2]
    if variant == "sc":
        return replicate_scalar(cpu.regs[ins.rs2], width)
    return replicate_scalar(u32(ins.imm), width)


def _make_lane_exec(op: str, width: int, variant: str):
    fn = LANE_OPS[op]
    count = LANES[width]
    mask = (1 << width) - 1

    def execute(cpu, ins: Instruction) -> Optional[int]:
        a = cpu.regs[ins.rs1]
        b = _rs2_value(cpu, ins, variant, width)
        result = 0
        for i in range(count):
            shift = i * width
            lane = fn((a >> shift) & mask, (b >> shift) & mask, width)
            result |= lane << shift
        cpu.regs[ins.rd] = result
        return None

    return execute


def _make_abs_exec(width: int):
    def execute(cpu, ins: Instruction) -> Optional[int]:
        cpu.regs[ins.rd] = simd_abs(cpu.regs[ins.rs1], width)
        return None

    return execute


@functools.cache
def dotp_table(width: int, a_signed: bool, b_signed: bool) -> array:
    """Dot products of every pair of bytes packed with *width*-bit lanes
    (2, 4 or 8): entry ``a << 8 | b`` is the sum over the byte's lanes of
    ``a_lane * b_lane``, each lane sign- or zero-extended.  One 32-bit
    packed dot product is then four lookups.  Built with numpy on first
    use (256 kB each) and cached; callers only read it."""
    import numpy as np

    shifts = np.arange(0, 8, width, dtype=np.intc)
    lanes = (np.arange(256, dtype=np.intc)[:, None] >> shifts) & ((1 << width) - 1)
    signed = np.where(lanes >> (width - 1), lanes - (1 << width), lanes)
    a_lanes = signed if a_signed else lanes
    b_lanes = signed if b_signed else lanes
    table = array("i")
    table.frombytes((a_lanes @ b_lanes.T).tobytes())
    return table


def _make_dotp_exec(width: int, variant: str, a_signed: bool, b_signed: bool, accumulate: bool):
    """Semantics of one ``pv.(s)dot*`` spec; bit-identical to
    :func:`simd_dotp`, which stays the reference model."""
    vector = variant == ""
    if width == 16:
        def execute(cpu, ins: Instruction) -> Optional[int]:
            regs = cpu.regs
            a = regs[ins.rs1]
            b = regs[ins.rs2] if vector else _rs2_value(cpu, ins, variant, 16)
            a0, a1, b0, b1 = a & 0xFFFF, a >> 16, b & 0xFFFF, b >> 16
            if a_signed:
                a0 -= (a0 & 0x8000) << 1
                a1 -= (a1 & 0x8000) << 1
            if b_signed:
                b0 -= (b0 & 0x8000) << 1
                b1 -= (b1 & 0x8000) << 1
            total = a0 * b0 + a1 * b1
            regs[ins.rd] = regs[ins.rd] + total if accumulate else total
            return None

        return execute

    table: Optional[array] = None

    def execute(cpu, ins: Instruction) -> Optional[int]:
        nonlocal table
        if table is None:
            table = dotp_table(width, a_signed, b_signed)
        regs = cpu.regs
        a = regs[ins.rs1]
        b = regs[ins.rs2] if vector else _rs2_value(cpu, ins, variant, width)
        total = (table[(a & 0xFF) << 8 | (b & 0xFF)]
                 + table[(a & 0xFF00) | (b >> 8 & 0xFF)]
                 + table[(a >> 8 & 0xFF00) | (b >> 16 & 0xFF)]
                 + table[(a >> 16 & 0xFF00) | (b >> 24)])
        regs[ins.rd] = regs[ins.rd] + total if accumulate else total
        return None

    return execute


def _make_shuffle_exec(width: int):
    def execute(cpu, ins: Instruction) -> Optional[int]:
        cpu.regs[ins.rd] = simd_shuffle(cpu.regs[ins.rs1], cpu.regs[ins.rs2], width)
        return None

    return execute


def _make_shuffle2_exec(width: int):
    def execute(cpu, ins: Instruction) -> Optional[int]:
        cpu.regs[ins.rd] = simd_shuffle2(
            cpu.regs[ins.rd], cpu.regs[ins.rs1], cpu.regs[ins.rs2], width
        )
        return None

    return execute


def _make_extract_exec(width: int, signed: bool):
    count = LANES[width]
    mask = (1 << width) - 1

    def execute(cpu, ins: Instruction) -> Optional[int]:
        lane = (cpu.regs[ins.rs1] >> ((ins.imm % count) * width)) & mask
        cpu.regs[ins.rd] = u32(to_signed(lane, width)) if signed else lane
        return None

    return execute


def _make_insert_exec(width: int):
    count = LANES[width]
    mask = (1 << width) - 1

    def execute(cpu, ins: Instruction) -> Optional[int]:
        shift = (ins.imm % count) * width
        cleared = cpu.regs[ins.rd] & ~(mask << shift)
        cpu.regs[ins.rd] = cleared | ((cpu.regs[ins.rs1] & mask) << shift)
        return None

    return execute


# ---------------------------------------------------------------------------
# Spec generation
# ---------------------------------------------------------------------------

#: (op name, is signed×signed, is unsigned×signed, accumulates)
_DOT_OPS = [
    ("dotup", False, False, False),
    ("dotusp", False, True, False),
    ("dotsp", True, True, False),
    ("sdotup", False, False, True),
    ("sdotusp", False, True, True),
    ("sdotsp", True, True, True),
]

_LANE_OP_NAMES = ["add", "sub", "avg", "avgu", "min", "minu", "max", "maxu",
                  "srl", "sra", "sll", "or", "xor", "and"]

#: Lane ops with batch semantics in the block engine's fused loops.
_FUSED_LANE_OPS = ("srl", "sra", "sll", "or", "xor", "and")


def _fixed_fields(op: str, width_suffix: str, variant: str) -> dict:
    return {
        "opcode": OPC_PULP_SIMD,
        "op5": OP5[op],
        "width2": WIDTHS[width_suffix][1],
        "funct3": _VARIANT_FUNCT3[variant],
    }


def _mnemonic(op: str, width_suffix: str, variant: str) -> str:
    middle = f".{variant}" if variant else ""
    return f"pv.{op}{middle}.{width_suffix}"


def make_simd_specs(
    width_suffixes: Sequence[str],
    variants: Sequence[str],
    isa: str,
    lane_ops: Optional[Sequence[str]] = None,
    include_logical: bool = True,
    include_shuffle: bool = False,
    include_extract: bool = False,
) -> List[InstrSpec]:
    """Generate the SIMD spec matrix for the given widths and variants.

    ``lane_ops`` defaults to the full Table II ALU/compare/shift set.  The
    XpulpNN instantiation passes ``include_logical=False`` because the paper
    only defines arithmetic/compare/shift/abs/dot ops for nibble and crumb
    vectors, and only the vector-vector and ``.sc`` variants.
    """
    specs: List[InstrSpec] = []
    ops = list(lane_ops) if lane_ops is not None else list(_LANE_OP_NAMES)
    if not include_logical:
        ops = [op for op in ops if op not in ("or", "xor", "and")]

    for ws in width_suffixes:
        width = WIDTHS[ws][0]
        for op in ops:
            for variant in variants:
                fmt = "PVI" if variant == "sci" else "PV"
                syntax = ("rd", "rs1", "imm") if variant == "sci" else ("rd", "rs1", "rs2")
                specs.append(
                    InstrSpec(
                        mnemonic=_mnemonic(op, ws, variant),
                        fmt=fmt,
                        fixed=_fixed_fields(op, ws, variant),
                        syntax=syntax,
                        execute=_make_lane_exec(op, width, variant),
                        timing="alu",
                        isa=isa,
                        fusion=("lane", op, width, variant)
                        if op in _FUSED_LANE_OPS else None,
                    )
                )
        # abs has no second operand and thus no variants.
        specs.append(
            InstrSpec(
                mnemonic=f"pv.abs.{ws}",
                fmt="R1",
                fixed={**_fixed_fields("abs", ws, ""), "rs2": 0},
                syntax=("rd", "rs1"),
                execute=_make_abs_exec(width),
                timing="alu",
                isa=isa,
            )
        )
        for op, a_signed, b_signed, accumulate in _DOT_OPS:
            for variant in variants:
                fmt = "PVI" if variant == "sci" else "PV"
                syntax = ("rd", "rs1", "imm") if variant == "sci" else ("rd", "rs1", "rs2")
                specs.append(
                    InstrSpec(
                        mnemonic=_mnemonic(op, ws, variant),
                        fmt=fmt,
                        fixed=_fixed_fields(op, ws, variant),
                        syntax=syntax,
                        execute=_make_dotp_exec(width, variant, a_signed, b_signed, accumulate),
                        timing="mul",
                        rd_is_src=accumulate,
                        isa=isa,
                        fusion=("dotp", width, a_signed, b_signed,
                                accumulate, variant),
                    )
                )
        if include_shuffle:
            specs.append(
                InstrSpec(
                    mnemonic=f"pv.shuffle.{ws}",
                    fmt="PV",
                    fixed=_fixed_fields("shuffle", ws, ""),
                    syntax=("rd", "rs1", "rs2"),
                    execute=_make_shuffle_exec(width),
                    timing="alu",
                    isa=isa,
                )
            )
            specs.append(
                InstrSpec(
                    mnemonic=f"pv.shuffle2.{ws}",
                    fmt="PV",
                    fixed=_fixed_fields("shuffle2", ws, ""),
                    syntax=("rd", "rs1", "rs2"),
                    execute=_make_shuffle2_exec(width),
                    timing="alu",
                    rd_is_src=True,
                    isa=isa,
                    fusion=("shuffle2", width),
                )
            )
        if include_extract:
            specs.append(
                InstrSpec(
                    mnemonic=f"pv.extract.{ws}",
                    fmt="PVI",
                    fixed=_fixed_fields("extract", ws, "sci"),
                    syntax=("rd", "rs1", "imm"),
                    execute=_make_extract_exec(width, signed=True),
                    timing="alu",
                    isa=isa,
                )
            )
            specs.append(
                InstrSpec(
                    mnemonic=f"pv.extractu.{ws}",
                    fmt="PVI",
                    fixed=_fixed_fields("extractu", ws, "sci"),
                    syntax=("rd", "rs1", "imm"),
                    execute=_make_extract_exec(width, signed=False),
                    timing="alu",
                    isa=isa,
                )
            )
            specs.append(
                InstrSpec(
                    mnemonic=f"pv.insert.{ws}",
                    fmt="PVI",
                    fixed=_fixed_fields("insert", ws, "sci"),
                    syntax=("rd", "rs1", "imm"),
                    execute=_make_insert_exec(width),
                    timing="alu",
                    rd_is_src=True,
                    isa=isa,
                    fusion=("insert", width),
                )
            )
    return specs
