"""Disassembler: instruction objects (or binary) back to assembly text."""

from __future__ import annotations

from typing import List

from ..errors import DecodeError
from ..isa.instruction import Instruction
from ..isa.registers import register_name
from ..isa.registry import Isa, build_isa
from ..target.names import XPULPNN
from ..isa import rv32c


def format_instruction(ins: Instruction, symbolic: bool = True) -> str:
    """Render one instruction as assembly text.

    With *symbolic*, unresolved label targets print by name; resolved
    PC-relative targets print as absolute hex addresses when the
    instruction has an address, else as ``.+offset``.
    """
    parts: List[str] = []
    imm_remaining = ins.imm
    pos = imm_remaining & 0x1F
    length = ((imm_remaining >> 5) & 0x1F) + 1
    for token in ins.spec.syntax:
        if token == "rd":
            parts.append(register_name(ins.rd))
        elif token == "rs1":
            parts.append(register_name(ins.rs1))
        elif token == "rs2":
            parts.append(register_name(ins.rs2))
        elif token in ("imm", "uimm"):
            parts.append(str(ins.imm))
        elif token == "label":
            if symbolic and ins.target is not None:
                parts.append(ins.target)
            elif ins.addr is not None:
                parts.append(f"{(ins.addr + ins.imm) & 0xFFFFFFFF:#x}")
            else:
                parts.append(f".{ins.imm:+d}")
        elif token == "imm(rs1)":
            parts.append(f"{ins.imm}({register_name(ins.rs1)})")
        elif token == "imm(rs1!)":
            parts.append(f"{ins.imm}({register_name(ins.rs1)}!)")
        elif token == "rs2(rs1)":
            parts.append(f"{register_name(ins.rs2)}({register_name(ins.rs1)})")
        elif token == "rs2(rs1!)":
            parts.append(f"{register_name(ins.rs2)}({register_name(ins.rs1)}!)")
        elif token == "L":
            parts.append(str(ins.rd))
        elif token == "count5":
            parts.append(str(ins.rs1))
        elif token == "simm5":
            value = ins.rs2 - 32 if ins.rs2 & 0x10 else ins.rs2
            parts.append(str(value))
        elif token == "pos":
            parts.append(str(pos))
        elif token == "len":
            parts.append(str(length))
        else:  # pragma: no cover - defensive
            parts.append(f"<{token}>")
    text = ins.mnemonic
    if parts:
        text += " " + ", ".join(parts)
    return text


def disassemble_program(program) -> str:
    """Render a linked program with addresses and label annotations."""
    by_addr = {}
    for name, addr in program.labels.items():
        by_addr.setdefault(addr, []).append(name)
    lines: List[str] = []
    for ins in program.instructions:
        for name in by_addr.get(ins.addr, ()):
            lines.append(f"{name}:")
        lines.append(f"  {ins.addr:#010x}:  {format_instruction(ins)}")
    return "\n".join(lines)


def instruction_size(first_byte: int) -> int:
    """Byte length of the instruction whose encoding starts with
    *first_byte*: 4 when its low two bits are ``11``, else 2 (RVC)."""
    return 4 if first_byte & 3 == 3 else 2


def decode_at(blob: bytes, offset: int, isa: Isa) -> Instruction:
    """Decode the instruction at *offset* of *blob*; raise
    :class:`DecodeError` if it is illegal or cut off by the image end."""
    size = instruction_size(blob[offset])
    if offset + size > len(blob):
        raise DecodeError(
            f"truncated {8 * size}-bit instruction at offset {offset:#x}")
    word = int.from_bytes(blob[offset:offset + size], "little")
    if size == 4:
        return isa.decoder.decode(word)
    return rv32c.decode_c(word)


def disassemble_bytes(
    blob: bytes, isa: str | Isa = XPULPNN, base: int = 0
) -> List[Instruction]:
    """Decode a binary image into instructions (handles 16/32-bit mix)."""
    isa_obj = build_isa(isa) if isinstance(isa, str) else isa
    out: List[Instruction] = []
    offset = 0
    while offset < len(blob):
        ins = decode_at(blob, offset, isa_obj)
        ins.addr = base + offset
        out.append(ins)
        offset += ins.size
    return out
