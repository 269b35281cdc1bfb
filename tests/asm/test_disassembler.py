"""Disassembler tests: text round-trips and binary decoding."""

import pytest

from repro.asm import assemble, disassemble_bytes, disassemble_program, format_instruction

SOURCES = [
    "addi a0, zero, -5",
    "lw a0, 8(sp)",
    "sw a1, -4(s0)",
    "lui a0, 74565",
    "p.lw a2, 4(a0!)",
    "p.lw a2, t0(a0)",
    "pv.sdotsp.n s2, a2, a3",
    "pv.add.sci.b a0, a1, -3",
    "p.extract a0, a1, 4, 8",
    "p.clipu a0, a1, 9",
    "lp.counti 0, 12",
]


@pytest.mark.parametrize("source", SOURCES)
def test_text_roundtrip(source):
    """assemble(disassemble(assemble(x))) == assemble(x)."""
    first = assemble(source + "\nebreak")
    text = format_instruction(first.instructions[0])
    second = assemble(text + "\nebreak")
    assert first.encode() == second.encode()


def test_branch_targets_render_as_addresses():
    program = assemble("beq a0, a1, t\nnop\nt:\nebreak")
    text = format_instruction(program.instructions[0], symbolic=False)
    assert "0x8" in text


def test_symbolic_target_preserved():
    program = assemble("j somewhere\nsomewhere:\nebreak")
    assert "somewhere" in format_instruction(program.instructions[0])


def test_disassemble_program_includes_labels():
    listing = disassemble_program(assemble("main:\nnop\nebreak"))
    assert "main:" in listing
    assert "0x00000000" in listing


def test_disassemble_bytes_mixed_widths():
    from repro.isa import rv32c
    from repro.isa.instruction import Instruction

    # one compressed + one wide instruction
    c_nop = Instruction(spec=next(s for s in rv32c.SPECS if s.mnemonic == "c.nop"))
    program = assemble("addi a0, zero, 1\nebreak")
    blob = rv32c.encode_c(c_nop).to_bytes(2, "little") + program.encode()
    decoded = disassemble_bytes(blob)
    assert [i.mnemonic for i in decoded] == ["c.nop", "addi", "ebreak"]
    assert decoded[1].addr == 2


def test_disassemble_bytes_rejects_a_truncated_word():
    """A 32-bit-length word cut off by the image end is an error, not a
    word whose missing bytes read as zero."""
    from repro.errors import DecodeError

    blob = assemble("ebreak").encode() + bytes([0x13, 0x00])
    with pytest.raises(DecodeError, match="offset 0x4"):
        disassemble_bytes(blob)
