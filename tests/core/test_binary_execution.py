"""Encode -> memory -> decode -> execute: the binary path end to end."""

import numpy as np
import pytest

from repro.asm import assemble
from repro.core import Cpu
from repro.errors import TrapError


SOURCE = """
    li t0, 5
    li a0, 0
    lp.setup 0, t0, end
    p.lw a2, 4(a1!)
    pv.sdotusp.b a0, a2, a2
end:
    ebreak
"""


def test_binary_execution_matches_object_execution():
    """Running from the decoded binary must give identical results and
    cycle counts as running the assembled instruction objects."""
    program = assemble(SOURCE, isa="xpulpnn", base=0)

    direct = Cpu(isa="xpulpnn")
    direct.mem.write_i8(0x1000, list(range(1, 21)))
    direct.load_program(program)
    direct.regs[11] = 0x1000
    direct.run()

    binary = Cpu(isa="xpulpnn")
    binary.mem.write_i8(0x1000, list(range(1, 21)))
    binary.mem.write_bytes(0, program.encode())
    binary.load_from_memory(0, program.size)
    binary.regs[11] = 0x1000
    binary.run()

    assert binary.regs[10] == direct.regs[10]
    assert binary.perf.cycles == direct.perf.cycles
    assert binary.perf.instructions == direct.perf.instructions


def test_binary_execution_with_qnt():
    from repro.qnn import random_threshold_table

    source = """
        pv.qnt.n a0, a1, a2
        ebreak
    """
    program = assemble(source, isa="xpulpnn")
    table = random_threshold_table(1, 4, rng=np.random.default_rng(2))

    cpu = Cpu(isa="xpulpnn")
    table.write_to_memory(cpu.mem, 0x4000)
    cpu.mem.write_bytes(0x100, program.encode())
    cpu.load_from_memory(0x100, program.size)
    cpu.regs[11] = 1234
    cpu.regs[12] = 0x4000
    cpu.run()
    expected = table.quantize(np.array([[1234]]))[0, 0]
    assert cpu.regs[10] & 0xF == expected


def test_materialize_then_reload():
    program = assemble("addi a0, zero, 9\nebreak", isa="xpulpnn", base=0x200)
    cpu = Cpu(isa="xpulpnn")
    cpu.load_program(program)
    cpu.materialize(program)
    cpu.load_from_memory(0x200, program.size)
    cpu.run()
    assert cpu.regs[10] == 9


@pytest.mark.parametrize("tail", [b"\xff\xff\xff\xff", b"\x13\x00"],
                         ids=["illegal-word", "truncated-word"])
@pytest.mark.parametrize("engine", ["interp", "block"])
def test_undecodable_data_after_the_code(engine, tail):
    """Data after the code does not fail the load: a program that never
    reaches it runs normally, and fetching it traps."""
    image = assemble("addi a0, zero, 7\nebreak", isa="xpulpnn").encode()
    cpu = Cpu(isa="xpulpnn", engine=engine)
    cpu.mem.write_bytes(0, image + tail)
    cpu.load_from_memory(0, len(image + tail))
    cpu.run()
    assert cpu.halted and cpu.regs[10] == 7
    with pytest.raises(TrapError) as trap:
        cpu.run(entry=len(image))
    assert (trap.value.cause, trap.value.pc) == ("illegal instruction", 8)
