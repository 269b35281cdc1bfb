"""Per-spec facts the simulator precomputes or relies on.

The cluster scheduler lets a core run ahead through every instruction
whose timing class is outside :data:`SHARED_TIMING_CLASSES`, so those
instructions must never reach the memory system.  The hazard check reads
the source fields each spec derives once from its operand syntax.
"""

from types import SimpleNamespace

import pytest

from repro.core import Cpu
from repro.isa.instruction import (
    SHARED_TIMING_CLASSES,
    TIMING_CLASSES,
    Instruction,
)
from repro.isa.registry import SUBSETS

ALL_SPECS = [spec for specs in SUBSETS.values() for spec in specs]
PRIVATE = [s for s in ALL_SPECS if s.timing not in SHARED_TIMING_CLASSES]
SHARED = [s for s in ALL_SPECS if s.timing in SHARED_TIMING_CLASSES]


def _ids(spec):
    return f"{spec.isa}:{spec.mnemonic}"


class _NoMemory:
    """A memory port that fails the test on any access."""

    def __getattr__(self, name):
        raise AssertionError(f"memory touched through {name!r}")


def _step_once(spec, regs):
    cpu = Cpu(mem=_NoMemory())
    # rd=1 doubles as hardware-loop level 1 for the lp.* family.
    ins = Instruction(spec, rd=1, rs1=6, rs2=7, rs3=8, imm=8, addr=0x100)
    cpu.load_program(SimpleNamespace(instructions=[ins], entry=0x100))
    for index, value in regs.items():
        cpu.regs[index] = value
    cpu.step()
    return cpu


def test_shared_classes_are_timing_classes():
    assert SHARED_TIMING_CLASSES < TIMING_CLASSES


@pytest.mark.parametrize("regs", [{}, {1: 0x1001, 6: 0x1000, 7: 0x7FFF_FFFC,
                                       8: 0x8000_0003}])
@pytest.mark.parametrize("spec", PRIVATE, ids=_ids)
def test_private_spec_never_touches_memory(spec, regs):
    _step_once(spec, regs)


@pytest.mark.parametrize("spec", SHARED, ids=_ids)
def test_shared_spec_reaches_memory(spec):
    """The split is not wider than it needs to be."""
    with pytest.raises(AssertionError, match="memory touched"):
        _step_once(spec, {6: 0x1000, 7: 0x1000})


def _derived_sources(ins):
    """The hazard model's original per-retire derivation from syntax."""
    regs = []
    syntax = ins.spec.syntax
    if any("rs1" in part for part in syntax):
        regs.append(ins.rs1)
    if any("rs2" in part for part in syntax):
        regs.append(ins.rs2)
    if ins.spec.rd_is_src:
        regs.append(ins.rd)
    return tuple(regs)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=_ids)
def test_source_registers_match_syntax(spec):
    ins = Instruction(spec, rd=1, rs1=2, rs2=3, rs3=4)
    assert ins.source_registers() == _derived_sources(ins)
