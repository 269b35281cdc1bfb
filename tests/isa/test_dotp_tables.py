"""Table-driven packed dot products against the lane-wise reference.

Every ``pv.(s)dot*`` spec executes from byte-pair tables (2-, 4- and
8-bit lanes) or two direct multiplies (16-bit lanes); :func:`simd_dotp`
stays the reference model they must reproduce bit for bit.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Cpu
from repro.isa.bits import replicate_scalar, to_signed, u32
from repro.isa.instruction import Instruction
from repro.isa.simd import dotp_table, simd_dotp

#: (a signed, b signed) of dotup, dotusp and dotsp.
SIGNEDNESS = [(False, False), (False, True), (True, True)]

CPU = Cpu(isa="xpulpnn")
DOTP_SPECS = sorted(
    (spec for spec in CPU.isa.specs if spec.fusion and spec.fusion[0] == "dotp"),
    key=lambda spec: spec.mnemonic)


@pytest.mark.parametrize("width", [2, 4, 8])
@pytest.mark.parametrize("a_signed,b_signed", SIGNEDNESS)
def test_table_matches_reference_on_every_byte_pair(width, a_signed, b_signed):
    table = dotp_table(width, a_signed, b_signed)
    want = [to_signed(simd_dotp(a, b, width, a_signed, b_signed))
            for a in range(256) for b in range(256)]
    assert table.tolist() == want


def test_every_dotp_spec_is_covered():
    """6 ops x (h, b: vector, .sc, .sci; n, c: vector, .sc)."""
    assert len(DOTP_SPECS) == 6 * (3 + 3 + 2 + 2)


word = st.one_of(
    st.integers(0, 0xFFFF_FFFF),
    st.sampled_from([0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF,
                     0x8888_8888, 0x7777_7777, 0xAAAA_AAAA, 0x5555_5555]),
)
reg = st.sampled_from([0, 5, 6, 7])


@pytest.mark.parametrize("spec", DOTP_SPECS, ids=lambda s: s.mnemonic)
@settings(max_examples=25, deadline=None)
@given(values=st.lists(word, min_size=3, max_size=3), rd=reg, rs1=reg,
       rs2=reg, imm=st.integers(-32, 31))
def test_spec_matches_reference(spec, values, rd, rs1, rs2, imm):
    """Random and extreme words, aliased operands, ``rd = x0``, and the
    accumulator wrapping at 2**32."""
    _, width, a_signed, b_signed, accumulate, variant = spec.fusion
    regs = CPU.regs
    for index, value in zip((5, 6, 7), values):
        regs[index] = value
    a, acc = regs[rs1], regs[rd]
    b = {"": regs[rs2], "sc": replicate_scalar(regs[rs2], width),
         "sci": replicate_scalar(u32(imm), width)}[variant]
    want = simd_dotp(a, b, width, a_signed, b_signed,
                     acc if accumulate else 0)
    before = regs.snapshot()
    spec.execute(CPU, Instruction(spec, rd=rd, rs1=rs1, rs2=rs2, imm=imm))
    after = regs.snapshot()
    if rd:
        before[rd] = want
    assert after == before


@pytest.mark.parametrize("width", [2, 4, 8, 16])
def test_accumulator_wraps(width):
    spec = next(s for s in DOTP_SPECS
                if s.fusion == ("dotp", width, True, True, True, ""))
    regs = CPU.regs
    regs[5], regs[6], regs[7] = 0xFFFF_FFFF, 0xFFFF_FFFF, 0xFFFF_FFFF
    spec.execute(CPU, Instruction(spec, rd=5, rs1=6, rs2=7))
    lanes = 32 // width
    assert regs[5] == lanes - 1     # (-1 * -1) per lane, from -1


def test_tables_are_built_on_first_use():
    """Importing the simulator builds no table."""
    code = ("import repro, repro.cluster, repro.compiler, repro.kernels\n"
            "from repro.isa.simd import dotp_table\n"
            "assert dotp_table.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True)
