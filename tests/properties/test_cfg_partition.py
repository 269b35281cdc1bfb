"""Property: CFG basic blocks exactly partition every linked program.

The static cost analyzer charges cycles block by block; if a block ever
dropped or double-counted an instruction, the per-block breakdown would
silently disagree with the totals.  Checked over every catalog point of
the kernel matrix and over hypothesis-generated control-flow soups
(random branch/jump targets, hardware loops, unreachable tails).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_cfg
from repro.analysis.catalog import catalog_kernel_names, kernel_program
from repro.asm import assemble


def assert_blocks_partition(program):
    """Every instruction lands in exactly one basic block."""
    cfg = build_cfg(program)
    covered = [ins.addr for block in cfg.blocks
               for ins in block.instructions]
    assert len(covered) == len(set(covered)), "blocks overlap"
    assert set(covered) == {ins.addr for ins in program.instructions}
    # Within a block, addresses are contiguous in program order.
    for block in cfg.blocks:
        addrs = [ins.addr for ins in block.instructions]
        sizes = [ins.size for ins in block.instructions]
        for prev, size, nxt in zip(addrs, sizes, addrs[1:]):
            assert prev + size == nxt, "non-contiguous block"


@pytest.mark.parametrize("name", catalog_kernel_names())
def test_every_catalog_program_partitions(name):
    assert_blocks_partition(kernel_program(name))


@st.composite
def control_flow_soup(draw):
    """Random straight-line/branch/jump/hwloop mix with label targets
    anywhere in the program (including unreachable stretches)."""
    n = draw(st.integers(min_value=2, max_value=14))
    lines = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["alu", "alu", "load", "branch", "jump"]))
        target = f"L{draw(st.integers(min_value=0, max_value=n))}"
        if kind == "alu":
            lines.append("addi t0, t0, 1")
        elif kind == "load":
            lines.append("lw t1, 0(a0)")
        elif kind == "branch":
            lines.append(f"beq t0, t1, {target}")
        else:
            lines.append(f"j {target}")
    src = "".join(f"L{i}:\n    {line}\n" for i, line in enumerate(lines))
    src += f"L{n}:\n    ebreak\n"
    if draw(st.booleans()):
        # Append a hardware loop reachable only by stray targets.
        src += ("    lp.setupi 0, 3, hw_end\n"
                "    addi t2, t2, 1\n"
                "hw_end:\n"
                "    ebreak\n")
    return src


@given(control_flow_soup())
@settings(deadline=None, max_examples=120)
def test_generated_programs_partition(source):
    assert_blocks_partition(assemble(source))
