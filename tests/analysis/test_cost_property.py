"""Property-based three-way check: static cost against both engines.

Hypothesis generates the block-engine parity programs (single hardware
loops, nested lp1/lp0 nests, forward branches), and software counted
loops (``li t5, n`` ... ``addi t5, t5, -1; bne t5, zero, head``) around
them, and runs each through
:func:`~repro.analysis.cost.analyze_cost` and through the interpreter
and the block engine (:func:`~tests.engine.conftest.run_both`, which
asserts the engines agree).  A report without warnings must contain
every counter :meth:`StaticCostReport.compare` checks; a report with
warnings (an empty loop body is "malformed", for one) must still contain
the simulated cycles.

The counted loops cover the fold's fallback to walking every iteration:
an ``ebreak`` drawn into the body, a forward branch on a register the
body also writes, and a branch on a register the body toggles each
iteration, which a walk per iteration resolves every time, so that
report must be exact.

The report assumes aligned data accesses, and the generators draw
misaligned ones, so the simulated misaligned-split stalls are taken out
of the counters before comparing instead of discarding those examples.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cost import analyze_cost
from repro.asm import assemble
from tests.engine.conftest import run_both
from tests.engine.test_engine_property import (
    body_ops,
    forward_branch,
    initial_mem,
    initial_regs,
    nested_loop,
    single_loop,
)


def _check(lines, regs, mem):
    source = "\n".join(lines) + "\n"
    interp, *_ = run_both(source, regs=regs, mem=mem)
    report = analyze_cost(assemble(source, isa="xpulpnn"))
    aligned = interp.perf.copy()
    aligned.cycles -= aligned.stall_misaligned
    aligned.stall_misaligned = 0
    if report.warnings:
        assert report.cycles.contains(aligned.cycles), (
            f"simulated {aligned.cycles} cycles outside static "
            f"{report.cycles} ({report.warnings})\n{source}")
    else:
        assert report.compare(aligned) == [], source
    return report


def counted_loop(lines, trips):
    """*lines*, a program ending in ``ebreak``, with all before the
    ``ebreak`` wrapped in a software loop of *trips* iterations."""
    assert lines[-1] == "ebreak"
    return [f"li t5, {trips}", "swhead:", *lines[:-1],
            "addi t5, t5, -1", "bne t5, zero, swhead", "ebreak"]


def toggled_loop(ops, trips):
    """A counted loop whose body skips *ops* every other iteration, on
    ``t4``, which it toggles."""
    return ["li t4, 0", *counted_loop(
        ["xori t4, t4, 1", "beq t4, zero, swskip", *ops, "swskip:",
         "ebreak"], trips)]


single_loops = st.builds(
    single_loop, body_ops(allow_ebreak=True), st.integers(0, 7),
    st.integers(0, 1))
nested_loops = st.builds(
    nested_loop, body_ops(max_size=4), body_ops(max_size=3),
    st.integers(0, 4), st.integers(0, 5))
forward_branches = st.builds(
    forward_branch, body_ops(max_size=6), st.integers(1, 3))
counted_loops = st.builds(
    counted_loop, st.one_of(single_loops, nested_loops, forward_branches),
    st.integers(1, 6))
toggled_loops = st.builds(toggled_loop, body_ops(max_size=4),
                          st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(lines=single_loops, regs=initial_regs(), mem=initial_mem())
def test_single_loop_cost(lines, regs, mem):
    _check(lines, regs, mem)


@settings(max_examples=40, deadline=None)
@given(lines=nested_loops, regs=initial_regs(), mem=initial_mem())
def test_nested_loop_cost(lines, regs, mem):
    _check(lines, regs, mem)


@settings(max_examples=40, deadline=None)
@given(lines=forward_branches, regs=initial_regs(), mem=initial_mem())
def test_forward_branch_cost(lines, regs, mem):
    _check(lines, regs, mem)


@settings(max_examples=40, deadline=None)
@given(lines=counted_loops, regs=initial_regs(), mem=initial_mem())
def test_counted_loop_cost(lines, regs, mem):
    _check(lines, regs, mem)


@settings(max_examples=20, deadline=None)
@given(lines=toggled_loops, regs=initial_regs(), mem=initial_mem())
def test_toggled_counted_loop_is_walked_per_iteration(lines, regs, mem):
    assert _check(lines, regs, mem).exact, "\n".join(lines)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(lines=st.one_of(single_loops, nested_loops, forward_branches,
                       counted_loops, toggled_loops),
       regs=initial_regs(), mem=initial_mem())
def test_cost_deep(lines, regs, mem):
    _check(lines, regs, mem)
