"""Property-based three-way check: static cost against both engines.

Hypothesis generates the block-engine parity programs (single hardware
loops, nested lp1/lp0 nests, forward branches) and runs each through
:func:`~repro.analysis.cost.analyze_cost` and through the interpreter
and the block engine (:func:`~tests.engine.conftest.run_both`, which
asserts the engines agree).  A report without warnings must contain
every counter :meth:`StaticCostReport.compare` checks; a report with
warnings (an empty loop body is "malformed", for one) must still contain
the simulated cycles.

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
    interp, _ = run_both(source, regs=regs, mem=mem)
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


single_loops = st.builds(
    single_loop, body_ops(allow_ebreak=True), st.integers(0, 7),
    st.integers(0, 1))
nested_loops = st.builds(
    nested_loop, body_ops(max_size=4), body_ops(max_size=3),
    st.integers(0, 4), st.integers(0, 5))
forward_branches = st.builds(
    forward_branch, body_ops(max_size=6), st.integers(1, 3))


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


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(lines=st.one_of(single_loops, nested_loops, forward_branches),
       regs=initial_regs(), mem=initial_mem())
def test_cost_deep(lines, regs, mem):
    _check(lines, regs, mem)
