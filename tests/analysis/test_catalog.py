"""Integration: the static verifier over every catalog point.

The acceptance bar of the analysis subsystem — all programs the kernel
generators emit (MatMul/conv/depthwise/pooling/linear/ReLU at 8/4/2-bit,
serial and cluster-parallel) must lint clean with every checker enabled.
"""

import pytest

from repro.analysis import kernel_program, lint_program
from repro.analysis.catalog import catalog_kernel_names

NAMES = catalog_kernel_names()


def test_catalog_covers_the_kernel_families():
    assert len(NAMES) == len(set(NAMES))
    for family in ("matmul", "conv", "depthwise", "pool", "linear",
                   "relu", "parallel"):
        assert any(family in name for name in NAMES), family


@pytest.mark.parametrize("name", NAMES)
def test_kernel_program_has_zero_findings(name):
    report = lint_program(kernel_program(name), name=name)
    assert report.ok and not report.findings, report.render()
