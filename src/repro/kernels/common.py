"""Shared kernel-generation infrastructure.

Kernels are generated per layer geometry (like template specialization in
PULP-NN): immediates are baked at build time, data pointers live in
registers.  This module fixes the register allocation convention, the
memory layout of a kernel run, and the result container.

Register convention (leaf kernels, no calls):

======== =====================================================
register role
======== =====================================================
a0       weights base / primary input pointer
a1, a2   im2col buffer 0 / 1 pointers
a3, a4   output pointers (pixel 0 / pixel 1)
a5       threshold-table pointer or requantization shift
a6, a7   inner-loop weight pointers (filter i / filter i+1)
s2..s5   matmul accumulators (acc00, acc01, acc10, acc11)
s6, s7   inner-loop im2col pointers
s8..s11  loop counters / base-address anchors
t0..t6   scratch, unpack temporaries
s0, s1   unpack selector / mask constants
======== =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..core.perf import PerfCounters
from ..errors import KernelError

# Named registers of the kernel convention (ABI names understood by the
# builder).  Collected here so generators and tests agree.
REG = {
    "weights": "a0",
    "im2col0": "a1",
    "im2col1": "a2",
    "out0": "a3",
    "out1": "a4",
    "thr": "a5",
    "wptr0": "a6",
    "wptr1": "a7",
    "acc00": "s2",
    "acc01": "s3",
    "acc10": "s4",
    "acc11": "s5",
    "xptr0": "s6",
    "xptr1": "s7",
    "src_pix": "s8",
    "count_outer": "s9",
    "anchor0": "s10",
    "anchor1": "s11",
    "sel_lo": "s0",
    "sel_hi": "s1",
    "t0": "t0",
    "t1": "t1",
    "t2": "t2",
    "t3": "t3",
    "t4": "t4",
    "t5": "t5",
    "t6": "t6",
    "mask": "gp",     # unpack mask constant
    "segcnt": "tp",   # im2col segment word count
}


def align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


@dataclass
class KernelLayout:
    """Addresses of the regions a kernel run touches.

    Built by :func:`plan_layout`; the harness writes tensors at these
    addresses before running and reads results after.
    """

    code: int
    regions: Dict[str, int] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)
    end: int = 0

    def addr(self, name: str) -> int:
        if name not in self.regions:
            raise KernelError(f"layout has no region {name!r}")
        return self.regions[name]

    def size_of(self, name: str) -> int:
        return self.sizes[name]


def plan_layout(code_bytes: int, spec: Dict[str, tuple], base: int = 0) -> KernelLayout:
    """Lay out memory regions after the code.

    *spec* maps region name -> (size_bytes, alignment).
    """
    layout = KernelLayout(code=base)
    cursor = align_up(base + code_bytes, 16)
    for name, (size, alignment) in spec.items():
        cursor = align_up(cursor, alignment)
        layout.regions[name] = cursor
        layout.sizes[name] = size
        cursor += size
    layout.end = cursor
    return layout


@dataclass
class KernelRun:
    """Result of one kernel execution on the ISS."""

    output: np.ndarray
    perf: PerfCounters
    layout: KernelLayout
    detail: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.perf.cycles

    @property
    def instructions(self) -> int:
        return self.perf.instructions

    def macs_per_cycle(self, macs: int) -> float:
        return macs / self.perf.cycles if self.perf.cycles else 0.0
