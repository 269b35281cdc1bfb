"""Core model: the cycle-approximate (extended) RI5CY simulator.

* :class:`repro.core.Cpu` — the instruction-set simulator.
* :class:`repro.core.PerfCounters` — cycle/instruction/stall accounting.
* :class:`repro.core.RegionCounters` — per-region counters (the profiler).
* :class:`repro.core.units.DotpUnit` / :class:`repro.core.units.QuantUnit`
  — microarchitectural models of the XpulpNN hardware blocks.
"""

from .cpu import Cpu
from .hwloop import HwLoopController
from .perf import PerfCounters
from .regions import RegionCounters
from .timing import StepTiming
from .units import DotpUnit, QuantUnit

__all__ = [
    "Cpu",
    "DotpUnit",
    "HwLoopController",
    "PerfCounters",
    "QuantUnit",
    "RegionCounters",
    "StepTiming",
]
