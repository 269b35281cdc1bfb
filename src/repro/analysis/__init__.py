"""Static program verification and dynamic race detection.

The static side (``repro lint``) builds a CFG over a linked
:class:`~repro.asm.program.Program`, runs small forward-dataflow
analyses, and applies a registry of checkers: use-of-undefined register,
writes to x0, RI5CY hardware-loop well-formedness, packed-SIMD format
mixing, ``pv.qnt`` threshold-pointer sanity, and static address-range
checks against the platform memory map.

The dynamic side records TCDM accesses of a cluster run and applies a
happens-before race detector that uses event-unit barriers as the
synchronization edges (``repro lint --race``).

The cost side (``repro cost``) statically derives cycle counts from the
same CFG plus the core's timing rules — exact on straight-line and
hardware-loop kernels, interval-bounded on data-dependent branches — and
feeds the opt-in performance-hazard checkers (``repro lint --perf``).
"""

from .catalog import builtin_kernel_programs, kernel_program, run_race_check
from .cfg import (
    BasicBlock,
    Cfg,
    HwLoop,
    build_cfg,
    find_hwloops,
    postdominators,
)
from .checkers import (
    CHECKERS,
    KERNEL_ENTRY_REGS,
    Checker,
    LintConfig,
    Region,
    checker_catalog,
    default_checks,
    lint_program,
    perf_checks,
    register_checker,
)
from .cost import (
    COST_SCHEMA_VERSION,
    CostError,
    Interval,
    LoopBound,
    StaticCostReport,
    analyze_cost,
)
from .dataflow import (
    ConstantAnalysis,
    DefinednessAnalysis,
    FormatAnalysis,
    ForwardAnalysis,
)
from .findings import LINT_SCHEMA_VERSION, Finding, LintReport
from .race import AccessTrace, Race, RaceReport, TcdmAccess, detect_races

from . import perf_checkers as _perf_checkers  # noqa: F401  (registers checkers)

__all__ = [
    "AccessTrace",
    "BasicBlock",
    "CHECKERS",
    "COST_SCHEMA_VERSION",
    "Cfg",
    "Checker",
    "ConstantAnalysis",
    "CostError",
    "DefinednessAnalysis",
    "Finding",
    "FormatAnalysis",
    "ForwardAnalysis",
    "HwLoop",
    "Interval",
    "KERNEL_ENTRY_REGS",
    "LINT_SCHEMA_VERSION",
    "LintConfig",
    "LintReport",
    "LoopBound",
    "Race",
    "RaceReport",
    "Region",
    "StaticCostReport",
    "TcdmAccess",
    "analyze_cost",
    "build_cfg",
    "builtin_kernel_programs",
    "checker_catalog",
    "default_checks",
    "detect_races",
    "find_hwloops",
    "kernel_program",
    "lint_program",
    "perf_checks",
    "postdominators",
    "register_checker",
    "run_race_check",
]
