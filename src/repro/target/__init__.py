"""Declarative target registry: machine construction behind one table.

Public surface:

* :data:`names` — the canonical core-name constants (the only place the
  bare ``"ri5cy"``/``"xpulpnn"`` strings are spelled out);
* :class:`TargetSpec` — frozen description of one machine (ISA features,
  cores, L2/TCDM sizes, timing + power model, quantization mode);
* :func:`get_target` / :func:`list_targets` / :func:`register` — the
  registry of named targets (``repro targets`` lists them);
* :func:`build_machine` — construct a wired ``Cpu``/``Cluster``/SoC from
  a spec name; :func:`arm_core` for the Cortex-M cost baselines.
"""

from . import names
from .machine import Machine, arm_core, build_machine
from .registry import (
    arm_targets,
    get_target,
    list_targets,
    register,
    register_ephemeral,
    riscv_targets,
    target_names,
)
from .spec import FAMILY_ARM, FAMILY_RISCV, QUANT_HW, QUANT_SW, TargetSpec

__all__ = [
    "FAMILY_ARM",
    "FAMILY_RISCV",
    "Machine",
    "QUANT_HW",
    "QUANT_SW",
    "TargetSpec",
    "arm_core",
    "arm_targets",
    "build_machine",
    "get_target",
    "list_targets",
    "names",
    "register",
    "register_ephemeral",
    "riscv_targets",
    "target_names",
]
