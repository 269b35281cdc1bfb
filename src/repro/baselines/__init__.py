"""Commercial-MCU baselines: Cortex-M4/M7 cost models plus the functional
Thumb-2 machine that validates them.

The cost models import nothing heavy (the target registry reads
:data:`CORES` on every CLI start); the Thumb-2 machine and the CMSIS-NN
kernels load on first use of their names.
"""

from .armv7em import (
    CORES,
    STM32H743,
    STM32L476,
    CmsisConvModel,
    CortexMCore,
    conv_cycles,
)

#: Names served by submodules that load on first access.
_LAZY = {
    "CmsisMatmulKernel": "cmsis_kernels",
    "CmsisMatmulResult": "cmsis_kernels",
    "T2Perf": "thumb2",
    "Thumb2Builder": "thumb2",
    "Thumb2Machine": "thumb2",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


__all__ = [
    "CORES",
    "CmsisConvModel",
    "CmsisMatmulKernel",
    "CmsisMatmulResult",
    "CortexMCore",
    "STM32H743",
    "STM32L476",
    "T2Perf",
    "Thumb2Builder",
    "Thumb2Machine",
    "conv_cycles",
]
