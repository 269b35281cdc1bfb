"""Kernel dispatch: pick the right generated kernel for a target.

``select(op, bits, target)`` replaces the per-call-site ``cfg.isa``
string branching with capability queries on the :class:`TargetSpec`:

* quantization mode comes from ``spec.quant_for(bits)`` (8-bit layers
  requantize by shift; sub-byte layers use the ``pv.qnt`` hardware when
  the spec has it, the software staircase otherwise);
* cores without native sub-byte SIMD run linear/pool layers on widened
  8-bit data (values identical, only wider) — previously an inline
  ``isa != ...`` comparison in the deployer;
* cluster targets shard conv/matmul across their cores, with an
  optional single-core fallback for geometries that do not shard.

The returned :class:`KernelSelection` carries the kernel plus the
resolved spec/quant/cores, so callers account cycles and power without
re-deriving any of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import KernelError, TargetError
from ..target import TargetSpec, get_target

#: Operations the dispatcher knows how to build.
OPS = ("conv", "matmul", "linear", "pool", "relu", "depthwise")


@dataclass(frozen=True)
class KernelSelection:
    """A built kernel plus the target context it was selected for."""

    op: str
    bits: int
    spec: TargetSpec
    quant: str
    cores: int
    kernel: object

    @property
    def parallel(self) -> bool:
        return self.cores > 1

    def run(self, *args, **kwargs):
        """Delegate to the selected kernel's ``run``."""
        return self.kernel.run(*args, **kwargs)


def _select_conv(bits, spec, quant, cluster_fallback, kwargs):
    from .conv import ConvConfig, ConvKernel
    from .parallel import ParallelConvConfig, ParallelConvKernel

    if spec.cluster:
        from ..soc.memmap import TCDM_BASE

        try:
            kernel = ParallelConvKernel(ParallelConvConfig(
                bits=bits, isa=spec.isa, quant=quant,
                num_cores=spec.cores, **kwargs))
            if kernel.layout.end - TCDM_BASE <= spec.tcdm_bytes:
                return kernel, spec.cores
            if not cluster_fallback:
                raise KernelError(
                    f"conv working set does not fit the {spec.tcdm_bytes} B "
                    f"TCDM of target {spec.name!r}")
        except KernelError:
            if not cluster_fallback:
                raise
    return ConvKernel(ConvConfig(
        bits=bits, isa=spec.isa, quant=quant, **kwargs)), 1


def _select_matmul(bits, spec, quant, cluster_fallback, kwargs):
    from .matmul import MatmulConfig, MatmulKernel
    from .parallel import ParallelMatmulConfig, ParallelMatmulKernel

    if spec.cluster:
        try:
            return ParallelMatmulKernel(ParallelMatmulConfig(
                bits=bits, isa=spec.isa, quant=quant,
                num_cores=spec.cores, **kwargs)), spec.cores
        except KernelError:
            if not cluster_fallback:
                raise
    return MatmulKernel(MatmulConfig(
        bits=bits, isa=spec.isa, quant=quant, **kwargs)), 1


def _select_layer(op, bits, spec, kwargs):
    """The single-core layer kernels.  Cores without sub-byte SIMD run
    linear/pool/ReLU on widened 8-bit operands; depthwise is 8-bit only
    (no bits/quant knobs)."""
    from .depthwise import DepthwiseConfig, DepthwiseConvKernel
    from .linear import LinearConfig, LinearKernel
    from .pooling import PoolConfig, PoolKernel
    from .relu import ReluConfig, ReluKernel

    if op == "depthwise":
        return DepthwiseConvKernel(DepthwiseConfig(isa=spec.isa, **kwargs))
    config, kernel = {"linear": (LinearConfig, LinearKernel),
                      "pool": (PoolConfig, PoolKernel),
                      "relu": (ReluConfig, ReluKernel)}[op]
    widened = bits if bits == 8 or spec.subbyte_simd else 8
    return kernel(config(bits=widened, isa=spec.isa, **kwargs))


def select(op: str, bits: int, target, /, quant: str = None,
           cluster_fallback: bool = False, **kwargs) -> KernelSelection:
    """Build the kernel implementing *op* at *bits* on *target*.

    *target* is a registry name or spec.  Shape arguments are passed
    through to the kernel config (``geometry=`` for conv,
    ``reduction=``/``out_ch=`` for matmul, ``op=`` for pool, ...).  *quant* overrides the
    spec-derived quantization mode (e.g. the Fig 6 software-staircase
    ablation on an XpulpNN core).  With *cluster_fallback*, geometries
    that do not shard on a cluster target drop to one core instead of
    raising — the graceful path a deployment flow takes.
    """
    spec = get_target(target)
    if not spec.riscv:
        raise TargetError(
            f"target {spec.name!r} is a cost-model baseline; kernels only "
            f"run on RISC-V targets")
    if op not in OPS:
        raise KernelError(
            f"unknown kernel op {op!r}; choose from {', '.join(OPS)}")

    resolved_quant = quant if quant is not None else spec.quant_for(bits)
    if op == "conv":
        kernel, cores = _select_conv(
            bits, spec, resolved_quant, cluster_fallback, kwargs)
    elif op == "matmul":
        kernel, cores = _select_matmul(
            bits, spec, resolved_quant, cluster_fallback, kwargs)
    else:
        kernel, cores = _select_layer(op, bits, spec, kwargs), 1
    return KernelSelection(op=op, bits=bits, spec=spec,
                           quant=resolved_quant, cores=cores, kernel=kernel)
