"""Kernel catalog for ``repro profile`` / ``repro trace``.

Builds a named built-in kernel (the configurations of the paper's Fig 6
sweep plus the standalone / cluster-parallel MatMuls), runs it on
deterministic tensors with a region profile or a tracer attached, and
returns the per-region metrics or the event trace.  Single-core kernels
run at the benchmark geometry (``REPRO_FULL=1`` switches to the paper's
exact layer), so the reported quantization share is the number Fig 6
plots; cluster traces use the scaling experiment's MatMul tile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..core.cpu import Cpu
from ..core.regions import RegionCounters
from ..errors import TraceError
from ..target.names import RI5CY, XPULPNN
from .tracer import EventTracer

_SEED = 2020  # DATE 2020 (matches the benchmark suite's data)

#: name -> (bits, isa, quant) for the convolution-layer kernels.
CONV_SPECS: Dict[str, Tuple[int, str, str]] = {
    "conv_8bit": (8, XPULPNN, "shift"),
    "conv_4bit": (4, XPULPNN, "hw"),
    "conv_2bit": (2, XPULPNN, "hw"),
    "conv_4bit_sw": (4, XPULPNN, "sw"),
    "conv_2bit_sw": (2, XPULPNN, "sw"),
    "conv_4bit_ri5cy": (4, RI5CY, "sw"),
    "conv_2bit_ri5cy": (2, RI5CY, "sw"),
}

#: name -> (bits, isa, quant) for the standalone MatMul microkernels
#: (the cluster-scaling tile: 64 filters over a 256-deep reduction).
MATMUL_SPECS: Dict[str, Tuple[int, str, str]] = {
    "matmul_8bit": (8, XPULPNN, "shift"),
    "matmul_4bit": (4, XPULPNN, "hw"),
    "matmul_2bit": (2, XPULPNN, "hw"),
}

MATMUL_OUT_CH = 64
MATMUL_REDUCTION = 256


def kernel_catalog() -> List[Tuple[str, str]]:
    """``(name, description)`` for every profilable built-in kernel."""
    entries = []
    for name, (bits, isa, quant) in CONV_SPECS.items():
        entries.append((
            name,
            f"conv layer, {bits}-bit on {isa} ({quant} quant), "
            f"benchmark geometry"))
    for name, (bits, isa, quant) in MATMUL_SPECS.items():
        entries.append((
            name,
            f"matmul tile {MATMUL_OUT_CH}x{MATMUL_REDUCTION}, {bits}-bit on "
            f"{isa} ({quant} quant); --cores N shards it on a cluster"))
    return entries


def _lookup(name: str) -> Tuple[str, Tuple[int, str, str]]:
    if name in CONV_SPECS:
        return "conv", CONV_SPECS[name]
    if name in MATMUL_SPECS:
        return "matmul", MATMUL_SPECS[name]
    known = ", ".join(sorted(CONV_SPECS) + sorted(MATMUL_SPECS))
    raise TraceError(f"unknown kernel {name!r}; choose from: {known}")


# ---------------------------------------------------------------------------
# Deterministic workloads (same idioms as the benchmark suite)
# ---------------------------------------------------------------------------

def _conv_workload(geometry, bits: int):
    from ..qnn import (
        conv2d_golden,
        random_activations,
        random_weights,
        thresholds_from_accumulators,
    )

    rng = np.random.default_rng(_SEED + bits)
    weights = random_weights(
        (geometry.out_ch, geometry.kh, geometry.kw, geometry.in_ch),
        bits, rng)
    acts = random_activations(
        (geometry.in_h, geometry.in_w, geometry.in_ch), bits, rng)
    thresholds = None
    if bits != 8:
        acc = conv2d_golden(acts, weights, stride=geometry.stride,
                            pad=geometry.pad)
        thresholds = thresholds_from_accumulators(acc, bits)
    return weights, acts, thresholds


def _matmul_workload(bits: int, out_ch: int, reduction: int):
    from ..qnn import random_threshold_table

    rng = np.random.default_rng(_SEED + bits)
    lo, hi = -(1 << (bits - 1)), 1 << (bits - 1)
    w = rng.integers(lo, hi, (out_ch, reduction)).astype(np.int32)
    x0 = rng.integers(0, 1 << bits, reduction).astype(np.int32)
    x1 = rng.integers(0, 1 << bits, reduction).astype(np.int32)
    thresholds = None
    if bits != 8:
        thresholds = random_threshold_table(out_ch, bits, spread=600, rng=rng)
    return w, x0, x1, thresholds


def _observe(sim, observer) -> None:
    """Attach a region profile or a tracer to a core or a cluster."""
    if isinstance(observer, RegionCounters):
        sim.regions = observer
    elif isinstance(sim, Cpu):
        sim.tracer = observer
    else:
        sim.attach_tracer(observer)


def _run_conv(name, spec, observer_factory, geometry=None):
    from ..eval.workloads import benchmark_geometry
    from ..kernels import ConvConfig, ConvKernel

    bits, isa, quant = spec
    geometry = geometry or benchmark_geometry()
    kernel = ConvKernel(ConvConfig(geometry=geometry, bits=bits, isa=isa,
                                   quant=quant))
    observer = observer_factory(kernel.program)
    weights, acts, thresholds = _conv_workload(geometry, bits)
    from ..soc.memmap import L2_SIZE
    from ..soc.memory import Memory

    needed = kernel.layout.end + 4096
    cpu = Cpu(isa=isa, mem=Memory(max(needed, L2_SIZE)))
    _observe(cpu, observer)
    if bits == 8:
        run = kernel.run(weights, acts, shift=8, cpu=cpu)
    else:
        run = kernel.run(weights, acts, thresholds=thresholds, cpu=cpu)
    return kernel, run, observer


def _run_matmul(name, spec, observer_factory):
    from ..kernels import MatmulConfig, MatmulKernel

    bits, isa, quant = spec
    kernel = MatmulKernel(MatmulConfig(
        reduction=MATMUL_REDUCTION, out_ch=MATMUL_OUT_CH, bits=bits,
        isa=isa, quant=quant))
    observer = observer_factory(kernel.program)
    w, x0, x1, thresholds = _matmul_workload(
        bits, MATMUL_OUT_CH, MATMUL_REDUCTION)
    cpu = Cpu(isa=isa)
    _observe(cpu, observer)
    if quant == "shift":
        run = kernel.run(w, x0, x1, shift=8, cpu=cpu)
    else:
        run = kernel.run(w, x0, x1, thresholds=thresholds, cpu=cpu)
    return kernel, run, observer


def _retarget(kind, spec, target):
    """Re-resolve a catalog entry's (bits, isa, quant) for a target.

    The catalog names fix *what* runs (bits + quantization ablation);
    the target decides *where*: the ISA config comes from the spec and
    hardware quantization degrades to the software staircase on cores
    without ``pv.qnt``.
    """
    from ..target import get_target

    tspec = get_target(target)
    if not tspec.riscv:
        raise TraceError(
            f"target {tspec.name!r} is a cost-model baseline; built-in "
            f"kernels profile on RISC-V targets only")
    bits, _, quant = spec
    if quant == "hw" and not tspec.hw_quant:
        quant = "sw"
    return (bits, tspec.isa, quant), tspec


def _run_cluster_conv(name, spec, observer_factory, cores: int,
                      geometry=None):
    from ..cluster import Cluster
    from ..eval.workloads import benchmark_geometry
    from ..kernels import ParallelConvConfig, ParallelConvKernel

    bits, isa, quant = spec
    geometry = geometry or benchmark_geometry()
    kernel = ParallelConvKernel(ParallelConvConfig(
        geometry=geometry, bits=bits, isa=isa, quant=quant,
        num_cores=cores))
    observer = observer_factory(kernel.program)
    weights, acts, thresholds = _conv_workload(geometry, bits)
    cluster = Cluster(num_cores=cores, isa=isa)
    _observe(cluster, observer)
    if bits == 8:
        run = kernel.run(weights, acts, shift=8, cluster=cluster)
    else:
        run = kernel.run(weights, acts, thresholds=thresholds,
                         cluster=cluster)
    return kernel, run, observer


def _run_cluster_matmul(name, spec, observer_factory, cores: int):
    from ..cluster import Cluster
    from ..kernels import ParallelMatmulConfig, ParallelMatmulKernel

    bits, isa, quant = spec
    kernel = ParallelMatmulKernel(ParallelMatmulConfig(
        reduction=MATMUL_REDUCTION, out_ch=MATMUL_OUT_CH, bits=bits,
        num_cores=cores, isa=isa, quant=quant))
    observer = observer_factory(kernel.program)
    w, x0, x1, thresholds = _matmul_workload(
        bits, MATMUL_OUT_CH, MATMUL_REDUCTION)
    cluster = Cluster(num_cores=cores, isa=isa)
    _observe(cluster, observer)
    if quant == "shift":
        run = kernel.run(w, x0, x1, shift=8, cluster=cluster)
    else:
        run = kernel.run(w, x0, x1, thresholds=thresholds, cluster=cluster)
    return kernel, run, observer


# ---------------------------------------------------------------------------
# Profiling (per-region metrics)
# ---------------------------------------------------------------------------

@dataclass
class KernelProfile:
    """Per-region cycle attribution of one kernel execution."""

    name: str
    description: str
    cycles: int
    instructions: int
    registry: RegionCounters
    cores: int = 1
    detail: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def region_share(self, region: str) -> float:
        return self.registry.share(region)

    def to_dict(self) -> dict:
        return {
            "kernel": self.name,
            "description": self.description,
            "cores": self.cores,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "regions": self.registry.to_dict(),
            "detail": dict(self.detail),
        }

    def render(self) -> str:
        header = (
            f"{self.name}: {self.description}\n"
            f"cycles {self.cycles:,}  instructions {self.instructions:,}  "
            f"IPC {self.ipc:.3f}"
            + (f"  cores {self.cores}" if self.cores > 1 else "")
        )
        return header + "\n" + self.registry.render()


def profile_kernel(name: str, cores: int = 1, geometry=None,
                   target=None) -> KernelProfile:
    """Run the named built-in kernel with a :class:`RegionCounters`
    profile attached (single-core runs stay on the block engine).

    *target* retargets the catalog entry to a registered target name
    (``repro targets``): the ISA, core count, and quantization capability
    come from the spec.  Without it, the catalog's own ISA runs, and
    *cores* > 1 shards matmul kernels on a cluster.
    """
    kind, spec = _lookup(name)
    description = dict(kernel_catalog())[name]
    if target is not None:
        spec, tspec = _retarget(kind, spec, target)
        if tspec.cluster:
            cores = tspec.cores

    factory = RegionCounters
    detail: Dict[str, int] = {}
    if cores > 1:
        if kind == "conv":
            _, run, regions = _run_cluster_conv(
                name, spec, factory, cores, geometry=geometry)
        else:
            _, run, regions = _run_cluster_matmul(name, spec, factory, cores)
        cycles = run.cycles
        instructions = run.run.aggregate.instructions
        detail = {
            "tcdm_conflicts": run.run.tcdm_conflicts,
            "dma_in_cycles": run.dma_in_cycles,
            "dma_out_cycles": run.dma_out_cycles,
        }
    elif kind == "conv":
        _, run, regions = _run_conv(name, spec, factory, geometry=geometry)
        cycles = run.perf.cycles
        instructions = run.perf.instructions
    else:
        _, run, regions = _run_matmul(name, spec, factory)
        cycles = run.perf.cycles
        instructions = run.perf.instructions
    return KernelProfile(
        name=name, description=description, cycles=cycles,
        instructions=instructions, registry=regions,
        cores=cores, detail=detail)


# ---------------------------------------------------------------------------
# Tracing (event timelines)
# ---------------------------------------------------------------------------

def trace_kernel(name: str, cores: int = 1, detail: str = "spans",
                 target=None) -> EventTracer:
    """Run the named built-in kernel under an :class:`EventTracer`.

    ``cores > 1`` (or a cluster *target*) shards the kernel over a
    cluster of that many cores (the 8-core timeline of the evaluation).
    """
    kind, spec = _lookup(name)
    if target is not None:
        spec, tspec = _retarget(kind, spec, target)
        if tspec.cluster:
            cores = tspec.cores

    def factory(program):
        return EventTracer(program=program, detail=detail)

    if cores > 1:
        if kind == "conv":
            _, _, tracer = _run_cluster_conv(name, spec, factory, cores)
        else:
            _, _, tracer = _run_cluster_matmul(name, spec, factory, cores)
    elif kind == "conv":
        _, _, tracer = _run_conv(name, spec, factory)
    else:
        _, _, tracer = _run_matmul(name, spec, factory)
    return tracer
