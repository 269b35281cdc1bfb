"""Kernel catalog for ``repro profile`` / ``repro trace``.

Each named built-in kernel (the configurations of the paper's Fig 6
sweep plus the standalone / cluster-parallel MatMuls) goes through one
path: :func:`resolve_kernel` maps the name, core count and target to
``(kind, (bits, isa, quant), cores)``, :func:`build_kernel` constructs
the kernel, and one runner feeds it the benchmark suite's seeded tensors
with a region profile or a tracer attached.  The serve layer keys its
``profile`` jobs on ``build_kernel(...).program``, so the cached program
is the one that ran.  Single-core conv kernels run at the benchmark
geometry (``REPRO_FULL=1`` switches to the paper's exact layer), so the
reported quantization share is the number Fig 6 plots; MatMuls use the
scaling experiment's tile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

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


def resolve_kernel(name: str, cores: int = 1,
                   target=None) -> Tuple[str, Tuple[int, str, str], int]:
    """``(kind, (bits, isa, quant), cores)`` the named kernel runs as.

    The catalog names fix *what* runs (bits + quantization ablation);
    *target* decides *where*: the ISA comes from the spec, hardware
    quantization degrades to the software staircase on cores without
    ``pv.qnt``, and a cluster target's core count replaces *cores*.
    """
    if name in CONV_SPECS:
        kind, spec = "conv", CONV_SPECS[name]
    elif name in MATMUL_SPECS:
        kind, spec = "matmul", MATMUL_SPECS[name]
    else:
        known = ", ".join(sorted(CONV_SPECS) + sorted(MATMUL_SPECS))
        raise TraceError(f"unknown kernel {name!r}; choose from: {known}")
    if target is not None:
        from ..target import get_target

        tspec = get_target(target)
        if not tspec.riscv:
            raise TraceError(
                f"target {tspec.name!r} is a cost-model baseline; built-in "
                f"kernels profile on RISC-V targets only")
        bits, _, quant = spec
        if quant == "hw" and not tspec.hw_quant:
            quant = "sw"
        spec = (bits, tspec.isa, quant)
        if tspec.cluster:
            cores = tspec.cores
    return kind, spec, cores


def build_kernel(kind: str, spec: Tuple[int, str, str], cores: int,
                 geometry=None):
    """The kernel a resolved catalog entry runs: conv layers at *geometry*
    (default: the benchmark geometry; one core runs the suite's kernel),
    MatMuls at the scaling tile, both sharded over a cluster when *cores*
    > 1."""
    from ..kernels import (
        MatmulConfig,
        MatmulKernel,
        ParallelConvConfig,
        ParallelConvKernel,
        ParallelMatmulConfig,
        ParallelMatmulKernel,
    )

    bits, isa, quant = spec
    if kind == "conv":
        from ..eval.workloads import benchmark_geometry, suite_kernel

        geometry = geometry or benchmark_geometry()
        if cores > 1:
            return ParallelConvKernel(ParallelConvConfig(
                geometry=geometry, bits=bits, isa=isa, quant=quant,
                num_cores=cores))
        return suite_kernel(geometry, bits, isa, quant)
    if cores > 1:
        return ParallelMatmulKernel(ParallelMatmulConfig(
            reduction=MATMUL_REDUCTION, out_ch=MATMUL_OUT_CH, bits=bits,
            num_cores=cores, isa=isa, quant=quant))
    return MatmulKernel(MatmulConfig(
        reduction=MATMUL_REDUCTION, out_ch=MATMUL_OUT_CH, bits=bits,
        isa=isa, quant=quant))


def _run_kernel(name: str, cores: int, target, observer_factory,
                geometry=None):
    """Run a catalog kernel on its seeded tensors with the observer
    ``observer_factory(program)`` attached to the core or cluster.

    Returns ``(cores, run, observer)``.
    """
    kind, spec, cores = resolve_kernel(name, cores, target)
    bits, isa, _ = spec
    kernel = build_kernel(kind, spec, cores, geometry)
    observer = observer_factory(kernel.program)
    if kind == "conv":
        from ..eval.workloads import conv_workload

        weights, acts, _, thresholds = conv_workload(
            kernel.config.geometry, bits)
        operands = (weights, acts)
    else:
        from ..eval.cluster_scaling import matmul_workload

        *operands, thresholds = matmul_workload(
            bits, MATMUL_OUT_CH, MATMUL_REDUCTION, _SEED + bits)
    if cores > 1:
        from ..cluster import Cluster

        sim, sim_arg = Cluster(num_cores=cores, isa=isa), "cluster"
    elif kind == "conv":
        from ..soc.memmap import L2_SIZE
        from ..soc.memory import Memory

        needed = kernel.layout.end + 4096
        sim, sim_arg = Cpu(isa=isa, mem=Memory(max(needed, L2_SIZE))), "cpu"
    else:
        sim, sim_arg = Cpu(isa=isa), "cpu"
    if isinstance(observer, RegionCounters):
        sim.regions = observer
    elif cores > 1:
        sim.attach_tracer(observer)
    else:
        sim.tracer = observer
    run = kernel.run(*operands, thresholds=thresholds, shift=8,
                     **{sim_arg: sim})
    return cores, run, observer


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
    *cores* > 1 shards the kernel on a cluster.
    """
    cores, run, regions = _run_kernel(name, cores, target, RegionCounters,
                                      geometry)
    detail: Dict[str, int] = {}
    if cores > 1:
        cycles = run.cycles
        instructions = run.run.aggregate.instructions
        detail = {
            "tcdm_conflicts": run.run.tcdm_conflicts,
            "dma_in_cycles": run.dma_in_cycles,
            "dma_out_cycles": run.dma_out_cycles,
        }
    else:
        cycles = run.perf.cycles
        instructions = run.perf.instructions
    return KernelProfile(
        name=name, description=dict(kernel_catalog())[name], cycles=cycles,
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
    def factory(program):
        return EventTracer(program=program, detail=detail)

    return _run_kernel(name, cores, target, factory)[2]
