"""Kernel profiles and traces for ``repro profile`` / ``repro trace``.

The names are the suite points of the kernel matrix
(:mod:`repro.eval.matrix`): :func:`~repro.eval.matrix.resolve` maps a
name, core count and target to a point (or rejects it by name), and
:func:`~repro.eval.matrix.run` feeds its kernel the seeded tensors with
a region table or a tracer attached.  Conv kernels run at the benchmark
geometry, so the reported quantization share is the number Fig 6 plots;
MatMuls run at the scaling experiment's tile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.regions import RegionCounters
from .tracer import EventTracer


def kernel_catalog() -> List[Tuple[str, str]]:
    """``(name, description)`` for every profilable built-in kernel."""
    from ..eval.matrix import suite_points

    return [(p.suite_name, p.description) for p in suite_points()]


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
    #: The block engine's side-exit sites, summed over the cores
    #: (:func:`~repro.engine.engine.merge_side_exits`).
    side_exits: List[dict] = field(default_factory=list)

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
        text = header + "\n" + self.registry.render()
        if self.side_exits:
            from ..eval.reporting import format_table

            text += "\n\n" + format_table(
                ("pc", "region", "reason", "count", "instrs"),
                [(f"{site['pc']:#x}", site["region"], site["reason"],
                  site["count"], site["instructions"])
                 for site in self.side_exits],
                title="engine side exits (instrs: what the fallback "
                      "dispatches retired)")
        return text


def profile_kernel(name: str, cores: int = 1, geometry=None,
                   target=None) -> KernelProfile:
    """Run the named built-in kernel with a :class:`RegionCounters`
    profile attached (single-core runs stay on the block engine).

    *target* retargets the suite point to a registered target name
    (``repro targets``): the ISA, core count, and quantization capability
    come from the spec.  Without it, the point's own ISA runs, and
    *cores* > 1 shards the kernel on a cluster.  *geometry* replaces the
    point's (:func:`~repro.eval.matrix.suite_geometry`).
    """
    from ..engine.engine import merge_side_exits
    from ..eval.matrix import region_table, resolve, run as run_point

    point, geometry = resolve(name, cores, target, geometry)
    execution = run_point(point, geometry, region_table)
    sim, run = execution.sim, execution.result
    side_exits = merge_side_exits(
        cpu.engine_stats for cpu in getattr(sim, "cores", [sim]))
    detail: Dict[str, int] = {}
    if point.cores > 1:
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
        instructions=instructions, registry=execution.observer,
        cores=point.cores, detail=detail, side_exits=side_exits)


# ---------------------------------------------------------------------------
# Tracing (event timelines)
# ---------------------------------------------------------------------------

def trace_kernel(name: str, cores: int = 1, detail: str = "spans",
                 target=None) -> EventTracer:
    """Run the named built-in kernel under an :class:`EventTracer`.

    ``cores > 1`` (or a cluster *target*) shards the kernel over a
    cluster of that many cores (the 8-core timeline of the evaluation).
    """
    from ..eval.matrix import resolve, run

    point, geometry = resolve(name, cores, target)

    def attach(program, sim):
        tracer = EventTracer(program=program, detail=detail)
        if point.cores > 1:
            sim.attach_tracer(tracer)
        else:
            sim.tracer = tracer
        return tracer

    return run(point, geometry, attach).observer
