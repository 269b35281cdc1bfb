"""Machine factory: build a wired simulator from a target name.

``build_machine("xpulpnn")`` replaces the ad-hoc ``Cpu(...)`` /
``Cluster(...)`` construction that used to be copy-pasted at every call
site: the returned :class:`Machine` has its memory sized from the spec's
L2 budget, perf counters live (the core enables them on reset), and an
optional tracer attached the right way for the machine kind.

ARM targets are cost-model baselines — they have no instruction-level
simulator, so asking for a machine raises and :func:`arm_core` hands out
the CMSIS-NN cost core instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import TargetError
from .registry import get_target
from .spec import TargetSpec


@dataclass
class Machine:
    """A built simulator plus the spec that shaped it."""

    spec: TargetSpec
    #: Single-core machine (None for cluster targets).
    cpu: Optional[object] = None
    #: Multi-core cluster (None for single-core targets).
    cluster: Optional[object] = None
    #: Full PULPissimo SoC (only when requested via ``soc=True``).
    soc: Optional[object] = None

    @property
    def cores(self) -> int:
        return self.spec.cores

    def run_target(self):
        """The object kernels execute on (Cpu, Cluster, or SoC)."""
        return self.soc or self.cluster or self.cpu


def build_machine(target, mem_bytes: int = 0, tracer=None,
                  soc: bool = False) -> Machine:
    """Construct a correctly wired machine for *target*.

    *mem_bytes* is the working-set size a kernel needs; the flat memory
    is sized to ``spec.mem_bytes(mem_bytes)`` so layouts stay identical
    to the SoC's L2.  ``soc=True`` builds the full PULPissimo (single-core
    targets only).
    """
    spec = get_target(target)
    if not spec.riscv:
        raise TargetError(
            f"target {spec.name!r} is a cost-model baseline; it has no "
            f"instruction-level machine (use repro.target.arm_core)")
    if spec.cluster:
        if soc:
            raise TargetError(
                f"target {spec.name!r}: the cluster model has no SoC wrapper")
        from ..cluster import Cluster

        cluster = Cluster(num_cores=spec.cores, isa=spec.isa,
                          tcdm_size=spec.tcdm_bytes, l2_size=spec.l2_bytes)
        if tracer is not None:
            cluster.attach_tracer(tracer)
        return Machine(spec=spec, cluster=cluster)
    if soc:
        from ..soc import Pulpissimo

        machine = Pulpissimo(isa=spec.isa)
        if tracer is not None:
            machine.cpu.tracer = tracer
        return Machine(spec=spec, soc=machine, cpu=machine.cpu)
    from ..core import Cpu
    from ..soc.memory import Memory

    cpu = Cpu(isa=spec.isa, mem=Memory(spec.mem_bytes(mem_bytes)))
    if tracer is not None:
        cpu.tracer = tracer
    return Machine(spec=spec, cpu=cpu)


def arm_core(target):
    """The CMSIS-NN cost-model core behind an ARM baseline target."""
    spec = get_target(target)
    if spec.riscv:
        raise TargetError(
            f"target {spec.name!r} is a RISC-V target; build_machine it")
    from ..baselines.armv7em import CORES

    return CORES[spec.display]
