"""A region profile is complete after every retire, not only when a run
returns: each retire path charges its region as it charges the core, so
a table read mid-run (a core stepped by hand, a cluster run stopped at a
barrier) already sums to the cores' own counters."""

import pytest

from repro.asm import assemble
from repro.cluster import Cluster
from repro.core import Cpu, PerfCounters
from repro.soc.memmap import EU_BARRIER_WAIT, TCDM_BASE
from repro.trace import RegionCounters, Tracer

#: Three regions; the loop's load feeds the next instruction (a load-use
#: stall) and its back-edge branch is taken twice; the tail's hardware
#: loop takes one back-edge.
STEPPED = """
.region setup
    li   a0, 0x2000
    li   t0, 3
    li   a1, 0
.endregion
.region body
loop:
    lw   t1, 0(a0)
    add  a1, a1, t1
    addi a0, a0, 4
    addi t0, t0, -1
    bnez t0, loop
.endregion
.region tail
    lp.setupi 0, 2, end0
    slli a1, a1, 1
end0:
    ebreak
.endregion
"""

BARRIER = f"""
.region work
    csrr t0, 0xF14
    slli t1, t0, 2
    li   t2, {TCDM_BASE + 0x400:#x}
    add  t2, t2, t1
    addi t3, t0, 1
spin:
    addi t3, t3, -1
    bnez t3, spin
    sw   t0, 0(t2)
.endregion
.region sync
    li   t4, {EU_BARRIER_WAIT:#x}
    lw   t5, 0(t4)
.endregion
.region after
    addi t6, t0, 1
    ebreak
.endregion
"""


def _merged(cores) -> PerfCounters:
    total = PerfCounters()
    for cpu in cores:
        total.merge(cpu.perf)
    return total


def test_every_interpreter_step_charges_its_region():
    program = assemble(STEPPED, isa="xpulpnn")
    cpu = Cpu(isa="xpulpnn", engine="interp")
    cpu.load_program(program)
    cpu.mem.write_words(0x2000, [5, 6, 7])
    regions = cpu.regions = RegionCounters(program=program)
    steps = 0
    while cpu.halted is None:
        cpu.step()
        steps += 1
        assert regions.total().snapshot() == cpu.perf.snapshot(), steps
    assert regions.regions == ["setup", "body", "tail"]
    assert cpu.perf.stall_load_use and cpu.perf.stall_branch
    assert regions["tail"].hwloop_backedges == 1
    assert regions["body"].stall_load_use == cpu.perf.stall_load_use


def test_a_table_attached_between_runs_is_charged_by_the_next():
    program = assemble(STEPPED, isa="xpulpnn")
    cpu = Cpu(isa="xpulpnn", engine="interp")
    first = cpu.regions = RegionCounters()
    cpu.run_program(program)
    second = cpu.regions = RegionCounters()
    cpu.run_program(program)
    assert second.total().snapshot() == cpu.perf.snapshot()
    assert first.total().snapshot() == cpu.perf.snapshot()


class _Stop(Exception):
    pass


class _CheckEveryRetire(Tracer):
    """After every retire the shared table sums to the cores' counters;
    the run stops at the first barrier release."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.retires = 0

    def on_retire(self, cpu, pc, ins, timing) -> None:
        self.retires += 1
        assert (self.cluster.regions.total().snapshot()
                == _merged(self.cluster.cores).snapshot()), self.retires

    def on_barrier(self, core, arrive, release) -> None:
        raise _Stop


def test_cluster_scheduler_charges_regions_up_to_a_barrier():
    program = assemble(BARRIER, isa="xpulpnn", base=TCDM_BASE)
    cluster = Cluster(num_cores=4, isa="xpulpnn")
    cluster.regions = RegionCounters(program=program)
    tracer = cluster.attach_tracer(_CheckEveryRetire(cluster))
    with pytest.raises(_Stop):
        cluster.run_program(program)
    regions = cluster.regions
    assert regions.total().snapshot() == _merged(cluster.cores).snapshot()
    assert regions["barrier"].idle_cycles == _merged(
        cluster.cores).idle_cycles > 0
    assert "after" not in regions and tracer.retires
