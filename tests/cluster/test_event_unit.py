"""Event-unit barrier: correctness under every arrival order."""

import itertools

import pytest

from repro.cluster import Cluster, EventUnit
from repro.errors import SimError
from repro.soc.memmap import EU_BARRIER_COUNT, EU_BARRIER_WAIT, EU_NUM_CORES


class TestEventUnitBookkeeping:
    def test_all_arrival_orders_release_at_max(self):
        for order in itertools.permutations(range(3)):
            eu = EventUnit(3)
            times = {0: 100, 1: 250, 2: 170}
            complete = []
            for core in order:
                complete.append(eu.arrive(core, times[core]))
            assert complete == [False, False, True]
            assert eu.release_time == 250
            assert eu.release() == times
            assert eu.barriers_completed == 1

    def test_double_arrival_rejected(self):
        eu = EventUnit(2)
        eu.arrive(0, 10)
        with pytest.raises(SimError):
            eu.arrive(0, 11)

    def test_early_release_rejected(self):
        eu = EventUnit(2)
        eu.arrive(0, 10)
        with pytest.raises(SimError):
            eu.release()

    def test_reusable_after_release(self):
        eu = EventUnit(2)
        eu.arrive(0, 1)
        eu.arrive(1, 2)
        eu.release()
        assert eu.arrive(1, 5) is False
        assert eu.arrive(0, 9) is True
        assert eu.release_time == 9
        eu.release()
        assert eu.barriers_completed == 2

    def test_reset_forgets_arrivals_and_count(self):
        eu = EventUnit(2)
        eu.arrive(0, 1)
        eu.arrive(1, 2)
        eu.release()
        eu.arrive(0, 5)
        eu.signal_arrival(1)
        eu.reset()
        assert eu.barriers_completed == 0
        assert eu.waiting == []
        assert eu.pending_arrival is None
        assert eu.arrive(1, 7) is False


#: SPMD program: each core spins ``hart_id * 16`` iterations, hits the
#: barrier, then reads the cycle counter's stand-in (its own clock jump is
#: visible through idle_cycles instead).
_BARRIER_PROGRAM = f"""
    csrr  t0, 0xF14
    slli  t0, t0, 4
    beq   t0, zero, wait
spin:
    addi  t0, t0, -1
    bne   t0, zero, spin
wait:
    li    t1, {EU_BARRIER_WAIT:#x}
    lw    t2, 0(t1)
    ebreak
"""


class TestBarrierOnCluster:
    @pytest.mark.parametrize("num_cores", [2, 4, 8])
    def test_release_aligns_all_clocks(self, num_cores):
        from repro.asm import assemble

        cluster = Cluster(num_cores=num_cores)
        program = assemble(_BARRIER_PROGRAM, isa="xpulpnn", base=0x1000_0000)
        run = cluster.run_program(program)
        assert run.barriers == 1
        # All cores halt within a few cycles of each other: the barrier
        # jumped every clock to the slowest arrival.
        clocks = [p.cycles for p in run.per_core]
        assert max(clocks) - min(clocks) <= 4  # post-barrier skew only
        # Cores that spun less idled more; the busiest core idles least.
        idles = [p.idle_cycles for p in run.per_core]
        assert idles[0] == max(idles)
        assert idles[-1] == min(idles)
        assert all(p.active_cycles + p.idle_cycles == p.cycles
                   for p in run.per_core)

    def test_deadlock_detected(self):
        from repro.asm import assemble

        # Core 0 barriers; core 1 halts without arriving.
        src = f"""
            csrr  t0, 0xF14
            bne   t0, zero, out
            li    t1, {EU_BARRIER_WAIT:#x}
            lw    t2, 0(t1)
        out:
            ebreak
        """
        cluster = Cluster(num_cores=2)
        program = assemble(src, isa="xpulpnn", base=0x1000_0000)
        with pytest.raises(SimError, match="deadlock"):
            cluster.run_program(program)

    def test_num_cores_register(self):
        from repro.asm import assemble

        src = f"""
            li   t0, {EU_NUM_CORES:#x}
            lw   a0, 0(t0)
            ebreak
        """
        cluster = Cluster(num_cores=4)
        cluster.run_program(assemble(src, isa="xpulpnn", base=0x1000_0000))
        assert all(cpu.regs[10] == 4 for cpu in cluster.cores)


class TestReusedCluster:
    """``Cluster.reset`` restarts the event unit with the cores."""

    def test_barrier_count_restarts(self):
        from repro.asm import assemble

        src = _BARRIER_PROGRAM.replace("    ebreak", f"""
    li    t1, {EU_BARRIER_COUNT:#x}
    lw    a0, 0(t1)
    ebreak""")
        program = assemble(src, isa="xpulpnn", base=0x1000_0000)
        cluster = Cluster(num_cores=4)
        for _ in range(2):
            run = cluster.run_program(program)
            assert run.barriers == 1
            assert [cpu.regs[10] for cpu in cluster.cores] == [1] * 4

    def test_raised_run_leaves_no_stale_arrival(self):
        from repro.asm import assemble

        # Core 0 arrives at a barrier core 1 never reaches.
        src = f"""
            csrr  t0, 0xF14
            bne   t0, zero, out
            li    t1, {EU_BARRIER_WAIT:#x}
            lw    t2, 0(t1)
        out:
            ebreak
        """
        cluster = Cluster(num_cores=2)
        with pytest.raises(SimError, match="deadlock"):
            cluster.run_program(assemble(src, isa="xpulpnn",
                                         base=0x1000_0000))
        program = assemble(_BARRIER_PROGRAM, isa="xpulpnn", base=0x1000_0000)
        run = cluster.run_program(program)
        assert run.barriers == 1
        assert run.cycles == Cluster(num_cores=2).run_program(program).cycles
