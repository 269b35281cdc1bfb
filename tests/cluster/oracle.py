"""Reference stepper for the cluster scheduler, and the parity harness.

:func:`min_clock_run` is the cluster's original scheduler, kept verbatim
as the test oracle: on every retired instruction it rebuilds the list of
runnable cores and steps the one with the smallest ``(clock, core id)``.
:meth:`Cluster.run` replays epochs from per-core engine runs, or orders
only the shared accesses that way and lets private instructions run
ahead, so either way it must reach exactly the state this stepper
reaches.  :func:`run_both` checks that on one program.
"""

import dataclasses

from repro.cluster import Cluster
from repro.cluster.cluster import ClusterRun
from repro.core import RegionCounters
from repro.errors import SimError


def min_clock_run(self, entry=None, max_instructions=200_000_000):
    """The one-instruction-at-a-time min-clock scheduler (an unbound
    replacement for :meth:`Cluster.run`)."""
    cores = self.cores
    eu = self.event_unit
    if entry is not None:
        for cpu in cores:
            cpu.pc = entry
    parked: set = set()
    executed = 0

    while True:
        runnable = [
            cpu for i, cpu in enumerate(cores)
            if cpu.halted is None and i not in parked
        ]
        if not runnable:
            if all(cpu.halted is not None for cpu in cores):
                break
            raise SimError(
                f"cluster deadlock: cores {sorted(parked)} parked at a "
                f"barrier that can no longer complete"
            )
        cpu = min(runnable, key=lambda c: c.perf.cycles)
        cpu.step()
        executed += 1
        if executed > max_instructions:
            raise SimError(
                f"cluster exceeded {max_instructions} instructions "
                f"(likely a spin without progress)"
            )
        arrived = eu.take_pending_arrival()
        if arrived is not None:
            complete = eu.arrive(arrived, cores[arrived].perf.cycles)
            parked.add(arrived)
            if complete:
                release = eu.release_time
                released = eu.release()
                for core_id, when in released.items():
                    core = cores[core_id]
                    perf = core.perf
                    # Parked time belongs to the barrier, not to the
                    # region the core arrived from.
                    perf.idle_cycles += release - when
                    perf.cycles = release
                    if core.regions is not None:
                        barrier = core.regions.counters_for("barrier")
                        barrier.cycles += release - when
                        barrier.idle_cycles += release - when
                if self.tracer is not None:
                    for core_id, when in sorted(released.items()):
                        self.tracer.on_barrier(core_id, when, release)
                parked.clear()

    if self.tracer is not None:
        for cpu in cores:
            self.tracer.on_halt(cpu)

    return ClusterRun(
        per_core=[cpu.perf.copy() for cpu in self.cores],
        barriers=eu.barriers_completed,
        tcdm_accesses=self.tcdm.accesses,
        tcdm_conflicts=self.tcdm.conflicts,
        tcdm_conflict_cycles=self.tcdm.conflict_cycles,
        dma_cycles=self.dma.total_cycles,
        dma_bytes=self.dma.bytes_moved,
    )


def cluster_state(cluster, run, error):
    """Everything a cluster run can leave behind, as comparable data."""
    regions = cluster.regions
    return {
        "error": error,
        # ``detail`` says which execution path ran, not what it computed:
        # it is kept apart and not compared.
        "run": None if run is None else {
            k: v for k, v in dataclasses.asdict(run).items() if k != "detail"},
        "detail": None if run is None else dict(run.detail),
        "cores": [
            (cpu.halted, cpu.pc, list(cpu.regs), cpu.perf.to_dict(),
             cpu._pending_load_rd)
            for cpu in cluster.cores
        ],
        # The order the energy model sums each core's timing classes in.
        "class_order": [list(cpu.perf.by_class) for cpu in cluster.cores],
        "barriers": cluster.event_unit.barriers_completed,
        "conflicts_by_bank": list(cluster.tcdm.conflicts_by_bank),
        "accesses": (None if cluster.access_trace is None
                     else list(cluster.access_trace.accesses)),
        "dma": [(t.desc, t.start, t.done) for t in cluster.dma.transfers],
        "regions": None if regions is None else [
            (name, regions[name].to_dict()) for name in regions.regions],
        "tcdm": bytes(cluster.tcdm.mem._data),
        "l2": bytes(cluster.l2._data),
    }


def run_one(program, scheduler, *, num_cores, setup, max_instructions,
            profile, race_trace=True):
    """Run *program* on a fresh cluster under *scheduler*; return its
    :func:`cluster_state`.  *race_trace* attaches the race recorder, so
    its access list is compared too, but a :meth:`Cluster.run` with it
    attached never replays."""
    cluster = Cluster(num_cores=num_cores)
    if race_trace:
        cluster.enable_access_trace()
    if profile:
        cluster.regions = RegionCounters(program=program)
    if setup is not None:
        setup(cluster)
    cluster.reset()
    cluster.load_program(program)
    run = error = None
    try:
        run = scheduler(cluster, entry=program.entry,
                        max_instructions=max_instructions)
    except Exception as exc:                      # noqa: BLE001 - compared
        error = (type(exc).__name__, str(exc))
    return cluster_state(cluster, run, error)


def run_both(program, *, num_cores=4, setup=None, max_instructions=100_000,
             profile=False, race_trace=True):
    """Run *program* on two fresh clusters, one under :meth:`Cluster.run`
    and one under :func:`min_clock_run`; assert every piece of state
    but ``detail`` matches and return :meth:`Cluster.run`'s."""
    kw = dict(num_cores=num_cores, setup=setup,
              max_instructions=max_instructions, profile=profile,
              race_trace=race_trace)
    got = run_one(program, Cluster.run, **kw)
    want = run_one(program, min_clock_run, **kw)
    for key in want:
        if key == "detail":
            continue
        assert got[key] == want[key], (
            f"schedulers diverged on {key}: event-driven={got[key]!r} "
            f"min-clock={want[key]!r}")
    return got
