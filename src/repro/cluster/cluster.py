"""The PULP cluster: N RI5CY+XpulpNN cores on a shared banked L1.

Execution is a discrete-event interleaving of the per-core ISS models:
each core keeps its own cycle clock (its ``perf.cycles``), and the
scheduler always steps the runnable core with the smallest clock, so
shared-resource arbitration (TCDM banks, the DMA port) sees accesses in
global time order.  Three cluster-only effects feed back into the clocks:

* **TCDM bank conflicts** — a load/store to a bank granted to an earlier
  access stalls until the bank frees (``stall_tcdm_contention``);
* **barriers** — a core reading ``EU_BARRIER_WAIT`` parks; when the last
  core arrives, every waiter's clock jumps to the release time and the
  waited span lands in ``idle_cycles``;
* **DMA completion** — ``DMA_STATUS`` polls resolve against the engine's
  busy horizon at the polling core's local time.

Cores address the shared memory through per-core ports
(:class:`CoreMemPort`); the untimed decoder (:class:`ClusterMemory`)
also backs host-side tensor staging and the DMA's functional copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.cpu import Cpu
from ..core.perf import PerfCounters
from ..core.timing import TimingParams
from ..errors import MemoryAccessError, SimError
from ..soc.memmap import (
    CLUSTER_PERIPH_BASE,
    CLUSTER_PERIPH_SIZE,
    DMA_BASE,
    EU_BARRIER_COUNT,
    EU_BARRIER_WAIT,
    EU_NUM_CORES,
    L2_BASE,
    L2_SIZE,
    TCDM_SIZE,
)
from ..soc.memory import Memory
from ..target.names import XPULPNN
from .dma import ClusterDma
from .event_unit import EventUnit
from .tcdm import Tcdm

#: PULP's usual TCDM banking factor: banks = factor x cores.
DEFAULT_BANKING_FACTOR = 2


@dataclass
class ClusterConfig:
    """Shape of the modeled cluster."""

    num_cores: int = 8
    isa: str = XPULPNN
    banking_factor: int = DEFAULT_BANKING_FACTOR
    tcdm_size: int = TCDM_SIZE
    l2_size: int = L2_SIZE
    timing: Optional[TimingParams] = None

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise SimError("a cluster needs at least one core")
        if self.banking_factor < 1:
            raise SimError("banking factor must be >= 1")

    @property
    def num_banks(self) -> int:
        return self.num_cores * self.banking_factor


class ClusterMemory:
    """Untimed address decoder over TCDM + L2 (host and DMA view)."""

    def __init__(self, tcdm: Tcdm, l2: Memory) -> None:
        self.tcdm = tcdm
        self.l2 = l2

    def _region(self, addr: int, length: int) -> Memory:
        if self.tcdm.contains(addr, length):
            return self.tcdm.mem
        if self.l2.contains(addr, length):
            return self.l2
        raise MemoryAccessError(
            f"cluster: access of {length} B at {addr:#010x} maps to neither "
            f"TCDM nor L2"
        )

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        return self._region(addr, size).load(addr, size, signed)

    def store(self, addr: int, size: int, value: int) -> None:
        self._region(addr, size).store(addr, size, value)

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._region(addr, len(data)).write_bytes(addr, data)

    def read_bytes(self, addr: int, length: int) -> bytes:
        return self._region(addr, length).read_bytes(addr, length)

    def write_words(self, addr: int, words) -> None:
        self._region(addr, 4).write_words(addr, words)

    def read_words(self, addr: int, count: int):
        return self._region(addr, 4).read_words(addr, count)

    def write_i16(self, addr: int, values) -> None:
        self._region(addr, 2).write_i16(addr, values)

    def read_i16(self, addr: int, count: int):
        return self._region(addr, 2).read_i16(addr, count)

    def write_i8(self, addr: int, values) -> None:
        self._region(addr, 1).write_i8(addr, values)

    def read_i8(self, addr: int, count: int):
        return self._region(addr, 1).read_i8(addr, count)


class CoreMemPort:
    """One core's timed window onto the cluster memory system.

    Implements the :class:`~repro.soc.memory.Memory` protocol the CPU
    model expects; TCDM accesses arbitrate for banks, cluster-peripheral
    accesses hit the event unit / DMA register files, everything else
    falls through to the untimed decoder.
    """

    def __init__(self, cluster: "Cluster", core_id: int) -> None:
        self._cluster = cluster
        self._core_id = core_id
        self.cpu: Optional[Cpu] = None  # wired by the Cluster constructor

    # -- timed accesses (instruction semantics) -------------------------

    def _now(self) -> int:
        return self.cpu.perf.cycles

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        cl = self._cluster
        if cl.tcdm.contains(addr, size):
            stall, _ = cl.tcdm.access(addr, self._now())
            if stall:
                self.cpu.add_tcdm_stall(stall)
            if cl.access_trace is not None:
                cl.access_trace.record(
                    self._core_id, addr, size, "r",
                    cl.event_unit.barriers_completed, pc=self.cpu.pc)
            if cl.mem_tracer is not None:
                cl.mem_tracer.on_mem(
                    self._core_id, self._now(), addr, size, "r",
                    cl.tcdm.bank_of(addr), stall)
            return cl.tcdm.mem.load(addr, size, signed)
        if CLUSTER_PERIPH_BASE <= addr < CLUSTER_PERIPH_BASE + CLUSTER_PERIPH_SIZE:
            return self._periph_load(addr)
        return cl.raw.load(addr, size, signed)

    def store(self, addr: int, size: int, value: int) -> None:
        cl = self._cluster
        if cl.tcdm.contains(addr, size):
            stall, _ = cl.tcdm.access(addr, self._now())
            if stall:
                self.cpu.add_tcdm_stall(stall)
            if cl.access_trace is not None:
                cl.access_trace.record(
                    self._core_id, addr, size, "w",
                    cl.event_unit.barriers_completed, pc=self.cpu.pc)
            if cl.mem_tracer is not None:
                cl.mem_tracer.on_mem(
                    self._core_id, self._now(), addr, size, "w",
                    cl.tcdm.bank_of(addr), stall)
            cl.tcdm.mem.store(addr, size, value)
            return
        if CLUSTER_PERIPH_BASE <= addr < CLUSTER_PERIPH_BASE + CLUSTER_PERIPH_SIZE:
            self._periph_store(addr, value)
            return
        cl.raw.store(addr, size, value)

    def _periph_load(self, addr: int) -> int:
        cl = self._cluster
        if addr == EU_NUM_CORES:
            return cl.config.num_cores
        if addr == EU_BARRIER_WAIT:
            cl.event_unit.signal_arrival(self._core_id)
            return 0
        if addr == EU_BARRIER_COUNT:
            return cl.event_unit.barriers_completed
        if DMA_BASE <= addr < DMA_BASE + 0x20:
            return cl.dma.reg_load(addr - DMA_BASE, self._now())
        return 0

    def _periph_store(self, addr: int, value: int) -> None:
        cl = self._cluster
        if DMA_BASE <= addr < DMA_BASE + 0x20:
            cl.dma.reg_store(addr - DMA_BASE, value & 0xFFFF_FFFF, self._now())

    # -- untimed bulk helpers (harness side) -----------------------------

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._cluster.raw.write_bytes(addr, data)

    def read_bytes(self, addr: int, length: int) -> bytes:
        return self._cluster.raw.read_bytes(addr, length)

    def write_words(self, addr: int, words) -> None:
        self._cluster.raw.write_words(addr, words)

    def read_words(self, addr: int, count: int):
        return self._cluster.raw.read_words(addr, count)

    def write_i16(self, addr: int, values) -> None:
        self._cluster.raw.write_i16(addr, values)

    def read_i16(self, addr: int, count: int):
        return self._cluster.raw.read_i16(addr, count)

    def write_i8(self, addr: int, values) -> None:
        self._cluster.raw.write_i8(addr, values)

    def read_i8(self, addr: int, count: int):
        return self._cluster.raw.read_i8(addr, count)


@dataclass
class ClusterRun:
    """Outcome of one cluster execution."""

    per_core: List[PerfCounters]
    barriers: int
    tcdm_accesses: int
    tcdm_conflicts: int
    tcdm_conflict_cycles: int
    dma_cycles: int = 0
    dma_bytes: int = 0
    detail: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        """Wall-clock cycles: the slowest core's clock."""
        return max(p.cycles for p in self.per_core)

    @property
    def aggregate(self) -> PerfCounters:
        """All cores' counters merged (total activity, not wall-clock)."""
        total = PerfCounters()
        for perf in self.per_core:
            total.merge(perf)
        return total

    @property
    def contention_share(self) -> float:
        """TCDM-contention stalls as a share of total core-cycles."""
        agg = self.aggregate
        return agg.stall_tcdm_contention / agg.cycles if agg.cycles else 0.0


class Cluster:
    """N cores + banked TCDM + event unit + DMA, stepped to completion."""

    def __init__(self, config: Optional[ClusterConfig] = None, **kwargs) -> None:
        self.config = config or ClusterConfig(**kwargs)
        cfg = self.config
        self.tcdm = Tcdm(size=cfg.tcdm_size, num_banks=cfg.num_banks)
        self.l2 = Memory(cfg.l2_size, base=L2_BASE, name="l2")
        self.raw = ClusterMemory(self.tcdm, self.l2)
        self.event_unit = EventUnit(cfg.num_cores)
        self.dma = ClusterDma(self.raw)
        #: Optional TCDM access recorder for the race detector (see
        #: :mod:`repro.analysis.race`); None keeps the hot path clean.
        self.access_trace = None
        #: Structured tracer attached via :meth:`attach_tracer` (None when
        #: not tracing); ``mem_tracer`` is its memory-hook alias, non-None
        #: only when the tracer wants per-access events.
        self.tracer = None
        self.mem_tracer = None
        self.cores: List[Cpu] = []
        for core_id in range(cfg.num_cores):
            port = CoreMemPort(self, core_id)
            cpu = Cpu(isa=cfg.isa, mem=port, timing=cfg.timing,
                      hart_id=core_id)
            port.cpu = cpu
            self.cores.append(cpu)

    @property
    def mem(self) -> ClusterMemory:
        """Untimed memory view for tensor staging (host side)."""
        return self.raw

    def enable_access_trace(self):
        """Attach (and return) a TCDM access recorder for race detection."""
        from ..analysis.race import AccessTrace

        if self.access_trace is None:
            self.access_trace = AccessTrace()
        return self.access_trace

    def attach_tracer(self, tracer):
        """Attach a :class:`~repro.trace.tracer.Tracer` to the whole cluster.

        Every core delivers retire/hwloop events through its own hooks;
        memory events come from the TCDM ports (which know the arbitrated
        bank and the stall paid) rather than the cores, so the per-core
        memory hook is disabled to avoid double reporting.  Barrier and
        DMA events are emitted by the cluster itself.  Pass None to
        detach.
        """
        self.tracer = tracer
        self.mem_tracer = (
            tracer if tracer is not None and tracer.trace_memory else None
        )
        self.dma.tracer = tracer
        for cpu in self.cores:
            cpu.tracer = tracer
            cpu._mem_tracer = None  # TCDM ports report with bank info
        return tracer

    @property
    def regions(self):
        """The region profile shared by every core (None when detached).

        Each core charges its own retires; :meth:`run` charges parked
        barrier time to the ``barrier`` region.
        """
        return self.cores[0].regions

    @regions.setter
    def regions(self, table) -> None:
        for cpu in self.cores:
            cpu.regions = table

    # ------------------------------------------------------------------

    def load_program(self, program) -> None:
        """Point every core at the same linked program (SPMD model)."""
        for cpu in self.cores:
            cpu.load_program(program)

    def reset(self) -> None:
        for cpu in self.cores:
            cpu.reset()
        self.tcdm.reset_timing()
        self.dma.reset_timing()
        if self.access_trace is not None:
            self.access_trace.clear()

    def run(
        self,
        entry: Optional[int] = None,
        max_instructions: int = 200_000_000,
    ) -> ClusterRun:
        """Step all cores to completion (every core halts).

        *max_instructions* bounds the total retired across the cluster.
        Raises :class:`SimError` on barrier deadlock (all live cores
        parked with the barrier incomplete) or budget exhaustion.
        """
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
                        core._close_region()
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

        for cpu in cores:
            cpu._close_region()
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

    def run_program(self, program, **kwargs) -> ClusterRun:
        """Convenience: reset, load on all cores, run to completion."""
        self.reset()
        self.load_program(program)
        return self.run(entry=program.entry, **kwargs)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"Cluster({cfg.num_cores}x {cfg.isa}, "
            f"{cfg.num_banks}-bank TCDM {cfg.tcdm_size // 1024} kB)"
        )
