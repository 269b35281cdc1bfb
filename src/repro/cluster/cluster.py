"""The PULP cluster: N RI5CY+XpulpNN cores on a shared banked L1.

Each core keeps its own cycle clock (its ``perf.cycles``).  Only loads,
stores and ``pv.qnt`` (:data:`SHARED_TIMING_CLASSES`) reach the memory
system; every other instruction touches its own core alone.  A run is
split into *epochs* at barriers and halts, and each epoch takes one of
two paths that reach the same state:

* **Replay** (the fast path, :mod:`repro.cluster.replay`): every core
  runs the epoch alone on its block engine against the TCDM bytes,
  logging each access with its stall-free issue clock; after a check
  that no core wrote a byte another core touched, the TCDM arbitration
  is replayed over the logs in ``(clock, core id)`` order and the
  stalls are charged.  Anything the replay cannot reproduce (a race, L2
  or peripheral traffic, a cycle-CSR read, a trap, the budget running
  out) rolls the epoch back and runs it on the scheduler.  A tracer,
  memory tracer or race recorder makes the whole run decline the
  replay, since they observe accesses as they happen.
* **Scheduler** (the fallback and reference): a conservative
  discrete-event interleaving of the per-core ISS models.  It keeps a
  heap of ``(clock, core id)`` keys, steps the smallest one until it
  passes the next key, then lets that core run ahead through private
  instructions up to its next shared access.  Shared accesses therefore
  reach the arbiters (TCDM banks, event unit, DMA, L2) in global
  ``(clock, core id)`` order, exactly as if the core with the smallest
  clock were stepped one instruction at a time.

Three cluster-only effects feed back into the clocks:

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

import heapq
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.cpu import Cpu
from ..core.perf import PerfCounters
from ..errors import MemoryAccessError, SimError
from ..isa.instruction import SHARED_TIMING_CLASSES
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
from .replay import replay_epoch
from .tcdm import Tcdm

#: Heap-top clock seen by the last live core: it never has to yield.
_NEVER = 1 << 62

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

    The port refers to its cluster and its core weakly (the cluster owns
    both), so a finished cluster is freed by reference counting alone.
    """

    def __init__(self, cluster: "Cluster", core_id: int) -> None:
        self._cluster = weakref.proxy(cluster)
        self._core_id = core_id
        self.cpu: Optional[Cpu] = None  # wired by the Cluster constructor
        tcdm = cluster.tcdm
        self._tcdm = tcdm
        self._tcdm_base = tcdm.base
        self._tcdm_size = tcdm.size
        self._tcdm_bytes = tcdm.mem._data

    # -- timed accesses (instruction semantics) -------------------------

    def _now(self) -> int:
        return self.cpu.perf.cycles

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        offset = addr - self._tcdm_base
        if 0 <= offset <= self._tcdm_size - size:
            self._tcdm_access(addr, offset, size, "r")
            value = int.from_bytes(
                self._tcdm_bytes[offset:offset + size], "little")
            if signed and value >> (8 * size - 1):
                value = (value - (1 << (8 * size))) & 0xFFFF_FFFF
            return value
        if CLUSTER_PERIPH_BASE <= addr < CLUSTER_PERIPH_BASE + CLUSTER_PERIPH_SIZE:
            return self._periph_load(addr)
        return self._cluster.raw.load(addr, size, signed)

    def store(self, addr: int, size: int, value: int) -> None:
        offset = addr - self._tcdm_base
        if 0 <= offset <= self._tcdm_size - size:
            self._tcdm_access(addr, offset, size, "w")
            self._tcdm_bytes[offset:offset + size] = (
                value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            return
        if CLUSTER_PERIPH_BASE <= addr < CLUSTER_PERIPH_BASE + CLUSTER_PERIPH_SIZE:
            self._periph_store(addr, value)
            return
        self._cluster.raw.store(addr, size, value)

    def _tcdm_access(self, addr: int, offset: int, size: int,
                     kind: str) -> None:
        """Arbitrate for the bank at *offset*, charge the stall to the
        core, and report the access to the race recorder and tracer."""
        cpu = self.cpu
        stall = self._tcdm.arbitrate(offset, cpu.perf.cycles)
        if stall:
            cpu.add_tcdm_stall(stall)
        cl = self._cluster
        if cl.access_trace is not None:
            cl.access_trace.record(
                self._core_id, addr, size, kind,
                cl.event_unit.barriers_completed, pc=cpu.pc)
        if cl.mem_tracer is not None:
            cl.mem_tracer.on_mem(
                self._core_id, cpu.perf.cycles, addr, size, kind,
                self._tcdm.bank_of(addr), stall)

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
    #: How the run was executed: ``replayed_epochs``,
    #: ``rolled_back_epochs``, and one ``declined.<reason>`` or
    #: ``rolled_back.<reason>`` count per reason the fast path gave.
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
            cpu = Cpu(isa=cfg.isa, mem=port, hart_id=core_id)
            port.cpu = weakref.proxy(cpu)
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

    def load_program(self, program, digest: Optional[str] = None) -> None:
        """Point every core at the same linked program (SPMD model); the
        program's digest, which keys the translated blocks, is computed
        once for all of them.  *digest* is that digest when the caller
        already has it (an executor loads one kernel for many tiles)."""
        if digest is None:
            digest = program.digest()
        for cpu in self.cores:
            cpu.load_program(program, digest)

    def reset(self) -> None:
        for cpu in self.cores:
            cpu.reset()
        self.tcdm.reset_timing()
        self.dma.reset_timing()
        self.event_unit.reset()
        if self.access_trace is not None:
            self.access_trace.clear()

    def run(
        self,
        entry: Optional[int] = None,
        max_instructions: int = 200_000_000,
    ) -> ClusterRun:
        """Run all cores to completion (every core halts).

        Each epoch is replayed (see the module docstring) unless the run
        declines the replay up front or the epoch rolls back; both paths
        leave the same state, and ``ClusterRun.detail`` counts which ran.

        *max_instructions* bounds the total retired across the cluster.
        Raises :class:`SimError` on barrier deadlock (all live cores
        parked with the barrier incomplete) or budget exhaustion.  The
        budget trips on the same retired count as a one-instruction-at-
        a-time run would, but a run that raises may leave cores that ran
        ahead further along than such a run would have.

        While a region profile is attached, the table lists regions in
        the same first-entered order as a one-instruction-at-a-time run.
        """
        cores = self.cores
        if entry is not None:
            for cpu in cores:
                cpu.pc = entry
        detail = {"replayed_epochs": 0, "rolled_back_epochs": 0}
        declined = self._replay_declined()
        if declined is not None:
            detail["declined." + declined] = 1
        executed = 0
        while any(cpu.halted is None for cpu in cores):
            if declined is None:
                retired, reason = replay_epoch(
                    self, max_instructions - executed)
                if reason is None:
                    executed += retired
                    detail["replayed_epochs"] += 1
                    continue
                detail["rolled_back_epochs"] += 1
                key = "rolled_back." + reason
                detail[key] = detail.get(key, 0) + 1
            executed = self._schedule_epoch(executed, max_instructions)

        if self.tracer is not None:
            for cpu in cores:
                self.tracer.on_halt(cpu)
        _publish(detail)

        eu = self.event_unit
        return ClusterRun(
            per_core=[cpu.perf.copy() for cpu in self.cores],
            barriers=eu.barriers_completed,
            tcdm_accesses=self.tcdm.accesses,
            tcdm_conflicts=self.tcdm.conflicts,
            tcdm_conflict_cycles=self.tcdm.conflict_cycles,
            dma_cycles=self.dma.total_cycles,
            dma_bytes=self.dma.bytes_moved,
            detail=detail,
        )

    def _replay_declined(self) -> Optional[str]:
        """Why this run cannot replay any epoch (None when it can): a
        tracer or race recorder must see the accesses as they happen."""
        if self.tracer is not None or any(
                cpu.tracer is not None for cpu in self.cores):
            return "tracer"
        if self.access_trace is not None:
            return "access_trace"
        return None

    def _schedule_epoch(self, executed: int, max_instructions: int) -> int:
        """Run the scheduler from the current state until a barrier
        releases or every core halts; returns the cluster's retired
        count.  Raises :class:`SimError` on deadlock or when the count
        passes *max_instructions*."""
        cores = self.cores
        eu = self.event_unit
        heap = [(cpu.perf.cycles, i) for i, cpu in enumerate(cores)
                if cpu.halted is None]
        heapq.heapify(heap)
        parked: set = set()

        while heap:
            _, i = heapq.heappop(heap)
            cpu = cores[i]
            perf = cpu.perf
            step = cpu.step
            imem = cpu._imem
            regions = cpu.regions
            top_cycles, top_id = heap[0] if heap else (_NEVER, 0)
            while True:
                step()
                executed += 1
                if executed > max_instructions:
                    raise SimError(
                        f"cluster exceeded {max_instructions} instructions "
                        f"(likely a spin without progress)"
                    )
                if eu.pending_arrival is not None:
                    eu.take_pending_arrival()
                    parked.add(i)
                    if eu.arrive(i, perf.cycles):
                        self._release_barrier()
                        return executed
                    break
                if cpu._halted is not None:
                    break
                cycles = perf.cycles
                if cycles < top_cycles or (cycles == top_cycles and i < top_id):
                    continue
                # Past the next core's clock: only private work may run on.
                ins = imem.get(cpu.pc)
                if (ins is not None
                        and ins.spec.timing not in SHARED_TIMING_CLASSES
                        and (regions is None
                             or regions.region_of(cpu.pc) in regions)):
                    continue
                heapq.heappush(heap, (cycles, i))
                break

        if any(cpu.halted is None for cpu in cores):
            raise SimError(
                f"cluster deadlock: cores {sorted(parked)} parked at a "
                f"barrier that can no longer complete"
            )
        return executed

    def _release_barrier(self) -> None:
        """Open the completed barrier: every waiter's clock jumps to the
        release time (the last arrival) and the parked span is charged
        as idle time to the ``barrier`` region."""
        eu = self.event_unit
        release = eu.release_time
        released = eu.release()
        for core_id, when in released.items():
            core = self.cores[core_id]
            perf = core.perf
            # Parked time belongs to the barrier, not to the region the
            # core arrived from.
            perf.idle_cycles += release - when
            perf.cycles = release
            if core.regions is not None:
                barrier = core.regions.counters_for("barrier")
                barrier.cycles += release - when
                barrier.idle_cycles += release - when
        if self.tracer is not None:
            for core_id in sorted(released):
                self.tracer.on_barrier(core_id, released[core_id], release)

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


def _publish(detail: Dict[str, int]) -> None:
    """Add one run's replay statistics to the telemetry registry as
    ``cluster.replay.*`` counters."""
    from ..telemetry import metrics as tmetrics

    for key, count in detail.items():
        if count:
            tmetrics.counter("cluster.replay." + key).inc(count)
