"""Epoch replay: the cluster's fast path.

:meth:`Cluster.run <repro.cluster.cluster.Cluster.run>` splits a run
into *epochs* at barriers and halts.  Within an epoch every core runs
alone on its own block engine (:mod:`repro.engine`) against the TCDM
bytes, through an :class:`EpochPort` that arbitrates nothing: it logs
each TCDM access with the core's *stall-free* issue clock (the start
cycle of the instruction, as if no bank were ever busy) and its byte
offset.  Fused loops log all of their iterations as arrays; tier-A
segments and interpreter steps log one access at a time; the threshold
reads of one ``pv.qnt`` share one clock and form one *group*.

The replay then merges the cores' groups in ``(stall-free clock +
stalls charged so far, core id)`` order through
:meth:`Tcdm.arbitrate <repro.cluster.tcdm.Tcdm.arbitrate>` and charges
each core its stalls.  That is the order in which the event-driven
scheduler presents the same accesses, and it is exact because a TCDM
stall only adds cycles to its core: it changes no value, no branch and
no later load-use decision, so core ``c``'s ``k``-th access issues at its
stall-free clock plus the stalls ``c`` met before it.  Values depend on
the interleaving only where cores share bytes, so a byte-granular check
first confirms that no core wrote a byte that another core read or wrote
in the epoch.

Whatever the replay cannot reproduce rolls the epoch back to its start
(TCDM bytes, core states, region profiles) and the caller runs it on the
scheduler instead: a race, an access outside the TCDM other than the
barrier register (L2, the DMA registers, other peripherals, unmapped
addresses), a read of a cycle CSR, a trap, the instruction budget
running out, or a barrier some cores reach while others halt.  An
epoch that logs more than :data:`MAX_LOGGED` accesses rolls back too, so
host memory stays bounded.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.cpu import ProvisionalClock
from ..soc.memmap import (
    CLUSTER_PERIPH_BASE,
    CLUSTER_PERIPH_SIZE,
    DMA_BASE,
    EU_BARRIER_WAIT,
)

#: Retires per core per round.  A core that is still running after its
#: slice waits while the others take theirs, and the race check runs
#: between rounds, so a core spinning on a flag another core sets is
#: caught after one round instead of running out the whole budget.
SLICE = 1 << 16

#: Accesses an epoch may log (about 150 bytes of host memory each while
#: it is replayed).  A longer epoch rolls back to the scheduler, whose
#: memory does not grow with the epoch.
MAX_LOGGED = 1 << 20

class Rollback(Exception):
    """The epoch cannot be replayed; ``reason`` keys the statistics."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Arrival(Exception):
    """The core is about to load the barrier register: its engine run
    stops with the load not yet retired."""


class EpochPort:
    """One core's memory while it runs an epoch alone.

    TCDM loads and stores read and write the TCDM bytes directly and are
    logged with their stall-free issue clock: ``cpu.perf.cycles`` plus
    :attr:`issue_offset`, which a tier-A segment sets before each
    instruction (its counters are flushed per segment).  A load of the
    barrier register parks the core; every other address raises
    :class:`Rollback`.  ``base``, ``size``, ``_data`` and
    :meth:`contains` are the :class:`~repro.soc.memory.Memory` surface
    the engine's fused loops read directly.
    """

    #: Marks a memory the block engine may run against (see Cpu.run).
    logs_accesses = True

    def __init__(self, cluster, cpu) -> None:
        tcdm = cluster.tcdm
        self.cpu = cpu
        self.base = tcdm.base
        self.size = tcdm.size
        self._data = tcdm.mem._data
        self._l2 = cluster.l2
        self.issue_offset = 0
        #: Set to let the next barrier load retire; ``arrived`` after it.
        self.arriving = False
        self.arrived = False
        #: ``clock, offset, size, is_write, pc`` per logged access, flat
        self._scalars = array("q")
        #: ``(n, clock0, clock_base, steady, offset, delta, size,
        #: is_write, pc)`` per fused memory op (see :meth:`log_stream`)
        self._streams: List[Tuple] = []
        self._streamed = 0
        #: stream index -> its byte offsets, for a gathering op
        self._gathers: Dict[int, np.ndarray] = {}
        self._columns: Tuple = ((), None)
        #: The core's first-entry clock per region, once the epoch ran.
        self.entries: Dict[str, int] = {}

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.base + self.size

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        offset = addr - self.base
        if 0 <= offset <= self.size - size:
            cpu = self.cpu
            self._scalars.extend((cpu.perf.cycles + self.issue_offset,
                                  offset, size, 0, cpu.pc))
            value = int.from_bytes(self._data[offset:offset + size], "little")
            if signed and value >> (8 * size - 1):
                value = (value - (1 << (8 * size))) & 0xFFFF_FFFF
            return value
        if addr == EU_BARRIER_WAIT:
            if not self.arriving:
                raise _Arrival()
            self.arrived = True
            return 0
        raise Rollback(self._outside(addr, size))

    def store(self, addr: int, size: int, value: int) -> None:
        offset = addr - self.base
        if 0 <= offset <= self.size - size:
            cpu = self.cpu
            self._scalars.extend((cpu.perf.cycles + self.issue_offset,
                                  offset, size, 1, cpu.pc))
            self._data[offset:offset + size] = (
                value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            return
        raise Rollback(self._outside(addr, size))

    def _outside(self, addr: int, size: int) -> str:
        if DMA_BASE <= addr < DMA_BASE + 0x20:
            return "dma"
        if CLUSTER_PERIPH_BASE <= addr < CLUSTER_PERIPH_BASE + CLUSTER_PERIPH_SIZE:
            return "peripheral"
        if self._l2.contains(addr, size):
            return "l2"
        return "trap"

    def log_stream(self, n: int, clock0: int, clock_base: int, steady: int,
                   offset, delta: int, size: int, write: bool, pc: int,
                   rows: int = 1, row_clock: int = 0,
                   row_offset: int = 0) -> None:
        """Log one fused memory op, one access per iteration ``i < n``:
        issued at *clock0* for ``i = 0`` and ``clock_base + steady * i``
        after, at byte ``offset + delta * i``.  A loop nest's inner op
        repeats that for ``rows`` rows, row ``r`` shifted by ``row_clock
        * r`` cycles and ``row_offset * r`` bytes.  An array *offset*
        gives every access's byte offset instead, row by row."""
        if isinstance(offset, np.ndarray):
            self._gathers[len(self._streams)] = offset
            offset = 0
        self._streams.append((n, clock0, clock_base, steady, offset, delta,
                              size, write, pc, rows, row_clock, row_offset))
        self._streamed += n * rows

    def logged(self) -> int:
        """Accesses logged so far."""
        return len(self._scalars) // 5 + self._streamed

    def columns(self) -> Tuple[np.ndarray, ...]:
        """Every access logged so far as ``(clocks, offsets, sizes,
        writes, pcs)`` int64 columns, in no particular order."""
        logged = (len(self._scalars), len(self._streams))
        if self._columns[0] != logged:
            scalars = np.frombuffer(self._scalars, dtype=np.int64)
            streams = np.array(self._streams, dtype=np.int64).reshape(-1, 12)
            # One 1-D stream per row: row r of a stream starts r row
            # strides later in clock and offset.
            rows = streams[:, 9]
            row_firsts = np.cumsum(rows) - rows
            if len(rows) < int(rows.sum()):
                r = np.arange(int(rows.sum())) - np.repeat(row_firsts, rows)
                streams = np.repeat(streams, rows, axis=0)
                streams[:, 1] += r * streams[:, 10]
                streams[:, 2] += r * streams[:, 10]
                streams[:, 4] += r * streams[:, 11]
            n = streams[:, 0]
            firsts = np.cumsum(n) - n
            i = np.arange(int(n.sum())) - np.repeat(firsts, n)
            (_, _, clock_base, steady, offset, delta, size, write, pc) = (
                np.repeat(column, n) for column in streams[:, :9].T)
            clocks = clock_base + steady * i
            clocks[firsts] = streams[:, 1]
            offsets = offset + delta * i
            for k, gathered in self._gathers.items():
                start = firsts[row_firsts[k]]
                offsets[start:start + len(gathered)] = gathered
            self._columns = (logged, tuple(
                np.concatenate((scalars[column::5], streamed))
                for column, streamed in enumerate(
                    (clocks, offsets, size, write, pc))))
        return self._columns[1]


def replay_epoch(cluster, budget: int) -> Tuple[int, Optional[str]]:
    """Run one epoch of *cluster* on the block engines and replay its
    TCDM arbitration.  Returns ``(instructions retired, None)``, or
    ``(0, reason)`` after rolling the epoch back to its start.  At most
    *budget* instructions may retire."""
    cores = cluster.cores
    live = [i for i, cpu in enumerate(cores) if cpu.halted is None]
    tables = list({id(cpu.regions): cpu.regions for cpu in cores
                   if cpu.regions is not None}.values())
    data = cluster.tcdm.mem._data
    saved_bytes = bytes(data)
    saved_cores = [cpu.checkpoint() for cpu in cores]
    saved_tables = [table.checkpoint() for table in tables]
    ports: Dict[int, EpochPort] = {}
    try:
        retired = _run_cores(cluster, live, budget, ports)
    except Rollback as declined:
        data[:] = saved_bytes
        for cpu, state in zip(cores, saved_cores):
            cpu.restore(state)
        for table, state in zip(tables, saved_tables):
            table.restore(state)
        return 0, declined.reason
    finally:
        for i, port in ports.items():
            port.entries, cores[i]._epoch = cores[i]._epoch, None
    stalls = _arbitrate(cluster.tcdm, ports, len(cores))
    _charge(cluster, ports, stalls,
            [(table, len(state[1])) for table, state
             in zip(tables, saved_tables)])
    arrived = [i for i in live if ports[i].arrived]
    if arrived:
        eu = cluster.event_unit
        for i in arrived:
            eu.arrive(i, cores[i].perf.cycles)
        cluster._release_barrier()
    return retired, None


def _run_cores(cluster, live: List[int], budget: int,
               ports: Dict[int, EpochPort]) -> int:
    """Run every live core to its barrier load or halt, in slices; raise
    :class:`Rollback` on anything the replay cannot reproduce."""
    cores = cluster.cores
    for i in live:
        ports[i] = EpochPort(cluster, cores[i])
        cores[i]._epoch = {}
    used = 0
    pending = live
    while pending:
        running = []
        for i in pending:
            used += _run_slice(cores[i], ports[i], budget - used)
            if not (ports[i].arrived or cores[i].halted is not None):
                running.append(i)
        if sum(ports[i].logged() for i in live) > MAX_LOGGED:
            raise Rollback("log-size")
        if _racy([ports[i] for i in live], cluster.tcdm.size):
            raise Rollback("race")
        pending = running
    arrived = sum(ports[i].arrived for i in live)
    if arrived and arrived != len(cores):
        raise Rollback("barrier")
    return used


def _run_slice(cpu, port: EpochPort, left: int) -> int:
    """Run *cpu* for up to :data:`SLICE` retires (at most *left*) against
    *port*; returns the instructions retired."""
    cap = min(SLICE, left)
    before = cpu.perf.instructions
    saved_mem, cpu.mem = cpu.mem, port
    try:
        cpu.run(max_instructions=cap)
    except _Arrival:
        if cpu.perf.instructions - before >= left:
            raise Rollback("budget")
        port.arriving = True
        cpu.step()
    except Rollback:
        raise
    except ProvisionalClock:
        raise Rollback("reads-cycle")
    except Exception:
        # A stop on the slice or budget retires exactly *cap*; a trap
        # stops short of it (the faulting instruction never retires).
        # Either way the scheduler reruns the epoch and raises what a
        # one-instruction-at-a-time run raises.
        if cpu.perf.instructions - before < cap:
            raise Rollback("trap")
        if cap == left:
            raise Rollback("budget")
    finally:
        cpu.mem = saved_mem
    return cpu.perf.instructions - before


#: Byte lanes of an access of up to four bytes.
_LANES = np.arange(4)


def _racy(ports: List[EpochPort], size: int) -> bool:
    """True when some core wrote a byte another core read or wrote."""
    logs = [port.columns()[1:4] for port in ports]
    logs = [log for log in logs if len(log[0])]
    if not logs:
        return False
    lo = min(int(offsets.min()) for offsets, _, _ in logs)
    span = min(max(int(offsets.max()) for offsets, _, _ in logs) + 4,
               size) - lo
    touchers = np.zeros(span, dtype=np.uint8)
    written = np.zeros(span, dtype=bool)
    touched = np.empty(span, dtype=bool)
    for offsets, sizes, writes in logs:
        lanes = offsets[:, None] - lo + _LANES
        inside = _LANES < sizes[:, None]
        touched[:] = False
        touched[lanes[inside]] = True
        touchers += touched
        written[lanes[inside & (writes[:, None] != 0)]] = True
    return bool(np.any(written & (touchers > 1)))


def _arbitrate(tcdm, ports: Dict[int, EpochPort],
               num_cores: int) -> Dict[int, list]:
    """Merge the cores' access groups in ``(clock + stalls so far, core
    id)`` order through ``tcdm.arbitrate``.  Returns, per core, its
    stalled groups as ``(stall-free clock, stall, pc)`` in clock order."""
    arbitrate = tcdm.arbitrate
    clocks: List[list] = [[] for _ in range(num_cores)]
    groups: List[list] = [[] for _ in range(num_cores)]
    pcs: List[np.ndarray] = [None] * num_cores
    heap = []
    for i, port in ports.items():
        clock, offsets, _, _, pc = port.columns()
        if not len(clock):
            continue
        order = np.argsort(clock, kind="stable")
        clock, offsets, pc = clock[order], offsets[order], pc[order]
        firsts = np.concatenate(([0], np.flatnonzero(np.diff(clock)) + 1))
        # Arbitration sees only the bank: offset it by the bank's first
        # word, a small int the interpreter shares instead of allocating.
        groups[i] = ((offsets >> 2) % tcdm.num_banks * 4).tolist()
        if len(firsts) < len(clock):
            # A pv.qnt's threshold reads share one clock: one group.
            bounds = firsts.tolist() + [len(clock)]
            groups[i] = [groups[i][a] if b - a == 1 else groups[i][a:b]
                         for a, b in zip(bounds, bounds[1:])]
        clocks[i] = clock[firsts].tolist()
        pcs[i] = pc[firsts]
        heap.append(clocks[i][0] * num_cores + i)
    heapq.heapify(heap)
    stalled: Dict[int, list] = {i: [] for i in ports}
    progress = [0] * num_cores
    totals = [0] * num_cores
    # Keys are ``clock * num_cores + core id``: one int orders both.
    key = heapq.heappop(heap) if heap else None
    while key is not None:
        when, i = divmod(key, num_cores)
        g = progress[i]
        offsets = groups[i][g]
        if offsets.__class__ is int:
            stall = arbitrate(offsets, when)
        else:
            stall = 0
            for offset in offsets:
                stall += arbitrate(offset, when)
        if stall:
            totals[i] += stall
            stalled[i].append((clocks[i][g], stall, int(pcs[i][g])))
        g += 1
        progress[i] = g
        if g < len(clocks[i]):
            key = heapq.heappushpop(
                heap, (clocks[i][g] + totals[i]) * num_cores + i)
        else:
            key = heapq.heappop(heap) if heap else None
    return stalled


def _charge(cluster, ports: Dict[int, EpochPort], stalled: Dict[int, list],
            tables: List[Tuple[object, int]]) -> None:
    """Charge each core its stalls (and each stalled instruction's region),
    then order the regions first entered in the epoch by their replayed
    first-entry clock."""
    cores = cluster.cores
    before: Dict[int, Tuple[List[int], List[int]]] = {}
    for i, groups in stalled.items():
        cpu = cores[i]
        total = 0
        clocks, totals = [], []
        table = cpu.regions
        for clock, stall, pc in groups:
            total += stall
            clocks.append(clock)
            totals.append(total)
            if table is not None:
                perf = table.counters_for(table.region_of(pc))
                perf.cycles += stall
                perf.stall_tcdm_contention += stall
        cpu.perf.cycles += total
        cpu.perf.stall_tcdm_contention += total
        before[i] = (clocks, totals)

    def entered(i: int, clock: int) -> Tuple[int, int]:
        clocks, totals = before[i]
        k = bisect_left(clocks, clock)
        return (clock + (totals[k - 1] if k else 0), i)

    for table, start in tables:
        firsts: Dict[str, Tuple[int, int]] = {}
        for i in ports:
            cpu = cores[i]
            if cpu.regions is not table:
                continue
            for name, clock in ports[i].entries.items():
                key = entered(i, clock)
                if name not in firsts or key < firsts[name]:
                    firsts[name] = key
        table.reorder_since(start, lambda name: firsts[name])
