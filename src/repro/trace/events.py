"""Typed execution-trace events.

Every observable the tracing layer emits is one of these small
dataclasses.  Times are core-local cycle counts; cluster cores all
start at cycle 0, so they double as a global timeline.  ``core`` is the
hart id (0 for a standalone core).  Each core's events arrive in its
retire order, but the cores' streams interleave however the cluster
scheduler ran them, so order by ``core`` before comparing traces.

Event taxonomy (mirrors the hooks of :class:`repro.trace.tracer.Tracer`):

* :class:`RetireEvent` — one retired instruction with its timing class,
  occupancy, and dominant stall cause;
* :class:`MemAccessEvent` — one data-memory access with the TCDM bank it
  arbitrated for (``None`` outside the cluster L1) and the stall it paid;
* :class:`StallEvent` — cycles lost to one hazard occurrence (also
  emitted standalone in span-level tracing, where retires are folded
  into region spans);
* :class:`RegionSpan` — a contiguous stretch of execution inside one
  marked program region (see :meth:`repro.asm.builder.KernelBuilder.region`);
* :class:`BarrierSpan` — one core's parked time at an event-unit barrier;
* :class:`DmaEvent` — one DMA descriptor's start/finish window;
* :class:`HwloopEvent` — a zero-overhead hardware-loop back-edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Stall causes a :class:`RetireEvent` / :class:`StallEvent` can carry.
STALL_CAUSES = (
    "load_use", "branch", "jump", "misaligned", "unit", "tcdm",
)


@dataclass(frozen=True)
class RetireEvent:
    """One retired instruction (full-detail tracing only)."""

    core: int
    cycle: int            # cycle the instruction started occupying
    pc: int
    mnemonic: str
    timing_class: str
    cycles: int           # total occupancy including stalls
    stall_cycles: int = 0
    stall_cause: Optional[str] = None


@dataclass(frozen=True)
class MemAccessEvent:
    """One data-memory access (full-detail tracing only)."""

    core: int
    cycle: int
    addr: int
    size: int
    kind: str             # "r" | "w"
    bank: Optional[int] = None
    stall: int = 0


@dataclass(frozen=True)
class StallEvent:
    """Cycles one instruction lost to a hazard."""

    core: int
    cycle: int
    cycles: int
    cause: str            # one of STALL_CAUSES


@dataclass(frozen=True)
class RegionSpan:
    """Contiguous execution inside one marked region."""

    core: int
    name: str
    start: int
    end: int
    instructions: int = 0

    @property
    def cycles(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class BarrierSpan:
    """One core's wait at an event-unit barrier (arrival -> release)."""

    core: int
    arrive: int
    release: int

    @property
    def parked(self) -> int:
        return self.release - self.arrive


@dataclass(frozen=True)
class DmaEvent:
    """One DMA descriptor's modeled transfer window."""

    src: int
    dst: int
    bytes: int
    start: int
    end: int


@dataclass(frozen=True)
class HwloopEvent:
    """A hardware-loop back-edge taken at *cycle* (full detail only)."""

    core: int
    cycle: int
    pc: int
    target: int
