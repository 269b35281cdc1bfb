"""Master timeline: merge per-tile traces onto one global clock.

The schedule executor runs every tile as its own cluster session (cores
reset, program swapped), so each tile's :class:`EventTracer` starts at
cycle 0.  This module shifts those spans by the tile's global start
cycle and folds them into one master tracer whose Chrome-trace export
shows the whole network — compute rows per core, the DMA engine row,
and a schedule row naming each tile — so ``repro trace``-style tooling
can eyeball the compute/DMA overlap directly.
"""

from __future__ import annotations

from typing import Optional

from ..trace.events import DmaEvent, RegionSpan, StallEvent
from ..trace.perfetto import chrome_trace, write_chrome_trace
from ..trace.tracer import EventTracer

#: Pseudo-core id whose "regions" lane carries one span per scheduled
#: tile (layer/tile labels), rendered as its own track in the viewer.
SCHEDULE_TRACK = 99


class MasterTimeline:
    """Accumulates shifted tile traces into one network-wide tracer."""

    def __init__(self) -> None:
        self.tracer = EventTracer()
        self._finished = False

    def merge_tile(self, tile_tracer: EventTracer, offset: int) -> None:
        """Fold one tile's trace in, shifted to start at *offset*."""
        master = self.tracer
        for span in tile_tracer.region_spans:
            master.region_spans.append(RegionSpan(
                core=span.core, name=span.name,
                start=span.start + offset, end=span.end + offset,
                instructions=span.instructions))
        for stall in tile_tracer.stalls:
            master.stalls.append(StallEvent(
                core=stall.core, cycle=stall.cycle + offset,
                cycles=stall.cycles, cause=stall.cause))
        for core, end in tile_tracer.end_cycles.items():
            prev = master.end_cycles.get(core, 0)
            master.end_cycles[core] = max(prev, end + offset)

    def add_schedule_span(self, name: str, start: int, end: int) -> None:
        self.tracer.region_spans.append(RegionSpan(
            core=SCHEDULE_TRACK, name=name, start=start, end=max(end, start + 1)))

    def finish(self, dma_transfers, end_cycle: Optional[int] = None) -> None:
        """Fill the DMA lane from the engine's global transfer log."""
        for t in dma_transfers:
            self.tracer.dma_events.append(DmaEvent(
                src=t.desc.src, dst=t.desc.dst, bytes=t.desc.total_bytes,
                start=t.start, end=t.done))
        if end_cycle is not None:
            for core in list(self.tracer.end_cycles) or [0]:
                self.tracer.end_cycles[core] = max(
                    self.tracer.end_cycles.get(core, 0), end_cycle)
        self._finished = True

    def chrome_trace(self, title: str = "compiled network") -> dict:
        return chrome_trace(self.tracer, title=title)

    def write(self, path: str, title: str = "compiled network") -> dict:
        return write_chrome_trace(self.tracer, path, title=title)
