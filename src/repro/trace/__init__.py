"""Structured execution tracing and per-region metrics.

The core and cluster models accept a :class:`Tracer` (``cpu.tracer = ...``
or ``cluster.attach_tracer(...)``) and call its hooks as instructions
retire, memory ports grant, barriers release and DMA descriptors launch.
Two tracers cover the common uses:

* :class:`TextTracer` — the human-readable instruction log behind
  ``repro run --trace``;
* :class:`EventTracer` — typed event record (region spans, stalls,
  barriers, DMA) feeding the Perfetto exporter in
  :mod:`repro.trace.perfetto`.

Per-region counters need no tracer: attach a :class:`RegionCounters`
(``cpu.regions = ...`` or ``cluster.regions = ...``; re-exported here
from :mod:`repro.core.regions`) and the core charges it directly, on the
block engine too.  That table is the ``repro profile`` output.

``repro profile --kernel`` runs a kernel matrix point through
:mod:`repro.trace.profile`; it is imported lazily (not here) because it
pulls in the kernel generators, which themselves import the core.
"""

from .events import (
    STALL_CAUSES,
    BarrierSpan,
    DmaEvent,
    HwloopEvent,
    MemAccessEvent,
    RegionSpan,
    RetireEvent,
    StallEvent,
)
from ..core.regions import RegionCounters
from .perfetto import (
    chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from .tracer import EventTracer, TextTracer, Tracer

__all__ = [
    "STALL_CAUSES",
    "BarrierSpan",
    "DmaEvent",
    "EventTracer",
    "HwloopEvent",
    "MemAccessEvent",
    "RegionCounters",
    "RegionSpan",
    "RetireEvent",
    "StallEvent",
    "TextTracer",
    "Tracer",
    "chrome_trace",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
]
