"""Chrome-trace / Perfetto JSON export.

Renders an :class:`~repro.trace.tracer.EventTracer`'s event lists in the
Chrome trace-event format (the JSON flavour ``ui.perfetto.dev`` and
``chrome://tracing`` both open).  One simulated cycle maps to one
timestamp unit; each core gets three lanes so the timeline separates

* **regions** — what the core computed (the kernel's marked phases),
* **stalls**  — cycles lost to hazards, TCDM contention highlighted,
* **barrier** — time parked at event-unit barriers,

plus one cluster-wide DMA lane.  :func:`validate_chrome_trace` checks a
payload against the subset of the spec we emit, so CI can verify exports
without a browser.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Dict, List, Optional

from ..errors import TraceError
from .tracer import EventTracer

#: Lanes per core in the tid encoding (tid = core * _LANES + lane).
_LANES = 4
_LANE_NAMES = {0: "regions", 1: "stalls", 2: "barrier"}
#: The DMA engine's own thread id, clear of any plausible core lane.
DMA_TID = 1000
_PID = 1


def _meta(name: str, tid: Optional[int] = None):
    if tid is None:
        return {"name": "process_name", "ph": "M", "pid": _PID,
                "args": {"name": name}}
    return {"name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": name}}


def chrome_trace(tracer: EventTracer, title: str = "repro") -> Dict:
    """Build the Chrome trace-event payload for one traced run.

    Region spans and stalls are emitted core by core, each core's in the
    order it retired them, so the export does not depend on how the
    cluster scheduler interleaved the cores.
    """
    events: List[Dict] = [_meta(title)]
    for core in tracer.cores:
        events.append(_meta(f"core {core} regions", core * _LANES + 0))
        events.append(_meta(f"core {core} stalls", core * _LANES + 1))
        events.append(_meta(f"core {core} barrier", core * _LANES + 2))

    for span in sorted(tracer.region_spans, key=attrgetter("core")):
        events.append({
            "name": span.name, "cat": "region", "ph": "X",
            "ts": span.start, "dur": span.cycles,
            "pid": _PID, "tid": span.core * _LANES + 0,
            "args": {"core": span.core, "instructions": span.instructions},
        })
    for stall in sorted(tracer.stalls, key=attrgetter("core")):
        events.append({
            "name": stall.cause, "cat": "stall", "ph": "X",
            "ts": stall.cycle, "dur": stall.cycles,
            "pid": _PID, "tid": stall.core * _LANES + 1,
            "args": {"core": stall.core},
        })
    for barrier in tracer.barriers:
        events.append({
            "name": "barrier", "cat": "barrier", "ph": "X",
            "ts": barrier.arrive, "dur": barrier.parked,
            "pid": _PID, "tid": barrier.core * _LANES + 2,
            "args": {"core": barrier.core},
        })
    if tracer.dma_events:
        events.append(_meta("dma", DMA_TID))
        for dma in tracer.dma_events:
            events.append({
                "name": f"dma {dma.bytes}B", "cat": "dma", "ph": "X",
                "ts": dma.start, "dur": dma.end - dma.start,
                "pid": _PID, "tid": DMA_TID,
                "args": {"src": f"{dma.src:#010x}", "dst": f"{dma.dst:#010x}",
                         "bytes": dma.bytes},
            })
    return {"traceEvents": events, "displayTimeUnit": "ns",
            "otherData": {"tool": "repro", "time_unit": "cycle"}}


def write_chrome_trace(tracer: EventTracer, path: str,
                       title: str = "repro") -> Dict:
    """Export *tracer* to *path* as Chrome trace-event JSON."""
    payload = chrome_trace(tracer, title=title)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return payload


# ---------------------------------------------------------------------------
# Fleet timelines (service-level telemetry)
# ---------------------------------------------------------------------------

#: pid layout of the fleet export: the service process, one synthetic
#: process per worker lane, one per job's device timeline.
FLEET_SERVICE_PID = 1
FLEET_WORKER_PID_BASE = 10
FLEET_DEVICE_PID_BASE = 1000


def _fleet_meta(pid: int, name: str, tid: Optional[int] = None):
    if tid is None:
        return {"name": "process_name", "ph": "M", "pid": pid,
                "args": {"name": name}}
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def fleet_trace(recorder, title: str = "fleet") -> Dict:
    """Render a :class:`repro.telemetry.fleet.FleetRecorder` as one
    Chrome-trace payload.

    One wall-clock timeline (microseconds, re-based to the root span):

    * **service track** (pid 1) — the batch root span, a lane of per-job
      scheduling windows, and a lane of queue-wait spans;
    * **one track per worker lane** (pid 10+lane) — the worker-side
      execution span each pool job shipped back with its result;
    * **nested per-job device tracks** (pid 1000+index) — jobs that
      produced a device timeline get their simulated-cycle events
      re-based into the job's wall-clock window (cycles are scaled to
      fill the window, so device phases line up under the host span
      that produced them).
    """
    jobs = list(recorder.jobs)
    starts = [recorder.root.start_s] if recorder.root else []
    starts += [j.start_s - j.queue_wait_s for j in jobs if j.start_s]
    base_s = min(starts) if starts else 0.0

    def us(t: float) -> int:
        return max(int(round((t - base_s) * 1e6)), 0)

    def dur_us(a: float, b: float) -> int:
        return max(int(round((b - a) * 1e6)), 1)

    events: List[Dict] = [
        _fleet_meta(FLEET_SERVICE_PID, f"service: {title}"),
        _fleet_meta(FLEET_SERVICE_PID, "batch", 0),
        _fleet_meta(FLEET_SERVICE_PID, "jobs", 1),
        _fleet_meta(FLEET_SERVICE_PID, "queue", 2),
    ]
    if recorder.root is not None:
        root = recorder.root
        end_s = root.end_s or max(
            [j.end_s for j in jobs if j.end_s], default=root.start_s)
        events.append({
            "name": root.name, "cat": "service", "ph": "X",
            "ts": us(root.start_s), "dur": dur_us(root.start_s, end_s),
            "pid": FLEET_SERVICE_PID, "tid": 0,
            "args": {"trace_id": root.context.trace_id, **root.attrs},
        })
    for lane in recorder.lanes:
        events.append(_fleet_meta(FLEET_WORKER_PID_BASE + lane,
                                  f"worker {lane}"))
        events.append(_fleet_meta(FLEET_WORKER_PID_BASE + lane, "jobs", 0))

    for job in jobs:
        if not job.start_s:
            continue
        label = f"{job.kind} {job.digest[:10]}"
        events.append({
            "name": label, "cat": f"job.{job.status}", "ph": "X",
            "ts": us(job.start_s), "dur": dur_us(job.start_s, job.end_s),
            "pid": FLEET_SERVICE_PID, "tid": 1,
            "args": {"index": job.index, "status": job.status,
                     "lane": job.lane, "worker_pid": job.worker_pid,
                     **({"error_type": job.error_type}
                        if job.error_type else {})},
        })
        if job.queue_wait_s > 0:
            events.append({
                "name": f"queued {label}", "cat": "queue", "ph": "X",
                "ts": us(job.start_s - job.queue_wait_s),
                "dur": dur_us(job.start_s - job.queue_wait_s, job.start_s),
                "pid": FLEET_SERVICE_PID, "tid": 2,
                "args": {"index": job.index},
            })
        if job.lane >= 0 and job.span:
            span = job.span
            start = float(span.get("start_s", job.start_s))
            end = float(span.get("end_s", 0.0)) or job.end_s
            events.append({
                "name": span.get("name") or label, "cat": "worker",
                "ph": "X", "ts": us(start), "dur": dur_us(start, end),
                "pid": FLEET_WORKER_PID_BASE + job.lane, "tid": 0,
                "args": {"index": job.index,
                         "span_id": span.get("span_id", ""),
                         "parent_id": span.get("parent_id", "")},
            })
        if job.device_trace is not None:
            events.extend(_rebase_device_trace(job, us, dur_us))

    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"tool": "repro", "time_unit": "us",
                          "kind": "fleet", "title": title}}


def _rebase_device_trace(job, us, dur_us) -> List[Dict]:
    """A job's device timeline, re-based into its wall-clock window.

    Device events are cycle-stamped; the whole cycle range is scaled to
    span the job's host window so phases keep their relative extents.
    """
    pid = FLEET_DEVICE_PID_BASE + job.index
    source = job.device_trace.get("traceEvents", [])
    total_cycles = max(
        (e.get("ts", 0) + e.get("dur", 0) for e in source
         if e.get("ph") == "X"), default=0)
    window_us = dur_us(job.start_s, job.end_s)
    scale = window_us / total_cycles if total_cycles else 0.0
    start_us = us(job.start_s)
    out: List[Dict] = [_fleet_meta(
        pid, f"job {job.index} device: {job.kind} {job.digest[:10]}")]
    for event in source:
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") == "thread_name":
                out.append(_fleet_meta(
                    pid, event.get("args", {}).get("name", "device"),
                    event.get("tid", 0)))
            continue
        if ph != "X":
            continue
        out.append({
            "name": event.get("name", "device"),
            "cat": f"device.{event.get('cat', 'event')}", "ph": "X",
            "ts": start_us + int(event.get("ts", 0) * scale),
            "dur": max(int(event.get("dur", 0) * scale), 1),
            "pid": pid, "tid": event.get("tid", 0),
            "args": {**event.get("args", {}),
                     "cycle": event.get("ts", 0),
                     "cycles": event.get("dur", 0)},
        })
    return out


def write_fleet_trace(recorder, path: str, title: str = "fleet") -> Dict:
    """Export a fleet recorder to *path* as Chrome trace-event JSON."""
    payload = fleet_trace(recorder, title=title)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return payload


def validate_chrome_trace(payload) -> int:
    """Check *payload* against the Chrome trace-event JSON schema subset.

    Raises :class:`~repro.errors.TraceError` on the first violation;
    returns the number of duration ("X") events otherwise.
    """
    if not isinstance(payload, dict):
        raise TraceError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise TraceError("trace payload needs a non-empty 'traceEvents' list")
    durations = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise TraceError(f"traceEvents[{index}] is not an object")
        ph = event.get("ph")
        if ph == "M":
            name = event.get("name")
            if name not in ("process_name", "thread_name"):
                raise TraceError(
                    f"traceEvents[{index}]: unknown metadata record {name!r}")
            args = event.get("args")
            if not isinstance(args, dict) or not isinstance(
                    args.get("name"), str):
                raise TraceError(
                    f"traceEvents[{index}]: metadata needs args.name")
            continue
        if ph != "X":
            raise TraceError(
                f"traceEvents[{index}]: unsupported phase {ph!r} "
                "(exporter emits only 'X' and 'M')")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise TraceError(f"traceEvents[{index}]: missing event name")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise TraceError(
                    f"traceEvents[{index}]: {key!r} must be a non-negative "
                    f"number, got {value!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise TraceError(
                    f"traceEvents[{index}]: {key!r} must be an integer")
        durations += 1
    return durations


def validate_chrome_trace_file(path: str) -> int:
    """Load *path* and validate it; returns the duration-event count."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: not valid JSON ({exc})") from None
    return validate_chrome_trace(payload)
