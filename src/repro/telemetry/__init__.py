"""Service-level telemetry for the serving/eval stack.

Where :mod:`repro.trace` observes the *simulated device* (cycle-stamped
region spans, stall events, DMA lanes), this package observes the
*service around it*: the batch server's cache and worker pool, the
deployment executor's host-side behaviour, and the committed benchmark
trajectory.  Four pieces:

* :mod:`.metrics` — a process-safe metrics registry (counters, gauges,
  deterministic fixed-bucket histograms) with snapshot/merge across the
  worker pool and Prometheus text rendering (``repro metrics``);
* :mod:`.spans` — cross-process span propagation: the service's root
  span rides the job envelope into pool workers and execution spans
  ride back with results;
* :mod:`.events` — a structured JSONL event log with a documented
  schema + validator (``repro serve --events out.jsonl``);
* :mod:`.fleet` — the fleet recorder behind ``--fleet-timeline``,
  merging service scheduling, per-worker lanes, and re-based per-job
  device timelines into one Perfetto trace
  (:func:`repro.trace.perfetto.fleet_trace`);
* :mod:`.perfdiff` — the perf-regression sentinel (``repro perf
  diff``): cycle-exact series must stay bit-identical, throughput
  series get a tolerance band.

See ``docs/TELEMETRY.md``.
"""

from .events import (
    EVENT_FIELDS,
    EVENTS_SCHEMA,
    EventLog,
    EventLogError,
    read_events,
    validate_events,
    validate_events_file,
)
from .fleet import FleetRecorder, JobRecord
from .metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    default_registry,
    merge_snapshots,
    metric_key,
    render_prom,
    reset_default_registry,
    set_default_registry,
    split_key,
    use_registry,
    validate_metrics_snapshot,
)
from .perfdiff import (
    DEFAULT_BAND,
    PERFDIFF_SCHEMA,
    PerfDiffError,
    SeriesVerdict,
    diff_files,
    diff_trajectories,
    load_trajectory,
    render_verdict,
    series_tolerance,
)
from .spans import Span, SpanContext, worker_span

__all__ = [
    "Counter",
    "DEFAULT_BAND",
    "DEFAULT_BUCKETS",
    "EVENTS_SCHEMA",
    "EVENT_FIELDS",
    "EventLog",
    "EventLogError",
    "FleetRecorder",
    "Gauge",
    "Histogram",
    "JobRecord",
    "METRICS_SCHEMA",
    "MetricsError",
    "MetricsRegistry",
    "PERFDIFF_SCHEMA",
    "PerfDiffError",
    "SeriesVerdict",
    "Span",
    "SpanContext",
    "default_registry",
    "diff_files",
    "diff_trajectories",
    "load_trajectory",
    "merge_snapshots",
    "metric_key",
    "read_events",
    "render_prom",
    "render_verdict",
    "reset_default_registry",
    "series_tolerance",
    "set_default_registry",
    "split_key",
    "use_registry",
    "validate_events",
    "validate_events_file",
    "validate_metrics_snapshot",
    "worker_span",
]
