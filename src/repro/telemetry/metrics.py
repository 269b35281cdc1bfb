"""Process-safe service metrics: counters, gauges, histograms.

This is the *service-level* metrics registry — host-side observability
for the serving/eval stack (cache hit rates, queue wait, worker crashes,
DMA-hidden fractions), as opposed to the *device-level* per-region
:class:`repro.core.regions.RegionCounters`, which counts simulated
cycles inside one run.

Design constraints, in order:

1. **Determinism where it matters.**  Histograms carry *fixed* bucket
   boundaries chosen at creation, so two runs observing the same values
   produce bit-identical snapshots, and merging is associative and
   commutative.  Counters fed deterministic quantities (simulated
   cycles, cache hits) aggregate identically whether a sweep ran inline
   or sharded across N workers.
2. **Process safety by value, not by lock.**  The worker pool is
   process-per-job: each worker resets its (fork-inherited) registry on
   entry, accumulates locally with zero synchronization, and ships a
   plain-JSON :meth:`MetricsRegistry.snapshot` back over the result
   pipe.  The supervisor folds worker snapshots into its own registry
   with :meth:`merge_snapshot`.  No shared memory, no locks, no torn
   reads.
3. **Near-zero overhead.**  Recording is a dict lookup plus an integer
   add; a disabled registry swaps in no-op singletons so the fully
   instrumented path costs one attribute call.

Merge semantics: counters **add**, gauges take the **max** (the only
associative+commutative choice that never invents data), histograms add
bucket counts (boundaries must agree).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError


class MetricsError(ReproError):
    """Malformed metric name, snapshot, or incompatible merge."""


#: Schema tag carried by every snapshot.
METRICS_SCHEMA = "repro-metrics/1"

#: Default histogram bucket upper bounds (seconds-flavoured, exponential).
#: Fixed at module level so every process derives identical snapshots.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical series key: ``name`` or ``name{k=v,...}`` (sorted)."""
    if not name or any(c in name for c in "{}=,\n"):
        raise MetricsError(f"bad metric name {name!r}")
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`metric_key` (labels come back as strings)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels = {}
    for part in rest.rstrip("}").split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """A monotonically increasing number."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricsError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value; merged across processes by max."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram: per-bucket counts + sum + count.

    ``boundaries`` are inclusive upper bounds; one implicit overflow
    bucket (+inf) follows the last boundary.  Boundaries are frozen at
    construction — that is what makes merges associative and snapshots
    deterministic for deterministic inputs.
    """

    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(self, boundaries: Tuple[float, ...] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricsError(
                "histogram boundaries must be non-empty, sorted, unique")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        index = len(self.boundaries)
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Named metric instruments with snapshot/merge across processes."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments -----------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str,
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    # -- values ----------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        return instrument.value if instrument is not None else 0

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all label sets."""
        return sum(c.value for key, c in self._counters.items()
                   if split_key(key)[0] == name)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON view of every instrument (sorted, deterministic)."""
        return {
            "schema": METRICS_SCHEMA,
            "counters": {k: self._counters[k].value
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value
                       for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].to_dict()
                           for k in sorted(self._histograms)},
        }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a snapshot (e.g. shipped from a worker) into this registry.

        Counters add, gauges take the max, histograms add bucket counts;
        a histogram with different boundaries is a hard error — silent
        rebinning would corrupt every quantile derived later.
        """
        if not self.enabled:
            return
        validate_metrics_snapshot(snapshot)
        for key, value in snapshot.get("counters", {}).items():
            name, labels = split_key(key)
            self.counter(name, **labels).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            name, labels = split_key(key)
            gauge = self.gauge(name, **labels)
            gauge.set(max(gauge.value, value))
        for key, data in snapshot.get("histograms", {}).items():
            name, labels = split_key(key)
            hist = self.histogram(
                name, buckets=tuple(data["boundaries"]), **labels)
            if list(hist.boundaries) != list(data["boundaries"]):
                raise MetricsError(
                    f"histogram {key!r}: boundary mismatch on merge")
            for i, count in enumerate(data["counts"]):
                hist.counts[i] += count
            hist.sum += data["sum"]
            hist.count += data["count"]


def merge_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Pure merge of snapshot dicts (associative, commutative)."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


def validate_metrics_snapshot(snapshot: Any) -> int:
    """Check a snapshot's shape; returns the number of series.

    Raises :class:`MetricsError` on the first violation.
    """
    if not isinstance(snapshot, dict):
        raise MetricsError("metrics snapshot must be a JSON object")
    if snapshot.get("schema") != METRICS_SCHEMA:
        raise MetricsError(
            f"unknown metrics schema {snapshot.get('schema')!r} "
            f"(expected {METRICS_SCHEMA})")
    series = 0
    for section in ("counters", "gauges"):
        data = snapshot.get(section, {})
        if not isinstance(data, dict):
            raise MetricsError(f"{section!r} must be an object")
        for key, value in data.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise MetricsError(f"{section}[{key!r}] is not a number")
            series += 1
    histograms = snapshot.get("histograms", {})
    if not isinstance(histograms, dict):
        raise MetricsError("'histograms' must be an object")
    for key, data in histograms.items():
        if not isinstance(data, dict):
            raise MetricsError(f"histograms[{key!r}] is not an object")
        bounds = data.get("boundaries")
        counts = data.get("counts")
        if (not isinstance(bounds, list) or not isinstance(counts, list)
                or len(counts) != len(bounds) + 1):
            raise MetricsError(
                f"histograms[{key!r}]: need boundaries + len+1 counts")
        if any(not isinstance(c, int) or c < 0 for c in counts):
            raise MetricsError(
                f"histograms[{key!r}]: counts must be non-negative ints")
        if sum(counts) != data.get("count"):
            raise MetricsError(
                f"histograms[{key!r}]: count != sum of bucket counts")
        series += 1
    return series


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _prom_name(key: str) -> Tuple[str, str]:
    """(metric_name, label_suffix) in Prometheus syntax for a series key."""
    name, labels = split_key(key)
    prom = "repro_" + name.replace(".", "_").replace("-", "_")
    if not labels:
        return prom, ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return prom, "{" + inner + "}"


def render_prom(snapshot: Dict[str, Any]) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    validate_metrics_snapshot(snapshot)
    lines = []
    typed = set()

    def header(prom: str, kind: str) -> None:
        if prom not in typed:
            typed.add(prom)
            lines.append(f"# TYPE {prom} {kind}")

    for key, value in snapshot.get("counters", {}).items():
        prom, suffix = _prom_name(key)
        header(prom, "counter")
        lines.append(f"{prom}{suffix} {value}")
    for key, value in snapshot.get("gauges", {}).items():
        prom, suffix = _prom_name(key)
        header(prom, "gauge")
        lines.append(f"{prom}{suffix} {value}")
    for key, data in snapshot.get("histograms", {}).items():
        prom, suffix = _prom_name(key)
        header(prom, "histogram")
        base = suffix[1:-1] if suffix else ""
        cumulative = 0
        for bound, count in zip(data["boundaries"], data["counts"]):
            cumulative += count
            labels = ",".join(filter(None, [base, f'le="{bound}"']))
            lines.append(f"{prom}_bucket{{{labels}}} {cumulative}")
        labels = ",".join(filter(None, [base, 'le="+Inf"']))
        lines.append(f"{prom}_bucket{{{labels}}} {data['count']}")
        lines.append(f"{prom}_sum{suffix} {data['sum']}")
        lines.append(f"{prom}_count{suffix} {data['count']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The process-default registry
# ---------------------------------------------------------------------------

class _NullCounter(Counter):
    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()

_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry all subsystems record into by default."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-default registry; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous


def reset_default_registry() -> None:
    """Clear the process-default registry (worker-entry hygiene: a
    forked child inherits the parent's counts and must drop them before
    accumulating its own delta)."""
    _DEFAULT.reset()


class use_registry:
    """Context manager: temporarily install *registry* as the default."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_default_registry(self.registry)
        return self.registry

    def __exit__(self, *exc: Any) -> None:
        assert self._previous is not None
        set_default_registry(self._previous)


# Convenience module-level recorders against the current default.

def counter(name: str, **labels: Any) -> Counter:
    return _DEFAULT.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    return _DEFAULT.gauge(name, **labels)


def histogram(name: str, buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
              **labels: Any) -> Histogram:
    return _DEFAULT.histogram(name, buckets=buckets, **labels)
