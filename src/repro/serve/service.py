"""The batch simulation service: cache + dedupe + pool, one front door.

:class:`SimulationService` is what every client talks to — the CLI's
``repro serve`` / ``repro sweep``, the eval harnesses, and tests.  For a
batch of typed jobs it:

1. derives each cacheable job's content address and **dedupes** the
   batch (two sweep points asking the same question simulate once);
2. answers what it can from the **result cache** bit-identically;
3. shards the misses across the **worker pool** (or runs them inline);
4. persists fresh results + artifacts back into the cache;
5. returns a :class:`SweepReport` preserving submission order, with
   failures as data (:class:`~repro.serve.jobs.JobFailure`) rather than
   exceptions.

Determinism is what makes step 2 sound: a cycle-exact simulator's result
is a pure function of (machine, code, config), which is exactly what the
cache key hashes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ReproError
from ..telemetry import metrics as tmetrics
from ..telemetry.events import EventLog
from ..telemetry.fleet import FleetRecorder, JobRecord
from ..telemetry.spans import Span
from .cache import ResultCache
from .jobs import Job, JobFailure, JobResult, ServeError, SweepJob
from .pool import PoolOutcome, ProgressEvent, ProgressFn, run_jobs
from .runners import cache_key_parts
from .hashing import digest_of


@dataclass
class SweepReport:
    """Outcome of one batch run, in submission order."""

    results: List[PoolOutcome] = field(default_factory=list)
    label: str = ""
    workers: int = 0
    wall_s: float = 0.0
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Merged service-metrics snapshot (``repro-metrics/1``) taken right
    #: after the batch finished — worker deltas already folded in.
    metrics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[JobFailure]:
        return [r for r in self.results if not r.ok]

    @property
    def cached_count(self) -> int:
        return sum(1 for r in self.results if r.ok and r.cached)

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "label": self.label,
            "workers": self.workers,
            "wall_s": round(self.wall_s, 6),
            "stats": dict(self.stats),
            "results": [r.to_dict() for r in self.results],
        }
        if self.metrics is not None:
            doc["metrics"] = self.metrics
        return doc

    def render(self) -> str:
        lines = [
            f"sweep {self.label or '(unlabeled)'}: "
            f"{len(self.results)} point(s), workers={self.workers}, "
            f"wall {self.wall_s:.2f}s"
        ]
        stats = self.stats
        lines.append(
            f"  executed {stats.get('executed', 0)}  "
            f"cached {stats.get('cached', 0)}  "
            f"deduped {stats.get('deduped', 0)}  "
            f"failed {stats.get('failed', 0)}")
        for r in self.results:
            digest = r.job.digest()[:12]
            if r.ok:
                origin = "cache" if r.cached else f"run {r.elapsed_s:.2f}s"
                summary = ", ".join(
                    f"{k}={r.payload[k]:,}" for k in ("cycles",)
                    if isinstance(r.payload.get(k), int))
                lines.append(
                    f"  ok     {r.job.kind:<9s} {digest}  [{origin}]"
                    + (f"  {summary}" if summary else ""))
            else:
                lines.append(
                    f"  FAILED {r.job.kind:<9s} {digest}  "
                    f"{r.error_type}: {r.message}")
        return "\n".join(lines)


class SimulationService:
    """Front door for batch simulation (see module docstring)."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 workers: int = 0, timeout: Optional[float] = None,
                 progress: Optional[ProgressFn] = None,
                 events: Optional[EventLog] = None,
                 fleet: Optional[FleetRecorder] = None) -> None:
        self.cache = cache
        self.workers = workers
        self.timeout = timeout
        self.progress = progress
        self.events = events
        self.fleet = fleet

    # ------------------------------------------------------------------

    def submit(self, job: Job) -> PoolOutcome:
        """Run a single job (through the same cache/pool path)."""
        if isinstance(job, SweepJob):
            raise ServeError("submit() takes a point job; use sweep()")
        return self.run([job]).results[0]

    def sweep(self, sweep_job: SweepJob) -> SweepReport:
        """Run every point of *sweep_job* as one deduped batch."""
        sweep_job.validate()
        return self.run(sweep_job.points, label=sweep_job.label)

    def run(self, jobs: Sequence[Job], label: str = "") -> SweepReport:
        start = time.perf_counter()
        total = len(jobs)
        results: List[Optional[PoolOutcome]] = [None] * total
        registry = tmetrics.default_registry()

        # Root span for this batch: the fleet recorder owns it when one
        # is attached; otherwise a detached root still gives events and
        # pool workers a trace identity.
        if self.fleet is not None:
            root = self.fleet.begin(label, self.workers, total)
        else:
            root = Span.root(f"sweep:{label or 'sweep'}", total=total,
                             workers=self.workers)

        def emit(event: ProgressEvent) -> None:
            if self.progress is not None:
                self.progress(event)

        def log_event(event: str, **fields: Any) -> None:
            if self.events is not None:
                self.events.emit(event, **fields)

        log_event("sweep_start", label=label, total=total,
                  workers=self.workers, trace_id=root.context.trace_id)

        # -- cache lookups + dedupe ------------------------------------
        keys: List[Optional[str]] = [None] * total
        parts_by_key: Dict[str, Dict[str, str]] = {}
        representative: Dict[str, int] = {}
        clones: Dict[int, int] = {}     # index -> representative index
        to_run: List[int] = []
        cached = deduped = 0
        for index, job in enumerate(jobs):
            if isinstance(job, SweepJob):
                raise ServeError("sweeps do not nest; pass point jobs")
            key = None
            if self.cache is None:
                # No cache: dedupe by request identity instead.
                key = job.digest() if job.cacheable else None
            elif job.cacheable:
                try:
                    parts = cache_key_parts(job)
                except ReproError:
                    # The key is built by the run's own constructors, so
                    # an unbuildable job runs uncached and fails exactly
                    # as it does without a cache.
                    parts = None
                if parts is not None:
                    key = digest_of(parts)
                    parts_by_key[key] = parts
                    payload = self.cache.get(key)
                    if payload is not None:
                        artifacts = self.cache.artifacts_for(key)
                        results[index] = JobResult(
                            job=job, payload=payload, cached=True,
                            artifacts=artifacts)
                        cached += 1
                        log_event("job_cached", index=index, kind=job.kind,
                                  digest=job.digest())
                        if self.fleet is not None:
                            now = time.time()
                            self.fleet.record(JobRecord(
                                index=index, kind=job.kind,
                                digest=job.digest(), status="cached",
                                start_s=now, end_s=now))
                            if "trace.json" in artifacts:
                                self.fleet.attach_device_trace(
                                    index, artifacts["trace.json"])
                        emit(ProgressEvent("cached", index, total, job.kind,
                                           job.digest()))
                        continue
            keys[index] = key
            if key is not None and key in representative:
                clones[index] = representative[key]
                deduped += 1
                log_event("job_deduped", index=index, kind=job.kind,
                          digest=job.digest(), of=representative[key])
                continue
            if key is not None:
                representative[key] = index
            to_run.append(index)

        # -- execute the misses ----------------------------------------
        def pool_progress(event: ProgressEvent) -> None:
            mapped = replace(event, index=to_run[event.index], total=total)
            if event.phase == "start":
                log_event("job_start", index=mapped.index,
                          kind=mapped.job_kind, digest=mapped.digest)
            emit(mapped)

        outcomes = run_jobs([jobs[i] for i in to_run], workers=self.workers,
                            timeout=self.timeout, progress=pool_progress,
                            fleet=self.fleet, span=root,
                            index_of=lambda i: to_run[i])

        executed = failed = 0
        for index, outcome in zip(to_run, outcomes):
            executed += 1
            if outcome.ok:
                device_trace = outcome.artifact_payloads.get("trace.json")
                key = keys[index]
                if self.cache is not None and key is not None \
                        and outcome.job.cacheable:
                    self.cache.put(key, parts_by_key[key], outcome.payload)
                    paths = {
                        name: str(self.cache.write_artifact(key, name,
                                                            payload))
                        for name, payload in
                        outcome.artifact_payloads.items()
                    }
                    outcome = replace(outcome, artifacts=paths,
                                      artifact_payloads={})
                if self.fleet is not None and device_trace is not None:
                    self.fleet.attach_device_trace(index, device_trace)
                log_event("job_done", index=index, kind=outcome.job.kind,
                          digest=outcome.job.digest(),
                          elapsed_s=round(outcome.elapsed_s, 6),
                          worker=outcome.worker)
            else:
                failed += 1
                log_event("job_failed", index=index, kind=outcome.job.kind,
                          digest=outcome.job.digest(),
                          elapsed_s=round(outcome.elapsed_s, 6),
                          error_type=outcome.error_type,
                          message=outcome.message,
                          details=dict(outcome.details))
            results[index] = outcome

        # -- fan deduped clones out ------------------------------------
        for index, rep in clones.items():
            rep_outcome = results[rep]
            assert rep_outcome is not None
            results[index] = replace(rep_outcome, job=jobs[index])

        wall_s = time.perf_counter() - start
        stats: Dict[str, Any] = {
            "total": total,
            "executed": executed,
            "cached": cached,
            "deduped": deduped,
            "failed": failed + sum(
                1 for i in clones if not results[i].ok),
        }
        if self.cache is not None:
            stats["cache"] = self.cache.stats()

        # -- service-level metrics -------------------------------------
        registry.counter("serve.batches").inc()
        registry.counter("serve.jobs", status="cached").inc(cached)
        registry.counter("serve.jobs", status="deduped").inc(deduped)
        registry.counter("serve.jobs", status="executed").inc(executed)
        registry.counter("serve.jobs", status="failed").inc(stats["failed"])
        registry.histogram("serve.batch_seconds").observe(wall_s)
        if wall_s > 0:
            registry.gauge("serve.jobs_per_sec").set(
                round(total / wall_s, 3))
        if total:
            registry.gauge("serve.dedupe_ratio").set(
                round(deduped / total, 6))
        snapshot = registry.snapshot() if registry.enabled else None

        ok = all(r is not None and r.ok for r in results)
        if self.fleet is not None:
            self.fleet.finish(ok=ok, cached=cached, deduped=deduped,
                              executed=executed, failed=stats["failed"])
        else:
            root.finish(ok=ok)
        log_event("sweep_done", label=label, ok=ok,
                  wall_s=round(wall_s, 6), stats=stats)
        if snapshot is not None:
            log_event("metrics", snapshot=snapshot)

        final: List[PoolOutcome] = []
        for index, outcome in enumerate(results):
            if outcome is None:  # pragma: no cover — accounting invariant
                raise ServeError(f"job {index} produced no outcome")
            final.append(outcome)
        return SweepReport(results=final, label=label, workers=self.workers,
                           wall_s=wall_s, stats=stats, metrics=snapshot)
