"""End-to-end telemetry through the batch service and worker pool.

The acceptance criteria live here: deterministic counters aggregate
identically whether a sweep ran inline or sharded across 4 workers,
the metrics snapshot reconciles with the SweepReport, and failures
(including timed-out workers) are fully attributable from the event
log alone.
"""

import io
import json

from repro.serve import (
    ResultCache,
    ScalingJob,
    SelfTestJob,
    SimulationService,
    run_jobs,
)
from repro.telemetry import (
    EventLog,
    FleetRecorder,
    use_registry,
    validate_events,
    validate_metrics_snapshot,
)
from repro.trace.perfetto import validate_chrome_trace

JOBS = [ScalingJob(bits=bits, cores=cores, out_ch=32, reduction=64)
        for bits in (8, 4) for cores in (1, 2)]


def _run(workers):
    with use_registry() as registry:
        service = SimulationService(workers=workers)
        report = service.run(JOBS, label=f"w{workers}")
        return report, registry.snapshot()


class TestShardedEqualsSerial:
    """Counters fed deterministic quantities must not depend on how the
    batch was sharded: 4 workers' shipped snapshots fold into exactly
    the serial run's numbers."""

    def test_counters_identical_serial_vs_four_workers(self):
        serial_report, serial = _run(0)
        pool_report, pool = _run(4)
        assert serial_report.ok and pool_report.ok
        # Every counter series — runner.*, executor.*, serve.* — agrees
        # bit-for-bit.  (Histograms carry wall-clock and differ by
        # construction; they are deliberately not compared.)
        assert serial["counters"] == pool["counters"]
        assert serial["counters"]["runner.jobs{kind=scaling}"] == len(JOBS)
        assert serial["counters"]["runner.simulated_cycles"] > 0

    def test_report_snapshot_matches_live_registry(self):
        report, snapshot = _run(2)
        assert report.metrics == snapshot
        assert validate_metrics_snapshot(snapshot) > 0


class TestReconciliation:
    def test_snapshot_reconciles_with_sweep_report(self, tmp_path):
        jobs = JOBS + [JOBS[0]]  # one dedupe clone
        with use_registry() as registry:
            service = SimulationService(cache=ResultCache(tmp_path / "c"))
            first = service.run(jobs, label="cold")
            second = service.run(jobs, label="warm")
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        for report in (first, second):
            assert report.ok
        assert counters["serve.batches"] == 2
        assert counters["serve.jobs{status=executed}"] == \
            first.stats["executed"] + second.stats["executed"]
        # Warm run: every job (including the cold run's dedupe clone)
        # is answered straight from the cache.
        assert counters["serve.jobs{status=cached}"] == \
            second.stats["cached"] == len(jobs)
        assert counters["serve.jobs{status=deduped}"] == \
            first.stats["deduped"] == 1
        assert counters["serve.jobs{status=failed}"] == 0
        # Cache-side counters agree with the cache's own ledger.
        cache_stats = second.stats["cache"]
        assert counters["serve.cache.hits"] == cache_stats["hits"]
        assert counters["serve.cache.misses"] == cache_stats["misses"]

    def test_failed_jobs_counted(self):
        with use_registry() as registry:
            service = SimulationService()
            report = service.run([SelfTestJob(value=1),
                                  SelfTestJob(mode="raise", value=2)])
        assert not report.ok
        counters = registry.snapshot()["counters"]
        assert counters["serve.jobs{status=failed}"] == 1
        assert counters["serve.jobs{status=executed}"] == 2


class TestPoolTelemetry:
    def test_worker_lane_histograms_use_logical_lanes(self):
        with use_registry() as registry:
            outcomes = run_jobs([SelfTestJob(value=i) for i in range(6)],
                                workers=2)
        assert all(o.ok for o in outcomes)
        histograms = registry.snapshot()["histograms"]
        lanes = {key for key in histograms
                 if key.startswith("pool.job_seconds")}
        assert lanes == {"pool.job_seconds{lane=0}",
                         "pool.job_seconds{lane=1}"}
        total = sum(histograms[k]["count"] for k in lanes)
        assert total == 6
        waits = [k for k in histograms
                 if k.startswith("pool.queue_wait_seconds")]
        assert sum(histograms[k]["count"] for k in waits) == 6

    def test_timeout_failure_attributable_from_details(self):
        with use_registry() as registry:
            (outcome,) = run_jobs(
                [SelfTestJob(mode="sleep", duration=30.0)],
                workers=1, timeout=0.5)
        assert not outcome.ok
        assert outcome.error_type == "JobTimeout"
        details = outcome.details
        assert details["digest"] == outcome.job.digest()
        assert details["deadline_s"] == 0.5
        assert details["elapsed_wall_s"] >= 0.5
        counters = registry.snapshot()["counters"]
        assert counters["pool.timeouts{lane=0}"] == 1

    def test_crash_failure_carries_exit_code(self):
        (outcome,) = run_jobs([SelfTestJob(mode="crash")], workers=1)
        assert outcome.error_type == "WorkerCrash"
        assert outcome.details["exit_code"] == 13
        assert outcome.details["digest"] == outcome.job.digest()


class TestEventLogIntegration:
    def _sweep(self, jobs, **kwargs):
        sink = io.StringIO()
        with use_registry():
            service = SimulationService(events=EventLog(sink), **kwargs)
            report = service.run(jobs, label="ev")
        records = [json.loads(line) for line in
                   sink.getvalue().splitlines()]
        return report, records

    def test_lifecycle_counts(self):
        jobs = [SelfTestJob(value=i) for i in range(3)]
        report, records = self._sweep(jobs, workers=2)
        counts = validate_events(records)
        assert counts == {"sweep_start": 1, "job_start": 3, "job_done": 3,
                          "sweep_done": 1, "metrics": 1}
        assert report.ok

    def test_trace_id_threads_through(self):
        _, records = self._sweep([SelfTestJob(value=1)])
        start = next(r for r in records if r["event"] == "sweep_start")
        assert start["trace_id"]

    def test_timeout_attributable_from_log_alone(self):
        """The satellite contract: error type, digest, elapsed wall time
        and deadline are all in the job_failed record."""
        job = SelfTestJob(mode="sleep", duration=30.0)
        report, records = self._sweep([job], workers=1, timeout=0.5)
        assert not report.ok
        (failed,) = [r for r in records if r["event"] == "job_failed"]
        assert failed["error_type"] == "JobTimeout"
        assert failed["digest"] == job.digest()
        assert failed["details"]["digest"] == job.digest()
        assert failed["details"]["deadline_s"] == 0.5
        assert failed["details"]["elapsed_wall_s"] >= 0.5
        validate_events(records)

    def test_final_metrics_event_matches_report(self):
        report, records = self._sweep([SelfTestJob(value=1)])
        (metrics,) = [r for r in records if r["event"] == "metrics"]
        assert metrics["snapshot"] == report.metrics


class TestFleetIntegration:
    def test_sharded_sweep_builds_valid_timeline(self):
        fleet = FleetRecorder()
        with use_registry():
            service = SimulationService(workers=2, fleet=fleet)
            report = service.run([SelfTestJob(value=i) for i in range(4)],
                                 label="fleet")
        assert report.ok
        assert len(fleet.jobs) == 4
        assert fleet.lanes == [0, 1]
        for job in fleet.jobs:
            assert job.status == "done"
            assert job.span is not None
            assert job.span["trace_id"] == fleet.root.context.trace_id
        from repro.trace.perfetto import fleet_trace

        trace = fleet_trace(fleet, title="fleet")
        assert validate_chrome_trace(trace) >= 5  # root + 4 job rows

    def test_cached_jobs_recorded_with_device_traces(self, tmp_path):
        from repro.serve import ProfileJob

        fleet = FleetRecorder()
        job = ProfileJob(kernel="matmul_4bit", trace=True)
        with use_registry():
            cache = ResultCache(tmp_path / "c")
            SimulationService(cache=cache).run([job])
            service = SimulationService(cache=cache, fleet=fleet)
            report = service.run([job], label="warm")
        assert report.cached_count == 1
        record = fleet.job(0)
        assert record.status == "cached"
        # The device timeline is re-attached from the cached artifact.
        assert record.device_trace is not None
        trace = fleet.write(str(tmp_path / "fleet.json"), title="warm")
        assert validate_chrome_trace(trace) > 0

    def test_fresh_jobs_attach_device_traces(self):
        from repro.serve import ProfileJob

        fleet = FleetRecorder()
        with use_registry():
            service = SimulationService(fleet=fleet)
            report = service.run(
                [ProfileJob(kernel="matmul_4bit", trace=True)])
        assert report.ok
        assert fleet.job(0).device_trace is not None
