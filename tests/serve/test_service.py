"""SimulationService: dedupe, cache wiring, reports, eval clients."""

import pytest

from repro.serve import (
    ProfileJob,
    ResultCache,
    ScalingJob,
    SelfTestJob,
    ServeError,
    SimulationService,
    SweepJob,
)


class TestDedupe:
    def test_identical_points_simulate_once(self, tmp_path):
        job = ScalingJob(bits=4, cores=1, out_ch=32, reduction=64)
        report = SimulationService().run([job, job, job])
        assert report.ok
        assert report.stats["executed"] == 1
        assert report.stats["deduped"] == 2
        payloads = [r.payload for r in report.results]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_uncacheable_points_never_dedupe(self):
        job = SelfTestJob(mode="ok")
        report = SimulationService().run([job, job])
        assert report.stats["executed"] == 2
        assert report.stats["deduped"] == 0

    def test_deduped_failure_fans_out(self):
        job = ScalingJob(bits=2, cores=8, out_ch=8, reduction=64)
        report = SimulationService().run([job, job])
        assert not report.ok
        assert len(report.failures) == 2
        assert report.stats["executed"] == 1
        assert report.stats["failed"] == 2


class TestSweepApi:
    def test_submit_single_job(self):
        outcome = SimulationService().submit(SelfTestJob(value=9))
        assert outcome.ok
        assert outcome.payload["value"] == 9

    def test_submit_rejects_sweep(self):
        with pytest.raises(ServeError, match="sweep"):
            SimulationService().submit(SweepJob(points=(SelfTestJob(),)))

    def test_nested_sweep_rejected(self):
        inner = SweepJob(points=(SelfTestJob(),))
        with pytest.raises(ServeError, match="nest"):
            SimulationService().run([inner])

    def test_sweep_validates_points_first(self):
        sweep = SweepJob(points=(SelfTestJob(mode="explode"),))
        with pytest.raises(ServeError, match="unknown selftest mode"):
            SimulationService().sweep(sweep)

    def test_report_round_trip(self):
        report = SimulationService().sweep(SweepJob(
            points=(SelfTestJob(value=1), SelfTestJob(mode="raise")),
            label="mixed"))
        data = report.to_dict()
        assert data["label"] == "mixed"
        assert [r["status"] for r in data["results"]] == ["ok", "failed"]
        text = report.render()
        assert "mixed" in text and "FAILED" in text

    def test_progress_indices_span_whole_batch(self, tmp_path):
        job = ScalingJob(bits=4, cores=1, out_ch=32, reduction=64)
        service = SimulationService(cache=ResultCache(tmp_path / "c"))
        service.run([job])
        events = []
        service.progress = events.append
        report = service.run([job, SelfTestJob(value=5)])
        assert report.ok
        # Index 0 is the cache hit, index 1 the executed selftest.
        assert [(e.phase, e.index) for e in events] == [
            ("cached", 0), ("start", 1), ("done", 1)]
        assert all(e.total == 2 for e in events)


class TestCacheArtifacts:
    def test_trace_artifact_persisted_and_served(self, tmp_path):
        import json

        service = SimulationService(cache=ResultCache(tmp_path / "c"))
        job = ProfileJob(kernel="matmul_4bit", trace=True)
        first = service.submit(job)
        assert first.ok and not first.cached
        assert "trace.json" in first.artifacts
        payload = json.loads(open(first.artifacts["trace.json"]).read())
        assert payload["traceEvents"]
        second = service.submit(job)
        assert second.cached
        assert second.artifacts == first.artifacts


class TestUnbuildableJobs:
    def test_key_failure_fails_only_that_job(self, tmp_path):
        """Key derivation builds the job's kernel; a job whose kernel
        cannot be built fails alone, exactly as it does uncached."""
        jobs = [ProfileJob(kernel="matmul_4bit", target="ri5cy"),
                ProfileJob(kernel="conv_4bit", target="ri5cy")]
        cached = SimulationService(cache=ResultCache(tmp_path / "c")).run(jobs)
        uncached = SimulationService().run(jobs)
        for report in (cached, uncached):
            assert [r.ok for r in report.results] == [False, True]
            assert report.stats["failed"] == 1
        failure = cached.results[0]
        assert failure.error_type == "KernelError"
        assert (failure.error_type, failure.message) == (
            uncached.results[0].error_type, uncached.results[0].message)
        assert cached.results[1].payload == uncached.results[1].payload


class TestEvalClients:
    """The rewired harnesses stay bit-identical through the service."""

    def test_cluster_scaling_through_pool_matches_inline(self, tmp_path):
        from repro.eval import cluster_scaling

        inline = cluster_scaling.run(out_ch=32, reduction=64)
        pooled = cluster_scaling.run(
            out_ch=32, reduction=64,
            service=SimulationService(cache=ResultCache(tmp_path / "c"),
                                      workers=2))
        assert pooled.to_dict() == inline.to_dict()

    def test_fig6_through_service_matches_default(self, tmp_path):
        from repro.eval import fig6

        default = fig6.run()
        served = fig6.run(service=SimulationService(
            cache=ResultCache(tmp_path / "c")))
        assert served.cycles == default.cycles
        assert served.quant_cycles == default.quant_cycles

    def test_cluster_scaling_failure_raises_repro_error(self):
        from repro.errors import ReproError
        from repro.eval import cluster_scaling

        class Broken:
            workers = 0

            def run(self, jobs, label=""):
                from repro.serve import JobFailure, SweepReport

                return SweepReport(results=[
                    JobFailure(job=j, error_type="WorkerCrash",
                               message="died") for j in jobs])

        with pytest.raises(ReproError, match="WorkerCrash"):
            cluster_scaling.run(out_ch=32, reduction=64, service=Broken())
