"""CLI surfaces: sweep telemetry flags, cache, metrics, perf diff."""

import json

import pytest

from repro.cli import main
from repro.telemetry import use_registry, validate_events_file
from repro.trace.perfetto import validate_chrome_trace_file

TRAJ = {"schema": "repro-trajectory/1", "entries": {
    "cluster/cycles": 1000,
    "serve/jobs_per_s": 40.0,
}}


@pytest.fixture(autouse=True)
def scoped_registry():
    """Keep CLI-driven sweeps from polluting the process registry."""
    with use_registry():
        yield


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSweepTelemetryFlags:
    def test_sweep_emits_all_three_sinks(self, tmp_path, capsys):
        events = tmp_path / "ev.jsonl"
        fleet = tmp_path / "fleet.json"
        metrics = tmp_path / "met.json"
        code = main(["sweep", "selftest", "value=1,2,3",
                     "--workers", "2", "--no-cache", "--quiet",
                     "--events", str(events),
                     "--fleet-timeline", str(fleet),
                     "--metrics-out", str(metrics)])
        assert code == 0
        counts = validate_events_file(str(events))
        assert counts["job_done"] == 3
        assert counts["metrics"] == 1
        assert validate_chrome_trace_file(str(fleet)) > 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["runner.jobs{kind=selftest}"] == 3

    def test_metrics_renders_event_log(self, tmp_path, capsys):
        events = tmp_path / "ev.jsonl"
        main(["sweep", "selftest", "value=1", "--no-cache", "--quiet",
              "--events", str(events)])
        capsys.readouterr()
        assert main(["metrics", str(events), "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert 'repro_runner_jobs{kind="selftest"} 1' in text
        assert "# TYPE repro_serve_batches counter" in text


class TestMetricsCommand:
    def test_snapshot_file_json(self, tmp_path, capsys):
        metrics = tmp_path / "met.json"
        main(["sweep", "selftest", "value=1,2", "--no-cache", "--quiet",
              "--metrics-out", str(metrics)])
        capsys.readouterr()
        assert main(["metrics", str(metrics)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-metrics/1"
        assert doc["counters"]["serve.jobs{status=executed}"] == 2

    def test_rejects_non_metrics_json(self, tmp_path, capsys):
        path = _write(tmp_path, "other.json", {"hello": 1})
        assert main(["metrics", path]) == 1
        assert "error" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_and_prune(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["sweep", "scaling", "bits=4,8", "cores=1", "out_ch=32",
              "reduction=64", "--cache-dir", cache_dir, "--quiet"])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--max-bytes", "1", "--json"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["removed"] == 2
        assert outcome["bytes_kept"] == 0
        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_prune_requires_budget(self, tmp_path, capsys):
        assert main(["cache", "prune",
                     "--cache-dir", str(tmp_path / "c")]) == 1
        assert "--max-bytes" in capsys.readouterr().err

    def test_byte_suffixes(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--max-bytes", "10M", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["max_bytes"] == \
            10 * 1024 * 1024


class TestPerfDiff:
    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", TRAJ)
        assert main(["perf", "diff", old, old]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_cycle_regression_exits_nonzero(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", TRAJ)
        perturbed = json.loads(json.dumps(TRAJ))
        perturbed["entries"]["cluster/cycles"] = 1001
        new = _write(tmp_path, "new.json", perturbed)
        assert main(["perf", "diff", old, new, "--json"]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False
        assert verdict["regressions"][0]["series"] == "cluster/cycles"

    def test_throughput_default_band(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", TRAJ)
        wobbled = json.loads(json.dumps(TRAJ))
        wobbled["entries"]["serve/jobs_per_s"] = 36.0  # -10%
        assert main(["perf", "diff", old,
                     _write(tmp_path, "wobbled.json", wobbled)]) == 0
        capsys.readouterr()
        wobbled["entries"]["serve/jobs_per_s"] = 20.0  # -50%
        assert main(["perf", "diff", old,
                     _write(tmp_path, "slow.json", wobbled)]) == 1

    def test_strict_missing(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", TRAJ)
        shrunk = json.loads(json.dumps(TRAJ))
        del shrunk["entries"]["serve/jobs_per_s"]
        new = _write(tmp_path, "new.json", shrunk)
        assert main(["perf", "diff", old, new]) == 1
        assert "MISSING serve/jobs_per_s" in capsys.readouterr().out

    def test_unreadable_input_is_an_error(self, tmp_path, capsys):
        old = _write(tmp_path, "old.json", TRAJ)
        assert main(["perf", "diff", old,
                     str(tmp_path / "gone.json")]) == 1
        assert "error" in capsys.readouterr().err
