"""Perf-regression sentinel: exact vs banded series, verdicts."""

import json

import pytest

from repro.telemetry import (
    DEFAULT_BAND,
    PERFDIFF_SCHEMA,
    PerfDiffError,
    diff_files,
    diff_trajectories,
    load_trajectory,
    render_verdict,
    series_tolerance,
)

TRAJ = {"schema": "repro-trajectory/1", "entries": {
    "cluster/points/0/cycles": 125000,
    "cluster/points/0/speedup": 3.72,
    "serve/throughput_jobs_per_s": 40.0,
    "bench/sim_ips": 210000.0,
}}


def _doc(**overrides):
    doc = json.loads(json.dumps(TRAJ))
    doc["entries"].update(overrides)
    return doc


class TestTolerancePolicy:
    def test_cycle_series_default_exact(self):
        assert series_tolerance("cluster/points/0/cycles") == ("exact", 0.0)

    def test_throughput_prefixes_get_band(self):
        assert series_tolerance("serve/x") == ("band", DEFAULT_BAND)
        assert series_tolerance("bench/x") == ("band", DEFAULT_BAND)


class TestDiff:
    def test_identical_documents_are_clean(self):
        verdict = diff_trajectories(TRAJ, _doc())
        assert verdict["ok"] is True
        assert verdict["schema"] == PERFDIFF_SCHEMA
        assert verdict["checked"] == 4
        assert verdict["exact_checked"] == 2
        assert verdict["band_checked"] == 2
        assert verdict["regressions"] == []

    def test_cycle_drift_of_one_is_a_regression(self):
        verdict = diff_trajectories(
            TRAJ, _doc(**{"cluster/points/0/cycles": 125001}))
        assert verdict["ok"] is False
        (reg,) = verdict["regressions"]
        assert reg["series"] == "cluster/points/0/cycles"
        assert reg["kind"] == "exact"

    def test_throughput_inside_band_passes(self):
        verdict = diff_trajectories(
            TRAJ, _doc(**{"serve/throughput_jobs_per_s": 32.0}))
        assert verdict["ok"] is True

    def test_throughput_outside_band_fails(self):
        verdict = diff_trajectories(
            TRAJ, _doc(**{"serve/throughput_jobs_per_s": 20.0}))
        assert verdict["ok"] is False
        (reg,) = verdict["regressions"]
        assert reg["kind"] == "band"
        assert reg["tolerance"] == DEFAULT_BAND

    def test_band_is_symmetric(self):
        faster = diff_trajectories(
            TRAJ, _doc(**{"serve/throughput_jobs_per_s": 60.0}))
        assert faster["ok"] is False  # +50% also flags (machine anomaly)

    def test_added_series_never_fail(self):
        verdict = diff_trajectories(TRAJ, _doc(**{"new/series": 1}))
        assert verdict["ok"] is True
        assert verdict["added"] == ["new/series"]

    def test_missing_series_fail(self):
        new = _doc()
        del new["entries"]["bench/sim_ips"]
        verdict = diff_trajectories(TRAJ, new)
        assert verdict["ok"] is False
        assert verdict["regressions"] == []
        assert verdict["missing"] == ["bench/sim_ips"]
        assert "MISSING bench/sim_ips" in render_verdict(verdict)


class TestFilesAndRender:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_diff_files_round_trip(self, tmp_path):
        old = self._write(tmp_path, "old.json", TRAJ)
        new = self._write(tmp_path, "new.json", _doc())
        assert diff_files(old, new)["ok"] is True

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PerfDiffError, match="no such file"):
            load_trajectory(str(tmp_path / "gone.json"))

    def test_wrong_schema_raises(self, tmp_path):
        path = self._write(tmp_path, "bad.json", {"schema": "other/1"})
        with pytest.raises(PerfDiffError, match="expected"):
            load_trajectory(path)

    def test_render_clean_and_regressed(self):
        clean = render_verdict(diff_trajectories(TRAJ, _doc()))
        assert clean.endswith("verdict: OK")
        bad = render_verdict(diff_trajectories(
            TRAJ, _doc(**{"cluster/points/0/cycles": 1})))
        assert "bit-identical" in bad
        assert bad.endswith("verdict: REGRESSED")

    def test_committed_baseline_is_self_consistent(self):
        """The CI gate's happy path: the repo baseline vs itself."""
        from pathlib import Path

        baseline = str(Path(__file__).resolve().parents[2]
                       / "benchmarks" / "results" / "trajectory.json")
        verdict = diff_files(baseline, baseline)
        assert verdict["ok"] is True
        assert verdict["checked"] > 0
        assert verdict["regressions"] == []
