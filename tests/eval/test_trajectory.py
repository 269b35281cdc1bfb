"""Benchmark-trajectory summaries: flattening and diffing."""

import json

from repro.eval.trajectory import SCHEMA, build_trajectory, write_trajectory
from repro.telemetry.perfdiff import diff_trajectories

PAYLOAD = {
    "fig6": {
        "points": [
            {"bits": 4, "cycles": 90210, "quant_share": 0.071,
             "verified": True},
            {"bits": 2, "cycles": 103266, "quant_share": 0.124,
             "verified": True},
        ],
    },
    "cluster": {
        "points": [{"cores": 8, "cycles": 1322, "speedup": 7.1,
                    "dma_cycles": 616}],
    },
}


class TestBuildTrajectory:
    def test_captures_cycle_series(self):
        doc = build_trajectory(PAYLOAD)
        assert doc["schema"] == SCHEMA
        assert doc["experiments"] == ["cluster", "fig6"]
        entries = doc["entries"]
        assert entries["fig6/points/0/cycles"] == 90210
        assert entries["cluster/points/0/dma_cycles"] == 616
        assert entries["cluster/points/0/speedup"] == 7.1

    def test_skips_non_metric_leaves(self):
        entries = build_trajectory(PAYLOAD)["entries"]
        assert not any(key.endswith("bits") for key in entries)
        assert not any(key.endswith("verified") for key in entries)

    def test_empty_payload(self):
        doc = build_trajectory({})
        assert doc["entries"] == {}


class TestWriteAndCompare:
    def test_write_round_trips(self, tmp_path):
        path = tmp_path / "traj.json"
        doc = write_trajectory(PAYLOAD, str(path))
        assert json.loads(path.read_text()) == doc

    def test_compare_flags_moved_series(self):
        old = build_trajectory(PAYLOAD)
        moved = json.loads(json.dumps(PAYLOAD))
        moved["fig6"]["points"][0]["cycles"] = 90000
        new = build_trajectory(moved)
        verdict = diff_trajectories(old, new)
        assert not verdict["ok"]
        assert [(r["series"], r["old"], r["new"])
                for r in verdict["regressions"]] == [
            ("fig6/points/0/cycles", 90210, 90000)]

    def test_compare_identical_is_empty(self):
        doc = build_trajectory(PAYLOAD)
        verdict = diff_trajectories(doc, doc)
        assert verdict["ok"]
        assert verdict["regressions"] == []
        assert verdict["added"] == verdict["missing"] == []

    def test_committed_baseline_is_current_schema(self):
        from pathlib import Path

        baseline = (Path(__file__).parents[2] / "benchmarks" / "results"
                    / "trajectory.json")
        doc = json.loads(baseline.read_text())
        assert doc["schema"] == SCHEMA
        assert len(doc["entries"]) > 50
