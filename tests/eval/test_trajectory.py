"""Benchmark-trajectory summaries: flattening and diffing."""

import json

from repro.eval.trajectory import build_trajectory, write_trajectory
from repro.telemetry.perfdiff import TRAJECTORY_SCHEMA, diff_trajectories

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
        assert doc["schema"] == TRAJECTORY_SCHEMA
        assert doc["experiments"] == ["cluster", "fig6"]
        entries = doc["entries"]
        assert entries["fig6/points/0/cycles"] == 90210
        assert entries["cluster/points/0/dma_cycles"] == 616
        assert entries["cluster/points/0/speedup"] == 7.1
        assert entries["fig6/points/1/bits"] == 2
        assert entries["cluster/points/0/cores"] == 8
        assert len(entries) == 10

    def test_captures_fig6_shaped_payload(self):
        doc = build_trajectory({"fig6": {"cycles": {"4": {"sw": 106264}}}})
        assert doc["entries"] == {"fig6/cycles/4/sw": 106264}

    def test_skips_non_metric_leaves(self):
        entries = build_trajectory(
            {"fig6": {"verified": True, "label": "4b", "n": 3}})["entries"]
        assert entries == {"fig6/n": 3}

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
        assert doc["schema"] == TRAJECTORY_SCHEMA
        assert len(doc["entries"]) > 50

    def test_committed_baseline_covers_every_producer(self):
        """Each ``repro report`` experiment and ``repro explore`` has
        series in the baseline, so none can drop out of the sentinel."""
        from pathlib import Path

        from repro.cli import REPORT_EXPERIMENTS

        baseline = (Path(__file__).parents[2] / "benchmarks" / "results"
                    / "trajectory.json")
        entries = json.loads(baseline.read_text())["entries"]
        producers = {series.split("/", 1)[0] for series in entries}
        assert producers == set(REPORT_EXPERIMENTS) | {"explore"}
