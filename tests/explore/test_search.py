"""End-to-end staged search: frontier correctness, verification, report.

``TestStagedEqualsFull`` is the pruning-soundness contract the CI
explore job runs: on the CI space, the staged search (static pruning
on) must produce exactly the frontier the full search (every feasible
candidate simulated) produces.
"""

import json

import pytest

from repro.explore import (
    DesignSpaceExplorer,
    ExploreError,
    named_space,
    validate_explore_report,
)
from repro.serve import SimulationService, open_cache


@pytest.fixture(scope="module")
def ci_reports():
    service = SimulationService()
    space = named_space("ci")
    full = DesignSpaceExplorer(space, service=service, prune=False).run()
    staged = DesignSpaceExplorer(space, service=service, prune=True).run()
    return full, staged


class TestStagedEqualsFull:
    def test_frontiers_identical(self, ci_reports):
        full, staged = ci_reports
        assert sorted(staged.frontier_labels()) == \
            sorted(full.frontier_labels())

    def test_staged_simulates_strictly_less(self, ci_reports):
        full, staged = ci_reports
        assert staged.stats()["simulated"] < full.stats()["simulated"]
        assert staged.stage.prune_ratio >= 0.30

    def test_every_candidate_accounted_for(self, ci_reports):
        _, staged = ci_reports
        stats = staged.stats()
        assert stats["candidates"] == (stats["infeasible"] + stats["pruned"]
                                       + stats["simulated"])

    def test_evaluated_points_match_across_modes(self, ci_reports):
        full, staged = ci_reports
        full_cycles = {p["label"]: p["cycles"] for p in full.points}
        for point in staged.points:
            assert full_cycles[point["label"]] == point["cycles"]


class TestPaperDesignPoint:
    def test_8core_4bit_hw_on_frontier(self, ci_reports):
        _, staged = ci_reports
        assert "c8-t64k-l512k-4b-hw" in staged.frontier_labels()

    def test_derivations_name_the_paper_choices(self, ci_reports):
        _, staged = ci_reports
        d = staged.derivations
        assert d["cores"]["chosen_cores"] == 8
        assert d["cores"]["on_frontier"]
        assert d["bits"]["vs_8bit_speedup"] > 1.0
        assert d["quant"]["sw_over_hw_cycles"] > 1.0
        assert d["memory"]["tcdm_kb"] == 64

    @pytest.mark.slow
    def test_paper_space_frontier_contains_design_point(self):
        report = DesignSpaceExplorer(
            named_space("paper"), service=SimulationService()).run()
        assert "c8-t64k-l512k-4b-hw" in report.frontier_labels()
        assert report.derivations["cores"]["parallel_efficiency"] > 0.9


class TestVerification:
    def test_cached_and_uncached_bit_identical(self, tmp_path):
        cache = open_cache(str(tmp_path / "cache"))
        service = SimulationService(cache=cache)
        report = DesignSpaceExplorer(
            named_space("quick"), service=service).run(verify=True)
        assert report.verification["ok"]
        assert len(report.verification["points"]) == \
            len(report.frontier_labels())
        for check in report.verification["points"]:
            assert check["cached_run_hit"]
            assert check["cycles"] == check["uncached_cycles"]

    def test_bound_violation_raises(self):
        from repro.explore.search import DesignSpaceExplorer as Explorer
        from repro.explore.static_stage import StaticScore
        from repro.explore import Candidate, variant_spec

        explorer = Explorer(named_space("quick"),
                            service=SimulationService())
        cand = Candidate(spec=variant_spec(1, 64, 512), bits=4,
                         quant="hw", out_ch=16, reduction=64)
        score = StaticScore(candidate=cand, cycles_lo=10, cycles_hi=20)
        with pytest.raises(ExploreError):
            explorer._check_bounds(score, {"cycles": 21})
        with pytest.raises(ExploreError):
            explorer._check_bounds(score, {"cycles": 9})


class TestReport:
    def test_report_validates(self, ci_reports):
        _, staged = ci_reports
        doc = json.loads(json.dumps(staged.to_dict()))
        assert validate_explore_report(doc) == len(staged.frontier_labels())

    def test_validation_rejects_bad_schema(self, ci_reports):
        _, staged = ci_reports
        doc = staged.to_dict()
        doc["schema"] = "repro-explore/0"
        with pytest.raises(ExploreError):
            validate_explore_report(doc)

    def test_validation_rejects_unknown_frontier_label(self, ci_reports):
        _, staged = ci_reports
        doc = staged.to_dict()
        doc["frontier"] = list(doc["frontier"]) + ["c9-t1k-l1k-3b-hw"]
        with pytest.raises(ExploreError):
            validate_explore_report(doc)

    def test_validation_rejects_pruned_without_witness(self, ci_reports):
        _, staged = ci_reports
        doc = staged.to_dict()
        for cand in doc["candidates"]:
            if cand["status"] == "pruned":
                del cand["witness"]
                break
        with pytest.raises(ExploreError):
            validate_explore_report(doc)

    def test_validation_rejects_inconsistent_stats(self, ci_reports):
        _, staged = ci_reports
        doc = staged.to_dict()
        doc["stats"]["pruned"] += 1
        with pytest.raises(ExploreError):
            validate_explore_report(doc)

    def test_trajectory_payload_series(self, ci_reports):
        from repro.eval.trajectory import build_trajectory

        _, staged = ci_reports
        doc = build_trajectory(staged.trajectory_payload())
        entries = doc["entries"]
        assert not any(k.endswith("points_per_sec") for k in entries)
        cycle_series = [k for k in entries
                        if k.startswith("explore/ci/points/")
                        and k.endswith("/cycles")]
        assert len(cycle_series) == len(staged.points)

    def test_render_mentions_frontier_and_pruning(self, ci_reports):
        _, staged = ci_reports
        text = staged.render()
        assert "staged search" in text
        assert "memory-dominated" in text
        assert "why cores" in text

    def test_spans_cover_every_phase(self, ci_reports):
        _, staged = ci_reports
        names = {span.name for span in staged.spans}
        assert {"explore:ci", "explore.expand", "explore.static",
                "explore.simulate", "explore.rollup",
                "explore.pareto"} <= names
        assert all(span.end_s > 0 for span in staged.spans)


class TestPerfDiffBanding:
    def test_points_per_sec_is_banded_cycles_exact(self):
        from repro.telemetry.perfdiff import series_tolerance

        kind, _ = series_tolerance("bench/explore/ci/full_points_per_sec")
        assert kind == "band"
        kind, _ = series_tolerance("explore/ci/stats/full_points_per_sec")
        assert kind == "exact"
        kind, _ = series_tolerance(
            "explore/ci/points/c8-t64k-l512k-4b-hw/cycles")
        assert kind == "exact"

    def test_committed_throughput_series_are_banded(self):
        import json
        from pathlib import Path

        from repro.telemetry.perfdiff import series_tolerance

        path = (Path(__file__).parents[2] / "benchmarks" / "results"
                / "explore_throughput.json")
        entries = json.loads(path.read_text())["entries"]
        assert entries
        assert {series_tolerance(s)[0] for s in entries} == {"band"}
