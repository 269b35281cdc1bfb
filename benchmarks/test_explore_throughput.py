"""Explore throughput (host-side performance, not a paper figure).

Two numbers size the autotuner:

* **staged vs full points/sec** — the end-to-end rate of the staged
  search (static prune + simulate survivors) against simulating every
  feasible candidate.  The acceptance bar is structural, not wall-clock:
  on the CI space static pruning must retire **>= 30%** of the feasible
  candidates before any simulation is spent;
* **frontier stability** — the staged frontier must equal the full
  frontier (pruning soundness) and match the committed baseline report
  in ``benchmarks/results/explore_frontier.json``.

Wall-clock series go to ``benchmarks/results/explore_throughput.json``
under ``bench/explore/<space>/`` — the prefix ``repro perf diff`` bands —
and never into the cycle-exact ``trajectory.json`` baseline.
"""

import json
from pathlib import Path

from repro.explore import (
    DesignSpaceExplorer,
    named_space,
    validate_explore_report,
)
from repro.serve import SimulationService

from conftest import record

BASELINE = Path(__file__).parent / "results" / "explore_frontier.json"


def _write_series(results_dir, space, name, value):
    from repro.eval.trajectory import write_trajectory

    write_trajectory(
        {"bench": {"explore": {space: {name: round(value, 3)}}}},
        str(results_dir / "explore_throughput.json"))


def test_benchmark_staged_vs_full(results_dir):
    space = named_space("ci")
    full = DesignSpaceExplorer(
        space, service=SimulationService(), prune=False).run()
    staged = DesignSpaceExplorer(
        space, service=SimulationService(), prune=True).run()

    # Pruning soundness: the staged frontier is the full frontier.
    assert sorted(staged.frontier_labels()) == sorted(full.frontier_labels())
    # The acceptance bar: >= 30% of the feasible candidates never reach
    # the simulator on the CI space.
    ratio = staged.stage.prune_ratio
    assert ratio >= 0.30, f"prune ratio {ratio:.0%} below the 30% bar"

    full_pps = full.stats()["points_per_sec"]
    staged_pps = staged.stats()["points_per_sec"]
    simulations_saved = full.stats()["simulated"] - staged.stats()["simulated"]
    assert simulations_saved >= 1

    _write_series(results_dir, space.name, "staged_points_per_sec",
                  staged_pps)
    _write_series(results_dir, space.name, "full_points_per_sec", full_pps)
    record(results_dir, "explore_staged_vs_full", "\n".join([
        f"explore '{space.name}' space: {len(staged.stage.scores)} "
        f"candidates",
        f"  full:   {full.stats()['simulated']} simulated, "
        f"{full_pps:.2f} points/s",
        f"  staged: {staged.stats()['simulated']} simulated "
        f"({ratio:.0%} pruned statically), {staged_pps:.2f} points/s",
        f"  frontier ({len(staged.frontier_labels())} points, identical "
        f"staged vs full): {', '.join(sorted(staged.frontier_labels()))}",
    ]))


def test_frontier_matches_committed_baseline():
    doc = json.loads(BASELINE.read_text())
    validate_explore_report(doc)

    staged = DesignSpaceExplorer(
        named_space("ci"), service=SimulationService(), prune=True).run()
    assert sorted(doc["frontier"]) == sorted(staged.frontier_labels())
    fresh = {p["label"]: p["cycles"] for p in staged.points}
    for point in doc["points"]:
        assert fresh[point["label"]] == point["cycles"], point["label"]
