"""The explore report: one JSON document for the whole staged search.

Everything the explorer decided is accounted for here — every candidate
appears exactly once with a status (``infeasible`` / ``pruned`` /
``failed`` / ``evaluated``) and, where applicable, the witness that
retired it.  On top of the raw frontier the report re-derives the
paper's design choices (*why 8 cores, why 4-bit, why hardware
requantization*) from the evaluated points themselves, so the argument
is data the run produced, not prose.

:func:`validate_explore_report` is the CI contract: the explore job
round-trips its ``--report`` artifact through it before upload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..eval.reporting import format_table
from ..telemetry.spans import Span
from .pareto import Objective, ParetoResult
from .space import ExploreError, SearchSpace
from .static_stage import StaticStageResult

EXPLORE_SCHEMA = "repro-explore/1"


def _per_core_best(points: Sequence[Dict[str, Any]], bits: int,
                   quant: str) -> Dict[int, Dict[str, Any]]:
    """Fastest evaluated point per core count for one (bits, quant)."""
    best: Dict[int, Dict[str, Any]] = {}
    for point in points:
        if point["bits"] != bits or point["quant"] != quant:
            continue
        cores = point["cores"]
        if cores not in best or point["cycles"] < best[cores]["cycles"]:
            best[cores] = point
    return best


def derive_choices(points: Sequence[Dict[str, Any]],
                   frontier_labels: Sequence[str]) -> Dict[str, Any]:
    """Re-derive the paper's design decisions from the evaluated points."""
    derivations: Dict[str, Any] = {}
    frontier = set(frontier_labels)
    if not points:
        return derivations
    max_cores = max(p["cores"] for p in points)

    # Why N cores: parallel speedup and efficiency of the best quant
    # path, smallest-core point as the baseline.
    for bits, quant in ((4, "hw"), (8, "shift")):
        ladder = _per_core_best(points, bits, quant)
        if len(ladder) < 2:
            continue
        lo_c, hi_c = min(ladder), max(ladder)
        speedup = ladder[lo_c]["cycles"] / ladder[hi_c]["cycles"]
        ideal = hi_c / lo_c
        derivations["cores"] = {
            "bits": bits, "quant": quant,
            "baseline_cores": lo_c, "chosen_cores": hi_c,
            "speedup": round(speedup, 3),
            "parallel_efficiency": round(speedup / ideal, 3),
            "on_frontier": ladder[hi_c]["label"] in frontier,
            "statement": (
                f"{hi_c} cores run the {bits}-bit workload "
                f"{speedup:.2f}x faster than {lo_c} core(s) "
                f"({speedup / ideal:.0%} parallel efficiency) and stay "
                f"on the frontier despite the area cost."),
        }
        break

    # Why 4-bit: cycles vs the 8-bit shift path at the chosen core
    # count, with the bits objective explaining why 2-bit doesn't
    # simply replace it.
    four = _per_core_best(points, 4, "hw").get(max_cores)
    eight = _per_core_best(points, 8, "shift").get(max_cores)
    two = _per_core_best(points, 2, "hw").get(max_cores)
    if four and eight:
        ratio = eight["cycles"] / four["cycles"]
        entry: Dict[str, Any] = {
            "chosen": four["label"],
            "vs_8bit_speedup": round(ratio, 3),
            "on_frontier": four["label"] in frontier,
            "statement": (
                f"4-bit hardware quant is {ratio:.2f}x faster than the "
                f"8-bit shift path on the same {max_cores}-core silicon; "
                f"precision (the maximized bits objective) is what keeps "
                f"8-bit on the frontier, not speed."),
        }
        if two:
            entry["vs_2bit_cycles_ratio"] = round(
                four["cycles"] / two["cycles"], 3)
            entry["statement"] += (
                f" 2-bit is {four['cycles'] / two['cycles']:.2f}x faster "
                f"still but sits at half the operand precision — a "
                f"different frontier point, not a dominating one.")
        derivations["bits"] = entry

    # Why hardware quant: the sw staircase twin on identical silicon.
    for bits in (4, 2):
        hw = _per_core_best(points, bits, "hw").get(max_cores)
        sw = _per_core_best(points, bits, "sw").get(max_cores)
        if hw and sw:
            ratio = sw["cycles"] / hw["cycles"]
            derivations["quant"] = {
                "bits": bits,
                "hw": hw["label"], "sw": sw["label"],
                "sw_over_hw_cycles": round(ratio, 3),
                "statement": (
                    f"pv.qnt requantization is {ratio:.2f}x faster than "
                    f"the software staircase at {bits}-bit on identical "
                    f"{max_cores}-core silicon (same area, same power "
                    f"envelope)."),
            }
            break

    # Why this memory: smallest silicon that holds a frontier point.
    frontier_points = [p for p in points if p["label"] in frontier]
    if frontier_points:
        lean = min(frontier_points,
                   key=lambda p: (p["area_mm2"], p["cycles"]))
        derivations["memory"] = {
            "leanest_frontier": lean["label"],
            "tcdm_kb": lean["tcdm_kb"], "l2_kb": lean["l2_kb"],
            "area_mm2": lean["area_mm2"],
            "statement": (
                f"{lean['tcdm_kb']} kB TCDM / {lean['l2_kb']} kB L2 is "
                f"the leanest silicon on the frontier; larger memories "
                f"buy no cycles on this working set, only area."),
        }
    return derivations


@dataclass
class ExploreReport:
    """Full accounting of one staged design-space search."""

    space: SearchSpace
    objectives: Tuple[Objective, ...]
    stage: StaticStageResult
    points: List[Dict[str, Any]]
    failed: List[Dict[str, Any]]
    pareto: ParetoResult
    sweep_stats: Dict[str, Any]
    static_seconds: float
    sweep_seconds: float
    spans: List[Span] = field(default_factory=list)
    derivations: Dict[str, Any] = field(default_factory=dict)
    verification: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------

    def frontier_labels(self) -> List[str]:
        return [self.points[i]["label"] for i in self.pareto.frontier]

    def frontier_points(self) -> List[Dict[str, Any]]:
        return [self.points[i] for i in self.pareto.frontier]

    def derive(self) -> None:
        self.derivations = derive_choices(self.points,
                                          self.frontier_labels())

    def stats(self) -> Dict[str, Any]:
        simulated = len(self.stage.survivors)
        wall = self.static_seconds + self.sweep_seconds
        return {
            "candidates": len(self.stage.scores),
            "infeasible": len(self.stage.infeasible),
            "pruned": len(self.stage.pruned),
            "simulated": simulated,
            "evaluated": len(self.points),
            "failed": len(self.failed),
            "frontier": len(self.pareto.frontier),
            "prune_ratio": round(self.stage.prune_ratio, 4),
            "cache_hits": self.sweep_stats.get("cached", 0),
            "executed": self.sweep_stats.get("executed", 0),
            "static_s": round(self.static_seconds, 4),
            "sweep_s": round(self.sweep_seconds, 4),
            "wall_s": round(wall, 4),
            "points_per_sec": round(simulated / wall, 3) if wall else 0.0,
        }

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        dominated = {
            self.points[i]["label"]: self.points[j]["label"]
            for i, j in self.pareto.dominated_by.items()}
        candidates = []
        pruned_by = {score.label: (witness, rule)
                     for score, witness, rule in self.stage.pruned}
        failed_labels = {f["label"] for f in self.failed}
        for score in self.stage.scores:
            entry: Dict[str, Any] = {"label": score.label,
                                     **score.to_dict()}
            if not score.feasible:
                entry["status"] = "infeasible"
            elif score.label in pruned_by:
                witness, rule = pruned_by[score.label]
                entry["status"] = "pruned"
                entry["witness"] = witness
                entry["rule"] = rule
            elif score.label in failed_labels:
                entry["status"] = "failed"
            else:
                entry["status"] = "evaluated"
            candidates.append(entry)
        return {
            "schema": EXPLORE_SCHEMA,
            "space": self.space.to_dict(),
            "objectives": [o.to_dict() for o in self.objectives],
            "stats": self.stats(),
            "candidates": candidates,
            "points": list(self.points),
            "failed": list(self.failed),
            "frontier": self.frontier_labels(),
            "frontier_points": self.frontier_points(),
            "ties": [[self.points[i]["label"] for i in group]
                     for group in self.pareto.ties],
            "dominated_by": dominated,
            "derivations": dict(self.derivations),
            "verification": self.verification,
            "spans": [span.to_dict() for span in self.spans],
        }

    def trajectory_payload(self) -> Dict[str, Any]:
        """The ``explore/*`` series for the benchmark trajectory."""
        point_series = {
            p["label"]: {"cycles": p["cycles"],
                         "energy_uj": p["energy_uj"],
                         "area_mm2": p["area_mm2"]}
            for p in self.points}
        return {"explore": {self.space.name: {"points": point_series}}}

    # ------------------------------------------------------------------

    def render(self) -> str:
        stats = self.stats()
        frontier = set(self.frontier_labels())
        sections = [
            f"design-space exploration: space={self.space.name!r} "
            f"({stats['candidates']} candidates)",
            format_table(
                ("stage", "count"),
                [("candidates", stats["candidates"]),
                 ("infeasible", stats["infeasible"]),
                 ("pruned (static)", stats["pruned"]),
                 ("simulated", stats["simulated"]),
                 ("frontier", stats["frontier"])],
                title="staged search"),
            format_table(
                ("point", "cycles", "energy uJ", "area mm2", "bits",
                 "frontier"),
                [(p["label"], p["cycles"], p["energy_uj"], p["area_mm2"],
                  p["bits"], "*" if p["label"] in frontier else "")
                 for p in sorted(self.points,
                                 key=lambda p: (p["label"] not in frontier,
                                                p["cycles"]))],
                title="evaluated points"),
        ]
        if self.stage.pruned:
            sections.append(format_table(
                ("pruned", "witness", "rule"),
                [(score.label, witness, rule)
                 for score, witness, rule in self.stage.pruned],
                title="static pruning"))
        for key in ("cores", "bits", "quant", "memory"):
            entry = self.derivations.get(key)
            if entry:
                sections.append(f"why {key}: {entry['statement']}")
        if self.verification is not None:
            n = len(self.verification["points"])
            sections.append(
                f"verification: {n} frontier point(s) bit-identical "
                f"between cached and uncached runs")
        sections.append(
            f"prune ratio {stats['prune_ratio']:.0%}, "
            f"{stats['cache_hits']} cache hit(s), "
            f"{stats['points_per_sec']:.2f} points/s, "
            f"wall {stats['wall_s']:.2f}s")
        return "\n\n".join(sections)


# ----------------------------------------------------------------------

_REQUIRED_KEYS = ("schema", "space", "objectives", "stats", "candidates",
                  "points", "frontier", "frontier_points", "ties",
                  "dominated_by", "derivations")

_VALID_STATUS = {"infeasible", "pruned", "failed", "evaluated"}


def validate_explore_report(doc: Dict[str, Any]) -> int:
    """Validate an explore report document; returns the frontier size.

    Raises :class:`ExploreError` on any structural violation — this is
    what CI runs against the ``--report`` artifact before uploading it.
    """
    if not isinstance(doc, dict):
        raise ExploreError("explore report must be a JSON object")
    if doc.get("schema") != EXPLORE_SCHEMA:
        raise ExploreError(
            f"bad schema {doc.get('schema')!r}; expected {EXPLORE_SCHEMA}")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise ExploreError(f"explore report is missing {key!r}")
    labels = {p["label"] for p in doc["points"]}
    for label in doc["frontier"]:
        if label not in labels:
            raise ExploreError(
                f"frontier label {label!r} has no evaluated point")
    objective_keys = [o["key"] for o in doc["objectives"]]
    if not objective_keys:
        raise ExploreError("explore report has no objectives")
    for point in doc["frontier_points"]:
        for key in objective_keys:
            if key not in point:
                raise ExploreError(
                    f"frontier point {point.get('label')!r} is missing "
                    f"objective {key!r}")
    statuses: Dict[str, int] = {}
    for cand in doc["candidates"]:
        status = cand.get("status")
        if status not in _VALID_STATUS:
            raise ExploreError(
                f"candidate {cand.get('label')!r} has invalid status "
                f"{status!r}")
        if status == "pruned" and not cand.get("witness"):
            raise ExploreError(
                f"pruned candidate {cand.get('label')!r} has no witness")
        statuses[status] = statuses.get(status, 0) + 1
    stats = doc["stats"]
    for key, status in (("infeasible", "infeasible"), ("pruned", "pruned"),
                        ("evaluated", "evaluated")):
        if stats.get(key) != statuses.get(status, 0):
            raise ExploreError(
                f"stats[{key!r}]={stats.get(key)} disagrees with "
                f"candidate statuses ({statuses.get(status, 0)})")
    verification = doc.get("verification")
    if verification is not None:
        if not verification.get("ok"):
            raise ExploreError("verification block reports failure")
        checked = {c["label"] for c in verification["points"]}
        if checked != set(doc["frontier"]):
            raise ExploreError(
                "verification did not cover the full frontier")
    return len(doc["frontier"])


def load_explore_report(path: str) -> Dict[str, Any]:
    """Read and validate an explore report file."""
    with open(path) as handle:
        doc = json.load(handle)
    validate_explore_report(doc)
    return doc
