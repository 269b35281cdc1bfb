"""Stage 1 of the staged search: static scoring and sound pruning.

Every candidate is scored *without simulation*: the PR 7 static cycle
analyzer bounds the kernel's per-core cycles, the physical design model
prices area exactly and brackets power, and the two compose into certain
``[lo, hi]`` intervals on the frontier objectives.  Pruning then removes
only candidates that are **provably** dominated — the dominance test
uses worst-case bounds on the pruned point and best-case bounds on the
witness, so a point is only skipped when *no* simulation outcome could
have placed it on the Pareto frontier.  That is the property the CI
full-vs-staged equality test asserts.

Three rules fire, in order:

1. **Infeasibility** — the shard geometry is impossible for the core
   count (kernel construction raises), the working set overflows the
   candidate's TCDM, or the quant path needs hardware the spec lacks.
   These points cannot execute; simulation would only reproduce the
   failure.

2. **Memory-size structural dominance** — two candidates whose kernels
   link to the *identical program* (equal digests; memory sizes don't
   enter codegen, and TCDM banking is ``2 x cores`` regardless of size)
   simulate to identical cycles and identical measured power, so the
   larger-memory twin can only differ through strictly larger area and
   SRAM leakage.  It is pruned iff the area gap exceeds the frontier's
   own equality band — if the silicon difference is within the band the
   twins would tie, and both are kept.

3. **Interval dominance** — a surviving witness Q prunes P when Q's
   worst case beats P's best case on cycles and energy, Q's exact area
   and bits are no worse, and at least one comparison is strict beyond
   its band.  On identical silicon this is what retires the software
   staircase against the pv.qnt path wherever the cycle intervals
   separate.

The cycle upper bound adds, on top of the analyzer's per-core ``hi``, a
worst-case TCDM arbitration allowance and a barrier wake-up allowance —
cluster-level effects the per-core analyzer deliberately excludes.  The
arbitration term assumes the degenerate worst case in which *every*
data-memory access in the cluster (including the requantization
instructions' same-cycle threshold-table reads, which can serialize
against themselves even on a single core) lands on one single-ported
bank: each bank service event takes one cycle and can hold up at most
one in-flight access group, so total stall is bounded by the largest
per-instruction access group times the cluster-wide access count.
Loose by design — soundness is the property the staged-vs-full equality
test depends on; tightness only costs extra simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.cost import analyze_cost
from ..errors import ReproError
from ..isa.instruction import DATA_ACCESSES
from ..physical.design import (
    cluster_area_mm2,
    energy_per_inference_uj,
    power_bounds_mw,
)
from ..soc.memmap import TCDM_BASE
from .pareto import SPEC_OBJECTIVES, Objective
from .space import Candidate

#: Cycles granted for event-unit barrier wake-ups and entry/exit skew —
#: cluster-level overhead outside the per-core static model.
BARRIER_SLACK_BASE = 32
BARRIER_SLACK_PER_CORE = 8


@dataclass
class StaticScore:
    """Certain objective bounds for one candidate (pre-simulation)."""

    candidate: Candidate
    feasible: bool = True
    reasons: List[str] = field(default_factory=list)
    cycles_lo: int = 0
    cycles_hi: Optional[int] = None
    exact: bool = False
    energy_lo_uj: float = 0.0
    energy_hi_uj: float = 0.0
    area_mm2: float = 0.0
    program_digest: str = ""
    accesses_hi: int = 0

    @property
    def label(self) -> str:
        return self.candidate.label

    @property
    def bits(self) -> int:
        return self.candidate.bits

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "feasible": self.feasible,
            "reasons": list(self.reasons),
            "cycles_lo": self.cycles_lo,
            "cycles_hi": self.cycles_hi,
            "exact": self.exact,
            "energy_lo_uj": round(self.energy_lo_uj, 4),
            "energy_hi_uj": round(self.energy_hi_uj, 4),
            "area_mm2": round(self.area_mm2, 6),
            "program_digest": self.program_digest,
        }


def score_candidate(candidate: Candidate) -> StaticScore:
    """Score one candidate; infeasible candidates come back flagged."""
    from ..kernels import ParallelMatmulConfig, ParallelMatmulKernel

    spec = candidate.spec
    score = StaticScore(candidate=candidate)
    if candidate.quant == "hw" and not spec.has("pv.qnt"):
        score.feasible = False
        score.reasons.append(
            f"spec {spec.name!r} has no pv.qnt hardware")
        return score
    try:
        kernel = ParallelMatmulKernel(ParallelMatmulConfig(
            reduction=candidate.reduction, out_ch=candidate.out_ch,
            bits=candidate.bits, num_cores=spec.cores, isa=spec.isa,
            quant=candidate.quant))
    except ReproError as exc:
        score.feasible = False
        score.reasons.append(f"shard geometry: {exc}")
        return score
    need = kernel.layout.end - TCDM_BASE
    if need > spec.tcdm_bytes:
        score.feasible = False
        score.reasons.append(
            f"working set ({need} B) overflows {spec.tcdm_bytes} B TCDM")
        return score

    report = analyze_cost(kernel.program, name=candidate.label, hart_id=0)
    score.program_digest = kernel.program.digest()
    score.area_mm2 = cluster_area_mm2(spec)
    score.cycles_lo = report.cycles.lo
    if report.cycles.hi is None:
        score.cycles_hi = None
        score.exact = False
        score.reasons.append("static cycle bound is open-ended")
    else:
        accesses = 0
        group_max = 1
        for cls, group in DATA_ACCESSES.items():
            interval = report.by_class.get(cls)
            if interval is None:
                continue
            if interval.hi is None:
                score.cycles_hi = None
                score.reasons.append(f"unbounded {cls} count")
                return score
            if interval.hi:
                accesses += group * interval.hi
                group_max = max(group_max, group)
        score.accesses_hi = accesses
        slack = BARRIER_SLACK_BASE + BARRIER_SLACK_PER_CORE * spec.cores
        # Worst case: all cluster accesses serialize through one bank;
        # each 1-cycle service event delays at most `group_max` of this
        # core's in-flight accesses (see module docstring).
        stall_hi = group_max * spec.cores * accesses
        score.cycles_hi = report.cycles.hi + stall_hi + slack
        score.exact = report.exact
    power_lo, power_hi = power_bounds_mw(spec)
    score.energy_lo_uj = energy_per_inference_uj(
        score.cycles_lo, power_lo, spec.freq_hz)
    if score.cycles_hi is not None:
        score.energy_hi_uj = energy_per_inference_uj(
            score.cycles_hi, power_hi, spec.freq_hz)
    return score


def _objective(key: str,
               objectives: Sequence[Objective]) -> Objective:
    for objective in objectives:
        if objective.key == key:
            return objective
    raise ReproError(f"static stage needs a {key!r} objective")


def _memory_dominates(q: StaticScore, p: StaticScore,
                      area_obj: Objective) -> bool:
    """Rule 2: identical program, componentwise-smaller memory, and an
    area win that survives the frontier's own equality band."""
    if q.program_digest != p.program_digest:
        return False
    qs, ps = q.candidate.spec, p.candidate.spec
    if qs.tcdm_bytes > ps.tcdm_bytes or qs.l2_bytes > ps.l2_bytes:
        return False
    if (qs.tcdm_bytes, qs.l2_bytes) == (ps.tcdm_bytes, ps.l2_bytes):
        return False
    return area_obj.compare(q.area_mm2, p.area_mm2) < 0


def _interval_dominates(q: StaticScore, p: StaticScore,
                        objectives: Sequence[Objective]) -> bool:
    """Rule 3: Q's worst case beats P's best case everywhere it must."""
    if q.cycles_hi is None:
        return False
    area_obj = _objective("area_mm2", objectives)
    bits_obj = _objective("bits", objectives)
    area_cmp = area_obj.compare(q.area_mm2, p.area_mm2)
    bits_cmp = bits_obj.compare(q.bits, p.bits)
    if area_cmp > 0 or bits_cmp > 0:
        return False
    if q.cycles_hi > p.cycles_lo:
        return False
    if q.energy_hi_uj > p.energy_lo_uj:
        return False
    return (q.cycles_hi < p.cycles_lo or area_cmp < 0 or bits_cmp < 0)


@dataclass
class StaticStageResult:
    """Everything the static stage decided, with full accounting."""

    scores: List[StaticScore]
    survivors: List[StaticScore] = field(default_factory=list)
    infeasible: List[StaticScore] = field(default_factory=list)
    #: (pruned score, witness label, rule tag).
    pruned: List[Tuple[StaticScore, str, str]] = field(default_factory=list)

    @property
    def prune_ratio(self) -> float:
        feasible = len(self.survivors) + len(self.pruned)
        return len(self.pruned) / feasible if feasible else 0.0


def run_static_stage(
    candidates: Sequence[Candidate],
    objectives: Sequence[Objective] = SPEC_OBJECTIVES,
    prune: bool = True,
) -> StaticStageResult:
    """Score every candidate, then prune the provably dominated.

    Witnesses are only ever taken from the current survivor set, so each
    pruned point is dominated by a point that *does* get simulated —
    banded dominance is not transitive, and chaining through an
    already-pruned witness could silently widen the pruning.
    """
    scores = [score_candidate(c) for c in candidates]
    result = StaticStageResult(scores=scores)
    feasible: List[StaticScore] = []
    for score in scores:
        (feasible if score.feasible else result.infeasible).append(score)
    if not prune:
        result.survivors = feasible
        return result
    area_obj = _objective("area_mm2", objectives)
    survivors: List[StaticScore] = list(feasible)
    for p in feasible:
        if p not in survivors:
            continue
        for q in survivors:
            if q is p:
                continue
            same_point = (q.bits == p.bits
                          and q.candidate.quant == p.candidate.quant)
            if same_point and _memory_dominates(q, p, area_obj):
                survivors.remove(p)
                result.pruned.append((p, q.label, "memory-dominated"))
                break
            if _interval_dominates(q, p, objectives):
                survivors.remove(p)
                result.pruned.append((p, q.label, "interval-dominated"))
                break
    result.survivors = survivors
    return result
