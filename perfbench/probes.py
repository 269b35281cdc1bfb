"""Layer probes for the traced benchmark run.

A probe wraps one public function or method of the program from the
outside, for the duration of a traced round only: every call records a
span (name, start, end, parent span, operation id) in memory, and an
optional hook adds the counts the call's result carries.  Nothing in
``src/`` knows about the probes.

Span names are layer names; several functions may share one (the three
tile searches are all ``compiler.tile_search``).  A layer's *self time*
is its spans' durations minus the part of each interval covered by its
child spans, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at top level
    op: int                # operation index within the round


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children: List[List[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    return [
        (span.end - span.start) - union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[i])
        for i, span in enumerate(spans)
    ]


class Recorder:
    """In-memory spans and counts of one traced round."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: List[int] = []
        self._engine_seen: Dict[int, tuple] = {}

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.op))
        self._stack.append(index)
        return index

    def leave(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_time_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span.name] += own
        return out

    def covered(self) -> float:
        """Host time inside any top-level layer span."""
        return union_length((s.start, s.end) for s in self.spans
                            if s.parent < 0)


# ---------------------------------------------------------------------------
# Count hooks: (recorder, call args, result) -> None
# ---------------------------------------------------------------------------

def _executor(rec: Recorder, args, result) -> None:
    rec.add("executor.tiles", sum(layer.tiles for layer in result.layers))
    rec.add("executor.dma_cycles",
            sum(layer.dma_cycles for layer in result.layers))
    rec.add("executor.dma_hidden_cycles",
            sum(layer.overlap_cycles for layer in result.layers))


def _cluster(rec: Recorder, args, run) -> None:
    rec.add("cluster.runs")
    rec.add("cluster.sim_instructions", run.aggregate.instructions)
    rec.add("cluster.tcdm_accesses", run.tcdm_accesses)
    rec.add("cluster.tcdm_conflicts", run.tcdm_conflicts)
    rec.add("cluster.barriers", run.barriers)


def _core(rec: Recorder, args, perf) -> None:
    rec.add("core.runs")
    rec.add("core.sim_instructions", perf.instructions)


def _engine(rec: Recorder, args, result) -> None:
    # EngineStats accumulate per engine and publish() reports the running
    # totals, so take the delta since this engine last published.  The
    # stats object is kept alive with its snapshot, so ids stay unique.
    stats = args[0]
    now = stats.as_dict()
    _, before = rec._engine_seen.get(id(stats), (stats, {}))
    rec._engine_seen[id(stats)] = (stats, now)
    for key in ("blocks_translated", "block_hits", "interp_steps",
                "fused_dispatches", "fused_instructions"):
        rec.add("engine." + key, now[key] - before.get(key, 0))
    old_exits = before.get("side_exits", {})
    for reason, count in now["side_exits"].items():
        rec.add("engine.side_exits." + reason,
                count - old_exits.get(reason, 0))


def _golden(rec: Recorder, args, result) -> None:
    rec.add("qnn.golden_calls")


def _kernel_build(rec: Recorder, args, result) -> None:
    rec.add("kernels.builds")


def _cost(rec: Recorder, args, result) -> None:
    rec.add("analysis.cost_calls")


def _static(rec: Recorder, args, stage) -> None:
    rec.add("explore.candidates", len(stage.scores))
    rec.add("explore.pruned", len(stage.pruned))


def _explore(rec: Recorder, args, report) -> None:
    rec.add("explore.simulated", report.sweep_stats.get("executed", 0))


def _cache_get(rec: Recorder, args, payload) -> None:
    rec.add("serve.cache_misses" if payload is None else "serve.cache_hits")


def _chrome(rec: Recorder, args, payload) -> None:
    rec.add("trace.events", len(payload["traceEvents"]))


#: (target, span name or None for a count-only probe, count hook).
#: Targets are "module:function" or "module:Class.method".
PROBES: Tuple[Tuple[str, Optional[str], Optional[Callable]], ...] = (
    ("repro.compiler.lowering:NetworkCompiler.compile", "compiler.compile",
     None),
    ("repro.compiler.tiling:search_conv_tiling", "compiler.tile_search", None),
    ("repro.compiler.tiling:search_linear_tiling", "compiler.tile_search",
     None),
    ("repro.compiler.tiling:search_pool_tiling", "compiler.tile_search", None),
    ("repro.compiler.executor:PlanExecutor.run", "executor.run", _executor),
    ("repro.cluster.cluster:Cluster.run", "cluster.run", _cluster),
    ("repro.core.cpu:Cpu.run", "core.run", _core),
    ("repro.engine.engine:EngineStats.publish", None, _engine),
    ("repro.kernels.conv:ConvKernel.__init__", "kernels.build", _kernel_build),
    ("repro.kernels.parallel:ParallelConvKernel.__init__", "kernels.build",
     None),
    ("repro.kernels.matmul:MatmulKernel.__init__", "kernels.build",
     _kernel_build),
    ("repro.kernels.parallel:ParallelMatmulKernel.__init__", "kernels.build",
     _kernel_build),
    ("repro.kernels.linear:LinearKernel.__init__", "kernels.build",
     _kernel_build),
    ("repro.kernels.pooling:PoolKernel.__init__", "kernels.build",
     _kernel_build),
    ("repro.kernels.conv:ConvKernel.run", "kernels.run", None),
    ("repro.kernels.parallel:ParallelConvKernel.run", "kernels.run", None),
    ("repro.kernels.matmul:MatmulKernel.run", "kernels.run", None),
    ("repro.kernels.parallel:ParallelMatmulKernel.run", "kernels.run", None),
    ("repro.qnn.layers:conv2d_golden", "qnn.golden", _golden),
    ("repro.qnn.layers:linear_golden", "qnn.golden", _golden),
    ("repro.qnn.layers:maxpool_golden", "qnn.golden", _golden),
    ("repro.kernels.pooling:avgpool_cascade_golden", "qnn.golden", _golden),
    ("repro.qnn.quantize:requantize_shift", "qnn.golden", _golden),
    ("repro.qnn.quantize:choose_requant_shift", "qnn.golden", _golden),
    ("repro.qnn.thresholds:thresholds_from_accumulators", "qnn.golden",
     _golden),
    ("repro.qnn.thresholds:ThresholdTable.quantize", "qnn.golden", _golden),
    ("repro.analysis.cost:analyze_cost", "analysis.cost", _cost),
    ("repro.explore.search:DesignSpaceExplorer.run", "explore.run", _explore),
    ("repro.explore.static_stage:run_static_stage", "explore.static", _static),
    ("repro.explore.pareto:pareto_front", "explore.pareto", None),
    ("repro.serve.service:SimulationService.run", "serve.run", None),
    ("repro.serve.runners:execute", "serve.execute", None),
    ("repro.serve.cache:ResultCache.get", "serve.cache_get", _cache_get),
    ("repro.serve.cache:ResultCache.put", "serve.cache_put", None),
    ("repro.trace.profile:profile_kernel", "trace.profile", None),
    ("repro.trace.profile:trace_kernel", "trace.trace", None),
    ("repro.trace.perfetto:chrome_trace", "trace.export", _chrome),
)


def _wrap(fn: Callable, span: Optional[str], hook: Optional[Callable],
          rec: Recorder) -> Callable:
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        index = rec.enter(span) if span is not None else -1
        try:
            result = fn(*args, **kwargs)
        finally:
            if index >= 0:
                rec.leave(index)
        if hook is not None:
            hook(rec, args, result)
        return result
    return probe


class Probes:
    """Install every probe on entry, restore the program on exit."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        for target, span, hook in PROBES:
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, _wrap(original, span, hook, self.rec))
                continue
            original = getattr(module, qualname)
            wrapped = _wrap(original, span, hook, self.rec)
            # Rebind every module-level name that refers to the function,
            # including ``from x import f`` copies in other modules.
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, name, wrapped)
        return self.rec

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)
                           if not isinstance(owner, type)
                           else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def import_program() -> None:
    """Import every probed module, so name copies exist before patching."""
    for target, _, _ in PROBES:
        importlib.import_module(target.partition(":")[0])
    for module in ("repro.compiler", "repro.explore", "repro.serve",
                   "repro.serve.pool", "repro.trace", "repro.qnn",
                   "repro.kernels", "repro.eval.spec_point"):
        importlib.import_module(module)
