"""Seeded workloads of the repository benchmark.

Every workload turns a seed into one *round*: a fixed list of operations
run closed-loop by a single client (the next operation starts when the
previous one has returned).  A run repeats its round, so every simulated
count must come out identical in every round.

The seed draws the inputs (weights, activations, operation order, tile
orientations, memory sizes), never the amount of work: each round holds
the same multiset of shapes and configurations whatever the seed, so
runs with different seeds measure the same work and their host times
can be compared.

The program only ever receives the generated tensors, networks and
search spaces; all checking happens here, against the numpy golden
models and the committed cycle-exact trajectory.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "benchmarks" / "results" / "trajectory.json"
#: Scratch space for the design sweep's on-disk result caches.
WORK_DIR = Path(__file__).resolve().parent / ".work"


@dataclass
class OpResult:
    """What one operation produced, as checked by the benchmark."""

    sim_cycles: int
    #: Simulated instructions retired by this operation (all cores);
    #: results served from a cache retire none.
    sim_instructions: int
    ok: bool
    detail: str = ""
    #: Deterministic side counts that must repeat exactly across rounds.
    counts: Optional[Dict[str, int]] = None


@dataclass
class Op:
    name: str
    run: Callable[[], OpResult]


class Workload:
    """A seeded round of operations (see the module docstring)."""

    name = ""

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def once(self) -> List[Op]:
        """Operations run a single time per run, before the rounds."""
        return []

    def begin_round(self) -> None:
        """Reset state so that every round does the same work."""

    def close(self) -> None:
        """Release what the workload holds outside the process."""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# cluster_deploy
# ---------------------------------------------------------------------------

#: Per-round seeded networks: input (8, 8, 8) -> conv 16 -> conv 16 ->
#: 2x2 max pool -> linear 10, i.e. mixed3's layer sequence at half its
#: spatial size, under a 12 kB TCDM budget so every layer tiles.
SMALL_INPUT = (8, 8, 8)
SMALL_CHANNELS = 16
SMALL_BUDGET = 12 * 1024
#: The (first conv, second conv) precisions of the round's networks; the
#: classifiers take a seeded permutation of LINEAR_BITS.  (A 2-bit first
#: conv cannot pack the 8-channel input.)  The catalog anchor runs once per
#: run, outside the rounds: at five times the cost of these networks it
#: would put the latency percentiles of a round on the gap between them.
CONV_BITS = ((8, 8), (8, 2), (4, 4), (4, 2))
LINEAR_BITS = (8, 4, 4, 2)
ANCHOR_NETWORK = "mixed3"
ANCHOR_SERIES = "network/network/cycles"


def anchor_cycles() -> int:
    """The committed cycle count of the catalog ``mixed3`` deployment."""
    with open(TRAJECTORY) as handle:
        return int(json.load(handle)["entries"][ANCHOR_SERIES])


def mixed_network(rng: np.random.Generator, bits):
    """A mixed3-shaped network at per-layer precisions *bits*."""
    from repro.qnn import (MaxPool, QnnNetwork, QuantizedConv,
                           QuantizedLinear, random_activations,
                           random_weights)

    b0, b1, b2 = bits
    h, w, c = SMALL_INPUT
    ch = SMALL_CHANNELS
    net = QnnNetwork(name="mixed-%d-%d-%d" % bits)
    net.add(QuantizedConv(weights=random_weights((ch, 3, 3, c), b0, rng),
                          weight_bits=b0, in_bits=8, out_bits=b0, pad=1,
                          name="conv0"))
    net.add(QuantizedConv(weights=random_weights((ch, 3, 3, ch), b1, rng),
                          weight_bits=b1, in_bits=b0, out_bits=b1, pad=1,
                          name="conv1"))
    net.add(MaxPool(2, name="pool"))
    net.add(QuantizedLinear(
        weights=random_weights((10, (h // 2) * (w // 2) * ch), b2, rng),
        weight_bits=b2, in_bits=b1, out_bits=8, name="classifier"))
    return net, random_activations(SMALL_INPUT, 8, rng)


def _uncalibrate(network) -> None:
    """Drop requantization parameters a previous deployment derived, so
    every deployment calibrates from scratch like a fresh CLI run."""
    for layer in network.layers:
        if hasattr(layer, "shift"):
            layer.shift = None
        if hasattr(layer, "thresholds"):
            layer.thresholds = None


def deploy(network, x, input_shape, budget,
           expect_cycles: Optional[int] = None) -> OpResult:
    """Compile *network* for the 8-core cluster and execute it."""
    from repro.compiler import NetworkCompiler, PlanExecutor

    _uncalibrate(network)
    compiled = NetworkCompiler(network, input_shape, input_bits=8,
                               tcdm_budget=budget).compile()
    result = PlanExecutor(compiled).run(x)
    instructions = sum(layer.perf.instructions for layer in result.layers)
    problems = []
    if not result.verified:
        problems.append("tile outputs differ from the golden model")
    if result.output.shape != (network.layers[-1].weights.shape[0],):
        problems.append(f"output shape {result.output.shape}")
    if expect_cycles is not None and result.cycles != expect_cycles:
        problems.append(f"{result.cycles} cycles, committed trajectory "
                        f"has {expect_cycles}")
    return OpResult(sim_cycles=result.cycles, sim_instructions=instructions,
                    ok=not problems, detail="; ".join(problems),
                    counts={"tiles": compiled.total_tiles})


class ClusterDeploy(Workload):
    """Seeded mixed-precision networks compiled and run on 8 cores."""

    name = "cluster_deploy"

    def __init__(self, seed: int) -> None:
        from repro.compiler import build_network

        rng = _rng(seed, 1)
        linear = rng.permutation(LINEAR_BITS)
        self.nets = []
        for (b0, b1), b2 in zip(CONV_BITS, linear):
            self.nets.append(mixed_network(rng, (b0, b1, int(b2))))
        self.anchor = build_network(ANCHOR_NETWORK)
        self.anchor_cycles = anchor_cycles()
        self.order = [int(i) for i in rng.permutation(len(self.nets))]

    def digest(self) -> str:
        parts = [self.order]
        for net, x in self.nets:
            parts.append(x)
            parts.extend(layer.weights for layer in net.layers
                         if hasattr(layer, "weights"))
        return _digest(*parts)

    def _op(self, index: int) -> Op:
        net, x = self.nets[index]
        return Op(net.name, lambda: deploy(net, x, SMALL_INPUT, SMALL_BUDGET))

    def ops(self) -> List[Op]:
        return [self._op(i) for i in self.order]

    def once(self) -> List[Op]:
        a = self.anchor
        return [Op(ANCHOR_NETWORK, lambda: deploy(
            a.network, a.input, a.input_shape, a.tcdm_budget,
            expect_cycles=self.anchor_cycles))]


# ---------------------------------------------------------------------------
# kernel_matrix
# ---------------------------------------------------------------------------

#: The large program of each configuration: half the scaled benchmark
#: layer, in a seeded orientation (4x8 or 8x4 pixels).
LARGE_CHANNELS = (32, 16)
#: The small program: 4x4 pixels, 16 -> 8 channels.
SMALL_GEOMETRY = (4, 4, 16, 8)


def conv_golden(acts, weights, bits: int, quant: str):
    """Expected conv-layer output, plus the kernel's requant argument."""
    from repro.qnn import conv2d_golden, requantize_shift, \
        thresholds_from_accumulators

    acc = conv2d_golden(acts, weights, stride=1, pad=1)
    if quant == "shift":
        return requantize_shift(acc, 8, 8, signed=False), {"shift": 8}
    table = thresholds_from_accumulators(acc, bits)
    return table.quantize(acc, channel_axis=-1), {"thresholds": table}


def run_conv(geometry, bits: int, isa: str, quant: str, weights, acts,
             engine: str = "block") -> OpResult:
    """Build one conv kernel, run it on a single core, check the output."""
    from repro.core.cpu import Cpu
    from repro.kernels import ConvConfig, ConvKernel
    from repro.soc.memmap import L2_SIZE
    from repro.soc.memory import Memory

    kernel = ConvKernel(ConvConfig(geometry=geometry, bits=bits, isa=isa,
                                   quant=quant))
    expected, args = conv_golden(acts, weights, bits, quant)
    cpu = Cpu(isa=isa, mem=Memory(max(kernel.layout.end + 4096, L2_SIZE)),
              engine=engine)
    run = kernel.run(weights, acts, cpu=cpu, **args)
    ok = bool(np.array_equal(run.output, expected))
    stats = cpu.engine_stats or {}
    counts = {key: stats[key] for key in
              ("blocks_translated", "block_hits", "fused_dispatches")
              if key in stats}
    return OpResult(sim_cycles=run.perf.cycles,
                    sim_instructions=run.perf.instructions, ok=ok,
                    detail="" if ok else "output differs from conv2d_golden",
                    counts=counts)


class KernelMatrix(Workload):
    """The paper's single-core kernel matrix on the block engine."""

    name = "kernel_matrix"

    def __init__(self, seed: int) -> None:
        from repro.eval.workloads import SUITE_CONFIGS
        from repro.qnn import ConvGeometry, random_activations, \
            random_weights

        rng = _rng(seed, 2)
        self.specs = []
        for bits, isa, quant in SUITE_CONFIGS:
            h, w = (4, 8) if rng.integers(2) else (8, 4)
            large = ConvGeometry(h, w, *LARGE_CHANNELS, pad=1)
            small = ConvGeometry(*SMALL_GEOMETRY, pad=1)
            # Two distinct programs per configuration; the small one runs
            # twice on fresh tensors, so one op in three re-uses a
            # translated program.
            for geometry in (large, small, small):
                weights = random_weights(
                    (geometry.out_ch, 3, 3, geometry.in_ch), bits, rng)
                acts = random_activations(
                    (geometry.in_h, geometry.in_w, geometry.in_ch), bits, rng)
                self.specs.append((geometry, bits, isa, quant, weights, acts))
        self.order = [int(i) for i in rng.permutation(len(self.specs))]

    def digest(self) -> str:
        parts = [self.order]
        for g, bits, isa, quant, weights, acts in self.specs:
            parts += [[g.in_h, g.in_w, g.in_ch, g.out_ch, bits, isa, quant],
                      weights, acts]
        return _digest(*parts)

    def _op(self, index: int) -> Op:
        g, bits, isa, quant, weights, acts = self.specs[index]
        return Op(f"conv{bits}-{isa}-{quant}-{g.in_h}x{g.in_w}x{g.in_ch}",
                  lambda: run_conv(g, bits, isa, quant, weights, acts))

    def ops(self) -> List[Op]:
        return [self._op(i) for i in self.order]

    def begin_round(self) -> None:
        # A round starts with an empty translation cache, as every CLI
        # invocation does, so translation cost stays inside the timed ops
        # at the same program hit ratio in every round.
        from repro.engine.blocks import GLOBAL_CACHE

        GLOBAL_CACHE.clear()


# ---------------------------------------------------------------------------
# design_sweep
# ---------------------------------------------------------------------------

#: Axes taken from the ``paper`` space.  Memory sizes change only the
#: spec digests, area and leakage, never the simulated cycles, so the
#: seed draws them without changing the amount of work.
SWEEP_CORES = (2, 8)
SWEEP_TCDM_KB = (64, 96, 128)
SWEEP_L2_KB = (512, 768, 1024)
#: The cold sweep and its repeat cover COLD_POINTS; the overlapping sweep
#: shares the 4-bit hw point with them and adds the 2-bit one.
COLD_POINTS = ((8, "shift"), (4, "hw"))
OVERLAP_POINTS = ((4, "hw"), (2, "hw"))


def sweep_space(name: str, tcdm_kb, l2_kb, points):
    from repro.explore import SearchSpace, named_space

    paper = named_space("paper")
    return SearchSpace(name=name, cores=SWEEP_CORES, tcdm_kb=tuple(tcdm_kb),
                       l2_kb=(l2_kb,), points=points, out_ch=paper.out_ch,
                       reduction=paper.reduction)


def _frontier(report) -> Dict[str, tuple]:
    points = {p["label"]: p for p in report.points}
    return {label: (points[label]["cycles"], points[label]["energy_uj"])
            for label in report.frontier_labels()}


class DesignSweep(Workload):
    """Staged design-space sweeps through an inline cached service."""

    name = "design_sweep"

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, 3)
        small = int(rng.choice(SWEEP_TCDM_KB))
        l2 = int(rng.choice(SWEEP_L2_KB))
        tcdm = (small, 2 * small)
        self.spaces = {
            "cold": sweep_space("bench-cold", tcdm, l2, COLD_POINTS),
            "overlap": sweep_space("bench-overlap", tcdm, l2, OVERLAP_POINTS),
        }
        self._tmp: Optional[str] = None
        self.service = None
        # The cold sweep's points and frontier, which the later sweeps of
        # the round must reproduce from the cache.
        self._cold: Dict[str, int] = {}
        self._cold_frontier: Dict[str, tuple] = {}

    def digest(self) -> str:
        return _digest({k: s.to_dict() for k, s in self.spaces.items()})

    def _sweep(self, kind: str) -> OpResult:
        from repro.explore import DesignSpaceExplorer

        space = self.spaces["overlap" if kind == "overlap" else "cold"]
        report = DesignSpaceExplorer(space, service=self.service).run()
        problems = []
        for p in report.points:
            hi = p["static_cycles_hi"]
            if p["cycles"] < p["static_cycles_lo"] or (
                    hi is not None and p["cycles"] > hi):
                problems.append(f"{p['label']} outside its static bounds")
        if report.failed:
            problems.append(f"{len(report.failed)} points failed")
        stats = report.sweep_stats
        executed, cached = stats["executed"], stats["cached"]
        expect = {"cold": (cached == 0 and executed > 0),
                  "overlap": (cached > 0 and executed > 0),
                  "repeat": (executed == 0 and cached > 0)}[kind]
        if not expect:
            problems.append(f"{kind} sweep ran {executed} and read "
                            f"{cached} cached points")
        frontier = _frontier(report)
        if kind == "cold":
            self._cold = {p["label"]: p["cycles"] for p in report.points}
            self._cold_frontier = frontier
        elif kind == "repeat" and frontier != self._cold_frontier:
            problems.append("cached frontier differs from the uncached one")
        for p in report.points:
            if p["cached"] and self._cold.get(p["label"], p["cycles"]) \
                    != p["cycles"]:
                problems.append(f"{p['label']}: cached cycles differ")
        instructions = sum(p["instructions"] for p in report.points
                           if not p["cached"])
        return OpResult(
            sim_cycles=sum(p["cycles"] for p in report.points),
            sim_instructions=instructions, ok=not problems,
            detail="; ".join(problems),
            counts={"candidates": len(report.stage.scores),
                    "pruned": len(report.stage.pruned),
                    "simulated": executed, "cached": cached})

    def ops(self) -> List[Op]:
        return [Op(f"{kind}-sweep", lambda kind=kind: self._sweep(kind))
                for kind in ("cold", "overlap", "repeat")]

    def begin_round(self) -> None:
        from repro.serve import ResultCache, SimulationService

        self.close()
        WORK_DIR.mkdir(exist_ok=True)
        self._tmp = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
        self.service = SimulationService(cache=ResultCache(self._tmp),
                                         workers=0)

    def close(self) -> None:
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()


# ---------------------------------------------------------------------------
# traced_profile
# ---------------------------------------------------------------------------

#: (api, catalog kernel, cores, geometry) — geometry "orient" is the
#: seeded 4x8 / 8x4 half of the scaled layer, "cluster" the 8x4 half for
#: 8 cores, None the catalog's own.  Profile and trace, 1 and 8 cores;
#: matmul_4bit on 8 cores goes through both tracers, which must agree.
PROFILE_OPS = (
    ("profile", "conv_4bit", 1, "orient"),
    ("profile", "conv_2bit", 1, "orient"),
    ("profile", "conv_4bit", 8, "cluster"),
    ("profile", "matmul_4bit", 8, None),
    ("trace", "matmul_4bit", 8, None),
    ("trace", "matmul_2bit", 1, None),
)


def profile_op(name: str, cores: int, geometry) -> OpResult:
    """``repro profile``: per-region counters must sum to the run's."""
    from repro.trace.profile import profile_kernel

    prof = profile_kernel(name, cores=cores, geometry=geometry)
    total = prof.registry.total()
    problems = []
    if total.instructions != prof.instructions:
        problems.append(f"regions hold {total.instructions} of "
                        f"{prof.instructions} instructions")
    if cores == 1 and total.cycles != prof.cycles:
        problems.append(f"regions hold {total.cycles} of {prof.cycles} "
                        f"cycles")
    return OpResult(sim_cycles=prof.cycles, sim_instructions=prof.instructions,
                    ok=not problems, detail="; ".join(problems))


def trace_op(name: str, cores: int) -> OpResult:
    """``repro trace``: event trace plus its Chrome/Perfetto export."""
    from repro.errors import TraceError
    from repro.trace.perfetto import chrome_trace, validate_chrome_trace
    from repro.trace.profile import trace_kernel

    tracer = trace_kernel(name, cores=cores)
    payload = chrome_trace(tracer, title=name)
    problems = []
    try:
        validate_chrome_trace(payload)
    except TraceError as exc:
        problems.append(f"invalid trace export: {exc}")
    cycles = max(tracer.end_cycles.values()) if tracer.end_cycles else 0
    instructions = sum(span.instructions for span in tracer.region_spans)
    return OpResult(sim_cycles=cycles, sim_instructions=instructions,
                    ok=not problems and cycles > 0,
                    detail="; ".join(problems),
                    counts={"events": len(payload["traceEvents"])})


class TracedProfile(Workload):
    """``repro profile`` / ``repro trace`` on catalog kernels."""

    name = "traced_profile"

    def __init__(self, seed: int) -> None:
        from repro.qnn import ConvGeometry

        rng = _rng(seed, 4)
        self.specs = []
        for api, kernel, cores, geometry in PROFILE_OPS:
            if geometry == "orient":
                h, w = (4, 8) if rng.integers(2) else (8, 4)
                geometry = ConvGeometry(h, w, *LARGE_CHANNELS, pad=1)
            elif geometry == "cluster":
                geometry = ConvGeometry(8, 4, *LARGE_CHANNELS, pad=1)
            self.specs.append((api, kernel, cores, geometry))
        self.order = [int(i) for i in rng.permutation(len(self.specs))]
        #: (kernel, cores) -> cycles, for kernels both profiled and traced
        #: at the catalog geometry: the two tracers must agree.
        self._cycles: Dict[tuple, int] = {}

    def digest(self) -> str:
        return _digest([self.order] + [
            [api, kernel, cores,
             None if g is None else [g.in_h, g.in_w, g.in_ch, g.out_ch]]
            for api, kernel, cores, g in self.specs])

    def _checked(self, key, result: OpResult) -> OpResult:
        if key is not None:
            seen = self._cycles.setdefault(key, result.sim_cycles)
            if seen != result.sim_cycles:
                result.ok = False
                result.detail += (f" profile and trace disagree: {seen} vs "
                                  f"{result.sim_cycles} cycles")
        return result

    def _op(self, index: int) -> Op:
        api, kernel, cores, geometry = self.specs[index]
        label = f"{api}-{kernel}-{cores}c"
        key = (kernel, cores) if geometry is None else None
        if api == "profile":
            return Op(label, lambda: self._checked(
                key, profile_op(kernel, cores, geometry)))
        return Op(label, lambda: self._checked(key, trace_op(kernel, cores)))

    def ops(self) -> List[Op]:
        return [self._op(i) for i in self.order]


# ---------------------------------------------------------------------------
# kernel_tools
# ---------------------------------------------------------------------------

class KernelTools(Workload):
    """The kernel matrix, then the design sweeps, then profile and trace.

    One workload for everything that is not a network deployment, so
    that a run of the benchmark can be long: every round issues the
    kernel matrix's operations, the three sweeps and the profile/trace
    operations, each part in its own seeded order.
    """

    name = "kernel_tools"

    def __init__(self, seed: int) -> None:
        self.parts = (KernelMatrix(seed), DesignSweep(seed),
                      TracedProfile(seed))

    def digest(self) -> str:
        return _digest([part.digest() for part in self.parts])

    def ops(self) -> List[Op]:
        return [op for part in self.parts for op in part.ops()]

    def begin_round(self) -> None:
        for part in self.parts:
            part.begin_round()

    def close(self) -> None:
        for part in self.parts:
            part.close()


WORKLOADS = {cls.name: cls for cls in (ClusterDeploy, KernelTools)}
