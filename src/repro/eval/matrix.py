"""The kernel matrix: one table of points behind every kernel surface.

:data:`POINTS` lists {8, 4, 2}-bit conv and MatMul on RI5CY and
XpulpNN, ``pv.qnt`` against the software staircase, one core and the
cluster, plus the layer kernels around them.  ``catalog`` points
(``repro lint --kernels``, ``repro cost``) build at
:data:`LINT_GEOMETRY`, named with hyphens; ``suite`` points (``repro
profile`` / ``trace``, the report suite's ``SUITE_CONFIGS``) build at
:func:`suite_geometry`, named with underscores.  :func:`resolve`
retargets a suite name and rejects a point the table does not have by
name, before anything is built; :func:`build` constructs a kernel
through :func:`repro.kernels.select`; :func:`run` feeds it its seeded
tensors on a Cpu or a Cluster with an observer attached.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, List, NamedTuple, Optional, Tuple

from ..errors import KernelError, ReproError, TraceError
from ..qnn.layers import ConvGeometry
from ..target.names import RI5CY, XPULPNN

_SEED = 2020  # DATE 2020 (the benchmark suite's data)

#: Geometry satisfying every kernel's packing constraints at 8/4/2-bit.
LINT_GEOMETRY = ConvGeometry(in_h=6, in_w=6, in_ch=16, out_ch=8,
                             kh=3, kw=3, stride=1, pad=1)

#: The cluster-scaling MatMul tile — 64 filters over a 256-deep
#: reduction — as the 1x1 convolution over two pixels it computes.
MATMUL_TILE = ConvGeometry(in_h=1, in_w=2, in_ch=256, out_ch=64,
                           kh=1, kw=1)


@dataclass(frozen=True)
class Point:
    """One kernel of the matrix: what runs, at which precision, where."""

    kind: str                  # conv | matmul | depthwise | pool | linear | relu
    bits: int
    isa: str = XPULPNN
    quant: str = "shift"       # shift | hw | sw | none (conv and matmul)
    cores: int = 1
    blocking: str = "2x2"      # matmul: 4x2 is the raw-accumulator ablation
    op: str = ""               # pool: max | avg
    #: The lists the point is on: "catalog", "suite".
    lists: Tuple[str, ...] = field(default=(), compare=False)

    @property
    def name(self) -> str:
        """The hyphenated catalog name (``repro lint`` / ``repro cost``)."""
        if self.cores > 1:
            return f"parallel-{self.kind}-{self.bits}b"
        if self.kind == "pool":
            return f"pool-{self.op}-{self.bits}b"
        if self.kind not in ("conv", "matmul"):
            return f"{self.kind}-{self.bits}b"
        variant = self.quant if self.blocking == "2x2" else self.blocking
        return f"{self.kind}-{self.bits}b-{self.isa}-{variant}"

    @property
    def suite_name(self) -> str:
        """The underscored suite name (``repro profile`` / ``trace``)."""
        suffix = (f"_{RI5CY}" if self.isa == RI5CY
                  else "_sw" if self.quant == "sw" else "")
        return f"{self.kind}_{self.bits}bit{suffix}"

    @property
    def description(self) -> str:
        """What the suite point runs, for ``repro profile --list``."""
        where = f"{self.bits}-bit on {self.isa} ({self.quant} quant)"
        if self.kind == "conv":
            return f"conv layer, {where}, benchmark geometry"
        return (f"matmul tile {MATMUL_TILE.out_ch}x{MATMUL_TILE.reduction}, "
                f"{where}; --cores N shards it on a cluster")


def _points() -> Tuple[Point, ...]:
    x, r = XPULPNN, RI5CY
    c, s, cs = ("catalog",), ("suite",), ("catalog", "suite")
    return (
        # MatMul microkernels (the Fig. 6 sweep) and the 4x2 ablation.
        Point("matmul", 8, x, "shift", lists=cs),
        Point("matmul", 8, r, "shift", lists=c),
        Point("matmul", 4, x, "hw", lists=cs),
        Point("matmul", 4, x, "sw", lists=c),
        Point("matmul", 4, r, "sw", lists=c),
        Point("matmul", 2, x, "hw", lists=cs),
        Point("matmul", 2, r, "sw", lists=c),
        Point("matmul", 4, x, "none", blocking="4x2", lists=c),
        # Convolution layers.
        Point("conv", 8, x, "shift", lists=cs),
        Point("conv", 8, r, "shift", lists=c),
        Point("conv", 4, x, "hw", lists=cs),
        Point("conv", 4, x, "sw", lists=s),
        Point("conv", 4, r, "sw", lists=cs),
        Point("conv", 2, x, "hw", lists=cs),
        Point("conv", 2, x, "sw", lists=s),
        Point("conv", 2, r, "sw", lists=s),
        # The layer kernels around them.
        Point("depthwise", 8, lists=c),
        *(Point("pool", bits, op=op, lists=c)
          for bits in (8, 4, 2) for op in ("max", "avg")),
        Point("linear", 8, lists=c),
        *(Point("relu", bits, lists=c) for bits in (8, 4, 2)),
        # Cluster-parallel variants, on a small cluster.
        Point("matmul", 4, x, "hw", cores=2, lists=c),
        Point("matmul", 8, x, "shift", cores=2, lists=c),
        Point("conv", 4, x, "hw", cores=2, lists=c),
    )


#: The matrix, in catalog order.
POINTS: Tuple[Point, ...] = _points()


def catalog_points() -> List[Point]:
    return [p for p in POINTS if "catalog" in p.lists]


def suite_points() -> List[Point]:
    """The suite points: convs, then MatMuls; XpulpNN, its software-
    staircase ablation, then RI5CY; wider operands first."""
    return sorted((p for p in POINTS if "suite" in p.lists),
                  key=lambda p: (p.kind != "conv", p.isa == RI5CY,
                                 p.quant == "sw", -p.bits))


def catalog_point(name: str) -> Point:
    points = {p.name: p for p in catalog_points()}
    if name not in points:
        raise ReproError(f"unknown catalog kernel {name!r}; available: "
                         f"{', '.join(points)}")
    return points[name]


def suite_geometry(point: Point) -> ConvGeometry:
    """Where a suite point runs: convs at the benchmark geometry
    (``REPRO_FULL=1``: the paper's layer), MatMuls at the scaling tile."""
    if point.kind == "conv":
        from .workloads import benchmark_geometry

        return benchmark_geometry()
    return MATMUL_TILE


def unsupported(point: Point, geometry: ConvGeometry) -> Optional[str]:
    """Why *point* has no kernel at *geometry*, or None: the kernels'
    own rule (:func:`repro.kernels.matmul.baseline_limit`), asked before
    anything is built."""
    from ..kernels.matmul import baseline_limit

    return baseline_limit(
        point.bits, point.isa, parallel=point.cores > 1,
        reduction=geometry.reduction if point.kind == "matmul" else 0)


def retarget(point: Point, target, cores: int = 1) -> Point:
    """*point* on *target*: the ISA comes from the spec, ``hw``
    quantization falls back to ``sw`` on cores without ``pv.qnt``, and a
    cluster target's core count replaces *cores*."""
    from ..target import get_target

    spec = get_target(target)
    if not spec.riscv:
        raise TraceError(
            f"target {spec.name!r} is a cost-model baseline; built-in "
            f"kernels profile on RISC-V targets only")
    quant = "sw" if point.quant == "hw" and not spec.hw_quant else point.quant
    return replace(point, isa=spec.isa, quant=quant,
                   cores=spec.cores if spec.cluster else cores)


def resolve(name: str, cores: int = 1, target=None,
            geometry: Optional[ConvGeometry] = None
            ) -> Tuple[Point, ConvGeometry]:
    """The point and geometry the suite kernel *name* runs as.  The name
    fixes *what* runs; *target* decides *where* (:func:`retarget`),
    otherwise the point's own ISA runs on *cores* cores.  A point the
    table does not have raises :class:`~repro.errors.KernelError`."""
    known = {p.suite_name: p for p in suite_points()}
    if name not in known:
        raise TraceError(
            f"unknown kernel {name!r}; choose from: {', '.join(sorted(known))}")
    point = (replace(known[name], cores=cores) if target is None
             else retarget(known[name], target, cores))
    geometry = geometry or suite_geometry(point)
    reason = unsupported(point, geometry)
    if reason:
        where = point.isa + (f" x{point.cores}" if point.cores > 1 else "")
        raise KernelError(
            f"{name} on {where} is not in the kernel matrix: {reason}")
    return point, geometry


def caveats(point: Point) -> List[str]:
    """The retargets of suite *point* that :func:`unsupported` rejects."""
    from ..target import riscv_targets

    moves = [("--cores N > 1", replace(point, cores=2))] + [
        (f"--target {spec.name}", retarget(point, spec))
        for spec in riscv_targets()]
    rejected: dict = {}
    for flag, moved in moves:
        reason = unsupported(moved, suite_geometry(point))
        if reason:
            rejected.setdefault(reason, []).append(flag)
    return [f"not with {' or '.join(flags)}: {reason}"
            for reason, flags in rejected.items()]


def build(point: Point, geometry: ConvGeometry):
    """The kernel of *point*: convs at *geometry*, MatMuls at its tile
    (``out_ch`` filters over the ``reduction``), the layer kernels at
    small fixed shapes.  ``.program`` is its linked image."""
    from ..kernels import select
    from ..soc.memmap import TCDM_SIZE
    from ..target import get_target

    shape = {
        "conv": {"geometry": geometry},
        "matmul": {"reduction": geometry.reduction,
                   "out_ch": geometry.out_ch},
        "depthwise": {"in_h": 6, "in_w": 6, "channels": 8},
        "pool": {"in_h": 4, "in_w": 4, "channels": 128 // point.bits,
                 "op": point.op},
        "linear": {"in_features": 16, "out_features": 8},
        "relu": {"elements": 32},
    }[point.kind]
    if point.blocking != "2x2":
        shape["blocking"] = point.blocking
    spec = get_target(point.isa)
    if point.cores > 1:
        spec = spec.evolve(name=f"{spec.name}-x{point.cores}",
                           cores=point.cores, cluster=True,
                           tcdm_bytes=TCDM_SIZE)
    return select(point.kind, point.bits, spec, quant=point.quant,
                  **shape).kernel


#: ``(point, geometry, seed) -> (draw, args, kwargs)``, most recent last
_DRAWS: "OrderedDict[tuple, tuple]" = OrderedDict()
_MAX_DRAWS = 16


def operands(point: Point, geometry: ConvGeometry,
             c) -> Tuple[tuple, tuple, dict]:
    """The seeded ``(draw, args, kwargs)`` the kernel of *point* at
    *geometry* (config *c*) runs on, drawn once per process: a run and
    its cache key (:func:`repro.serve.runners.cache_key_parts`) share
    the draw.  The arrays are read-only; *kwargs* is the caller's."""
    key = (point, geometry, _SEED)
    drawn = _DRAWS.get(key)
    if drawn is None:
        drawn = _DRAWS[key] = _operands(point, c)
        for value in drawn[0]:
            for array in (value, getattr(value, "thresholds", None)):
                if hasattr(array, "flags"):
                    array.flags.writeable = False
        if len(_DRAWS) > _MAX_DRAWS:
            _DRAWS.popitem(last=False)
    else:
        _DRAWS.move_to_end(key)
    draw, args, kwargs = drawn
    return draw, args, dict(kwargs)


def _operands(point: Point, c) -> Tuple[tuple, tuple, dict]:
    """Seeded ``(draw, args, kwargs)`` for the kernel of config *c*, all
    from seed 2020+bits.  *draw* is what was drawn: the conv's ``(w, x,
    acc, thresholds)``, weights then activations, with the golden
    accumulators and (sub-byte) the staircase fitted to them; the
    MatMul's ``matmul_workload`` tuple ``(w, x0, x1, thresholds)``; the
    layer kernels' operands."""
    import numpy as np

    from ..qnn import conv2d_golden, random_activations, random_weights
    from ..qnn import thresholds_from_accumulators

    if point.kind == "matmul":
        from .cluster_scaling import matmul_workload

        draw = matmul_workload(point.bits, c.out_ch, c.reduction,
                               _SEED + point.bits)
        return draw, draw[:3], {"thresholds": draw[3], "shift": 8}
    rng = np.random.default_rng(_SEED + point.bits)

    def signed(*shape):
        return random_weights(shape, point.bits, rng)

    def unsigned(*shape):
        return random_activations(shape, point.bits, rng)

    if point.kind == "conv":
        g = c.geometry
        w = signed(g.out_ch, g.kh, g.kw, g.in_ch)
        x = unsigned(g.in_h, g.in_w, g.in_ch)
        acc = conv2d_golden(x, w, stride=g.stride, pad=g.pad)
        table = (None if point.bits == 8
                 else thresholds_from_accumulators(acc, point.bits))
        return (w, x, acc, table), (w, x), {"thresholds": table, "shift": 8}
    args = {
        "depthwise": lambda: (signed(c.kh, c.kw, c.channels),
                              unsigned(c.in_h, c.in_w, c.channels)),
        "pool": lambda: (unsigned(c.in_h, c.in_w, c.channels),),
        "linear": lambda: (signed(c.out_features, c.in_features),
                           unsigned(c.in_features)),
        "relu": lambda: (signed(c.elements),),
    }[point.kind]()
    return args, args, {}


def region_table(program, sim):
    """An *attach* for :func:`run`: a region table on the Cpu or Cluster."""
    from ..core.regions import RegionCounters

    sim.regions = RegionCounters(program=program)
    return sim.regions


class Execution(NamedTuple):
    """One run of a matrix point: the kernel, the Cpu or Cluster it ran
    on, its ``KernelRun`` / ``ClusterKernelRun``, what *attach* returned
    and the seeded draw it ran on (see :func:`_operands`)."""

    kernel: Any
    sim: Any
    result: Any
    observer: Any
    draw: tuple


def run(point: Point, geometry: ConvGeometry, attach=None,
        thresholds=None) -> Execution:
    """Build *point* at *geometry* and run it on its seeded tensors, on
    a Cluster when multi-core, else on a Cpu sized to the kernel's layout.
    ``attach(program, sim)`` runs first: it attaches an observer (a
    region table, a tracer, ``sim.enable_access_trace()``) and returns
    it.  *thresholds* replaces the draw's staircase (a sub-byte conv or
    MatMul quantizes with it instead)."""
    kernel = build(point, geometry)
    draw, args, kwargs = operands(point, geometry, kernel.config)
    if thresholds is not None:
        kwargs["thresholds"] = thresholds
    if point.cores > 1:
        from ..cluster import Cluster

        sim = kwargs["cluster"] = Cluster(num_cores=point.cores,
                                          isa=point.isa)
    else:
        from ..core.cpu import Cpu
        from ..soc.memmap import L2_SIZE
        from ..soc.memory import Memory

        size = max(kernel.layout.end + 4096, L2_SIZE)
        sim = kwargs["cpu"] = Cpu(isa=point.isa, mem=Memory(size))
    observer = attach(kernel.program, sim) if attach else None
    return Execution(kernel, sim, kernel.run(*args, **kwargs), observer,
                     draw)
