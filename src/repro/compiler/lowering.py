"""Lowering: from a :class:`~repro.qnn.network.QnnNetwork` to per-layer
tile schedules, kernel variants, and a validated TCDM plan.

The compiled kernels differ from the interactive cluster kernels in two
ways, both forced by the tiled execution model:

* **hart guard** — a tile may use fewer cores than the cluster has
  (e.g. a 3-row remainder tile on an 8-core cluster).  Every compiled
  program starts with ``mhartid >= active -> skip``, so surplus harts
  fall straight through to ``ebreak``.
* **no event-unit barrier** — the barrier releases only when *all*
  cluster cores arrive, which surplus harts never would.  The schedule
  executor instead runs the cluster to full halt between tiles, so the
  host is the synchronization point and the wall clock is the slowest
  active hart.

Each layer gets up to eight kernel *variants* (full/remainder sizes per
tiled axis); they are all linked at ``TCDM_BASE`` and swapped into the
plan's code slot between tiles (instruction fetch is modeled from the
loaded image, so reloading is free — the code slot exists to keep the
TCDM budget honest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..asm.builder import KernelBuilder
from ..errors import KernelError
from ..isa.zicsr import CSR_MHARTID
from ..kernels.common import align_up
from ..target.names import XPULPNN
from ..kernels.im2col import im2col_buffer_bytes
from ..kernels.linear import LinearConfig, LinearKernel
from ..kernels.matmul import k_bytes
from ..kernels.parallel import ParallelConvConfig, ParallelConvKernel
from ..kernels.pooling import PoolConfig, PoolKernel
from ..qnn.network import AvgPool, MaxPool, QuantizedConv, QuantizedLinear
from ..qnn.thresholds import tree_stride
from ..soc.memmap import TCDM_BASE
from .planner import TcdmPlan, TcdmPlanner
from .tiling import (
    CODE_ALLOWANCE,
    ConvTiling,
    TileSearchStats,
    conv_tile_geometry,
    largest_divisor_at_most,
    search_conv_tiling,
    search_linear_tiling,
    search_pool_tiling,
)


def _emit_hart_guard(b: KernelBuilder, active: int, skip: str) -> None:
    with b.region("prologue"):
        b.emit("csrrs", "t0", CSR_MHARTID, "zero")
        b.li("t1", active)
        b.emit("bge", "t0", "t1", skip)


class TiledConvKernel(ParallelConvKernel):
    """Row-sharded conv for compiled schedules: hart-guarded, barrierless.

    ``config.num_cores`` is the tile's *active* core count; harts beyond
    it skip to the halt.  The host serializes tiles after the cluster
    halts, so no event-unit barrier is emitted.
    """

    def _emit_prologue(self, b: KernelBuilder) -> None:
        self._skip = b.fresh_label("skip")
        _emit_hart_guard(b, self.config.num_cores, self._skip)
        super()._emit_prologue(b)

    def _emit_epilogue(self, b: KernelBuilder) -> None:
        b.label(self._skip)
        b.ebreak()


class _HartGuardMixin:
    """Single-core kernel on an N-core SPMD cluster: hart 0 computes,
    the rest skip to the halt."""

    def _emit(self, b: KernelBuilder) -> None:
        skip = b.fresh_label("skip")
        _emit_hart_guard(b, 1, skip)
        super()._emit(b)            # ends with the base kernel's ebreak
        b.label(skip)
        b.ebreak()


class TiledLinearKernel(_HartGuardMixin, LinearKernel):
    pass


class TiledPoolKernel(_HartGuardMixin, PoolKernel):
    pass


# ---------------------------------------------------------------------------
# Tile specs and layer plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvTileSpec:
    index: int
    group: int                  # group ordinal (weights reload boundary)
    r0: int
    rows: int
    q0: int
    cols: int
    c0: int
    chans: int
    key: Tuple[int, int, int]   # (rows, cols, chans) -> kernel variant


@dataclass(frozen=True)
class LinearTileSpec:
    index: int
    n0: int
    count: int
    key: int                    # neuron count -> kernel variant


@dataclass(frozen=True)
class PoolTileSpec:
    index: int
    r0: int                     # first output row
    rows: int                   # output rows in this tile
    key: int                    # row count -> kernel variant


@dataclass
class LayerPlan:
    """Everything the executor needs to run one layer tile-by-tile."""

    index: int
    name: str
    kind: str                   # "conv" | "pool" | "linear"
    layer: object
    bits: int                   # operand width the kernels compute at
    out_bits: int
    quant: str                  # conv: "shift" | "hw"; others ""
    in_shape: Tuple[int, ...]
    out_shape: Tuple[int, ...]
    tiling: object
    plan: TcdmPlan
    kernels: Dict[object, object] = field(default_factory=dict)
    tiles: List[object] = field(default_factory=list)
    macs: int = 0

    @property
    def cores(self) -> int:
        return max(getattr(k.config, "num_cores", 1)
                   for k in self.kernels.values())

    def programs(self) -> Iterator[Tuple[str, object]]:
        for key, kernel in self.kernels.items():
            yield f"{self.name}/{key}", kernel.program

    def describe(self) -> str:
        return (f"{self.name}: {self.kind} {self.bits}-bit "
                f"{self.in_shape} -> {self.out_shape}, "
                f"{self.tiling.describe()}, "
                f"plan {self.plan.used_bytes} B")


@dataclass
class CompiledNetwork:
    """A fully lowered network: per-layer plans plus the shared config."""

    network: object
    input_shape: Tuple[int, ...]
    input_bits: int
    num_cores: int
    isa: str
    tcdm_budget: int
    layers: List[LayerPlan] = field(default_factory=list)

    @property
    def total_tiles(self) -> int:
        return sum(len(p.tiles) for p in self.layers)

    @property
    def total_dma_bytes(self) -> int:
        return sum(p.tiling.dma_bytes for p in self.layers)

    @property
    def tile_search(self) -> TileSearchStats:
        """Search effort aggregated over every layer's tiling."""
        total = TileSearchStats()
        for plan in self.layers:
            stats = getattr(plan.tiling, "search", None)
            if stats is not None:
                total = total.merge(stats)
        return total

    def programs(self) -> Iterator[Tuple[str, object]]:
        for plan in self.layers:
            yield from plan.programs()

    def render(self) -> str:
        lines = [
            f"compiled {getattr(self.network, 'name', 'network')}: "
            f"{len(self.layers)} layers, {self.total_tiles} tiles, "
            f"{self.num_cores} cores, TCDM budget {self.tcdm_budget} B",
        ]
        for plan in self.layers:
            lines.append("  " + plan.describe())
        stats = self.tile_search
        lines.append(
            f"  tile search: {stats.candidates} candidates, "
            f"{stats.ranked} ranked statically")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "network": getattr(self.network, "name", "network"),
            "cores": self.num_cores,
            "tcdm_budget": self.tcdm_budget,
            "total_tiles": self.total_tiles,
            "total_dma_bytes": self.total_dma_bytes,
            "tile_search": self.tile_search.to_dict(),
            "layers": [
                {
                    "name": p.name,
                    "kind": p.kind,
                    "bits": p.bits,
                    "tiles": len(p.tiles),
                    "cores": p.cores,
                    "plan_bytes": p.plan.used_bytes,
                    "dma_bytes": p.tiling.dma_bytes,
                    "macs": p.macs,
                    "static_cycles": getattr(p.tiling, "static_cycles", 0),
                    "tile_search": (
                        p.tiling.search.to_dict()
                        if getattr(p.tiling, "search", None) else None),
                }
                for p in self.layers
            ],
        }


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

class NetworkCompiler:
    """Lower a sequential QNN into tiled, double-buffered layer plans."""

    def __init__(self, network, input_shape: Tuple[int, ...],
                 input_bits: int = 8, num_cores: int = None,
                 isa: str = None, target=None,
                 tcdm_budget: int = None,
                 code_allowance: int = CODE_ALLOWANCE) -> None:
        from ..target import get_target
        from ..target.names import CLUSTER_PREFIX

        if target is None:
            target = f"{CLUSTER_PREFIX}{num_cores if num_cores else 8}"
        self.spec = get_target(target)
        if (self.spec.isa != XPULPNN or not self.spec.cluster
                or (isa is not None and isa != XPULPNN)):
            raise KernelError(
                "the deployment compiler targets the XpulpNN cluster")
        if num_cores is not None and num_cores != self.spec.cores:
            raise KernelError(
                f"num_cores={num_cores} conflicts with target "
                f"{self.spec.name!r} ({self.spec.cores} cores)")
        self.network = network
        self.input_shape = tuple(input_shape)
        self.input_bits = input_bits
        self.num_cores = self.spec.cores
        self.isa = self.spec.isa
        self.tcdm_budget = (self.spec.tcdm_bytes if tcdm_budget is None
                            else tcdm_budget)
        self.code_allowance = code_allowance

    def compile(self) -> CompiledNetwork:
        compiled = CompiledNetwork(
            network=self.network, input_shape=self.input_shape,
            input_bits=self.input_bits, num_cores=self.num_cores,
            isa=self.isa, tcdm_budget=self.tcdm_budget)
        shape = self.input_shape
        bits = self.input_bits
        for index, layer in enumerate(self.network.layers):
            if isinstance(layer, QuantizedConv):
                plan = self._lower_conv(index, layer, shape)
                bits = layer.out_bits
            elif isinstance(layer, (MaxPool, AvgPool)):
                plan = self._lower_pool(index, layer, shape, bits)
            elif isinstance(layer, QuantizedLinear):
                plan = self._lower_linear(index, layer, shape)
                bits = layer.out_bits
            else:
                raise KernelError(
                    f"layer {index} ({type(layer).__name__}) is not "
                    f"supported by the deployment compiler")
            compiled.layers.append(plan)
            shape = plan.out_shape
        return compiled

    # -- conv -----------------------------------------------------------

    def _lower_conv(self, index: int, layer: QuantizedConv,
                    in_shape: Tuple[int, ...]) -> LayerPlan:
        if len(in_shape) != 3:
            raise KernelError(
                f"conv layer {index} needs an (H, W, C) input, "
                f"got {in_shape}")
        g = layer.geometry(in_shape[0], in_shape[1])
        bits = layer.weight_bits
        quant = "shift" if layer.out_bits == 8 else "hw"
        if quant == "shift" and bits != 8:
            raise KernelError(
                "8-bit conv outputs require 8-bit operands (shift path)")
        name = f"L{index}:{layer.name}"

        allowance = self.code_allowance
        for _attempt in range(3):
            tiling = search_conv_tiling(
                g, bits, quant, self.num_cores, self.tcdm_budget,
                isa=self.isa, code_allowance=allowance)
            kernels = self._build_conv_variants(g, bits, quant, tiling)
            code_size = max(k.program.size for k in kernels.values())
            if code_size <= allowance:
                break
            allowance = align_up(code_size + 512, 64)
        else:
            raise KernelError(
                f"{name}: kernel code ({code_size} B) keeps outgrowing "
                f"the search's code allowance")

        plan = self._plan_conv(g, bits, quant, tiling, code_size)
        tiles: List[ConvTileSpec] = []
        counter = 0
        for gi, (c0, chans) in enumerate(tiling.groups):
            for r0, rows in tiling.row_tiles:
                for q0, cols in tiling.col_tiles:
                    tiles.append(ConvTileSpec(
                        index=counter, group=gi, r0=r0, rows=rows,
                        q0=q0, cols=cols, c0=c0, chans=chans,
                        key=(rows, cols, chans)))
                    counter += 1
        return LayerPlan(
            index=index, name=name, kind="conv", layer=layer, bits=bits,
            out_bits=layer.out_bits, quant=quant, in_shape=in_shape,
            out_shape=(g.out_h, g.out_w, g.out_ch), tiling=tiling,
            plan=plan, kernels=kernels, tiles=tiles, macs=g.macs)

    def _build_conv_variants(self, g, bits: int, quant: str,
                             tiling: ConvTiling) -> Dict[tuple, TiledConvKernel]:
        rows_set = sorted({r for _, r in tiling.row_tiles}, reverse=True)
        cols_set = sorted({c for _, c in tiling.col_tiles}, reverse=True)
        chan_set = sorted({c for _, c in tiling.groups}, reverse=True)
        kernels = {}
        for rows in rows_set:
            cores = largest_divisor_at_most(rows, self.num_cores)
            for cols in cols_set:
                for chans in chan_set:
                    cfg = ParallelConvConfig(
                        geometry=conv_tile_geometry(g, rows, cols, chans),
                        bits=bits, isa=self.isa, quant=quant,
                        num_cores=cores)
                    kernels[(rows, cols, chans)] = TiledConvKernel(
                        cfg, base=TCDM_BASE)
        return kernels

    def _plan_conv(self, g, bits: int, quant: str, tiling: ConvTiling,
                   code_size: int) -> TcdmPlan:
        p = TcdmPlanner(TCDM_BASE, self.tcdm_budget)
        p.place("code", code_size, 4)
        p.place("weights", tiling.cg * k_bytes(g.reduction, bits), 4)
        p.place("thr",
                tiling.cg * tree_stride(bits) if quant != "shift" else 4,
                32)
        buf = align_up(im2col_buffer_bytes(g, bits, unpacked=False), 4)
        p.place("im2col0", self.num_cores * buf, 4)
        p.place("im2col1", self.num_cores * buf, 4)
        p.place("spill", 16 * self.num_cores, 4)
        in_tile = align_up(tiling.input_tile_bytes(tiling.th, tiling.tw), 4)
        out_tile = align_up(tiling.th * tiling.tw * tiling.cg * bits // 8, 4)
        p.place("in0", in_tile, 4)
        p.place("in1", in_tile, 4)
        p.place("out0", out_tile, 4)
        p.place("out1", out_tile, 4)
        return p.plan()

    # -- pool -----------------------------------------------------------

    def _lower_pool(self, index: int, layer, in_shape: Tuple[int, ...],
                    bits: int) -> LayerPlan:
        if len(in_shape) != 3:
            raise KernelError(
                f"pool layer {index} needs an (H, W, C) input")
        size = layer.size
        stride = layer.stride or size
        if size != 2 or stride != 2:
            raise KernelError(
                "the deployment compiler supports 2x2/stride-2 pooling")
        h, w, ch = in_shape
        op = "max" if isinstance(layer, MaxPool) else "avg"
        name = f"L{index}:{layer.name}"
        tiling = search_pool_tiling(h, w, ch, bits, self.tcdm_budget,
                                    code_allowance=self.code_allowance)
        kernels = {}
        for rows in sorted({r for _, r in tiling.tiles}, reverse=True):
            cfg = PoolConfig(in_h=2 * rows, in_w=w, channels=ch,
                             bits=bits, op=op, isa=self.isa)
            kernels[rows] = TiledPoolKernel(cfg, base=TCDM_BASE)
        code_size = max(k.program.size for k in kernels.values())
        p = TcdmPlanner(TCDM_BASE, self.tcdm_budget)
        p.place("code", code_size, 4)
        in_tile = align_up(2 * tiling.th * tiling.row_bytes, 4)
        out_tile = align_up(tiling.th * tiling.out_row_bytes, 4)
        p.place("in0", in_tile, 4)
        p.place("in1", in_tile, 4)
        p.place("out0", out_tile, 4)
        p.place("out1", out_tile, 4)
        tiles = [PoolTileSpec(index=i, r0=r0, rows=rows, key=rows)
                 for i, (r0, rows) in enumerate(tiling.tiles)]
        return LayerPlan(
            index=index, name=name, kind="pool", layer=layer, bits=bits,
            out_bits=bits, quant="", in_shape=in_shape,
            out_shape=(h // 2, w // 2, ch), tiling=tiling, plan=p.plan(),
            kernels=kernels, tiles=tiles,
            macs=(h // 2) * (w // 2) * ch)

    # -- linear ---------------------------------------------------------

    def _lower_linear(self, index: int, layer: QuantizedLinear,
                      in_shape: Tuple[int, ...]) -> LayerPlan:
        in_features = int(np.prod(in_shape))
        out_features, ci = layer.weights.shape
        if ci != in_features:
            raise KernelError(
                f"linear layer {index}: weights expect {ci} inputs, "
                f"previous layer provides {in_features}")
        bits = layer.weight_bits
        name = f"L{index}:{layer.name}"
        tiling = search_linear_tiling(
            in_features, out_features, bits, self.tcdm_budget,
            code_allowance=self.code_allowance)
        kernels = {}
        for count in sorted({c for _, c in tiling.tiles}, reverse=True):
            cfg = LinearConfig(in_features=in_features, out_features=count,
                               bits=bits, out_bits=layer.out_bits,
                               isa=self.isa)
            kernels[count] = TiledLinearKernel(cfg, base=TCDM_BASE)
        code_size = max(k.program.size for k in kernels.values())
        kb = k_bytes(in_features, bits)
        p = TcdmPlanner(TCDM_BASE, self.tcdm_budget)
        p.place("code", code_size, 4)
        p.place("x", align_up(kb, 4), 4)
        w_tile = tiling.weight_tile_bytes(tiling.tn)
        p.place("w0", w_tile, 4)
        p.place("w1", w_tile, 4)
        out_tile = align_up(tiling.tn, 4) + 4
        p.place("out0", out_tile, 4)
        p.place("out1", out_tile, 4)
        tiles = [LinearTileSpec(index=i, n0=n0, count=count, key=count)
                 for i, (n0, count) in enumerate(tiling.tiles)]
        return LayerPlan(
            index=index, name=name, kind="linear", layer=layer, bits=bits,
            out_bits=layer.out_bits, quant="", in_shape=in_shape,
            out_shape=(out_features,), tiling=tiling, plan=p.plan(),
            kernels=kernels, tiles=tiles,
            macs=in_features * out_features)
