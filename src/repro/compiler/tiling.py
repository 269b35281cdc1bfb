"""Per-layer tile-size search.

Each layer's working set must fit a TCDM budget with *double-buffered*
input and output tile slots (so the DMA can refill one buffer while the
cores chew on the other) plus single-buffered weights/thresholds and the
per-core im2col scratch.  The search picks the tile shape that fits and
maximizes arithmetic intensity — MACs per byte moved over the cluster
DMA — because that ratio decides how much of the transfer time the
compute window can hide.

Convolutions tile along three axes:

* **output-channel groups** (``cg``) — shrinks the weight/threshold
  slot; the input tile is re-streamed once per group;
* **output rows** (``th``) — shrinks input/output tiles; row tiles
  overlap by the ``kh - stride`` halo rows, which are re-transferred;
* **output columns** (``tw``) — needed when a row of the padded input
  is too wide for the kernel's immediate-offset im2col addressing
  (the ``(kh-1) * row_bytes <= 2047`` constraint); column tiles are
  staged with 2D strided DMA descriptors.

Candidate validity is checked by constructing the actual kernel config
(:class:`~repro.kernels.parallel.ParallelConvConfig`), so every
immediate-field and packing constraint the code generator enforces is
honoured by construction.

The arithmetic-intensity score orders the *feasible* candidates, but the
final pick among the top few is made by the static cycle model
(:func:`repro.analysis.cost.analyze_cost` over the full-tile kernel
program): compute cycles decide the schedule wall clock once the DMA is
hidden, and the static model prices them without running the simulator.
The tile kernel's row and pixel-pair loops are software counted loops,
which the model folds like its hardware loops, so a price takes a few
hundred abstract steps at most, however many rows and columns the tile
has.
:class:`TileSearchStats` records how many candidates were enumerated
and how many the static model ranked.  :func:`simulate_conv_cycles` is
the simulated reference the tests hold that ranking to.

Linear layers tile output neurons (weights double-buffered, the
activation vector stays resident); pooling tiles output rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..errors import KernelError
from ..kernels.common import align_up
from ..kernels.im2col import im2col_buffer_bytes, pixel_bytes
from ..kernels.matmul import k_bytes
from ..kernels.parallel import ParallelConvConfig
from ..qnn.layers import ConvGeometry
from ..target.names import XPULPNN
from ..qnn.thresholds import tree_stride

#: TCDM reserved for the kernel code slot during the search; lowering
#: re-checks against the real program sizes and rescans if they exceed it.
CODE_ALLOWANCE = 8 * 1024
#: Slack absorbed by slot alignment padding.
_ALIGN_SLACK = 256

#: Feasible conv candidates ranked by the static cycle model per search.
RANK_TOP = 4


@dataclass(frozen=True)
class TileSearchStats:
    """How one tile search spent its ranking effort.

    Every ranked candidate is priced by the static analyzer, none by the
    simulator; the compile report logs both counts.
    """

    candidates: int = 0           # feasible tile shapes enumerated
    ranked: int = 0               # top candidates priced statically

    def to_dict(self) -> dict:
        return {"candidates": self.candidates, "ranked": self.ranked}

    def merge(self, other: "TileSearchStats") -> "TileSearchStats":
        return TileSearchStats(
            candidates=self.candidates + other.candidates,
            ranked=self.ranked + other.ranked,
        )


def _split(total: int, chunk: int) -> List[Tuple[int, int]]:
    """``[(start, size)]`` covering ``[0, total)`` in *chunk*-sized runs."""
    out = []
    start = 0
    while start < total:
        size = min(chunk, total - start)
        out.append((start, size))
        start += size
    return out


def largest_divisor_at_most(value: int, limit: int) -> int:
    """Cores a *value*-row tile shards over evenly, at most *limit*."""
    for cand in range(min(value, limit), 0, -1):
        if value % cand == 0:
            return cand
    return 1


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def conv_tile_geometry(g: ConvGeometry, rows: int, cols: int,
                       chans: int) -> ConvGeometry:
    """Geometry of one tile: a pre-padded input rectangle, ``pad=0``."""
    return ConvGeometry(
        in_h=(rows - 1) * g.stride + g.kh,
        in_w=min((cols - 1) * g.stride + g.kw, g.in_w + 2 * g.pad),
        in_ch=g.in_ch,
        out_ch=chans,
        kh=g.kh,
        kw=g.kw,
        stride=g.stride,
        pad=0,
    )


@dataclass(frozen=True)
class ConvTiling:
    """The chosen tile shape for one convolution layer."""

    geometry: ConvGeometry      # full-layer geometry
    bits: int
    th: int                     # output rows per full tile
    tw: int                     # output cols per full tile
    cg: int                     # output channels per group
    cores: int                  # cores on a full tile
    plan_bytes: int             # estimated TCDM bytes (incl. code allowance)
    dma_bytes: int              # total bytes over the DMA for the layer
    score: float                # MACs per DMA byte
    static_cycles: int = 0      # static-model compute estimate (whole layer)
    search: Optional[TileSearchStats] = None

    @property
    def row_tiles(self) -> List[Tuple[int, int]]:
        return _split(self.geometry.out_h, self.th)

    @property
    def col_tiles(self) -> List[Tuple[int, int]]:
        return _split(self.geometry.out_w, self.tw)

    @property
    def groups(self) -> List[Tuple[int, int]]:
        return _split(self.geometry.out_ch, self.cg)

    @property
    def tile_count(self) -> int:
        return (len(self.row_tiles) * len(self.col_tiles)
                * len(self.groups))

    def input_tile_bytes(self, rows: int, cols: int) -> int:
        tg = conv_tile_geometry(self.geometry, rows, cols, self.cg)
        return tg.in_h * tg.in_w * pixel_bytes(tg, self.bits)

    def describe(self) -> str:
        return (f"{self.tile_count} tiles "
                f"(rows<={self.th} x cols<={self.tw} x ch<={self.cg}), "
                f"{self.cores} cores, {self.dma_bytes} DMA bytes, "
                f"{self.score:.1f} MACs/byte")


def _conv_variant_ok(g: ConvGeometry, bits: int, quant: str, isa: str,
                     rows: int, cols: int, chans: int, cores: int) -> bool:
    """Would the code generator accept this tile?  Reuses the real config
    validation so search and lowering can never disagree."""
    try:
        ParallelConvConfig(
            geometry=conv_tile_geometry(g, rows, cols, chans),
            bits=bits, isa=isa, quant=quant, num_cores=cores)
    except KernelError:
        return False
    return True


def _conv_plan_bytes(g: ConvGeometry, bits: int, quant: str,
                     th: int, tw: int, cg: int, num_cores: int,
                     code_allowance: int) -> int:
    tg = conv_tile_geometry(g, th, tw, cg)
    in_tile = align_up(tg.in_h * tg.in_w * pixel_bytes(tg, bits), 4)
    out_tile = align_up(th * tw * cg * bits // 8, 4)
    w_bytes = cg * k_bytes(g.reduction, bits)
    thr_bytes = cg * tree_stride(bits) if quant != "shift" else 4
    buf = align_up(im2col_buffer_bytes(g, bits, unpacked=False), 4)
    return (code_allowance + w_bytes + thr_bytes
            + 2 * num_cores * buf + 16 * num_cores
            + 2 * in_tile + 2 * out_tile + _ALIGN_SLACK)


def _conv_dma_bytes(g: ConvGeometry, bits: int, quant: str,
                    th: int, tw: int, cg: int) -> int:
    """Exact DMA traffic: weights+thresholds once per group, the input
    re-streamed per group (with row-halo overlap), every output once."""
    groups = _split(g.out_ch, cg)
    w_bytes = sum(c * k_bytes(g.reduction, bits) for _, c in groups)
    if quant != "shift":
        w_bytes += sum(c * tree_stride(bits) for _, c in groups)
    in_bytes = 0
    for _, rows in _split(g.out_h, th):
        for _, cols in _split(g.out_w, tw):
            tg = conv_tile_geometry(g, rows, cols, cg)
            in_bytes += tg.in_h * tg.in_w * pixel_bytes(tg, bits)
    out_bytes = g.out_pixels * g.out_ch * bits // 8
    return w_bytes + in_bytes * len(groups) + out_bytes


def _conv_width_candidates(g: ConvGeometry, bits: int) -> List[int]:
    """Descending even column-tile widths, widest first."""
    cands = [g.out_w]
    if (g.in_ch * bits) % 8:
        return cands          # column offsets not byte-aligned: no col tiling
    w = g.out_w
    while w > 2:
        w = max(2, (w // 2) & ~1)
        cands.append(w)
        if len(cands) >= 6:
            break
    return sorted(set(cands), reverse=True)


def conv_tile_candidates(geometry: ConvGeometry, bits: int, quant: str,
                         num_cores: int, budget: int,
                         isa: str = XPULPNN,
                         code_allowance: int = CODE_ALLOWANCE,
                         ) -> List[ConvTiling]:
    """Every feasible conv tile shape for *budget*, best-heuristic first.

    One candidate per ``(cg, tw)`` pair — the largest feasible row tile;
    shrinking ``th`` further only re-transfers more halo rows.  Ordered
    by arithmetic intensity (then fewer tiles, then more cores), the
    order :func:`search_conv_tiling` ranks statically from the top of.
    """
    g = geometry
    pack = 4 if bits == 2 else 2
    if g.out_ch % pack:
        raise KernelError("out_ch must pack whole output bytes")
    group_cands = [c for c in range(g.out_ch, 0, -1)
                   if g.out_ch % c == 0 and c % pack == 0]
    found: List[ConvTiling] = []
    for cg in group_cands:
        for tw in _conv_width_candidates(g, bits):
            for th in range(g.out_h, 0, -1):
                cores = largest_divisor_at_most(th, num_cores)
                need = _conv_plan_bytes(g, bits, quant, th, tw, cg,
                                        num_cores, code_allowance)
                if need > budget:
                    continue
                if not _conv_variant_ok(g, bits, quant, isa,
                                        th, tw, cg, cores):
                    continue
                dma = _conv_dma_bytes(g, bits, quant, th, tw, cg)
                found.append(ConvTiling(
                    geometry=g, bits=bits, th=th, tw=tw, cg=cg,
                    cores=cores, plan_bytes=need, dma_bytes=dma,
                    score=g.macs / dma))
                break       # largest feasible th for this (cg, tw)
    found.sort(key=lambda c: (-c.score, c.tile_count, -c.cores))
    return found


def _full_tile_kernel(g: ConvGeometry, bits: int, quant: str, isa: str,
                      cand: ConvTiling):
    """The cluster kernel of *cand*'s full (non-remainder) tile."""
    from ..kernels.parallel import ParallelConvKernel

    return ParallelConvKernel(ParallelConvConfig(
        geometry=conv_tile_geometry(g, cand.th, cand.tw, cand.cg),
        bits=bits, isa=isa, quant=quant, num_cores=cand.cores))


def static_conv_cycles(g: ConvGeometry, bits: int, quant: str, isa: str,
                       cand: ConvTiling) -> int:
    """Static-model compute estimate for the whole layer under *cand*.

    The full tile's statically analyzed active cycles (hart 0) times the
    tile count; remainder tiles are charged as full ones, which inflates
    every candidate the same way and preserves the ranking.  Interval
    results (software-quantization trees) are priced at their midpoint.
    """
    from ..analysis.cost import analyze_cost

    kern = _full_tile_kernel(g, bits, quant, isa, cand)
    cycles = analyze_cost(
        kern.program,
        name=f"tile[{cand.th}x{cand.tw}x{cand.cg}]").cycles
    per_tile = cycles.lo if not cycles.bounded else cycles.midpoint
    return int(round(per_tile)) * cand.tile_count


def simulate_conv_cycles(g: ConvGeometry, bits: int, quant: str, isa: str,
                         cand: ConvTiling, seed: int = 0) -> int:
    """Simulated reference for :func:`static_conv_cycles`: one full tile
    run on a cluster with deterministic random tensors, hart 0's active
    cycles (idle and TCDM-contention stalls excluded, matching the
    static model's assumptions) times the tile count."""
    import numpy as np

    from ..cluster import Cluster
    from ..qnn import random_threshold_table

    kern = _full_tile_kernel(g, bits, quant, isa, cand)
    tg = kern.config.geometry
    rng = np.random.default_rng(seed)
    w = rng.integers(-(1 << bits - 1), 1 << bits - 1,
                     (tg.out_ch, tg.kh, tg.kw, tg.in_ch)).astype(np.int32)
    acts = rng.integers(0, 1 << bits,
                        (tg.in_h, tg.in_w, tg.in_ch)).astype(np.int32)
    table = None
    if quant != "shift":
        table = random_threshold_table(tg.out_ch, bits, spread=2500,
                                       rng=rng)
    cluster = Cluster(num_cores=cand.cores, isa=isa)
    kern.run(w, acts, thresholds=table, cluster=cluster)
    perf = cluster.cores[0].perf
    active = perf.cycles - perf.idle_cycles - perf.stall_tcdm_contention
    return active * cand.tile_count


def search_conv_tiling(geometry: ConvGeometry, bits: int, quant: str,
                       num_cores: int, budget: int,
                       isa: str = XPULPNN,
                       code_allowance: int = CODE_ALLOWANCE,
                       rank_top: int = RANK_TOP) -> ConvTiling:
    """Pick the best-fitting conv tile shape for *budget* TCDM bytes.

    The top *rank_top* feasible candidates (by arithmetic intensity) are
    re-ranked by the static cycle model; the cheapest wins.
    """
    g = geometry
    cands = conv_tile_candidates(g, bits, quant, num_cores, budget,
                                 isa=isa, code_allowance=code_allowance)
    if not cands:
        raise KernelError(
            f"conv layer {g.describe()} has no tile shape fitting "
            f"{budget} TCDM bytes")
    top = cands[:max(1, rank_top)]
    scored = [(static_conv_cycles(g, bits, quant, isa, cand), cand)
              for cand in top]
    scored.sort(key=lambda sc: (sc[0], -sc[1].score, sc[1].tile_count))
    best_cycles, best = scored[0]
    stats = TileSearchStats(candidates=len(cands), ranked=len(top))
    return replace(best, static_cycles=best_cycles, search=stats)


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearTiling:
    """Output-neuron tiling: weights double-buffered, x resident."""

    in_features: int
    out_features: int
    bits: int
    tn: int                     # neurons per tile (even)
    plan_bytes: int
    dma_bytes: int
    score: float
    search: Optional[TileSearchStats] = None

    @property
    def tiles(self) -> List[Tuple[int, int]]:
        return _split(self.out_features, self.tn)

    def weight_tile_bytes(self, count: int) -> int:
        return count * k_bytes(self.in_features, self.bits)

    def describe(self) -> str:
        return (f"{len(self.tiles)} tiles (neurons<={self.tn}), "
                f"{self.dma_bytes} DMA bytes, {self.score:.1f} MACs/byte")


def search_linear_tiling(in_features: int, out_features: int, bits: int,
                         budget: int,
                         code_allowance: int = CODE_ALLOWANCE) -> LinearTiling:
    kb = k_bytes(in_features, bits)
    per_n = kb + 1              # weight row + one output byte, both x2
    avail = budget - code_allowance - align_up(kb, 4) - _ALIGN_SLACK
    tn = min(out_features, (avail // (2 * per_n)) & ~1)
    if tn < 2:
        raise KernelError(
            f"linear layer ({out_features}x{in_features} @ {bits}-bit) "
            f"has no neuron tile fitting {budget} TCDM bytes")
    plan = (code_allowance + align_up(kb, 4) + 2 * tn * per_n
            + _ALIGN_SLACK)
    dma = kb + out_features * kb + out_features
    return LinearTiling(
        in_features=in_features, out_features=out_features, bits=bits,
        tn=tn, plan_bytes=plan, dma_bytes=dma,
        score=in_features * out_features / dma,
        search=TileSearchStats(candidates=1))


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoolTiling:
    """Output-row tiling of a 2x2/stride-2 pooling layer."""

    in_h: int
    in_w: int
    channels: int
    bits: int
    th: int                     # output rows per tile
    plan_bytes: int
    dma_bytes: int
    search: Optional[TileSearchStats] = None

    @property
    def tiles(self) -> List[Tuple[int, int]]:
        return _split(self.in_h // 2, self.th)

    @property
    def row_bytes(self) -> int:
        return self.in_w * self.channels * self.bits // 8

    @property
    def out_row_bytes(self) -> int:
        return (self.in_w // 2) * self.channels * self.bits // 8

    def describe(self) -> str:
        return f"{len(self.tiles)} tiles (rows<={self.th})"


def search_pool_tiling(in_h: int, in_w: int, channels: int, bits: int,
                       budget: int,
                       code_allowance: int = CODE_ALLOWANCE) -> PoolTiling:
    if (channels * bits) % 32:
        raise KernelError("channels must fill whole 32-bit words")
    row = in_w * channels * bits // 8
    out_row = (in_w // 2) * channels * bits // 8
    per_tile_row = 2 * row + out_row        # 2 input rows -> 1 output row
    avail = budget - code_allowance - _ALIGN_SLACK
    th = min(in_h // 2, avail // (2 * per_tile_row))
    if th < 1:
        raise KernelError(
            f"pool layer ({in_h}x{in_w}x{channels} @ {bits}-bit) has no "
            f"row tile fitting {budget} TCDM bytes")
    plan = code_allowance + 2 * th * per_tile_row + _ALIGN_SLACK
    n_out = (in_h // 2) * (in_w // 2) * channels * bits // 8
    return PoolTiling(
        in_h=in_h, in_w=in_w, channels=channels, bits=bits, th=th,
        plan_bytes=plan, dma_bytes=in_h * row + n_out,
        search=TileSearchStats(candidates=1))
