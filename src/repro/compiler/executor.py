"""Schedule executor: run a :class:`CompiledNetwork` on the cluster model.

One cluster instance, one *global* cycle timeline.  Every tile runs as
its own cluster session — cores reset, the tile's kernel variant
swapped into the code slot, data pointers register-passed from the TCDM
plan — while the DMA engine is **never** reset, so its busy horizon
carries the double-buffering schedule across tiles and layers:

* the input tile for step ``i+1`` is issued the moment step ``i``
  starts computing (its ping/pong slot is free by then);
* weights/thresholds reload only at output-channel-group boundaries;
* each output tile drains to L2 while the next tile computes.

A tile's start is the latest of: its input-DMA completion, its weight
group's DMA completion, its output slot's previous drain, and the
previous tile's compute end.  Compute windows that overlap DMA traffic
pay the documented bank-port contention
(:data:`repro.cluster.dma.OVERLAP_CONTENTION_SHIFT`).

Staging convention: the TCDM plan is mirrored at the same offsets in L2
(`L2_BASE + (addr - TCDM_BASE)`), and layer inputs that fit sit in a
resident L2 region above the mirror.  Tensors larger than L2 — the
whole point of tiling — are staged slice-by-slice into the mirror slot
immediately before their timed L2->TCDM descriptor, modeling the
untimed L3->L2 prefetch a real deployment overlaps at a higher level.

Every tile's output is verified bit-exactly against the golden
``qnn.layers`` model before it is stitched into the layer output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster import Cluster
from ..telemetry import metrics as tmetrics
from ..core.perf import PerfCounters
from ..errors import KernelError
from ..kernels.im2col import pixel_bytes
from ..kernels.matmul import k_bytes
from ..kernels.pooling import avgpool_cascade_golden
from ..qnn import pack, unpack
from ..qnn.layers import conv2d_golden, maxpool_golden
from ..qnn.network import MaxPool
from ..qnn.quantize import (
    bridge_precision,
    choose_requant_shift,
    requantize_shift,
)
from ..qnn.thresholds import tree_stride
from ..soc.memmap import L2_BASE, L2_SIZE, TCDM_BASE
from ..trace.tracer import EventTracer
from .lowering import CompiledNetwork, LayerPlan
from .tiling import conv_tile_geometry
from .timeline import MasterTimeline


def _mirror(tcdm_addr: int) -> int:
    """L2 staging mirror of a TCDM plan address."""
    return L2_BASE + (tcdm_addr - TCDM_BASE)


@dataclass
class TileExecution:
    """Timing record of one executed tile."""

    index: int
    label: str
    cores: int
    start: int
    compute_cycles: int
    contention_cycles: int
    end: int


@dataclass
class CompiledLayerResult:
    """One layer's measured tiled execution."""

    name: str
    kind: str
    bits: int
    out_bits: int
    cores: int
    tiles: int
    start: int
    end: int
    compute_cycles: int
    contention_cycles: int
    dma_bytes: int
    dma_cycles: int
    overlap_cycles: int
    energy_uj: float
    macs: int
    verified: bool
    output_shape: Tuple[int, ...]
    perf: PerfCounters
    tile_log: List[TileExecution] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        """Wall-clock cycles from layer start to its last DMA drain."""
        return self.end - self.start

    @property
    def overlap_pct(self) -> float:
        """Share of DMA-active cycles hidden under compute windows."""
        return self.overlap_cycles / self.dma_cycles if self.dma_cycles else 0.0

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / self.cycles if self.cycles else 0.0


@dataclass
class CompiledNetworkResult:
    """Outcome of a full compiled-network run."""

    layers: List[CompiledLayerResult]
    output: np.ndarray
    freq_hz: float
    cycles: int                       # global finish cycle
    timeline: Optional[MasterTimeline] = None

    @property
    def verified(self) -> bool:
        return all(layer.verified for layer in self.layers)

    @property
    def total_energy_uj(self) -> float:
        return sum(layer.energy_uj for layer in self.layers)

    @property
    def total_dma_bytes(self) -> int:
        return sum(layer.dma_bytes for layer in self.layers)

    @property
    def overlap_pct(self) -> float:
        dma = sum(layer.dma_cycles for layer in self.layers)
        hidden = sum(layer.overlap_cycles for layer in self.layers)
        return hidden / dma if dma else 0.0

    @property
    def latency_ms(self) -> float:
        return self.cycles / self.freq_hz * 1e3

    def render(self) -> str:
        lines = [f"{'layer':<20s} {'kind':<7s} {'bits':>4s} {'cores':>5s} "
                 f"{'tiles':>5s} {'cycles':>10s} {'dma[B]':>9s} "
                 f"{'ovl%':>5s} {'energy[uJ]':>10s} shape"]
        for layer in self.layers:
            lines.append(
                f"{layer.name:<20s} {layer.kind:<7s} {layer.bits:>4d} "
                f"{layer.cores:>5d} {layer.tiles:>5d} {layer.cycles:>10,} "
                f"{layer.dma_bytes:>9,} {layer.overlap_pct * 100:>4.0f}% "
                f"{layer.energy_uj:>10.3f} {layer.output_shape}")
        lines.append(
            f"total: {self.cycles:,} cycles, {self.latency_ms:.2f} ms @ "
            f"{self.freq_hz / 1e6:.0f} MHz, {self.total_energy_uj:.2f} uJ, "
            f"{self.total_dma_bytes:,} DMA bytes "
            f"({self.overlap_pct * 100:.0f}% hidden), "
            f"verified={'yes' if self.verified else 'NO'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "latency_ms": self.latency_ms,
            "energy_uj": self.total_energy_uj,
            "dma_bytes": self.total_dma_bytes,
            "overlap_pct": round(self.overlap_pct, 4),
            "verified": self.verified,
            "layers": [
                {
                    "name": la.name,
                    "kind": la.kind,
                    "bits": la.bits,
                    "cores": la.cores,
                    "tiles": la.tiles,
                    "cycles": la.cycles,
                    "compute_cycles": la.compute_cycles,
                    "contention_cycles": la.contention_cycles,
                    "dma_bytes": la.dma_bytes,
                    "dma_cycles": la.dma_cycles,
                    "overlap_pct": round(la.overlap_pct, 4),
                    "energy_uj": la.energy_uj,
                    "macs": la.macs,
                    "verified": la.verified,
                }
                for la in self.layers
            ],
        }


class PlanExecutor:
    """Drive a compiled network through the cluster, tile by tile."""

    def __init__(self, compiled: CompiledNetwork,
                 cluster: Optional[Cluster] = None,
                 trace: bool = False) -> None:
        self.compiled = compiled
        if cluster is None:
            cluster = Cluster(num_cores=compiled.num_cores, isa=compiled.isa)
        if cluster.config.num_cores != compiled.num_cores:
            raise KernelError(
                f"plan compiled for {compiled.num_cores} cores, cluster "
                f"has {cluster.config.num_cores}")
        if compiled.tcdm_budget > cluster.config.tcdm_size:
            raise KernelError(
                f"plan budget {compiled.tcdm_budget} B exceeds the "
                f"cluster's {cluster.config.tcdm_size} B TCDM")
        self.cluster = cluster
        self.timeline = MasterTimeline() if trace else None
        self._power = None

    # ------------------------------------------------------------------

    def run(self, x: np.ndarray, freq_hz: float = 250e6) -> CompiledNetworkResult:
        compiled = self.compiled
        from ..physical import cluster_model_for
        self._power = cluster_model_for(compiled.isa)

        x = np.asarray(x, dtype=np.int32)
        if x.shape != compiled.input_shape:
            raise KernelError(
                f"input shape {x.shape} != compiled {compiled.input_shape}")
        self.cluster.reset()          # cores, TCDM, and the global DMA clock
        clock = 0
        bits = compiled.input_bits
        results: List[CompiledLayerResult] = []
        for plan in compiled.layers:
            if plan.kind == "conv":
                res, x, clock = self._run_conv(plan, x, bits, clock, freq_hz)
                bits = plan.out_bits
            elif plan.kind == "pool":
                res, x, clock = self._run_pool(plan, x, clock, freq_hz)
            elif plan.kind == "linear":
                res, x, clock = self._run_linear(plan, x, bits, clock, freq_hz)
                bits = plan.out_bits
            else:
                raise KernelError(f"unknown layer kind {plan.kind!r}")
            results.append(res)
        if self.timeline is not None:
            self.timeline.finish(self.cluster.dma.transfers, end_cycle=clock)
        result = CompiledNetworkResult(
            layers=results, output=x, freq_hz=freq_hz, cycles=clock,
            timeline=self.timeline)
        # Executor-level telemetry: simulated-cycle counters (so they
        # merge deterministically across workers) plus the network-wide
        # DMA-hidden share of this run.
        tmetrics.counter("executor.networks").inc()
        tmetrics.counter("executor.layers").inc(len(results))
        tmetrics.counter("executor.dma_cycles").inc(
            sum(layer.dma_cycles for layer in results))
        tmetrics.counter("executor.dma_hidden_cycles").inc(
            sum(layer.overlap_cycles for layer in results))
        tmetrics.counter("executor.compute_cycles").inc(
            sum(layer.compute_cycles for layer in results))
        tmetrics.gauge("executor.dma_hidden_fraction").set(
            round(result.overlap_pct, 6))
        return result

    # -- shared tile machinery ------------------------------------------

    def _execute_tile(self, program, regs: Dict[int, int], start: int):
        """One cluster session on the global clock at *start*."""
        cluster = self.cluster
        for cpu in cluster.cores:
            cpu.reset()
        cluster.tcdm.reset_timing()   # NOT cluster.reset(): DMA stays global
        tracer = None
        if self.timeline is not None:
            tracer = EventTracer(program=program)
            cluster.attach_tracer(tracer)
            cluster.dma.tracer = None     # DMA lane is filled globally
        cluster.load_program(program)
        for cpu in cluster.cores:
            for reg, val in regs.items():
                cpu.regs[reg] = val
        run = cluster.run(entry=program.entry)
        if tracer is not None:
            cluster.attach_tracer(None)
            self.timeline.merge_tile(tracer, start)
        return run

    def _resident_base(self) -> int:
        return L2_BASE + self.compiled.tcdm_budget

    def _stage_input(self, blob: bytes) -> Optional[int]:
        """Park a layer's input blob in the resident L2 region if it fits;
        returns its base address (None -> stage per tile)."""
        base = self._resident_base()
        if base + len(blob) <= L2_BASE + L2_SIZE:
            self.cluster.mem.write_bytes(base, blob)
            return base
        return None

    def _finish_layer(self, plan: LayerPlan, layer_start: int, finish: int,
                      tile_log, per_core, transfers_before: int,
                      overlap: int, contention: int, compute: int,
                      verified: bool, out_shape, freq_hz: float,
                      sub_bits: int) -> CompiledLayerResult:
        dma = self.cluster.dma
        layer_transfers = dma.transfers[transfers_before:]
        dma_bytes = sum(t.desc.total_bytes for t in layer_transfers)
        dma_cycles = sum(t.done - t.start for t in layer_transfers)
        power = self._power.evaluate(
            per_core, sub_byte_bits=sub_bits).cluster_total_w
        cycles = finish - layer_start
        energy = cycles / freq_hz * power * 1e6
        merged = PerfCounters()
        for perf in per_core:
            merged.merge(perf)
        return CompiledLayerResult(
            name=plan.name, kind=plan.kind, bits=plan.bits,
            out_bits=plan.out_bits, cores=plan.cores, tiles=len(plan.tiles),
            start=layer_start, end=finish, compute_cycles=compute,
            contention_cycles=contention, dma_bytes=dma_bytes,
            dma_cycles=dma_cycles, overlap_cycles=overlap,
            energy_uj=energy, macs=plan.macs, verified=verified,
            output_shape=tuple(out_shape), perf=merged, tile_log=tile_log)

    def _schedule_tiles(self, plan: LayerPlan, clock: int,
                        issue_in, issue_weights, run_tile, drain_out):
        """The double-buffered schedule shared by all layer kinds.

        *issue_in(i, when) -> done*, *issue_weights(i, when) -> done or
        None*, *run_tile(i, start) -> (run, regs_used_cores)*,
        *drain_out(i, when) -> (done, ok)*.
        """
        dma = self.cluster.dma
        tiles = plan.tiles
        in_done: Dict[int, int] = {}
        out_done: Dict[int, int] = {}
        per_core = [PerfCounters() for _ in range(self.compiled.num_cores)]
        tile_log: List[TileExecution] = []
        overlap_total = contention_total = compute_total = 0
        verified = True
        prev_end = clock
        w_done = clock
        in_done[0] = issue_in(0, clock)
        for i, tile in enumerate(tiles):
            w = issue_weights(i, prev_end)
            if w is not None:
                w_done = w
            start = max(in_done[i], w_done, prev_end,
                        out_done.get(i - 2, 0))
            if i + 1 < len(tiles):
                in_done[i + 1] = issue_in(i + 1, start)
            run, cores = run_tile(i, start)
            compute = run.cycles
            overlap = dma.overlap_cycles(start, start + compute)
            contention = dma.contention_cycles(start, start + compute)
            end = start + compute + contention
            for core, perf in enumerate(run.per_core):
                per_core[core].merge(perf)
            verify_started = time.perf_counter()
            done, ok = drain_out(i, end)
            tmetrics.histogram("executor.tile_verify_seconds").observe(
                time.perf_counter() - verify_started)
            tmetrics.counter("executor.tiles").inc()
            out_done[i] = done
            verified = verified and ok
            overlap_total += overlap
            contention_total += contention
            compute_total += compute
            label = f"{plan.name} t{tile.index} [{cores}c]"
            tile_log.append(TileExecution(
                index=tile.index, label=label, cores=cores, start=start,
                compute_cycles=compute, contention_cycles=contention,
                end=end))
            if self.timeline is not None:
                self.timeline.add_schedule_span(label, start, end)
            prev_end = end
        finish = max(prev_end, max(out_done.values(), default=prev_end))
        return (tile_log, per_core, overlap_total, contention_total,
                compute_total, verified, finish)

    # -- conv ------------------------------------------------------------

    def _run_conv(self, plan: LayerPlan, x: np.ndarray, in_bits: int,
                  clock: int, freq_hz: float):
        layer = plan.layer
        g = layer.geometry(x.shape[0], x.shape[1])
        x = bridge_precision(x, in_bits, plan.bits)
        acc = conv2d_golden(x, layer.weights, stride=layer.stride,
                            pad=layer.pad)
        layer.calibrate(acc)
        if plan.quant == "shift":
            expected = requantize_shift(acc, layer.shift, 8, signed=False)
        else:
            expected = layer.thresholds.quantize(acc, channel_axis=-1)

        pad_h = g.in_h + 2 * g.pad
        pad_w = g.in_w + 2 * g.pad
        padded = np.zeros((pad_h, pad_w, g.in_ch), dtype=np.int32)
        padded[g.pad:g.pad + g.in_h, g.pad:g.pad + g.in_w] = x
        in_blob = pack(padded, plan.bits, signed=False)
        w_blob = pack(layer.weights.reshape(g.out_ch, -1), plan.bits,
                      signed=True)
        thr_image = (layer.thresholds.heap_image()
                     if plan.quant != "shift" else b"")
        pix = pixel_bytes(g, plan.bits)
        row_bytes = pad_w * pix
        kb = k_bytes(g.reduction, plan.bits)
        tstride = tree_stride(plan.bits) if plan.quant != "shift" else 0
        mem, dma = self.cluster.mem, self.cluster.dma
        p = plan.plan
        in_slots = (p.addr("in0"), p.addr("in1"))
        out_slots = (p.addr("out0"), p.addr("out1"))
        resident = self._stage_input(in_blob)
        tiles = plan.tiles
        out = np.zeros((g.out_h, g.out_w, g.out_ch), dtype=np.int32)
        transfers_before = len(dma.transfers)
        group_state = {"loaded": None}

        def issue_in(i, when):
            t = tiles[i]
            tg = conv_tile_geometry(g, t.rows, t.cols, t.chans)
            slot = in_slots[i % 2]
            tile_row = tg.in_w * pix
            src_off = (t.r0 * g.stride) * row_bytes + t.q0 * g.stride * pix
            if resident is not None:
                return dma.transfer(resident + src_off, slot, tile_row,
                                    src_stride=row_bytes, reps=tg.in_h,
                                    when=when)
            blob = bytearray()
            for r in range(tg.in_h):
                off = src_off + r * row_bytes
                blob += in_blob[off:off + tile_row]
            mem.write_bytes(_mirror(slot), bytes(blob))
            return dma.transfer(_mirror(slot), slot, tile_row,
                                reps=tg.in_h, when=when)

        def issue_weights(i, when):
            t = tiles[i]
            if group_state["loaded"] == t.group:
                return None
            group_state["loaded"] = t.group
            blob = w_blob[t.c0 * kb:(t.c0 + t.chans) * kb]
            mem.write_bytes(_mirror(p.addr("weights")), blob)
            done = dma.transfer(_mirror(p.addr("weights")),
                                p.addr("weights"), len(blob), when=when)
            if plan.quant != "shift":
                tb = thr_image[t.c0 * tstride:(t.c0 + t.chans) * tstride]
                mem.write_bytes(_mirror(p.addr("thr")), tb)
                done = dma.transfer(_mirror(p.addr("thr")), p.addr("thr"),
                                    len(tb), when=when)
            return done

        def run_tile(i, start):
            t = tiles[i]
            kernel = plan.kernels[t.key]
            regs = {
                10: p.addr("weights"),
                11: p.addr("im2col0"),
                12: p.addr("im2col1"),
                13: out_slots[i % 2],
                24: in_slots[i % 2],
                2: p.addr("spill"),
            }
            if plan.quant == "shift":
                regs[15] = layer.shift
            else:
                regs[15] = p.addr("thr")
                regs[26] = p.addr("thr")
            run = self._execute_tile(kernel.program, regs, start)
            return run, kernel.config.num_cores

        def drain_out(i, when):
            t = tiles[i]
            slot = out_slots[i % 2]
            count = t.rows * t.cols * t.chans
            nbytes = count * plan.bits // 8
            done = dma.transfer(slot, _mirror(slot), nbytes, when=when)
            data = mem.read_bytes(_mirror(slot), nbytes)
            got = unpack(data, plan.bits, signed=False, count=count)
            got = got.reshape(t.rows, t.cols, t.chans)
            want = expected[t.r0:t.r0 + t.rows, t.q0:t.q0 + t.cols,
                            t.c0:t.c0 + t.chans]
            out[t.r0:t.r0 + t.rows, t.q0:t.q0 + t.cols,
                t.c0:t.c0 + t.chans] = got
            return done, bool(np.array_equal(got, want))

        (tile_log, per_core, overlap, contention, compute, verified,
         finish) = self._schedule_tiles(plan, clock, issue_in,
                                        issue_weights, run_tile, drain_out)
        res = self._finish_layer(
            plan, clock, finish, tile_log, per_core, transfers_before,
            overlap, contention, compute, verified, out.shape, freq_hz,
            sub_bits=plan.bits)
        return res, out, finish

    # -- pool ------------------------------------------------------------

    def _run_pool(self, plan: LayerPlan, x: np.ndarray, clock: int,
                  freq_hz: float):
        layer = plan.layer
        expected = (maxpool_golden(x, 2) if isinstance(layer, MaxPool)
                    else avgpool_cascade_golden(x)).astype(np.int32)
        h, w, ch = x.shape
        in_blob = pack(x, plan.bits, signed=False)
        row_bytes = w * ch * plan.bits // 8
        out_row_bytes = (w // 2) * ch * plan.bits // 8
        mem, dma = self.cluster.mem, self.cluster.dma
        p = plan.plan
        in_slots = (p.addr("in0"), p.addr("in1"))
        out_slots = (p.addr("out0"), p.addr("out1"))
        resident = self._stage_input(in_blob)
        tiles = plan.tiles
        out = np.zeros((h // 2, w // 2, ch), dtype=np.int32)
        transfers_before = len(dma.transfers)

        def issue_in(i, when):
            t = tiles[i]
            slot = in_slots[i % 2]
            off = 2 * t.r0 * row_bytes
            nbytes = 2 * t.rows * row_bytes
            if resident is not None:
                return dma.transfer(resident + off, slot, nbytes, when=when)
            mem.write_bytes(_mirror(slot), in_blob[off:off + nbytes])
            return dma.transfer(_mirror(slot), slot, nbytes, when=when)

        def issue_weights(i, when):
            return None

        def run_tile(i, start):
            t = tiles[i]
            kernel = plan.kernels[t.key]
            regs = {10: in_slots[i % 2], 11: out_slots[i % 2]}
            run = self._execute_tile(kernel.program, regs, start)
            return run, 1

        def drain_out(i, when):
            t = tiles[i]
            slot = out_slots[i % 2]
            nbytes = t.rows * out_row_bytes
            done = dma.transfer(slot, _mirror(slot), nbytes, when=when)
            data = mem.read_bytes(_mirror(slot), nbytes)
            count = t.rows * (w // 2) * ch
            got = unpack(data, plan.bits, signed=False, count=count)
            got = got.reshape(t.rows, w // 2, ch)
            want = expected[t.r0:t.r0 + t.rows]
            out[t.r0:t.r0 + t.rows] = got
            return done, bool(np.array_equal(got, want))

        (tile_log, per_core, overlap, contention, compute, verified,
         finish) = self._schedule_tiles(plan, clock, issue_in,
                                        issue_weights, run_tile, drain_out)
        res = self._finish_layer(
            plan, clock, finish, tile_log, per_core, transfers_before,
            overlap, contention, compute, verified, out.shape, freq_hz,
            sub_bits=8)
        return res, out, finish

    # -- linear ----------------------------------------------------------

    def _run_linear(self, plan: LayerPlan, x: np.ndarray, in_bits: int,
                    clock: int, freq_hz: float):
        layer = plan.layer
        x = bridge_precision(x, in_bits, plan.bits)
        flat = x.reshape(-1)
        acc = layer.weights.astype(np.int64) @ flat.astype(np.int64)
        if layer.shift is None:
            layer.shift = choose_requant_shift(acc, 8, signed=False)
        expected = requantize_shift(acc, layer.shift, 8, signed=False)
        x_blob = pack(flat, plan.bits, signed=False)
        w_blob = pack(layer.weights, plan.bits, signed=True)
        kb = k_bytes(flat.size, plan.bits)
        mem, dma = self.cluster.mem, self.cluster.dma
        p = plan.plan
        w_slots = (p.addr("w0"), p.addr("w1"))
        out_slots = (p.addr("out0"), p.addr("out1"))
        tiles = plan.tiles
        out = np.zeros(layer.weights.shape[0], dtype=np.int32)
        transfers_before = len(dma.transfers)

        # The activation vector stays resident in TCDM for the layer.
        mem.write_bytes(_mirror(p.addr("x")), x_blob)
        x_done = dma.transfer(_mirror(p.addr("x")), p.addr("x"),
                              len(x_blob), when=clock)

        def issue_in(i, when):
            # "input" per tile is the weight slice (double-buffered).
            t = tiles[i]
            slot = w_slots[i % 2]
            blob = w_blob[t.n0 * kb:(t.n0 + t.count) * kb]
            mem.write_bytes(_mirror(slot), blob)
            return dma.transfer(_mirror(slot), slot, len(blob), when=when)

        def issue_weights(i, when):
            return x_done if i == 0 else None

        def run_tile(i, start):
            t = tiles[i]
            kernel = plan.kernels[t.key]
            regs = {
                10: w_slots[i % 2],
                11: p.addr("x"),
                13: out_slots[i % 2],
                15: layer.shift,
            }
            run = self._execute_tile(kernel.program, regs, start)
            return run, 1

        def drain_out(i, when):
            t = tiles[i]
            slot = out_slots[i % 2]
            done = dma.transfer(slot, _mirror(slot), t.count, when=when)
            data = mem.read_bytes(_mirror(slot), t.count)
            got = unpack(data, 8, signed=False, count=t.count)
            want = expected[t.n0:t.n0 + t.count]
            out[t.n0:t.n0 + t.count] = got
            return done, bool(np.array_equal(got, want))

        (tile_log, per_core, overlap, contention, compute, verified,
         finish) = self._schedule_tiles(plan, clock, issue_in,
                                        issue_weights, run_tile, drain_out)
        res = self._finish_layer(
            plan, clock, finish, tile_log, per_core, transfers_before,
            overlap, contention, compute, verified, out.shape, freq_hz,
            sub_bits=plan.bits)
        return res, out, finish
