"""Cluster-parallel kernel variants (PULP-NN-style work sharding).

PULP-NN parallelizes QNN layers over the PULP cluster by splitting the
output among cores — output *channels* for the MatMul microkernel,
output *rows* for convolutions — with one event-unit barrier before
results are consumed (arXiv:1908.11263 reports near-linear speedup for
exactly this scheme).  Both variants here are SPMD: every core runs the
same program, reads ``mhartid``, and derives its shard's pointers from
the common bases the harness preloads.

The harness stages tensors L2 -> TCDM through the cluster DMA (cycles
modeled, reported separately from compute), runs the cluster to
completion, and DMA-copies the output back.  Outputs are bit-identical
to the single-core kernels: cores write disjoint slices of the same
output layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..asm.builder import KernelBuilder
from ..cluster import Cluster, ClusterRun
from ..errors import KernelError
from ..isa.zicsr import CSR_MHARTID
from ..qnn import ThresholdTable, pack, tree_stride, unpack
from ..soc.memmap import EU_BARRIER_WAIT, L2_BASE, TCDM_BASE
from ..target.names import XPULPNN
from .common import KernelLayout, align_up, plan_layout
from .conv import ConvConfig, ConvKernel
from .im2col import im2col_buffer_bytes, padded_row_bytes
from .matmul import (
    MatmulRegs,
    emit_acc_clear,
    emit_inner_loop,
    emit_pair_epilogue,
    k_bytes,
    k_words,
)


@dataclass
class ClusterKernelRun:
    """Result of one parallel kernel execution on the cluster."""

    output: np.ndarray
    run: ClusterRun
    layout: KernelLayout
    dma_in_cycles: int
    dma_out_cycles: int
    detail: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        """Compute wall-clock (barriers make all core clocks equal)."""
        return self.run.cycles

    @property
    def total_cycles(self) -> int:
        """Compute plus (non-overlapped) DMA staging cycles."""
        return self.cycles + self.dma_in_cycles + self.dma_out_cycles


def _emit_hart_offset(b: KernelBuilder, hart: str, scratch: str,
                      stride: int, *dest_regs: str) -> None:
    """dest += hart * stride for each destination register."""
    if stride == 0 or not dest_regs:
        return
    b.li(scratch, stride)
    b.emit("mul", scratch, hart, scratch)
    for reg in dest_regs:
        b.emit("add", reg, reg, scratch)


def _stage_addr(tcdm_addr: int) -> int:
    """L2 staging address mirroring a TCDM layout address."""
    return L2_BASE + (tcdm_addr - TCDM_BASE)


def _check_tcdm_fit(layout: KernelLayout, cluster: Cluster) -> None:
    need = layout.end - TCDM_BASE
    have = cluster.config.tcdm_size
    if need > have:
        raise KernelError(
            f"kernel working set of {need} B exceeds the {have} B TCDM; "
            f"tile the layer or shrink the workload"
        )


# ---------------------------------------------------------------------------
# Parallel MatMul: output channels sharded across cores
# ---------------------------------------------------------------------------

@dataclass
class ParallelMatmulConfig:
    """A MatMul microkernel sharded over *num_cores* cluster cores."""

    reduction: int
    out_ch: int
    bits: int
    num_cores: int = 8
    isa: str = XPULPNN
    quant: str = "hw"            # "shift" (8-bit) | "hw" | "sw" (sub-byte)

    def __post_init__(self) -> None:
        if self.bits not in (2, 4, 8):
            raise KernelError(f"unsupported operand width {self.bits}")
        if not (self.bits == 8 or self.isa == XPULPNN):
            raise KernelError(
                "parallel sub-byte kernels are native-SIMD only; the "
                "baseline pack/unpack variants stay single-core")
        if self.bits == 8 and self.quant != "shift":
            raise KernelError("8-bit kernels use shift requantization")
        if self.bits != 8 and self.quant not in ("hw", "sw"):
            raise KernelError("sub-byte kernels use staircase quantization")
        if self.num_cores < 1:
            raise KernelError("need at least one core")
        if self.out_ch % (2 * self.num_cores):
            raise KernelError(
                f"out_ch={self.out_ch} must split into channel pairs "
                f"across {self.num_cores} cores")
        if self.bits == 2 and (self.out_ch // self.num_cores) % 4:
            raise KernelError(
                "2-bit shards need 4 channels per core (packed bytes)")

    @property
    def ch_per_core(self) -> int:
        return self.out_ch // self.num_cores

    @property
    def pairs_per_core(self) -> int:
        return self.ch_per_core // 2

    @property
    def macs(self) -> int:
        return self.reduction * self.out_ch * 2


class ParallelMatmulKernel:
    """SPMD MatMul: core ``h`` computes channels ``[h*C/N, (h+1)*C/N)``.

    Register plan is :class:`~repro.kernels.matmul.MatmulKernel`'s; the
    prologue offsets the weight, output, and threshold bases by the
    hart's shard before entering the standard 2x2 pair loop, and the
    epilogue barriers so no core's results are consumed early.
    """

    _TMPS = ("t0", "t1", "t2", "t4", "s0", "s1", "a1", "a2", "s9")

    def __init__(self, config: ParallelMatmulConfig,
                 base: int = TCDM_BASE) -> None:
        self.config = config
        cfg = config
        self._k_words = k_words(cfg.reduction, cfg.bits)
        kb = k_bytes(cfg.reduction, cfg.bits)

        b = KernelBuilder(isa=cfg.isa, base=base)
        self._emit(b)
        self.program = b.build()

        out_bytes = 2 * align_up(cfg.out_ch * max(cfg.bits, 8) // 8, 4)
        thr_bytes = (
            cfg.out_ch * tree_stride(cfg.bits) if cfg.quant in ("hw", "sw")
            else 4
        )
        self.layout = plan_layout(
            self.program.size,
            {
                "weights": (cfg.out_ch * kb, 4),
                "x0": (kb, 4),
                "x1": (kb, 4),
                "thr": (thr_bytes, 32),
                "out": (out_bytes + 64, 4),
            },
            base=base,
        )

    def _emit(self, b: KernelBuilder) -> None:
        cfg = self.config
        kb = k_bytes(cfg.reduction, cfg.bits)
        regs = MatmulRegs(
            wptr0="a6", wptr1="a7", xptr0="s6", xptr1="s7",
            acc00="s2", acc01="s3", acc10="s4", acc11="s5",
        )

        # Hart prologue: shard the channel dimension.
        with b.region("prologue"):
            b.emit("csrrs", "t0", CSR_MHARTID, "zero")
            _emit_hart_offset(b, "t0", "t1", cfg.ch_per_core * kb, "a6")
            b.emit("addi", "a7", "a6", kb)
            out_chunk = cfg.ch_per_core * max(cfg.bits, 2) // 8
            _emit_hart_offset(b, "t0", "t1", out_chunk, "a4", "s11")
            if cfg.quant in ("hw", "sw"):
                _emit_hart_offset(b, "t0", "t1",
                                  cfg.ch_per_core * tree_stride(cfg.bits),
                                  "a5")

            b.li("tp", cfg.pairs_per_core)
            use_count_reg = self._k_words > 31
            if use_count_reg:
                b.li("t6", self._k_words)

        b.label("pair_loop")
        with b.region("dotprod"):
            emit_acc_clear(b, regs)
            b.mv(regs.xptr0, "t3")
            b.mv(regs.xptr1, "ra")
            count = "t6" if use_count_reg else self._k_words
            emit_inner_loop(b, cfg.bits, True, count, regs, list(self._TMPS))
            b.emit("addi", regs.wptr0, regs.wptr0, kb)
            b.emit("addi", regs.wptr1, regs.wptr1, kb)
        with b.region("quant"):
            emit_pair_epilogue(b, cfg.bits, cfg.quant, regs)
        b.emit("addi", "tp", "tp", -1)
        b.bnez("tp", "pair_loop")

        # Barrier: nobody reads the shared output until every shard wrote.
        with b.region("barrier"):
            b.li("t0", EU_BARRIER_WAIT)
            b.emit("lw", "t1", 0, "t0")
        b.ebreak()

    # -- execution -------------------------------------------------------

    def run(
        self,
        weights: np.ndarray,
        x0: np.ndarray,
        x1: np.ndarray,
        thresholds: Optional[ThresholdTable] = None,
        shift: int = 0,
        cluster: Optional[Cluster] = None,
    ) -> ClusterKernelRun:
        """Execute on a cluster; returns outputs shaped ``(2, out_ch)``."""
        cfg = self.config
        if cluster is None:
            cluster = Cluster(num_cores=cfg.num_cores, isa=cfg.isa)
        if cluster.config.num_cores != cfg.num_cores:
            raise KernelError(
                f"kernel sharded for {cfg.num_cores} cores, cluster has "
                f"{cluster.config.num_cores}")
        lay = self.layout
        _check_tcdm_fit(lay, cluster)
        weights = np.asarray(weights)
        if weights.shape != (cfg.out_ch, cfg.reduction):
            raise KernelError(f"weights must be {(cfg.out_ch, cfg.reduction)}")

        cluster.reset()
        mem, dma = cluster.mem, cluster.dma

        # Stage tensors in L2, then DMA the tiles into TCDM.
        blobs = {
            "weights": pack(weights, cfg.bits, signed=True),
            "x0": pack(x0, cfg.bits, signed=False),
            "x1": pack(x1, cfg.bits, signed=False),
        }
        if cfg.quant in ("hw", "sw"):
            if thresholds is None:
                raise KernelError("staircase quantization needs thresholds")
            thresholds.write_to_memory(mem, _stage_addr(lay.addr("thr")))
            blobs["thr"] = mem.read_bytes(_stage_addr(lay.addr("thr")),
                                          lay.size_of("thr"))
        for name, blob in blobs.items():
            mem.write_bytes(_stage_addr(lay.addr(name)), blob)
            dma.transfer(_stage_addr(lay.addr(name)), lay.addr(name),
                         len(blob))
        dma_in = dma.busy_until

        cluster.load_program(self.program)
        kb = k_bytes(cfg.reduction, cfg.bits)
        out0 = lay.addr("out")
        out_stride = cfg.out_ch * max(cfg.bits, 2) // 8
        for cpu in cluster.cores:
            cpu.regs[16] = lay.addr("weights")   # a6 (hart offset in code)
            cpu.regs[28] = lay.addr("x0")        # t3 column-0 anchor
            cpu.regs[1] = lay.addr("x1")         # ra column-1 anchor
            cpu.regs[15] = shift if cfg.quant == "shift" else lay.addr("thr")
            cpu.regs[14] = out0                  # a4 pixel-0 outputs
            cpu.regs[27] = out0 + out_stride     # s11 pixel-1 outputs
        run = cluster.run(entry=self.program.entry)

        # DMA the (packed) outputs back to L2 and decode from there.
        out_bytes = 2 * out_stride
        dma_mark = dma.busy_until
        dma.transfer(out0, _stage_addr(out0), out_bytes, when=run.cycles)
        dma_out = dma.busy_until - max(dma_mark, run.cycles)

        rows = []
        for p in range(2):
            data = mem.read_bytes(_stage_addr(out0) + p * out_stride,
                                  out_stride)
            rows.append(unpack(data, cfg.bits, signed=False,
                               count=cfg.out_ch))
        out = np.stack(rows)
        return ClusterKernelRun(
            output=out, run=run, layout=lay,
            dma_in_cycles=dma_in, dma_out_cycles=dma_out,
        )


# ---------------------------------------------------------------------------
# Parallel convolution: output rows sharded across cores
# ---------------------------------------------------------------------------

@dataclass
class ParallelConvConfig(ConvConfig):
    """A convolution layer sharded over *num_cores* cluster cores."""

    num_cores: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_cores < 1:
            raise KernelError("need at least one core")
        if not self.native:
            raise KernelError(
                "parallel conv kernels are native-SIMD only; baseline "
                "pack/unpack variants stay single-core")
        if self.geometry.out_h % self.num_cores:
            raise KernelError(
                f"out_h={self.geometry.out_h} does not split evenly "
                f"across {self.num_cores} cores")

    @property
    def rows_per_core(self) -> int:
        return self.geometry.out_h // self.num_cores


class ParallelConvKernel(ConvKernel):
    """SPMD convolution: core ``h`` computes output rows
    ``[h*Ho/N, (h+1)*Ho/N)`` — PULP-NN's spatial chunking.

    Weights, activations, and thresholds are shared (read-only) in TCDM;
    each hart gets private im2col buffers and a private spill slot, and
    the prologue offsets the activation-patch, output, im2col, and spill
    pointers by the hart's row chunk.
    """

    def __init__(self, config: ParallelConvConfig,
                 base: int = TCDM_BASE) -> None:
        if not isinstance(config, ParallelConvConfig):
            raise KernelError("ParallelConvKernel needs a ParallelConvConfig")
        super().__init__(config, base=base)

    # -- sharding hooks --------------------------------------------------

    def _im2col_copies(self) -> int:
        return self.config.num_cores

    def _row_count(self) -> int:
        return self.config.rows_per_core

    def _emit_prologue(self, b: KernelBuilder) -> None:
        cfg = self.config
        g = cfg.geometry
        rows = cfg.rows_per_core
        row_bytes = padded_row_bytes(g, cfg.bits)
        buf_bytes = align_up(
            im2col_buffer_bytes(g, cfg.bits, unpacked=False), 4)
        with b.region("prologue"):
            b.emit("csrrs", "t0", CSR_MHARTID, "zero")
            _emit_hart_offset(b, "t0", "t1",
                              rows * g.stride * row_bytes, "s8")
            _emit_hart_offset(b, "t0", "t1",
                              rows * g.out_w * g.out_ch * cfg.bits // 8, "a3")
            _emit_hart_offset(b, "t0", "t1", buf_bytes, "a1", "a2")
            _emit_hart_offset(b, "t0", "t1", 16, "sp")

    def _emit_epilogue(self, b: KernelBuilder) -> None:
        with b.region("barrier"):
            b.li("t0", EU_BARRIER_WAIT)
            b.emit("lw", "t1", 0, "t0")
        b.ebreak()

    # -- execution -------------------------------------------------------

    def run(
        self,
        weights: np.ndarray,
        activations: np.ndarray,
        thresholds: Optional[ThresholdTable] = None,
        shift: int = 0,
        bias: Optional[np.ndarray] = None,
        cluster: Optional[Cluster] = None,
        **_ignored,
    ) -> ClusterKernelRun:
        """Run the sharded layer; returns output ``(Ho, Wo, Co)``."""
        cfg = self.config
        g = cfg.geometry
        if cluster is None:
            cluster = Cluster(num_cores=cfg.num_cores, isa=cfg.isa)
        if cluster.config.num_cores != cfg.num_cores:
            raise KernelError(
                f"kernel sharded for {cfg.num_cores} cores, cluster has "
                f"{cluster.config.num_cores}")
        lay = self.layout
        _check_tcdm_fit(lay, cluster)
        weights = np.asarray(weights)
        activations = np.asarray(activations)
        if weights.shape != (g.out_ch, g.kh, g.kw, g.in_ch):
            raise KernelError(
                f"weights must be {(g.out_ch, g.kh, g.kw, g.in_ch)}")
        if activations.shape != (g.in_h, g.in_w, g.in_ch):
            raise KernelError(
                f"activations must be {(g.in_h, g.in_w, g.in_ch)}")

        cluster.reset()
        mem, dma = cluster.mem, cluster.dma

        padded = np.zeros(
            (g.in_h + 2 * g.pad, g.in_w + 2 * g.pad, g.in_ch), dtype=np.int32
        )
        padded[g.pad:g.pad + g.in_h, g.pad:g.pad + g.in_w, :] = activations
        blobs = {
            "acts": pack(padded, cfg.bits, signed=False),
            "weights": pack(weights.reshape(g.out_ch, -1), cfg.bits,
                            signed=True),
        }
        if cfg.quant != "shift":
            if thresholds is None:
                raise KernelError("staircase quantization needs thresholds")
            if thresholds.channels != g.out_ch:
                raise KernelError("threshold table channel count mismatch")
            thresholds.write_to_memory(mem, _stage_addr(lay.addr("thr")))
            blobs["thr"] = mem.read_bytes(_stage_addr(lay.addr("thr")),
                                          lay.size_of("thr"))
        if cfg.with_bias:
            if bias is None:
                raise KernelError("with_bias kernel needs a bias vector")
            bias = np.asarray(bias, dtype=np.int64)
            if bias.shape != (g.out_ch,):
                raise KernelError(f"bias must have shape ({g.out_ch},)")
            mem.write_words(_stage_addr(lay.addr("bias")),
                            [int(v) & 0xFFFFFFFF for v in bias])
            blobs["bias"] = mem.read_bytes(_stage_addr(lay.addr("bias")),
                                           lay.size_of("bias"))
        elif bias is not None:
            raise KernelError("kernel built without with_bias=True")
        for name, blob in blobs.items():
            mem.write_bytes(_stage_addr(lay.addr(name)), blob)
            dma.transfer(_stage_addr(lay.addr(name)), lay.addr(name),
                         len(blob))
        dma_in = dma.busy_until

        cluster.load_program(self.program)
        for cpu in cluster.cores:
            cpu.regs[10] = lay.addr("weights")   # a0
            cpu.regs[11] = lay.addr("im2col0")   # a1 (hart offset in code)
            cpu.regs[12] = lay.addr("im2col1")   # a2
            cpu.regs[13] = lay.addr("out")       # a3
            cpu.regs[24] = lay.addr("acts")      # s8
            cpu.regs[2] = lay.addr("spill")      # sp
            if cfg.quant == "shift":
                cpu.regs[15] = shift             # a5
            else:
                cpu.regs[15] = lay.addr("thr")   # a5
                cpu.regs[26] = lay.addr("thr")   # s10 anchor
            if cfg.with_bias:
                cpu.regs[1] = lay.addr("bias")   # ra
                cpu.regs[8] = lay.addr("bias")   # s0 anchor
        run = cluster.run(entry=self.program.entry)

        out_bytes = g.out_pixels * g.out_ch * cfg.bits // 8
        dma_mark = dma.busy_until
        dma.transfer(lay.addr("out"), _stage_addr(lay.addr("out")),
                     out_bytes, when=run.cycles)
        dma_out = dma.busy_until - max(dma_mark, run.cycles)

        data = mem.read_bytes(_stage_addr(lay.addr("out")), out_bytes)
        flat = unpack(data, cfg.bits, signed=False,
                      count=g.out_pixels * g.out_ch)
        output = flat.reshape(g.out_h, g.out_w, g.out_ch)
        return ClusterKernelRun(
            output=output, run=run, layout=lay,
            dma_in_cycles=dma_in, dma_out_cycles=dma_out,
        )
