"""MatMul inner loops and requantization epilogues.

The dot-product step of the paper's execution model: a 2x2-blocked matrix
multiplication that computes two consecutive output channels for two
output pixels per pass (§II-2).  The inner loop reduces over the im2col
length one 32-bit word at a time:

* **native** (8-bit on both cores; 4/2-bit only with XpulpNN): 4 loads +
  4 ``pv.sdotusp`` per word — 2/4/8 MACs per instruction at 8/4/2-bit;
* **unpacked** (4/2-bit on baseline RI5CY): packed weights are widened to
  int8 in-loop, activations come pre-widened from the im2col buffer, and
  the 8-bit dot-product unit does the MACs — the pack/unpack overhead the
  paper eliminates.

Accumulation is ``acc += x (unsigned) . w (signed)`` (``pv.sdotusp``),
matching unsigned activations against signed weights.

This module also provides :class:`MatmulKernel`, the standalone kernel used
for the power-characterization workload of Table III and for the unpack
ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..asm.builder import KernelBuilder
from ..core.cpu import Cpu
from ..errors import KernelError
from ..qnn import ThresholdTable, pack, tree_stride, unpack
from ..target.names import RI5CY, XPULPNN
from .common import KernelRun, align_up, plan_layout
from .quant_sw import emit_quantize_software
from .unpack import emit_load_unpack_constants, emit_unpack

#: SIMD suffix per element width.
SUFFIX = {8: "b", 4: "n", 2: "c"}


def baseline_limit(bits: int, isa: str, parallel: bool = False,
                   reduction: int = 0) -> Optional[str]:
    """Why no *bits*-bit kernel exists on *isa*, or None.  Without native
    sub-byte SIMD the kernels pack and unpack in software: they stay
    single-core (no *parallel* variant), and the MatMul's loop count is
    an immediate, so its packed *reduction* must fit 31 words."""
    if bits == 8 or isa == XPULPNN:
        return None
    if parallel:
        return ("without native sub-byte SIMD the baseline kernels stay "
                "single-core")
    words = reduction * bits // 32
    if words > 31:
        return (f"the packed reduction is {words} words; the baseline "
                f"MatMul's immediate loop count holds 31")
    return None


def k_words(reduction: int, bits: int) -> int:
    """Packed 32-bit words per filter / im2col column."""
    total_bits = reduction * bits
    if total_bits % 32:
        raise KernelError(
            f"reduction of {reduction} {bits}-bit elements does not fill words"
        )
    return total_bits // 32


def k_bytes(reduction: int, bits: int) -> int:
    return reduction * bits // 8


@dataclass
class MatmulRegs:
    """Register roles of the 2x2 inner loop."""

    wptr0: str
    wptr1: str
    xptr0: str
    xptr1: str
    acc00: str   # pixel 0, channel i
    acc01: str   # pixel 1, channel i
    acc10: str   # pixel 0, channel i+1
    acc11: str   # pixel 1, channel i+1


def emit_acc_clear(b: KernelBuilder, regs: MatmulRegs) -> None:
    for acc in (regs.acc00, regs.acc01, regs.acc10, regs.acc11):
        b.emit("addi", acc, "zero", 0)


def emit_inner_native(
    b: KernelBuilder,
    bits: int,
    count,
    regs: MatmulRegs,
    tmps: Sequence[str],
) -> None:
    """Native SIMD inner loop: 8 instructions per word of reduction."""
    suffix = SUFFIX[bits]
    w0, w1, x0, x1 = tmps[:4]
    with b.hardware_loop(0, count):
        b.emit("p.lw", w0, 4, regs.wptr0, inc=True)
        b.emit("p.lw", w1, 4, regs.wptr1, inc=True)
        b.emit("p.lw", x0, 4, regs.xptr0, inc=True)
        b.emit("p.lw", x1, 4, regs.xptr1, inc=True)
        b.emit(f"pv.sdotusp.{suffix}", regs.acc00, x0, w0)
        b.emit(f"pv.sdotusp.{suffix}", regs.acc01, x1, w0)
        b.emit(f"pv.sdotusp.{suffix}", regs.acc10, x0, w1)
        b.emit(f"pv.sdotusp.{suffix}", regs.acc11, x1, w1)


def emit_inner_native_4x2(
    b: KernelBuilder,
    bits: int,
    count,
    wptrs: Sequence[str],
    xptrs: Sequence[str],
    accs: Sequence[str],
    tmps: Sequence[str],
) -> None:
    """4x2-blocked native inner loop (PULP-NN's 8-bit blocking).

    Four filters share each activation word: 6 loads + 8 sdotp per word of
    reduction = 14 instructions for 8 word-MACs, versus the 2x2 loop's
    8 instructions for 4 — ~12 % fewer instructions per MAC at the price
    of four more live accumulators.  ``accs`` is ordered
    ``[p0c0, p0c1, p0c2, p0c3, p1c0, p1c1, p1c2, p1c3]``.
    """
    suffix = SUFFIX[bits]
    w_regs = tmps[:4]
    x0, x1 = tmps[4], tmps[5]
    with b.hardware_loop(0, count):
        for w_reg, wptr in zip(w_regs, wptrs):
            b.emit("p.lw", w_reg, 4, wptr, inc=True)
        b.emit("p.lw", x0, 4, xptrs[0], inc=True)
        b.emit("p.lw", x1, 4, xptrs[1], inc=True)
        for c, w_reg in enumerate(w_regs):
            b.emit(f"pv.sdotusp.{suffix}", accs[c], x0, w_reg)
        for c, w_reg in enumerate(w_regs):
            b.emit(f"pv.sdotusp.{suffix}", accs[4 + c], x1, w_reg)


def emit_inner_unpacked_nibble(
    b: KernelBuilder,
    count,
    regs: MatmulRegs,
    tmps: Sequence[str],
    style: str,
    unpack_regs: Dict[str, str],
) -> None:
    """Baseline 4-bit inner loop: widen packed weights in-loop.

    Activations arrive as int8 from the unpack-im2col, so each packed
    weight word (8 nibbles) pairs with two activation words per pixel.
    """
    wp, wlo, whi, xa0, xa1, xb0, xb1 = tmps[:7]
    with b.hardware_loop(0, count):
        b.emit("p.lw", wp, 4, regs.wptr0, inc=True)
        emit_unpack(b, 4, wp, [wlo, whi], signed=True, style=style, regs=unpack_regs)
        b.emit("p.lw", xa0, 4, regs.xptr0, inc=True)
        b.emit("p.lw", xa1, 4, regs.xptr0, inc=True)
        b.emit("p.lw", xb0, 4, regs.xptr1, inc=True)
        b.emit("p.lw", xb1, 4, regs.xptr1, inc=True)
        b.emit("pv.sdotusp.b", regs.acc00, xa0, wlo)
        b.emit("pv.sdotusp.b", regs.acc00, xa1, whi)
        b.emit("pv.sdotusp.b", regs.acc01, xb0, wlo)
        b.emit("pv.sdotusp.b", regs.acc01, xb1, whi)
        b.emit("p.lw", wp, 4, regs.wptr1, inc=True)
        emit_unpack(b, 4, wp, [wlo, whi], signed=True, style=style, regs=unpack_regs)
        b.emit("pv.sdotusp.b", regs.acc10, xa0, wlo)
        b.emit("pv.sdotusp.b", regs.acc10, xa1, whi)
        b.emit("pv.sdotusp.b", regs.acc11, xb0, wlo)
        b.emit("pv.sdotusp.b", regs.acc11, xb1, whi)


def emit_inner_unpacked_crumb(
    b: KernelBuilder,
    count,
    regs: MatmulRegs,
    tmps: Sequence[str],
    style: str,
    unpack_regs: Dict[str, str],
) -> None:
    """Baseline 2-bit inner loop.

    One packed weight word holds 16 crumbs -> 4 int8 vectors; the
    activation words are re-read for the second filter because the
    register file cannot hold both pixels' 8 activation words alongside
    the widened weights (matching the reference kernels' structure).
    """
    if len(tmps) < 9:
        raise KernelError("crumb inner loop needs 9 scratch registers")
    wp = tmps[0]
    wv = list(tmps[1:5])
    xv = list(tmps[5:9])

    def dots(acc: str) -> None:
        for x, w in zip(xv, wv):
            b.emit("pv.sdotusp.b", acc, x, w)

    def load_x(ptr: str) -> None:
        for x in xv:
            b.emit("p.lw", x, 4, ptr, inc=True)

    with b.hardware_loop(0, count):
        b.emit("p.lw", wp, 4, regs.wptr0, inc=True)
        emit_unpack(b, 2, wp, wv, signed=True, style=style, regs=unpack_regs)
        load_x(regs.xptr0)
        dots(regs.acc00)
        load_x(regs.xptr1)
        dots(regs.acc01)
        b.emit("p.lw", wp, 4, regs.wptr1, inc=True)
        emit_unpack(b, 2, wp, wv, signed=True, style=style, regs=unpack_regs)
        b.emit("addi", regs.xptr0, regs.xptr0, -16)
        b.emit("addi", regs.xptr1, regs.xptr1, -16)
        load_x(regs.xptr0)
        dots(regs.acc10)
        load_x(regs.xptr1)
        dots(regs.acc11)


def emit_inner_loop(
    b: KernelBuilder,
    bits: int,
    native: bool,
    count,
    regs: MatmulRegs,
    tmps: Sequence[str],
    style: str = "extract",
    unpack_regs: Optional[Dict[str, str]] = None,
) -> None:
    """Dispatch to the matching inner-loop emitter."""
    if native or bits == 8:
        emit_inner_native(b, bits, count, regs, tmps)
    elif bits == 4:
        emit_inner_unpacked_nibble(b, count, regs, tmps, style, unpack_regs)
    elif bits == 2:
        emit_inner_unpacked_crumb(b, count, regs, tmps, style, unpack_regs)
    else:
        raise KernelError(f"no inner loop for {bits}-bit operands")


# ---------------------------------------------------------------------------
# Epilogues (requantize + store the 2x2 block)
# ---------------------------------------------------------------------------

def emit_requant_shift_store(
    b: KernelBuilder,
    regs: MatmulRegs,
    shift_reg: str,
    out0: str,
    out1: str,
    tmp: str,
) -> None:
    """8-bit epilogue: ``clip(acc >> shift, 0, 255)`` per output, stored as
    consecutive channel bytes (branch-free: usable inside hardware loops)."""
    for acc, out in ((regs.acc00, out0), (regs.acc10, out0),
                     (regs.acc01, out1), (regs.acc11, out1)):
        b.emit("sra", tmp, acc, shift_reg)
        b.emit("p.clipu", tmp, tmp, 9)
        b.emit("p.sb", tmp, 1, out, inc=True)


def emit_pack_qnt_input(b: KernelBuilder, lo_acc: str, hi_acc: str, dest: str) -> None:
    """Pack two 16-bit accumulators of consecutive channels into one word
    (the ``pv.qnt`` input format)."""
    b.mv(dest, lo_acc)
    b.emit("p.insert", dest, hi_acc, 16, 16)


def emit_hwquant_nibble_store(
    b: KernelBuilder,
    regs: MatmulRegs,
    thr: str,
    out0: str,
    out1: str,
    tmp: str,
    q: str,
) -> None:
    """4-bit epilogue with ``pv.qnt.n``: each invocation quantizes the two
    consecutive channels of one pixel and yields one packed output byte."""
    emit_pack_qnt_input(b, regs.acc00, regs.acc10, tmp)
    b.emit("pv.qnt.n", q, tmp, thr)
    b.emit("p.sb", q, 1, out0, inc=True)
    emit_pack_qnt_input(b, regs.acc01, regs.acc11, tmp)
    b.emit("pv.qnt.n", q, tmp, thr)
    b.emit("p.sb", q, 1, out1, inc=True)


def emit_swquant_pair(
    b: KernelBuilder,
    bits: int,
    regs: MatmulRegs,
    thr: str,
    thr_next: str,
    q_lo0: str,
    q_lo1: str,
    tmp: str,
    scratch: str,
) -> None:
    """Software staircase quantization of the 2x2 block.

    Leaves ``q_lo0``/``q_lo1`` holding each pixel's two channel codes
    packed as ``code_i | code_{i+1} << bits`` (same format ``pv.qnt``
    produces), so callers share the store path with the hardware variant.
    ``thr_next`` receives the second channel's tree address.
    """
    stride = tree_stride(bits)
    b.emit("addi", thr_next, thr, stride)
    emit_quantize_software(b, bits, regs.acc00, thr, q_lo0, scratch)
    emit_quantize_software(b, bits, regs.acc01, thr, q_lo1, scratch)
    emit_quantize_software(b, bits, regs.acc10, thr_next, tmp, scratch)
    b.emit("slli", tmp, tmp, bits)
    b.emit("or", q_lo0, q_lo0, tmp)
    emit_quantize_software(b, bits, regs.acc11, thr_next, tmp, scratch)
    b.emit("slli", tmp, tmp, bits)
    b.emit("or", q_lo1, q_lo1, tmp)


def emit_pair_epilogue(
    b: KernelBuilder,
    bits: int,
    quant: str,
    regs: MatmulRegs,
    hold_label: Optional[str] = None,
) -> None:
    """Requantize-and-store epilogue of one channel pair's 2x2 block.

    Uses the standalone-MatMul register convention (outputs via ``a4`` /
    ``s11``, thresholds/shift in ``a5``, pair counter in ``tp``, 2-bit
    hold registers ``gp``/``s8``).  Shared by :class:`MatmulKernel` and
    the cluster-parallel variant; *hold_label* names the 2-bit
    merge-skip label (auto-generated when None).
    """
    if quant == "none":
        # Raw 32-bit accumulators, stored as (acc00, acc10, acc01, acc11).
        for acc in (regs.acc00, regs.acc10, regs.acc01, regs.acc11):
            b.emit("p.sw", acc, 4, "a4", inc=True)
        return
    if quant == "shift":
        emit_requant_shift_store(b, regs, "a5", "a4", "s11", "t0")
        return
    if bits == 4:
        if quant == "hw":
            emit_hwquant_nibble_store(b, regs, "a5", "a4", "s11", "t0", "t1")
        else:
            emit_swquant_pair(b, 4, regs, "a5", "t2", "t0", "t1", "t4", "s0")
            b.emit("p.sb", "t0", 1, "a4", inc=True)
            b.emit("p.sb", "t1", 1, "s11", inc=True)
        b.emit("addi", "a5", "a5", 2 * tree_stride(4))
        return
    # 2-bit: each pair yields half a byte per pixel; hold one pair in
    # gp/s8 and store merged bytes on every second pair.
    if quant == "hw":
        emit_pack_qnt_input(b, regs.acc00, regs.acc10, "t0")
        b.emit("pv.qnt.c", "t1", "t0", "a5")
        emit_pack_qnt_input(b, regs.acc01, regs.acc11, "t0")
        b.emit("pv.qnt.c", "t2", "t0", "a5")
    else:
        emit_swquant_pair(b, 2, regs, "a5", "t4", "t1", "t2", "t0", "s0")
    b.emit("slli", "t2", "t2", 16)
    b.emit("or", "gp", "t1", "t2")      # pixel0 in [3:0], pixel1 in [19:16]
    b.emit("addi", "a5", "a5", 2 * tree_stride(2))
    # tp counts down from an even pair count: odd tp = second of a pair.
    label = hold_label or b.fresh_label("hold_halfbyte")
    b.emit("andi", "t0", "tp", 1)
    b.beqz("t0", label)
    b.emit("slli", "t1", "gp", 4)       # current pair -> upper crumbs
    b.emit("or", "t1", "t1", "s8")
    b.emit("andi", "t0", "t1", 0xFF)
    b.emit("p.sb", "t0", 1, "a4", inc=True)
    b.emit("srli", "t0", "t1", 16)
    b.emit("andi", "t0", "t0", 0xFF)
    b.emit("p.sb", "t0", 1, "s11", inc=True)
    b.label(label)
    b.mv("s8", "gp")


# ---------------------------------------------------------------------------
# Standalone MatMul kernel (power workload / unpack ablations)
# ---------------------------------------------------------------------------

@dataclass
class MatmulConfig:
    """One MatMul microkernel: ``out_ch`` filters x 2 im2col columns."""

    reduction: int
    out_ch: int
    bits: int
    isa: str = XPULPNN            # RI5CY or XPULPNN
    quant: str = "none"           # "shift" | "hw" | "sw" | "none"
    unpack_style: str = "extract"
    blocking: str = "2x2"         # "2x2" | "4x2" (4x2: native, raw accs)

    def __post_init__(self) -> None:
        if self.blocking not in ("2x2", "4x2"):
            raise KernelError(f"unknown blocking {self.blocking!r}")
        if self.blocking == "4x2":
            if not (self.bits == 8 or self.isa == XPULPNN):
                raise KernelError("4x2 blocking needs native SIMD")
            if self.quant != "none":
                raise KernelError(
                    "4x2 blocking is the raw-accumulator ablation variant")
            if self.out_ch % 4:
                raise KernelError("4x2 blocking needs out_ch % 4 == 0")
        if self.bits not in (2, 4, 8):
            raise KernelError(f"unsupported operand width {self.bits}")
        if self.out_ch % 2:
            raise KernelError("out_ch must be even (2x2 blocking)")
        if self.bits == 8 and self.quant not in ("shift", "none"):
            raise KernelError("8-bit kernels use shift requantization")
        if self.bits != 8 and self.quant == "shift":
            raise KernelError("sub-byte kernels use staircase quantization")
        if self.bits == 2 and self.quant != "none" and self.out_ch % 4:
            raise KernelError("2-bit outputs pack 4 channels per byte")
        if self.quant == "hw" and self.isa != XPULPNN:
            raise KernelError("pv.qnt requires the XpulpNN ISA")
        if self.bits != 8 and self.isa == RI5CY and self.quant == "hw":
            raise KernelError("the baseline core has no hardware quantization")
        reason = baseline_limit(self.bits, self.isa, reduction=self.reduction)
        if reason:
            raise KernelError(reason)

    @property
    def native(self) -> bool:
        return self.bits == 8 or self.isa == XPULPNN

    @property
    def macs(self) -> int:
        return self.reduction * self.out_ch * 2


class MatmulKernel:
    """Generate and run one standalone MatMul microkernel.

    Register plan (leaf kernel, harness fills the bases before the run):

    * ``a6``/``a7`` weight pointers, ``s6``/``s7`` column pointers,
      ``s2..s5`` accumulators (the :class:`MatmulRegs` block);
    * ``t3``/``ra`` column base anchors, ``a5`` thresholds base or shift;
    * ``a4``/``s11`` output pointers (pixel 0 / pixel 1), ``tp`` pair
      counter, ``gp``/``s8`` the 2-bit hold registers;
    * ``t0,t1,t2,t4,s0,s1,a1,a2,s9`` inner-loop scratch; unpack constants
      in ``s10,a0,a3,t5`` when a shuffle-style sequence is selected.
    """

    _TMPS = ("t0", "t1", "t2", "t4", "s0", "s1", "a1", "a2", "s9")

    def __init__(self, config: MatmulConfig, base: int = 0) -> None:
        self.config = config
        cfg = config
        self._k_words = k_words(cfg.reduction, cfg.bits)
        x_bits = cfg.bits if cfg.native else 8
        self._x_bytes = k_bytes(cfg.reduction, x_bits)

        b = KernelBuilder(isa=cfg.isa, base=base)
        self._emit(b)
        self.program = b.build()

        out_bytes = 2 * align_up(cfg.out_ch * max(cfg.bits, 8) // 8, 4)
        thr_bytes = (
            cfg.out_ch * tree_stride(cfg.bits) if cfg.quant in ("hw", "sw") else 4
        )
        self.layout = plan_layout(
            self.program.size,
            {
                "weights": (cfg.out_ch * k_bytes(cfg.reduction, cfg.bits), 4),
                "x0": (self._x_bytes, 4),
                "x1": (self._x_bytes, 4),
                "thr": (thr_bytes, 32),
                "out": (out_bytes + 64, 4),
            },
            base=base,
        )

    # -- code generation --------------------------------------------------

    def _emit(self, b: KernelBuilder) -> None:
        cfg = self.config
        if cfg.blocking == "4x2":
            self._emit_4x2(b)
            return
        regs = MatmulRegs(
            wptr0="a6", wptr1="a7", xptr0="s6", xptr1="s7",
            acc00="s2", acc01="s3", acc10="s4", acc11="s5",
        )
        tmps = list(self._TMPS)
        # Scratch registers for the unpack sequences live in inner-loop
        # temporaries that are dead while unpacking (see emitter comments).
        unpack_regs = {
            "scratch0": tmps[7], "scratch1": tmps[8], "scratch2": tmps[6],
            "sel_lo": "s10", "sel_hi": "a0", "sel_half_lo": "a3",
            "sel_half_hi": "t5", "mask": "t6",
        }
        kb = k_bytes(cfg.reduction, cfg.bits)

        if not cfg.native:
            emit_load_unpack_constants(b, cfg.bits, True, cfg.unpack_style,
                                       unpack_regs)
        b.li("tp", cfg.out_ch // 2)
        use_count_reg = self._k_words > 31
        if use_count_reg:
            b.li("t6", self._k_words)

        b.label("pair_loop")
        with b.region("dotprod"):
            emit_acc_clear(b, regs)
            b.mv(regs.xptr0, "t3")
            b.mv(regs.xptr1, "ra")
            count = "t6" if use_count_reg else self._k_words
            emit_inner_loop(
                b, cfg.bits, cfg.native, count, regs, tmps,
                style=cfg.unpack_style, unpack_regs=unpack_regs,
            )
            b.emit("addi", regs.wptr0, regs.wptr0, kb)
            b.emit("addi", regs.wptr1, regs.wptr1, kb)
        with b.region("quant" if cfg.quant != "none" else "store"):
            self._emit_epilogue(b, regs)
        b.emit("addi", "tp", "tp", -1)
        b.bnez("tp", "pair_loop")
        b.ebreak()

    def _emit_epilogue(self, b: KernelBuilder, regs: MatmulRegs) -> None:
        emit_pair_epilogue(b, self.config.bits, self.config.quant, regs)

    def _emit_4x2(self, b: KernelBuilder) -> None:
        """4x2-blocked variant: 8 accumulators, 4 weight pointers.

        Harness preloads a6/a7/s10/t5 with the four filter pointers and
        t3/ra with the column bases; raw accumulators stream out via a4.
        """
        cfg = self.config
        wptrs = ["a6", "a7", "s10", "t5"]
        xptrs = ["s6", "s7"]
        accs = ["s2", "s3", "s4", "s5", "a1", "a2", "s8", "s9"]
        tmps = ["t0", "t1", "t2", "t4", "a0", "a3"]
        kb = k_bytes(cfg.reduction, cfg.bits)
        b.li("tp", cfg.out_ch // 4)
        use_count_reg = self._k_words > 31
        b.label("quad_loop")
        with b.region("dotprod"):
            for acc in accs:
                b.emit("addi", acc, "zero", 0)
            b.mv(xptrs[0], "t3")
            b.mv(xptrs[1], "ra")
            if use_count_reg:
                b.li("t6", self._k_words)
            emit_inner_native_4x2(
                b, cfg.bits, "t6" if use_count_reg else self._k_words,
                wptrs, xptrs, accs, tmps,
            )
            for wptr in wptrs:
                b.emit("addi", wptr, wptr, 3 * kb)
        with b.region("store"):
            for acc in accs:
                b.emit("p.sw", acc, 4, "a4", inc=True)
        b.emit("addi", "tp", "tp", -1)
        b.bnez("tp", "quad_loop")
        b.ebreak()

    # -- execution ---------------------------------------------------------

    def run(
        self,
        weights: np.ndarray,
        x0: np.ndarray,
        x1: np.ndarray,
        thresholds: Optional[ThresholdTable] = None,
        shift: int = 0,
        cpu: Optional[Cpu] = None,
    ) -> KernelRun:
        """Execute the microkernel.

        Returns quantized outputs shaped ``(2, out_ch)`` — or raw 32-bit
        accumulators for ``quant="none"``.
        """
        cfg = self.config
        if cpu is None:
            cpu = Cpu(isa=cfg.isa)
        lay = self.layout
        weights = np.asarray(weights)
        if weights.shape != (cfg.out_ch, cfg.reduction):
            raise KernelError(f"weights must be {(cfg.out_ch, cfg.reduction)}")
        cpu.mem.write_bytes(lay.addr("weights"), pack(weights, cfg.bits, signed=True))
        x_bits = cfg.bits if cfg.native else 8
        cpu.mem.write_bytes(lay.addr("x0"), pack(x0, x_bits, signed=False))
        cpu.mem.write_bytes(lay.addr("x1"), pack(x1, x_bits, signed=False))
        if cfg.quant in ("hw", "sw"):
            if thresholds is None:
                raise KernelError("staircase quantization needs a threshold table")
            thresholds.write_to_memory(cpu.mem, lay.addr("thr"))

        cpu.reset()
        cpu.load_program(self.program)
        kb = k_bytes(cfg.reduction, cfg.bits)
        if cfg.blocking == "4x2":
            for i, reg in enumerate((16, 17, 26, 30)):  # a6, a7, s10, t5
                cpu.regs[reg] = lay.addr("weights") + i * kb
        else:
            cpu.regs[16] = lay.addr("weights")        # a6 wptr0
            cpu.regs[17] = lay.addr("weights") + kb   # a7 wptr1
        cpu.regs[28] = lay.addr("x0")                 # t3 column-0 anchor
        cpu.regs[1] = lay.addr("x1")                  # ra column-1 anchor
        cpu.regs[15] = shift if cfg.quant == "shift" else lay.addr("thr")  # a5
        out0 = lay.addr("out")
        if cfg.quant == "none":
            out_stride = 0
            cpu.regs[14] = out0                       # a4 raw stream
        else:
            out_stride = cfg.out_ch * max(cfg.bits, 2) // 8
            cpu.regs[14] = out0                       # a4 pixel-0 outputs
            cpu.regs[27] = out0 + out_stride          # s11 pixel-1 outputs
        perf = cpu.run()

        if cfg.quant == "none":
            words = cpu.mem.read_words(out0, cfg.out_ch * 2)
            raw = np.array(words, dtype=np.int64)
            raw = np.where(raw >= 1 << 31, raw - (1 << 32), raw)
            out = np.empty((2, cfg.out_ch), dtype=np.int64)
            if cfg.blocking == "4x2":
                octets = raw.reshape(-1, 8)
                for c in range(4):
                    out[0, c::4] = octets[:, c]
                    out[1, c::4] = octets[:, 4 + c]
            else:
                quads = raw.reshape(-1, 4)
                out[0, 0::2], out[0, 1::2] = quads[:, 0], quads[:, 1]
                out[1, 0::2], out[1, 1::2] = quads[:, 2], quads[:, 3]
        else:
            rows = []
            for p in range(2):
                data = cpu.mem.read_bytes(out0 + p * out_stride, out_stride)
                bits_out = cfg.bits if cfg.bits != 8 else 8
                rows.append(unpack(data, bits_out, signed=False, count=cfg.out_ch))
            out = np.stack(rows)
        return KernelRun(output=out, perf=perf.copy(), layout=lay)
