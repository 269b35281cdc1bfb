#!/usr/bin/env python3
"""Trace and profile one quantized convolution layer.

Runs the paper's 4-bit convolution (hardware `pv.qnt` requantization) on
the ISS twice: once with a `RegionCounters` profile attached for the
per-region cycle table — the Fig. 6 quantization-share measurement — and
once under an `EventTracer` to export a Perfetto timeline of the marked
kernel phases (`im2col`, `dotprod`, `quant`).

Run:  python examples/trace_conv.py
Then open conv4_trace.json at https://ui.perfetto.dev
"""

import numpy as np

from repro.kernels import ConvConfig, ConvKernel
from repro.qnn import (
    ConvGeometry,
    conv2d_golden,
    random_activations,
    random_weights,
    thresholds_from_accumulators,
)
from repro.target import build_machine
from repro.trace import EventTracer, RegionCounters, write_chrome_trace

BITS = 4
GEOMETRY = ConvGeometry(in_h=8, in_w=8, in_ch=32, out_ch=16,
                        kh=3, kw=3, stride=1, pad=1)

# --- workload -----------------------------------------------------------

rng = np.random.default_rng(7)
weights = random_weights(
    (GEOMETRY.out_ch, GEOMETRY.kh, GEOMETRY.kw, GEOMETRY.in_ch), BITS, rng)
acts = random_activations(
    (GEOMETRY.in_h, GEOMETRY.in_w, GEOMETRY.in_ch), BITS, rng)
acc = conv2d_golden(acts, weights, stride=GEOMETRY.stride, pad=GEOMETRY.pad)
thresholds = thresholds_from_accumulators(acc, BITS)

kernel = ConvKernel(ConvConfig(geometry=GEOMETRY, bits=BITS,
                               isa="xpulpnn", quant="hw"))


def fresh_cpu():
    # The machine factory sizes memory to max(request, the target's L2).
    return build_machine("xpulpnn", mem_bytes=kernel.layout.end + 4096).cpu


# --- pass 1: per-region metrics -----------------------------------------

cpu = fresh_cpu()
cpu.regions = RegionCounters(program=kernel.program)
run = kernel.run(weights, acts, thresholds=thresholds, cpu=cpu)
expected = thresholds.quantize(acc, channel_axis=-1)
assert np.array_equal(run.output, expected), "kernel must match golden model"

print(f"4-bit conv, {GEOMETRY.describe()}")
print(f"{run.cycles:,} cycles, {run.instructions:,} instructions\n")
print(cpu.regions.render(title="Per-region attribution"))
quant_share = cpu.regions.share("quant")
print(f"\npv.qnt requantization share: {quant_share:.1%} "
      "(the Fig. 6 measurement)")

# --- pass 2: event timeline for Perfetto --------------------------------

cpu = fresh_cpu()
cpu.tracer = EventTracer(program=kernel.program)
kernel.run(weights, acts, thresholds=thresholds, cpu=cpu)
payload = write_chrome_trace(cpu.tracer, "conv4_trace.json",
                             title="conv 4-bit")
print(f"\nconv4_trace.json: {len(payload['traceEvents'])} events, "
      f"{len(cpu.tracer.region_spans)} region spans")
print("open it at https://ui.perfetto.dev")
