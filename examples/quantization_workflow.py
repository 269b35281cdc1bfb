#!/usr/bin/env python3
"""From float weights to a sub-byte layer running on simulated silicon.

The complete deployment workflow the paper's software stack assumes:

1. start from a float convolution (as a training framework would leave it);
2. quantize weights symmetrically to 4-bit, activations to unsigned 4-bit;
3. calibrate the staircase thresholds on the integer accumulator
   distribution (what threshold training produces offline);
4. run the layer on the XpulpNN core and compare against (a) the golden
   integer model — must be bit-exact — and (b) the float reference —
   bounded quantization error.

Run:  python examples/quantization_workflow.py
"""

import numpy as np

from repro.core import Cpu, RegionCounters
from repro.kernels import ConvConfig, ConvKernel
from repro.qnn import (
    ConvGeometry,
    conv2d_golden,
    quantize_uniform,
    thresholds_from_accumulators,
)

rng = np.random.default_rng(123)
H = W = 8
CI, CO = 16, 8
BITS = 4

# -- 1. the "trained" float layer -----------------------------------------
w_float = rng.normal(0, 0.4, (CO, 3, 3, CI))
x_float = np.abs(rng.normal(0, 0.8, (H, W, CI)))   # post-ReLU activations

# -- 2. symmetric uniform quantization -------------------------------------
w_q, w_params = quantize_uniform(w_float, BITS, signed=True)
x_q, x_params = quantize_uniform(x_float, BITS, signed=False)
print(f"weight scale: {w_params.scale:.4f}  "
      f"(int range [{w_q.min()}, {w_q.max()}])")
print(f"act scale   : {x_params.scale:.4f}  "
      f"(int range [{x_q.min()}, {x_q.max()}])")

# -- 3. threshold calibration ----------------------------------------------
acc = conv2d_golden(x_q, w_q, stride=1, pad=1)
print(f"accumulators: [{acc.min()}, {acc.max()}] (must fit int16 for pv.qnt)")
thresholds = thresholds_from_accumulators(acc, BITS)

# -- 4. run on the simulated core -------------------------------------------
geometry = ConvGeometry(H, W, CI, CO, 3, 3, 1, 1)
kernel = ConvKernel(ConvConfig(geometry=geometry, bits=BITS, quant="hw"))
cpu = Cpu(isa="xpulpnn")
cpu.regions = RegionCounters(program=kernel.program)
run = kernel.run(w_q, x_q, thresholds=thresholds, cpu=cpu)

golden_levels = thresholds.quantize(acc, channel_axis=-1)
assert np.array_equal(run.output, golden_levels), "ISS diverged from golden!"
print("\nISS output bit-exact against the golden integer model: OK")

# quantization error against the float reference, at matching points:
# dequantize level -> accumulator midpoint -> float via the two scales.
float_ref = conv2d_golden(x_float, w_float, stride=1, pad=1)
acc_scale = w_params.scale * x_params.scale
# reconstruct each level as the mean accumulator within the staircase step
recon = np.zeros_like(acc, dtype=np.float64)
for c in range(CO):
    edges = thresholds.thresholds[c].astype(np.float64)
    centers = np.concatenate([
        [edges[0] - (edges[1] - edges[0]) / 2],
        (edges[:-1] + edges[1:]) / 2,
        [edges[-1] + (edges[-1] - edges[-2]) / 2],
    ])
    recon[:, :, c] = centers[golden_levels[:, :, c]]
rel_err = np.abs(recon * acc_scale - float_ref).mean() / np.abs(float_ref).mean()
print(f"mean relative error vs float reference: {100 * rel_err:.1f}% "
      f"(4-bit staircase)")

# -- profile where the cycles went -----------------------------------------
print()
print(cpu.regions.render(title="execution profile (per kernel region)"))
