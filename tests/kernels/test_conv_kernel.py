"""Full convolution kernels: bit-exactness and cycle-count shape."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.eval import matrix
from repro.eval.workloads import SUITE_CONFIGS
from repro.kernels import ConvConfig, ConvKernel
from repro.qnn import (
    ConvGeometry,
    conv2d_golden,
    random_activations,
    random_weights,
    requantize_shift,
    thresholds_from_accumulators,
)
from tests.conftest import TINY_GEOMETRY

CONFIGS = [(8, "ri5cy", "shift"), *SUITE_CONFIGS]


@pytest.fixture(scope="module")
def runs():
    """Run the whole kernel matrix once on the tiny geometry: ``(run,
    expected output, quant-region cycles)`` per configuration."""
    results = {}
    for bits, isa, quant in CONFIGS:
        execution = matrix.run(matrix.Point("conv", bits, isa, quant),
                               TINY_GEOMETRY, matrix.region_table)
        _, _, acc, table = execution.draw
        expected = (requantize_shift(acc, 8, 8, signed=False) if table is None
                    else table.quantize(acc, channel_axis=-1))
        results[(bits, isa, quant)] = (execution.result, expected,
                                       execution.observer["quant"].cycles)
    return results


@pytest.mark.parametrize("key", CONFIGS, ids=lambda k: f"{k[0]}b-{k[1]}-{k[2]}")
def test_bit_exact_vs_golden(runs, key):
    run, expected, _ = runs[key]
    assert np.array_equal(run.output, expected)


class TestCycleShape:
    def test_8bit_identical_on_both_cores(self, runs):
        assert runs[(8, "ri5cy", "shift")][0].cycles == \
            runs[(8, "xpulpnn", "shift")][0].cycles

    def test_4bit_speedup_in_paper_zone(self, runs):
        """Paper: 5.3x. Geometry-dependent within ~±20 %."""
        ratio = runs[(4, "ri5cy", "sw")][0].cycles / runs[(4, "xpulpnn", "hw")][0].cycles
        assert 4.0 <= ratio <= 6.5, ratio

    def test_2bit_speedup_in_paper_zone(self, runs):
        """Paper: 8.9x."""
        ratio = runs[(2, "ri5cy", "sw")][0].cycles / runs[(2, "xpulpnn", "hw")][0].cycles
        assert 7.0 <= ratio <= 11.0, ratio

    def test_subbyte_scales_with_bitwidth(self, runs):
        c8 = runs[(8, "xpulpnn", "shift")][0].cycles
        c4 = runs[(4, "xpulpnn", "hw")][0].cycles
        c2 = runs[(2, "xpulpnn", "hw")][0].cycles
        assert c8 > c4 > c2
        assert 1.4 <= c8 / c4 <= 2.2      # "almost linear"
        assert 2.2 <= c8 / c2 <= 4.0

    def test_hw_quant_beats_sw_quant(self, runs):
        for bits in (4, 2):
            sw = runs[(bits, "xpulpnn", "sw")][0].cycles
            hw = runs[(bits, "xpulpnn", "hw")][0].cycles
            assert 1.05 <= sw / hw <= 1.5

    def test_quant_share_small_with_pv_qnt(self, runs):
        run4, _, quant4 = runs[(4, "xpulpnn", "hw")]
        assert 0.02 <= quant4 / run4.cycles <= 0.12

    def test_quant_share_larger_at_2bit(self, runs):
        run4, _, quant4 = runs[(4, "xpulpnn", "hw")]
        run2, _, quant2 = runs[(2, "xpulpnn", "hw")]
        assert quant2 / run2.cycles > quant4 / run4.cycles

    def test_baseline_mac_per_cycle_below_one(self, runs):
        g = TINY_GEOMETRY
        run = runs[(4, "ri5cy", "sw")][0]
        assert run.macs_per_cycle(g.macs) < 1.0

    def test_extended_4bit_mac_per_cycle(self, runs):
        g = TINY_GEOMETRY
        run = runs[(4, "xpulpnn", "hw")][0]
        assert run.macs_per_cycle(g.macs) > 2.0


class TestGeometryVariants:
    def test_stride_2(self, rng):
        g = ConvGeometry(in_h=8, in_w=8, in_ch=16, out_ch=8, kh=3, kw=3,
                         stride=2, pad=1)
        w = random_weights((8, 3, 3, 16), 4, rng)
        x = random_activations((8, 8, 16), 4, rng)
        acc = conv2d_golden(x, w, stride=2, pad=1)
        table = thresholds_from_accumulators(acc, 4)
        run = ConvKernel(ConvConfig(geometry=g, bits=4, quant="hw")).run(
            w, x, thresholds=table)
        assert np.array_equal(run.output, table.quantize(acc))

    def test_no_padding(self, rng):
        g = ConvGeometry(in_h=8, in_w=8, in_ch=16, out_ch=8, kh=3, kw=3,
                         stride=1, pad=0)
        w = random_weights((8, 3, 3, 16), 4, rng)
        x = random_activations((8, 8, 16), 4, rng)
        acc = conv2d_golden(x, w, stride=1, pad=0)
        table = thresholds_from_accumulators(acc, 4)
        run = ConvKernel(ConvConfig(geometry=g, bits=4, quant="hw")).run(
            w, x, thresholds=table)
        assert np.array_equal(run.output, table.quantize(acc))

    def test_1x1_kernel(self, rng):
        g = ConvGeometry(in_h=4, in_w=4, in_ch=32, out_ch=8, kh=1, kw=1,
                         stride=1, pad=0)
        w = random_weights((8, 1, 1, 32), 4, rng)
        x = random_activations((4, 4, 32), 4, rng)
        acc = conv2d_golden(x, w)
        table = thresholds_from_accumulators(acc, 4)
        run = ConvKernel(ConvConfig(geometry=g, bits=4, quant="hw")).run(
            w, x, thresholds=table)
        assert np.array_equal(run.output, table.quantize(acc))


class TestValidation:
    def test_odd_out_w_rejected(self):
        g = ConvGeometry(in_h=5, in_w=5, in_ch=16, out_ch=8, pad=0)
        with pytest.raises(KernelError):
            ConvConfig(geometry=g, bits=4, quant="hw")

    def test_2bit_out_ch_multiple_of_4(self):
        g = ConvGeometry(in_h=6, in_w=6, in_ch=16, out_ch=6, pad=1)
        with pytest.raises(KernelError):
            ConvConfig(geometry=g, bits=2, quant="hw")

    def test_segment_word_fill(self):
        g = ConvGeometry(in_h=6, in_w=6, in_ch=4, out_ch=8, pad=1)
        with pytest.raises(KernelError):
            ConvConfig(geometry=g, bits=2, quant="hw")

    def test_hw_quant_needs_extended_core(self):
        with pytest.raises(KernelError):
            ConvConfig(geometry=TINY_GEOMETRY, bits=4, isa="ri5cy", quant="hw")

    def test_baseline_shuffle_style_rejected(self):
        with pytest.raises(KernelError):
            ConvConfig(geometry=TINY_GEOMETRY, bits=4, isa="ri5cy",
                       quant="sw", unpack_style="shuffle")

    def test_shape_mismatch_raises(self, rng):
        kern = ConvKernel(ConvConfig(geometry=TINY_GEOMETRY, bits=4, quant="hw"))
        with pytest.raises(KernelError):
            kern.run(np.zeros((1, 1, 1, 1)), np.zeros((6, 6, 16)))

    def test_threshold_channel_mismatch(self, rng):
        from repro.qnn import random_threshold_table

        g = TINY_GEOMETRY
        kern = ConvKernel(ConvConfig(geometry=g, bits=4, quant="hw"))
        w = random_weights((g.out_ch, 3, 3, g.in_ch), 4, rng)
        x = random_activations((6, 6, 16), 4, rng)
        with pytest.raises(KernelError):
            kern.run(w, x, thresholds=random_threshold_table(4, 4))


class TestBias:
    def test_bias_added_to_accumulators(self, rng):
        g = TINY_GEOMETRY
        w = random_weights((g.out_ch, 3, 3, g.in_ch), 8, rng)
        x = random_activations((6, 6, g.in_ch), 8, rng)
        bias = rng.integers(-4000, 4000, g.out_ch)
        kern = ConvKernel(ConvConfig(geometry=g, bits=8, quant="shift",
                                     with_bias=True))
        run = kern.run(w, x, shift=8, bias=bias)
        acc = conv2d_golden(x, w, 1, 1) + bias
        assert np.array_equal(run.output,
                              requantize_shift(acc, 8, 8, signed=False))

    def test_negative_bias_clamps_to_zero(self, rng):
        g = TINY_GEOMETRY
        w = np.zeros((g.out_ch, 3, 3, g.in_ch), dtype=np.int32)
        x = random_activations((6, 6, g.in_ch), 8, rng)
        bias = np.full(g.out_ch, -1000)
        kern = ConvKernel(ConvConfig(geometry=g, bits=8, quant="shift",
                                     with_bias=True))
        run = kern.run(w, x, shift=0, bias=bias)
        assert run.output.max() == 0

    def test_bias_requires_shift_path(self):
        with pytest.raises(KernelError):
            ConvConfig(geometry=TINY_GEOMETRY, bits=4, quant="hw",
                       with_bias=True)

    def test_bias_vector_required(self, rng):
        g = TINY_GEOMETRY
        kern = ConvKernel(ConvConfig(geometry=g, bits=8, quant="shift",
                                     with_bias=True))
        w = random_weights((g.out_ch, 3, 3, g.in_ch), 8, rng)
        x = random_activations((6, 6, g.in_ch), 8, rng)
        with pytest.raises(KernelError):
            kern.run(w, x, shift=8)

    def test_bias_on_plain_kernel_rejected(self, rng):
        g = TINY_GEOMETRY
        kern = ConvKernel(ConvConfig(geometry=g, bits=8, quant="shift"))
        w = random_weights((g.out_ch, 3, 3, g.in_ch), 8, rng)
        x = random_activations((6, 6, g.in_ch), 8, rng)
        with pytest.raises(KernelError):
            kern.run(w, x, shift=8, bias=np.zeros(g.out_ch))
