"""Cluster-parallel kernels: bit-exactness vs single core, and scaling."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels import (
    ConvConfig,
    ConvKernel,
    MatmulConfig,
    MatmulKernel,
    ParallelConvConfig,
    ParallelConvKernel,
    ParallelMatmulConfig,
    ParallelMatmulKernel,
)
from repro.qnn import ConvGeometry, random_threshold_table

K, CO = 256, 64


@pytest.fixture
def matmul_data(rng):
    def make(bits):
        lo, hi = -(1 << (bits - 1)), 1 << (bits - 1)
        w = rng.integers(lo, hi, (CO, K)).astype(np.int32)
        x0 = rng.integers(0, 1 << bits, K).astype(np.int32)
        x1 = rng.integers(0, 1 << bits, K).astype(np.int32)
        return w, x0, x1

    return make


def _single(bits, quant):
    return MatmulKernel(MatmulConfig(
        reduction=K, out_ch=CO, bits=bits, isa="xpulpnn", quant=quant))


def _parallel(bits, quant, cores):
    return ParallelMatmulKernel(ParallelMatmulConfig(
        reduction=K, out_ch=CO, bits=bits, num_cores=cores, quant=quant))


class TestParallelMatmulExactness:
    @pytest.mark.parametrize("bits,quant", [
        (8, "shift"), (4, "hw"), (4, "sw"), (2, "hw"),
    ])
    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_bit_identical_to_single_core(self, matmul_data, rng,
                                          bits, quant, cores):
        w, x0, x1 = matmul_data(bits)
        table = (random_threshold_table(CO, bits, spread=600, rng=rng)
                 if bits != 8 else None)
        single = _single(bits, quant).run(w, x0, x1, thresholds=table,
                                          shift=10)
        par = _parallel(bits, quant, cores).run(w, x0, x1, thresholds=table,
                                                shift=10)
        assert np.array_equal(single.output, par.output)

    def test_acceptance_8core_4bit_speedup(self, matmul_data, rng):
        """The PR's acceptance bar: 8-core 4-bit MatMul bit-identical with
        >= 6x modeled speedup (>= 75 % parallel efficiency)."""
        w, x0, x1 = matmul_data(4)
        table = random_threshold_table(CO, 4, spread=600, rng=rng)
        single = _single(4, "hw").run(w, x0, x1, thresholds=table)
        par = _parallel(4, "hw", 8).run(w, x0, x1, thresholds=table)
        assert np.array_equal(single.output, par.output)
        speedup = single.cycles / par.cycles
        assert speedup >= 6.0
        assert speedup / 8 >= 0.75

    def test_reused_cluster_reports_each_runs_barriers(self, matmul_data,
                                                       rng):
        from repro.cluster import Cluster

        w, x0, x1 = matmul_data(4)
        table = random_threshold_table(CO, 4, spread=600, rng=rng)
        kernel = _parallel(4, "hw", 4)
        cluster = Cluster(num_cores=4)
        first = kernel.run(w, x0, x1, thresholds=table, cluster=cluster)
        second = kernel.run(w, x0, x1, thresholds=table, cluster=cluster)
        assert first.run.barriers == second.run.barriers == 1
        assert first.cycles == second.cycles
        assert np.array_equal(first.output, second.output)

    def test_barrier_and_idle_accounted(self, matmul_data, rng):
        w, x0, x1 = matmul_data(4)
        table = random_threshold_table(CO, 4, spread=600, rng=rng)
        par = _parallel(4, "hw", 4).run(w, x0, x1, thresholds=table)
        assert par.run.barriers == 1
        clocks = [p.cycles for p in par.run.per_core]
        assert max(clocks) - min(clocks) <= 4
        assert par.dma_in_cycles > 0 and par.dma_out_cycles > 0


class TestParallelMatmulConfig:
    def test_rejects_unsplittable_channels(self):
        with pytest.raises(KernelError):
            ParallelMatmulConfig(reduction=K, out_ch=24, bits=4,
                                 num_cores=8, quant="hw")

    def test_rejects_2bit_odd_pairs_per_core(self):
        # 48/8 = 6 channels per core: pairs are not packed-byte aligned.
        with pytest.raises(KernelError):
            ParallelMatmulConfig(reduction=K, out_ch=48, bits=2,
                                 num_cores=8, quant="hw")

    def test_rejects_baseline_subbyte(self):
        with pytest.raises(KernelError):
            ParallelMatmulConfig(reduction=K, out_ch=CO, bits=4,
                                 num_cores=8, isa="ri5cy", quant="sw")

    def test_rejects_core_count_mismatch(self, matmul_data, rng):
        from repro.cluster import Cluster

        w, x0, x1 = matmul_data(8)
        kern = _parallel(8, "shift", 4)
        with pytest.raises(KernelError, match="cores"):
            kern.run(w, x0, x1, shift=10, cluster=Cluster(num_cores=8))


class TestParallelConv:
    GEOM = ConvGeometry(in_h=8, in_w=8, in_ch=16, out_ch=8,
                        kh=3, kw=3, stride=1, pad=1)

    @pytest.mark.parametrize("bits,quant", [(8, "shift"), (4, "hw"),
                                            (2, "hw")])
    @pytest.mark.parametrize("cores", [2, 8])
    def test_bit_identical_to_single_core(self, rng, bits, quant, cores):
        g = self.GEOM
        lo, hi = -(1 << (bits - 1)), 1 << (bits - 1)
        w = rng.integers(lo, hi, (g.out_ch, g.kh, g.kw, g.in_ch)).astype(np.int32)
        x = rng.integers(0, 1 << bits, (g.in_h, g.in_w, g.in_ch)).astype(np.int32)
        table = (random_threshold_table(g.out_ch, bits, spread=600, rng=rng)
                 if bits != 8 else None)
        single = ConvKernel(ConvConfig(geometry=g, bits=bits, isa="xpulpnn",
                                       quant=quant)).run(
            w, x, thresholds=table, shift=10)
        par = ParallelConvKernel(ParallelConvConfig(
            geometry=g, bits=bits, isa="xpulpnn", quant=quant,
            num_cores=cores)).run(w, x, thresholds=table, shift=10)
        assert np.array_equal(single.output, par.output)
        if cores == 8:
            assert single.cycles / par.cycles > 4.0

    def test_rejects_unsplittable_rows(self):
        g = ConvGeometry(in_h=6, in_w=6, in_ch=16, out_ch=8,
                         kh=3, kw=3, stride=1, pad=1)
        with pytest.raises(KernelError, match="split"):
            ParallelConvConfig(geometry=g, bits=4, quant="hw", num_cores=4)

    def test_rejects_baseline_isa(self):
        with pytest.raises(KernelError, match="native"):
            ParallelConvConfig(geometry=self.GEOM, bits=4, isa="ri5cy",
                               quant="sw", num_cores=2)
