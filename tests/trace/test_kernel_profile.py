"""The suite points behind ``repro profile`` / ``repro trace``.

The convolution entries run at the benchmark geometry, so the asserted
quantization shares are the Fig. 6 numbers the acceptance spec pins
(pv.qnt shares of ~7% at 4-bit and ~12% at 2-bit on the scaled layer).
"""

import pytest

import repro.kernels
from repro.errors import KernelError, TraceError
from repro.eval.matrix import build, caveats, resolve, suite_points
from repro.target.names import CLUSTER_PREFIX, RI5CY
from repro.trace import validate_chrome_trace, chrome_trace
from repro.trace.profile import kernel_catalog, profile_kernel, trace_kernel

#: ``repro profile --kernel K`` with each of these: 10 names x 4 = 40.
RETARGETS = {"c1": {"cores": 1}, "c8": {"cores": 8},
             RI5CY: {"target": RI5CY},
             "cl8": {"target": f"{CLUSTER_PREFIX}8"}}


class TestCatalog:
    def test_every_entry_described(self):
        names = [name for name, _ in kernel_catalog()]
        assert names == [point.suite_name for point in suite_points()]
        assert all(desc for _, desc in kernel_catalog())

    def test_table_answer_matches_the_build(self, monkeypatch):
        """Every point the table supports builds; every point it rejects
        raises KernelError naming it before a kernel is built, and the
        kernel generator refuses it too."""
        from repro.eval import matrix

        rejected = []
        for name, _ in kernel_catalog():
            for label, flags in RETARGETS.items():
                try:
                    point, geometry = resolve(name, **flags)
                except KernelError as exc:
                    assert str(exc).startswith(f"{name} on ")
                    rejected.append((name, label))
                else:
                    assert build(point, geometry).program
        assert rejected == [("conv_4bit_ri5cy", "c8"),
                            ("conv_2bit_ri5cy", "c8"),
                            ("matmul_4bit", RI5CY)]
        assert sum(len(caveats(p)) for p in suite_points()) == 3

        def no_build(*args, **kwargs):
            raise AssertionError("a rejected point reached the build")

        for name, label in rejected:
            with monkeypatch.context() as patch:
                patch.setattr(repro.kernels, "select", no_build)
                with pytest.raises(KernelError, match=name):
                    profile_kernel(name, **RETARGETS[label])
            with monkeypatch.context() as patch:
                patch.setattr(matrix, "unsupported", lambda *args: None)
                point, geometry = resolve(name, **RETARGETS[label])
            with pytest.raises(KernelError):
                build(point, geometry)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(TraceError, match="unknown kernel"):
            profile_kernel("conv_3bit")


class TestProfileKernel:
    def test_conv_4bit_quant_share_matches_fig6(self):
        profile = profile_kernel("conv_4bit")
        assert profile.cycles > 0
        assert 0.06 < profile.region_share("quant") < 0.08
        assert profile.region_share("dotprod") > 0.7

    def test_conv_2bit_quant_share_matches_fig6(self):
        profile = profile_kernel("conv_2bit")
        assert 0.11 < profile.region_share("quant") < 0.14

    def test_matmul_profile_single_core(self):
        profile = profile_kernel("matmul_4bit")
        assert profile.cores == 1
        assert {"dotprod", "quant"} <= set(profile.registry.regions)
        assert profile.registry.total().cycles == profile.cycles

    def test_matmul_profile_cluster(self):
        profile = profile_kernel("matmul_4bit", cores=4)
        assert profile.cores == 4
        assert "barrier" in profile.registry
        assert "prologue" in profile.registry
        assert profile.detail["tcdm_conflicts"] >= 0
        # Aggregate core-cycles, not wall-clock.
        assert profile.registry.total().cycles > profile.cycles

    def test_cluster_conv_profiles(self):
        profile = profile_kernel("conv_4bit", cores=4)
        assert profile.cores == 4
        assert profile.detail["tcdm_conflicts"] >= 0
        assert profile.cycles < profile_kernel("conv_4bit").cycles

    def test_profile_by_target_name(self):
        single = profile_kernel("conv_4bit", target="xpulpnn")
        assert single.cores == 1
        cluster = profile_kernel("conv_4bit", target="xpulpnn-cluster4")
        assert cluster.cores == 4
        with pytest.raises(TraceError, match="stm32l4"):
            profile_kernel("conv_4bit", target="stm32l4")

    def test_to_dict_round_trip(self):
        profile = profile_kernel("matmul_2bit")
        payload = profile.to_dict()
        assert payload["kernel"] == "matmul_2bit"
        assert payload["regions"]["dotprod"]["cycles"] > 0
        assert "quant" in profile.render()


class TestTraceKernel:
    def test_single_core_conv_trace(self):
        tracer = trace_kernel("conv_4bit")
        names = {s.name for s in tracer.region_spans}
        assert {"im2col", "dotprod", "quant"} <= names
        assert validate_chrome_trace(chrome_trace(tracer)) > 0

    def test_cluster_trace_has_all_lanes(self):
        tracer = trace_kernel("matmul_4bit", cores=8)
        assert tracer.cores == list(range(8))
        assert len(tracer.barriers) >= 8
        assert tracer.dma_events  # staging transfers
        payload = chrome_trace(tracer, title="matmul x8")
        assert validate_chrome_trace(payload) > 0
