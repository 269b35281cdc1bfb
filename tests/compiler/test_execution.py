"""Compiled whole-network execution: bit-exactness, overlap, tracing.

The module-scoped fixtures compile and run each reference network once;
the tests then assert different properties of the same run.
"""

import numpy as np
import pytest

from repro.compiler import (
    MasterTimeline,
    NetworkCompiler,
    PlanExecutor,
    build_network,
    network_names,
)
from repro.compiler.timeline import SCHEDULE_TRACK
from repro.errors import KernelError
from repro.qnn.deploy import NetworkDeployer


@pytest.fixture(scope="module")
def mixed3_compiled():
    built = build_network("mixed3")
    compiled = NetworkCompiler(
        built.network, built.input_shape, input_bits=built.input_bits,
        num_cores=8, tcdm_budget=built.tcdm_budget,
    ).compile()
    return built, compiled


@pytest.fixture(scope="module")
def mixed3_result(mixed3_compiled):
    built, compiled = mixed3_compiled
    executor = PlanExecutor(compiled, trace=True)
    return executor.run(built.input)


@pytest.fixture(scope="module")
def mixed3_deployed():
    built = build_network("mixed3")
    deployer = NetworkDeployer(
        built.network, built.input_shape, input_bits=built.input_bits,
        target="xpulpnn-cluster8")
    return deployer.run(built.input)


class TestCompile:
    def test_catalog_names(self):
        assert set(network_names()) >= {"mixed3", "over-l2", "paper"}

    def test_layers_lowered_in_order(self, mixed3_compiled):
        _, compiled = mixed3_compiled
        assert [p.kind for p in compiled.layers] == [
            "conv", "conv", "pool", "linear"]

    def test_tight_budget_forces_multiple_tiles(self, mixed3_compiled):
        _, compiled = mixed3_compiled
        assert compiled.total_tiles > len(compiled.layers)

    def test_every_plan_fits_and_validates(self, mixed3_compiled):
        _, compiled = mixed3_compiled
        for plan in compiled.layers:
            plan.plan.validate()
            assert plan.plan.used_bytes <= compiled.tcdm_budget

    def test_tiles_reference_existing_kernel_variants(self, mixed3_compiled):
        _, compiled = mixed3_compiled
        for plan in compiled.layers:
            for tile in plan.tiles:
                assert tile.key in plan.kernels

    def test_emitted_programs_lint_clean(self, mixed3_compiled):
        from repro.analysis import lint_program

        _, compiled = mixed3_compiled
        for name, program in compiled.programs():
            report = lint_program(program, name=name)
            assert report.ok, f"{name}: {report.render()}"

    def test_non_xpulpnn_isa_rejected(self):
        built = build_network("mixed3")
        with pytest.raises(KernelError, match="XpulpNN"):
            NetworkCompiler(built.network, built.input_shape,
                            input_bits=built.input_bits, isa="ri5cy")

    def test_hopeless_budget_rejected(self):
        built = build_network("mixed3")
        with pytest.raises(KernelError):
            NetworkCompiler(built.network, built.input_shape,
                            input_bits=built.input_bits,
                            tcdm_budget=4096).compile()

    def test_render_mentions_every_layer(self, mixed3_compiled):
        _, compiled = mixed3_compiled
        text = compiled.render()
        for plan in compiled.layers:
            assert plan.name in text


class TestExecution:
    def test_every_tile_verified(self, mixed3_result):
        assert mixed3_result.verified
        assert all(layer.verified for layer in mixed3_result.layers)

    def test_matches_single_shot_deployment(self, mixed3_result,
                                            mixed3_deployed):
        assert mixed3_deployed.verified
        assert np.array_equal(mixed3_result.output, mixed3_deployed.output)

    def test_layers_progress_on_one_clock(self, mixed3_result):
        starts = [layer.start for layer in mixed3_result.layers]
        ends = [layer.end for layer in mixed3_result.layers]
        assert starts == sorted(starts)
        assert all(s >= e for s, e in zip(starts[1:], ends))
        assert mixed3_result.cycles == ends[-1]

    def test_double_buffering_hides_dma(self, mixed3_result):
        # The headline acceptance number: a meaningful share of DMA
        # cycles must be hidden under compute windows.
        assert mixed3_result.overlap_pct >= 0.40

    def test_contention_is_bounded_by_overlap(self, mixed3_result):
        for layer in mixed3_result.layers:
            assert layer.contention_cycles <= layer.overlap_cycles
            assert layer.overlap_cycles <= layer.dma_cycles

    def test_energy_and_macs_accumulate(self, mixed3_result):
        assert mixed3_result.total_energy_uj > 0
        conv_macs = [layer.macs for layer in mixed3_result.layers
                     if layer.kind == "conv"]
        assert all(m > 0 for m in conv_macs)

    def test_report_dict_has_network_metrics(self, mixed3_result):
        doc = mixed3_result.to_dict()
        assert doc["verified"] is True
        assert doc["cycles"] == mixed3_result.cycles
        for layer in doc["layers"]:
            assert {"tiles", "dma_bytes", "overlap_pct", "cycles",
                    "energy_uj"} <= set(layer)


class TestTimeline:
    def test_schedule_track_names_every_tile(self, mixed3_compiled,
                                             mixed3_result):
        _, compiled = mixed3_compiled
        spans = [s for s in mixed3_result.timeline.tracer.region_spans
                 if s.core == SCHEDULE_TRACK]
        assert len(spans) == compiled.total_tiles

    def test_dma_lane_filled_from_engine(self, mixed3_result):
        events = mixed3_result.timeline.tracer.dma_events
        assert events
        assert all(e.end > e.start for e in events)

    def test_written_trace_validates(self, mixed3_result, tmp_path):
        from repro.trace import validate_chrome_trace_file

        out = tmp_path / "net.json"
        mixed3_result.timeline.write(str(out))
        assert validate_chrome_trace_file(str(out)) > 0

    def test_merge_shifts_spans(self):
        from repro.trace.events import RegionSpan
        from repro.trace.tracer import EventTracer

        tile = EventTracer()
        tile.region_spans.append(RegionSpan(core=0, name="dotprod",
                                            start=5, end=10))
        tile.end_cycles[0] = 10
        master = MasterTimeline()
        master.merge_tile(tile, offset=1000)
        span = master.tracer.region_spans[0]
        assert (span.start, span.end) == (1005, 1010)
        assert master.tracer.end_cycles[0] == 1010


class TestOverL2:
    @pytest.fixture(scope="class")
    def over_l2(self):
        built = build_network("over-l2")
        compiled = NetworkCompiler(
            built.network, built.input_shape, input_bits=built.input_bits,
            num_cores=8, tcdm_budget=built.tcdm_budget,
        ).compile()
        result = PlanExecutor(compiled).run(built.input)
        return built, compiled, result

    def test_classifier_weights_exceed_l2(self, over_l2):
        built, _, _ = over_l2
        from repro.qnn.deploy import L2_BUDGET_BYTES

        weights = built.network.layers[-1].weights
        assert weights.size > L2_BUDGET_BYTES

    def test_compiles_and_runs_bit_exactly(self, over_l2):
        _, compiled, result = over_l2
        assert result.verified
        assert compiled.layers[-1].tiles and len(compiled.layers[-1].tiles) > 1

    def test_streams_more_bytes_than_l2_holds(self, over_l2):
        from repro.qnn.deploy import L2_BUDGET_BYTES

        _, _, result = over_l2
        assert result.total_dma_bytes > L2_BUDGET_BYTES

    def test_overlap_acceptance_threshold(self, over_l2):
        _, _, result = over_l2
        assert result.overlap_pct >= 0.40


class TestPaperWorkload:
    def test_compiled_matches_single_shot_within_5pct(self):
        built = build_network("paper")
        compiled = NetworkCompiler(
            built.network, built.input_shape, input_bits=built.input_bits,
            num_cores=8, tcdm_budget=built.tcdm_budget,
        ).compile()
        result = PlanExecutor(compiled).run(built.input)
        assert result.verified

        built2 = build_network("paper")
        deployed = NetworkDeployer(
            built2.network, built2.input_shape,
            input_bits=built2.input_bits,
            target="xpulpnn-cluster8").run(built2.input)
        assert deployed.verified
        assert np.array_equal(result.output.ravel(),
                              np.asarray(deployed.output).ravel())
        delta = abs(result.cycles - deployed.total_cycles)
        assert delta / deployed.total_cycles < 0.05
