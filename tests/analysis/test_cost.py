"""The kernel matrix's three-way oracle, and the static cost analyzer.

One parametrisation over the kernel matrix (:mod:`repro.eval.matrix`)
holds the oracle, every point run by the matrix's one ``run``:

* static interval vs simulated cycles, over the catalog points: on every
  straight-line/hwloop kernel the static estimate must equal the
  simulator's active cycle count *bit-exactly* (and agree on instruction
  count, hwloop back-edges, stall taxonomy, per-class breakdown and, on
  one core, every region); on the branchy software-quantization kernels
  the interval must contain the measurement, with a midpoint within 5%
  on a staircase fitted to the accumulators;
* interpreter vs block engine, over the suite points' profiles;
* replay/scheduler vs the min-clock stepper and the reference retire
  step, over the suite points' 8-core profiles.
"""

import numpy as np
import pytest

from repro.analysis import analyze_cost
from repro.analysis.catalog import compiled_network_programs, kernel_program
from repro.analysis.cost import COST_SCHEMA_VERSION, Interval
from repro.asm import assemble
from repro.cluster import Cluster
from repro.core import Cpu, RegionCounters
from repro.eval.matrix import LINT_GEOMETRY, catalog_points, run, suite_points
from repro.qnn import random_threshold_table, thresholds_from_accumulators
from tests.cluster.oracle import min_clock_run
from tests.core.oracle import reference_step

#: Catalog points whose cycle count is data-dependent (software
#: threshold-tree quantization): the analyzer reports an interval.
BOUNDED = [
    "matmul-4b-xpulpnn-sw",
    "matmul-4b-ri5cy-sw",
    "matmul-2b-ri5cy-sw",
    "conv-4b-ri5cy-sw",
]

CATALOG = {point.name: point for point in catalog_points()}

#: Everything else must be bit-exact — the enumerated exact set.
EXACT = [name for name in CATALOG if name not in BOUNDED]

#: Tier-1 pins these profiles; the rest of the suite is marked slow (CI's
#: engine-parity job runs it).
PINNED_PROFILES = ("conv_4bit", "matmul_4bit")


def active(perf) -> int:
    """Cycles the static model prices: no idle, no TCDM contention."""
    return perf.cycles - perf.idle_cycles - perf.stall_tcdm_contention


def execute(name, attach=None, thresholds=None):
    """Run catalog point *name*; returns the execution and
    ``[(hart_id, PerfCounters)]``, one pair per core."""
    execution = run(CATALOG[name], LINT_GEOMETRY, attach, thresholds)
    cores = getattr(execution.sim, "cores", [execution.sim])
    return execution, [(hart, core.perf) for hart, core in enumerate(cores)]


class TestCatalogParity:
    def test_exact_set_covers_at_least_80_percent(self):
        assert len(EXACT) + len(BOUNDED) == len(CATALOG)
        assert len(EXACT) / len(CATALOG) >= 0.80

    @pytest.mark.parametrize("name", EXACT)
    def test_exact_kernels_match_the_simulator_bit_exactly(self, name):
        execution, harts = execute(name)
        for hart, perf in harts:
            report = analyze_cost(execution.kernel.program, name=name,
                                  hart_id=hart)
            assert report.exact, report.render()
            mismatches = report.compare(perf)
            assert not mismatches, (hart, mismatches)

    @pytest.mark.parametrize("name", BOUNDED)
    def test_branchy_kernels_are_bounded_within_5_percent(self, name):
        """The interval contains the measurement on three staircases:
        the seeded draw's, a random spread-2500 one and one fitted to the
        accumulators, where the midpoint is within 5%.  A staircase drawn
        apart from the accumulators (the MatMul draw's, the random one)
        sends the searches to one side of the interval."""
        execution, _ = execute(name)
        report = analyze_cost(execution.kernel.program, name=name)
        assert not report.exact and report.bounded, report.render()
        point, draw = CATALOG[name], execution.draw
        acc = (draw[2] if point.kind == "conv"
               else np.stack([draw[0] @ draw[1], draw[0] @ draw[2]]))
        wide = random_threshold_table(acc.shape[-1], point.bits, spread=2500,
                                      rng=np.random.default_rng(0))
        fitted = thresholds_from_accumulators(acc, point.bits)
        for table in (None, wide, fitted):
            _, ((_, perf),) = execute(name, thresholds=table)
            measured = active(perf)
            assert report.cycles.contains(measured), (report.cycles, measured)
        assert report.relative_error(measured) <= 0.05

    @pytest.mark.parametrize(
        "name", [n for n in EXACT if CATALOG[n].cores == 1])
    def test_exact_kernels_price_every_region_exactly(self, name):
        """Static per-region cycles equal the simulated active cycles of
        every region.  Parallel kernels are left out: one region table
        would be shared by all harts."""
        def attach(program, cpu):
            cpu.regions = RegionCounters(program=program, default_region="-")
            return cpu.regions

        execution, _ = execute(name, attach)
        report = analyze_cost(execution.kernel.program, name=name)
        regions = execution.observer
        simulated = {region: active(regions[region])
                     for region in regions.regions}
        assert {region: cycles.to_json()
                for region, cycles in report.by_region.items()} == simulated

    def test_mixed3_lowered_programs_are_exact(self):
        for name, program in compiled_network_programs():
            for hart in range(2):  # the cores it lowers for
                report = analyze_cost(program, name=name, hart_id=hart)
                assert report.exact, (name, hart, report.render())


class TestSuiteParity:
    @pytest.mark.parametrize("kernel", [
        pytest.param(point.suite_name, marks=()
                     if point.suite_name in PINNED_PROFILES
                     else pytest.mark.slow)
        for point in suite_points()])
    def test_profile_is_engine_invariant(self, kernel, monkeypatch):
        """The full region/stall profile is engine-invariant, and the
        default side really runs (and on the pinned kernels fuses) on the
        engine; the interpreter side swaps the module default
        ``profile_kernel`` uses."""
        import repro.core.cpu
        from repro.telemetry import MetricsRegistry, use_registry
        from repro.trace.profile import profile_kernel

        def profile():
            with use_registry(MetricsRegistry()) as registry:
                result = profile_kernel(kernel).to_dict()
            return result, [registry.counter_total(f"engine.{name}")
                            for name in ("blocks_translated",
                                         "fused_dispatches")]

        block, (translated, fused) = profile()
        assert translated > 0 and (fused > 0 or kernel not in PINNED_PROFILES)
        monkeypatch.setattr(repro.core.cpu, "DEFAULT_ENGINE", "interp")
        interp, engaged = profile()
        assert engaged == [0, 0]
        assert interp == block

    @pytest.mark.slow
    @pytest.mark.parametrize("kernel",
                             [point.suite_name for point in suite_points()])
    def test_cluster_profile_matches_the_oracles(self, kernel, capsys,
                                                 monkeypatch):
        """``repro profile --kernel K --cores 8`` (text and JSON) prints
        the same bytes under the replay, under the min-clock reference
        stepper (but for the engine's side-exit table: the stepper never
        dispatches on the engine) and under the reference retire step.
        The baseline-ISA convs are rejected the same way."""
        from repro.cli import main

        def outputs():
            runs = []
            for flags in ([], ["--json"]):
                status = main(["profile", "--kernel", kernel, "--cores", "8",
                               *flags])
                out = capsys.readouterr()
                runs.append((status, out.out, out.err))
            return runs

        def no_side_exits(runs):
            return [(status, text.split("\nengine side exits")[0], err)
                    for status, text, err in runs]

        replayed = outputs()
        with monkeypatch.context() as patch:
            patch.setattr(Cluster, "run", min_clock_run)
            assert no_side_exits(outputs()) == no_side_exits(replayed)
        monkeypatch.setattr(Cpu, "step", reference_step)
        assert outputs() == replayed


# ---------------------------------------------------------------------------
# Semantics on hand-written programs
# ---------------------------------------------------------------------------

class TestCostSemantics:
    def test_straight_line_charges_unit_latencies(self):
        report = analyze_cost(assemble("""
            addi t0, zero, 5
            addi t1, t0, 1
            ebreak
        """))
        assert report.cycles == Interval.exact(3)
        assert report.instructions == Interval.exact(3)

    def test_load_use_stall_charged_once(self):
        report = analyze_cost(assemble("""
            lw   t0, 0(a0)
            addi t1, t0, 1
            ebreak
        """))
        assert report.cycles == Interval.exact(4)
        assert report.stalls["stall_load_use"] == Interval.exact(1)

    def test_independent_next_instruction_hides_the_load(self):
        report = analyze_cost(assemble("""
            lw   t0, 0(a0)
            addi t1, a1, 1
            ebreak
        """))
        assert report.cycles == Interval.exact(3)
        assert report.stalls["stall_load_use"] == Interval.exact(0)

    def test_jump_penalty_always_charged(self):
        report = analyze_cost(assemble("""
            j    out
        out:
            ebreak
        """))
        assert report.cycles == Interval.exact(3)  # 1 + 1 penalty + 1
        assert report.stalls["stall_jump"] == Interval.exact(1)

    def test_unknown_branch_forks_into_an_interval(self):
        # Not-taken: beq(1) + addi(1) + ebreak(1) = 3.
        # Taken:     beq(1+2) + ebreak(1) = 4.
        report = analyze_cost(assemble("""
            beq  a0, zero, out
            addi t0, zero, 1
        out:
            ebreak
        """))
        assert report.cycles == Interval(3, 4)
        assert report.stalls["stall_branch"] == Interval(0, 2)
        assert not report.exact and report.bounded

    def test_known_branch_condition_stays_exact(self):
        report = analyze_cost(assemble("""
            addi a0, zero, 0
            beq  a0, zero, out
            addi t0, zero, 1
        out:
            ebreak
        """))
        assert report.cycles == Interval.exact(5)  # addi + taken beq + ebreak
        assert report.stalls["stall_branch"] == Interval.exact(2)

    def test_hwloop_body_folded_by_trip_count(self, cpu):
        source = """
            addi a0, zero, 0
            lp.setupi 0, 6, end
            addi a0, a0, 1
            addi a0, a0, 2
        end:
            ebreak
        """
        report = analyze_cost(assemble(source))
        (bound,) = report.loop_bounds
        assert bound.count == Interval.exact(6)
        assert bound.source == "imm"
        assert report.hwloop_backedges == Interval.exact(5)
        cpu.reset()
        cpu.load_program(assemble(source))
        cpu.run()
        assert not report.compare(cpu.perf), report.compare(cpu.perf)

    def test_register_count_loop_from_constant_analysis(self, cpu):
        source = """
            addi t0, zero, 4
            lp.setup 0, t0, end
            addi a0, a0, 1
        end:
            ebreak
        """
        report = analyze_cost(assemble(source))
        (bound,) = report.loop_bounds
        assert bound.count == Interval.exact(4)
        assert bound.source == "const"
        cpu.reset()
        cpu.load_program(assemble(source))
        cpu.run()
        assert not report.compare(cpu.perf)

    def test_bindings_pin_a_data_dependent_branch(self):
        source = """
            beq  a0, zero, out
            addi t0, zero, 1
        out:
            ebreak
        """
        from repro.isa.registers import parse_register

        a0 = parse_register("a0")
        taken = analyze_cost(assemble(source), bindings={a0: 0})
        not_taken = analyze_cost(assemble(source), bindings={a0: 7})
        assert taken.cycles == Interval.exact(4)
        assert not_taken.cycles == Interval.exact(3)


# ---------------------------------------------------------------------------
# Report shape
# ---------------------------------------------------------------------------

class TestReportShape:
    def test_to_dict_carries_the_schema_version(self):
        report = analyze_cost(assemble("ebreak"))
        doc = report.to_dict()
        assert doc["schema_version"] == COST_SCHEMA_VERSION
        assert doc["cycles"] == 1       # exact intervals collapse to ints
        assert set(doc["stalls"]) >= {"stall_load_use", "stall_branch",
                                      "stall_jump"}

    def test_by_region_accounts_marked_code(self):
        report = analyze_cost(kernel_program("linear-8b"), name="linear-8b")
        assert "dotprod" in report.by_region
        marked = sum(v.lo for v in report.by_region.values())
        assert 0 < marked <= report.cycles.lo

    def test_render_mentions_exactness(self):
        text = analyze_cost(kernel_program("relu-8b"), name="relu-8b").render()
        assert "relu-8b" in text
        assert "exact" in text
