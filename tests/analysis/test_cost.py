"""Static cycle analyzer: unit semantics + simulator parity.

The parity suite is the analyzer's acceptance bar: on every
straight-line/hwloop catalog kernel the static estimate must equal the
simulator's active cycle count *bit-exactly* (and agree on instruction
count, hwloop back-edges, stall taxonomy, and per-class breakdown); on
the branchy software-quantization kernels the interval must contain the
measurement with a midpoint within 5%.
"""

import numpy as np
import pytest

from repro.analysis import analyze_cost
from repro.analysis.catalog import (
    LINT_CORES,
    catalog_kernel,
    catalog_kernel_names,
    compiled_network_programs,
)
from repro.analysis.cost import COST_SCHEMA_VERSION, Interval
from repro.asm import assemble
from repro.core import Cpu, RegionCounters
from repro.qnn import random_threshold_table
from repro.soc.memmap import L2_SIZE
from repro.soc.memory import Memory

#: Catalog kernels whose cycle count is data-dependent (software
#: threshold-tree quantization): the analyzer reports an interval.
BOUNDED = [
    "matmul-4b-xpulpnn-sw",
    "matmul-4b-ri5cy-sw",
    "matmul-2b-ri5cy-sw",
    "conv-4b-ri5cy-sw",
]

#: Everything else must be bit-exact — the enumerated exact set.
EXACT = [n for n in catalog_kernel_names() if n not in BOUNDED]


def active(perf) -> int:
    """Cycles the static model prices: no idle, no TCDM contention."""
    return perf.cycles - perf.idle_cycles - perf.stall_tcdm_contention


def run_catalog(name, kern, cpu=None):
    """Execute catalog kernel *kern* with deterministic representative
    data (single-core kernels on *cpu* when given); returns
    ``[(hart_id, PerfCounters)]`` (one pair per core)."""
    cfg = kern.config
    rng = np.random.default_rng(0)
    bits = getattr(cfg, "bits", 8)

    def signed(shape):
        return rng.integers(-(1 << bits - 1), 1 << bits - 1,
                            shape).astype(np.int32)

    def unsigned(shape):
        return rng.integers(0, 1 << bits, shape).astype(np.int32)

    def thresholds(out_ch):
        if getattr(cfg, "quant", "") in ("hw", "sw"):
            return random_threshold_table(out_ch, bits, spread=2500,
                                          rng=rng)
        return None

    if name.startswith("parallel"):
        from repro.cluster import Cluster

        cluster = Cluster(num_cores=cfg.num_cores, isa=cfg.isa)
        if "matmul" in name:
            kern.run(signed((cfg.out_ch, cfg.reduction)),
                     unsigned(cfg.reduction), unsigned(cfg.reduction),
                     thresholds=thresholds(cfg.out_ch), cluster=cluster)
        else:
            g = cfg.geometry
            kern.run(signed((g.out_ch, g.kh, g.kw, g.in_ch)),
                     unsigned((g.in_h, g.in_w, g.in_ch)),
                     thresholds=thresholds(g.out_ch), cluster=cluster)
        return [(h, core.perf) for h, core in enumerate(cluster.cores)]
    if name.startswith("matmul"):
        run = kern.run(signed((cfg.out_ch, cfg.reduction)),
                       unsigned(cfg.reduction), unsigned(cfg.reduction),
                       thresholds=thresholds(cfg.out_ch), cpu=cpu)
    elif name.startswith("conv"):
        g = cfg.geometry
        run = kern.run(signed((g.out_ch, g.kh, g.kw, g.in_ch)),
                       unsigned((g.in_h, g.in_w, g.in_ch)),
                       thresholds=thresholds(g.out_ch), cpu=cpu)
    elif name.startswith("depthwise"):
        run = kern.run(signed((cfg.kh, cfg.kw, cfg.channels)),
                       unsigned((cfg.in_h, cfg.in_w, cfg.channels)), cpu=cpu)
    elif name.startswith("pool"):
        run = kern.run(unsigned((cfg.in_h, cfg.in_w, cfg.channels)), cpu=cpu)
    elif name.startswith("linear"):
        run = kern.run(signed((cfg.out_features, cfg.in_features)),
                       unsigned(cfg.in_features), cpu=cpu)
    elif name.startswith("relu"):
        run = kern.run(signed(cfg.elements), cpu=cpu)
    else:
        raise AssertionError(f"no harness recipe for {name}")
    return [(0, run.perf)]


# ---------------------------------------------------------------------------
# Simulator parity over the kernel catalog
# ---------------------------------------------------------------------------

class TestCatalogParity:
    def test_exact_set_covers_at_least_80_percent(self):
        assert len(EXACT) + len(BOUNDED) == len(catalog_kernel_names())
        assert len(EXACT) / len(catalog_kernel_names()) >= 0.80

    @pytest.mark.parametrize("name", EXACT)
    def test_exact_kernels_match_the_simulator_bit_exactly(self, name):
        kern = catalog_kernel(name)
        for hart, perf in run_catalog(name, kern):
            report = analyze_cost(kern.program, name=name, hart_id=hart)
            assert report.exact, report.render()
            mismatches = report.compare(perf)
            assert not mismatches, (hart, mismatches)

    @pytest.mark.parametrize("name", BOUNDED)
    def test_branchy_kernels_are_bounded_within_5_percent(self, name):
        kern = catalog_kernel(name)
        ((_, perf),) = run_catalog(name, kern)
        report = analyze_cost(kern.program, name=name)
        measured = active(perf)
        assert not report.exact and report.bounded, report.render()
        assert report.cycles.contains(measured), (report.cycles, measured)
        assert report.relative_error(measured) <= 0.05

    @pytest.mark.parametrize(
        "name", [n for n in EXACT if not n.startswith("parallel")])
    def test_exact_kernels_price_every_region_exactly(self, name):
        """Static per-region cycles equal the simulated active cycles of
        every region.  Parallel kernels are left out: one region table
        would be shared by all harts."""
        kern = catalog_kernel(name)
        cpu = Cpu(isa=kern.config.isa,
                  mem=Memory(max(kern.layout.end + 4096, L2_SIZE)))
        cpu.regions = RegionCounters(program=kern.program,
                                     default_region="-")
        run_catalog(name, kern, cpu=cpu)
        report = analyze_cost(kern.program, name=name)
        simulated = {region: active(cpu.regions[region])
                     for region in cpu.regions.regions}
        assert {region: cycles.to_json()
                for region, cycles in report.by_region.items()} == simulated

    def test_mixed3_lowered_programs_are_exact(self):
        for name, program in compiled_network_programs():
            for hart in range(LINT_CORES):
                report = analyze_cost(program, name=name, hart_id=hart)
                assert report.exact, (name, hart, report.render())


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
        kern = catalog_kernel("linear-8b")
        report = analyze_cost(kern.program, name="linear-8b")
        assert "dotprod" in report.by_region
        marked = sum(v.lo for v in report.by_region.values())
        assert 0 < marked <= report.cycles.lo

    def test_render_mentions_exactness(self):
        kern = catalog_kernel("relu-8b")
        text = analyze_cost(kern.program, name="relu-8b").render()
        assert "relu-8b" in text
        assert "exact" in text
