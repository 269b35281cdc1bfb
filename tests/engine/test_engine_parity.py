"""Deterministic engine-parity cases and the kernel-level contract.

The hypothesis suite (test_engine_property) sweeps random programs; this
file pins the named edge cases from the fusion legality rules — shared
loop ends, zero-trip loops, redirect priority — and proves the contract
on real workloads: every tiny-geometry conv configuration and the
benchmark-geometry catalog kernels retire bit- and cycle-identically
under both engines.
"""

import pytest

from repro.core import Cpu
from repro.engine import set_default_mode
from repro.soc.memory import Memory

from tests.conftest import TINY_GEOMETRY
from tests.engine.conftest import run_both, state_of


class TestLoopEdgeCases:
    def test_zero_trip_loop(self):
        run_both("""
            lp.setupi 0, 0, end0
            addi a0, a0, 1
        end0:
            addi a1, a1, 1
            ebreak
        """)

    def test_single_instruction_body(self):
        run_both("""
            lp.setupi 0, 9, end0
        end0:
            addi a0, a0, 2
            ebreak
        """)

    def test_shared_end_l0_priority(self):
        """Both loops end on the same instruction: L0's redirect fires
        first, and L0's final decrement shadows L1's for that visit."""
        run_both("""
            lp.setupi 1, 3, shared
            lp.setupi 0, 4, shared
        shared:
            addi a0, a0, 1
            ebreak
        """)

    def test_l1_only_loop(self):
        run_both("""
            lp.setupi 1, 6, end1
            addi a0, a0, 3
        end1:
            addi a1, a1, 1
            ebreak
        """)

    def test_loop_body_with_branch(self):
        """A branch inside the body splits it across blocks — the fuser
        declines (loop-shape) and the fast-block/interpreter tiers carry
        the iterations."""
        interp, block = run_both("""
            addi a2, zero, 0
            lp.setupi 0, 8, end0
            andi a3, a2, 1
            beq a3, zero, even
            addi a0, a0, 1
        even:
            addi a2, a2, 1
        end0:
            addi a1, a1, 1
            ebreak
        """)
        assert block.engine_stats is not None

    def test_runaway_guard_identical_error(self):
        """Mid-loop budget exhaustion raises the same SimError text."""
        run_both("""
        loop:
            addi a0, a0, 1
            j loop
        """, max_instructions=50)


class TestEligibility:
    def test_tracer_forces_interpreter(self):
        from repro.asm import assemble
        from repro.trace import EventTracer

        program = assemble("addi a0, a0, 1\nebreak", isa="xpulpnn")
        cpu = Cpu(isa="xpulpnn", engine="block")
        cpu.tracer = EventTracer(program=program)
        cpu.run_program(program)
        assert cpu.engine_stats is None

    def test_contended_memory_forces_interpreter(self):
        """Any Memory subclass (the cluster's contention-modelled TCDM)
        keeps the interpreter: fused execution can't replay per-access
        arbitration."""
        from repro.asm import assemble

        class PortedMemory(Memory):
            pass

        cpu = Cpu(isa="xpulpnn", engine="block")
        cpu.mem = PortedMemory(size=cpu.mem.size)
        cpu.run_program(assemble("addi a0, a0, 1\nebreak", isa="xpulpnn"))
        assert cpu.engine_stats is None

    def test_interp_mode_never_builds_engine(self):
        from repro.asm import assemble

        cpu = Cpu(isa="xpulpnn")
        cpu.run_program(assemble("ebreak", isa="xpulpnn"))
        assert cpu.engine == "interp"
        assert cpu.engine_stats is None


def _conv_states(bits, isa, quant):
    import numpy as np

    from repro.kernels import ConvConfig, ConvKernel
    from repro.qnn import (
        conv2d_golden,
        random_activations,
        random_weights,
        thresholds_from_accumulators,
    )
    from repro.soc import L2_SIZE

    g = TINY_GEOMETRY
    rng = np.random.default_rng(0xB10C)
    w = random_weights((g.out_ch, g.kh, g.kw, g.in_ch), bits, rng)
    x = random_activations((g.in_h, g.in_w, g.in_ch), bits, rng)
    acc = conv2d_golden(x, w, stride=g.stride, pad=g.pad)
    states = []
    for mode in ("interp", "block"):
        kernel = ConvKernel(ConvConfig(
            geometry=g, bits=bits, isa=isa, quant=quant))
        size = max(kernel.layout.end + 4096, L2_SIZE)
        cpu = Cpu(isa=isa, mem=Memory(size), engine=mode)
        if quant == "shift":
            out = kernel.run(w, x, shift=7, cpu=cpu)
        else:
            out = kernel.run(
                w, x, thresholds=thresholds_from_accumulators(acc, bits),
                cpu=cpu)
        states.append((out.output.tolist(), state_of(cpu)))
    return states


@pytest.mark.parametrize("bits,isa,quant", [
    (8, "ri5cy", "shift"),
    (8, "xpulpnn", "shift"),
    (4, "xpulpnn", "hw"),
    (4, "xpulpnn", "sw"),
    (4, "ri5cy", "sw"),
    (2, "xpulpnn", "hw"),
    (2, "xpulpnn", "sw"),
    (2, "ri5cy", "sw"),
])
def test_conv_kernel_parity(bits, isa, quant):
    interp, block = _conv_states(bits, isa, quant)
    assert interp[0] == block[0], "kernel output diverged"
    for key in interp[1]:
        assert interp[1][key] == block[1][key], f"diverged on {key}"


@pytest.mark.parametrize("kernel", ["conv_4bit", "matmul_4bit"])
def test_profile_kernel_parity(kernel):
    """The profiler's full region/stall breakdown is engine-invariant,
    and the block side really runs on the engine (fused loop bodies
    included) with the profile attached.

    CI repeats this over the whole catalog (the engine-parity job);
    tier-1 pins one conv and one matmul.
    """
    from repro.telemetry import MetricsRegistry, use_registry
    from repro.trace.profile import profile_kernel

    results = {}
    for mode in ("interp", "block"):
        set_default_mode(mode)
        with use_registry(MetricsRegistry()) as registry:
            results[mode] = profile_kernel(kernel).to_dict()
        fused = registry.counter_total("engine.fused_dispatches")
        assert (fused > 0) == (mode == "block"), (mode, fused)
    set_default_mode(None)
    assert results["interp"] == results["block"]


def test_region_attribution_parity():
    """Region profiles survive block and fused execution: a fused hwloop
    body with misaligned loads, a load-use stall at a region (and so
    segment) entry, one loop ending right at a region boundary and one
    whose body straddles two regions."""
    interp, block = run_both("""
    .region setup
        addi s0, zero, 0x41
        addi s1, zero, 0x80
        lw   a3, 0(s1)
    .endregion
    .region body
        add  a4, a3, a3
        lp.setupi 0, 12, end0
        p.lw a0, 4(s0!)
        pv.sdotsp.b a1, a0, a0
    end0:
    .endregion
    .region tail
        lw   a2, 1(s1)
        addi a2, a2, 1
        lp.setupi 1, 8, end1
        addi a5, a5, 1
    .endregion
    .region split
        addi a6, a6, 2
    end1:
    .endregion
        ebreak
    """)
    assert block.engine_stats["fused_dispatches"] > 0
    regions = interp.regions
    assert regions.regions == ["setup", "body", "tail", "split", "other"]
    assert regions["body"].stall_load_use > 0
    assert regions["body"].stall_misaligned > 0
    assert regions["tail"].stall_misaligned > 0
    assert regions["body"].by_class["load"] == 12
    assert regions["split"].instructions == 8
    assert regions.total().cycles == interp.perf.cycles
