"""Deterministic engine-parity cases and the kernel-level contract.

The hypothesis suite (test_engine_property) sweeps random programs; this
file pins the named edge cases from the fusion legality rules — shared
loop ends, zero-trip loops, redirect priority — and proves the contract
on real workloads: every tiny-geometry conv configuration retires bit-
and cycle-identically under both engines (the kernel matrix's profiles
are checked in ``tests/analysis/test_cost.py``).
"""

import pytest

from repro.core import Cpu
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
        interp, block, _ = run_both("""
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


class TestTierABranches:
    """Conditional branches and direct jumps execute in their block."""

    def test_taken_and_not_taken(self):
        _, _, plain = run_both("""
            addi a1, zero, 1
            beq a0, a1, skip
            addi a2, a2, 5
            bne a0, a1, over
            addi a2, a2, 7
        over:
            addi a3, a3, 1
        skip:
            ebreak
        """)
        assert plain.engine_stats["interp_steps"] == 1      # the ebreak

    @pytest.mark.parametrize("a0", [0, 1])
    def test_branch_ends_a_hardware_loop_body(self, a0):
        """Not taken, the branch's fall-through is the loop end and the
        back-edge fires; taken, it leaves the loop with its count."""
        run_both("""
            lp.setupi 0, 5, end0
            addi a0, a0, 1
            andi a2, a0, 3
            beq a2, zero, out
        end0:
            addi a1, a1, 1
        out:
            ebreak
        """, regs={"a0": a0})

    def test_jal_into_a_blocks_middle(self):
        """The jump lands mid-way through a translated block and links
        ``ra``; the block at its target starts there."""
        run_both("""
            addi t0, zero, 3
        first:
            addi a1, a1, 1
        mid:
            addi a2, a2, 2
            addi t0, t0, -1
            beq t0, zero, done
            jal ra, mid
        done:
            ebreak
        """)

    def test_fault_on_the_branch_target(self):
        """A taken branch out of the program: the fetch at its target
        faults, after the branch retired with its penalty."""
        interp, _, _ = run_both("""
            addi a0, a0, 1
            beq zero, zero, past
            ebreak
        past:
        """)
        assert interp.perf.stall_branch == 2

    @pytest.mark.parametrize("budget", range(1, 9))
    def test_budget_lands_on_a_branch(self, budget):
        run_both("""
        loop:
            addi a0, a0, 1
            blt a0, a1, over
            addi a1, a1, 2
        over:
            j loop
        """, regs={"a1": 2}, max_instructions=budget)


#: A staircase filter loop: a dot-product lp0 loop into ``a0``, a
#: 2-level compare tree over the thresholds at ``s2`` into ``a4``, the
#: code stored through ``s5``, the thresholds stepped; ``t5`` counts.
COUNTED_BODY = [
    "addi a0, zero, 0", "lp.setupi 0, 3, end0", "p.lw a2, 4(s0!)",
    "pv.sdotsp.b a0, a2, a5", "end0:",
    "lh t1, 0(s2)", "blt t1, a0, r0",
    "lh t1, 2(s2)", "blt t1, a0, r1", "addi a4, zero, 0", "j merge",
    "r1:", "addi a4, zero, 1", "j merge",
    "r0:", "lh t1, 4(s2)", "blt t1, a0, r2", "addi a4, zero, 2", "j merge",
    "r2:", "addi a4, zero, 3", "j merge",
    "merge:", "p.sb a4, 1(s5!)", "addi s2, s2, 6"]
COUNTED_REGS = {"s0": 0x1000, "s2": 0x3000, "s5": 0x4000,
                "a5": 0x0102_0304}
COUNTED_MEM = {0x1000: bytes(range(1, 256, 3)),
               0x3000: bytes(range(0, 120, 1))}


def _counted(trips, body=COUNTED_BODY, step=1, **kw):
    """The loop over *body* run on both engines; returns the unprofiled
    block core's engine stats."""
    lines = [f"li t5, {trips}", "head:", *body, f"addi t5, t5, -{step}",
             "bne t5, zero, head", "ebreak"]
    regs = dict(COUNTED_REGS, **kw.pop("regs", {}))
    _, _, plain = run_both("\n".join(lines) + "\n", regs=regs,
                           mem=COUNTED_MEM, **kw)
    return plain.engine_stats


class TestCountedLoops:
    """Software counted loops run as one loop plan, or decline."""

    @pytest.mark.parametrize("trips", [2, 3, 8])
    def test_filter_loop_is_one_dispatch(self, trips):
        stats = _counted(trips)
        assert stats["nest_dispatches"] == stats["fused_dispatches"] == 1
        assert stats["interp_steps"] == 1                   # the ebreak

    def test_one_trip_runs_on_tier_a(self):
        stats = _counted(1)
        assert stats["fused_dispatches"] == 1               # the lp0 loop
        assert stats["nest_dispatches"] == 0

    def test_counter_read_in_the_body_is_no_plan(self):
        stats = _counted(4, ["add a3, t5, a1", *COUNTED_BODY])
        assert stats["nest_dispatches"] == 0 and not stats["side_exits"]

    def test_store_into_the_thresholds_side_exits(self):
        stats = _counted(4, ["sh a1, 2(s2)", *COUNTED_BODY])
        assert stats["side_exits"] == {"mem-alias": 1}

    def test_counter_that_wraps_side_exits(self):
        """3 in steps of 2 passes zero: the loop runs on past the
        budget on both engines."""
        stats = _counted(3, step=2, max_instructions=300)
        assert stats["side_exits"]["trip-count"] >= 1

    def test_misaligned_thresholds(self):
        _counted(4, regs={"s2": 0x3001})

    def test_hardware_loop_ending_inside_the_body(self):
        stats = _counted(3, ["lp.setupi 1, 2, end1", "addi a1, a1, 1",
                             "end1:", *COUNTED_BODY[5:]])
        assert "nested-loop-end" in stats["side_exits"] or \
            stats["nest_dispatches"] == 0

    def test_hardware_loop_ending_at_the_exit(self):
        """The last back-edge branch falls through to an lp1 loop's end:
        its back-edge fires after the plan, as on the interpreter."""
        lines = ["lp.setupi 1, 3, end1", "li t5, 2", "head:",
                 *COUNTED_BODY[5:], "addi t5, t5, -1", "bne t5, zero, head",
                 "end1:", "ebreak"]
        _, _, plain = run_both("\n".join(lines) + "\n", regs=COUNTED_REGS,
                               mem=COUNTED_MEM)
        assert plain.engine_stats["fused_dispatches"] == 3


def _one_region(program):
    from repro.core import RegionCounters

    return RegionCounters(program=program, default_region="code")


def _unpack_loop(body):
    """*body* as one hardware loop of 6 iterations over pointers ``s0``
    (loads) and ``s1`` (stores); returns the block engine's stats."""
    lines = ["lp.setupi 0, 6, end0", *body, "end0:", "ebreak"]
    _, block, _ = run_both(
        "\n".join(lines) + "\n", isa="ri5cy", profile=_one_region,
        regs={"s0": 0x1000, "s1": 0x2000, "a0": 0xA5C3_5A3C,
              "a5": 0x0F0F_0F0F},
        mem={0x1000: bytes(range(3, 250, 5))})
    return block.engine_stats


def _insert_chain(lanes):
    """Widen nibbles of ``a1`` into the given byte lanes of ``a0``."""
    lines = []
    for lane in lanes:
        lines += [f"p.extract a2, a1, {4 * lane}, 4",
                  f"pv.insert.b a0, a2, {lane}"]
    return lines


class TestUnpackEdgeCases:
    """The insert-chain and store-interleave legality rules."""

    def test_complete_insert_chain_fuses(self):
        stats = _unpack_loop(["p.lw a1, 4(s0!)", *_insert_chain(range(4)),
                              "p.sw a0, 4(s1!)"])
        assert stats["fused_dispatches"] == 1

    def test_incomplete_insert_chain(self):
        """Lane 3 keeps the previous iteration's byte: a recurrence."""
        stats = _unpack_loop(["p.lw a1, 4(s0!)", *_insert_chain(range(3)),
                              "p.sw a0, 4(s1!)"])
        assert stats["side_exits"] == {"reg-pattern": 1}

    def test_full_read_of_half_built_register(self):
        chain = _insert_chain(range(4))
        stats = _unpack_loop(["p.lw a1, 4(s0!)", *chain[:4],
                              "p.sw a0, 4(s1!)", *chain[4:],
                              "p.sw a0, 4(s1!)"])
        assert stats["side_exits"] == {"reg-pattern": 1}

    def test_mixed_width_chain_leaving_bytes_unwritten(self):
        """The half-word insert covers bytes 0-1 and the byte insert byte
        1 again: bytes 2-3 keep ``a0``'s entry value, a recurrence."""
        stats = _unpack_loop(["p.lw a1, 4(s0!)", "pv.insert.h a0, a1, 0",
                              "pv.insert.b a0, a1, 1", "p.sw a0, 4(s1!)"])
        assert stats["side_exits"] == {"reg-pattern": 1}

    def test_mixed_width_chain_fuses(self):
        stats = _unpack_loop(["p.lw a1, 4(s0!)", "pv.insert.b a0, a1, 2",
                              "pv.insert.h a0, a1, 0",
                              "pv.insert.b a0, a1, 3", "p.sw a0, 4(s1!)"])
        assert stats["fused_dispatches"] == 1

    def test_insert_reading_its_own_target_mid_chain(self):
        stats = _unpack_loop(["p.lw a1, 4(s0!)", "pv.insert.b a0, a1, 0",
                              "pv.insert.b a0, a0, 1",
                              "pv.insert.b a0, a1, 2",
                              "pv.insert.b a0, a1, 3", "p.sw a0, 4(s1!)"])
        assert stats["side_exits"] == {"reg-pattern": 1}

    def test_interleaved_store_streams_fuse(self):
        """Three word streams at stride 16, residues 0, 4 and 12."""
        stats = _unpack_loop(["p.lw a1, 4(s0!)",
                              "pv.srl.sci.b a2, a1, 4", "and a3, a1, a5",
                              "p.sw a1, 4(s1!)", "p.sw a2, 8(s1!)",
                              "p.sw a3, 4(s1!)"])
        assert stats["fused_dispatches"] == 1

    def test_colliding_store_streams_side_exit(self):
        """Residues 0 and 2 at stride 8: the word stores overlap."""
        stats = _unpack_loop(["p.lw a1, 4(s0!)", "p.sw a1, 2(s1!)",
                              "p.sw a1, 6(s1!)"])
        assert stats["side_exits"] == {"mem-alias": 1}
        # The site is the loop body's first instruction, after lp.setupi;
        # tier A then ran all 6 iterations of the 3-instruction body.
        assert stats["side_exit_sites"] == [
            {"pc": 4, "reason": "mem-alias", "region": "code", "count": 1,
             "instructions": 18}]


#: A conv-shaped filter loop: clear the accumulator and rewind the
#: activation pointer, dot-product lp0 loop, clip-and-store epilogue.
NEST_PREFIX = ["addi a0, zero, 0", "addi a1, s2, 0"]
NEST_INNER = ["p.lw a2, 4(a1!)", "p.lw a3, 4(s0!)", "pv.sdotsp.b a0, a2, a3"]
NEST_TAIL = ["p.clipu a4, a0, 9", "p.sb a4, 1(s1!)"]
NEST_REGS = {"s0": 0x1000, "s1": 0x2000, "s2": 0x3000, "s3": 0x4000,
             "s4": 5, "sp": 0x5000}
NEST_MEM = {0x1000: bytes(range(1, 256, 3)), 0x3000: bytes(range(200, 8, -2)),
            0x4000: bytes(range(0, 240, 7))}


def _nest(outer=3, count=4, prefix=NEST_PREFIX, inner=NEST_INNER,
          tail=NEST_TAIL, setup="lp.setupi", **kw):
    """Run a filter-loop nest on both engines; returns the unprofiled
    block core's engine stats (and the profiled core's, whose region
    partition splits the program in half)."""
    lines = [f"lp.setupi 1, {outer}, end1", *prefix,
             f"{setup} 0, {count}, end0", *inner, "end0:", *tail, "end1:",
             "ebreak"]
    _, block, plain = run_both("\n".join(lines) + "\n", regs=NEST_REGS,
                               mem=NEST_MEM, **kw)
    return plain.engine_stats, block.engine_stats


class TestLoopNests:
    def test_filter_loop_fuses_as_one_dispatch(self):
        stats, _ = _nest()
        assert stats["nest_dispatches"] == stats["fused_dispatches"] == 1
        assert stats["side_exits"] == {}

    @pytest.mark.parametrize("count", [0, 1])
    def test_inner_loop_run_once(self, count):
        """Counts 0 and 1 both run the inner body once per outer trip."""
        stats, _ = _nest(count=count)
        assert stats["nest_dispatches"] == 1

    def test_register_count(self):
        stats, _ = _nest(count="s4", setup="lp.setup")
        assert stats["nest_dispatches"] == 1

    def test_count_register_written_in_body(self):
        stats, _ = _nest(count="s4", setup="lp.setup",
                         tail=NEST_TAIL + ["addi s4, s4, -1"])
        # One side exit per dispatch: outer trips 3 and 2 (1 is unfused).
        assert stats["side_exits"] == {"reg-pattern": 2}

    def test_outer_count_one_runs_unfused(self):
        stats, _ = _nest(outer=1)
        assert stats["nest_dispatches"] == 0

    def test_inner_end_is_outer_end(self):
        """An empty epilogue: the inner loop's end is the outer's."""
        stats, _ = _nest(tail=[])
        assert stats["nest_dispatches"] == 0
        assert "nested-loop-end" in stats["side_exits"]

    def test_ebreak_in_outer_tail(self):
        stats, _ = _nest(tail=["p.sb a0, 1(s1!)", "ebreak",
                               "addi a5, a5, 1"])
        assert stats["side_exits"] == {"loop-shape": 1}   # halted in it

    @pytest.mark.parametrize("budget", [9, 20, 31])
    def test_budget_runs_out_mid_nest(self, budget):
        stats, _ = _nest(max_instructions=budget)
        assert stats["nest_dispatches"] == 0
        assert "budget" in stats["side_exits"]

    def test_inner_store_streams_interleave(self):
        """Two word streams through s3 at stride 8, residues 0 and 4, in
        every row: they share a range but no byte, and fuse."""
        stats, _ = _nest(inner=NEST_INNER + ["p.sw a2, 4(s3!)",
                                             "p.sw a3, 4(s3!)"])
        assert stats["nest_dispatches"] == stats["fused_dispatches"] == 1
        assert stats["side_exits"] == {}

    def test_outer_stride_breaking_the_residue(self):
        """The epilogue steps s3 by 2: each row shifts both residues, so
        a row's stores overlap the next one's and the nest side-exits."""
        stats, _ = _nest(inner=NEST_INNER + ["p.sw a2, 4(s3!)",
                                             "p.sw a3, 4(s3!)"],
                         tail=NEST_TAIL + ["addi s3, s3, 2"])
        assert stats["nest_dispatches"] == 0
        assert stats["side_exits"] == {"mem-alias": 2}

    def test_tail_store_aliasing_inner_loads(self):
        """The epilogue writes the words a later row's inner loop reads."""
        stats, _ = _nest(prefix=["addi a0, zero, 0", "addi a1, s3, 0"],
                         tail=["p.sw a0, 4(s3!)"])
        assert stats["side_exits"] == {"mem-alias": 2}

    def test_region_boundary_inside_nest(self):
        """The profiled run's partition cuts the body: it side-exits
        there and still matches; the unprofiled run fuses."""
        stats, profiled = _nest()
        assert stats["nest_dispatches"] == 1
        assert profiled["side_exits"]["region"] == 2

    def test_spill_slot_forwards(self):
        """The 2-bit conv's spill: a store and a reload of one slot per
        outer iteration read back each iteration's value."""
        stats, _ = _nest(tail=["sw a0, 0(sp)", "addi sp, sp, 4",
                               "p.clip a4, a0, 5", "lw a5, -4(sp)",
                               "addi sp, sp, -4", "p.sb a5, 1(s1!)",
                               "p.sb a4, 1(s1!)"])
        assert stats["nest_dispatches"] == 1

    @pytest.mark.parametrize("offset", [0, 1])
    def test_quantization_epilogue(self, offset):
        """``pv.qnt`` walks the trees at s3 in the fused nest; a
        misaligned tree base side-exits."""
        stats, _ = _nest(prefix=NEST_PREFIX + [f"addi a6, s3, {offset}"],
                         tail=["addi a4, a0, 0", "p.insert a4, a0, 16, 16",
                               "pv.qnt.n a5, a4, a6", "p.sb a5, 1(s1!)"])
        if offset:
            assert stats["side_exits"] == {"misaligned": 2}
        else:
            assert stats["nest_dispatches"] == 1


def test_published_counters_match_stats():
    """Every count in ``cpu.engine_stats`` reaches the telemetry
    registry, fused instructions and per-reason side exits included,
    once: the stats are running totals over the core's runs, and each
    run publishes only what it added."""
    from repro.asm import assemble
    from repro.telemetry import MetricsRegistry, use_registry

    program = assemble("""
        lp.setupi 0, 5, end0
        p.lw a1, 4(s0!)
        pv.sdotsp.b a2, a1, a1
    end0:
        lp.setupi 0, 5, end1
        p.lw a1, 4(s0!)
        p.sw a1, 2(s0!)
    end1:
        ebreak
    """, isa="xpulpnn")
    cpu = Cpu(isa="xpulpnn")
    with use_registry(MetricsRegistry()) as registry:
        cpu.run_program(program)
        cpu.regs[8] = 0
        cpu.run_program(program)
    stats = cpu.engine_stats
    assert stats["fused_instructions"] > 0 and stats["side_exits"]
    for name in ("blocks_translated", "block_hits", "interp_steps",
                 "fused_dispatches", "fused_iterations",
                 "fused_instructions"):
        assert registry.counter_total(f"engine.{name}") == stats[name]
    for reason, count in stats["side_exits"].items():
        assert registry.counter(
            "engine.side_exits", reason=reason).value == count


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
        """Any Memory subclass that does not log its accesses (like the
        cluster's arbitrating TCDM port) keeps the interpreter: the
        engine cannot arbitrate each access as it runs."""
        from repro.asm import assemble

        class PortedMemory(Memory):
            pass

        cpu = Cpu(isa="xpulpnn", engine="block")
        cpu.mem = PortedMemory(size=cpu.mem.size)
        cpu.run_program(assemble("addi a0, a0, 1\nebreak", isa="xpulpnn"))
        assert cpu.engine_stats is None

    def test_interp_mode_never_builds_engine(self):
        """The default engages the engine; "interp" never builds it."""
        from repro.asm import assemble

        program = assemble("addi a0, a0, 1\nebreak", isa="xpulpnn")
        default = Cpu(isa="xpulpnn")
        default.run_program(program)
        assert default.engine_stats["blocks_translated"] == 1
        cpu = Cpu(isa="xpulpnn", engine="interp")
        cpu.run_program(program)
        assert cpu.engine_stats is None


def _run_conv(bits, isa, quant, mode):
    """The tiny-geometry conv on one core; returns ``(output, cpu)``."""
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
    kernel = ConvKernel(ConvConfig(
        geometry=g, bits=bits, isa=isa, quant=quant))
    size = max(kernel.layout.end + 4096, L2_SIZE)
    cpu = Cpu(isa=isa, mem=Memory(size), engine=mode)
    if quant == "shift":
        out = kernel.run(w, x, shift=7, cpu=cpu)
    else:
        acc = conv2d_golden(x, w, stride=g.stride, pad=g.pad)
        out = kernel.run(
            w, x, thresholds=thresholds_from_accumulators(acc, bits),
            cpu=cpu)
    return out, cpu


def _conv_states(bits, isa, quant):
    states = []
    for mode in ("interp", "block"):
        out, cpu = _run_conv(bits, isa, quant, mode)
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


@pytest.mark.parametrize("bits", [4, 2])
def test_ri5cy_unpack_conv_fuses(bits):
    """The baseline's sub-byte conv (weight unpack in the MatMul loop,
    activation unpack in the im2col copy) retires >= 90% of its
    instructions fused, with no op or aliasing decline left."""
    out, cpu = _run_conv(bits, "ri5cy", "sw", "block")
    stats = cpu.engine_stats
    assert stats["fused_instructions"] >= 0.9 * out.perf.instructions
    assert "unsupported-op" not in stats["side_exits"]
    assert "mem-alias" not in stats["side_exits"]


def test_example_listing_parity():
    """``examples/nibble_dotp.s`` profiled as ``repro profile FILE`` does."""
    from pathlib import Path

    from repro.core import RegionCounters

    example = Path(__file__).parents[2] / "examples" / "nibble_dotp.s"
    _, block, _ = run_both(
        example.read_text(), profile=lambda program: RegionCounters(
            program=program, default_region="code"),
        regs={"a0": 0x1000, "a1": 0x1010, "a2": 0x1020},
        mem={0x1000: bytes(range(7, 200, 3))})
    assert block.regions.regions == ["code"]
    assert block.engine_stats["fused_dispatches"] == 1


def test_region_attribution_parity():
    """Region profiles survive block and fused execution: a fused hwloop
    body with misaligned loads, a load-use stall at a region (and so
    segment) entry, one loop ending right at a region boundary and one
    whose body straddles two regions."""
    interp, block, _ = run_both("""
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
