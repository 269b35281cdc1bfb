"""Tracer protocol: hooks and span folding."""

import pytest

from repro.asm import KernelBuilder, assemble
from repro.core import Cpu
from repro.trace import (
    EventTracer,
    TextTracer,
    Tracer,
)

COUNTED_LOOP = """
.region init
    li   a0, 0
    li   t0, 4
.endregion
.region loop
again:
    addi a0, a0, 1
    addi t0, t0, -1
    bnez t0, again
.endregion
    ebreak
"""


def _run(source, tracer=None, isa="xpulpnn"):
    program = assemble(source, isa=isa)
    cpu = Cpu(isa=isa)
    if tracer is not None:
        cpu.tracer = tracer
    cpu.load_program(program)
    perf = cpu.run()
    return cpu, perf, program


class TestTextTracer:
    def test_format_matches_legacy_run_trace(self):
        lines = []
        _run("nop\nebreak", TextTracer(write=lines.append))
        assert lines[0] == "  0x00000000: addi zero, zero, 0"
        assert all(line.startswith("  0x") for line in lines)


class TestEventTracerSpans:
    def test_spans_partition_the_run(self):
        program = assemble(COUNTED_LOOP, isa="xpulpnn")
        tracer = EventTracer(program=program, default_region="code")
        cpu = Cpu(isa="xpulpnn")
        cpu.tracer = tracer
        cpu.load_program(program)
        perf = cpu.run()
        tracer_names = {s.name for s in tracer.region_spans}
        assert tracer_names == {"init", "loop", "code"}
        # Spans tile [0, cycles) with no gaps or overlap.
        spans = sorted(tracer.spans_for(0), key=lambda s: s.start)
        assert spans[0].start == 0
        for prev, cur in zip(spans, spans[1:]):
            assert prev.end == cur.start
        assert spans[-1].end == perf.cycles
        assert tracer.end_cycles == {0: perf.cycles}

    def test_span_instruction_counts_sum_to_retires(self):
        tracer = EventTracer()
        _, perf, _ = _run(COUNTED_LOOP, tracer)
        assert sum(s.instructions for s in tracer.region_spans) == \
            perf.instructions

    def test_region_map_from_program(self):
        program = assemble(COUNTED_LOOP, isa="xpulpnn")
        spans = program.regions
        assert set(spans) == {"init", "loop"}
        tracer = EventTracer(program=program)
        cpu = Cpu(isa="xpulpnn")
        cpu.tracer = tracer
        cpu.load_program(program)
        cpu.run()
        cycles = tracer.region_cycles()
        assert cycles["loop"] > cycles["init"]

    def test_stall_events_match_counters(self):
        tracer = EventTracer()
        _, perf, _ = _run(COUNTED_LOOP, tracer)
        by_cause = {}
        for stall in tracer.stalls:
            by_cause[stall.cause] = by_cause.get(stall.cause, 0) + stall.cycles
        assert by_cause.get("branch", 0) == perf.stall_branch
        assert sum(by_cause.values()) == perf.total_stalls

    def test_rejects_unknown_detail(self):
        with pytest.raises(ValueError):
            EventTracer(detail="everything")


class TestFullDetail:
    def test_retires_recorded_with_dominant_cause(self):
        tracer = EventTracer(detail="full")
        _, perf, _ = _run(COUNTED_LOOP, tracer)
        assert len(tracer.retires) == perf.instructions
        taken = [r for r in tracer.retires
                 if r.mnemonic == "bne" and r.stall_cycles]
        assert taken and all(r.stall_cause == "branch" for r in taken)

    def test_memory_events_only_in_full_mode(self):
        src = "li a1, 0x100\nlw a0, 0(a1)\nsw a0, 4(a1)\nebreak"
        spans = EventTracer()
        _run(src, spans)
        assert spans.mem_events == []

        full = EventTracer(detail="full")
        _run(src, full)
        kinds = [(e.kind, e.addr) for e in full.mem_events]
        assert ("r", 0x100) in kinds and ("w", 0x104) in kinds

    def test_hwloop_backedges_recorded(self):
        b = KernelBuilder(isa="xpulpnn")
        b.li("t0", 3)
        with b.hardware_loop(0, "t0"):
            b.emit("addi", "a0", "a0", 1)
        b.ebreak()
        program = b.build()
        tracer = EventTracer(detail="full")
        cpu = Cpu(isa="xpulpnn")
        cpu.tracer = tracer
        cpu.load_program(program)
        perf = cpu.run()
        assert len(tracer.hwloop_events) == perf.hwloop_backedges == 2


class TestZeroCost:
    def test_cycles_identical_with_and_without_tracer(self):
        _, bare, _ = _run(COUNTED_LOOP)
        _, spans, _ = _run(COUNTED_LOOP, EventTracer())
        _, full, _ = _run(COUNTED_LOOP, EventTracer(detail="full"))
        assert bare.cycles == spans.cycles == full.cycles
        assert bare.instructions == spans.instructions == full.instructions

    def test_base_tracer_hooks_are_noops(self):
        tracer = Tracer()
        assert tracer.trace_memory is False
        _, perf, _ = _run(COUNTED_LOOP, tracer)
        assert perf.instructions > 0
