"""CPU execution loop: halting, perf counters, helpers, profiling."""

import pytest

from repro.asm import assemble
from repro.core import RegionCounters
from repro.errors import SimError
from repro.trace import Tracer
from tests.conftest import run_asm


class TestExecution:
    def test_runaway_guard(self, cpu):
        program = assemble("loop:\nj loop", isa=cpu.isa.name)
        cpu.load_program(program)
        with pytest.raises(SimError):
            cpu.run(max_instructions=100)

    def test_reset_clears_state(self, cpu):
        run_asm(cpu, "addi a0, zero, 5\nebreak")
        cpu.reset()
        assert cpu.regs[10] == 0
        assert cpu.perf.cycles == 0
        assert cpu.halted is None

    def test_set_args_and_result(self, cpu):
        cpu.set_args(1, 2, 3)
        assert cpu.regs[10] == 1 and cpu.regs[12] == 3
        cpu.regs[10] = 99
        assert cpu.result() == 99

    def test_set_args_limit(self, cpu):
        with pytest.raises(SimError):
            cpu.set_args(*range(9))

    def test_run_program_resets_perf(self, cpu):
        program = assemble("addi a0, a0, 1\nebreak", isa=cpu.isa.name)
        cpu.run_program(program)
        first = cpu.perf.cycles
        cpu.run_program(program)
        assert cpu.perf.cycles == first

    def test_instructions_counted(self, cpu):
        run_asm(cpu, "nop\nnop\nnop\nebreak")
        assert cpu.perf.instructions == 4

    def test_trace_hook(self, cpu):
        seen = []

        class Recorder(Tracer):
            def on_retire(self, cpu, pc, ins, timing):
                seen.append((pc, ins.mnemonic))

        cpu.tracer = Recorder()
        run_asm(cpu, "addi a0, zero, 1\nebreak")
        assert seen[0] == (0, "addi")
        assert seen[-1][1] == "ebreak"


class TestProfiling:
    def test_profile_spans_count_cycles(self, cpu):
        program = assemble(
            "addi a0, zero, 1\naddi a1, zero, 2\naddi a2, zero, 3\nebreak",
            isa=cpu.isa.name,
        )
        cpu.load_program(program)
        cpu.regions = RegionCounters(region_map={4: "span"})  # 2nd only
        cpu.run()
        assert cpu.regions["span"].cycles == 1
        assert cpu.regions["span"].instructions == 1
        assert cpu.regions.total().cycles == cpu.perf.cycles

    def test_profile_disabled_by_default(self, cpu):
        run_asm(cpu, "nop\nebreak")
        assert cpu.regions is None


class TestMaterialize:
    def test_encoded_program_lands_in_memory(self, cpu):
        program = assemble("addi a0, zero, 7\nebreak", isa=cpu.isa.name)
        cpu.load_program(program)
        cpu.materialize(program)
        blob = cpu.mem.read_bytes(0, program.size)
        assert blob == program.encode()


class TestPerfDelta:
    def test_ipc(self, cpu):
        run_asm(cpu, "nop\nnop\nebreak")
        assert cpu.perf.ipc == pytest.approx(1.0)

    def test_snapshot_keys(self, cpu):
        run_asm(cpu, "nop\nebreak")
        snap = cpu.perf.snapshot()
        assert snap["instructions"] == 2
        assert "class_alu" in snap
