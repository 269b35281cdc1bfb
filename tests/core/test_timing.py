"""Cycle-approximate timing model behaviour (RI5CY parameters)."""

import pytest

from repro.isa.instruction import InstrSpec
from tests.conftest import run_asm


class TestClassCycles:
    def test_alu_one_cycle(self, cpu):
        run_asm(cpu, "addi a0, zero, 1\nebreak")
        assert cpu.perf.cycles == 2

    def test_load_one_cycle_no_use(self, cpu):
        cpu.mem.store(0x100, 4, 1)
        run_asm(cpu, "lw a0, 0(a2)\naddi a3, a4, 0\nebreak", a2=0x100)
        assert cpu.perf.cycles == 3
        assert cpu.perf.stall_load_use == 0

    def test_load_use_stall(self, cpu):
        cpu.mem.store(0x100, 4, 5)
        run_asm(cpu, "lw a0, 0(a2)\naddi a1, a0, 1\nebreak", a2=0x100)
        assert cpu.perf.stall_load_use == 1
        assert cpu.perf.cycles == 4

    def test_load_use_stall_skipped_with_gap(self, cpu):
        cpu.mem.store(0x100, 4, 5)
        run_asm(cpu, "lw a0, 0(a2)\nnop\naddi a1, a0, 1\nebreak", a2=0x100)
        assert cpu.perf.stall_load_use == 0

    def test_load_use_stall_on_accumulator(self, cpu):
        """sdotp reads rd, so a load into rd stalls too."""
        cpu.mem.store(0x100, 4, 5)
        run_asm(cpu, "lw a0, 0(a2)\npv.sdotsp.b a0, a3, a4\nebreak", a2=0x100)
        assert cpu.perf.stall_load_use == 1

    def test_x0_load_never_stalls(self, cpu):
        cpu.mem.store(0x100, 4, 5)
        run_asm(cpu, "lw zero, 0(a2)\naddi a1, zero, 1\nebreak", a2=0x100)
        assert cpu.perf.stall_load_use == 0


class TestControlFlow:
    def test_taken_branch_penalty(self, cpu):
        run_asm(cpu, "beq zero, zero, t\nnop\nt:\nebreak")
        assert cpu.perf.stall_branch == 2
        assert cpu.perf.cycles == 1 + 2 + 1

    def test_not_taken_branch_no_penalty(self, cpu):
        run_asm(cpu, "bne zero, zero, t\nnop\nt:\nebreak")
        assert cpu.perf.stall_branch == 0

    def test_jump_penalty(self, cpu):
        run_asm(cpu, "j t\nnop\nt:\nebreak")
        assert cpu.perf.stall_jump == 1
        assert cpu.perf.cycles == 1 + 1 + 1


class TestMisalignment:
    def test_misaligned_load_costs_extra(self, cpu):
        cpu.mem.store(0x100, 4, 0)
        run_asm(cpu, "lw a0, 1(a2)\nebreak", a2=0x100)
        assert cpu.perf.stall_misaligned == 1

    def test_aligned_load_no_extra(self, cpu):
        run_asm(cpu, "lw a0, 0(a2)\nebreak", a2=0x100)
        assert cpu.perf.stall_misaligned == 0

    def test_misaligned_halfword_store(self, cpu):
        run_asm(cpu, "sh a1, 1(a2)\nebreak", a1=5, a2=0x100)
        assert cpu.perf.stall_misaligned == 1


class TestQuantTiming:
    def test_qnt_n_occupies_9(self, cpu):
        cpu.mem.write_i16(0x4000, [0] * 16)
        run_asm(cpu, "pv.qnt.n a0, a1, a2\nebreak", a1=0, a2=0x4000)
        assert cpu.perf.cycles == 9 + 1

    def test_qnt_c_occupies_5(self, cpu):
        cpu.mem.write_i16(0x4000, [0] * 8)
        run_asm(cpu, "pv.qnt.c a0, a1, a2\nebreak", a1=0, a2=0x4000)
        assert cpu.perf.cycles == 5 + 1

    def test_misaligned_threshold_base_stalls(self, cpu):
        cpu.mem.write_i16(0x4000, [0] * 40)
        run_asm(cpu, "pv.qnt.n a0, a1, a2\nebreak", a1=0, a2=0x4001)
        assert cpu.perf.stall_misaligned >= 8  # every tree read split


class TestTimingClasses:
    def test_model_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            InstrSpec(mnemonic="x", fmt="R", fixed={}, syntax=(),
                      execute=lambda c, i: None, timing="warp")
