"""Hardware-loop controller and lp.* instruction behaviour."""

import pytest

from repro.asm import assemble
from repro.core import Cpu
from repro.core.hwloop import HwLoopController
from repro.errors import SimError
from tests.conftest import run_asm


class TestController:
    def test_redirect_decrements(self):
        hw = HwLoopController()
        hw.configure(0, start=0x10, end=0x20, count=3)
        assert hw.redirect(0x20) == 0x10   # iteration 2
        assert hw.redirect(0x20) == 0x10   # iteration 3
        assert hw.redirect(0x20) is None   # falls through
        assert not hw.active(0)

    def test_redirect_ignores_other_addresses(self):
        hw = HwLoopController()
        hw.configure(0, start=0x10, end=0x20, count=5)
        assert hw.redirect(0x1C) is None
        assert hw.count[0] == 5

    def test_inner_loop_priority(self):
        hw = HwLoopController()
        hw.configure(0, start=0x10, end=0x20, count=2)
        hw.configure(1, start=0x00, end=0x20, count=2)
        # Same end address: L0 wins.
        assert hw.redirect(0x20) == 0x10

    def test_count_zero_means_inactive(self):
        hw = HwLoopController()
        hw.configure(0, start=0x10, end=0x20, count=0)
        assert hw.redirect(0x20) is None

    def test_bad_level_raises(self):
        hw = HwLoopController()
        with pytest.raises(SimError):
            hw.configure(2, count=1)

    def test_negative_count_raises(self):
        hw = HwLoopController()
        with pytest.raises(SimError):
            hw.configure(0, count=-1)

    def test_reset(self):
        hw = HwLoopController()
        hw.configure(0, start=1, end=2, count=3)
        hw.reset()
        assert hw.count[0] == 0 and hw.start[0] == 0


class TestLpInstructions:
    def test_lp_setup_executes_n_times(self, cpu):
        src = """
            li t0, 7
            li a0, 0
            lp.setup 0, t0, end
            addi a0, a0, 2
        end:
            ebreak
        """
        run_asm(cpu, src)
        assert cpu.regs[10] == 14

    def test_lp_setupi(self, cpu):
        src = """
            li a0, 0
            lp.setupi 0, 9, end
            addi a0, a0, 1
        end:
            ebreak
        """
        run_asm(cpu, src)
        assert cpu.regs[10] == 9

    def test_separate_lp_registers(self, cpu):
        src = """
            li t0, 4
            li a0, 0
            lp.count 0, t0
            lp.starti 0, body
            lp.endi 0, end
        body:
            addi a0, a0, 5
        end:
            ebreak
        """
        run_asm(cpu, src)
        assert cpu.regs[10] == 20

    def test_lp_counti(self, cpu):
        src = """
            li a0, 0
            lp.counti 0, 6
            lp.starti 0, body
            lp.endi 0, end
        body:
            addi a0, a0, 1
        end:
            ebreak
        """
        run_asm(cpu, src)
        assert cpu.regs[10] == 6

    def test_nested_loops(self, cpu):
        src = """
            li t0, 3
            li t1, 4
            li a0, 0
            lp.setup 1, t0, outer_end
            lp.setup 0, t1, inner_end
            addi a0, a0, 1
        inner_end:
            addi a0, a0, 100
        outer_end:
            ebreak
        """
        run_asm(cpu, src)
        assert cpu.regs[10] == 3 * (4 + 100)

    def test_zero_overhead_backedge(self, cpu):
        """The loop body must cost exactly body-cycles x count."""
        src = """
            lp.setupi 0, 10, end
            addi a0, a0, 1
        end:
            ebreak
        """
        run_asm(cpu, src)
        # 1 setup + 10 body + 1 ebreak = 12 cycles, no branch penalties
        assert cpu.perf.cycles == 12
        assert cpu.perf.hwloop_backedges == 9

    def test_multi_instruction_body_cycles(self, cpu):
        src = """
            lp.setupi 0, 5, end
            addi a0, a0, 1
            addi a1, a1, 2
        end:
            ebreak
        """
        run_asm(cpu, src)
        assert cpu.perf.cycles == 1 + 5 * 2 + 1
        assert cpu.regs[10] == 5 and cpu.regs[11] == 10

    @pytest.mark.parametrize("halt", ["ebreak", "ecall"])
    @pytest.mark.parametrize("engine", ["block", "interp"])
    def test_halt_at_loop_end_takes_no_backedge(self, halt, engine):
        """A halting instruction that ends a loop body stops the core on
        its fall-through: no back-edge, the loop count untouched."""
        program = assemble(f"""
            lp.setupi 0, 4, end0
            {halt}
        end0:
            addi a0, a0, 1
            ebreak
        """, isa="xpulpnn")
        cpu = Cpu(isa="xpulpnn", engine=engine)
        cpu.run_program(program)
        assert cpu.halted == halt
        assert cpu.perf.hwloop_backedges == 0
        assert cpu.pc == program.labels["end0"]
        assert cpu.hwloops.count[0] == 4
        assert cpu.regs[10] == 0
