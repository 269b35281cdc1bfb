"""PULPissimo SoC model: core + L2 + stub peripherals.

This wires the pieces of Fig. 5 that matter for the paper's experiments:
the (extended) RI5CY core fetching and crunching against single-cycle L2
SRAM.  The peripheral space decodes but is inert; a tiny pseudo-UART
register collects characters so examples can "print".
"""

from __future__ import annotations

from typing import List

from ..errors import MemoryAccessError
from .memmap import (
    L2_BASE,
    L2_SIZE,
    PERIPH_BASE,
    PERIPH_SIZE,
    ROM_BASE,
    ROM_SIZE,
    STDOUT_PUTC,
    TIMER_CYCLES,
)
from .memory import Memory
from ..target.names import XPULPNN


class SocMemory:
    """Address decoder over the PULPissimo regions."""

    def __init__(self) -> None:
        self.l2 = Memory(L2_SIZE, base=L2_BASE, name="l2")
        self.rom = Memory(ROM_SIZE, base=ROM_BASE, name="rom")
        self.uart_output: List[int] = []
        self._timer_hook = None

    def _region(self, addr: int, length: int):
        if self.l2.contains(addr, length):
            return self.l2
        if self.rom.contains(addr, length):
            return self.rom
        return None

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        region = self._region(addr, size)
        if region is not None:
            return region.load(addr, size, signed)
        if PERIPH_BASE <= addr < PERIPH_BASE + PERIPH_SIZE:
            if addr == TIMER_CYCLES and self._timer_hook is not None:
                return self._timer_hook() & 0xFFFF_FFFF
            return 0
        raise MemoryAccessError(f"unmapped load of {size} B at {addr:#010x}")

    def store(self, addr: int, size: int, value: int) -> None:
        region = self._region(addr, size)
        if region is not None:
            region.store(addr, size, value)
            return
        if PERIPH_BASE <= addr < PERIPH_BASE + PERIPH_SIZE:
            if addr == STDOUT_PUTC:
                self.uart_output.append(value & 0xFF)
            return
        raise MemoryAccessError(f"unmapped store of {size} B at {addr:#010x}")

    # Bulk helpers delegate to L2 (where programs and tensors live).
    def write_bytes(self, addr: int, data: bytes) -> None:
        self.l2.write_bytes(addr, data)

    def read_bytes(self, addr: int, length: int) -> bytes:
        return self.l2.read_bytes(addr, length)

    def write_words(self, addr: int, words) -> None:
        self.l2.write_words(addr, words)

    def read_words(self, addr: int, count: int):
        return self.l2.read_words(addr, count)

    @property
    def uart_text(self) -> str:
        return bytes(self.uart_output).decode("latin-1")


class Pulpissimo:
    """The full MCU: one core (baseline or extended) + SoC memory."""

    def __init__(self, isa: str = XPULPNN) -> None:
        # Imported here: repro.core imports repro.soc.memory, so a
        # module-level import would be circular.
        from ..core.cpu import Cpu

        self.mem = SocMemory()
        self.cpu = Cpu(isa=isa, mem=self.mem)
        self.mem._timer_hook = lambda: self.cpu.perf.cycles

    def run_program(self, program, **kwargs):
        """Run a linked program placed in L2."""
        return self.cpu.run_program(program, **kwargs)

    @property
    def uart_text(self) -> str:
        return self.mem.uart_text
