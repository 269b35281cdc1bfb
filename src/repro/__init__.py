"""XpulpNN reproduction library.

A full-stack functional reproduction of *"XpulpNN: Accelerating Quantized
Neural Networks on RISC-V Processors Through ISA Extensions"*
(Garofalo et al., DATE 2020):

* :mod:`repro.isa` — RV32IMC + XpulpV2 + XpulpNN instruction sets;
* :mod:`repro.core` — cycle-approximate (extended) RI5CY simulator;
* :mod:`repro.asm` — assembler, builder DSL, disassembler;
* :mod:`repro.soc` — PULPissimo memory system;
* :mod:`repro.qnn` — quantization, threshold trees, golden layers;
* :mod:`repro.kernels` — PULP-NN-style generated QNN kernels;
* :mod:`repro.baselines` — Cortex-M4/M7 CMSIS-NN cost models;
* :mod:`repro.physical` — area/power/efficiency models (Table III);
* :mod:`repro.eval` — per-figure/table experiment harnesses.

Quick start::

    from repro import Cpu, assemble
    cpu = Cpu()                 # defaults to the XpulpNN target
    program = assemble("li a0, 2\\nli a1, 3\\nadd a0, a0, a1\\nebreak")
    cpu.run_program(program)
    assert cpu.regs[10] == 5
"""

from .asm import Assembler, KernelBuilder, assemble, disassemble_program
from .core import Cpu, PerfCounters
from .errors import ReproError
from .isa import Isa, build_isa
from .soc import Memory, Pulpissimo

__version__ = "1.0.0"

__all__ = [
    "Assembler",
    "Cpu",
    "Isa",
    "KernelBuilder",
    "Memory",
    "PerfCounters",
    "Pulpissimo",
    "ReproError",
    "assemble",
    "build_isa",
    "disassemble_program",
    "__version__",
]
