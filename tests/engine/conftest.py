"""Shared harness for the translation-engine tests.

Every test here compares the block engine against the interpreter on the
*complete* observable state: halt reason, pc, all 32 registers, the full
PerfCounters snapshot, the region profile's per-region counters, the
load-use pipeline residue, hardware-loop state, and every byte of data
memory.  Parity is the engine's contract — any divergence is a bug,
never a tolerance.
"""

import pytest

from repro.asm import assemble
from repro.core import Cpu, RegionCounters
from repro.engine.blocks import GLOBAL_CACHE
from repro.isa.registers import parse_register


@pytest.fixture(autouse=True)
def _fresh_block_cache():
    """Isolate the process-wide translated-block cache."""
    GLOBAL_CACHE.clear()
    yield
    GLOBAL_CACHE.clear()


def state_of(cpu):
    """The complete observable machine state after a run."""
    return {
        "halted": cpu.halted,
        "pc": cpu.pc,
        "regs": list(cpu.regs),
        "perf": cpu.perf.snapshot(),
        # The order the energy model sums the timing classes in.
        "class_order": list(cpu.perf.by_class),
        "regions": None if cpu.regions is None else [
            (name, cpu.regions[name].snapshot())
            for name in cpu.regions.regions],
        "pending_load": cpu._pending_load_rd,
        "hwloops": (list(cpu.hwloops.start), list(cpu.hwloops.end),
                    list(cpu.hwloops.count)),
        "mem": bytes(cpu.mem._data),
    }


def region_map(program):
    """The program's ``.region`` map; an unmarked program gets one region
    over its first half, so profiled runs always cross a boundary."""
    marked = program.region_map()
    if marked:
        return marked
    half = program.instructions[:len(program.instructions) // 2]
    return {ins.addr: "head" for ins in half}


def _run_one(program, mode, *, isa, regs, mem, max_instructions,
             profile=None):
    cpu = Cpu(isa=isa, engine=mode)
    if profile is not None:
        cpu.regions = profile(program)
    for addr, data in (mem or {}).items():
        cpu.mem.write_bytes(addr, data)
    cpu.load_program(program)
    for name, value in (regs or {}).items():
        cpu.regs[parse_register(name)] = value & 0xFFFFFFFF
    error = None
    try:
        cpu.run(max_instructions=max_instructions)
    except Exception as exc:                      # noqa: BLE001 - compared
        error = (type(exc).__name__, str(exc))
    return cpu, error


def run_both(source, *, isa="xpulpnn", regs=None, mem=None,
             max_instructions=200_000, profile=None):
    """Run *source* on a fresh interpreter core and a fresh block-engine
    core, both region-profiled (*profile* builds the table from the
    program, by default over :func:`region_map`); assert bit- and
    cycle-identical outcomes (including identical exceptions and region
    tables) and return ``(interp_cpu, block_cpu, plain_cpu)``.  The
    third, unprofiled block-engine run must match too."""
    program = assemble(source, isa=isa)
    kw = dict(isa=isa, regs=regs, mem=mem,
              max_instructions=max_instructions)
    profile = profile or (
        lambda program: RegionCounters(region_map=region_map(program)))
    interp, interp_err = _run_one(program, "interp", profile=profile, **kw)
    block, block_err = _run_one(program, "block", profile=profile, **kw)
    plain, plain_err = _run_one(program, "block", **kw)
    istate = state_of(interp)
    for name, cpu, err in (("block", block, block_err),
                           ("unprofiled block", plain, plain_err)):
        assert interp_err == err, (
            f"engines diverged on outcome: interp={interp_err} "
            f"{name}={err}")
        state = state_of(cpu)
        for key in istate:
            if key == "regions" and cpu is plain:
                continue
            assert istate[key] == state[key], (
                f"engines diverged on {key}: interp={istate[key]!r} "
                f"{name}={state[key]!r}")
    return interp, block, plain
