"""Tier-A execution: cached blocks run from flat tables.

The segment loop below is the engine's workhorse when fusion does not
apply.  It executes a block's instructions with the original semantic
functions but none of the per-instruction interpreter overhead: no
fetch dict lookup, no :class:`~repro.core.timing.StepTiming`
allocation, no per-retire counter writes.  Cycle and stall accounting
is flushed per *segment* through :meth:`~repro.engine.blocks.Block.price`
plus the dynamic stalls the segment met, and is bit-identical to
interpreting the same instructions — including load-use hazards across
segment and block boundaries, misaligned-access
penalties, quantization-FSM stalls and trap behaviour (a fault flushes
the already-retired prefix, leaves ``pc`` on the faulting instruction,
and re-raises).

A *segment* ends where a hardware-loop back-edge can fire: loop counts
only change at a loop-end fall-through, so every interior instruction
is provably straight-line and needs no redirect check.

Against a memory that logs its accesses (a cluster core's replay port,
:mod:`repro.cluster.replay`), the segment also tells the port, before
each instruction, how many cycles past the segment's start that
instruction issues, so every access is logged with its stall-free issue
clock.
"""

from __future__ import annotations

from ..core.timing import MISALIGNED_PENALTY


def run_block(cpu, block, limit: int, port=None) -> int:
    """Execute *block* from its first instruction; returns the number of
    instructions retired (at most *limit*).  ``cpu.pc`` is left exactly
    where the interpreter would leave it.  *port* is ``cpu.mem`` when it
    logs accesses (see the module docstring), else None."""
    hw = cpu.hwloops
    ft_index = block.ft_index
    n = block.n
    executed = 0
    idx = 0
    while True:
        stop = n
        count = hw.count
        if count[0] > 0:
            j = ft_index.get(hw.end[0], -1)
            if idx <= j < stop:
                stop = j + 1
        if count[1] > 0:
            j = ft_index.get(hw.end[1], -1)
            if idx <= j < stop:
                stop = j + 1
        at_boundary = True
        if executed + (stop - idx) > limit:
            stop = idx + (limit - executed)
            at_boundary = False
            if stop == idx:
                cpu.pc = block.addrs[idx]
                return executed
        _exec_segment(cpu, block, idx, stop, port)
        executed += stop - idx
        if not at_boundary:
            cpu.pc = block.addrs[stop] if stop < n else block.fts[n - 1]
            return executed
        fall_through = block.fts[stop - 1]
        redirect = hw.redirect(fall_through)
        if redirect is None:
            if stop < n:
                idx = stop
                continue
            cpu.pc = fall_through
            return executed
        cpu.perf.hwloop_backedges += 1
        j = block.addr_index.get(redirect, -1)
        if j < 0:
            cpu.pc = redirect
            return executed
        idx = j


def _exec_segment(cpu, block, lo: int, hi: int, port=None) -> None:
    execs = block.execs
    instrs = block.instrs
    addrs = block.addrs
    cpu._misaligned = 0
    cpu._extra_stalls = 0
    cpu._tcdm_stalls = 0
    dyn_mis = 0
    dyn_tcdm = 0
    i = lo
    if port is not None:
        # Issue offsets: instrs[lo:i] priced, plus the dynamic stalls met.
        prefix = block.prefix
        skew = block.price(lo, lo + 1, cpu._pending_load_rd)[0] \
            - prefix[lo + 1]
    try:
        while i < hi:
            cpu.pc = addrs[i]
            if port is not None:
                port.issue_offset = (
                    prefix[i] + skew + dyn_mis if i > lo else 0)
            execs[i](cpu, instrs[i])
            if cpu._misaligned or cpu._extra_stalls or cpu._tcdm_stalls:
                mis = (cpu._misaligned * MISALIGNED_PENALTY
                       + cpu._extra_stalls)
                tcdm = cpu._tcdm_stalls
                dyn_mis += mis
                dyn_tcdm += tcdm
                cpu._misaligned = 0
                cpu._extra_stalls = 0
                cpu._tcdm_stalls = 0
            i += 1
    except BaseException:
        # Trap mid-segment: account the instructions that retired before
        # the fault (the faulting one is charged nothing, exactly like
        # Cpu.step aborting before its timing update) and re-raise with
        # pc parked on the faulting instruction.
        _flush(cpu, block, lo, i, dyn_mis, dyn_tcdm)
        raise
    finally:
        if port is not None:
            port.issue_offset = 0
    _flush(cpu, block, lo, hi, dyn_mis, dyn_tcdm)


def _flush(cpu, block, lo: int, hi: int, dyn_mis: int,
           dyn_tcdm: int) -> None:
    if hi == lo:
        return
    perf = cpu.perf
    cycles, load_use = block.price(lo, hi, cpu._pending_load_rd)
    perf.cycles += cycles + dyn_mis + dyn_tcdm
    perf.instructions += hi - lo
    by_class = perf.by_class
    if not by_class.keys() >= block.cls_prefix.keys():
        # A class's first retire fixes its place in the counter, as on
        # the interpreter: enter the segment's new classes in its order.
        for cls in block.classes[lo:hi]:
            by_class[cls] += 0
    for cls, pref in block.cls_prefix.items():
        delta = pref[hi] - pref[lo]
        if delta:
            by_class[cls] += delta
    perf.stall_load_use += load_use
    perf.stall_misaligned += dyn_mis
    perf.stall_tcdm_contention += dyn_tcdm
    cpu._pending_load_rd = block.pending[hi - 1]
