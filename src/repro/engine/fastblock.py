"""Tier-A execution: cached blocks run from flat tables.

The segment loop below is the engine's workhorse when fusion does not
apply.  It executes a block's instructions with the original semantic
functions but none of the per-instruction interpreter overhead: no
fetch dict lookup, no :class:`~repro.core.timing.StepTiming`
allocation, no per-retire counter writes.  Cycle and stall accounting
is flushed per *segment* from the block's precomputed prefix sums and
is bit-identical to interpreting the same instructions — including
load-use hazards across segment and block boundaries, misaligned-access
penalties, quantization-FSM stalls and trap behaviour (a fault flushes
the already-retired prefix, leaves ``pc`` on the faulting instruction,
and re-raises).

A *segment* ends where a hardware-loop back-edge can fire: loop counts
only change at a loop-end fall-through, so every interior instruction
is provably straight-line and needs no redirect check.
"""

from __future__ import annotations


def run_block(cpu, block, limit: int) -> int:
    """Execute *block* from its first instruction; returns the number of
    instructions retired (at most *limit*).  ``cpu.pc`` is left exactly
    where the interpreter would leave it."""
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
        _exec_segment(cpu, block, idx, stop)
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


def _exec_segment(cpu, block, lo: int, hi: int) -> None:
    params = cpu.timing.params
    mis_pen = params.misaligned_penalty
    pend = cpu.timing._pending_load_rd
    entry_lu = (
        params.load_use_penalty
        if pend is not None and pend != 0 and pend in block.srcs[lo]
        else 0
    )
    execs = block.execs
    instrs = block.instrs
    addrs = block.addrs
    cpu._misaligned = 0
    cpu._extra_stalls = 0
    cpu._tcdm_stalls = 0
    dyn_mis = 0
    dyn_tcdm = 0
    i = lo
    try:
        while i < hi:
            cpu.pc = addrs[i]
            execs[i](cpu, instrs[i])
            if cpu._misaligned or cpu._extra_stalls or cpu._tcdm_stalls:
                mis = cpu._misaligned * mis_pen + cpu._extra_stalls
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
        _flush(cpu, block, lo, i, entry_lu, dyn_mis, dyn_tcdm)
        raise
    _flush(cpu, block, lo, hi, entry_lu, dyn_mis, dyn_tcdm)


def _flush(cpu, block, lo: int, hi: int, entry_lu: int, dyn_mis: int,
           dyn_tcdm: int) -> None:
    if hi == lo:
        return
    perf = cpu.perf
    lu0 = block.lu[lo]
    perf.cycles += (
        block.prefix[hi] - block.prefix[lo] - lu0 + entry_lu
        + dyn_mis + dyn_tcdm
    )
    perf.instructions += hi - lo
    by_class = perf.by_class
    for cls, pref in block.cls_prefix.items():
        delta = pref[hi] - pref[lo]
        if delta:
            by_class[cls] += delta
    perf.stall_load_use += (
        block.lu_prefix[hi] - block.lu_prefix[lo] - lu0 + entry_lu)
    perf.stall_misaligned += dyn_mis
    perf.stall_tcdm_contention += dyn_tcdm
    cpu.timing._pending_load_rd = block.pending[hi - 1]
