"""The block-translation execution engine.

:class:`BlockEngine` replaces the interpreter's fetch/execute loop for a
:meth:`~repro.core.cpu.Cpu.run` call.  Dispatch works at basic-block
granularity:

1. Look the current ``pc`` up in the translated-block map (process-wide
   for digest-keyed programs, per-core for ``load_from_memory`` images).
   A miss runs :func:`~repro.engine.blocks.discover` once and caches the
   result — including negative results for interpreter-only addresses.
2. If ``pc`` starts the body of an active hardware loop, attempt a
   fused dispatch: compile (once, cached on the block) and execute all
   remaining iterations as one vectorized superinstruction
   (:mod:`repro.engine.fusion`).  Any static or dynamic decline is a
   *side exit*, recorded by reason, and falls through to tier A.
3. Otherwise run the block instruction-at-a-time from its flat tables
   (:mod:`repro.engine.fastblock`).
4. Terminators (branches, jumps, ``lp.*`` setup, CSR, system) always
   execute on the unmodified interpreter ``step()``.

The engine is only engaged when nothing can observe intermediate state:
no tracer attached and a plain (uncontended) memory, or a memory that
logs every data access for a later arbitration replay.  A cluster runs
each core's epoch that way (:mod:`repro.cluster.replay`): tier A and the
interpreter steps log each access with its stall-free issue clock, a
fused loop logs all of its iterations' accesses as arrays, and the
cluster then replays the TCDM bank arbitration over the logs.  A region
profile
(:class:`~repro.core.regions.RegionCounters`) keeps the engine on: blocks
are then translated so that none crosses a region boundary (a fused body
is a block prefix, so neither does it), and the core's counters are
charged to a region whenever dispatch enters another one.

Statistics are plain integers during the run and are published to the
telemetry registry (``engine.*`` counters) when the run ends.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import SimError
from .blocks import GLOBAL_CACHE, Block, discover
from .fastblock import run_block

_MISSING = object()


class EngineStats:
    """Per-engine dispatch statistics (cheap plain ints during the run)."""

    __slots__ = ("blocks_translated", "block_hits", "interp_steps",
                 "fused_dispatches", "fused_iterations",
                 "fused_instructions", "side_exit_sites", "_published")

    def __init__(self) -> None:
        self.blocks_translated = 0
        self.block_hits = 0
        self.interp_steps = 0
        self.fused_dispatches = 0
        self.fused_iterations = 0
        self.fused_instructions = 0
        #: (loop body pc, reason) -> side exits declined there
        self.side_exit_sites: Dict[Tuple[int, str], int] = {}
        #: The totals the last :meth:`publish` reported.
        self._published: Dict[Tuple[str, str], int] = {}

    def side_exit(self, pc: int, reason: str) -> None:
        key = (pc, reason)
        self.side_exit_sites[key] = self.side_exit_sites.get(key, 0) + 1

    def side_exits(self) -> Dict[str, int]:
        """Side exits per reason, summed over sites."""
        totals: Dict[str, int] = {}
        for (_, reason), count in self.side_exit_sites.items():
            totals[reason] = totals.get(reason, 0) + count
        return totals

    def as_dict(self) -> dict:
        return {
            "blocks_translated": self.blocks_translated,
            "block_hits": self.block_hits,
            "interp_steps": self.interp_steps,
            "fused_dispatches": self.fused_dispatches,
            "fused_iterations": self.fused_iterations,
            "fused_instructions": self.fused_instructions,
            "side_exits": dict(sorted(self.side_exits().items())),
            "side_exit_sites": [
                {"pc": pc, "reason": reason, "count": count}
                for (pc, reason), count
                in sorted(self.side_exit_sites.items())],
        }

    def publish(self) -> None:
        """Add what the stats gained since the last publish to the
        process telemetry registry (a core's engine serves all its
        runs, so the stats themselves are running totals)."""
        from ..telemetry import metrics as tmetrics

        now = {(name, ""): getattr(self, name) for name in (
            "blocks_translated", "block_hits", "interp_steps",
            "fused_dispatches", "fused_iterations", "fused_instructions")}
        for reason, count in self.side_exits().items():
            now[("side_exits", reason)] = count
        for (name, reason), total in now.items():
            delta = total - self._published.get((name, reason), 0)
            if delta:
                labels = {"reason": reason} if reason else {}
                tmetrics.counter("engine." + name, **labels).inc(delta)
        self._published = now


class BlockEngine:
    """Block-granular dispatcher bound to one :class:`Cpu`."""

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.stats = EngineStats()
        # Fallback block map for load_from_memory images (no digest).
        self._local_map: Dict[int, Optional[Block]] = {}
        self._local_key: Optional[tuple] = None

    # ------------------------------------------------------------------

    def _block_map(self, regions) -> Dict[int, Optional[Block]]:
        cpu = self.cpu
        partition = regions.key if regions is not None else None
        program = cpu._loaded_program
        if program is not None:
            digest = cpu._block_digest
            if digest is None:
                digest = cpu._block_digest = program.digest()
            key = (digest, cpu.isa.name)
            if partition is not None:
                key += (partition,)
            return GLOBAL_CACHE.map_for(key)
        local_key = (cpu._imem_version, partition)
        if self._local_key != local_key:
            self._local_map = {}
            self._local_key = local_key
        return self._local_map

    # ------------------------------------------------------------------

    def run(self, max_instructions: int):
        cpu = self.cpu
        regions = cpu.regions
        blocks = self._block_map(regions)
        stats = self.stats
        hw = cpu.hwloops
        count = hw.count
        start = hw.start
        step = cpu.step
        imem = cpu._imem
        mem = cpu.mem
        port = mem if getattr(mem, "logs_accesses", False) else None
        executed = 0
        try:
            while cpu._halted is None:
                if executed >= max_instructions:
                    raise SimError(
                        f"program did not halt within {max_instructions} "
                        f"instructions (pc={cpu.pc:#010x})"
                    )
                pc = cpu.pc
                block = blocks.get(pc, _MISSING)
                if block is _MISSING:
                    block = discover(imem, pc, regions)
                    blocks[pc] = block
                    if block is not None:
                        stats.blocks_translated += 1
                elif block is not None:
                    stats.block_hits += 1
                if block is None:
                    # Terminator or fetch fault: one interpreter step.
                    step()
                    executed += 1
                    stats.interp_steps += 1
                    continue
                if regions is not None:
                    name = regions.region_of(pc)
                    if name != cpu._region:
                        cpu._enter_region(name)
                budget = max_instructions - executed
                if count[0] > 0 and pc == start[0]:
                    done = self._try_fused(block, 0, budget, port)
                elif count[1] > 0 and pc == start[1]:
                    done = self._try_fused(block, 1, budget, port)
                else:
                    done = 0
                if done:
                    executed += done
                    continue
                executed += run_block(cpu, block, budget, port)
            return cpu.perf
        finally:
            stats.publish()

    # ------------------------------------------------------------------

    def _try_fused(self, block: Block, level: int, budget: int,
                   port) -> int:
        """Dispatch all remaining iterations of loop *level* as one fused
        superinstruction; returns instructions retired (0 on side exit).
        *port* is the access-logging memory, or None."""
        from .fusion import FUSE_MIN_ITERS, Unfusable, compile_plan, \
            execute_plan

        cpu = self.cpu
        hw = cpu.hwloops
        stats = self.stats
        n = hw.count[level]
        if n < FUSE_MIN_ITERS:
            return 0
        end = hw.end[level]
        j = block.ft_index.get(end, -1)
        if j < 0:
            # The loop body is not a prefix of this block (the end
            # address never falls through from one of our instructions).
            stats.side_exit(block.addr, "loop-shape")
            return 0
        other = 1 - level
        if hw.count[other] > 0:
            jo = block.ft_index.get(hw.end[other], -1)
            if 0 <= jo < j or (jo == j and level == 1):
                # The other loop's back-edge would fire inside (or, for
                # level 1 sharing the end address, *instead of* — level 0
                # has redirect priority) this loop's body.
                stats.side_exit(block.addr, "nested-loop-end")
                return 0
        body_len = j + 1
        if n * body_len > budget:
            stats.side_exit(block.addr, "budget")
            return 0
        plan = block.fused.get(end)
        if plan is None:
            try:
                plan = compile_plan(block, body_len)
            except Unfusable as declined:
                plan = declined.reason
            block.fused[end] = plan
        if isinstance(plan, str):
            stats.side_exit(block.addr, plan)
            return 0
        try:
            retired = execute_plan(cpu, plan, level, port)
        except Unfusable as declined:
            stats.side_exit(block.addr, declined.reason)
            return 0
        stats.fused_dispatches += 1
        stats.fused_iterations += n
        stats.fused_instructions += retired
        return retired
