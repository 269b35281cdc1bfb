"""The block-translation execution engine.

:class:`BlockEngine` replaces the interpreter's fetch/execute loop for a
:meth:`~repro.core.cpu.Cpu.run` call.  Dispatch works at basic-block
granularity:

1. Look the current ``pc`` up in the translated-block map (process-wide
   for digest-keyed programs, per-core for ``load_from_memory`` images).
   A miss runs :func:`~repro.engine.blocks.discover` once and caches the
   result — including negative results for interpreter-only addresses.
2. If ``pc`` starts the body of an active hardware loop, dispatch all
   remaining iterations under the loop's plan (:mod:`repro.engine.nest`,
   with the batch semantics of :mod:`repro.engine.fusion`): the body is
   walked once into straight-line runs and inner loops — one run for a
   one-level loop, runs and complete ``lp0`` loops for an ``lp1`` loop
   nest — and its shape, with a plan per tuple of inner trip counts, is
   cached in the block map under the loop's start, end, level and the
   other loop's end.  Any static or dynamic decline is a *side exit*,
   recorded by reason and site, and falls through to tier A (or, for a
   body that starts with an ``lp.setup``, to the interpreter).
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
are then translated so that none crosses a region boundary (a loop
body that does side-exits), and the core's counters are charged to a
region whenever dispatch enters another one.

Statistics are plain integers during the run and are published to the
telemetry registry (``engine.*`` counters) when the run ends.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import SimError
from .blocks import GLOBAL_CACHE, Block, discover
from .fastblock import run_block
from .fusion import FUSE_MIN_ITERS, Unfusable
from .nest import execute, walk

_MISSING = object()


class EngineStats:
    """Per-engine dispatch statistics (cheap plain ints during the run)."""

    __slots__ = ("blocks_translated", "block_hits", "interp_steps",
                 "fused_dispatches", "fused_iterations",
                 "fused_instructions", "nest_dispatches", "side_exit_sites",
                 "_published")

    def __init__(self) -> None:
        self.blocks_translated = 0
        self.block_hits = 0
        self.interp_steps = 0
        self.fused_dispatches = 0
        self.fused_iterations = 0
        self.fused_instructions = 0
        #: fused dispatches that ran a two-level loop nest
        self.nest_dispatches = 0
        #: (loop body pc, reason) -> [side exits declined there, the
        #: instructions retired by the dispatches they fell back to,
        #: the pc's region name]
        self.side_exit_sites: Dict[Tuple[int, str], list] = {}
        #: The totals the last :meth:`publish` reported.
        self._published: Dict[Tuple[str, str], int] = {}

    def side_exits(self) -> Dict[str, int]:
        """Side exits per reason, summed over sites."""
        totals: Dict[str, int] = {}
        for (_, reason), (count, _, _) in self.side_exit_sites.items():
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
            "nest_dispatches": self.nest_dispatches,
            "side_exits": dict(sorted(self.side_exits().items())),
            "side_exit_sites": [
                {"pc": pc, "reason": reason, "region": region,
                 "count": count, "instructions": instructions}
                for (pc, reason), (count, instructions, region)
                in sorted(self.side_exit_sites.items())],
        }

    def publish(self) -> None:
        """Add what the stats gained since the last publish to the
        process telemetry registry (a core's engine serves all its
        runs, so the stats themselves are running totals)."""
        from ..telemetry import metrics as tmetrics

        now = {(name, ""): getattr(self, name) for name in (
            "blocks_translated", "block_hits", "interp_steps",
            "fused_dispatches", "fused_iterations", "fused_instructions",
            "nest_dispatches")}
        for reason, count in self.side_exits().items():
            now[("side_exits", reason)] = count
        for (name, reason), total in now.items():
            delta = total - self._published.get((name, reason), 0)
            if delta:
                labels = {"reason": reason} if reason else {}
                tmetrics.counter("engine." + name, **labels).inc(delta)
        self._published = now


def merge_side_exits(stats: Iterable[Optional[dict]]) -> List[dict]:
    """The ``side_exit_sites`` of several :meth:`EngineStats.as_dict`
    payloads (the cores of one run) summed per site, most instructions
    first."""
    sites: Dict[Tuple[int, str, str], List[int]] = {}
    for payload in stats:
        for site in (payload or {}).get("side_exit_sites", ()):
            key = (site["pc"], site["reason"], site["region"])
            totals = sites.setdefault(key, [0, 0])
            totals[0] += site["count"]
            totals[1] += site["instructions"]
    return [
        {"pc": pc, "reason": reason, "region": region, "count": count,
         "instructions": instructions}
        for (pc, reason, region), (count, instructions)
        in sorted(sites.items(), key=lambda item: (-item[1][1], item[0]))]


class BlockEngine:
    """Block-granular dispatcher for one :class:`Cpu`, which it is handed
    on each :meth:`run` (it keeps no reference to the core, so a core
    and its engine are freed together)."""

    def __init__(self) -> None:
        self.stats = EngineStats()
        # Fallback block map for load_from_memory images (no digest).
        self._local_map: Dict[object, object] = {}
        self._local_key: Optional[tuple] = None
        #: The side-exit site whose fallback dispatch runs next.
        self._exit_site: Optional[list] = None

    # ------------------------------------------------------------------

    def _block_map(self, cpu, regions) -> Dict[object, object]:
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

    def _side_exit(self, cpu, pc: int, reason: str) -> None:
        """Count a side exit at *pc*; the dispatch it falls back to
        reports its instructions to the site (see :meth:`run`)."""
        sites = self.stats.side_exit_sites
        site = sites.get((pc, reason))
        if site is None:
            site = sites[(pc, reason)] = [0, 0, self._region_name(cpu, pc)]
        site[0] += 1
        self._exit_site = site

    def _region_name(self, cpu, pc: int) -> str:
        """The region of *pc*: the attached profile's, else the loaded
        program's markers' (looked up once per new site)."""
        if cpu.regions is not None:
            return cpu.regions.region_of(pc)
        program = cpu._loaded_program
        regions = program.region_map() if program is not None else {}
        return regions.get(pc, "other")

    # ------------------------------------------------------------------

    def run(self, cpu, max_instructions: int):
        regions = cpu.regions
        blocks = self._block_map(cpu, regions)
        stats = self.stats
        hw = cpu.hwloops
        count = hw.count
        start = hw.start
        step = cpu.step
        imem = cpu._imem
        mem = cpu.mem
        port = mem if getattr(mem, "logs_accesses", False) else None
        executed = 0
        self._exit_site = None
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
                budget = max_instructions - executed
                if block is None:
                    # Terminator or fetch fault: one interpreter step,
                    # unless it opens an outer loop body that fuses.
                    if count[1] > 0 and pc == start[1] and count[0] == 0:
                        done = self._try_loop(cpu, blocks, pc, 1, budget,
                                              port)
                        if done:
                            executed += done
                            continue
                    step()
                    executed += 1
                    stats.interp_steps += 1
                    if self._exit_site is not None:
                        self._exit_site[1] += 1
                        self._exit_site = None
                    continue
                if regions is not None:
                    name = regions.region_of(pc)
                    if name != cpu._region:
                        cpu._enter_region(name)
                if count[0] > 0 and pc == start[0]:
                    done = self._try_loop(cpu, blocks, pc, 0, budget, port)
                elif count[1] > 0 and pc == start[1]:
                    done = self._try_loop(cpu, blocks, pc, 1, budget, port)
                else:
                    done = 0
                if done:
                    executed += done
                    continue
                done = run_block(cpu, block, budget, port)
                executed += done
                if self._exit_site is not None:
                    self._exit_site[1] += done
                    self._exit_site = None
            return cpu.perf
        finally:
            stats.publish()

    # ------------------------------------------------------------------

    def _try_loop(self, cpu, blocks, pc: int, level: int, budget: int,
                  port) -> int:
        """Dispatch all remaining iterations of the active loop *level*,
        whose body starts at *pc*, under its loop plan
        (:mod:`repro.engine.nest`); returns instructions retired (0 on
        side exit).  *port* is the access-logging memory, or None."""
        hw = cpu.hwloops
        n = hw.count[level]
        if n < FUSE_MIN_ITERS:
            return 0
        other = 1 - level
        other_end = hw.end[other] if hw.count[other] > 0 else None
        key = (pc, hw.end[level], level, other_end)
        shape = blocks.get(key)
        if shape is None:
            regions = cpu.regions

            def block_at(addr: int) -> Optional[Block]:
                block = blocks.get(addr, _MISSING)
                if block is _MISSING:
                    block = blocks[addr] = discover(cpu._imem, addr, regions)
                    if block is not None:
                        self.stats.blocks_translated += 1
                return block

            try:
                shape = walk(cpu._imem, pc, hw.end[level], level, other_end,
                             block_at, regions)
            except Unfusable as declined:
                shape = declined.reason
            blocks[key] = shape
        if isinstance(shape, str):
            self._side_exit(cpu, pc, shape)
            return 0
        trips = shape.trips(cpu.regs)
        if n * shape.instructions(trips) > budget:
            self._side_exit(cpu, pc, "budget")
            return 0
        plan = shape.plan(trips)
        if isinstance(plan, str):
            self._side_exit(cpu, pc, plan)
            return 0
        if cpu.regions is not None:
            name = cpu.regions.region_of(pc)
            if name != cpu._region:
                cpu._enter_region(name)
        try:
            retired = execute(cpu, plan, level, port)
        except Unfusable as declined:
            self._side_exit(cpu, pc, declined.reason)
            return 0
        stats = self.stats
        stats.fused_dispatches += 1
        if plan.inner_loop is not None:
            stats.nest_dispatches += 1
        stats.fused_iterations += n
        stats.fused_instructions += retired
        return retired
