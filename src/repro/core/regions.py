"""Per-region performance counters: the simulator's one profiler.

A :class:`RegionCounters` table pairs a program's pc -> region-name map
with one :class:`~repro.core.perf.PerfCounters` per region.  Attach it
to a core (``cpu.regions = RegionCounters(program=...)``) or a cluster
(``cluster.regions = ...``) and every run charges each region what
retires in it, so the per-region counters sum exactly to the core's
counters after every retire.

The table only observes: a program is translated and run the same way
whether or not one is attached.  Every retire path charges its region
directly, with the numbers it charges the core: the interpreter
(``Cpu.step``) each instruction, the block engine a translated block's
segments, split where the table's map changes region
(:mod:`repro.engine.fastblock`), and a loop plan's one walk, whose
one-region case is the core's own counters (:mod:`repro.engine.nest`).
The engine keeps what it derives from a translation under this map in
:attr:`RegionCounters.memo`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .perf import PerfCounters


class RegionCounters:
    """Named :class:`PerfCounters` accumulators, one per region.

    *region_map* (address -> name) defaults to the *program*'s
    :meth:`~repro.asm.program.Program.region_map`; unmarked addresses
    land in *default_region*.  On a cluster, parked barrier time is
    charged to a ``barrier`` region.
    """

    def __init__(
        self,
        program=None,
        region_map: Optional[Dict[int, str]] = None,
        default_region: str = "other",
    ) -> None:
        if region_map is None:
            region_map = program.region_map() if program is not None else {}
        self.map: Dict[int, str] = dict(region_map)
        self.default_region = default_region
        #: What the block engine derives from a translated block or loop
        #: plan under this map (a block's region cuts, keyed by the
        #: block; a plan's walk, by the plan and its entering load).
        self.memo: Dict[object, object] = {}
        self._counters: Dict[str, PerfCounters] = {}
        self._order: List[str] = []

    def region_of(self, addr: int) -> str:
        return self.map.get(addr, self.default_region)

    def counters_for(self, name: str) -> PerfCounters:
        """The accumulator for *name*, created on first use."""
        if name not in self._counters:
            self._counters[name] = PerfCounters()
            self._order.append(name)
        return self._counters[name]

    def checkpoint(self) -> tuple:
        """Every region's counters and the first-entered order, for
        :meth:`restore`."""
        return ({name: perf.copy() for name, perf in self._counters.items()},
                list(self._order))

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`checkpoint`: regions first entered since are
        dropped, the others' counters restored in place."""
        counters, order = state
        for name in self._order[len(order):]:
            del self._counters[name]
        self._order = list(order)
        for name, saved in counters.items():
            perf = self._counters[name]
            perf.reset()
            perf.merge(saved)

    def reorder_since(self, start: int, key) -> None:
        """Sort the regions first entered after the first *start* by
        *key* (a cluster replaying an epoch learns the global order of
        first entries only after every core has run)."""
        self._order[start:] = sorted(self._order[start:], key=key)

    @property
    def regions(self) -> List[str]:
        """Region names in first-entered order."""
        return list(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __getitem__(self, name: str) -> PerfCounters:
        return self._counters[name]

    def total(self) -> PerfCounters:
        """All regions merged."""
        merged = PerfCounters()
        for name in self._order:
            merged.merge(self._counters[name])
        return merged

    def share(self, name: str) -> float:
        """Region cycles as a fraction of all attributed cycles."""
        total = self.total().cycles
        if not total or name not in self._counters:
            return 0.0
        return self._counters[name].cycles / total

    def rows(self):
        """(name, counters, share) per region, largest share first."""
        total = self.total().cycles or 1
        ordered = sorted(
            self._order, key=lambda n: -self._counters[n].cycles)
        return [
            (name, self._counters[name], self._counters[name].cycles / total)
            for name in ordered
        ]

    def to_dict(self) -> Dict[str, dict]:
        payload: Dict[str, dict] = {}
        for name, perf, share in self.rows():
            stalls = {
                "load_use": perf.stall_load_use,
                "branch": perf.stall_branch,
                "jump": perf.stall_jump,
                "misaligned": perf.stall_misaligned,
                "tcdm": perf.stall_tcdm_contention,
            }
            payload[name] = {
                "cycles": perf.cycles,
                "share": share,
                "instructions": perf.instructions,
                "ipc": perf.ipc,
                "stalls": stalls,
                "idle_cycles": perf.idle_cycles,
            }
        return payload

    def render(self, title: str = "") -> str:
        """Fixed-width per-region table (cycles, share, IPC, stalls)."""
        from ..eval.reporting import format_table

        rows = []
        for name, perf, share in self.rows():
            rows.append((
                name, perf.cycles, f"{100 * share:.1f}%",
                perf.instructions, f"{perf.ipc:.3f}",
                perf.stall_load_use, perf.stall_branch + perf.stall_jump,
                perf.stall_misaligned, perf.stall_tcdm_contention,
                perf.idle_cycles,
            ))
        total = self.total()
        rows.append((
            "TOTAL", total.cycles, "100.0%", total.instructions,
            f"{total.ipc:.3f}", total.stall_load_use,
            total.stall_branch + total.stall_jump, total.stall_misaligned,
            total.stall_tcdm_contention, total.idle_cycles,
        ))
        headers = ("region", "cycles", "share", "instrs", "ipc",
                   "ld-use", "ctrl", "unit", "tcdm", "idle")
        return format_table(headers, rows, title=title)
