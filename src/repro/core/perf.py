"""Performance counters for the core model.

Mirrors the event set a RI5CY-style perf-counter unit exposes: total
cycles, retired instructions, per-timing-class instruction counts, and the
stall breakdown the timing model produces.  All figures in the paper's
evaluation (Figs 6 and 8) are cycle counts read from these counters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PerfCounters:
    """Cycle / instruction / stall accounting for one simulation run."""

    cycles: int = 0
    instructions: int = 0
    by_class: Counter = field(default_factory=Counter)
    stall_load_use: int = 0
    stall_branch: int = 0
    stall_jump: int = 0
    stall_misaligned: int = 0
    #: Cycles lost arbitrating for a busy TCDM bank (cluster cores only;
    #: a standalone core never conflicts).
    stall_tcdm_contention: int = 0
    #: Cycles spent parked at an event-unit barrier waiting for the other
    #: cores.  Included in ``cycles`` (wall-clock per core) but burning no
    #: datapath activity — the energy model discounts them.
    idle_cycles: int = 0
    hwloop_backedges: int = 0

    #: Integer fields summed by :meth:`merge` / emitted by :meth:`snapshot`.
    _SCALARS = (
        "cycles", "instructions", "stall_load_use", "stall_branch",
        "stall_jump", "stall_misaligned", "stall_tcdm_contention",
        "idle_cycles", "hwloop_backedges",
    )

    def reset(self) -> None:
        for name in self._SCALARS:
            setattr(self, name, 0)
        self.by_class.clear()

    @property
    def total_stalls(self) -> int:
        return (
            self.stall_load_use
            + self.stall_branch
            + self.stall_jump
            + self.stall_misaligned
            + self.stall_tcdm_contention
        )

    @property
    def active_cycles(self) -> int:
        """Cycles the core actually clocked the datapath (not parked)."""
        return self.cycles - self.idle_cycles

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict view (stable keys) for reports and tests."""
        data = {name: getattr(self, name) for name in self._SCALARS}
        for cls, count in sorted(self.by_class.items()):
            data[f"class_{cls}"] = count
        return data

    def to_dict(self) -> Dict:
        """Full machine-readable view (JSON-friendly nested dicts)."""
        data: Dict = {name: getattr(self, name) for name in self._SCALARS}
        data["by_class"] = dict(sorted(self.by_class.items()))
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "PerfCounters":
        """Rebuild counters from :meth:`to_dict` output.

        Used by the batch-simulation service to reconstruct counters from
        cached / worker-transported JSON payloads; ``from_dict(to_dict())``
        is exact (all fields are integers).
        """
        perf = cls(**{name: int(data.get(name, 0)) for name in cls._SCALARS})
        perf.by_class = Counter({
            str(k): int(v) for k, v in data.get("by_class", {}).items()})
        return perf

    def merge(self, other: "PerfCounters", times: int = 1) -> "PerfCounters":
        """Accumulate *other* (*times* over) into self (in place) and
        return self.

        Used to aggregate per-core counters of a cluster run: every field
        sums, so the merged ``cycles`` is total core-cycles (activity, for
        the energy model), **not** wall-clock — wall-clock is the max over
        cores, which barriers make equal anyway.
        """
        for name in self._SCALARS:
            setattr(self, name,
                    getattr(self, name) + getattr(other, name) * times)
        if times == 1:
            self.by_class.update(other.by_class)
        else:
            for key, count in other.by_class.items():
                self.by_class[key] += count * times
        return self

    def copy(self) -> "PerfCounters":
        clone = PerfCounters(**{
            name: getattr(self, name) for name in self._SCALARS
        })
        clone.by_class = Counter(self.by_class)
        return clone

    def __repr__(self) -> str:
        return (
            f"PerfCounters(cycles={self.cycles}, instructions={self.instructions}, "
            f"ipc={self.ipc:.3f}, stalls={self.total_stalls})"
        )
