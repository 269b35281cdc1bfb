"""Cluster event unit: hardware barriers and core parking.

The PULP event unit gives the cluster cheap synchronization: a core that
reads the barrier register signals arrival and is *parked* — its clock
stops, it burns no active cycles — until every core of the cluster has
arrived, at which point all waiters release in the same cycle.  The
scheduler in :mod:`repro.cluster.cluster` does the clock bookkeeping;
this class tracks arrivals and hands out release decisions.

Parked time lands in the per-core ``idle_cycles`` counter, which the
energy model uses to discount datapath activity (an idle core costs only
leakage).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import SimError


class EventUnit:
    """Arrival bookkeeping for an all-cores hardware barrier."""

    def __init__(self, num_cores: int) -> None:
        if num_cores <= 0:
            raise SimError("event unit needs at least one core")
        self.num_cores = num_cores
        #: core id -> local cycle count at arrival, for the open barrier.
        self._arrivals: Dict[int, int] = {}
        #: Set by a memory port during a load of EU_BARRIER_WAIT; the
        #: scheduler collects it right after the instruction retires.
        self.pending_arrival: Optional[int] = None
        self.barriers_completed = 0

    def reset(self) -> None:
        """Forget every arrival and the completed-barrier count (a run
        that raised may leave an open barrier behind)."""
        self._arrivals = {}
        self.pending_arrival = None
        self.barriers_completed = 0

    # -- memory-port side ------------------------------------------------

    def signal_arrival(self, core_id: int) -> None:
        """Called by core *core_id*'s port while it executes the barrier
        load; the scheduler parks the core once the instruction retires."""
        if self.pending_arrival is not None:
            raise SimError("two cores arrived within one scheduler step")
        self.pending_arrival = core_id

    def take_pending_arrival(self) -> Optional[int]:
        core = self.pending_arrival
        self.pending_arrival = None
        return core

    # -- scheduler side --------------------------------------------------

    def arrive(self, core_id: int, when: int) -> bool:
        """Record arrival at local time *when*; True when all cores are in."""
        if core_id in self._arrivals:
            raise SimError(f"core {core_id} arrived at the barrier twice")
        self._arrivals[core_id] = when
        return len(self._arrivals) == self.num_cores

    @property
    def waiting(self) -> List[int]:
        return sorted(self._arrivals)

    def release(self) -> Dict[int, int]:
        """Close the barrier; returns the arrival times it collected."""
        if len(self._arrivals) != self.num_cores:
            raise SimError("barrier released before all cores arrived")
        arrivals = self._arrivals
        self._arrivals = {}
        self.barriers_completed += 1
        return arrivals

    @property
    def release_time(self) -> int:
        """Cycle at which the open barrier would release (last arrival)."""
        if not self._arrivals:
            raise SimError("no open barrier")
        return max(self._arrivals.values())
