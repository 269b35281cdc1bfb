"""PerfCounters arithmetic: merge/copy edge cases."""

from collections import Counter

from repro.core.perf import PerfCounters


def _sample(**overrides):
    perf = PerfCounters(cycles=100, instructions=80, stall_load_use=5,
                        stall_branch=3, idle_cycles=10, hwloop_backedges=2)
    perf.by_class.update({"alu": 60, "load": 20})
    for name, value in overrides.items():
        setattr(perf, name, value)
    return perf


class TestMerge:
    def test_merge_empty_is_identity(self):
        perf = _sample()
        snapshot = perf.snapshot()
        perf.merge(PerfCounters())
        assert perf.snapshot() == snapshot

    def test_merge_into_empty_copies_everything(self):
        merged = PerfCounters().merge(_sample())
        assert merged.cycles == 100
        assert merged.by_class["alu"] == 60
        assert merged.hwloop_backedges == 2

    def test_merge_sums_idle_and_stalls(self):
        a = _sample()
        b = _sample(idle_cycles=40, stall_load_use=1)
        a.merge(b)
        assert a.cycles == 200
        assert a.idle_cycles == 50
        assert a.stall_load_use == 6
        assert a.active_cycles == 200 - 50
        assert a.by_class["alu"] == 120

    def test_merge_returns_self(self):
        a = PerfCounters()
        assert a.merge(_sample()) is a


class TestCopy:
    def test_copy_is_deep_for_counters(self):
        perf = _sample()
        clone = perf.copy()
        clone.by_class["alu"] += 1
        clone.cycles += 5
        assert perf.by_class["alu"] == 60
        assert perf.cycles == 100

    def test_copy_of_empty(self):
        clone = PerfCounters().copy()
        assert clone.cycles == 0
        assert clone.by_class == Counter()
        assert clone.ipc == 0.0

    def test_reset_clears_everything(self):
        perf = _sample()
        perf.reset()
        assert perf.snapshot() == PerfCounters().snapshot()
        assert perf.by_class == Counter()
