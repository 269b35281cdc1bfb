"""PerfCounters aggregation and serialization (what profiles are made of)."""

import json

from repro.core.perf import PerfCounters


def _counters(**kwargs) -> PerfCounters:
    perf = PerfCounters()
    for name, value in kwargs.items():
        setattr(perf, name, value)
    return perf


class TestMerge:
    def test_sums_every_scalar(self):
        a = _counters(cycles=100, instructions=80, stall_load_use=3,
                      stall_tcdm_contention=5, idle_cycles=10,
                      hwloop_backedges=7)
        b = _counters(cycles=50, instructions=40, stall_load_use=1,
                      stall_tcdm_contention=2, idle_cycles=4,
                      hwloop_backedges=3)
        result = a.merge(b)
        assert result is a  # in place, chainable
        assert a.cycles == 150
        assert a.instructions == 120
        assert a.stall_load_use == 4
        assert a.stall_tcdm_contention == 7
        assert a.idle_cycles == 14
        assert a.hwloop_backedges == 10

    def test_merges_class_and_mnemonic_counters(self):
        a = PerfCounters()
        a.by_class.update({"alu": 5, "load": 2})
        b = PerfCounters()
        b.by_class.update({"alu": 3, "mul": 1})
        a.merge(b)
        assert a.by_class == {"alu": 8, "load": 2, "mul": 1}

    def test_merge_preserves_other(self):
        a = _counters(cycles=10)
        b = _counters(cycles=7, idle_cycles=2)
        a.merge(b)
        assert b.cycles == 7 and b.idle_cycles == 2

    def test_active_cycles_after_merge(self):
        a = _counters(cycles=100, idle_cycles=20)
        a.merge(_counters(cycles=100, idle_cycles=0))
        assert a.active_cycles == 180

    def test_cluster_aggregate_uses_merge(self):
        total = PerfCounters()
        per_core = [_counters(cycles=100 + i, instructions=50)
                    for i in range(4)]
        for perf in per_core:
            total.merge(perf)
        assert total.cycles == sum(p.cycles for p in per_core)
        assert total.instructions == 200


class TestToDict:
    def test_scalars_and_nested_counters(self):
        perf = _counters(cycles=42, instructions=30,
                         stall_tcdm_contention=4, idle_cycles=6)
        perf.by_class.update({"alu": 20, "load": 10})
        data = perf.to_dict()
        assert data["cycles"] == 42
        assert data["stall_tcdm_contention"] == 4
        assert data["idle_cycles"] == 6
        assert data["by_class"] == {"alu": 20, "load": 10}

    def test_json_serializable(self):
        perf = _counters(cycles=1, instructions=1)
        perf.by_class["alu"] = 1
        round_trip = json.loads(json.dumps(perf.to_dict()))
        assert round_trip["cycles"] == 1
        assert round_trip["by_class"]["alu"] == 1

    def test_covers_every_scalar_field(self):
        data = PerfCounters().to_dict()
        for name in PerfCounters._SCALARS:
            assert name in data
