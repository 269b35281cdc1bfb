"""Banked TCDM: word interleaving and per-cycle conflict accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Tcdm
from repro.errors import MemoryAccessError
from repro.soc.memmap import TCDM_BASE, TCDM_SIZE


@pytest.fixture
def tcdm():
    return Tcdm(num_banks=16)


class TestBankMapping:
    def test_word_interleaved(self, tcdm):
        assert tcdm.bank_of(TCDM_BASE) == 0
        assert tcdm.bank_of(TCDM_BASE + 4) == 1
        assert tcdm.bank_of(TCDM_BASE + 60) == 15
        assert tcdm.bank_of(TCDM_BASE + 64) == 0

    def test_sub_word_accesses_share_bank(self, tcdm):
        # All four bytes of a word live in the same bank.
        for offset in range(4):
            assert tcdm.bank_of(TCDM_BASE + offset) == 0

    def test_contains(self, tcdm):
        assert tcdm.contains(TCDM_BASE, 4)
        assert tcdm.contains(TCDM_BASE + tcdm.size - 4, 4)
        assert not tcdm.contains(TCDM_BASE + tcdm.size, 4)
        assert not tcdm.contains(TCDM_BASE - 4, 4)


class TestConflictAccounting:
    def test_distinct_banks_no_stall(self, tcdm):
        for i in range(16):
            stall, grant = tcdm.access(TCDM_BASE + 4 * i, when=100)
            assert stall == 0 and grant == 100
        assert tcdm.conflicts == 0

    def test_same_bank_same_cycle_serializes(self, tcdm):
        addr = TCDM_BASE + 4
        s0, g0 = tcdm.access(addr, when=100)
        s1, g1 = tcdm.access(addr, when=100)
        s2, g2 = tcdm.access(addr, when=100)
        assert (s0, g0) == (0, 100)
        assert (s1, g1) == (1, 101)
        assert (s2, g2) == (2, 102)
        assert tcdm.conflicts == 2
        assert tcdm.conflict_cycles == 3

    def test_bank_frees_next_cycle(self, tcdm):
        addr = TCDM_BASE
        tcdm.access(addr, when=100)
        stall, grant = tcdm.access(addr, when=101)
        assert stall == 0 and grant == 101
        assert tcdm.conflicts == 0

    def test_same_bank_different_words_conflict(self, tcdm):
        # Two words 64 B apart map to the same bank (16 banks).
        tcdm.access(TCDM_BASE, when=50)
        stall, _ = tcdm.access(TCDM_BASE + 64, when=50)
        assert stall == 1
        assert tcdm.conflicts_by_bank[0] == 1

    def test_conflict_rate(self, tcdm):
        tcdm.access(TCDM_BASE, when=0)
        tcdm.access(TCDM_BASE, when=0)
        assert tcdm.accesses == 2
        assert tcdm.conflict_rate == pytest.approx(0.5)

    def test_reset_timing_keeps_contents(self, tcdm):
        tcdm.mem.store(TCDM_BASE, 4, 0xDEADBEEF)
        tcdm.access(TCDM_BASE, when=0)
        tcdm.access(TCDM_BASE, when=0)
        tcdm.reset_timing()
        assert tcdm.accesses == 0 and tcdm.conflicts == 0
        assert tcdm.mem.load(TCDM_BASE, 4) == 0xDEADBEEF
        stall, _ = tcdm.access(TCDM_BASE, when=0)
        assert stall == 0


class TestCorePort:
    """A core's port reads and writes the TCDM bytes directly; it must
    agree with the untimed :class:`~repro.soc.memory.Memory` view."""

    @settings(max_examples=200, deadline=None)
    @given(offset=st.one_of(st.integers(0, TCDM_SIZE - 4),
                            st.integers(TCDM_SIZE - 4, TCDM_SIZE - 1)),
           size=st.sampled_from((1, 2, 4)), signed=st.booleans(),
           value=st.integers(0, 0xFFFF_FFFF))
    def test_port_matches_memory(self, offset, size, signed, value):
        from repro.cluster import Cluster

        cluster = Cluster(num_cores=2)
        port = cluster.cores[1].mem
        addr = TCDM_BASE + offset
        if offset + size > TCDM_SIZE:
            with pytest.raises(MemoryAccessError):
                port.store(addr, size, value)
            assert cluster.tcdm.accesses == 0
            return
        port.store(addr, size, value)
        assert port.load(addr, size, signed) == cluster.tcdm.mem.load(
            addr, size, signed)
        cluster.tcdm.mem.store(addr, size, ~value)
        assert port.load(addr, size, signed) == cluster.tcdm.mem.load(
            addr, size, signed)
        assert cluster.tcdm.accesses == 3
