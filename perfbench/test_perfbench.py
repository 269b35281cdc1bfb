"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import numpy as np
import pytest

import probes
import run
import workloads
from probes import Recorder, Span, self_times, union_length


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("outer", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),       # overlaps a
        Span("c", 8.0, 12.0, 0, 0),      # runs past its parent: clipped
        Span("leaf", 2.5, 3.5, 2, 0),    # grandchild: only b loses it
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 4 - 2)
    assert own[1] == pytest.approx(2)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(4)
    assert own[4] == pytest.approx(1)
    assert union_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == \
        pytest.approx(3)


def test_recorder_self_times_add_up_to_the_top_level_span():
    rec = Recorder()
    outer = rec.enter("explore.run")
    inner = rec.enter("analysis.cost")
    rec.leave(rec.enter("kernels.build"))
    rec.leave(inner)
    rec.leave(outer)
    own = rec.self_time_by_layer()
    assert sum(own.values()) == pytest.approx(rec.covered())
    assert rec.spans[inner].parent == outer


@pytest.mark.parametrize("n", [12, 14, 21, 45, 99])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    values = list(range(n))
    q = run.tail_level(n)
    cut = run.percentile(values, q)
    assert sum(v > cut for v in values) == 10
    # One step higher would leave fewer than ten beyond.
    assert run.percentile(values, q + 1 / (n - 1)) == n - 10


def test_tail_percentile_is_p90_from_100_samples():
    assert run.tail_level(100) == 0.9
    assert run.tail_level(500) == 0.9
    values = list(range(100))
    assert sum(v > run.percentile(values, 0.9) for v in values) >= 10
    assert run.tail_level(5) == 0.5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    make = workloads.WORKLOADS[name]
    first, again, other = make(7), make(7), make(8)
    try:
        assert first.digest() == again.digest()
        assert first.digest() != other.digest()
    finally:
        for wl in (first, again, other):
            wl.close()


def test_seeds_keep_the_amount_of_work():
    a, b = workloads.KernelMatrix(1), workloads.KernelMatrix(2)
    key = [(g.in_ch, g.out_ch, g.in_h * g.in_w, bits, isa, quant)
           for g, bits, isa, quant, _, _ in a.specs]
    assert sorted(key) == sorted(
        (g.in_ch, g.out_ch, g.in_h * g.in_w, bits, isa, quant)
        for g, bits, isa, quant, _, _ in b.specs)


def _tiny_conv(engine):
    from repro.qnn import ConvGeometry, random_activations, random_weights
    from repro.target.names import XPULPNN

    rng = np.random.default_rng(3)
    g = ConvGeometry(4, 4, 16, 8, pad=1)
    w = random_weights((8, 3, 3, 16), 8, rng)
    a = random_activations((4, 4, 16), 8, rng)
    return workloads.run_conv(g, 8, XPULPNN, "shift", w, a, engine=engine)


def test_corrupted_golden_counts_as_a_failed_op(monkeypatch):
    import repro.qnn

    op = workloads.Op("conv", lambda: _tiny_conv("block"))
    good = run.run_ops([op], traced=False)
    assert run.count_failures([good], good, "plain") == 0

    original = repro.qnn.conv2d_golden

    def corrupted(*args, **kwargs):
        return -original(*args, **kwargs)

    monkeypatch.setattr(repro.qnn, "conv2d_golden", corrupted)
    bad = run.run_ops([op], traced=False)
    assert not bad.results[0].ok
    assert run.count_failures([bad], good, "plain") == 1


def test_reference_speed_cancels_host_slowdown():
    res = [workloads.OpResult(10, 5, True)] * 2
    ref = run.REFERENCE_S
    fast = run.Round(3.0, [1.0, 2.0], res, ["a", "b"], refs=[ref] * 3)
    # Twice as slow around both ops: each op is scaled by the mean of the
    # loop times right before and after it.
    slow = run.Round(6.0, [2.0, 4.0], res, ["a", "b"],
                     refs=[ref, 3 * ref, ref])
    assert run.reference_round([fast]) == pytest.approx(3.0)
    assert run.reference_round([slow]) == pytest.approx(3.0)
    # Per op, the median over the rounds.
    odd = run.Round(9.0, [3.0, 6.0], res, ["a", "b"], refs=[ref] * 3)
    assert run.reference_round([fast, slow, odd]) == pytest.approx(3.0)


def test_drifting_simulated_counts_fail_the_round():
    good = run.Round(1.0, [1.0], [workloads.OpResult(10, 5, True)], ["op"])
    drift = run.Round(1.0, [1.0], [workloads.OpResult(11, 5, True)], ["op"])
    assert run.count_failures([good, drift], good, "plain") == 1


def test_kernel_matrix_cycles_match_between_engines():
    from repro.engine.blocks import GLOBAL_CACHE
    from repro.eval.workloads import SUITE_CONFIGS
    from repro.qnn import ConvGeometry, random_activations, random_weights

    g = ConvGeometry(*workloads.SMALL_GEOMETRY, pad=1)
    for bits, isa, quant in SUITE_CONFIGS:
        rng = np.random.default_rng(bits)
        w = random_weights((g.out_ch, 3, 3, g.in_ch), bits, rng)
        a = random_activations((g.in_h, g.in_w, g.in_ch), bits, rng)
        interp = workloads.run_conv(g, bits, isa, quant, w, a, "interp")
        GLOBAL_CACHE.clear()
        block = workloads.run_conv(g, bits, isa, quant, w, a, "block")
        assert interp.ok and block.ok
        assert (interp.sim_cycles, interp.sim_instructions) == \
            (block.sim_cycles, block.sim_instructions)
        assert block.counts["blocks_translated"] > 0


def test_probes_record_layers_and_restore_the_program():
    import repro.qnn
    from repro.core.cpu import Cpu

    probes.import_program()
    before = (Cpu.run, repro.qnn.conv2d_golden)
    rec = Recorder()
    with probes.Probes(rec):
        result = _tiny_conv("block")
    assert (Cpu.run, repro.qnn.conv2d_golden) == before
    assert result.ok
    own = rec.self_time_by_layer()
    assert own["core.run"] > 0 and own["kernels.build"] > 0
    assert rec.counts["core.sim_instructions"] == result.sim_instructions
    assert rec.counts["engine.blocks_translated"] == \
        result.counts["blocks_translated"]
