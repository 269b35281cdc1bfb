"""Epoch replay: when it runs, why it declines or rolls back, and
differential runs of compiled tiles against the min-clock stepper.

Random programs are held to the reference in
``tests/cluster/test_scheduler_parity.py``; here every rollback reason
is forced once, and whole deployments check every ``Cluster.run`` they
make.
"""

import contextlib
import io

import numpy as np
import pytest

from repro.asm import assemble
from repro.asm.program import Program
from repro.cluster import Cluster
from repro.soc.memmap import (
    DMA_STATUS,
    EU_BARRIER_WAIT,
    EU_NUM_CORES,
    L2_BASE,
    TCDM_BASE,
)
from repro.telemetry import MetricsRegistry, use_registry
from tests.cluster.oracle import (cluster_state, min_clock_run, run_both,
                                  run_one)

SHARED = TCDM_BASE + 0x1000
BARRIER = [f"li t0, {EU_BARRIER_WAIT:#x}", "lw t1, 0(t0)"]
#: Each core stores its hart id to its own word.
PRIVATE_STORE = ["csrr s11, 0xF14", "slli t1, s11, 2", f"li t2, {SHARED:#x}",
                 "add t2, t2, t1", "sw s11, 0(t2)"]


def _program(lines):
    return assemble("\n".join(lines) + "\n", isa="xpulpnn", base=TCDM_BASE)


def test_run_program_digests_once(monkeypatch):
    """The digest keying the translated blocks is computed once per
    cluster load, not once per core, and a compiled network's executor
    digests each layer kernel once, not once per tile."""
    from repro.compiler import NetworkCompiler, PlanExecutor, build_network

    calls = []
    digest = Program.digest

    def counting(self):
        calls.append(self)
        return digest(self)

    monkeypatch.setattr(Program, "digest", counting)
    run = Cluster(num_cores=8).run_program(
        _program(PRIVATE_STORE + BARRIER + ["ebreak"]))
    assert len(calls) == 1
    assert run.detail["replayed_epochs"] == 2

    built = build_network("mixed3")
    compiled = NetworkCompiler(
        built.network, built.input_shape, input_bits=built.input_bits,
        num_cores=8, tcdm_budget=built.tcdm_budget).compile()
    calls.clear()
    result = PlanExecutor(compiled).run(built.input)
    assert result.verified
    tiles = sum(layer.tiles for layer in result.layers)
    assert 0 < len(calls) < tiles
    assert len(calls) == len({id(program) for program in calls})


def test_detail_and_telemetry_count_epochs():
    program = _program(PRIVATE_STORE + BARRIER + BARRIER + ["ebreak"])
    with use_registry(MetricsRegistry()) as registry:
        run = Cluster(num_cores=4).run_program(program)
    assert run.detail == {"replayed_epochs": 3, "rolled_back_epochs": 0}
    assert registry.counter("cluster.replay.replayed_epochs").value == 3
    assert registry.counter_total("cluster.replay.rolled_back_epochs") == 0


class TestDecline:
    def test_tracer(self):
        from repro.trace.tracer import EventTracer

        program = _program(PRIVATE_STORE + ["ebreak"])
        cluster = Cluster(num_cores=2)
        cluster.attach_tracer(EventTracer(program=program))
        run = cluster.run_program(program)
        assert run.detail == {"replayed_epochs": 0, "rolled_back_epochs": 0,
                              "declined.tracer": 1}

    def test_race_recorder(self):
        cluster = Cluster(num_cores=2)
        cluster.enable_access_trace()
        run = cluster.run_program(_program(PRIVATE_STORE + ["ebreak"]))
        assert run.detail["declined.access_trace"] == 1
        assert run.detail["replayed_epochs"] == 0


#: One program per rollback reason; each must leave the reference's state.
ROLLBACKS = {
    "race": ["csrr s11, 0xF14", f"li t2, {SHARED:#x}", "sw s11, 0(t2)"],
    "l2": [f"li t0, {L2_BASE:#x}", "lw a0, 0(t0)"],
    "dma": [f"li t0, {DMA_STATUS:#x}", "lw a0, 0(t0)"],
    "peripheral": [f"li t0, {EU_NUM_CORES:#x}", "lw a0, 0(t0)"],
    "reads-cycle": ["csrr a0, 0xB00"],
    "trap": ["li t0, 0x40", "lw a0, 0(t0)"],
    # Hart 0 halts while the others wait at the barrier: a deadlock.
    "barrier": ["csrr s11, 0xF14", "beqz s11, out", *BARRIER, "out:"],
}


@pytest.mark.parametrize("reason", sorted(ROLLBACKS))
def test_rollback_reason_matches_reference(reason):
    """The epoch before the barrier replays; the one after it rolls back
    for *reason* and the scheduler runs it (raising, for a trap or a
    deadlock, what the reference raises)."""
    lines = PRIVATE_STORE + BARRIER + ROLLBACKS[reason] + ["ebreak"]
    state = run_both(_program(lines), num_cores=4, race_trace=False)
    detail = state["detail"] or {}
    if reason in ("trap", "barrier"):
        assert state["error"] is not None
    else:
        assert state["error"] is None
        assert detail == {"replayed_epochs": 1, "rolled_back_epochs": 1,
                          "rolled_back." + reason: 1}


def test_budget_rollback_matches_reference():
    """Running out of budget rolls back, and the scheduler trips on the
    same count as the reference (which core ran how far is not compared,
    as in ``test_budget_exhaustion_matches``)."""
    program = _program(PRIVATE_STORE + ["spin:", "j spin"])
    kw = dict(num_cores=3, setup=None, max_instructions=500, profile=False,
              race_trace=False)
    got = run_one(program, Cluster.run, **kw)["error"]
    assert got == run_one(program, min_clock_run, **kw)["error"]
    assert got == ("SimError", "cluster exceeded 500 instructions "
                   "(likely a spin without progress)")


def test_spin_on_a_flag_another_core_sets_rolls_back():
    """Core 0 spins until core 1 sets a flag.  Run alone, core 0 would
    spin out the budget; its slice ends, core 1 sets the flag, and the
    race check sends the epoch to the scheduler."""
    lines = ["csrr s11, 0xF14", f"li s0, {SHARED:#x}", "bnez s11, set",
             "wait:", "lw t0, 0(s0)", "beqz t0, wait", "ebreak",
             "set:", *["addi a0, a0, 1"] * 20, "li t1, 1", "sw t1, 0(s0)",
             "ebreak"]
    state = run_both(_program(lines), num_cores=2, race_trace=False)
    assert state["error"] is None
    assert state["detail"] == {"replayed_epochs": 0, "rolled_back_epochs": 1,
                               "rolled_back.race": 1}


def test_long_epoch_rolls_back(monkeypatch):
    """An epoch logging more accesses than the replay keeps in memory
    goes to the scheduler."""
    from repro.cluster import replay

    monkeypatch.setattr(replay, "MAX_LOGGED", 4)
    lines = PRIVATE_STORE + ["lw a0, 0(t2)", "lw a1, 0(t2)", "ebreak"]
    state = run_both(_program(lines), num_cores=2, race_trace=False)
    assert state["detail"] == {"replayed_epochs": 0, "rolled_back_epochs": 1,
                               "rolled_back.log-size": 1}


def test_rollback_restores_profile():
    """A rolled-back epoch leaves no trace in the region profile."""
    lines = [".region work", *PRIVATE_STORE, ".endregion", *BARRIER,
             ".region racy", *ROLLBACKS["race"], ".endregion", "ebreak"]
    state = run_both(_program(lines), num_cores=4, profile=True,
                     race_trace=False)
    assert state["detail"]["rolled_back.race"] == 1
    assert [name for name, _ in state["regions"]] == [
        "work", "other", "barrier", "racy"]


# ---------------------------------------------------------------------------
# Compiled tiles: every Cluster.run of a deployment against the reference
# ---------------------------------------------------------------------------

def _record_runs(monkeypatch, scheduler, log):
    """Route ``Cluster.run`` through *scheduler*, logging the state each
    run leaves and its ``detail``."""
    def recorded(self, *args, **kwargs):
        run = scheduler(self, *args, **kwargs)
        state = cluster_state(self, run, None)
        log.append((state.pop("detail"), state))
        return run

    monkeypatch.setattr(Cluster, "run", recorded)


def _differential(monkeypatch, deploy):
    """Run *deploy* twice, on the replay and on the reference stepper;
    every ``Cluster.run`` must leave the same state, and every replayed
    one must replay all of its epochs."""
    replayed, reference = [], []
    original = Cluster.run
    _record_runs(monkeypatch, original, replayed)
    got = deploy()
    _record_runs(monkeypatch, min_clock_run, reference)
    want = deploy()
    assert got == want
    assert len(replayed) == len(reference) > 0
    for index, ((detail, state), (_, expected)) in enumerate(
            zip(replayed, reference)):
        assert detail["replayed_epochs"] >= 1, (index, detail)
        assert detail == {"replayed_epochs": detail["replayed_epochs"],
                          "rolled_back_epochs": 0}, (index, detail)
        assert state == expected, f"run {index} diverged"


def test_mixed3_compile_tiles_match_reference(monkeypatch):
    """``repro compile --network mixed3``: same output, and every tile
    run replayed with no rollback."""
    from repro.cli import main

    def deploy():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["compile", "--network", "mixed3", "--json"]) == 0
        return out.getvalue()

    _differential(monkeypatch, deploy)


@pytest.mark.parametrize("bits,quant,reason", [
    (4, "hw", None), (8, "shift", None), (4, "sw", "tree-log")])
def test_parallel_matmul_counted_loops_match_reference(monkeypatch, bits,
                                                       quant, reason):
    """The parallel MatMul's pair loop is a software counted loop: each
    core runs it as one loop plan whose accesses the replay arbitrates,
    or, around the software staircase's compare trees, declines as
    ``tree-log`` and runs on tier A; both match the stepper."""
    from repro.eval.spec_point import spec_point_kernel, spec_point_operands
    from repro.target import get_target

    spec = get_target("xpulpnn-cluster2")

    def deploy():
        kernel = spec_point_kernel(spec, bits, quant, out_ch=32,
                                   reduction=128)
        w, x0, x1, table = spec_point_operands(bits, 32, 128)
        cluster = Cluster(num_cores=spec.cores, isa=spec.isa)
        run = kernel.run(w, x0, x1, thresholds=table, shift=10,
                         cluster=cluster)
        return run.output.tobytes(), run.cycles, cluster

    *_, cluster = deploy()
    stats = cluster.cores[0].engine_stats
    if reason is None:
        assert stats["nest_dispatches"] == 1 and not stats["side_exits"]
    else:
        assert stats["side_exits"] == {reason: 1}
    _differential(monkeypatch, lambda: deploy()[:2])


def test_small_mixed_network_tiles_match_reference(monkeypatch):
    """A small mixed-precision network: conv 8-bit then conv 2-bit on an
    8x8x8 input, a pool and a classifier, under a 12 kB TCDM budget so
    every layer tiles."""
    from repro.compiler import NetworkCompiler, PlanExecutor
    from repro.qnn import (MaxPool, QnnNetwork, QuantizedConv,
                           QuantizedLinear, random_activations,
                           random_weights)

    rng = np.random.default_rng(21)
    net = QnnNetwork(name="conv8-conv2")
    net.add(QuantizedConv(weights=random_weights((16, 3, 3, 8), 8, rng),
                          weight_bits=8, in_bits=8, out_bits=8, pad=1))
    net.add(QuantizedConv(weights=random_weights((16, 3, 3, 16), 2, rng),
                          weight_bits=2, in_bits=8, out_bits=2, pad=1))
    net.add(MaxPool(2))
    net.add(QuantizedLinear(weights=random_weights((10, 4 * 4 * 16), 4, rng),
                            weight_bits=4, in_bits=2, out_bits=8))
    x = random_activations((8, 8, 8), 8, rng)

    def deploy():
        for layer in net.layers:
            for attr in ("shift", "thresholds"):
                if hasattr(layer, attr):
                    setattr(layer, attr, None)
        compiled = NetworkCompiler(net, (8, 8, 8), input_bits=8,
                                   tcdm_budget=12 * 1024).compile()
        result = PlanExecutor(compiled).run(x)
        assert result.verified
        return result.cycles, result.output.tolist()

    _differential(monkeypatch, deploy)


#: Core 0's second access issues one cycle later than the block's static
#: price says (a misaligned load before it, or a load-use stall carried
#: into the block from the region before), just in time to collide with
#: core 1's access to the same word; core 1 stalls once.
TIER_A_CLOCKS = {
    "misaligned": ["lh a1, 1(s0)", "addi a0, a0, 1", "lw a2, 0(s1)"],
    "carried-load-use": [".region load", "lw a1, 0(s0)", ".endregion",
                         ".region use", "add a2, a1, a1", "lw a3, 0(s1)",
                         ".endregion"],
}


@pytest.mark.parametrize("case", sorted(TIER_A_CLOCKS))
def test_tier_a_issue_clock_decides_a_conflict(case):
    lines = ["csrr s11, 0xF14", f"li s0, {SHARED:#x}",
             f"li s1, {SHARED + 0x40:#x}", "bnez s11, late",
             *TIER_A_CLOCKS[case], "ebreak",
             "late:", "addi a0, a0, 1", "lw a3, 0(s1)", "ebreak"]
    state = run_both(_program(lines), num_cores=2, profile=True,
                     race_trace=False)
    assert state["detail"] == {"replayed_epochs": 1, "rolled_back_epochs": 0}
    assert state["run"]["tcdm_conflicts"] == 1
