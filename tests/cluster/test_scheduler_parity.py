"""Cluster replay and event-driven scheduler vs the min-clock stepper.

Hypothesis generates SPMD programs that every core runs: ``mhartid``-
dependent branches, hardware loops, loads and stores to words all cores
share and to per-core words that land in the same bank, ``pv.qnt`` on a
TCDM threshold tree, DMA launches with ``DMA_STATUS`` polls, and one to
three barriers.  Each program must leave exactly the same state under
:meth:`Cluster.run` as under :func:`~tests.cluster.oracle.min_clock_run`
(see :func:`~tests.cluster.oracle.run_both`).  With the race recorder
attached :meth:`Cluster.run` schedules; without it, it replays each epoch
or rolls it back (these programs poll DMA, read L2 and read ``mcycle``).

The affine sweeps are hardware-loop streams the block engine fuses, run
in lockstep or with hart-staggered starts: each core on its own banks
(conflict-free), every core on one shared stream (conflicting), or every
core writing one shared row (racy, so the epoch must roll back).  The
first two must replay every epoch.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.cluster import Cluster
from repro.errors import SimError
from repro.soc.memmap import DMA_BASE, EU_BARRIER_WAIT, L2_BASE, TCDM_BASE
from repro.telemetry import MetricsRegistry, use_registry
from repro.trace.perfetto import chrome_trace
from repro.trace.profile import trace_kernel
from tests.cluster.oracle import run_one, min_clock_run, run_both

SHARED = TCDM_BASE + 0x1000     # s0: words every core reads and writes
SAME_BANK = TCDM_BASE + 0x2000  # s1: one word per core, all in one bank
THRESHOLDS = TCDM_BASE + 0x3000  # s2: pv.qnt threshold trees
DMA_DST = TCDM_BASE + 0x4000
L2_SRC = L2_BASE + 0x100        # s3: DMA source, also read directly

DATA = ("a0", "a1", "a2", "a3", "a4", "a5")
data = st.sampled_from(DATA)


def _alu(draw):
    mn = draw(st.sampled_from(("add", "sub", "xor", "and", "mul", "sll")))
    return [f"{mn} {draw(data)}, {draw(data)}, {draw(data)}"]


def _addi(draw):
    return [f"addi {draw(data)}, {draw(data)}, {draw(st.integers(-9, 9))}"]


def _hartid_mix(draw):
    return [f"add {draw(data)}, {draw(data)}, s11"]


def _cycle_read(draw):
    return [f"csrr {draw(data)}, 0xB00"]


def _shared_load(draw):
    mn = draw(st.sampled_from(("lw", "lh", "lbu")))
    off = draw(st.integers(0, 7)) * 4 + draw(st.sampled_from((0, 0, 0, 1)))
    return [f"{mn} {draw(data)}, {off}(s0)"]


def _shared_store(draw):
    mn = draw(st.sampled_from(("sw", "sh", "sb")))
    return [f"{mn} {draw(data)}, {draw(st.integers(0, 7)) * 4}(s0)"]


def _bank_access(draw):
    if draw(st.booleans()):
        return [f"p.lw {draw(data)}, 4(s1!)"]
    return [f"sw {draw(data)}, {draw(st.sampled_from((0, 4)))}(s1)"]


def _l2_load(draw):
    return [f"lw {draw(data)}, {draw(st.integers(0, 7)) * 4}(s3)"]


def _quantize(draw):
    suffix = draw(st.sampled_from(("n", "c")))
    return [f"pv.qnt.{suffix} {draw(data)}, {draw(data)}, s2"]


_SIMPLE = (_alu, _addi, _hartid_mix, _cycle_read, _shared_load,
           _shared_store, _bank_access, _l2_load, _quantize)
#: The ops an epoch replays without rolling back: no cycle reads, no L2,
#: no stores to the words every core reads.  Misaligned shared loads,
#: same-bank traffic and ``pv.qnt`` keep the arbitration busy.
_REPLAYABLE = (_alu, _hartid_mix, _shared_load, _shared_load,
               _bank_access, _bank_access, _quantize)


def _simple_ops(draw, max_size, pool=_SIMPLE):
    ops = []
    for _ in range(draw(st.integers(1, max_size))):
        ops += draw(st.sampled_from(pool))(draw)
    return ops


@st.composite
def segment(draw, label, regions, pool=_SIMPLE):
    """One top-level piece of the program; *label* keeps labels unique.
    With *regions*, the code only some harts run is a region of its own,
    so cores enter regions in hart-dependent order.  *pool* is the ops
    to draw from; DMA segments come only with the full pool."""
    kinds = ("ops", "branch", "loop") + (("dma",) if pool is _SIMPLE else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "ops":
        return _simple_ops(draw, 5, pool)
    if kind == "branch":
        mask = draw(st.sampled_from((1, 2, 3)))
        body = _simple_ops(draw, 4, pool)
        if regions:
            body = [f".region only{label}"] + body + [".endregion"]
        return ([f"andi t2, s11, {mask}", f"bnez t2, skip{label}"]
                + body + [f"skip{label}:"])
    if kind == "loop":
        body = _simple_ops(draw, 4, pool)
        count = draw(st.integers(0, 5))
        return ([f"lp.setupi 0, {count}, end{label}"] + body[:-1]
                + [f"end{label}:", body[-1]])
    length = draw(st.integers(1, 40))
    return [
        f"li t0, {DMA_BASE:#x}",
        "sw s3, 0(t0)",
        f"li t1, {DMA_DST + 64 * draw(st.integers(0, 3)):#x}",
        "sw t1, 4(t0)",
        f"li t1, {length}",
        "sw t1, 8(t0)",
        "sw zero, 0x18(t0)",
        f"poll{label}:",
        "lw t1, 0x1C(t0)",
        f"bnez t1, poll{label}",
    ]


def _prologue(num_cores):
    stride = 8 * num_cores  # one bank-stride: banks = 2 x cores words
    return [
        "csrr s11, 0xF14",
        f"li s0, {SHARED:#x}",
        f"li t0, {stride}",
        "mul t0, t0, s11",
        f"li s1, {SAME_BANK:#x}",
        "add s1, s1, t0",
        f"li s2, {THRESHOLDS:#x}",
        f"li s3, {L2_SRC:#x}",
    ] + [f"addi {reg}, s11, {i}" for i, reg in enumerate(DATA)]


BARRIER = [f"li t0, {EU_BARRIER_WAIT:#x}", "lw t1, 0(t0)"]


@st.composite
def spmd_program(draw, regions=False, pool=_SIMPLE):
    num_cores = draw(st.sampled_from((2, 3, 4, 8)))
    pieces = [draw(segment(i, regions, pool))
              for i in range(draw(st.integers(1, 5)))]
    if regions:
        pieces = [[f".region seg{i}"] + p + [".endregion"]
                  for i, p in enumerate(pieces)]
    for _ in range(draw(st.integers(1, 3))):
        pieces.insert(draw(st.integers(0, len(pieces))), BARRIER)
    lines = _prologue(num_cores) + [ln for p in pieces for ln in p]
    return num_cores, "\n".join(lines + ["ebreak"]) + "\n"


@st.composite
def memory_image(draw):
    return (draw(st.binary(min_size=64, max_size=64)),
            draw(st.binary(min_size=64, max_size=64)),
            draw(st.binary(min_size=64, max_size=64)))


def _stager(image):
    shared, thresholds, l2 = image

    def setup(cluster):
        cluster.mem.write_bytes(SHARED, shared)
        cluster.mem.write_bytes(THRESHOLDS, thresholds)
        cluster.mem.write_bytes(L2_SRC, l2)
    return setup


def _program(source):
    return assemble(source, isa="xpulpnn", base=TCDM_BASE)


def _check_spmd(case, image, race_trace=True):
    num_cores, source = case
    state = run_both(_program(source), num_cores=num_cores,
                     setup=_stager(image), race_trace=race_trace)
    assert state["error"] is None, state["error"]
    assert state["barriers"] >= 1


@settings(max_examples=60, deadline=None)
@given(case=spmd_program(), image=memory_image())
def test_spmd_program_parity(case, image):
    _check_spmd(case, image)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(case=spmd_program(), image=memory_image())
def test_spmd_program_parity_deep(case, image):
    _check_spmd(case, image)


@settings(max_examples=40, deadline=None)
@given(case=spmd_program(), image=memory_image())
def test_spmd_program_parity_replayed(case, image):
    """No race recorder: epochs replay or roll back to the scheduler."""
    _check_spmd(case, image, race_trace=False)


@settings(max_examples=60, deadline=None)
@given(case=spmd_program(pool=_REPLAYABLE), image=memory_image())
def test_replayable_spmd_program_parity(case, image):
    """Programs whose epochs replay (unless a core's post-incremented
    same-bank pointer walks into a neighbour's words: a race)."""
    _check_spmd(case, image, race_trace=False)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(case=spmd_program(pool=_REPLAYABLE), image=memory_image())
def test_replayable_spmd_program_parity_deep(case, image):
    _check_spmd(case, image, race_trace=False)


@settings(max_examples=30, deadline=None)
@given(case=spmd_program(regions=True), image=memory_image(),
       race_trace=st.booleans())
def test_spmd_program_parity_profiled(case, image, race_trace):
    """A region profile attached: same tables, same first-entered order,
    scheduled or replayed."""
    num_cores, source = case
    run_both(_program(source), num_cores=num_cores, setup=_stager(image),
             profile=True, race_trace=race_trace)


SWEEP_IN = TCDM_BASE + 0x5000   # s4: the streams the sweeps load
SWEEP_OUT = TCDM_BASE + 0x6000  # s5: the rows the sweeps store
ROW = 128                       # bytes of one core's output row
#: Loop-body ops between the load into a0 and the store of a2: fusable
#: ALU and dot-product forms, and an accumulating dot product that the
#: store then reads (a recurrence the engine runs in tier A).
MIXES = ("add a2, a0, a3", "xor a2, a0, s11", "pv.dotsp.b a2, a0, a3",
         "pv.sdotsp.b a2, a0, a0")


def _streams(draw, kind, num_cores):
    """Pointer set-up, load op, load stride and store stride of one
    affine sweep (see the module docstring)."""
    banks = 2 * num_cores
    lines = [f"li s4, {SWEEP_IN:#x}", f"li s5, {SWEEP_OUT:#x}"]
    if kind == "free":
        # Core h loads bank h and stores bank h + num_cores, always.
        load, stride, store = "p.lw", 4 * banks, 4 * banks
        skew = (SWEEP_OUT - SWEEP_IN) % stride
        lines += ["slli t1, s11, 2", "add s4, s4, t1", "add s5, s5, t1",
                  f"addi s5, s5, {4 * num_cores - skew}"]
    else:
        load, size = draw(st.sampled_from(
            (("p.lw", 4), ("p.lh", 2), ("p.lbu", 1))))
        stride, store = size * draw(st.integers(1, 3)), 4
        if kind == "conflict":
            lines += [f"li t1, {ROW}", "mul t1, t1, s11", "add s5, s5, t1"]
    return lines, load, stride, store


@st.composite
def sweep(draw, label, kind, num_cores):
    """One affine hardware-loop sweep (see the module docstring)."""
    lines, load, stride, store = _streams(draw, kind, num_cores)
    count = draw(st.integers(2, 24))
    body = [f"{load} a0, {stride}(s4!)", draw(st.sampled_from(MIXES)),
            f"p.sw a2, {store}(s5!)"]
    return lines + [f".region sweep{label}",
                    f"lp.setupi 0, {count}, end{label}", *body[:-1],
                    f"end{label}:", body[-1], ".endregion"]


@st.composite
def nest_sweep(draw, label, kind, num_cores):
    """The sweep's lp0 loop inside an lp1 filter loop, as in the conv
    kernels: each outer iteration clears the accumulator, may rewind the
    load pointer to the core's stream, runs the sweep and stores one
    result; off the conflict-free banks it may also quantize it against
    the shared threshold trees and store the code."""
    lines, load, stride, store = _streams(draw, kind, num_cores)
    rewind = draw(st.booleans())
    prefix = ["addi a2, zero, 0"] + (["addi s4, s6, 0"] if rewind else [])
    tail = [f"p.sw a2, {store}(s5!)"]
    if kind != "free" and draw(st.booleans()):
        tail += ["addi t2, a2, 0", "p.insert t2, a0, 16, 16",
                 f"pv.qnt.{draw(st.sampled_from('nc'))} t3, t2, s2",
                 "p.sw t3, 4(s5!)"]
    return lines + [
        "addi s6, s4, 0", f".region nest{label}",
        f"lp.setupi 1, {draw(st.integers(2, 6))}, outer{label}", *prefix,
        f"lp.setupi 0, {draw(st.integers(1, 12))}, inner{label}",
        f"{load} a0, {stride}(s4!)", draw(st.sampled_from(MIXES)),
        f"inner{label}:", *tail, f"outer{label}:", "addi a5, a5, 1",
        ".endregion"]


@st.composite
def sweep_program(draw, kind, loops=sweep):
    num_cores = draw(st.sampled_from((2, 3, 4, 8)))
    lines = ["csrr s11, 0xF14", "li a2, 0", "li a3, 0x01020304",
             f"li s2, {THRESHOLDS:#x}"]
    if draw(st.booleans()):
        # A hart-dependent prologue delay staggers the cores' starts.
        lines += [f"li t0, {draw(st.integers(1, 5))}", "mul t0, t0, s11",
                  "stagger:", "beqz t0, go", "addi t0, t0, -1",
                  "j stagger", "go:"]
    for label in range(draw(st.integers(1, 2))):
        if label or draw(st.booleans()):
            lines += BARRIER
        lines += draw(loops(label, kind, num_cores))
    return num_cores, "\n".join(lines + ["ebreak"]) + "\n"


def _check_sweep(kind, case, stream, profile):
    num_cores, source = case

    def setup(cluster):
        cluster.mem.write_bytes(SWEEP_IN, stream)
        cluster.mem.write_bytes(THRESHOLDS, stream[:256])

    state = run_both(_program(source), num_cores=num_cores, setup=setup,
                     profile=profile, race_trace=False)
    assert state["error"] is None, state["error"]
    detail = state["detail"]
    if kind == "racy":
        assert detail["rolled_back.race"] >= 1, detail
    else:
        assert detail["replayed_epochs"] > 0, detail
        assert detail["rolled_back_epochs"] == 0, detail
    if kind == "free":
        assert state["run"]["tcdm_conflicts"] == 0


_stream_bytes = st.binary(min_size=2048, max_size=2048)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(("free", "conflict", "racy")),
       case=st.data(), stream=_stream_bytes, profile=st.booleans())
def test_affine_sweep_parity(kind, case, stream, profile):
    _check_sweep(kind, case.draw(sweep_program(kind)), stream, profile)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(("free", "conflict", "racy")),
       case=st.data(), stream=_stream_bytes, profile=st.booleans())
def test_affine_sweep_parity_deep(kind, case, stream, profile):
    _check_sweep(kind, case.draw(sweep_program(kind)), stream, profile)


def _check_nest_sweep(kind, case, stream, profile):
    with use_registry(MetricsRegistry()) as registry:
        _check_sweep(kind, case, stream, profile)
    if kind != "racy":
        assert registry.counter_total("engine.nest_dispatches") > 0


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(("free", "conflict", "racy")),
       case=st.data(), stream=_stream_bytes, profile=st.booleans())
def test_nested_sweep_parity(kind, case, stream, profile):
    """Loop nests over the affine sweeps, lockstep or staggered: every
    core's nest fuses into one dispatch whose 2-D access streams the
    replay arbitrates exactly like the reference (or, racy, rolls back)."""
    _check_nest_sweep(kind, case.draw(sweep_program(kind, nest_sweep)),
                      stream, profile)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(("free", "conflict", "racy")),
       case=st.data(), stream=_stream_bytes, profile=st.booleans())
def test_nested_sweep_parity_deep(kind, case, stream, profile):
    _check_nest_sweep(kind, case.draw(sweep_program(kind, nest_sweep)),
                      stream, profile)


def test_lockstep_shared_stream_conflicts_and_replays():
    """Eight cores in lockstep on one stream collide, and the replay
    charges the same stalls as the reference."""
    lines = ["csrr s11, 0xF14", "li a3, 7", f"li s4, {SWEEP_IN:#x}",
             f"li s5, {SWEEP_OUT:#x}", f"li t1, {ROW}", "mul t1, t1, s11",
             "add s5, s5, t1", ".region sweep", "lp.setupi 0, 16, end",
             "p.lw a0, 4(s4!)", "add a2, a0, a3", "end:", "p.sw a2, 4(s5!)",
             ".endregion", "ebreak"]
    state = run_both(_program("\n".join(lines) + "\n"), num_cores=8,
                     profile=True, race_trace=False)
    assert state["run"]["tcdm_conflicts"] > 0
    assert state["detail"] == {"replayed_epochs": 1, "rolled_back_epochs": 0}


def _check_first_entry_order(race_trace):
    source = "\n".join([
        "csrr s11, 0xF14",
        "bnez s11, late",
        *["addi a0, a0, 1"] * 6,
        ".region hart0",
        "addi a1, a1, 1",
        "ebreak",
        ".endregion",
        "late:",
        ".region others",
        "addi a2, a2, 1",
        "ebreak",
        ".endregion",
    ]) + "\n"
    state = run_both(_program(source), num_cores=2, profile=True,
                     race_trace=race_trace)
    assert [name for name, _ in state["regions"]] == [
        "other", "others", "hart0"]


def test_region_first_entry_order():
    """Hart 0 reaches its region later in cycles but, running ahead
    through private code, earlier in host order than the others reach
    theirs.  The table must still list regions by cycle of first entry."""
    _check_first_entry_order(race_trace=True)


def test_region_first_entry_order_replayed():
    """The same program replayed: hart 0 runs first in host order."""
    _check_first_entry_order(race_trace=False)


def test_budget_exhaustion_matches():
    """The budget trips on the same retired-instruction count.  Which core
    retired how many of them is not compared: a core that ran ahead has
    retired private instructions the reference had not reached yet."""
    program = _program("spin:\n    j spin\n")
    kw = dict(num_cores=3, setup=None, max_instructions=1000, profile=False)
    got = run_one(program, Cluster.run, **kw)["error"]
    assert got == run_one(program, min_clock_run, **kw)["error"]
    assert got == ("SimError", "cluster exceeded 1000 instructions "
                   "(likely a spin without progress)")


def test_halt_while_others_wait_is_deadlock():
    """Core 0 halts before the barrier the others are parked at."""
    source = "\n".join([
        "csrr s11, 0xF14",
        "bnez s11, wait",
        "addi a0, a0, 1",
        "ebreak",
        "wait:",
        *BARRIER,
        "ebreak",
    ]) + "\n"
    cluster = Cluster(num_cores=4)
    with pytest.raises(SimError, match=r"deadlock: cores \[1, 2, 3\]"):
        cluster.run_program(_program(source))
    state = run_both(_program(source), num_cores=4)
    assert state["error"][0] == "SimError"


def test_trace_export_is_scheduler_independent(monkeypatch):
    """The Chrome-trace export of an 8-core run is byte-identical under
    the event-driven scheduler and the reference stepper."""
    got = json.dumps(chrome_trace(trace_kernel("matmul_4bit", cores=8)))
    monkeypatch.setattr(Cluster, "run", min_clock_run)
    want = json.dumps(chrome_trace(trace_kernel("matmul_4bit", cores=8)))
    assert got == want
