"""The lean retire path against the reference step.

Every case runs on fresh machines twice: once with
:func:`~tests.core.oracle.reference_step` patched onto every core, once
with :meth:`Cpu.step`.  Each pair runs untraced and again with a
:class:`~tests.core.oracle.RetireRecorder` attached; registers, memory,
per-core :class:`PerfCounters`, the pending load, ``ClusterRun`` and
the per-retire :class:`StepTiming` sequence must all match.

The programs come from the block-engine and cluster-scheduler property
generators, plus the retire-path features those leave out: sub-byte and
``.sc`` dot products, ``pv.qnt`` on possibly misaligned thresholds,
cycle-counter reads, and taken jumps.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.cluster import Cluster
from repro.core import Cpu, RegionCounters
from repro.isa.registers import parse_register
from repro.trace.perfetto import chrome_trace
from repro.trace.profile import trace_kernel
from tests.cluster.oracle import cluster_state
from tests.cluster.test_scheduler_parity import (
    _program,
    _stager,
    memory_image,
    spmd_program,
)
from tests.core.oracle import RetireRecorder, reference_step, use_reference_step
from tests.engine.conftest import region_map, state_of
from tests.engine.test_engine_property import (
    DATA_REGS,
    PTR_REGS,
    body_ops,
    initial_mem,
    initial_regs,
)

data_reg = st.sampled_from(DATA_REGS)

_DOT_OPS = ("dotup", "dotusp", "dotsp", "sdotup", "sdotusp", "sdotsp")


def _fmt_any_dotp(draw):
    op = draw(st.sampled_from(_DOT_OPS))
    variant = draw(st.sampled_from(("", ".sc")))
    width = draw(st.sampled_from("hbnc"))
    return (f"pv.{op}{variant}.{width} {draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(data_reg)}")


def _fmt_qnt(draw):
    return (f"pv.qnt.{draw(st.sampled_from('nc'))} {draw(data_reg)}, "
            f"{draw(data_reg)}, {draw(st.sampled_from(PTR_REGS))}")


def _fmt_cycle_read(draw):
    return f"csrr {draw(data_reg)}, 0xB00"


_EXTRA = (_fmt_any_dotp, _fmt_qnt, _fmt_cycle_read)


@st.composite
def retire_ops(draw, max_size=6, allow_ebreak=False):
    """Engine-generator ops with retire-path extras mixed in."""
    ops = draw(body_ops(max_size=max_size, allow_ebreak=allow_ebreak))
    for _ in range(draw(st.integers(0, 3))):
        line = draw(st.sampled_from(_EXTRA))(draw)
        ops.insert(draw(st.integers(0, len(ops))), line)
    return ops


@st.composite
def core_program(draw):
    """Straight-line, hardware-loop (single or nested), or branch/jump
    shapes around :func:`retire_ops` bodies."""
    shape = draw(st.sampled_from(("straight", "loop", "nested", "branch")))
    if shape == "straight":
        lines = draw(retire_ops(max_size=8))
    elif shape == "loop":
        level = draw(st.integers(0, 1))
        ops = draw(retire_ops(allow_ebreak=True))
        lines = [f"lp.setupi {level}, {draw(st.integers(0, 7))}, end"]
        lines += ops[:-1] + ["end:", ops[-1]]
    elif shape == "nested":
        inner = draw(retire_ops(max_size=4))
        outer = draw(retire_ops(max_size=3))
        lines = [f"lp.setupi 1, {draw(st.integers(0, 4))}, end1",
                 f"lp.setupi 0, {draw(st.integers(0, 5))}, end0"]
        lines += inner[:-1] + ["end0:", inner[-1]]
        lines += outer[:-1] + ["end1:", outer[-1]]
    else:
        head = draw(retire_ops(max_size=4))
        skipped = draw(retire_ops(max_size=3))
        tail = draw(retire_ops(max_size=3))
        branch = draw(st.sampled_from(("bne a0, a1", "beq a0, a0",
                                       "blt a2, a3")))
        lines = head + [f"{branch}, skip"] + skipped
        lines += ["skip:", "j over"] + tail + ["over:"]
    return "\n".join(lines + ["ebreak"]) + "\n"


# ---------------------------------------------------------------------------
# Single core
# ---------------------------------------------------------------------------

def _run_core(program, regs, mem, *, reference, traced):
    cpu = Cpu(isa="xpulpnn", engine="interp")
    cpu.regions = RegionCounters(region_map=region_map(program))
    if reference:
        use_reference_step(cpu)
    recorder = RetireRecorder() if traced else None
    cpu.tracer = recorder
    for addr, blob in mem.items():
        cpu.mem.write_bytes(addr, blob)
    cpu.load_program(program)
    for name, value in regs.items():
        cpu.regs[parse_register(name)] = value
    error = None
    try:
        cpu.run(max_instructions=20_000)
    except Exception as exc:                      # noqa: BLE001 - compared
        error = (type(exc).__name__, str(exc))
    return error, state_of(cpu), recorder and recorder.events


def _check_core(source, regs, mem):
    program = assemble(source, isa="xpulpnn")
    for traced in (False, True):
        want = _run_core(program, regs, mem, reference=True, traced=traced)
        got = _run_core(program, regs, mem, reference=False, traced=traced)
        for part, w, g in zip(("outcome", "state", "retires"), want, got):
            assert g == w, f"retire paths diverged on {part} (traced={traced})"


@settings(max_examples=80, deadline=None)
@given(source=core_program(), regs=initial_regs(), mem=initial_mem())
def test_core_program_parity(source, regs, mem):
    _check_core(source, regs, mem)


@pytest.mark.slow
@settings(max_examples=800, deadline=None)
@given(source=core_program(), regs=initial_regs(), mem=initial_mem())
def test_core_program_parity_deep(source, regs, mem):
    _check_core(source, regs, mem)


def test_fetch_fault_parity():
    """A run off the end of the program traps identically."""
    _check_core("addi a0, a0, 1\n", {"a0": 1}, {})


# ---------------------------------------------------------------------------
# Cluster
# ---------------------------------------------------------------------------

def _run_cluster(program, num_cores, setup, *, reference, traced, profile):
    cluster = Cluster(num_cores=num_cores)
    cluster.enable_access_trace()
    if profile:
        cluster.regions = RegionCounters(program=program)
    recorder = cluster.attach_tracer(RetireRecorder()) if traced else None
    if reference:
        for cpu in cluster.cores:
            use_reference_step(cpu)
    setup(cluster)
    cluster.reset()
    cluster.load_program(program)
    run = error = None
    try:
        run = cluster.run(entry=program.entry, max_instructions=100_000)
    except Exception as exc:                      # noqa: BLE001 - compared
        error = (type(exc).__name__, str(exc))
    return (cluster_state(cluster, run, error),
            recorder and recorder.events)


def _check_cluster(case, image, profile=False):
    num_cores, source = case
    program = _program(source)
    kw = dict(profile=profile)
    for traced in (False, True):
        want = _run_cluster(program, num_cores, _stager(image),
                            reference=True, traced=traced, **kw)
        got = _run_cluster(program, num_cores, _stager(image),
                           reference=False, traced=traced, **kw)
        for key in want[0]:
            assert got[0][key] == want[0][key], (
                f"retire paths diverged on {key} (traced={traced})")
        assert got[1] == want[1], "retire sequences diverged"
    assert want[0]["error"] is None, want[0]["error"]


@settings(max_examples=40, deadline=None)
@given(case=spmd_program(), image=memory_image())
def test_spmd_program_parity(case, image):
    _check_cluster(case, image)


@settings(max_examples=20, deadline=None)
@given(case=spmd_program(regions=True), image=memory_image())
def test_spmd_program_parity_profiled(case, image):
    _check_cluster(case, image, profile=True)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(case=spmd_program(), image=memory_image())
def test_spmd_program_parity_deep(case, image):
    _check_cluster(case, image)


# ---------------------------------------------------------------------------
# Suite kernels
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("kernel,cores", [("conv_4bit", 1),
                                          ("matmul_4bit", 8)])
def test_trace_export_matches_oracle(kernel, cores, monkeypatch):
    """The Chrome-trace export (built from the per-retire tracer hooks)
    is byte-identical under both retire paths."""
    got = json.dumps(chrome_trace(trace_kernel(kernel, cores=cores)))
    monkeypatch.setattr(Cpu, "step", reference_step)
    want = json.dumps(chrome_trace(trace_kernel(kernel, cores=cores)))
    assert got == want
