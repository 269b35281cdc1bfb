"""Simulator throughput benchmarks (host-side performance, not a paper
figure): how many simulated instructions per second the ISS sustains on
each kernel class.  Useful when sizing REPRO_FULL runs."""

import numpy as np
import pytest

from repro.asm import KernelBuilder
from repro.core import Cpu

from conftest import record


def _loop_program(body_ops, iterations):
    b = KernelBuilder(isa="xpulpnn")
    b.li("t0", iterations)
    b.li("a1", 0x1000)
    b.li("a2", 0x2000)
    with b.hardware_loop(0, "t0"):
        body_ops(b)
    b.ebreak()
    return b.build()


def test_benchmark_alu_throughput(benchmark):
    program = _loop_program(lambda b: b.emit("add", "a3", "a4", "a5"), 2000)
    cpu = Cpu(isa="xpulpnn", engine="interp")

    perf = benchmark(lambda: cpu.run_program(program))
    assert perf.instructions > 2000


def test_benchmark_simd_throughput(benchmark):
    def body(b):
        b.emit("pv.sdotusp.n", "a3", "a4", "a5")

    program = _loop_program(body, 2000)
    cpu = Cpu(isa="xpulpnn", engine="interp")
    perf = benchmark(lambda: cpu.run_program(program))
    assert perf.by_class["mul"] >= 2000


def test_benchmark_memory_throughput(benchmark):
    def body(b):
        b.emit("p.lw", "a3", 4, "a1", inc=True)
        b.emit("p.sw", "a3", 4, "a2", inc=True)
        b.emit("addi", "a1", "a1", -4)
        b.emit("addi", "a2", "a2", -4)

    program = _loop_program(body, 1000)
    cpu = Cpu(isa="xpulpnn", engine="interp")
    perf = benchmark(lambda: cpu.run_program(program))
    assert perf.by_class["load"] >= 1000


def test_benchmark_qnt_throughput(benchmark):
    cpu = Cpu(isa="xpulpnn", engine="interp")
    cpu.mem.write_i16(0x3000, list(range(16)))

    def body(b):
        b.emit("pv.qnt.n", "a3", "a4", "a5")

    b = KernelBuilder(isa="xpulpnn")
    b.li("t0", 500)
    b.li("a5", 0x3000)
    b.li("a4", 0)
    with b.hardware_loop(0, "t0"):
        body(b)
    b.ebreak()
    program = b.build()
    perf = benchmark(lambda: cpu.run_program(program))
    assert perf.by_class["qnt_n"] >= 500


def test_benchmark_alu_throughput_tracer_disabled(benchmark):
    """The disabled-tracer fast path: one ``is not None`` check per retire.

    Compare against ``test_benchmark_alu_throughput`` — the two should be
    within noise of each other (the acceptance bar is <2% overhead).
    """
    program = _loop_program(lambda b: b.emit("add", "a3", "a4", "a5"), 2000)
    cpu = Cpu(isa="xpulpnn", engine="interp")
    assert cpu.tracer is None
    perf = benchmark(lambda: cpu.run_program(program))
    assert perf.instructions > 2000


def test_benchmark_alu_throughput_span_tracer(benchmark):
    """Host-side cost of span tracing (the `repro trace` default)."""
    from repro.trace import EventTracer

    program = _loop_program(lambda b: b.emit("add", "a3", "a4", "a5"), 2000)
    cpu = Cpu(isa="xpulpnn", engine="interp")

    def run():
        cpu.tracer = EventTracer(program=program)
        try:
            return cpu.run_program(program)
        finally:
            cpu.tracer = None

    perf = benchmark(run)
    assert perf.instructions > 2000


def test_tracer_disabled_overhead_within_bound():
    """Wall-clock guard: an attached-then-detached tracer leaves no residue
    and the disabled path stays within 2% of a never-traced core.

    Timing comparisons on shared CI boxes are noisy, so this asserts the
    *structural* property (identical simulated timing, no tracer state left
    behind) and a generous wall-clock ratio over several repetitions.
    """
    import time

    from repro.trace import EventTracer

    program = _loop_program(lambda b: b.emit("add", "a3", "a4", "a5"), 5000)

    def measure(cpu):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            perf = cpu.run_program(program)
            best = min(best, time.perf_counter() - start)
        return best, perf

    bare_cpu = Cpu(isa="xpulpnn", engine="interp")
    traced_cpu = Cpu(isa="xpulpnn", engine="interp")
    traced_cpu.tracer = EventTracer(program=program)
    traced_cpu.run_program(program)
    traced_cpu.tracer = None
    assert traced_cpu._mem_tracer is None

    bare_time, bare_perf = measure(bare_cpu)
    detached_time, detached_perf = measure(traced_cpu)
    assert detached_perf.cycles == bare_perf.cycles
    # Generous bound: catches an accidentally hot disabled path (a dict
    # lookup or attribute chase per retire) without flaking on CI noise.
    assert detached_time < bare_time * 1.5


# ---------------------------------------------------------------------------
# Block-translation engine (docs/ENGINE.md)
#
# The ``*_block_engine`` variants mirror the interpreter benchmarks above
# with ``engine="block"`` and additionally assert cycle parity — the
# engine's speedup is only admissible because the simulated numbers are
# identical.  ``test_block_engine_conv4bit_speedup_floor`` is the
# acceptance bar: >= 10x simulated instructions/sec on the 4-bit conv,
# recorded as ``bench/*`` series into ``results/iss_throughput.json``
# (machine-dependent wall-clock numbers live outside the committed
# cycle-exact trajectory, like the ``serve/*`` series).
# ---------------------------------------------------------------------------


def _parity_run(program, benchmark):
    reference = Cpu(isa="xpulpnn", engine="interp").run_program(program)
    cpu = Cpu(isa="xpulpnn", engine="block")
    perf = benchmark(lambda: cpu.run_program(program))
    assert perf.snapshot() == reference.snapshot()
    return perf


def test_benchmark_alu_throughput_block_engine(benchmark):
    program = _loop_program(lambda b: b.emit("add", "a3", "a4", "a5"), 2000)
    _parity_run(program, benchmark)


def test_benchmark_simd_throughput_block_engine(benchmark):
    def body(b):
        b.emit("pv.sdotusp.n", "a3", "a4", "a5")

    program = _loop_program(body, 2000)
    perf = _parity_run(program, benchmark)
    assert perf.by_class["mul"] >= 2000


def test_benchmark_memory_throughput_block_engine(benchmark):
    def body(b):
        b.emit("p.lw", "a3", 4, "a1", inc=True)
        b.emit("p.sw", "a3", 4, "a2", inc=True)
        b.emit("addi", "a1", "a1", -4)
        b.emit("addi", "a2", "a2", -4)

    program = _loop_program(body, 1000)
    perf = _parity_run(program, benchmark)
    assert perf.by_class["load"] >= 1000


def _conv4bit_setup():
    """The speedup-floor workload: the 4-bit conv at a heavier geometry
    (64 input/output channels) so fused dispatches dominate wall-clock."""
    from repro.kernels import ConvConfig, ConvKernel
    from repro.qnn import (
        ConvGeometry,
        conv2d_golden,
        random_activations,
        random_weights,
        thresholds_from_accumulators,
    )

    g = ConvGeometry(in_h=8, in_w=8, in_ch=64, out_ch=64,
                     kh=3, kw=3, stride=1, pad=1)
    rng = np.random.default_rng(0x51F5)
    w = random_weights((g.out_ch, g.kh, g.kw, g.in_ch), 4, rng)
    x = random_activations((g.in_h, g.in_w, g.in_ch), 4, rng)
    acc = conv2d_golden(x, w, stride=g.stride, pad=g.pad)
    table = thresholds_from_accumulators(acc, 4)

    def run(mode):
        import time

        from repro.soc import L2_SIZE
        from repro.soc.memory import Memory

        kernel = ConvKernel(ConvConfig(
            geometry=g, bits=4, isa="xpulpnn", quant="hw"))
        size = max(kernel.layout.end + 4096, L2_SIZE)
        cpu = Cpu(isa="xpulpnn", mem=Memory(size), engine=mode)
        start = time.perf_counter()
        result = kernel.run(w, x, thresholds=table, cpu=cpu)
        wall = time.perf_counter() - start
        return result, wall, cpu

    return run


def test_block_engine_conv4bit_speedup_floor(results_dir):
    import json

    from repro.engine.blocks import GLOBAL_CACHE
    from repro.eval.trajectory import write_trajectory

    GLOBAL_CACHE.clear()
    run = _conv4bit_setup()
    interp_result, interp_wall, _ = run("interp")
    run("block")                       # cold: pays one-time translation
    block_result, block_wall, cpu = run("block")

    assert block_result.perf.snapshot() == interp_result.perf.snapshot()
    assert (block_result.output == interp_result.output).all()

    instructions = interp_result.instructions
    interp_ips = instructions / interp_wall
    block_ips = instructions / block_wall
    speedup = block_ips / interp_ips
    stats = cpu.engine_stats

    write_trajectory(
        {"bench": {"conv_4bit": {
            "interp_sim_ips": round(interp_ips),
            "block_sim_ips": round(block_ips),
            "engine_speedup": round(speedup, 2),
        }}},
        str(results_dir / "iss_throughput.json"))
    (results_dir / "engine_stats.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n")
    record(results_dir, "iss_engine_speedup",
           f"conv_4bit ({instructions:,} instructions): "
           f"interp {interp_ips / 1e6:.2f} M ips, "
           f"block {block_ips / 1e6:.2f} M ips -> {speedup:.1f}x "
           f"({stats['fused_instructions'] / instructions:.0%} fused, "
           f"bar: >= 10x)")
    assert speedup >= 10.0, (
        f"block engine sustained only {speedup:.1f}x on conv_4bit")


# ---------------------------------------------------------------------------
# Cluster cores (docs/CLUSTER.md)
#
# Each epoch of a cluster run (here: up to the kernel's barrier, then
# the halt) runs every core on its block engine and then replays the
# TCDM arbitration over the logged accesses (``repro.cluster.replay``),
# so this measures the engine and the replay, not the scheduler.
# Recorded beside the single-core numbers as
# ``bench/cluster8_matmul_4bit/*``.
# ---------------------------------------------------------------------------


def test_cluster_matmul4bit_throughput(results_dir):
    """Simulated instructions per second of the catalog's 4-bit matmul
    tile sharded over 8 cores (best of ten runs)."""
    import time

    from repro.cluster import Cluster
    from repro.eval.trajectory import write_trajectory
    from repro.kernels import ParallelMatmulConfig, ParallelMatmulKernel
    from repro.qnn import random_threshold_table
    from repro.trace.profile import MATMUL_OUT_CH, MATMUL_REDUCTION

    rng = np.random.default_rng(0xC105)
    w = rng.integers(-8, 8, (MATMUL_OUT_CH, MATMUL_REDUCTION)).astype(np.int32)
    x0 = rng.integers(0, 16, MATMUL_REDUCTION).astype(np.int32)
    x1 = rng.integers(0, 16, MATMUL_REDUCTION).astype(np.int32)
    table = random_threshold_table(MATMUL_OUT_CH, 4, spread=600, rng=rng)
    kernel = ParallelMatmulKernel(ParallelMatmulConfig(
        reduction=MATMUL_REDUCTION, out_ch=MATMUL_OUT_CH, bits=4,
        num_cores=8, quant="hw"))
    cluster = Cluster(num_cores=8)

    walls = []
    for _ in range(10):
        start = time.perf_counter()
        result = kernel.run(w, x0, x1, thresholds=table, cluster=cluster)
        walls.append(time.perf_counter() - start)
    instructions = result.run.aggregate.instructions
    sim_ips = instructions / min(walls)

    write_trajectory(
        {"bench": {"cluster8_matmul_4bit": {
            "instructions": instructions,
            "sim_ips": round(sim_ips),
        }}},
        str(results_dir / "iss_throughput.json"))
    print(f"\n8-core matmul_4bit ({instructions:,} instructions): "
          f"{sim_ips / 1e3:.0f} k ips")
    assert result.run.barriers == 1
