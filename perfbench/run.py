"""The repository benchmark: one command, two seeded closed-loop workloads.

    python3 perfbench/run.py --workload cluster_deploy --seed 1 \\
        --seconds 55 --trace 0

Each workload (see ``workloads.py``) is a fixed round of operations that
a single client issues back to back, with no worker pool and no threads.
Rounds repeat until ``--seconds`` have passed (at least four rounds);
the metrics are per round, so runs of different lengths compare.  Every
operation's output is checked, and every simulated count must repeat
exactly in every round.

Host times are given at a fixed reference speed (see ``README.md``):
around every operation the benchmark times ``reference_loop``, a fixed
pure-Python loop that shares no code with the program, and scales the
operation's latency by the loop's time on the reference host over its
time at that moment.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain rounds with rounds under the layer probes (``probes.py``) and
prints the per-layer metrics instead, plus the tracing overhead.  The
last line of the output is always one JSON object; the exit code is 0
only when every operation succeeded.  ``--workload all`` runs every
workload in its own process, one after the other.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run (this process plus fresh interpreters between the
#: first rounds); setup_s is their median.
SETUP_SAMPLES = 7
MIN_ROUNDS = 4
#: About the best time of ``reference_loop`` on the 2-core Xeon host the
#: benchmark was built on (0.0069-0.0118 s across runs); host times are
#: reported at that speed.
REFERENCE_S = 0.007

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "sim_ips": "1/s",
    "sim_cycles": "cycles",
    "peak_rss_mb": "MB",
    "measured_setup_s": "s",
    "measured_wall_s": "s",
    "host_slowdown": "ratio",
}
#: Printed with the others but left out of the JSON result, which is what
#: regressions are judged on.  The latency percentiles spread across
#: seeds by 0.27-0.33 of the median on the shared host the benchmark was
#: built on, beyond any bound the result may carry; the measured times
#: follow that host's speed, which changed by up to 1.8x within minutes
#: (see README.md).
PRINTED_ONLY = ("op_p50_s", "op_p90_s", "measured_setup_s",
                "measured_wall_s", "host_slowdown")

#: Per-layer self-time metrics and the span name each one sums.
SELF_TIMES = {
    "compiler.compile_s": "compiler.compile",
    "compiler.tile_search_s": "compiler.tile_search",
    "executor.run_self_s": "executor.run",
    "cluster.run_s": "cluster.run",
    "kernels.build_s": "kernels.build",
    "kernels.run_self_s": "kernels.run",
    "core.run_s": "core.run",
    "qnn.golden_s": "qnn.golden",
    "analysis.cost_s": "analysis.cost",
    "explore.run_self_s": "explore.run",
    "explore.static_s": "explore.static",
    "explore.pareto_s": "explore.pareto",
    "serve.run_s": "serve.run",
    "serve.execute_s": "serve.execute",
    "serve.cache_get_s": "serve.cache_get",
    "serve.cache_put_s": "serve.cache_put",
    "trace.profile_s": "trace.profile",
    "trace.trace_s": "trace.trace",
    "trace.export_s": "trace.export",
}

#: Per-layer counts, straight from the probes' hooks.
COUNTS = (
    "executor.tiles", "cluster.runs", "cluster.sim_instructions",
    "cluster.tcdm_accesses", "cluster.tcdm_conflicts", "cluster.barriers",
    "kernels.builds", "core.runs", "core.sim_instructions",
    "engine.blocks_translated", "engine.block_hits",
    "engine.fused_dispatches", "engine.fused_instructions",
    "engine.interp_steps", "qnn.golden_calls", "analysis.cost_calls",
    "explore.candidates", "explore.pruned", "explore.simulated",
    "serve.cache_hits", "serve.cache_misses", "trace.events",
)

#: Side-exit reasons reported one by one; any other reason is "other".
SIDE_EXITS = ("loop-shape", "unsupported-op", "nested-loop-end", "budget")


def per_layer_names() -> List[str]:
    return list(SELF_TIMES) + list(COUNTS) + [
        "cluster.sim_ips", "core.sim_ips", "executor.dma_hidden_fraction",
        "engine.block_hit_ratio", "engine.fused_share", "engine.side_exits",
        *(f"engine.side_exits.{r}" for r in SIDE_EXITS + ("other",)),
        "explore.prune_ratio", "serve.cache_hit_ratio",
        "bench.unattributed_s", "bench.unattributed_share",
        "bench.tracing_overhead",
    ]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ips"):
        return "1/s"
    if name.endswith(("_ratio", "_share", "_fraction", "overhead")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

def reference_loop() -> int:
    """A fixed pure-Python loop that shares no code with the program: a
    toy decode-and-dispatch over a register list and a dict memory, the
    kind of work the simulator's interpreter does."""
    regs = [0] * 32
    mem: Dict[int, int] = {}
    acc = 0
    for i in range(60000):
        op, r = i & 7, i & 31
        if op == 0:
            regs[r] = (regs[(i + 1) & 31] + i) & 0xFFFFFFFF
        elif op == 1:
            mem[i & 1023] = regs[r]
        elif op == 2:
            acc ^= mem.get((i * 7) & 1023, 0)
        elif op == 3:
            regs[r] = (regs[r] << 1 | regs[(i + 3) & 31] >> 31) & 0xFFFFFFFF
        elif op == 4:
            acc = (acc + regs[r] * 3) & 0xFFFFFFFF
        else:
            regs[r] ^= acc
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_level(n: int) -> float:
    """p90 from 100 samples up; below that, the highest percentile with
    at least ten samples beyond it (the median when there is none)."""
    if n >= 100:
        return 0.9
    if n <= 11:
        return 0.5
    return (n - 11) / (n - 1)


# ---------------------------------------------------------------------------
# Set-up and rounds
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int):
    """Imports plus seeded input generation: everything before op one."""
    import workloads

    return workloads.WORKLOADS[workload](seed)


def setup_sample(workload: str, seed: int) -> Tuple[float, float]:
    """One set-up in a fresh interpreter, timed by the child itself,
    with the reference loop's time right after it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["reference_s"]


@dataclass
class Round:
    wall: float
    latencies: List[float]
    results: list             # OpResult, or None where the op raised
    names: List[str]
    rec: Optional[object] = None   # probes.Recorder of a traced round
    #: Reference loop times before each operation and after the last.
    refs: List[float] = field(default_factory=list)

    def signature(self, index: int) -> Optional[tuple]:
        res = self.results[index]
        if res is None:
            return None
        return (res.sim_cycles, res.sim_instructions,
                tuple(sorted((res.counts or {}).items())))


def run_round(wl, traced: bool) -> Round:
    wl.begin_round()
    return run_ops(wl.ops(), traced)


def run_ops(ops, traced: bool) -> Round:
    """Issue *ops* back to back, timing each; probed when *traced*."""
    import probes

    rec = probes.Recorder() if traced else None
    latencies, results, refs = [], [], [time_reference()]
    with probes.Probes(rec) if traced else contextlib.nullcontext():
        for index, op in enumerate(ops):
            if rec is not None:
                rec.op = index
            t = time.perf_counter()
            try:
                res = op.run()
            except Exception:
                print(f"error: op {op.name} raised", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                res = None
            latencies.append(time.perf_counter() - t)
            results.append(res)
            refs.append(time_reference())
    return Round(sum(latencies), latencies, results,
                 [op.name for op in ops], rec, refs)


def count_failures(rounds: List[Round], reference: Round,
                   label: str) -> int:
    """Failed or wrong ops, and ops whose simulated counts differ from
    the reference round's."""
    failed = 0
    for r, rnd in enumerate(rounds):
        for i, res in enumerate(rnd.results):
            problem = None
            if res is None:
                problem = "raised"
            elif not res.ok:
                problem = res.detail or "wrong output"
            elif rnd.signature(i) != reference.signature(i):
                problem = (f"simulated counts {rnd.signature(i)} differ "
                           f"from {reference.signature(i)}")
            if problem is not None:
                failed += 1
                print(f"FAIL {label} round {r} op {rnd.names[i]}: {problem}",
                      file=sys.stderr)
    return failed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def best_round(rounds: List[Round]) -> float:
    """A round's measured wall time: the sum over the round's ops of each
    op's best latency across the rounds."""
    return sum(min(rnd.latencies[i] for rnd in rounds)
               for i in range(len(rounds[0].latencies)))


def reference_round(rounds: List[Round]) -> float:
    """A round's time at the reference host speed: per op, the median
    over the rounds of its latency times ``REFERENCE_S`` over the mean of
    the reference loop times right before and after it."""
    return sum(statistics.median(
        rnd.latencies[i] * 2 * REFERENCE_S / (rnd.refs[i] + rnd.refs[i + 1])
        for rnd in rounds) for i in range(len(rounds[0].latencies)))


def end_to_end(rounds: List[Round],
               setups: List[Tuple[float, float]]) -> Tuple[dict, dict]:
    """*setups* holds (set-up time, reference loop time right after)."""
    latencies = [x for rnd in rounds for x in rnd.latencies]
    n = len(latencies)
    level = tail_level(n)
    instructions = sum(res.sim_instructions for rnd in rounds
                       for res in rnd.results if res is not None)
    wall = reference_round(rounds)
    metrics = {
        "setup_s": statistics.median(setup * REFERENCE_S / ref
                                     for setup, ref in setups),
        "wall_s": wall,
        "op_p50_s": percentile(latencies, 0.5),
        "op_p90_s": percentile(latencies, level),
        "sim_ips": instructions / len(rounds) / wall,
        "sim_cycles": sum(res.sim_cycles for res in rounds[0].results
                          if res is not None),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "measured_setup_s": statistics.median(setup for setup, _ in setups),
        "measured_wall_s": best_round(rounds),
        "host_slowdown": statistics.median(
            x for rnd in rounds for x in rnd.refs) / REFERENCE_S,
    }
    notes = {
        "wall_s": f"one round of {len(rounds[0].results)} ops at reference "
                  f"speed: sum of per-op medians of {len(rounds)} rounds",
        "measured_wall_s": f"sum of per-op best of {len(rounds)} rounds",
        "host_slowdown": "median reference loop time / REFERENCE_S",
        "op_p50_s": f"n={n}",
        "op_p90_s": f"p{100 * level:.0f} of n={n}" + (
            "" if level == 0.9 else
            ", highest percentile with >=10 samples beyond" if n > 11 else
            ", median: no percentile has 10 samples beyond"),
        "setup_s": f"median of {SETUP_SAMPLES} set-ups, at reference speed",
        "measured_setup_s": f"median of {SETUP_SAMPLES} set-ups",
        "sim_cycles": "simulated, per round",
    }
    return metrics, notes


def per_layer(traced: List[Round], plain: List[Round]) -> dict:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    rows = []
    for rnd in traced:
        own = rnd.rec.self_time_by_layer()
        counts = rnd.rec.counts
        row = {name: own.get(span, 0.0) for name, span in SELF_TIMES.items()}
        row.update({name: counts.get(name, 0.0) for name in COUNTS})
        exits = {k[len("engine.side_exits."):]: v for k, v in counts.items()
                 if k.startswith("engine.side_exits.")}
        for reason in SIDE_EXITS:
            row[f"engine.side_exits.{reason}"] = exits.get(reason, 0)
        row["engine.side_exits.other"] = sum(
            v for k, v in exits.items() if k not in SIDE_EXITS)
        row["engine.side_exits"] = sum(exits.values())
        row["cluster.sim_ips"] = ratio(row["cluster.sim_instructions"],
                                       row["cluster.run_s"])
        row["core.sim_ips"] = ratio(row["core.sim_instructions"],
                                    row["core.run_s"])
        row["executor.dma_hidden_fraction"] = ratio(
            counts.get("executor.dma_hidden_cycles", 0),
            counts.get("executor.dma_cycles", 0))
        row["engine.block_hit_ratio"] = ratio(
            row["engine.block_hits"],
            row["engine.block_hits"] + row["engine.blocks_translated"])
        row["engine.fused_share"] = ratio(row["engine.fused_instructions"],
                                          row["core.sim_instructions"])
        row["explore.prune_ratio"] = ratio(row["explore.pruned"],
                                           row["explore.candidates"])
        row["serve.cache_hit_ratio"] = ratio(
            row["serve.cache_hits"],
            row["serve.cache_hits"] + row["serve.cache_misses"])
        unattributed = rnd.wall - rnd.rec.covered()
        row["bench.unattributed_s"] = unattributed
        row["bench.unattributed_share"] = ratio(unattributed, rnd.wall)
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    metrics["bench.tracing_overhead"] = (
        reference_round(traced) / reference_round(plain) - 1)
    return metrics


def count_drift(traced: List[Round]) -> int:
    """Per-layer counts of every traced round must equal the first's."""
    first = dict(traced[0].rec.counts)
    drift = 0
    for r, rnd in enumerate(traced[1:], start=1):
        if dict(rnd.rec.counts) != first:
            changed = sorted(k for k in set(first) | set(rnd.rec.counts)
                             if first.get(k) != rnd.rec.counts.get(k))
            print(f"FAIL traced round {r}: layer counts changed: "
                  f"{', '.join(changed)}", file=sys.stderr)
            drift += 1
    return drift


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):d}"
    return f"{value:.6g}"


def report(args, wl_name: str, rounds: int, ops: int, metrics: dict,
           units: Dict[str, str], notes: Dict[str, str], attempted: int,
           failed: int) -> None:
    print(f"== {wl_name}  seed={args.seed}  closed loop, 1 client, no "
          f"workers  {rounds} rounds x {ops} ops  trace={args.trace}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<34s} {fmt(value):>14s} {units[name]:<7s} {note}")
    print(f"  {'error_rate':<34s} {fmt(failed / attempted):>14s} "
          f"{'ratio':<7s} {failed} of {attempted} ops failed")


def run_all(args) -> int:
    """``--workload all``: every workload in its own process."""
    import workloads

    merged: Dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 and not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and proc.returncode == 0
        for metric, value in result["metrics"].items():
            merged[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    wl = set_up(args.workload, args.seed)
    own_setup = (time.perf_counter() - _T0, time_reference())
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup[0],
                          "reference_s": own_setup[1]}))
        return 0

    plain, traced, setups = [], [], [own_setup]
    try:
        once = run_ops(wl.once(), traced=False)
        if args.trace:
            import probes

            probes.import_program()
        # No round starts that the last one says would end past the
        # deadline, so a run takes --seconds, not up to a round more.
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        while len(plain) < MIN_ROUNDS or \
                time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            plain.append(run_round(wl, traced=False))
            if args.trace:
                traced.append(run_round(wl, traced=True))
            elif len(setups) < SETUP_SAMPLES:
                # Set-ups are spread over the run, so that one slow
                # stretch of the shared host does not hold all of them.
                setups.append(setup_sample(args.workload, args.seed))
            last = time.perf_counter() - start
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(args.workload, args.seed))
    finally:
        wl.close()

    reference = plain[0]
    failed = count_failures(plain, reference, "plain")
    failed += count_failures([once], once, "once")
    attempted = sum(len(r.results) for r in [once] + plain + traced)
    if traced:
        # Traced and plain rounds must simulate identically.
        failed += count_failures(traced, reference, "traced")
        failed += count_drift(traced)
        metrics = per_layer(traced, plain)
        names = per_layer_names()
        metrics = {name: metrics[name] for name in names}
        units = {name: per_layer_unit(name) for name in names}
        notes = {"bench.unattributed_share":
                 "of traced round wall (target <= 0.10)"}
    else:
        metrics, notes = end_to_end(plain, setups)
        units = E2E_UNITS
    report(args, wl.name, len(plain), len(reference.results), metrics, units,
           notes, attempted, failed)
    for name, latency, res in zip(once.names, once.latencies, once.results):
        cycles = "raised" if res is None else f"{res.sim_cycles} cycles"
        print(f"  once per run: {name} {latency:.4g} s, {cycles}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                    if name not in PRINTED_ONLY},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
