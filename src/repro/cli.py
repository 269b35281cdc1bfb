"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``asm``     assemble a text file to a flat binary;
* ``disasm``  decode a flat binary back to assembly;
* ``run``     assemble + execute a program, print registers and counters;
* ``trace``   execute a program or built-in kernel under the structured
  tracer and export a Chrome-trace/Perfetto JSON timeline;
* ``profile`` execute a program or built-in kernel and print per-region
  cycle/stall attribution (``--json`` for machine-readable output);
* ``report``  regenerate the paper's tables/figures (``--full`` for the
  exact paper layer, ``--trajectory`` to also write a benchmark-
  trajectory JSON summary);
* ``compile`` lower a reference network through the deployment compiler
  (memory-aware tiling + double-buffered cluster execution); prints the
  plan, runs it bit-exactly, optionally lints every emitted tiled
  program and exports the merged Perfetto timeline;
* ``lint``    static verification of programs (``--kernels`` for every
  built-in kernel builder, ``--race`` for the dynamic TCDM race
  detector, ``--isa-strings`` for the source-tree core-name gate).
  Exits non-zero when findings or races are reported;
* ``targets`` list the registered machine targets (the ``--isa`` and
  ``--target`` flags resolve against this registry);
* ``serve``   run a batch of typed simulation jobs from a JSON job file
  (or stdin) through the batch service: content-addressed result cache,
  deduplication, crash-isolated worker pool (``--workers``);
* ``sweep``   expand a cartesian sweep on the command line
  (``repro sweep scaling bits=8,4,2 cores=1,2,4,8``) and run it through
  the same service;
* ``cache``   inspect (``stats``) or bound (``prune --max-bytes N``)
  the on-disk result cache;
* ``metrics`` dump a service-metrics snapshot (``--format json|prom``)
  from a snapshot file, serve report, or event log;
* ``perf``    the perf-regression sentinel: ``repro perf diff A B``
  compares two trajectory snapshots series-by-series (cycle-exact
  series must be bit-identical) and exits non-zero when a series
  drifts or disappears.

``serve``/``sweep`` accept ``--events`` (structured JSONL event log),
``--fleet-timeline`` (merged service+workers+device Perfetto trace),
and ``--metrics-out`` (merged metrics snapshot).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import __version__
from .asm import Assembler, disassemble_bytes, format_instruction
from .core import Cpu
from .errors import ReproError
from .target.names import RV32IMC, XPULPNN


def _isa_choices() -> tuple:
    """Assembler/simulator ISA choices: configs + single-core targets."""
    from .target import riscv_targets

    names = [RV32IMC]
    names += [spec.name for spec in riscv_targets() if not spec.cluster]
    return tuple(names)


def _isa_config(name: str) -> str:
    """Resolve an ``--isa`` value (target name or ISA config) to a config."""
    from .errors import TargetError
    from .target import get_target

    try:
        return get_target(name).isa
    except TargetError:
        return name  # raw ISA config names (e.g. rv32imc)


def _cmd_asm(args: argparse.Namespace) -> int:
    source = open(args.input).read()
    program = Assembler(isa=_isa_config(args.isa), base=args.base).assemble(source)
    blob = program.encode()
    out = args.output or (os.path.splitext(args.input)[0] + ".bin")
    with open(out, "wb") as handle:
        handle.write(blob)
    print(f"{args.input}: {len(program)} instructions, {len(blob)} bytes -> {out}")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    blob = open(args.input, "rb").read()
    for ins in disassemble_bytes(blob, isa=_isa_config(args.isa), base=args.base):
        print(f"{ins.addr:#010x}:  {format_instruction(ins, symbolic=False)}")
    return 0


def _load_and_run(args: argparse.Namespace, attach=None):
    """Assemble ``args.input``, execute it, return ``(program, cpu, perf)``.

    *attach(program, cpu)* may hook a tracer or a region profile onto the
    core before it runs (the program gives it the region map).
    """
    source = open(args.input).read()
    isa = _isa_config(args.isa)
    program = Assembler(isa=isa, base=args.base).assemble(source)
    cpu = Cpu(isa=isa)
    if attach is not None:
        attach(program, cpu)
    cpu.load_program(program)
    for binding in getattr(args, "reg", None) or ():
        name, _, value = binding.partition("=")
        from .isa.registers import parse_register

        cpu.regs[parse_register(name)] = int(value, 0)
    perf = cpu.run(max_instructions=args.max_instructions)
    return program, cpu, perf


def _cmd_run(args: argparse.Namespace) -> int:
    attach = None
    if args.trace:
        from .trace import TextTracer

        def attach(program, cpu):
            cpu.tracer = TextTracer()
    _, cpu, perf = _load_and_run(args, attach)
    print(f"halted: {cpu.halted}")
    print(f"cycles={perf.cycles} instructions={perf.instructions} "
          f"ipc={perf.ipc:.3f} stalls={perf.total_stalls}")
    stats = cpu.engine_stats
    if stats is not None:
        fused = stats["fused_instructions"]
        share = fused / perf.instructions if perf.instructions else 0.0
        print(f"engine: {stats['blocks_translated']} blocks translated, "
              f"{stats['block_hits']} cache hits, "
              f"{stats['fused_dispatches']} fused dispatches "
              f"({share:.0%} of instructions), "
              f"{stats['interp_steps']} interpreter steps")
    from .isa.registers import ABI_NAMES

    nonzero = [(ABI_NAMES[i], cpu.regs[i]) for i in range(1, 32) if cpu.regs[i]]
    for name, value in nonzero:
        print(f"  {name:>5s} = {value:#010x} ({value})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .trace import EventTracer, write_chrome_trace

    if args.kernel:
        from .trace.profile import trace_kernel

        tracer = trace_kernel(args.kernel, cores=args.cores,
                              detail=args.detail, target=args.target)
        title = args.kernel + (f" x{args.cores}" if args.cores > 1 else "")
        if args.target:
            title += f" on {args.target}"
    else:
        if not args.input:
            raise ReproError("pass a source file or --kernel NAME")

        def attach(program, cpu):
            cpu.tracer = EventTracer(program=program, detail=args.detail,
                                     default_region="code")

        _, cpu, _ = _load_and_run(args, attach)
        tracer = cpu.tracer
        title = os.path.basename(args.input)
    payload = write_chrome_trace(tracer, args.out, title=title)
    events = len(payload["traceEvents"])
    cores = len(tracer.cores)
    cycles = max(tracer.end_cycles.values(), default=0)
    print(f"{args.out}: {events} events, {cores} core(s), {cycles} cycles")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.list:
        from .eval.matrix import caveats, suite_points

        for point in suite_points():
            print(f"  {point.suite_name:<18s} {point.description}")
            for note in caveats(point):
                print(f"  {'':<18s} {note}")
        return 0
    if args.kernel:
        from .trace.profile import profile_kernel

        result = profile_kernel(args.kernel, cores=args.cores,
                                target=args.target)
        if args.json:
            import json

            print(json.dumps(_jsonify(result.to_dict()), indent=2))
        else:
            print(result.render())
        return 0
    if not args.input:
        raise ReproError("pass a source file or --kernel NAME")
    from .core import RegionCounters

    def attach(program, cpu):
        cpu.regions = RegionCounters(program=program, default_region="code")

    _, cpu, perf = _load_and_run(args, attach)
    if args.json:
        import json

        payload = {
            "program": args.input,
            "cycles": perf.cycles,
            "instructions": perf.instructions,
            "ipc": perf.ipc,
            "regions": cpu.regions.to_dict(),
        }
        print(json.dumps(_jsonify(payload), indent=2))
    else:
        print(f"{args.input}: cycles {perf.cycles:,}  "
              f"instructions {perf.instructions:,}  ipc {perf.ipc:.3f}")
        print(cpu.regions.render())
    return 0


def _cmd_isa(args: argparse.Namespace) -> int:
    """Print the instruction reference generated from the live registry."""
    from .isa import build_isa

    isa = build_isa(_isa_config(args.isa))
    subset_filter = args.subset
    by_subset = {}
    for spec in isa.specs:
        by_subset.setdefault(spec.isa, []).append(spec)
    for subset, specs in by_subset.items():
        if subset_filter and subset != subset_filter:
            continue
        print(f"\n== {subset} ({len(specs)} instructions) ==")
        for spec in sorted(specs, key=lambda s: s.mnemonic):
            operands = ", ".join(spec.syntax)
            flags = []
            if spec.rd_is_src:
                flags.append("acc")
            if spec.timing not in ("alu",):
                flags.append(spec.timing)
            note = f"   [{', '.join(flags)}]" if flags else ""
            print(f"  {spec.mnemonic:<18s} {operands:<28s}{note}")
    return 0


def _jsonify(value):
    """Recursively convert experiment results to JSON-encodable data."""
    import dataclasses

    import numpy as np

    if hasattr(value, "to_dict"):
        return _jsonify(value.to_dict())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {
            k if isinstance(k, str) else "/".join(str(p) for p in k)
            if isinstance(k, tuple) else str(k): _jsonify(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


#: ``repro report`` experiments: name -> module under ``repro.eval``.
REPORT_EXPERIMENTS = {
    "fig6": "fig6", "fig7": "fig7", "fig8": "fig8", "fig9": "fig9",
    "table1": "table1", "table3": "table3", "cluster": "cluster_scaling",
    "network": "network",
}


def _cmd_report(args: argparse.Namespace) -> int:
    import importlib

    if args.full:
        os.environ["REPRO_FULL"] = "1"
    selected = args.experiments or sorted(REPORT_EXPERIMENTS)
    for name in selected:
        if name not in REPORT_EXPERIMENTS:
            raise ReproError(f"unknown experiment {name!r}; choose from "
                             f"{sorted(REPORT_EXPERIMENTS)}")
    modules = {
        name: importlib.import_module(f".eval.{REPORT_EXPERIMENTS[name]}",
                                      __package__)
        for name in selected
    }
    if args.trajectory and not args.json:
        raise ReproError("--trajectory requires --json")
    if args.json:
        import json

        payload = {
            name: _jsonify(modules[name].run()) for name in selected
        }
        if args.trajectory:
            from .eval.trajectory import write_trajectory

            summary = write_trajectory(payload, args.trajectory)
            print(f"trajectory: {len(summary['entries'])} series -> "
                  f"{args.trajectory}", file=sys.stderr)
        print(json.dumps(payload, indent=2))
        return 0
    for name in selected:
        module = modules[name]
        print("=" * 78)
        print(module.render(module.run()))
        print()
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from .compiler import NetworkCompiler, PlanExecutor, build_network

    built = build_network(args.network)
    budget = args.tcdm if args.tcdm else built.tcdm_budget
    compiled = NetworkCompiler(
        built.network, built.input_shape, input_bits=built.input_bits,
        num_cores=args.cores, tcdm_budget=budget,
    ).compile()

    lint_failures = 0
    if args.lint:
        from .analysis import lint_program

        reports = [
            lint_program(program, name=name)
            for name, program in compiled.programs()
        ]
        lint_failures = sum(not report.ok for report in reports)
        if not args.json:
            for report in reports:
                if not report.ok:
                    print(report.render())
            print(f"lint: {len(reports)} tiled program(s) checked, "
                  f"{lint_failures} with findings")

    if args.plan_only:
        if args.json:
            import json

            print(json.dumps(_jsonify(compiled.to_dict()), indent=2))
        else:
            print(compiled.render())
        return 1 if lint_failures else 0

    executor = PlanExecutor(compiled, trace=bool(args.trace))
    result = executor.run(built.input)
    if args.trace:
        executor.timeline.write(
            args.trace, title=f"{args.network} deployment")
        print(f"timeline -> {args.trace} "
              f"(open in https://ui.perfetto.dev)", file=sys.stderr)
    if args.json:
        import json

        payload = {
            "network": args.network,
            "cores": args.cores,
            "tcdm_budget": budget,
            "total_tiles": compiled.total_tiles,
            "tile_search": compiled.tile_search.to_dict(),
            **result.to_dict(),
        }
        print(json.dumps(_jsonify(payload), indent=2))
    else:
        print(compiled.render())
        print()
        print(result.render())
    if not result.verified:
        print("error: compiled execution diverged from golden",
              file=sys.stderr)
        return 1
    return 1 if lint_failures else 0


def _load_allowlist(path: str):
    """Accepted-findings set: ``{(program, checker)}`` from a JSON file."""
    import json

    with open(path) as handle:
        data = json.load(handle)
    entries = data.get("entries", data) if isinstance(data, dict) else data
    allow = set()
    for entry in entries:
        allow.add((entry["program"], entry["checker"]))
    return allow


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        CHECKERS,
        checker_catalog,
        builtin_kernel_programs,
        default_checks,
        lint_program,
        perf_checks,
        run_race_check,
    )
    from .analysis.catalog import compiled_network_programs

    if args.list_checkers:
        defaults = set(default_checks())
        for name, description in checker_catalog():
            tag = "" if name in defaults else "  [perf, opt-in]"
            print(f"  {name:<18s} {description}{tag}")
        return 0

    checks = None
    if args.checks:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        for check in checks:
            if check not in CHECKERS:
                raise ReproError(
                    f"unknown checker {check!r}; choose from "
                    f"{sorted(CHECKERS)}")
    if args.perf:
        base = checks if checks is not None else default_checks()
        checks = sorted(set(base) | set(perf_checks()))

    if args.isa_strings:
        from .analysis.srclint import render_report, scan_tree

        findings = scan_tree()
        if args.json:
            import json

            print(json.dumps({
                "ok": not findings,
                "findings": [_jsonify(f) for f in findings],
            }, indent=2))
        else:
            print(render_report(findings))
        return 1 if findings else 0

    reports = []
    if args.race:
        reports.append(run_race_check(args.race, cores=args.cores))
    if args.kernels:
        for name, program in builtin_kernel_programs():
            reports.append(lint_program(program, checks=checks, name=name))
        # Compiler-lowered tiled programs ride along so lowering
        # regressions are caught statically, not just hand-written code.
        for name, program in compiled_network_programs():
            reports.append(lint_program(program, checks=checks, name=name))
    for path in args.inputs:
        source = open(path).read()
        program = Assembler(isa=_isa_config(args.isa),
                            base=args.base).assemble(source)
        reports.append(lint_program(program, checks=checks, name=path))
    if not reports:
        raise ReproError(
            "nothing to lint: pass source files, --kernels, or --race")

    allowed = 0
    if args.allowlist:
        allow = _load_allowlist(args.allowlist)
        for report in reports:
            if not hasattr(report, "findings"):
                continue  # race reports have no findings list
            kept = [f for f in report.findings
                    if (report.name, f.checker) not in allow]
            allowed += len(report.findings) - len(kept)
            report.findings[:] = kept

    def bad(report) -> bool:
        if not report.ok:
            return True
        return args.strict and bool(getattr(report, "findings", ()))

    failed = sum(bad(report) for report in reports)
    if args.json:
        import json

        payload = {
            "ok": failed == 0,
            "schema_version": _lint_schema_version(),
            "allowlisted": allowed,
            "reports": [_jsonify(report) for report in reports],
        }
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(report.render())
        suffix = f" ({allowed} allowlisted)" if allowed else ""
        print(f"{len(reports)} program(s) checked, {failed} with "
              f"findings{suffix}")
    return 1 if failed else 0


def _lint_schema_version() -> int:
    from .analysis import LINT_SCHEMA_VERSION

    return LINT_SCHEMA_VERSION


def _cmd_cost(args: argparse.Namespace) -> int:
    from .analysis import analyze_cost
    from .analysis.catalog import (
        catalog_kernel_names,
        compiled_network_programs,
        kernel_program,
    )

    if args.list:
        for name in catalog_kernel_names():
            print(f"  {name}")
        return 0

    reports = []
    if args.kernel:
        program = kernel_program(args.kernel)
        reports.append(analyze_cost(program, name=args.kernel,
                                    hart_id=args.hart))
    if args.network:
        for name, program in compiled_network_programs(
                args.network, cores=args.cores):
            reports.append(analyze_cost(program, name=name,
                                        hart_id=args.hart))
    for path in args.inputs:
        source = open(path).read()
        program = Assembler(isa=_isa_config(args.isa),
                            base=args.base).assemble(source)
        reports.append(analyze_cost(program, name=path, hart_id=args.hart))
    if not reports:
        raise ReproError(
            "nothing to cost: pass source files, --kernel, or --network")

    unbounded = sum(not report.bounded for report in reports)
    if args.json:
        import json

        print(json.dumps({
            "ok": unbounded == 0,
            "reports": [report.to_dict() for report in reports],
        }, indent=2))
    else:
        for report in reports:
            print(report.render())
    return 1 if unbounded else 0


def _serve_service(args: argparse.Namespace):
    """Build a :class:`SimulationService` from the shared serve flags."""
    from .serve import SimulationService, open_cache
    from .telemetry import EventLog, FleetRecorder

    cache = open_cache(args.cache_dir, enabled=not args.no_cache)
    progress = None
    if not args.json and not args.quiet:
        def progress(event):
            print(event.render(), file=sys.stderr)
    events = EventLog(args.events) if getattr(args, "events", None) else None
    fleet = FleetRecorder() if getattr(args, "fleet_timeline", None) else None
    return SimulationService(cache=cache, workers=args.workers,
                             timeout=args.timeout, progress=progress,
                             events=events, fleet=fleet)


def _finish_telemetry(service, report, args: argparse.Namespace) -> None:
    """Flush the telemetry sinks the serve flags asked for."""
    import json

    if service.events is not None:
        service.events.close()
        print(f"events -> {args.events}", file=sys.stderr)
    if service.fleet is not None:
        payload = service.fleet.write(
            args.fleet_timeline,
            title=getattr(report, "label", "") or "sweep")
        print(f"fleet timeline -> {args.fleet_timeline} "
              f"({len(payload['traceEvents'])} events; open in "
              f"https://ui.perfetto.dev)", file=sys.stderr)
    if getattr(args, "metrics_out", None):
        from .telemetry import default_registry

        snapshot = (getattr(report, "metrics", None)
                    or default_registry().snapshot())
        with open(args.metrics_out, "w") as handle:
            json.dump(snapshot, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"metrics -> {args.metrics_out}", file=sys.stderr)


def _emit_report(report, args: argparse.Namespace) -> int:
    import json

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"report -> {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from .serve import ServeError, SweepJob, job_from_dict

    if args.input and args.input != "-":
        with open(args.input) as handle:
            payload = json.load(handle)
    else:
        payload = json.load(sys.stdin)
    try:
        if isinstance(payload, list):
            sweep = SweepJob(points=tuple(job_from_dict(p) for p in payload))
        else:
            job = job_from_dict(payload)
            sweep = job if isinstance(job, SweepJob) \
                else SweepJob(points=(job,))
    except (TypeError, ValueError) as exc:
        raise ServeError(f"bad job file: {exc}")
    if args.label:
        sweep = dataclasses.replace(sweep, label=args.label)
    service = _serve_service(args)
    report = service.sweep(sweep)
    _finish_telemetry(service, report, args)
    return _emit_report(report, args)


def _parse_axis_value(token: str):
    import json

    try:
        return json.loads(token)
    except json.JSONDecodeError:
        return token


def _parse_axes(specs) -> dict:
    from .serve import ServeError

    axes = {}
    for spec in specs:
        name, sep, values = spec.partition("=")
        if not sep or not name or not values:
            raise ServeError(
                f"bad axis {spec!r}; expected FIELD=VALUE[,VALUE...]")
        axes[name] = [_parse_axis_value(v) for v in values.split(",")]
    return axes


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .serve import cartesian_sweep

    base = {}
    for binding in args.base or ():
        for name, values in _parse_axes([binding]).items():
            base[name] = values[0]
    sweep = cartesian_sweep(args.job, _parse_axes(args.axes),
                            label=args.label or args.job, base=base,
                            skip_invalid=args.skip_invalid)
    if not sweep.points:
        raise ReproError("sweep expanded to zero valid points")
    if args.expand_only:
        import json

        print(json.dumps([p.to_dict() for p in sweep.points], indent=2))
        return 0
    service = _serve_service(args)
    report = service.sweep(sweep)
    _finish_telemetry(service, report, args)
    return _emit_report(report, args)


def _parse_bytes(value: str) -> int:
    """Parse a byte budget: plain int or k/M/G-suffixed (1024-based)."""
    text = value.strip()
    scale = 1
    suffixes = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
    if text and text[-1].lower() in suffixes:
        scale = suffixes[text[-1].lower()]
        text = text[:-1]
    try:
        return int(text, 0) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad byte count {value!r} (use e.g. 500000, 64k, 10M, 1G)")


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .serve import ResultCache, default_cache_root

    cache = ResultCache(args.cache_dir or default_cache_root())
    if args.action == "stats":
        stats = cache.disk_stats()
        if args.json:
            print(json.dumps({"root": str(cache.root), **stats}, indent=2))
        else:
            print(f"{cache.root}: {stats['entries']} entries, "
                  f"{stats['bytes']:,} bytes")
        return 0
    # prune
    if args.max_bytes is None:
        raise ReproError("cache prune needs --max-bytes")
    outcome = cache.prune(args.max_bytes)
    if args.json:
        print(json.dumps({"root": str(cache.root),
                          "max_bytes": args.max_bytes, **outcome}, indent=2))
    else:
        print(f"{cache.root}: pruned {outcome['removed']} entries "
              f"({outcome['bytes_freed']:,} bytes freed, "
              f"{outcome['bytes_kept']:,} kept, "
              f"budget {args.max_bytes:,})")
    return 0


def _metrics_snapshot(args: argparse.Namespace):
    """Resolve the snapshot ``repro metrics`` should render.

    ``--input`` accepts a metrics snapshot file, a serve report (uses
    its ``metrics`` key), or a JSONL event log (uses the last
    ``metrics`` event); without it, the current process registry is
    dumped (useful mostly for tooling smoke tests).
    """
    import json

    from .telemetry import MetricsError, default_registry

    if not args.input:
        return default_registry().snapshot()
    with open(args.input) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None          # more than one JSON value: treat as JSONL
    if isinstance(doc, dict):
        if doc.get("schema") == "repro-metrics/1":
            return doc
        if isinstance(doc.get("metrics"), dict):
            return doc["metrics"]
        raise MetricsError(
            f"{args.input}: neither a metrics snapshot nor a serve "
            f"report with a 'metrics' key")
    snapshots = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            raise MetricsError(
                f"{args.input}: neither a JSON document nor a JSONL "
                f"event log") from None
        if isinstance(record, dict) and record.get("event") == "metrics":
            snapshots.append(record["snapshot"])
    if not snapshots:
        raise MetricsError(f"{args.input}: no metrics events found")
    return snapshots[-1]


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .telemetry import render_prom, validate_metrics_snapshot

    snapshot = _metrics_snapshot(args)
    validate_metrics_snapshot(snapshot)
    if args.format == "prom":
        sys.stdout.write(render_prom(snapshot))
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    import json

    from .telemetry import diff_files, render_verdict

    verdict = diff_files(args.old, args.new)
    if args.json:
        print(json.dumps(verdict, indent=2))
    else:
        print(render_verdict(verdict))
    return 0 if verdict["ok"] else 1


def _parse_explore_points(text: str):
    points = []
    for token in text.split(","):
        bits, sep, quant = token.partition(":")
        if not sep:
            raise ReproError(
                f"bad point {token!r}; expected BITS:QUANT, e.g. 4:hw")
        points.append((int(bits), quant))
    return tuple(points)


def _explore_network(args: argparse.Namespace) -> int:
    import json

    from .explore import (
        MIXED3_ASSIGNMENTS,
        NetworkSpace,
        Objective,
        pareto_front,
    )

    assignments = tuple(
        tuple(int(b) for b in spec.split(","))
        for spec in (args.assign or ())
    ) or MIXED3_ASSIGNMENTS
    space = NetworkSpace(network=args.network, assignments=assignments,
                         cores=args.net_cores)
    service = _serve_service(args)
    report = service.run(space.jobs(), label=f"explore-{args.network}")
    points = []
    for assignment, outcome in zip(assignments, report.results):
        if not outcome.ok:
            print(f"assignment {assignment}: {outcome.message}",
                  file=sys.stderr)
            continue
        points.append({
            "label": "/".join(str(b) for b in assignment),
            "assignment": list(assignment),
            "bits": sum(assignment),
            "cycles": outcome.payload["cycles"],
            "energy_uj": round(outcome.payload["energy_uj"], 4),
            "verified": outcome.payload["verified"],
        })
    objectives = (Objective("cycles", "min"),
                  Objective("energy_uj", "min", band=0.005),
                  Objective("bits", "max"))
    result = pareto_front(points, objectives)
    frontier = {points[i]["label"] for i in result.frontier}
    doc = {
        "space": space.to_dict(),
        "points": points,
        "frontier": sorted(frontier),
    }
    _finish_telemetry(service, report, args)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        from .eval.reporting import format_table

        print(format_table(
            ("assignment", "cycles", "energy uJ", "verified", "frontier"),
            [(p["label"], p["cycles"], p["energy_uj"], p["verified"],
              "*" if p["label"] in frontier else "")
             for p in sorted(points, key=lambda p: p["cycles"])],
            title=f"per-layer precision: {args.network} "
                  f"({space.cores} cores)"))
    return 0 if len(points) == len(assignments) else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from .explore import DesignSpaceExplorer, named_space

    if args.network:
        return _explore_network(args)
    space = named_space(args.space)
    overrides = {}
    if args.cores:
        overrides["cores"] = tuple(int(v) for v in args.cores.split(","))
    if args.tcdm:
        overrides["tcdm_kb"] = tuple(int(v) for v in args.tcdm.split(","))
    if args.l2:
        overrides["l2_kb"] = tuple(int(v) for v in args.l2.split(","))
    if args.points:
        overrides["points"] = _parse_explore_points(args.points)
    if overrides:
        space = dataclasses.replace(space, **overrides)
    service = _serve_service(args)
    explorer = DesignSpaceExplorer(space, service=service,
                                   prune=not args.no_prune)
    report = explorer.run(verify=not args.no_verify)
    _finish_telemetry(service, report, args)
    doc = report.to_dict()
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
        print(f"explore report -> {args.report}", file=sys.stderr)
    if args.trajectory:
        from .eval.trajectory import write_trajectory

        write_trajectory(report.trajectory_payload(), args.trajectory)
        print(f"trajectory -> {args.trajectory}", file=sys.stderr)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(report.render())
    return 0 if not report.failed else 1


def _cmd_targets(args: argparse.Namespace) -> int:
    from .target import list_targets

    specs = list_targets(family=args.family)
    if args.json:
        import json

        print(json.dumps([{
            **spec.to_dict(),
            "digest": spec.digest(),
            "capabilities": spec.capabilities(),
        } for spec in specs], indent=2))
        return 0
    print(f"{'name':<18s} {'family':<7s} {'isa':<8s} {'cores':>5s} "
          f"{'l2':>7s} {'tcdm':>7s} {'quant':>5s}  description")
    for spec in specs:
        print(f"{spec.name:<18s} {spec.family:<7s} {spec.isa or '-':<8s} "
              f"{spec.cores:>5d} {spec.l2_bytes // 1024:>5d}kB "
              f"{(spec.tcdm_bytes // 1024 if spec.tcdm_bytes else 0):>5d}kB "
              f"{spec.quant:>5s}  {spec.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XpulpNN reproduction toolkit (DATE 2020)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    asm = sub.add_parser("asm", help="assemble a source file to a binary")
    asm.add_argument("input")
    asm.add_argument("-o", "--output")
    asm.add_argument("--isa", default=XPULPNN, choices=_isa_choices(),
                     help="ISA config or registered target name")
    asm.add_argument("--base", type=lambda v: int(v, 0), default=0)
    asm.set_defaults(func=_cmd_asm)

    dis = sub.add_parser("disasm", help="disassemble a flat binary")
    dis.add_argument("input")
    dis.add_argument("--isa", default=XPULPNN, choices=_isa_choices())
    dis.add_argument("--base", type=lambda v: int(v, 0), default=0)
    dis.set_defaults(func=_cmd_disasm)

    run = sub.add_parser("run", help="assemble and execute a program")
    run.add_argument("input")
    run.add_argument("--isa", default=XPULPNN, choices=_isa_choices())
    run.add_argument("--base", type=lambda v: int(v, 0), default=0)
    run.add_argument("--reg", action="append", metavar="NAME=VALUE",
                     help="preload a register, e.g. --reg a0=0x1000")
    run.add_argument("--trace", action="store_true")
    run.add_argument("--max-instructions", type=int, default=50_000_000)
    run.set_defaults(func=_cmd_run)

    trace = sub.add_parser(
        "trace", help="execute under the tracer, export a Perfetto timeline")
    trace.add_argument("input", nargs="?",
                       help="assembly source file (or use --kernel)")
    trace.add_argument("--kernel", metavar="NAME",
                       help="trace a built-in kernel (see profile --list)")
    trace.add_argument("--cores", type=int, default=1,
                       help="run --kernel on an N-core cluster")
    trace.add_argument("--target", metavar="NAME",
                       help="retarget --kernel to a registered target "
                            "(see repro targets)")
    trace.add_argument("--detail", default="spans",
                       choices=("spans", "full"),
                       help="'full' adds per-retire and memory events")
    trace.add_argument("--out", default="trace.json",
                       help="output path (Chrome trace-event JSON)")
    trace.add_argument("--isa", default=XPULPNN, choices=_isa_choices())
    trace.add_argument("--base", type=lambda v: int(v, 0), default=0)
    trace.add_argument("--reg", action="append", metavar="NAME=VALUE")
    trace.add_argument("--max-instructions", type=int, default=50_000_000)
    trace.set_defaults(func=_cmd_trace)

    profile = sub.add_parser(
        "profile", help="per-region cycle/stall attribution")
    profile.add_argument("input", nargs="?",
                         help="assembly source file (or use --kernel)")
    profile.add_argument("--kernel", metavar="NAME",
                         help="profile a built-in kernel, e.g. conv_4bit")
    profile.add_argument("--cores", type=int, default=1,
                         help="run --kernel on an N-core cluster")
    profile.add_argument("--target", metavar="NAME",
                         help="retarget --kernel to a registered target "
                              "(see repro targets)")
    profile.add_argument("--list", action="store_true",
                         help="print the kernel catalog and exit")
    profile.add_argument("--json", action="store_true",
                         help="emit machine-readable output")
    profile.add_argument("--isa", default=XPULPNN, choices=_isa_choices())
    profile.add_argument("--base", type=lambda v: int(v, 0), default=0)
    profile.add_argument("--reg", action="append", metavar="NAME=VALUE")
    profile.add_argument("--max-instructions", type=int, default=50_000_000)
    profile.set_defaults(func=_cmd_profile)

    isa = sub.add_parser("isa", help="print the instruction-set reference")
    isa.add_argument("--isa", default=XPULPNN, choices=_isa_choices())
    isa.add_argument("--subset", help="only one subset (e.g. xpulpnn)")
    isa.set_defaults(func=_cmd_isa)

    report = sub.add_parser("report", help="regenerate paper tables/figures")
    report.add_argument("experiments", nargs="*",
                        help="fig6 fig7 fig8 fig9 table1 table3 cluster "
                             "network (default all)")
    report.add_argument("--full", action="store_true",
                        help="use the paper's exact layer (slow)")
    report.add_argument("--json", action="store_true",
                        help="emit results as JSON instead of tables")
    report.add_argument("--trajectory", metavar="PATH",
                        help="also write a benchmark-trajectory JSON "
                             "summary (cycle counts per figure/kernel); "
                             "requires --json")
    report.set_defaults(func=_cmd_report)

    compile_ = sub.add_parser(
        "compile",
        help="tile + deploy a reference network on the cluster model")
    compile_.add_argument("--network", default="mixed3",
                          help="catalog entry: mixed3, over-l2, paper")
    compile_.add_argument("--cores", type=int, default=8,
                          help="cluster cores (default 8)")
    compile_.add_argument("--tcdm", type=lambda v: int(v, 0), default=None,
                          metavar="BYTES",
                          help="TCDM budget (default: catalog "
                               "recommendation)")
    compile_.add_argument("--plan-only", action="store_true",
                          help="print the tiling/memory plan, don't run")
    compile_.add_argument("--trace", metavar="PATH",
                          help="export the merged compute/DMA timeline "
                               "(Chrome trace-event JSON)")
    compile_.add_argument("--lint", action="store_true",
                          help="statically verify every emitted tiled "
                               "program")
    compile_.add_argument("--json", action="store_true",
                          help="emit machine-readable results")
    compile_.set_defaults(func=_cmd_compile)

    lint = sub.add_parser(
        "lint", help="statically verify programs / detect TCDM races")
    lint.add_argument("inputs", nargs="*",
                      help="assembly source files to verify")
    lint.add_argument("--isa", default=XPULPNN, choices=_isa_choices())
    lint.add_argument("--base", type=lambda v: int(v, 0), default=0)
    lint.add_argument("--kernels", action="store_true",
                      help="verify every built-in kernel-builder program")
    lint.add_argument("--checks", metavar="NAME[,NAME...]",
                      help="run only the named checkers")
    lint.add_argument("--race", choices=("matmul", "conv"),
                      help="run the parallel kernel under the dynamic "
                           "TCDM race detector")
    lint.add_argument("--cores", type=int, default=2,
                      help="cluster cores for --race (default 2)")
    lint.add_argument("--isa-strings", action="store_true",
                      help="scan the package sources for bare core-name "
                           "string literals outside repro.target")
    lint.add_argument("--list-checkers", action="store_true",
                      help="print the checker catalog and exit")
    lint.add_argument("--perf", action="store_true",
                      help="also run the opt-in performance-hazard "
                           "checkers (load-use-stall, tcdm-bank-conflict, "
                           "missed-simd, hwloop-overhead)")
    lint.add_argument("--allowlist", metavar="PATH",
                      help="JSON file of accepted findings "
                           "({program, checker} entries); matching "
                           "findings are dropped before reporting")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as failures (CI mode)")
    lint.add_argument("--json", action="store_true",
                      help="emit reports as JSON")
    lint.set_defaults(func=_cmd_lint)

    cost = sub.add_parser(
        "cost",
        help="statically derive cycle costs (no simulation)")
    cost.add_argument("inputs", nargs="*",
                      help="assembly source files to analyze")
    cost.add_argument("--kernel", metavar="NAME",
                      help="analyze a catalog kernel (see --list)")
    cost.add_argument("--network", metavar="NAME",
                      help="analyze every program the compiler lowers "
                           "for a catalog network (e.g. mixed3)")
    cost.add_argument("--cores", type=int, default=2,
                      help="cluster cores for --network lowering "
                           "(default 2)")
    cost.add_argument("--hart", type=int, default=0,
                      help="hart id used to resolve mhartid reads "
                           "(default 0)")
    cost.add_argument("--list", action="store_true",
                      help="print the kernel catalog names and exit")
    cost.add_argument("--isa", default=XPULPNN, choices=_isa_choices())
    cost.add_argument("--base", type=lambda v: int(v, 0), default=0)
    cost.add_argument("--json", action="store_true",
                      help="emit reports as JSON")
    cost.set_defaults(func=_cmd_cost)

    def serve_flags(p):
        p.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = inline, no isolation)")
        p.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job deadline (pool mode only)")
        p.add_argument("--no-cache", action="store_true",
                       help="skip the content-addressed result cache")
        p.add_argument("--cache-dir", metavar="PATH",
                       help="cache root (default .repro-cache or "
                            "$REPRO_CACHE_DIR)")
        p.add_argument("--label", help="sweep label for the report")
        p.add_argument("--out", metavar="PATH",
                       help="also write the JSON report to PATH")
        p.add_argument("--json", action="store_true",
                       help="print the report as JSON")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress on stderr")
        p.add_argument("--events", metavar="PATH",
                       help="stream a structured JSONL event log "
                            "(repro-events/1) to PATH")
        p.add_argument("--fleet-timeline", metavar="PATH",
                       help="export the merged service+workers+device "
                            "Perfetto timeline to PATH")
        p.add_argument("--metrics-out", metavar="PATH",
                       help="write the merged metrics snapshot "
                            "(repro-metrics/1) to PATH")

    serve = sub.add_parser(
        "serve",
        help="run a JSON job batch through the simulation service")
    serve.add_argument("input", nargs="?",
                       help="job file: one job object, a list of jobs, or "
                            "a sweep job ('-' or omitted = stdin)")
    serve_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    sweep = sub.add_parser(
        "sweep",
        help="expand a cartesian job sweep and run it via the service")
    sweep.add_argument("job", metavar="KIND",
                       help="job kind: profile, compile, scaling, "
                            "convpoint, selftest")
    sweep.add_argument("axes", nargs="+", metavar="FIELD=V1[,V2...]",
                       help="sweep axes, e.g. bits=8,4,2 cores=1,2,4,8")
    sweep.add_argument("--base", action="append", metavar="FIELD=VALUE",
                       help="fix a non-swept field, e.g. --base out_ch=32")
    sweep.add_argument("--skip-invalid", action="store_true",
                       help="drop cartesian points whose validation fails "
                            "instead of erroring")
    sweep.add_argument("--expand-only", action="store_true",
                       help="print the expanded job list as JSON and exit")
    serve_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    cache = sub.add_parser(
        "cache", help="inspect or bound the on-disk result cache")
    cache.add_argument("action", choices=("stats", "prune"),
                       help="'stats' reports disk usage; 'prune' evicts "
                            "least-recently-used entries to a byte budget")
    cache.add_argument("--cache-dir", metavar="PATH",
                       help="cache root (default .repro-cache or "
                            "$REPRO_CACHE_DIR)")
    cache.add_argument("--max-bytes", type=_parse_bytes, metavar="N",
                       help="prune budget; accepts k/M/G suffixes "
                            "(e.g. --max-bytes 10M)")
    cache.add_argument("--json", action="store_true",
                       help="emit machine-readable output")
    cache.set_defaults(func=_cmd_cache)

    metrics = sub.add_parser(
        "metrics", help="dump a service-metrics snapshot")
    metrics.add_argument("input", nargs="?",
                         help="metrics snapshot JSON, serve report JSON, "
                              "or JSONL event log (default: this "
                              "process's registry)")
    metrics.add_argument("--format", choices=("json", "prom"),
                         default="json",
                         help="output format (Prometheus text exposition "
                              "with 'prom')")
    metrics.set_defaults(func=_cmd_metrics)

    perf = sub.add_parser(
        "perf", help="perf-regression sentinel over trajectory snapshots")
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    diff = perf_sub.add_parser(
        "diff", help="compare two repro-trajectory/1 documents "
                     "series-by-series; exits non-zero when a series "
                     "drifts or disappears")
    diff.add_argument("old", help="baseline trajectory JSON")
    diff.add_argument("new", help="candidate trajectory JSON")
    diff.add_argument("--json", action="store_true",
                      help="emit the repro-perf-diff/1 verdict as JSON")
    diff.set_defaults(func=_cmd_perf)

    explore = sub.add_parser(
        "explore",
        help="design-space autotuner: staged static->simulated search "
             "with Pareto extraction")
    explore.add_argument("--space", default="paper",
                         help="named search space: paper, ci, quick "
                              "(default: paper)")
    explore.add_argument("--cores", metavar="N1[,N2...]",
                         help="override the core-count axis")
    explore.add_argument("--tcdm", metavar="KB1[,KB2...]",
                         help="override the TCDM-size axis (kB)")
    explore.add_argument("--l2", metavar="KB1[,KB2...]",
                         help="override the L2-size axis (kB)")
    explore.add_argument("--points", metavar="BITS:QUANT[,...]",
                         help="override the (bits, quant) axis, "
                              "e.g. 8:shift,4:hw,4:sw")
    explore.add_argument("--network", metavar="NAME",
                         help="explore per-layer precision assignments "
                              "for a catalog network instead of specs")
    explore.add_argument("--assign", action="append",
                         metavar="B1,B2,...",
                         help="one weight-precision assignment per "
                              "weighted layer (repeatable; with "
                              "--network)")
    explore.add_argument("--net-cores", type=int, default=8,
                         help="cluster size for --network (default 8)")
    explore.add_argument("--no-prune", action="store_true",
                         help="simulate every feasible candidate (skip "
                              "static pruning)")
    explore.add_argument("--no-verify", action="store_true",
                         help="skip the cached-vs-uncached frontier "
                              "verification pass")
    explore.add_argument("--report", metavar="PATH",
                         help="write the repro-explore/1 report to PATH")
    explore.add_argument("--trajectory", metavar="PATH",
                         help="merge the explore/* series into a "
                              "trajectory file at PATH")
    serve_flags(explore)
    explore.set_defaults(func=_cmd_explore)

    targets = sub.add_parser(
        "targets", help="list the registered machine targets")
    targets.add_argument("--family", choices=("riscv", "arm"),
                         help="only one family")
    targets.add_argument("--json", action="store_true",
                         help="emit the specs as JSON")
    targets.set_defaults(func=_cmd_targets)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
