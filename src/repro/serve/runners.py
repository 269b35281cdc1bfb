"""Job execution and cache-key derivation.

:func:`execute` is the single entry point a worker runs: it dispatches a
typed job to the subsystem that owns the science (``trace.profile`` for
profile jobs, ``compiler`` for compile jobs, ``eval`` for scaling and
conv points) and returns a plain-JSON payload plus any artifact payloads
(Perfetto timelines).  Nothing here caches or catches — the pool
isolates failures, the service owns the cache.

:func:`cache_key_parts` derives the three-component content address of
every cacheable result::

    {"schema":  CACHE_SCHEMA,
     "spec":    TargetSpec.digest(),      # the machine
     "program": Program/network digest,   # the code
     "config":  canonical job config}     # everything else

A simulation job's config also carries the digest of the seeded tensors
its run draws (``eval.matrix.operands``, ``eval.spec_point.
spec_point_operands``; each draws once per process, for the key and the
run alike), so a changed draw re-keys its results instead of serving
stale payloads.

The key's program is built by the same constructor the run calls
(``eval.matrix.build``, ``eval.spec_point.spec_point_kernel``); nothing
here constructs a kernel of its own, so the hashed program is the one
that runs and any codegen change re-keys every affected result
automatically.  Building a kernel just to hash its program costs
milliseconds; the simulation it lets us skip costs seconds.  A job whose
kernel cannot be built raises here as it would in its run; the service
runs it uncached so it fails as a job.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..telemetry import metrics as tmetrics
from .cache import CACHE_SCHEMA
from .hashing import canonical_json, network_digest, operands_digest
from .jobs import (
    CompileJob,
    ConvPointJob,
    CostJob,
    Job,
    ProfileJob,
    ScalingJob,
    SelfTestJob,
    ServeError,
    SpecPointJob,
)

#: Artifact payloads returned next to a result payload: name -> JSON data.
Artifacts = Dict[str, Any]


def to_plain(value):
    """Recursively convert numpy scalars/arrays into JSON-clean data."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


# ---------------------------------------------------------------------------
# Resolution helpers (shared by key derivation and execution)
# ---------------------------------------------------------------------------

def _spec_point(job):
    """``(spec, bits, quant, out_ch, reduction)`` of a scaling or
    spec-point job: the arguments of the spec-point kernel and run."""
    if isinstance(job, ScalingJob):
        from ..target import get_target
        from ..target.names import CLUSTER_PREFIX

        spec = get_target(f"{CLUSTER_PREFIX}{job.cores}")
        quant = "shift" if job.bits == 8 else "hw"
    else:
        spec, quant = job.spec(), job.quant
    return spec, job.bits, quant, job.out_ch, job.reduction


def _suite_point(job: ConvPointJob):
    """``(geometry, bits, isa, quant)`` of a conv-suite point: the
    arguments of the suite kernel and of ``conv_point``."""
    from ..eval.workloads import benchmark_geometry
    from ..qnn import ConvGeometry
    from ..target import get_target

    geometry = (ConvGeometry(*job.geometry) if job.geometry
                else benchmark_geometry())
    return geometry, job.bits, get_target(job.target).isa, job.quant


def _cost_programs(job: CostJob):
    """``[(name, program)]`` the cost job analyzes, in stable order."""
    from ..analysis.catalog import compiled_network_programs, kernel_program

    if job.kernel:
        return [(job.kernel, kernel_program(job.kernel))]
    return list(compiled_network_programs(job.network, cores=job.cores))


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------

def cache_key_parts(job: Job) -> Dict[str, str]:
    """The content-address components for *job* (see module docstring)."""
    from ..target import get_target

    if isinstance(job, ProfileJob):
        from ..eval.matrix import build, operands, resolve

        point, geometry = resolve(job.kernel, job.cores or 1, job.target)
        kernel = build(point, geometry)
        config = {"kernel": job.kernel, "bits": point.bits,
                  "isa": point.isa, "quant": point.quant,
                  "cores": point.cores, "trace": job.trace,
                  "operands": operands_digest(
                      operands(point, geometry, kernel.config)[0])}
        return {
            "schema": CACHE_SCHEMA,
            "kind": job.kind,
            "spec": get_target(job.target).digest(),
            "program": kernel.program.digest(),
            "config": canonical_json(config),
        }
    if isinstance(job, CompileJob):
        from ..compiler import build_network
        from ..target.names import CLUSTER_PREFIX

        built = build_network(job.network, layer_bits=job.layer_bits or None)
        budget = job.tcdm_budget or built.tcdm_budget
        tspec = get_target(f"{CLUSTER_PREFIX}{job.cores}")
        config = {"network": job.network, "cores": job.cores,
                  "tcdm_budget": budget,
                  "layer_bits": list(job.layer_bits)}
        return {
            "schema": CACHE_SCHEMA,
            "kind": job.kind,
            "spec": tspec.digest(),
            "program": network_digest(built),
            "config": canonical_json(config),
        }
    if isinstance(job, (ScalingJob, SpecPointJob)):
        from ..eval.spec_point import spec_point_kernel, spec_point_operands

        args = _spec_point(job)
        if isinstance(job, ScalingJob):
            config = job.config_dict()
        else:
            config = {"bits": job.bits, "quant": job.quant,
                      "out_ch": job.out_ch, "reduction": job.reduction}
        config["operands"] = operands_digest(
            spec_point_operands(job.bits, job.out_ch, job.reduction))
        return {
            "schema": CACHE_SCHEMA,
            "kind": job.kind,
            "spec": args[0].digest(),
            "program": spec_point_kernel(*args).program.digest(),
            "config": canonical_json(config),
        }
    if isinstance(job, ConvPointJob):
        from ..eval.matrix import Point, build, operands

        geometry, bits, isa, quant = _suite_point(job)
        point = Point("conv", bits, isa, quant)
        kernel = build(point, geometry)
        config = {"bits": bits, "quant": quant, "isa": isa,
                  "geometry": [geometry.in_h, geometry.in_w,
                               geometry.in_ch, geometry.out_ch,
                               geometry.kh, geometry.kw,
                               geometry.stride, geometry.pad],
                  "operands": operands_digest(
                      operands(point, geometry, kernel.config)[0])}
        return {
            "schema": CACHE_SCHEMA,
            "kind": job.kind,
            "spec": get_target(job.target).digest(),
            "program": kernel.program.digest(),
            "config": canonical_json(config),
        }
    if isinstance(job, CostJob):
        from ..analysis.cost import COST_SCHEMA_VERSION
        from .hashing import digest_of

        programs = _cost_programs(job)
        config = {**job.config_dict(), "cost_schema": COST_SCHEMA_VERSION}
        return {
            "schema": CACHE_SCHEMA,
            "kind": job.kind,
            "spec": "-",              # no machine: fixed timing rules only
            "program": digest_of([p.digest() for _, p in programs]),
            "config": canonical_json(config),
        }
    if isinstance(job, SelfTestJob):
        return {
            "schema": CACHE_SCHEMA,
            "kind": job.kind,
            "spec": "-",
            "program": "-",
            "config": canonical_json(job.config_dict()),
        }
    raise ServeError(f"no cache key derivation for job kind {job.kind!r}")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _run_profile(job: ProfileJob) -> Tuple[Dict[str, Any], Artifacts]:
    from ..trace.perfetto import chrome_trace
    from ..trace.profile import profile_kernel, trace_kernel

    cores = job.cores or 1
    result = profile_kernel(job.kernel, cores=cores, target=job.target)
    payload = to_plain(result.to_dict())
    artifacts: Artifacts = {}
    if job.trace:
        tracer = trace_kernel(job.kernel, cores=cores, target=job.target)
        title = f"{job.kernel} on {job.target}"
        artifacts["trace.json"] = chrome_trace(tracer, title=title)
    return payload, artifacts


def _run_compile(job: CompileJob) -> Tuple[Dict[str, Any], Artifacts]:
    from ..compiler import NetworkCompiler, PlanExecutor, build_network

    built = build_network(job.network, layer_bits=job.layer_bits or None)
    budget = job.tcdm_budget or built.tcdm_budget
    compiled = NetworkCompiler(
        built.network, built.input_shape, input_bits=built.input_bits,
        num_cores=job.cores, tcdm_budget=budget,
    ).compile()
    result = PlanExecutor(compiled).run(built.input)
    payload = {
        "network": job.network,
        "cores": job.cores,
        "tcdm_budget": budget,
        "layer_bits": list(job.layer_bits),
        "total_tiles": compiled.total_tiles,
        "tile_search": compiled.tile_search.to_dict(),
        **to_plain(result.to_dict()),
    }
    return payload, {}


def _run_specpoint(job) -> Tuple[Dict[str, Any], Artifacts]:
    from ..eval.spec_point import run_spec_point

    spec, bits, quant, out_ch, reduction = _spec_point(job)
    payload = run_spec_point(spec, bits, quant, out_ch=out_ch,
                             reduction=reduction)
    return to_plain(payload), {}


def _run_convpoint(job: ConvPointJob) -> Tuple[Dict[str, Any], Artifacts]:
    from ..eval.workloads import conv_point

    point = conv_point(*_suite_point(job))
    payload = {
        "bits": point.bits,
        "isa": point.isa,
        "quant": point.quant,
        "cycles": point.cycles,
        "instructions": point.instructions,
        "macs": point.macs,
        "quant_cycles": point.quant_cycles,
        "verified": point.verified,
        "perf": to_plain(point.perf.to_dict()),
    }
    return payload, {}


def _run_cost(job: CostJob) -> Tuple[Dict[str, Any], Artifacts]:
    from ..analysis.cost import analyze_cost

    reports = [
        analyze_cost(program, name=name, hart_id=job.hart)
        for name, program in _cost_programs(job)
    ]
    payload = {
        "kernel": job.kernel,
        "network": job.network,
        "hart": job.hart,
        "exact": all(r.exact for r in reports),
        "bounded": all(r.bounded for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    return payload, {}


def _run_selftest(job: SelfTestJob) -> Tuple[Dict[str, Any], Artifacts]:
    import os
    import time

    if job.mode == "raise":
        raise ServeError(f"selftest job raised on request (value={job.value})")
    if job.mode == "crash":
        os._exit(13)
    if job.mode == "sleep":
        time.sleep(job.duration)
    return {"value": job.value, "mode": job.mode}, {}


_RUNNERS = {
    "profile": _run_profile,
    "compile": _run_compile,
    "scaling": _run_specpoint,
    "specpoint": _run_specpoint,
    "convpoint": _run_convpoint,
    "cost": _run_cost,
    "selftest": _run_selftest,
}


def execute(job: Job) -> Tuple[Dict[str, Any], Artifacts]:
    """Run *job* to completion; returns ``(payload, artifacts)``.

    Raises whatever the underlying subsystem raises — isolation is the
    pool's responsibility, not this function's.
    """
    runner = _RUNNERS.get(job.kind)
    if runner is None:
        raise ServeError(f"job kind {job.kind!r} has no runner")
    payload, artifacts = runner(job)
    # Deterministic work counters: fed only simulated quantities, so an
    # N-worker sweep merges to exactly the totals of a serial run.
    tmetrics.counter("runner.jobs", kind=job.kind).inc()
    cycles = payload.get("cycles")
    if isinstance(cycles, int) and cycles >= 0:
        tmetrics.counter("runner.simulated_cycles").inc(cycles)
    return payload, artifacts
