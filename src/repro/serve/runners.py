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

Building a kernel just to hash its program costs milliseconds; the
simulation it lets us skip costs seconds — and the program digest is
what makes the cache *content*-addressed: any codegen change anywhere in
the kernel builders re-keys every affected result automatically.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..telemetry import metrics as tmetrics
from .cache import CACHE_SCHEMA
from .hashing import canonical_json, network_digest
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

def _resolve_profile(job: ProfileJob):
    """(catalog kind, (bits, isa, quant), target spec, effective cores)."""
    from ..target import get_target
    from ..trace.profile import _lookup, _retarget

    kind, spec = _lookup(job.kernel)
    tspec = get_target(job.target)
    spec, tspec = _retarget(kind, spec, job.target)
    cores = job.cores or 1
    if tspec.cluster:
        cores = tspec.cores
    return kind, spec, tspec, cores


def _profile_program(job: ProfileJob):
    """Build the exact program the profile run executes (for its digest)."""
    from ..eval.workloads import benchmark_geometry
    from ..kernels import (
        ConvConfig,
        ConvKernel,
        MatmulConfig,
        MatmulKernel,
        ParallelConvConfig,
        ParallelConvKernel,
        ParallelMatmulConfig,
        ParallelMatmulKernel,
    )
    from ..trace.profile import MATMUL_OUT_CH, MATMUL_REDUCTION

    kind, (bits, isa, quant), _, cores = _resolve_profile(job)
    if kind == "conv":
        geometry = benchmark_geometry()
        if cores > 1:
            return ParallelConvKernel(ParallelConvConfig(
                geometry=geometry, bits=bits, isa=isa, quant=quant,
                num_cores=cores)).program
        return ConvKernel(ConvConfig(
            geometry=geometry, bits=bits, isa=isa, quant=quant)).program
    if cores > 1:
        return ParallelMatmulKernel(ParallelMatmulConfig(
            reduction=MATMUL_REDUCTION, out_ch=MATMUL_OUT_CH, bits=bits,
            isa=isa, quant=quant, num_cores=cores)).program
    return MatmulKernel(MatmulConfig(
        reduction=MATMUL_REDUCTION, out_ch=MATMUL_OUT_CH, bits=bits,
        isa=isa, quant=quant)).program


def _cost_programs(job: CostJob):
    """``[(name, program)]`` the cost job analyzes, in stable order."""
    from ..analysis.catalog import compiled_network_programs, kernel_program

    if job.kernel:
        return [(job.kernel, kernel_program(job.kernel))]
    return list(compiled_network_programs(job.network, cores=job.cores))


def _convpoint_resolved(job: ConvPointJob):
    """(geometry, isa, target spec) for a conv-suite point."""
    from ..eval.workloads import benchmark_geometry
    from ..qnn import ConvGeometry
    from ..target import get_target

    tspec = get_target(job.target)
    geometry = (ConvGeometry(*job.geometry) if job.geometry
                else benchmark_geometry())
    return geometry, tspec.isa, tspec


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------

def cache_key_parts(job: Job) -> Dict[str, str]:
    """The content-address components for *job* (see module docstring)."""
    from ..target import get_target

    if isinstance(job, ProfileJob):
        _, resolved, tspec, cores = _resolve_profile(job)
        bits, isa, quant = resolved
        config = {"kernel": job.kernel, "bits": bits, "isa": isa,
                  "quant": quant, "cores": cores, "trace": job.trace}
        return {
            "schema": CACHE_SCHEMA,
            "kind": job.kind,
            "spec": tspec.digest(),
            "program": _profile_program(job).digest(),
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
    if isinstance(job, ScalingJob):
        from ..kernels import ParallelMatmulConfig, ParallelMatmulKernel
        from ..target.names import CLUSTER_PREFIX

        quant = "shift" if job.bits == 8 else "hw"
        kernel = ParallelMatmulKernel(ParallelMatmulConfig(
            reduction=job.reduction, out_ch=job.out_ch, bits=job.bits,
            num_cores=job.cores, quant=quant))
        tspec = get_target(f"{CLUSTER_PREFIX}{job.cores}")
        return {
            "schema": CACHE_SCHEMA,
            "kind": job.kind,
            "spec": tspec.digest(),
            "program": kernel.program.digest(),
            "config": canonical_json(job.config_dict()),
        }
    if isinstance(job, SpecPointJob):
        from ..kernels import ParallelMatmulConfig, ParallelMatmulKernel

        spec = job.spec()
        kernel = ParallelMatmulKernel(ParallelMatmulConfig(
            reduction=job.reduction, out_ch=job.out_ch, bits=job.bits,
            num_cores=spec.cores, isa=spec.isa, quant=job.quant))
        config = {"bits": job.bits, "quant": job.quant,
                  "out_ch": job.out_ch, "reduction": job.reduction}
        return {
            "schema": CACHE_SCHEMA,
            "kind": job.kind,
            "spec": spec.digest(),
            "program": kernel.program.digest(),
            "config": canonical_json(config),
        }
    if isinstance(job, ConvPointJob):
        from ..kernels import ConvConfig, ConvKernel

        geometry, isa, tspec = _convpoint_resolved(job)
        program = ConvKernel(ConvConfig(
            geometry=geometry, bits=job.bits, isa=isa,
            quant=job.quant)).program
        config = {"bits": job.bits, "quant": job.quant, "isa": isa,
                  "geometry": [geometry.in_h, geometry.in_w,
                               geometry.in_ch, geometry.out_ch,
                               geometry.kh, geometry.kw,
                               geometry.stride, geometry.pad]}
        return {
            "schema": CACHE_SCHEMA,
            "kind": job.kind,
            "spec": tspec.digest(),
            "program": program.digest(),
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


def _run_scaling(job: ScalingJob) -> Tuple[Dict[str, Any], Artifacts]:
    from ..eval.cluster_scaling import run_point

    payload = run_point(job.bits, job.cores, out_ch=job.out_ch,
                        reduction=job.reduction)
    return to_plain(payload), {}


def _run_specpoint(job: SpecPointJob) -> Tuple[Dict[str, Any], Artifacts]:
    from ..eval.spec_point import run_spec_point

    payload = run_spec_point(job.spec(), job.bits, job.quant,
                             out_ch=job.out_ch, reduction=job.reduction)
    return to_plain(payload), {}


def _run_convpoint(job: ConvPointJob) -> Tuple[Dict[str, Any], Artifacts]:
    from ..eval.workloads import conv_point

    geometry, isa, _ = _convpoint_resolved(job)
    point = conv_point(geometry, job.bits, isa, job.quant)
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
    "scaling": _run_scaling,
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
