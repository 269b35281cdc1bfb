"""Typed simulation requests and their canonical wire format.

A *job* is pure data: a frozen dataclass naming what to simulate, never
how.  Jobs serialize to a canonical JSON object (``{"kind": ..., ...}``)
whose digest is stable across processes — the identity used for
deduplication, progress reporting, and (together with the target-spec
and program digests, see :mod:`.runners`) the result-cache key.

Job kinds
---------

``profile``
    One built-in kernel-catalog entry on one registered target
    (:func:`repro.trace.profile.profile_kernel`), optionally collecting
    a Perfetto timeline artifact.
``compile``
    A reference network through the deployment compiler + double-
    buffered executor (:mod:`repro.compiler`).
``scaling``
    One (bits, cores) point of the cluster-scaling sweep — the parallel
    MatMul microkernel with power/efficiency rollup.
``specpoint``
    One ``repro explore`` design point: the parallel MatMul microkernel
    on an *arbitrary* :class:`~repro.target.TargetSpec` carried inside
    the job as canonical JSON — workers are separate processes, so the
    spec travels by value, never by registry name.
``convpoint``
    One verified convolution-suite point (bits, quant) on a target —
    the measurements behind Fig 6.
``cost``
    A static cycle analysis of one catalog kernel or of every program a
    network lowers to (:mod:`repro.analysis.cost`) — no simulation, but
    cacheable and content-addressed like everything else.
``selftest``
    A transport/diagnostics job that succeeds, raises, sleeps, or kills
    its worker on request; used by tests and CI to prove failure
    isolation without touching the simulator.
``sweep``
    A batch of point jobs executed together (shard + dedupe + cache).

Results come back as :class:`JobResult` (payload + provenance) or
:class:`JobFailure` — a typed, fully serializable error record.  A
failing point never raises across the worker boundary and never kills a
sweep.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import asdict, dataclass, field, fields
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple, Type

from ..errors import ReproError
from ..target.names import XPULPNN
from .hashing import canonical_json, digest_of


class ServeError(ReproError):
    """Malformed job, cache entry, or batch-service request."""


#: kind -> job class; populated by :func:`register_job`.
JOB_KINDS: Dict[str, Type["Job"]] = {}


def register_job(cls: Type["Job"]) -> Type["Job"]:
    """Class decorator: make *cls* constructible from its ``kind`` tag."""
    if not cls.kind:
        raise ServeError(f"job class {cls.__name__} has no kind tag")
    if cls.kind in JOB_KINDS:
        raise ServeError(f"job kind {cls.kind!r} is already registered")
    JOB_KINDS[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class Job:
    """Base class for all typed requests (pure data, hashable)."""

    kind: ClassVar[str] = ""
    #: Selftest jobs are never cached (they exist to exercise the pool).
    cacheable: ClassVar[bool] = True

    def config_dict(self) -> Dict[str, Any]:
        """The job's own fields as plain JSON data (no kind tag)."""
        return asdict(self)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, **self.config_dict()}

    def canonical(self) -> str:
        """Canonical, stable serialization (the wire format)."""
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """Stable identity hash of the request itself."""
        return digest_of(self.to_dict())

    def validate(self) -> None:
        """Raise :class:`ReproError` if the request can never execute.

        Cheap, pure checks only — used by sweep expansion to drop
        impossible cartesian points before any worker sees them.
        """


def job_from_dict(payload: Dict[str, Any]) -> "Job":
    """Rebuild a typed job from its ``to_dict`` form."""
    if not isinstance(payload, dict):
        raise ServeError(f"job payload must be an object, got "
                         f"{type(payload).__name__}")
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind not in JOB_KINDS:
        raise ServeError(
            f"unknown job kind {kind!r}; known kinds: "
            f"{', '.join(sorted(JOB_KINDS))}")
    cls = JOB_KINDS[kind]
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ServeError(
            f"{kind} job: unknown fields {sorted(unknown)}")
    converted = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if isinstance(value, list):
            value = tuple(value)
        converted[f.name] = value
    if kind == "sweep":
        converted["points"] = tuple(
            job_from_dict(p) if isinstance(p, dict) else p
            for p in converted.get("points", ()))
    return cls(**converted)


# ---------------------------------------------------------------------------
# Point jobs
# ---------------------------------------------------------------------------

@register_job
@dataclass(frozen=True)
class ProfileJob(Job):
    """Profile one built-in kernel-catalog entry on a registered target."""

    kind: ClassVar[str] = "profile"

    kernel: str = "conv_4bit"
    target: str = XPULPNN
    #: 0 = the target's own core count (clusters shard automatically).
    cores: int = 0
    #: Also produce a Chrome-trace/Perfetto timeline artifact.
    trace: bool = False

    def validate(self) -> None:
        from ..target import get_target
        from ..eval.matrix import suite_points

        if self.kernel not in [p.suite_name for p in suite_points()]:
            raise ServeError(f"unknown kernel {self.kernel!r}")
        spec = get_target(self.target)
        if not spec.riscv:
            raise ServeError(
                f"target {spec.name!r} is a cost-model baseline; profile "
                f"jobs run on RISC-V targets")
        if self.cores < 0:
            raise ServeError("cores must be >= 0 (0 = target default)")


@register_job
@dataclass(frozen=True)
class CompileJob(Job):
    """Compile + execute a reference network on the cluster model."""

    kind: ClassVar[str] = "compile"

    network: str = "mixed3"
    cores: int = 8
    #: 0 = the catalog entry's recommended TCDM budget.
    tcdm_budget: int = 0
    #: Per-weighted-layer weight precision override (8/4/2 each), in
    #: network order; empty = the catalog entry's own precisions.  The
    #: mixed-precision axis of ``repro explore``.
    layer_bits: Tuple[int, ...] = ()

    def validate(self) -> None:
        from ..compiler import network_names, quantized_layer_count

        if self.network not in network_names():
            raise ServeError(
                f"unknown network {self.network!r}; available: "
                f"{', '.join(network_names())}")
        if self.cores < 1:
            raise ServeError("compile jobs need at least one core")
        if self.layer_bits:
            if any(b not in (8, 4, 2) for b in self.layer_bits):
                raise ServeError(
                    f"layer_bits must be 8/4/2, got {list(self.layer_bits)}")
            expected = quantized_layer_count(self.network)
            if len(self.layer_bits) != expected:
                raise ServeError(
                    f"network {self.network!r} has {expected} weighted "
                    f"layers; layer_bits names {len(self.layer_bits)}")


@register_job
@dataclass(frozen=True)
class ScalingJob(Job):
    """One (bits, cores) point of the cluster-scaling MatMul sweep."""

    kind: ClassVar[str] = "scaling"

    bits: int = 4
    cores: int = 8
    out_ch: int = 64
    reduction: int = 256

    def validate(self) -> None:
        from ..kernels import ParallelMatmulConfig

        quant = "shift" if self.bits == 8 else "hw"
        # Raises KernelError on any impossible shard geometry.
        ParallelMatmulConfig(reduction=self.reduction, out_ch=self.out_ch,
                             bits=self.bits, num_cores=self.cores,
                             quant=quant)


@register_job
@dataclass(frozen=True)
class SpecPointJob(Job):
    """One design-space point on a spec carried *inside* the job.

    ``repro explore`` evaluates TargetSpec variants that exist only for
    the duration of a search — they are registered ephemerally in the
    submitting process, but the worker pool runs in separate processes
    that never saw that registration.  The spec therefore rides along as
    its canonical JSON (:meth:`TargetSpec.to_dict`); its digest keys the
    result cache exactly like a registry target's would.
    """

    kind: ClassVar[str] = "specpoint"

    #: Canonical JSON of :meth:`TargetSpec.to_dict` (never a name).
    spec_json: str = ""
    bits: int = 4
    #: Requantization path executed: "shift" (8-bit) | "hw" | "sw".
    quant: str = "hw"
    out_ch: int = 64
    reduction: int = 256

    def spec(self):
        """Rebuild the carried :class:`TargetSpec` (validated)."""
        import json

        from ..target import TargetSpec

        if not self.spec_json:
            raise ServeError("specpoint jobs need a spec_json payload")
        try:
            payload = json.loads(self.spec_json)
        except ValueError as exc:
            raise ServeError(f"specpoint spec_json is not JSON: {exc}")
        return TargetSpec.from_dict(payload)

    def validate(self) -> None:
        spec = self.spec()
        if not spec.riscv or not spec.cluster:
            raise ServeError(
                f"spec points run on RISC-V cluster specs, got {spec.name!r}")
        if self.bits not in (8, 4, 2):
            raise ServeError(f"unsupported bitwidth {self.bits}")
        if self.bits == 8 and self.quant != "shift":
            raise ServeError("8-bit spec points use shift requantization")
        if self.bits != 8 and self.quant not in ("hw", "sw"):
            raise ServeError("sub-byte spec points use 'hw' or 'sw' quant")
        if self.quant == "hw" and not spec.has("pv.qnt"):
            raise ServeError(
                f"spec {spec.name!r} has no pv.qnt hardware")
        from ..kernels import ParallelMatmulConfig

        # Raises KernelError on any impossible shard geometry.
        ParallelMatmulConfig(reduction=self.reduction, out_ch=self.out_ch,
                             bits=self.bits, num_cores=spec.cores,
                             isa=spec.isa, quant=self.quant)


@register_job
@dataclass(frozen=True)
class ConvPointJob(Job):
    """One verified convolution-suite measurement (the Fig 6 points)."""

    kind: ClassVar[str] = "convpoint"

    bits: int = 4
    quant: str = "hw"
    target: str = XPULPNN
    #: (in_h, in_w, in_ch, out_ch, kh, kw, stride, pad); empty = the
    #: benchmark geometry of the current process (REPRO_FULL-aware).
    geometry: Tuple[int, ...] = ()

    def validate(self) -> None:
        from ..target import get_target

        if self.bits not in (8, 4, 2):
            raise ServeError(f"unsupported bitwidth {self.bits}")
        if self.bits == 8 and self.quant != "shift":
            raise ServeError("8-bit conv points use shift requantization")
        if self.bits != 8 and self.quant not in ("hw", "sw"):
            raise ServeError("sub-byte conv points use 'hw' or 'sw' quant")
        if self.geometry and len(self.geometry) != 8:
            raise ServeError("geometry needs 8 integers")
        spec = get_target(self.target)
        if not spec.riscv:
            raise ServeError("conv points run on RISC-V targets")
        if self.quant == "hw" and not spec.hw_quant:
            raise ServeError(
                f"target {spec.name!r} has no pv.qnt hardware")


@register_job
@dataclass(frozen=True)
class CostJob(Job):
    """Static cycle analysis of a catalog kernel or lowered network."""

    kind: ClassVar[str] = "cost"

    #: Catalog kernel name (exclusive with ``network``).
    kernel: str = ""
    #: Catalog network name; analyzes every distinct lowered program.
    network: str = ""
    #: Cluster cores used when lowering ``network``.
    cores: int = 2
    #: Hart id used to resolve ``mhartid`` reads.
    hart: int = 0

    def validate(self) -> None:
        if bool(self.kernel) == bool(self.network):
            raise ServeError(
                "cost jobs take exactly one of 'kernel' or 'network'")
        if self.kernel:
            from ..analysis.catalog import catalog_kernel_names

            if self.kernel not in catalog_kernel_names():
                raise ServeError(
                    f"unknown catalog kernel {self.kernel!r}")
        if self.network:
            from ..compiler import network_names

            if self.network not in network_names():
                raise ServeError(
                    f"unknown network {self.network!r}; available: "
                    f"{', '.join(network_names())}")
            if self.cores < 1:
                raise ServeError("cost jobs need at least one core")
        if self.hart < 0:
            raise ServeError("hart must be >= 0")


@register_job
@dataclass(frozen=True)
class SelfTestJob(Job):
    """Pool/transport diagnostics: succeed, fail, stall, or die on cue."""

    kind: ClassVar[str] = "selftest"
    cacheable: ClassVar[bool] = False

    #: "ok" | "raise" | "crash" (kills the worker process) | "sleep".
    mode: str = "ok"
    value: int = 0
    duration: float = 0.0

    def validate(self) -> None:
        if self.mode not in ("ok", "raise", "crash", "sleep"):
            raise ServeError(f"unknown selftest mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@register_job
@dataclass(frozen=True)
class SweepJob(Job):
    """A batch of point jobs executed as one sharded, deduped run."""

    kind: ClassVar[str] = "sweep"

    points: Tuple[Job, ...] = ()
    label: str = ""

    def config_dict(self) -> Dict[str, Any]:
        return {
            "points": [p.to_dict() for p in self.points],
            "label": self.label,
        }

    def validate(self) -> None:
        for point in self.points:
            if isinstance(point, SweepJob):
                raise ServeError("sweeps do not nest")
            point.validate()


def cartesian_sweep(kind: str, axes: Dict[str, Sequence[Any]],
                    label: str = "", base: Optional[Dict[str, Any]] = None,
                    skip_invalid: bool = False) -> SweepJob:
    """Expand ``axes`` (field -> values) into a cartesian :class:`SweepJob`.

    Every combination builds one *kind* job from ``base`` + the combo.
    With ``skip_invalid`` combinations whose :meth:`Job.validate` raises
    are silently dropped (e.g. 2-bit shards that don't split over the
    requested core count); otherwise the first invalid point raises.
    """
    if kind not in JOB_KINDS or kind == "sweep":
        raise ServeError(f"cannot sweep over job kind {kind!r}")
    names = sorted(axes)
    points: List[Job] = []

    def expand(index: int, chosen: Dict[str, Any]) -> None:
        if index == len(names):
            job = job_from_dict({"kind": kind, **(base or {}), **chosen})
            try:
                job.validate()
            except ReproError:
                if skip_invalid:
                    return
                raise
            points.append(job)
            return
        name = names[index]
        for value in axes[name]:
            expand(index + 1, {**chosen, name: value})

    expand(0, {})
    return SweepJob(points=tuple(points), label=label)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobResult:
    """A completed job: payload plus execution provenance."""

    job: Job
    payload: Dict[str, Any]
    cached: bool = False
    elapsed_s: float = 0.0
    worker: int = -1
    #: artifact name -> path on disk (Perfetto timelines etc.).
    artifacts: Dict[str, str] = field(default_factory=dict)
    #: In-memory artifact payloads as produced by the runner; the service
    #: persists them (cache) and rewrites :attr:`artifacts` with paths.
    #: Never serialized.
    artifact_payloads: Dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False)

    ok: ClassVar[bool] = True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "job": self.job.to_dict(),
            "digest": self.job.digest(),
            "cached": self.cached,
            "elapsed_s": round(self.elapsed_s, 6),
            "worker": self.worker,
            "artifacts": dict(self.artifacts),
            "payload": self.payload,
        }


@dataclass(frozen=True)
class JobFailure:
    """A failed job as data: typed, serializable, never re-raised.

    Whatever went wrong in a worker — a :class:`ReproError`, an
    unpicklable third-party exception, a timeout, or the process dying
    outright — crosses the process boundary as this record.
    """

    job: Job
    error_type: str
    message: str
    traceback: str = ""
    elapsed_s: float = 0.0
    worker: int = -1
    #: Structured failure context (e.g. a timeout's job digest, elapsed
    #: wall time, and deadline) — enough to attribute the failure from
    #: an event log alone, without the in-memory Job object.
    details: Dict[str, Any] = field(default_factory=dict)

    ok: ClassVar[bool] = False
    cached: ClassVar[bool] = False

    @classmethod
    def from_exception(cls, job: Job, exc: BaseException,
                       worker: int = -1,
                       elapsed_s: float = 0.0) -> "JobFailure":
        return cls(
            job=job,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(_traceback.format_exception(
                type(exc), exc, exc.__traceback__)),
            elapsed_s=elapsed_s,
            worker=worker,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": "failed",
            "job": self.job.to_dict(),
            "digest": self.job.digest(),
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "elapsed_s": round(self.elapsed_s, 6),
            "worker": self.worker,
            "details": dict(self.details),
        }


def result_from_dict(payload: Dict[str, Any]):
    """Rebuild a :class:`JobResult` / :class:`JobFailure` from JSON."""
    job = job_from_dict(payload["job"])
    if payload.get("status") == "ok":
        return JobResult(
            job=job, payload=payload.get("payload", {}),
            cached=bool(payload.get("cached", False)),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            worker=int(payload.get("worker", -1)),
            artifacts=dict(payload.get("artifacts", {})),
        )
    return JobFailure(
        job=job,
        error_type=payload.get("error_type", "UnknownError"),
        message=payload.get("message", ""),
        traceback=payload.get("traceback", ""),
        elapsed_s=float(payload.get("elapsed_s", 0.0)),
        worker=int(payload.get("worker", -1)),
        details=dict(payload.get("details", {})),
    )
