"""Declarative target description: one frozen record per machine.

A :class:`TargetSpec` answers every "which machine am I on?" question the
library used to settle with ad-hoc string comparisons: which ISA config to
assemble against, how many cores, how much L2/TCDM, which Table III power
model prices a cycle, and whether sub-byte quantization runs on the
``pv.qnt`` hardware or the software staircase.  Specs are frozen so a
registered target can be shared freely; derive variants with
:meth:`TargetSpec.evolve`, which re-runs validation and keeps digests
stable (same overrides -> same digest, in any process).

Capability queries go through :meth:`TargetSpec.has`, e.g.::

    spec = get_target("xpulpnn")
    spec.has("pv.qnt")        # True  -> hardware quantization
    get_target("ri5cy").has("pv.qnt")   # False -> software staircase
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

from ..errors import TargetError

#: Family tags.
FAMILY_RISCV = "riscv"
FAMILY_ARM = "arm"

#: Quantization modes (paper §III-B): hardware FSM vs software staircase.
QUANT_HW = "hw"
QUANT_SW = "sw"


@dataclass(frozen=True)
class TargetSpec:
    """Everything the library needs to know about one machine."""

    #: Registry key (``repro targets`` name), e.g. ``"xpulpnn-cluster8"``.
    name: str
    #: Human/report label; the evaluation tables key ARM rows by this.
    display: str
    #: ``"riscv"`` or ``"arm"`` (ARM entries are cost-model baselines).
    family: str
    #: ISA configuration name for the assembler/simulator ("" for ARM).
    isa: str
    #: Extension subsets stacked on RV32IMC, in layering order.
    extensions: Tuple[str, ...]
    #: Number of cores (1 = single-core SoC, >1 only with ``cluster``).
    cores: int
    #: True when the target is the multi-core PULP cluster.
    cluster: bool
    #: L2 scratchpad size in bytes (the deployer's working-set budget).
    l2_bytes: int
    #: Per-cluster TCDM size in bytes (0 for targets without a cluster).
    tcdm_bytes: int
    #: Operating frequency for latency/energy conversions.
    freq_hz: float
    #: Key into the Table III power models (:func:`repro.physical.model_for`).
    power_model: str
    #: Sub-byte requantization mode: ``"hw"`` (pv.qnt) or ``"sw"``.
    quant: str
    #: Timing model identifier (descriptive; all RISC-V targets share the
    #: cycle-approximate model of :mod:`repro.core.timing`).
    timing: str = "cycle-approx"
    #: One-line description for listings.
    description: str = ""

    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        if self.family not in (FAMILY_RISCV, FAMILY_ARM):
            raise TargetError(
                f"target {self.name!r}: unknown family {self.family!r}")
        if self.quant not in (QUANT_HW, QUANT_SW):
            raise TargetError(
                f"target {self.name!r}: quant must be 'hw' or 'sw', "
                f"got {self.quant!r}")
        if self.cores < 1:
            raise TargetError(f"target {self.name!r}: needs at least 1 core")
        if self.cores > 1 and not self.cluster:
            raise TargetError(
                f"target {self.name!r}: multi-core targets must be clusters")

    # -- capability queries ---------------------------------------------

    def has(self, feature: str) -> bool:
        """True if the target provides *feature*.

        *feature* may be an extension-subset name (``"xpulpnn"``), an
        exact mnemonic (``"pv.qnt.n"``), or a mnemonic prefix
        (``"pv.qnt"`` matches ``pv.qnt.n``/``pv.qnt.c``).
        """
        if feature in self.extensions:
            return True
        if self.family != FAMILY_RISCV:
            return False
        from ..isa.registry import build_isa

        isa = build_isa(self.isa)
        if isa.has(feature):
            return True
        prefix = feature + "."
        return any(spec.mnemonic.startswith(prefix) for spec in isa.specs)

    @property
    def riscv(self) -> bool:
        return self.family == FAMILY_RISCV

    @property
    def hw_quant(self) -> bool:
        """True when sub-byte requantization runs on the pv.qnt hardware."""
        return self.quant == QUANT_HW

    @property
    def subbyte_simd(self) -> bool:
        """True when the core has native 4/2-bit SIMD dot products."""
        return self.riscv and self.has("pv.sdotsp.n")

    def capabilities(self) -> Dict[str, bool]:
        """Machine-readable capability flags (``repro targets --json``).

        The keys are the queries the rest of the library actually asks —
        kernel selection (`subbyte_simd`), quant-path routing
        (`hw_quant`), machine construction (`cluster`, `simulator`) —
        so explore reports and external tooling can reason about a
        target from its listing alone.
        """
        return {
            "riscv": self.riscv,
            "cluster": self.cluster,
            "simulator": self.riscv,
            "subbyte_simd": self.subbyte_simd,
            "hw_quant": self.hw_quant,
            "dma": self.cluster,
        }

    # -- derived configuration ------------------------------------------

    def quant_for(self, bits: int) -> str:
        """Kernel quantization mode for a *bits*-wide layer."""
        return "shift" if bits == 8 else self.quant

    def mem_bytes(self, needed: int = 0) -> int:
        """Main-memory size for a flat (non-cluster) machine.

        Kernels are linked against a memory at least as large as the L2
        so layouts match the SoC; oversized working sets still get a
        memory that fits (the deployer budgets them separately).
        """
        return max(int(needed), self.l2_bytes)

    # -- derivation ------------------------------------------------------

    def evolve(self, **overrides: Any) -> "TargetSpec":
        """A validated variant of this spec with *overrides* applied.

        This is the one sanctioned way to mutate a frozen spec (explore
        candidates, the parametric ``xpulpnn-cluster<N>`` targets, sweep
        axes): unknown field names raise :class:`TargetError` instead of
        silently minting an unrelated record, ``__post_init__``
        re-validates the combination, and the result's :meth:`digest`
        depends only on the final field values — evolving two equal
        specs with equal overrides yields equal digests in any process,
        and a no-op evolve reproduces this spec's digest exactly.
        """
        unknown = set(overrides) - set(self.__dataclass_fields__)
        if unknown:
            raise TargetError(
                f"target {self.name!r}: evolve() got unknown fields "
                f"{sorted(unknown)}")
        data = self.to_dict()
        data.update(overrides)
        return type(self).from_dict(data)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["extensions"] = list(self.extensions)
        return payload

    def digest(self) -> str:
        """Stable content hash of the frozen spec (hex SHA-256).

        The digest is computed over the canonical JSON form of
        :meth:`to_dict` (sorted keys, no whitespace), so it is identical
        across processes and Python versions for equal specs and differs
        whenever any field differs.  It is the target component of the
        result-cache key (:mod:`repro.serve`).
        """
        import hashlib
        import json

        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TargetSpec":
        data = dict(payload)
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise TargetError(
                f"unknown TargetSpec fields: {sorted(unknown)}")
        data["extensions"] = tuple(data.get("extensions", ()))
        return cls(**data)
