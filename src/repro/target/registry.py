"""Named-target registry: every machine the paper compares, in one table.

The registry holds one :class:`TargetSpec` per platform of the paper's
result matrix (Fig 7-9, Tables I/III): the RI5CY baseline, the XpulpNN
single core, the 2/4/8-core XpulpNN clusters, and the two ARM Cortex-M
baselines.  ``xpulpnn-cluster<N>`` names are parametric — any positive
core count resolves, with the canonical 2/4/8 listed.

Most callers want :func:`get_target`::

    spec = get_target("xpulpnn-cluster8")
    machine = build_machine(spec)          # see repro.target.machine
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import TargetError
from . import names
from .spec import (
    FAMILY_ARM,
    FAMILY_RISCV,
    QUANT_HW,
    QUANT_SW,
    TargetSpec,
)

#: Populated lazily on first lookup (keeps this module import-order safe:
#: the memory map, operating point, and ARM cost cores live in packages
#: that themselves import :mod:`repro.target.names`).
_REGISTRY: Optional[Dict[str, TargetSpec]] = None

#: Cache of synthesized parametric cluster specs; kept apart from the
#: registry so listings only show the canonical table.
_DYNAMIC: Dict[str, TargetSpec] = {}


def _builtin_specs() -> List[TargetSpec]:
    from ..baselines.armv7em import CORES
    from ..physical.technology import NOMINAL
    from ..soc.memmap import L2_SIZE, TCDM_SIZE

    freq = NOMINAL.freq_hz
    riscv = dict(
        family=FAMILY_RISCV, cores=1, cluster=False, l2_bytes=L2_SIZE,
        tcdm_bytes=0, freq_hz=freq,
    )
    specs = [
        TargetSpec(
            name=names.RI5CY, display=names.RI5CY, isa=names.RI5CY,
            extensions=(names.XPULPV2,), power_model=names.RI5CY,
            quant=QUANT_SW,
            description="RI5CY baseline: RV32IMC + XpulpV2, software "
                        "staircase quantization",
            **riscv,
        ),
        TargetSpec(
            name=names.XPULPV2, display=names.XPULPV2, isa=names.RI5CY,
            extensions=(names.XPULPV2,), power_model=names.RI5CY,
            quant=QUANT_SW,
            description="alias of the RI5CY core named after its DSP "
                        "extension set",
            **riscv,
        ),
        TargetSpec(
            name=names.XPULPNN, display=names.XPULPNN, isa=names.XPULPNN,
            extensions=(names.XPULPV2, names.XPULPNN),
            power_model=names.XPULPNN, quant=QUANT_HW,
            description="single XpulpNN core on PULPissimo: sub-byte SIMD "
                        "+ hardware requantization",
            **riscv,
        ),
    ]
    for cores in (2, 4, 8):
        specs.append(TargetSpec(
            name=f"{names.CLUSTER_PREFIX}{cores}",
            display=f"{names.XPULPNN} x{cores}",
            family=FAMILY_RISCV, isa=names.XPULPNN,
            extensions=(names.XPULPV2, names.XPULPNN),
            cores=cores, cluster=True,
            l2_bytes=L2_SIZE, tcdm_bytes=TCDM_SIZE, freq_hz=freq,
            power_model=names.XPULPNN, quant=QUANT_HW,
            description=f"{cores}-core XpulpNN PULP cluster "
                        f"(shared TCDM, DMA, hw barriers)",
        ))
    for key, core in CORES.items():
        specs.append(TargetSpec(
            name=key.lower(), display=key, family=FAMILY_ARM, isa="",
            extensions=(), cores=1, cluster=False,
            l2_bytes=core.sram_bytes, tcdm_bytes=0, freq_hz=core.freq_hz,
            power_model="datasheet", quant=QUANT_SW,
            timing="cmsis-nn cost model",
            description=f"{core.name} Cortex-M baseline "
                        f"(CMSIS-NN cost model, Fig 8/9)",
        ))
    return specs


def _ensure() -> Dict[str, TargetSpec]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = {}
        for spec in _builtin_specs():
            _REGISTRY[spec.name] = spec
    return _REGISTRY


def register(spec: TargetSpec, overwrite: bool = False) -> TargetSpec:
    """Add *spec* to the registry (e.g. a derived experimental target)."""
    registry = _ensure()
    if spec.name in registry and not overwrite:
        raise TargetError(f"target {spec.name!r} is already registered")
    registry[spec.name] = spec
    return spec


def register_ephemeral(spec: TargetSpec) -> TargetSpec:
    """Make *spec* resolvable by name without listing it.

    Explore candidates (``repro explore``) register hundreds of derived
    specs per run; they belong in the same namespace as the parametric
    clusters — :func:`get_target` finds them, ``repro targets`` does not
    — and re-registering the *same* content under the same name is a
    no-op, so cache-friendly repeat runs are cheap.  A name collision
    with different content raises (digests disagree -> silently serving
    the old spec would corrupt result-cache keys).
    """
    registry = _ensure()
    if spec.name in registry:
        raise TargetError(
            f"target {spec.name!r} shadows a canonical registry entry")
    existing = _DYNAMIC.get(spec.name)
    if existing is not None and existing.digest() != spec.digest():
        raise TargetError(
            f"ephemeral target {spec.name!r} already registered with "
            f"different content (digest {existing.digest()[:12]} != "
            f"{spec.digest()[:12]})")
    _DYNAMIC[spec.name] = spec
    return spec


def _parse_cluster_name(name: str) -> Optional[int]:
    if not name.startswith(names.CLUSTER_PREFIX):
        return None
    suffix = name[len(names.CLUSTER_PREFIX):]
    if suffix.isdigit() and int(suffix) >= 1:
        return int(suffix)
    return None


def get_target(target) -> TargetSpec:
    """Resolve *target* (a name or an already-built spec) to a spec.

    Accepts registry names case-insensitively, the evaluation display
    keys (``"STM32L4"``), and parametric ``xpulpnn-cluster<N>`` names
    for any core count.
    """
    if isinstance(target, TargetSpec):
        return target
    if not isinstance(target, str):
        raise TargetError(
            f"target must be a name or TargetSpec, got {type(target).__name__}")
    registry = _ensure()
    name = target.lower()
    if name in registry:
        return registry[name]
    if name in _DYNAMIC:
        return _DYNAMIC[name]
    cores = _parse_cluster_name(name)
    if cores is not None:
        base = registry[f"{names.CLUSTER_PREFIX}8"]
        spec = base.evolve(
            name=name, display=f"{names.XPULPNN} x{cores}",
            cores=cores,
            description=f"{cores}-core XpulpNN PULP cluster "
                        f"(shared TCDM, DMA, hw barriers)",
        )
        _DYNAMIC[name] = spec
        return spec
    raise TargetError(
        f"unknown target {target!r}; registered targets: "
        f"{', '.join(sorted(registry))}"
    )


def target_names() -> List[str]:
    """Canonical registry names, RISC-V first, then ARM baselines."""
    registry = _ensure()
    riscv = [s.name for s in registry.values() if s.family == FAMILY_RISCV]
    arm = [s.name for s in registry.values() if s.family == FAMILY_ARM]
    return sorted(riscv) + sorted(arm)


def list_targets(family: Optional[str] = None) -> List[TargetSpec]:
    """All registered specs, optionally filtered by family."""
    registry = _ensure()
    specs = [registry[name] for name in target_names()]
    if family is not None:
        specs = [spec for spec in specs if spec.family == family]
    return specs


def riscv_targets() -> List[TargetSpec]:
    return list_targets(FAMILY_RISCV)


def arm_targets() -> List[TargetSpec]:
    return list_targets(FAMILY_ARM)
