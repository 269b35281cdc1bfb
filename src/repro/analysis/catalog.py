"""The programs the static verifier and cost analyzer sweep.

``repro lint --kernels`` and ``repro cost`` cover the catalog points of
the kernel matrix (:mod:`repro.eval.matrix`) at its lint geometry, plus
(:func:`compiled_network_programs`) the programs the network compiler
lowers, so lowering regressions are caught statically;
:func:`run_race_check` runs a parallel catalog point under TCDM access
tracing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Tuple

from ..asm.program import Program


def catalog_kernel_names() -> List[str]:
    """Names of every catalog point, in catalog order."""
    from ..eval.matrix import catalog_points

    return [point.name for point in catalog_points()]


def kernel_program(name: str) -> Program:
    """The linked program of the catalog point named *name*."""
    from ..eval.matrix import LINT_GEOMETRY, build, catalog_point

    return build(catalog_point(name), LINT_GEOMETRY).program


def builtin_kernel_programs() -> Iterator[Tuple[str, Program]]:
    """Yield ``(name, linked_program)`` for every catalog point."""
    for name in catalog_kernel_names():
        yield name, kernel_program(name)


def compiled_network_programs(
    network: str = "mixed3",
    cores: int = 2,
) -> Iterator[Tuple[str, Program]]:
    """Yield the distinct programs the network compiler lowers for *network*.

    Programs are deduplicated by content digest — tile variants of one
    layer often share an image — so the lint sweep scales with the number
    of distinct lowered kernels, not the tile count.
    """
    from ..compiler import NetworkCompiler, build_network

    built = build_network(network)
    compiled = NetworkCompiler(
        built.network, built.input_shape, input_bits=built.input_bits,
        num_cores=cores, tcdm_budget=built.tcdm_budget,
    ).compile()
    seen: Dict[str, str] = {}
    for name, program in compiled.programs():
        digest = program.digest()
        if digest in seen:
            continue
        seen[digest] = name
        yield f"{network}/{name}", program


def run_race_check(kernel: str = "matmul", cores: int = 2):
    """Run a parallel catalog point under TCDM access tracing.

    Runs ``parallel-matmul-4b`` or ``parallel-conv-4b`` sharded over
    *cores* on the matrix's seeded tensors and returns the
    :class:`~repro.analysis.race.RaceReport` of the recorded trace.
    """
    from ..errors import ReproError
    from ..eval.matrix import LINT_GEOMETRY, catalog_point, run
    from .race import detect_races

    if kernel not in ("matmul", "conv"):
        raise ReproError(
            f"unknown race target {kernel!r}; choose 'matmul' or 'conv'")
    if cores < 2:
        raise ReproError("a race check needs a cluster of at least 2 cores")
    point = replace(catalog_point(f"parallel-{kernel}-4b"), cores=cores)
    execution = run(point, LINT_GEOMETRY,
                    lambda program, cluster: cluster.enable_access_trace())
    return detect_races(execution.observer, name=f"{point.name}-{cores}core")
