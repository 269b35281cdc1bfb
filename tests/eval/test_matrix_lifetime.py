"""A finished kernel-matrix run is freed by reference counting alone.

With the cyclic garbage collector off, the Cpu or Cluster of
:func:`repro.eval.matrix.run` must die as soon as the last reference to
the run goes: no reference cycle (core and engine, cluster, ports and
cores, threshold-layout closures) may keep it, and its memory images,
alive until a collection happens to run.
"""

import gc
import weakref

import pytest

from repro.eval.matrix import resolve, run


@pytest.mark.parametrize("name,cores", [("matmul_4bit", 8),
                                        ("conv_4bit", 1)])
def test_finished_run_is_freed_without_the_cyclic_gc(name, cores):
    point, geometry = resolve(name, cores=cores)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        execution = run(point, geometry)
        sim = weakref.ref(execution.sim)
        del execution
        assert sim() is None
    finally:
        if enabled:
            gc.enable()
