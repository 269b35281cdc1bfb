"""The fused census of the single-core report suite.

Every conv point of ``SUITE_CONFIGS`` runs at its benchmark geometry on
the block engine, plain and under a region table; how many dispatches
fused, how many of them as loop nests, the instructions they retired and
every side-exit site are pinned, so a change to the engine cannot lose a
fusion silently.  A ``hw``/``shift`` filter loop is an ``lp1`` loop nest;
a ``sw`` one is a software counted loop whose plan holds its dot-product
loops and compare trees.  A region table only observes: every filter
loop spans its ``dotprod`` and ``quant`` regions and still runs as one
plan, so the profiled census is the plain one.
"""

import pytest

from repro.eval.matrix import Point, region_table, run, suite_geometry
from repro.eval.workloads import SUITE_CONFIGS

#: (bits, isa, quant) -> (fused dispatches, nest dispatches, fused
#: instructions, side-exit sites as (pc, reason, count)), with or
#: without a region table
CENSUS = {
    (8, "xpulpnn", "shift"): (224, 32, 162048, []),
    (4, "xpulpnn", "hw"): (224, 32, 82944, []),
    (4, "xpulpnn", "sw"): (224, 32, 93440, []),
    (4, "ri5cy", "sw"): (224, 32, 459776, []),
    (2, "xpulpnn", "hw"): (224, 32, 45568, []),
    (2, "xpulpnn", "sw"): (224, 32, 51712, []),
    (2, "ri5cy", "sw"): (224, 32, 503296, []),
}


def test_census_covers_the_suite():
    assert set(CENSUS) == set(SUITE_CONFIGS)


@pytest.mark.parametrize("bits,isa,quant,attach", [
    key + (attach,) for key in sorted(CENSUS) for attach in (None, "regions")])
def test_fused_census(bits, isa, quant, attach):
    point = Point("conv", bits, isa, quant)
    execution = run(point, suite_geometry(point),
                    region_table if attach else None)
    stats = execution.sim.engine_stats
    census = (stats["fused_dispatches"], stats["nest_dispatches"],
              stats["fused_instructions"],
              [(site["pc"], site["reason"], site["count"])
               for site in stats["side_exit_sites"]])
    assert census == CENSUS[(bits, isa, quant)]
