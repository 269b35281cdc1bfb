"""The fused census of the single-core report suite.

Every conv point of ``SUITE_CONFIGS`` runs at its benchmark geometry on
the block engine, plain and under a region table; how many dispatches
fused, how many of them as loop nests, the instructions they retired and
every side-exit site are pinned, so a change to the engine cannot lose a
fusion silently.  A ``hw``/``shift`` filter loop is an ``lp1`` loop nest;
a ``sw`` one is a software counted loop whose plan holds its dot-product
loops and compare trees.  Under a region table every filter loop spans
its ``dotprod`` and ``quant`` regions and side-exits as ``region``; its
inner loops then fuse one level at a time.
"""

import pytest

from repro.eval.matrix import Point, region_table, run, suite_geometry
from repro.eval.workloads import SUITE_CONFIGS

#: (bits, isa, quant, attach) -> (fused dispatches, nest dispatches,
#: fused instructions, side-exit sites as (pc, reason, count))
CENSUS = {
    (8, "xpulpnn", "shift", None): (224, 32, 162048, []),
    (8, "xpulpnn", "shift", "regions"): (448, 0, 156672,
                                          [(136, "region", 224)]),
    (4, "xpulpnn", "hw", None): (224, 32, 82944, []),
    (4, "xpulpnn", "hw", "regions"): (448, 0, 78336, [(140, "region", 224)]),
    (4, "xpulpnn", "sw", None): (224, 32, 93440, []),
    (4, "xpulpnn", "sw", "regions"): (448, 0, 78336, [(140, "region", 32)]),
    (4, "ri5cy", "sw", None): (224, 32, 459776, []),
    (4, "ri5cy", "sw", "regions"): (448, 0, 444672, [(332, "region", 32)]),
    (2, "xpulpnn", "hw", None): (224, 32, 45568, []),
    (2, "xpulpnn", "hw", "regions"): (448, 0, 39168, [(136, "region", 96)]),
    (2, "xpulpnn", "sw", None): (224, 32, 51712, []),
    (2, "xpulpnn", "sw", "regions"): (448, 0, 39168, [(136, "region", 32)]),
    (2, "ri5cy", "sw", None): (224, 32, 503296, []),
    (2, "ri5cy", "sw", "regions"): (448, 0, 490752, [(752, "region", 32)]),
}


def test_census_covers_the_suite():
    assert {key[:3] for key in CENSUS} == set(SUITE_CONFIGS)


@pytest.mark.parametrize("bits,isa,quant,attach", sorted(
    CENSUS, key=lambda key: (key[:3], key[3] or "")))
def test_fused_census(bits, isa, quant, attach):
    point = Point("conv", bits, isa, quant)
    execution = run(point, suite_geometry(point),
                    region_table if attach else None)
    stats = execution.sim.engine_stats
    census = (stats["fused_dispatches"], stats["nest_dispatches"],
              stats["fused_instructions"],
              [(site["pc"], site["reason"], site["count"])
               for site in stats["side_exit_sites"]])
    assert census == CENSUS[(bits, isa, quant, attach)]
