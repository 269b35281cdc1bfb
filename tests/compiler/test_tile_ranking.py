"""Static-model tile ranking: agreement with the simulator + accounting.

The acceptance bar for wiring the static cost analyzer into the tile
search: on the ``mixed3`` reference network the static ranking of the
top candidates must agree with the simulated ranking (here the per-tile
estimates are in fact bit-identical), and the compile report must log
how many candidates the static model ranked.  Pricing a tile must not
walk each of its rows and pixel pairs: one step budget prices them all.
"""

import pytest

from repro.analysis import analyze_cost
from repro.compiler import (
    NetworkCompiler,
    build_network,
    conv_tile_candidates,
    search_conv_tiling,
    simulate_conv_cycles,
    static_conv_cycles,
)
from repro.compiler.tiling import conv_tile_geometry
from repro.errors import KernelError
from repro.kernels.parallel import ParallelConvConfig, ParallelConvKernel
from repro.qnn.network import QuantizedConv
from repro.target.names import XPULPNN

CORES = 2


def mixed3_conv_layers():
    """``(geometry, bits, quant)`` for every conv layer of mixed3."""
    built = build_network("mixed3")
    shape = built.input_shape
    out = []
    for layer in built.network.layers:
        if not isinstance(layer, QuantizedConv):
            break                   # mixed3's convs lead the network
        g = layer.geometry(shape[0], shape[1])
        quant = "shift" if layer.out_bits == 8 else "hw"
        out.append((g, layer.weight_bits, quant, built.tcdm_budget))
        shape = (g.out_h, g.out_w, g.out_ch)
    return out


class TestRankingAgreement:
    @pytest.mark.parametrize("index", [0, 1])
    def test_static_ranking_matches_simulated_ranking(self, index):
        g, bits, quant, budget = mixed3_conv_layers()[index]
        top = conv_tile_candidates(g, bits, quant, CORES, budget)[:4]
        assert len(top) >= 2
        static = [static_conv_cycles(g, bits, quant, XPULPNN, c)
                  for c in top]
        simulated = [simulate_conv_cycles(g, bits, quant, XPULPNN, c)
                     for c in top]
        # Stronger than rank agreement: the static estimate of every
        # candidate is bit-identical to its simulated active cycles.
        assert static == simulated

    def test_search_picks_the_statically_cheapest_candidate(self):
        g, bits, quant, budget = mixed3_conv_layers()[0]
        tiling = search_conv_tiling(g, bits, quant, CORES, budget)
        top = conv_tile_candidates(g, bits, quant, CORES, budget)[:4]
        best = min(static_conv_cycles(g, bits, quant, XPULPNN, c)
                   for c in top)
        assert tiling.static_cycles == best


class TestSearchAccounting:
    def test_stats_count_avoided_simulations(self):
        g, bits, quant, budget = mixed3_conv_layers()[0]
        tiling = search_conv_tiling(g, bits, quant, CORES, budget)
        stats = tiling.search
        assert stats.ranked >= 2
        assert stats.candidates >= stats.ranked
        assert stats.to_dict() == {"candidates": stats.candidates,
                                   "ranked": stats.ranked}

    def test_compile_report_logs_the_search_stats(self):
        built = build_network("mixed3")
        compiled = NetworkCompiler(
            built.network, built.input_shape,
            input_bits=built.input_bits, num_cores=CORES,
            tcdm_budget=built.tcdm_budget).compile()
        doc = compiled.to_dict()
        totals = doc["tile_search"]
        assert totals["ranked"] > 0
        assert totals["candidates"] >= totals["ranked"]
        conv_layers = [layer for layer in doc["layers"]
                       if layer["kind"] == "conv"]
        assert conv_layers
        for layer in conv_layers:
            assert layer["static_cycles"] > 0
            assert layer["tile_search"]["ranked"] >= 2
        assert (f"{totals['ranked']} ranked statically"
                in compiled.render())

    def test_impossible_budget_still_raises(self):
        g, bits, quant, _ = mixed3_conv_layers()[0]
        with pytest.raises(KernelError, match="no tile shape"):
            search_conv_tiling(g, bits, quant, CORES, 4096)


class TestPricingSteps:
    #: One abstract-step budget for every 8-core tile: the kernels'
    #: software row and pixel-pair loops fold like hardware loops, so
    #: the walk no longer grows with them.  Walked per iteration, the
    #: 16x16 tile took 1,964 steps.
    STEPS = 500

    @pytest.mark.parametrize("th, tw", [(8, 2), (16, 16)],
                             ids=["1-pair", "16-row"])
    def test_one_step_budget_prices_every_tile(self, th, tw):
        g, bits, quant, _ = mixed3_conv_layers()[0]
        kernel = ParallelConvKernel(ParallelConvConfig(
            geometry=conv_tile_geometry(g, th, tw, 16), bits=bits,
            isa=XPULPNN, quant=quant, num_cores=8))
        assert analyze_cost(kernel.program, max_steps=self.STEPS).exact
