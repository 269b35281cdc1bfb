"""Network deployer: whole networks on the simulated MCU."""

import numpy as np
import pytest

from repro.errors import KernelError, TargetError
from repro.qnn import (
    MaxPool,
    NetworkDeployer,
    QnnNetwork,
    QuantizedConv,
    QuantizedLinear,
    random_activations,
    random_weights,
)
from repro.qnn.quantize import bridge_precision


@pytest.fixture(scope="module")
def small_net():
    rng = np.random.default_rng(55)
    net = QnnNetwork(name="deploy-test")
    net.add(QuantizedConv(
        weights=random_weights((16, 3, 3, 16), 4, rng), weight_bits=4,
        in_bits=4, out_bits=4, pad=1, name="conv4"))
    net.add(MaxPool(size=2))
    net.add(QuantizedConv(
        weights=random_weights((16, 3, 3, 16), 2, rng), weight_bits=2,
        in_bits=2, out_bits=2, pad=1, name="conv2"))
    net.add(QuantizedLinear(
        weights=random_weights((8, 16 * 4 * 4), 4, rng), weight_bits=4,
        in_bits=4, out_bits=8, name="fc"))
    return net


@pytest.fixture(scope="module")
def result(small_net):
    rng = np.random.default_rng(56)
    x = random_activations((8, 8, 16), 4, rng)
    return NetworkDeployer(small_net, input_shape=(8, 8, 16),
                           input_bits=4).run(x)


class TestDeployment:
    def test_all_layers_verified(self, result):
        assert result.verified
        assert len(result.layers) == 4

    def test_output_shape(self, result):
        assert result.output.shape == (8,)

    def test_cycles_accumulate(self, result):
        assert result.total_cycles == sum(l.cycles for l in result.layers)
        assert result.total_cycles > 0

    def test_energy_positive(self, result):
        assert result.total_energy_uj > 0
        assert all(l.energy_uj >= 0 for l in result.layers)

    def test_latency(self, result):
        assert result.latency_ms == pytest.approx(
            result.total_cycles / 250e6 * 1e3)

    def test_layer_kinds(self, result):
        assert [l.kind for l in result.layers] == ["conv", "pool", "conv",
                                                   "linear"]

    def test_bits_tracked(self, result):
        assert [l.bits for l in result.layers] == [4, 4, 2, 8]

    def test_render(self, result):
        text = result.render()
        assert "conv4" in text and "verified=yes" in text

    def test_conv_layers_dominate_cycles(self, result):
        conv_cycles = sum(l.cycles for l in result.layers if l.kind == "conv")
        assert conv_cycles > 0.8 * result.total_cycles


class TestDeployerChecks:
    def test_input_shape_checked(self, small_net):
        deployer = NetworkDeployer(small_net, input_shape=(8, 8, 16),
                                   input_bits=4)
        with pytest.raises(KernelError):
            deployer.run(np.zeros((4, 4, 16), dtype=np.int32))

    def test_memory_budget_enforced(self):
        rng = np.random.default_rng(1)
        # A layer whose activations alone exceed 512 kB of L2.  The
        # baseline core has no tiled fallback, so it must reject it;
        # the XpulpNN deployer instead routes it through the tiling
        # compiler (tests/compiler/test_deploy_routing.py).
        net = QnnNetwork([QuantizedConv(
            weights=random_weights((8, 3, 3, 32), 8, rng), weight_bits=8,
            in_bits=8, out_bits=8, pad=1, name="huge")])
        deployer = NetworkDeployer(net, input_shape=(128, 128, 32),
                                   input_bits=8, target="ri5cy")
        with pytest.raises(KernelError, match="L2"):
            deployer.run(np.zeros((128, 128, 32), dtype=np.int32))

    def test_oversized_layer_rejected_on_single_core_xpulpnn(self):
        """Over-L2 layers raise on *every* single-core target (the old
        deployer silently fell back to tiling on XpulpNN only)."""
        rng = np.random.default_rng(2)
        net = QnnNetwork([QuantizedConv(
            weights=random_weights((8, 3, 3, 32), 8, rng), weight_bits=8,
            in_bits=8, out_bits=8, pad=1, name="huge")])
        deployer = NetworkDeployer(net, input_shape=(128, 128, 32),
                                   input_bits=8, target="xpulpnn")
        with pytest.raises(KernelError, match="xpulpnn"):
            deployer.run(np.zeros((128, 128, 32), dtype=np.int32))

    def test_unknown_layer_rejected(self):
        class Mystery:
            name = "?"

            def golden(self, x):
                return x

        net = QnnNetwork([Mystery()])
        deployer = NetworkDeployer(net, input_shape=(4, 4, 16), input_bits=4)
        with pytest.raises(KernelError, match="no kernel mapping"):
            deployer.run(np.zeros((4, 4, 16), dtype=np.int32))

    def test_baseline_core_deployment(self, small_net):
        """The same network deploys on the baseline core (sw staircase)."""
        rng = np.random.default_rng(57)
        x = random_activations((8, 8, 16), 4, rng)
        # Pooling at sub-byte needs XpulpNN; build an 8-bit-only net.
        net = QnnNetwork([QuantizedConv(
            weights=random_weights((8, 3, 3, 16), 8, rng), weight_bits=8,
            in_bits=8, out_bits=8, pad=1, name="conv8")])
        result = NetworkDeployer(net, input_shape=(8, 8, 16), input_bits=8,
                                 target="ri5cy").run(
            random_activations((8, 8, 16), 8, rng))
        assert result.verified

class TestClusterDeployment:
    @pytest.fixture(scope="class")
    def cluster_result(self, small_net):
        rng = np.random.default_rng(56)
        x = random_activations((8, 8, 16), 4, rng)
        return NetworkDeployer(small_net, input_shape=(8, 8, 16),
                               input_bits=4,
                               target="xpulpnn-cluster4").run(x)

    def test_bit_identical_to_single_core(self, small_net, result,
                                          cluster_result):
        assert cluster_result.verified
        assert np.array_equal(cluster_result.output, result.output)

    def test_conv_layers_parallelized(self, cluster_result):
        conv_cores = [l.cores for l in cluster_result.layers
                      if l.kind == "conv"]
        assert conv_cores == [4, 4]
        # Pool and linear layers stay on one core.
        other = [l.cores for l in cluster_result.layers
                 if l.kind != "conv"]
        assert all(c == 1 for c in other)

    def test_cluster_runs_faster(self, result, cluster_result):
        assert cluster_result.total_cycles < 0.5 * result.total_cycles

    def test_unknown_target_rejected(self, small_net):
        with pytest.raises(TargetError, match="gpu"):
            NetworkDeployer(small_net, input_shape=(8, 8, 16),
                            input_bits=4, target="gpu")

    def test_render_shows_cores(self, cluster_result):
        text = cluster_result.render()
        assert "cores" in text


class TestBridge:
    def test_bridge_drops_lsbs(self):
        """The 4->2 bit bridge must be a plain LSB drop."""
        x = np.array([[[15]]], dtype=np.int32)
        assert bridge_precision(x, 4, 2)[0, 0, 0] == 3
        assert bridge_precision(x, 4, 4)[0, 0, 0] == 15
        assert bridge_precision(x, 2, 4)[0, 0, 0] == 15
