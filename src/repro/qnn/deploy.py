"""Network deployer: run a whole :class:`QnnNetwork` on the simulated MCU.

This is the adoption-level API on top of the kernel generators: give it a
network description and an input, and it

* calibrates each quantized layer on the golden model (thresholds/shifts),
* generates the matching kernel for every layer,
* checks the PULPissimo memory budget (512 kB L2) for every layer's
  working set — layers that exceed it are no longer an error: on the
  XpulpNN cluster they are routed through the deployment compiler
  (:mod:`repro.compiler`), which tiles them through TCDM-sized,
  double-buffered slices,
* executes layer by layer, bridging bit-width changes between layers
  (dropping LSBs when a layer narrows precision),
* verifies each layer's output bit-exactly against the golden model,
* and accounts cycles and energy per layer via the Table III power model.

Example::

    deployer = NetworkDeployer(network, input_shape=(16, 16, 16),
                               target="xpulpnn-cluster8")
    result = deployer.run(x)
    print(result.render())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.perf import PerfCounters
from ..errors import KernelError
from ..soc.memmap import L2_SIZE
from ..target import get_target
from ..target.names import XPULPNN
from .layers import ConvGeometry
from .network import AvgPool, MaxPool, QnnNetwork, QuantizedConv, QuantizedLinear
from .quantize import bridge_precision

#: PULPissimo L2 budget (paper Fig. 5) — one definition, in the memory map.
L2_BUDGET_BYTES = L2_SIZE


@dataclass
class LayerExecution:
    """One layer's measured execution."""

    name: str
    kind: str
    bits: int
    cycles: int
    macs: int
    energy_uj: float
    output_shape: Tuple[int, ...]
    verified: bool
    perf: PerfCounters
    #: Cores the layer actually ran on (1 = single-core / no shard fit).
    cores: int = 1
    #: Tiles the layer was split into (1 = single-shot execution).
    tiles: int = 1


@dataclass
class DeployResult:
    layers: List[LayerExecution]
    output: np.ndarray
    freq_hz: float

    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_energy_uj(self) -> float:
        return sum(layer.energy_uj for layer in self.layers)

    @property
    def latency_ms(self) -> float:
        return self.total_cycles / self.freq_hz * 1e3

    @property
    def verified(self) -> bool:
        return all(layer.verified for layer in self.layers)

    def render(self) -> str:
        lines = [f"{'layer':<28s} {'kind':<10s} {'bits':>4s} {'cores':>5s} "
                 f"{'cycles':>10s} {'energy[uJ]':>10s} {'shape'}"]
        for layer in self.layers:
            lines.append(
                f"{layer.name:<28s} {layer.kind:<10s} {layer.bits:>4d} "
                f"{layer.cores:>5d} "
                f"{layer.cycles:>10,} {layer.energy_uj:>10.3f} "
                f"{layer.output_shape}"
            )
        lines.append(
            f"total: {self.total_cycles:,} cycles, "
            f"{self.latency_ms:.2f} ms @ {self.freq_hz / 1e6:.0f} MHz, "
            f"{self.total_energy_uj:.2f} uJ, "
            f"verified={'yes' if self.verified else 'NO'}"
        )
        return "\n".join(lines)


class NetworkDeployer:
    """Map a sequential QNN onto generated kernels and run it."""

    def __init__(self, network: QnnNetwork, input_shape: Tuple[int, int, int],
                 input_bits: int = 8, target=XPULPNN,
                 l2_budget: int = None) -> None:
        self.spec = get_target(target)
        self.network = network
        self.input_shape = input_shape
        self.input_bits = input_bits
        self.l2_budget = self.spec.l2_bytes if l2_budget is None else l2_budget

    @property
    def num_cores(self) -> int:
        return self.spec.cores

    # ------------------------------------------------------------------

    def _check_budget(self, name: str, nbytes: int) -> None:
        if nbytes > self.l2_budget:
            raise KernelError(
                f"layer {name!r} needs {nbytes} B of L2, exceeding the "
                f"{self.l2_budget} B budget of target {self.spec.name!r}; "
                f"deploy on a cluster target to tile it through TCDM"
            )

    def _run_tiled(self, name: str, layer, x: np.ndarray, in_bits: int,
                   freq_hz: float):
        """Deploy one over-budget layer through the tiling compiler.

        The layer is compiled as a single-layer network against the TCDM
        budget and executed with the double-buffered schedule; weights
        stream through L2 slice-by-slice, so the single-shot L2 ceiling
        no longer applies.
        """
        from ..compiler import NetworkCompiler, PlanExecutor

        sub = QnnNetwork(layers=[layer], name=name)
        cores = self.spec.cores
        compiled = NetworkCompiler(
            sub, tuple(x.shape), input_bits=in_bits, num_cores=cores,
        ).compile()
        result = PlanExecutor(compiled).run(x, freq_hz=freq_hz)
        lr = result.layers[0]
        if not lr.verified:
            raise KernelError(f"layer {name!r} diverged from golden")
        execution = LayerExecution(
            name=name, kind=lr.kind, bits=lr.out_bits, cycles=lr.cycles,
            macs=lr.macs, energy_uj=lr.energy_uj,
            output_shape=lr.output_shape, verified=lr.verified,
            perf=lr.perf, cores=lr.cores, tiles=lr.tiles,
        )
        return execution, result.output

    def _make_conv_kernel(self, geometry: ConvGeometry, bits: int,
                          quant: str):
        """Build the conv kernel for the selected target.

        On cluster targets, layers whose geometry shards cleanly run
        on the parallel kernel; anything else (odd row counts, working
        sets beyond the TCDM) falls back to one core — the graceful path
        a real deployment flow takes when a layer does not tile.
        """
        from ..kernels import select

        selection = select("conv", bits, self.spec, quant=quant,
                           cluster_fallback=True, geometry=geometry)
        return selection.kernel, selection.cores

    def _conv_working_set(self, geometry: ConvGeometry, bits: int) -> int:
        """Estimate the conv working set before generating any code."""
        pad_h = geometry.in_h + 2 * geometry.pad
        pad_w = geometry.in_w + 2 * geometry.pad
        acts = pad_h * pad_w * geometry.in_ch * bits // 8
        weights = geometry.out_ch * geometry.reduction * bits // 8
        out = geometry.out_pixels * geometry.out_ch * bits // 8
        im2col = 2 * geometry.reduction * max(bits, 8) // 8
        return acts + weights + out + im2col + 4096

    # ------------------------------------------------------------------

    def run(self, x: np.ndarray, freq_hz: float = 250e6) -> DeployResult:
        """Execute the network; raises if any layer diverges from golden."""
        from ..kernels import select
        from ..kernels.pooling import avgpool_cascade_golden
        from ..physical import model_for
        from .layers import conv2d_golden, maxpool_golden
        from .quantize import requantize_shift
        from .thresholds import thresholds_from_accumulators

        x = np.asarray(x, dtype=np.int32)
        if x.shape != tuple(self.input_shape):
            raise KernelError(
                f"input shape {x.shape} != declared {self.input_shape}")
        bits = self.input_bits
        power_model = model_for(self.spec.power_model)
        cluster_power = None
        if self.spec.cluster:
            from ..physical import cluster_model_for

            cluster_power = cluster_model_for(self.spec.power_model)
        executions: List[LayerExecution] = []

        for index, layer in enumerate(self.network.layers):
            name = f"{index}:{getattr(layer, 'name', type(layer).__name__)}"
            cores = 1
            if isinstance(layer, QuantizedConv):
                k_bits = layer.weight_bits
                x = bridge_precision(x, bits, k_bits)
                bits = k_bits
                h, w, _ = x.shape
                geometry = layer.geometry(h, w)
                need = self._conv_working_set(geometry, k_bits)
                if need > self.l2_budget:
                    # Only the cluster streams over-L2 layers through the
                    # tiling compiler; single-core targets reject them
                    # uniformly (no silent fallback on any ISA).
                    if not self.spec.cluster:
                        self._check_budget(name, need)
                    execution, x = self._run_tiled(
                        name, layer, x, k_bits, freq_hz)
                    bits = layer.out_bits
                    executions.append(execution)
                    continue
                acc = conv2d_golden(x, layer.weights, stride=layer.stride,
                                    pad=layer.pad)
                if layer.out_bits == 8:
                    if k_bits != 8:
                        raise KernelError(
                            f"layer {name!r}: mixed weight/output widths need "
                            f"a staircase (out_bits={layer.out_bits})")
                    layer.calibrate(acc)
                    kernel, cores = self._make_conv_kernel(
                        geometry, 8, "shift")
                    if cores == 1:
                        self._check_budget(name, kernel.layout.end)
                    run = kernel.run(layer.weights, x, shift=layer.shift)
                    expected = requantize_shift(acc, layer.shift, 8, signed=False)
                else:
                    thresholds = thresholds_from_accumulators(acc, layer.out_bits)
                    layer.thresholds = thresholds
                    kernel, cores = self._make_conv_kernel(
                        geometry, k_bits, self.spec.quant)
                    if cores == 1:
                        self._check_budget(name, kernel.layout.end)
                    run = kernel.run(layer.weights, x, thresholds=thresholds)
                    expected = thresholds.quantize(acc, channel_axis=-1)
                bits = layer.out_bits
                kind, macs = "conv", geometry.macs
                workload = f"matmul{k_bits}"
                sub_bits = k_bits
            elif isinstance(layer, (MaxPool, AvgPool)):
                op = "max" if isinstance(layer, MaxPool) else "avg"
                h, w, c = x.shape
                kernel = select("pool", bits, self.spec, in_h=h, in_w=w,
                                channels=c, op=op).kernel
                self._check_budget(name, kernel.layout.end)
                run = kernel.run(x)
                expected = (maxpool_golden(x, 2) if op == "max"
                            else avgpool_cascade_golden(x))
                kind, macs = "pool", 0
                workload, sub_bits = "gp", 8
            elif isinstance(layer, QuantizedLinear):
                k_bits = layer.weight_bits
                x = bridge_precision(x, bits, k_bits)
                bits = k_bits
                flat = x.reshape(-1)
                acc = layer.weights.astype(np.int64) @ flat
                from .quantize import choose_requant_shift

                if layer.shift is None:
                    layer.shift = choose_requant_shift(acc, 8, signed=False)
                kernel = select("linear", k_bits, self.spec,
                                in_features=flat.size,
                                out_features=layer.weights.shape[0]).kernel
                if kernel.layout.end > self.l2_budget:
                    if not self.spec.cluster:
                        self._check_budget(name, kernel.layout.end)
                    execution, x = self._run_tiled(
                        name, layer, x, k_bits, freq_hz)
                    bits = 8
                    executions.append(execution)
                    continue
                run = kernel.run(layer.weights, flat, shift=layer.shift)
                expected = requantize_shift(acc, layer.shift, 8, signed=False)
                bits = 8
                kind, macs = "linear", flat.size * layer.weights.shape[0]
                workload, sub_bits = f"matmul{k_bits}", k_bits
            else:
                raise KernelError(f"no kernel mapping for layer {name!r}")

            verified = bool(np.array_equal(run.output, expected))
            if not verified:
                raise KernelError(f"layer {name!r} diverged from golden")
            if cores > 1:
                # Cluster execution: idle-discounted per-core power, one
                # shared SoC term; counters recorded as the merged total.
                perf_rec = run.run.aggregate
                power = cluster_power.evaluate(
                    run.run.per_core, sub_byte_bits=sub_bits,
                ).cluster_total_w
            else:
                perf_rec = run.perf
                power = power_model.evaluate(
                    run.perf, sub_byte_bits=sub_bits,
                    workload_class=workload if workload != "gp" else "gp",
                ).soc_total_w
            energy = run.cycles / freq_hz * power * 1e6
            executions.append(LayerExecution(
                name=name, kind=kind, bits=bits, cycles=run.cycles,
                macs=macs, energy_uj=energy, output_shape=run.output.shape,
                verified=verified, perf=perf_rec, cores=cores,
            ))
            x = run.output.astype(np.int32)

        return DeployResult(layers=executions, output=x, freq_hz=freq_hz)
