"""QNN kernel library: generated ISS programs for every layer type.

The kernel matrix mirrors PULP-NN extended with XpulpNN (the paper's
benchmark software):

* :class:`ConvKernel` — full convolution layers (im2col + 2x2 MatMul +
  fused requantization) for 8/4/2-bit on both cores;
* :class:`MatmulKernel` — the standalone dot-product microkernel (power
  workload, unpack ablations);
* :class:`LinearKernel`, :class:`PoolKernel`, :class:`ReluKernel` — the
  remaining QNN layer types.
"""

from .common import KernelLayout, KernelRun, align_up, plan_layout
from .conv import ConvConfig, ConvKernel
from .dispatch import OPS, KernelSelection, select
from .depthwise import DepthwiseConfig, DepthwiseConvKernel, depthwise_golden
from .im2col import im2col_buffer_bytes, padded_row_bytes, pixel_bytes, seg_words_packed
from .linear import LinearConfig, LinearKernel
from .matmul import MatmulConfig, MatmulKernel, k_bytes, k_words
from .parallel import (
    ClusterKernelRun,
    ParallelConvConfig,
    ParallelConvKernel,
    ParallelMatmulConfig,
    ParallelMatmulKernel,
)
from .pooling import PoolConfig, PoolKernel, avgpool_cascade_golden
from .quant_sw import emit_quantize_software, software_tree_instruction_count
from .relu import ReluConfig, ReluKernel
from .unpack import golden_unpack_word, unpack_cost

__all__ = [
    "ClusterKernelRun",
    "ConvConfig",
    "ConvKernel",
    "DepthwiseConfig",
    "DepthwiseConvKernel",
    "depthwise_golden",
    "KernelLayout",
    "KernelRun",
    "KernelSelection",
    "LinearConfig",
    "LinearKernel",
    "MatmulConfig",
    "MatmulKernel",
    "OPS",
    "ParallelConvConfig",
    "ParallelConvKernel",
    "ParallelMatmulConfig",
    "ParallelMatmulKernel",
    "PoolConfig",
    "PoolKernel",
    "ReluConfig",
    "ReluKernel",
    "align_up",
    "avgpool_cascade_golden",
    "emit_quantize_software",
    "golden_unpack_word",
    "im2col_buffer_bytes",
    "k_bytes",
    "k_words",
    "padded_row_bytes",
    "pixel_bytes",
    "plan_layout",
    "seg_words_packed",
    "select",
    "software_tree_instruction_count",
    "unpack_cost",
]
