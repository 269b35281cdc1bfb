"""Uniform quantization and requantization helpers.

Two requantization paths coexist in the paper's execution model (§II-2):

* **8-bit kernels**: scaling (right shift) and clamping compress the 32-bit
  accumulator back to 8 bits;
* **sub-byte kernels**: thresholding-based staircase compression (see
  :mod:`repro.qnn.thresholds`), because scale+clamp cannot absorb batch
  normalization at 4/2-bit without unacceptable accuracy loss.

Floating-point entry points (:func:`quantize_uniform`) exist so examples
can start from float weights; the benchmark harness synthesizes integer
tensors directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError


def int_range(bits: int, signed: bool) -> tuple:
    """(lo, hi) inclusive representable range."""
    if bits < 1 or bits > 32:
        raise KernelError(f"unsupported bit width {bits}")
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


@dataclass(frozen=True)
class QuantParams:
    """Symmetric uniform quantization parameters: ``real = scale * q``."""

    bits: int
    signed: bool
    scale: float

    def quantize(self, real: np.ndarray) -> np.ndarray:
        lo, hi = int_range(self.bits, self.signed)
        q = np.round(np.asarray(real, dtype=np.float64) / self.scale)
        return np.clip(q, lo, hi).astype(np.int32)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        return np.asarray(q, dtype=np.float64) * self.scale


def quantize_uniform(
    real: np.ndarray, bits: int, signed: bool = True
) -> tuple[np.ndarray, QuantParams]:
    """Symmetric min/max calibrated quantization of a float tensor."""
    real = np.asarray(real, dtype=np.float64)
    lo, hi = int_range(bits, signed)
    peak = np.abs(real).max() if real.size else 1.0
    peak = peak if peak > 0 else 1.0
    scale = peak / (hi if not signed else max(hi, 1))
    params = QuantParams(bits=bits, signed=signed, scale=float(scale))
    return params.quantize(real), params


def requantize_shift(
    acc: np.ndarray, shift: int, bits: int, signed: bool = False
) -> np.ndarray:
    """Scale-and-clamp requantization (the 8-bit compression path).

    ``out = clip(acc >> shift, range)`` with arithmetic shift, matching the
    ``pv.sra`` + ``p.clip``/``p.clipu`` sequence the 8-bit kernels emit.
    """
    if shift < 0 or shift > 31:
        raise KernelError(f"requantization shift {shift} out of range")
    lo, hi = int_range(bits, signed)
    shifted = np.asarray(acc, dtype=np.int64) >> shift
    return np.clip(shifted, lo, hi).astype(np.int32)


def bridge_precision(x: np.ndarray, from_bits: int,
                     to_bits: int) -> np.ndarray:
    """Precision bridge between layers: drop LSBs when narrowing."""
    if to_bits >= from_bits:
        return x.astype(np.int32)
    return (x >> (from_bits - to_bits)).astype(np.int32)


def relu(x: np.ndarray) -> np.ndarray:
    """Integer ReLU (the ``pv.max`` use case of Table II)."""
    return np.maximum(np.asarray(x), 0)


def choose_requant_shift(acc: np.ndarray, bits: int, signed: bool = False) -> int:
    """Pick the smallest shift that brings accumulator peaks into range."""
    lo, hi = int_range(bits, signed)
    peak = int(np.abs(np.asarray(acc)).max()) if np.asarray(acc).size else 0
    shift = 0
    while shift < 31 and (peak >> shift) > hi:
        shift += 1
    return shift
