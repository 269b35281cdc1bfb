"""Threshold tables for staircase (thresholding-based) quantization.

The paper's QNN execution model (§II-2) re-quantizes the 16-bit MatMul
accumulators of a sub-byte layer into Q-bit activations by comparing them
against ``2**Q - 1`` per-channel thresholds that absorb bias and batch
normalization.  The optimal implementation walks a balanced binary tree of
thresholds (Fig. 2); ``pv.qnt`` implements exactly that walk in hardware.

This module owns:

* the **sorted <-> heap** layout conversion (the tree is stored in memory
  as a heap-ordered int16 array: root at index 0, children of node *i* at
  ``2i+1`` / ``2i+2``);
* the **memory image**: per-channel trees at the hard-wired stride
  ``pv.qnt`` assumes (32 B for 4-bit, 8 B for 2-bit);
* the **golden quantizer** (vectorized rank computation) that the hardware
  walk must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import KernelError
from ..isa.xpulpnn import CRUMB_TREE_STRIDE, NIBBLE_TREE_STRIDE

INT16_MIN, INT16_MAX = -(1 << 15), (1 << 15) - 1


def tree_stride(bits: int) -> int:
    """Byte stride between consecutive channels' threshold trees."""
    if bits == 4:
        return NIBBLE_TREE_STRIDE
    if bits == 2:
        return CRUMB_TREE_STRIDE
    raise KernelError(f"threshold quantization is defined for 4/2-bit, not {bits}")


def _in_order(n: int) -> List[int]:
    """The heap indices ``0 .. n-1`` in in-order (left, node, right)
    sequence, walked with an explicit stack."""
    order: List[int] = []
    stack: List[int] = []
    index = 0
    while stack or index < n:
        while index < n:
            stack.append(index)
            index = 2 * index + 1
        index = stack.pop()
        order.append(index)
        index = 2 * index + 2
    return order


def sorted_to_heap(sorted_thresholds: np.ndarray) -> np.ndarray:
    """Reorder sorted thresholds into the heap layout of a balanced BST.

    For ``n = 2**Q - 1`` thresholds the tree is perfect; an in-order
    traversal of the heap yields the sorted order, so the walk's MSB-first
    path bits equal the input's rank among the thresholds.
    """
    n = len(sorted_thresholds)
    if n + 1 & n:  # n+1 not a power of two
        raise KernelError(f"threshold count {n} is not 2**Q - 1")
    heap = np.empty(n, dtype=np.int64)
    heap[_in_order(n)] = sorted_thresholds
    return heap


def heap_to_sorted(heap: np.ndarray) -> np.ndarray:
    """Inverse of :func:`sorted_to_heap` (in-order traversal)."""
    return np.asarray([int(heap[i]) for i in _in_order(len(heap))],
                      dtype=np.int64)


@dataclass
class ThresholdTable:
    """Per-channel sorted thresholds for one layer's output quantization.

    ``thresholds[c]`` holds the ``2**bits - 1`` strictly increasing int16
    thresholds of channel *c*.  Quantization maps an accumulator ``x`` to
    ``sum(x > t for t in thresholds[c])`` — the staircase rank.
    """

    bits: int
    thresholds: np.ndarray  # shape (channels, 2**bits - 1), sorted ascending

    def __post_init__(self) -> None:
        expected = (1 << self.bits) - 1
        self.thresholds = np.asarray(self.thresholds, dtype=np.int64)
        if self.thresholds.ndim != 2 or self.thresholds.shape[1] != expected:
            raise KernelError(
                f"threshold table must be (channels, {expected}), "
                f"got {self.thresholds.shape}"
            )
        if np.any(np.diff(self.thresholds, axis=1) < 0):
            raise KernelError("thresholds must be sorted ascending per channel")
        if self.thresholds.min() < INT16_MIN or self.thresholds.max() > INT16_MAX:
            raise KernelError("thresholds must fit int16")

    @property
    def channels(self) -> int:
        return self.thresholds.shape[0]

    # -- golden model ----------------------------------------------------

    def quantize(self, acc: np.ndarray, channel_axis: int = -1) -> np.ndarray:
        """Vectorized staircase quantization of accumulators.

        *acc* has channels along *channel_axis*; the result holds unsigned
        levels in ``[0, 2**bits)``.
        """
        acc = np.asarray(acc, dtype=np.int64)
        moved = np.moveaxis(acc, channel_axis, -1)
        if moved.shape[-1] != self.channels:
            raise KernelError(
                f"accumulator has {moved.shape[-1]} channels, table has {self.channels}"
            )
        # x > t  <=>  rank by searchsorted with side='left' over thresholds.
        levels = np.empty_like(moved)
        for c in range(self.channels):
            levels[..., c] = np.searchsorted(
                self.thresholds[c], moved[..., c], side="left"
            )
        return np.moveaxis(levels, -1, channel_axis)

    # -- memory image -----------------------------------------------------

    def heap_image(self) -> bytes:
        """Serialized per-channel heap trees at the hardware stride."""
        stride = tree_stride(self.bits)
        count = self.thresholds.shape[1]
        image = bytearray(stride * self.channels)
        for c in range(self.channels):
            heap = sorted_to_heap(self.thresholds[c])
            offset = c * stride
            for i in range(count):
                value = int(heap[i]) & 0xFFFF
                image[offset + 2 * i:offset + 2 * i + 2] = value.to_bytes(2, "little")
        return bytes(image)

    def write_to_memory(self, mem, addr: int) -> int:
        """Place the heap image at *addr*; returns the end address."""
        stride = tree_stride(self.bits)
        if addr % stride:
            raise KernelError(
                f"threshold table base {addr:#x} must be {stride}-byte aligned"
            )
        image = self.heap_image()
        mem.write_bytes(addr, image)
        return addr + len(image)

    def channel_base(self, table_addr: int, channel: int) -> int:
        """Entry-point address of one channel's tree."""
        return table_addr + channel * tree_stride(self.bits)


def thresholds_from_accumulators(
    acc: np.ndarray, bits: int, channel_axis: int = -1, rng=None
) -> ThresholdTable:
    """Derive a realistic threshold table from accumulator statistics.

    Picks per-channel quantile boundaries over the observed accumulator
    distribution (what threshold training effectively produces), with ties
    broken by small strictly increasing offsets so every staircase step is
    distinct.
    """
    acc = np.asarray(acc, dtype=np.int64)
    moved = np.moveaxis(acc, channel_axis, -1).reshape(-1, acc.shape[channel_axis])
    count = (1 << bits) - 1
    quantiles = np.linspace(0.0, 1.0, count + 2)[1:-1]
    tables = []
    for c in range(moved.shape[1]):
        values = np.quantile(moved[:, c], quantiles).astype(np.int64)
        # Enforce strict monotonicity and the int16 domain.
        for i in range(1, count):
            if values[i] <= values[i - 1]:
                values[i] = values[i - 1] + 1
        values = np.clip(values, INT16_MIN, INT16_MAX - count)
        for i in range(1, count):
            if values[i] <= values[i - 1]:
                values[i] = values[i - 1] + 1
        tables.append(values)
    return ThresholdTable(bits=bits, thresholds=np.stack(tables))


def random_threshold_table(
    channels: int, bits: int, spread: int = 2000, rng=None
) -> ThresholdTable:
    """Random strictly increasing thresholds (tests and microbenchmarks)."""
    rng = np.random.default_rng(rng)
    count = (1 << bits) - 1
    steps = rng.integers(1, max(2, 2 * spread // (count + 1)), size=(channels, count))
    start = rng.integers(-spread, spread // 2, size=(channels, 1))
    thresholds = start + np.cumsum(steps, axis=1)
    thresholds = np.clip(thresholds, INT16_MIN, INT16_MAX)
    # clipping could flatten steps at the extreme; re-separate
    for c in range(channels):
        for i in range(1, count):
            if thresholds[c, i] <= thresholds[c, i - 1]:
                thresholds[c, i] = thresholds[c, i - 1] + 1
    return ThresholdTable(bits=bits, thresholds=thresholds)
