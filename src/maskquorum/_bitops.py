"""Internal helpers for packed-bitmask set representations."""

from __future__ import annotations

import math

import numpy as np

_POP16: np.ndarray | None = None


def _pop16() -> np.ndarray:
    global _POP16
    if _POP16 is None:
        counts = np.zeros(1 << 16, dtype=np.uint8)
        for b in range(16):
            counts[(np.arange(1 << 16) >> b) & 1 == 1] += 1
        _POP16 = counts
    return _POP16


def popcount(masks: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint32 or uint64 array."""
    table = _pop16()
    masks = np.ascontiguousarray(masks)
    halves = masks.view(np.uint16).reshape(masks.shape + (-1,))
    return table[halves].sum(axis=-1, dtype=np.int64)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (T, n) boolean matrix into one unsigned integer mask per row.

    Bit j of row t is bits[t, j]; n must be at most 64.  Returns uint32 for
    n <= 32 and uint64 otherwise.
    """
    t, n = bits.shape
    if n > 64:
        raise ValueError("pack_rows supports at most 64 columns")
    width = 32 if n <= 32 else 64
    padded = np.zeros((t, width), dtype=bool)
    padded[:, :n] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    dtype = np.uint32 if width == 32 else np.uint64
    return np.ascontiguousarray(packed).view(dtype).ravel()


def unpack_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """Expand integer masks into a (T, n) boolean matrix (bit j -> column j)."""
    bits = np.unpackbits(
        np.ascontiguousarray(masks).view(np.uint8).reshape(len(masks), -1),
        axis=1,
        bitorder="little",
    )
    return bits[:, :n].astype(bool)


def bools_to_int(bits: np.ndarray) -> int:
    """The Python integer whose bit j is bits[j], for a 1-D boolean vector."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def iter_bits(mask: int):
    """Yield the indices of the set bits of a Python integer, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ceil_sqrt(x: int) -> int:
    """Smallest integer s with s*s >= x."""
    if x < 0:
        raise ValueError("ceil_sqrt of a negative number")
    s = math.isqrt(x)
    return s if s * s == x else s + 1
