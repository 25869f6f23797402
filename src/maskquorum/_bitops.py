"""Internal helpers for packed-bitmask set representations."""

from __future__ import annotations

import math

import numpy as np


def popcount(masks: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint32 or uint64 array, as int64."""
    return np.bitwise_count(masks).astype(np.int64)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (T, n) boolean matrix into a (T, W) matrix of unsigned words.

    Bit j of row t is bit j % w of word j // w.  Words are one uint32 (w = 32)
    for n <= 32 and ceil(n / 64) uint64 (w = 64) otherwise.
    """
    t, n = bits.shape
    width = 32 if n <= 32 else 64
    padded = np.zeros((t, -(-n // width) * width), dtype=bool)
    padded[:, :n] = bits
    # Rows are whole words, so one flat packbits (faster than axis=1) packs each.
    packed = np.packbits(padded.ravel(), bitorder="little")
    dtype = np.uint32 if width == 32 else np.uint64
    return packed.view(dtype).reshape(t, padded.shape[1] // width)


def unpack_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """Expand integer masks into a (T, n) boolean matrix (bit j -> column j)."""
    bits = np.unpackbits(
        np.ascontiguousarray(masks).view(np.uint8),
        bitorder="little",
    )
    return bits.reshape(len(masks), -1)[:, :n].astype(bool)


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
