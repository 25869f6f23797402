"""Internal helpers for packed-bitmask set representations."""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

# Words of the block temporary of the row-against-row kernels
# (pair_intersections, ExplicitQuorumSystem.live_batch).  2^16 words stay in
# cache: at 2^20, a 4096-row live_batch on BoostFPP(2,1) ran 35% slower
# (2-vCPU Xeon).
BLOCK_WORDS = 1 << 16
# The size pair_intersections reports for a pair it does not cover (j <= i).
NO_PAIR = np.iinfo(np.int32).max


def popcount(masks: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint32 or uint64 array, as int64."""
    return np.bitwise_count(masks).astype(np.int64)


def _word_layout(n: int) -> tuple[int, type]:
    """Bits and dtype of one pack_rows word for n columns."""
    return (32, np.uint32) if n <= 32 else (64, np.uint64)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (T, n) boolean matrix into a (T, W) matrix of unsigned words.

    Bit j of row t is bit j % w of word j // w.  Words are one uint32 (w = 32)
    for n <= 32 and ceil(n / 64) uint64 (w = 64) otherwise.
    """
    t, n = bits.shape
    width, dtype = _word_layout(n)
    bits = np.asarray(bits, dtype=bool)
    if n % width:  # pad the rows to whole words
        padded = np.zeros((t, -(-n // width) * width), dtype=bool)
        padded[:, :n] = bits
        bits = padded
    # Rows are whole words, so one flat packbits (faster than axis=1) packs each.
    packed = np.packbits(bits.ravel(), bitorder="little")
    return packed.view(dtype).reshape(t, bits.shape[1] // width)


def pack_ints(masks: list[int], n: int) -> np.ndarray:
    """pack_rows of the (T, n) membership matrix of Python-integer masks, read
    straight from each mask's little-endian bytes; the words are read-only."""
    width, dtype = _word_layout(n)
    words = -(-n // width)
    raw = b"".join(m.to_bytes(words * width // 8, "little") for m in masks)
    return np.frombuffer(raw, dtype=dtype).reshape(len(masks), words)


def pair_intersections(words: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Intersection sizes of every pair of distinct rows of a packed word matrix.

    For a (m, W) matrix, yields (i0, sizes) for consecutive blocks of rows,
    in ascending order: sizes[k, j] = popcount(words[i0 + k] & words[j]) for
    j > i0 + k, and NO_PAIR for j <= i0 + k.  So each pair i < j appears
    exactly once, and a row-major scan of the blocks visits the pairs in
    ascending (i, j) order.  Blocks are sized so that the (block, m, W)
    temporary holds about BLOCK_WORDS words.
    """
    m, width = words.shape
    block = max(1, BLOCK_WORDS // max(1, m * width))
    cols = np.arange(m)
    for i0 in range(0, m, block):
        rows = words[i0:i0 + block]
        sizes = np.bitwise_count(rows[:, None, :] & words[None, :, :]).sum(axis=2, dtype=np.int32)
        sizes[cols[None, :] <= cols[i0:i0 + len(rows), None]] = NO_PAIR
        yield i0, sizes


def unpack_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """Expand integer masks, or the (T, W) word rows of pack_rows, into a
    (T, n) boolean matrix (bit j -> column j)."""
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
