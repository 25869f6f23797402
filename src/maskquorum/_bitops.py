"""Internal helpers for packed-bitmask set representations."""

from __future__ import annotations

import math

import numpy as np

# Words of the block temporary of the row-against-row kernels
# (smallest_intersection, ExplicitQuorumSystem.live_batch).  2^16 words stay
# in cache: at 2^20, a 4096-row live_batch on BoostFPP(2,1) ran 35% slower
# (2-vCPU Xeon).
BLOCK_WORDS = 1 << 16


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


def and_counts(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (len(rows), len(cols)) int32 matrix of popcount(rows[i] & cols[j])
    over two packed word matrices of one width W.

    At W = 1 there is no word axis to sum; above it the uint8 counts sum
    straight into int32, at a fraction of the cost of a sum into int64."""
    if rows.shape[1] == 1:
        return np.bitwise_count(rows & cols.T).astype(np.int32)
    return np.bitwise_count(rows[:, None, :] & cols[None]).sum(axis=2, dtype=np.int32)


def smallest_intersection(words: np.ndarray) -> tuple[int, int, int] | None:
    """(size, i, j) of the smallest popcount(words[i] & words[j]) over the row
    pairs i < j of a packed word matrix, the first in (i, j) order; None for
    fewer than two rows.  Blocks of rows i0:i1 are counted against words[i0 +
    1:] only (uint8 counts at W = 1), their pairs j <= i set to the count
    type's maximum, and a block is searched only if its minimum is a new best."""
    m, width = words.shape
    best = None
    i0 = 0
    while i0 < m - 1:
        cols = words[i0 + 1:]
        i1 = min(m - 1, i0 + max(1, BLOCK_WORDS // cols.size))
        rows = words[i0:i1]
        sizes = np.bitwise_count(rows & cols.T) if width == 1 else and_counts(rows, cols)
        k = i1 - i0
        sizes[:, :k][np.tri(k, k, -1, dtype=bool)] = np.iinfo(sizes.dtype).max
        if best is None or sizes.min() < best[0]:
            r, c = np.unravel_index(np.argmin(sizes), sizes.shape)
            best = (int(sizes[r, c]), i0 + int(r), i0 + 1 + int(c))
        i0 = i1
    return best


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
