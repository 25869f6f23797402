"""Triangulated-grid graph model and vertex-disjoint path counting.

Vertices are the cells of a side x side grid, numbered (i, j) -> i*side + j
(0-based).  Two vertices are adjacent iff one of three rules holds:
(i) same row, j2 = j1 + 1; (ii) same column, i2 = i1 + 1;
(iii) i2 = i1 - 1 and j2 = j1 + 1 (the triangulating diagonal).

disjoint_path_counts counts pairwise vertex-disjoint open paths (which may
wander arbitrarily) between two opposite sides.  By Menger's theorem that
count is the fewest open vertices whose removal blocks every open crossing.
The grid is a Hex board, so by the Hex theorem (Gale, Amer. Math. Monthly
1979) a vertex set blocks every LR crossing iff it contains a TB crossing.
The LR count is therefore the fewest open vertices on any TB crossing, with
dead vertices free, and symmetrically for TB.  One bit-parallel fill finds
that 0/1-weighted distance for many alive rows and both orientations at
once, in one level loop up to the cap, on one of two word layouts: one
unsigned word per grid when side*side <= 64, and row words otherwise.  The
loop (_levels) takes each batch's stack of dead words from its caller:
disjoint_path_counts packs boolean rows into it, and grid_word_path_counts
takes grid words (bit i*side + j is cell (i, j)) as they are, which is how
2^n enumeration hands over its masks.  At cap 1 the same theorem also
decides a set's complement: it has both crossings iff the set has neither.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from ._bitops import pack_rows
from .errors import ParameterError

__all__ = ["TriGrid", "disjoint_path_counts", "grid_word_path_counts"]

_ADJ_OFFSETS = ((0, 1), (1, 0), (-1, 1), (0, -1), (-1, 0), (1, -1))


class TriGrid:
    """The triangulated side x side grid (immutable)."""

    def __init__(self, side: int):
        if side < 1:
            raise ParameterError(f"grid side must be >= 1, got {side}")
        self.side = side
        self.n = side * side
        nbr: list[tuple[int, ...]] = []
        for i in range(side):
            for j in range(side):
                out = []
                for di, dj in _ADJ_OFFSETS:
                    a, b = i + di, j + dj
                    if 0 <= a < side and 0 <= b < side:
                        out.append(a * side + b)
                nbr.append(tuple(out))
        self._neighbors = tuple(nbr)

    def index(self, i: int, j: int) -> int:
        return i * self.side + j

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]


# ---------------------------------------------------------------------------
# The dual-crossing fill: one level loop, two word layouts
# ---------------------------------------------------------------------------
#
# For each grid the fill finds the fewest alive cells on a crossing from a
# start side to the opposite target side.  Level k is every cell that a path
# from the start side reaches with at most k alive cells on it: level 0
# floods through dead cells from the dead start cells, level k+1 from level
# k's cells, their neighbours and the whole start side.  A count is the
# number of levels below ``cap`` that miss the target side.  _levels runs
# the levels on a layout's (rows, W, 2, T) stack of words, which holds each
# grid's dead cells once per orientation, so both orientations fill at once.

# Bytes of each fill buffer.  A batch iterates until its slowest grid
# converges, in buffers that stay in cache: the 2^20 side-5 subsets at cap 1
# took 93 ms in 128 KB buffers, 103 ms in 64 KB and 115 ms in 512 KB, and
# 2048 side-32 rows at cap 4 took 25, 26 and 34 ms (medians of 5, 2-vCPU Xeon).
_FILL_BYTES = 1 << 17


class _Layout(NamedTuple):
    """A word layout of the fill's stack, cached per side: _levels only reads its arrays."""
    dtype: np.dtype  # the word type
    grid_words: int  # words of one grid in one orientation
    pack: Callable[[np.ndarray], np.ndarray]  # (T, n) alive rows -> dead stack
    dilate: Callable[..., None]  # dilate(x, out, u, d) may set bits outside the grid
    valid: np.ndarray | int  # the grid's cells in a row of words
    start: np.ndarray  # the start cells in the first row
    target: np.ndarray  # the target cells in the last row


@functools.cache
def _grid_words(side: int) -> _Layout:
    """Cell (i, j) is bit i*side + j of one word per grid, the smallest
    unsigned type that holds side*side <= 64 bits (uint16 at sides 3 and 4).
    The LR copy fills from the top row and the TB copy from the left column."""
    n = side * side
    full = (1 << n) - 1
    dtype = np.min_scalar_type(full)
    left, top = sum(1 << (i * side) for i in range(side)), (1 << side) - 1
    right, bottom = left << (side - 1), top << (n - side)
    not_left, not_right = full & ~left, full & ~right

    def pack(alive: np.ndarray) -> np.ndarray:
        return _grid_stack(pack_rows(alive)[:, 0].astype(dtype) ^ full)

    def dilate(x: np.ndarray, to: np.ndarray, u: np.ndarray, d: np.ndarray) -> None:
        # u = x | x>>side and d = x | x<<side reach (i-1, j) and (i+1, j);
        # u<<1 and d>>1 add (i, j+1), (i-1, j+1) and (i, j-1), (i+1, j-1).
        # A bit the shifts move across a row end lands in the masked-off
        # column; d<<side may set bits past bit n.
        np.right_shift(x, side, out=u)
        u |= x
        np.left_shift(x, side, out=d)
        d |= x
        np.bitwise_or(u, d, out=to)
        u <<= 1
        u &= not_left
        to |= u
        d >>= 1
        d &= not_right
        to |= d

    start, target = (np.array([[a], [b]], dtype=dtype) for a, b in ((top, left), (bottom, right)))
    return _Layout(dtype, 1, pack, dilate, full, start, target)


@functools.cache
def _row_words(side: int) -> _Layout:
    """Row i of a grid is row i of the stack, in the words of pack_rows, and
    the TB copy is the transposed grid, so both copies fill from the top row."""
    valid = pack_rows(np.ones((1, side), dtype=bool)).reshape(-1, 1, 1)

    def pack(alive: np.ndarray) -> np.ndarray:
        grids = alive.reshape(-1, side, side)
        both = np.concatenate([grids, grids.transpose(0, 2, 1)])
        words = pack_rows(both.reshape(-1, side)).reshape(2, len(grids), side, -1)
        return np.ascontiguousarray(words.transpose(2, 3, 0, 1)) ^ valid

    def dilate(x: np.ndarray, out: np.ndarray, up: np.ndarray, down: np.ndarray) -> None:
        # Neighbours (i, j+-1), (i+-1, j), (i-1, j+1) and (i+1, j-1); bits
        # past the last column may be set.
        np.left_shift(x, 1, out=up)     # (i, j) -> (i, j+1)
        np.right_shift(x, 1, out=down)  # (i, j) -> (i, j-1)
        if x.shape[1] > 1:  # carry between the words of a row
            up[:, 1:] |= x[:, :-1] >> (x.itemsize * 8 - 1)
            down[:, :-1] |= x[:, 1:] << (x.itemsize * 8 - 1)
        down |= x  # row i-1 reaches (i, j) from (i-1, j) and (i-1, j+1)
        np.bitwise_or(down, up, out=out)
        out[1:] |= down[:-1]
        up |= x  # row i+1 reaches it from (i+1, j) and (i+1, j-1)
        out[:-1] |= up[1:]

    return _Layout(valid.dtype, side * valid.size, pack, dilate, valid, valid, valid)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    # Comparing bytes is faster up to about 64 KB: 0.7 against 3.3 us for
    # comparing elements at 4 KB, 13 against 10 us at 128 KB.
    return a.tobytes() == b.tobytes() if a.nbytes <= 1 << 16 else bool((a == b).all())


def _grid_stack(dead: np.ndarray) -> np.ndarray:
    """The _grid_words stack of (T,) dead grid words: a copy per orientation."""
    return np.concatenate([dead, dead]).reshape(1, 1, 2, -1)


def _levels(lay: _Layout, count: int, dead_of: Callable[[int, int], np.ndarray],
            cap: int, out: np.ndarray) -> None:
    """Add the capped LR and TB counts of ``count`` grids to the (2, count)
    array ``out``, a batch at a time: dead_of(lo, hi) is the stack, in the
    words of ``lay``, of grids lo to hi-1 (fewer at the end)."""
    rows = max(1, _FILL_BYTES // (2 * lay.grid_words * lay.dtype.itemsize))
    # Allocated once per call: six fresh 128 KB buffers per batch cost 240 us of page faults.
    buffers = np.empty((6, 2 * lay.grid_words * min(rows, count)), dtype=lay.dtype)
    for lo in range(0, count, rows):
        dead = dead_of(lo, lo + rows)
        reach, grown, flooded, flood, u, d = buffers[:, :dead.size].reshape(6, *dead.shape)
        reach[1:] = 0
        np.bitwise_and(dead[0], lay.start, out=reach[0])
        mask = dead
        for level in range(cap):
            if level:  # reseed from the dilated level and the start side
                np.bitwise_and(grown, lay.valid, out=reach)
                reach[0] |= lay.start
                mask = np.bitwise_or(dead, reach, out=flood)
            while True:
                lay.dilate(reach, grown, u, d)
                np.bitwise_and(grown, mask, out=flooded)
                if _same(flooded, reach):
                    break
                reach, flooded = flooded, reach
            missed = ((reach[-1] & lay.target) == 0).all(axis=0)
            out[:, lo:lo + dead.shape[-1]] += missed
            if not missed.any():
                break


def _fill(side: int, alive: np.ndarray, cap: int, out: np.ndarray,
          layout: Callable[[int], _Layout]) -> None:
    """_levels on (T, side*side) alive rows, each batch packed by layout(side).pack."""
    lay = layout(side)
    _levels(lay, len(alive), lambda lo, hi: lay.pack(alive[lo:hi]), cap, out)


def disjoint_path_counts(side: int, alive: np.ndarray, cap: int) -> np.ndarray:
    """Vertex-disjoint open crossing paths of each alive row, capped at ``cap``.

    ``alive`` is a (T, side*side) boolean matrix.  Returns a (T, 2) array of
    the smallest unsigned type that holds min(cap, side), whose columns are
    min(paths, cap) for LR and TB.  One level loop, the dual fill, answers for
    every cap and side, on one word per grid when side*side <= 64 and on row
    words otherwise; both orientations of a batch fill in one stack.
    """
    if side < 1:
        raise ParameterError(f"grid side must be >= 1, got {side}")
    alive = np.asarray(alive, dtype=bool)
    if alive.ndim != 2 or alive.shape[1] != side * side:
        raise ParameterError(
            f"alive rows must have {side * side} columns, got shape {alive.shape}")
    if cap < 1:
        raise ParameterError(f"path cap must be >= 1, got {cap}")
    # One row per orientation: all(axis=1) on the (T, 2) view is 50x faster.
    out = np.zeros((2, len(alive)), dtype=np.min_scalar_type(min(cap, side)))
    _fill(side, alive, cap, out, _grid_words if side * side <= 64 else _row_words)
    return out.T


def grid_word_path_counts(side: int, words: np.ndarray, cap: int) -> np.ndarray:
    """disjoint_path_counts of alive sets given as grid words, for
    side*side <= 64: bit i*side + j of words[t] is cell (i, j) of grid t.

    The words feed the one-word-per-grid fill as they are, with no boolean
    rows in between; 2^n enumeration hands over its masks this way.
    Returns the same (T, 2) array as disjoint_path_counts.
    """
    if not 1 <= side <= 8:
        raise ParameterError(f"grid words need 1 <= side <= 8, got side {side}")
    if cap < 1:
        raise ParameterError(f"path cap must be >= 1, got {cap}")
    lay = _grid_words(side)
    dead = np.asarray(words).astype(lay.dtype)
    dead ^= lay.valid
    out = np.zeros((2, len(dead)), dtype=np.min_scalar_type(min(cap, side)))
    _levels(lay, len(dead), lambda lo, hi: _grid_stack(dead[lo:hi]), cap, out)
    return out.T
