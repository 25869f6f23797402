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
that 0/1-weighted distance for many alive rows at once, level by level up to
the cap, in one of two word layouts: one unsigned word per grid when
side*side <= 64, and row words otherwise.  max_disjoint_paths and mpath_live
are one-row calls.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ._bitops import pack_rows
from .core import ElementSet
from .errors import ParameterError

__all__ = ["TriGrid", "Orientation", "LR", "TB", "disjoint_path_counts",
           "max_disjoint_paths", "mpath_live"]

Orientation = Literal["LR", "TB"]
LR: Orientation = "LR"
TB: Orientation = "TB"

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
# The dual-crossing fill, on row words or on one word per grid
# ---------------------------------------------------------------------------
#
# Both layouts compute, for each grid, the fewest alive cells on a crossing
# from a start side to the opposite target side.  Level k is every cell that a
# path from the start side reaches with at most k alive cells on it: level 0
# floods through dead cells from the dead start cells, level k+1 from level
# k's cells, their neighbours and the whole start side.  A count is the number
# of levels below ``cap`` that miss the target side.

def _dilate(x: np.ndarray) -> np.ndarray:
    """The cells of (side, W, T) row words ``x`` and their grid neighbours
    (i, j+-1), (i+-1, j), (i-1, j+1) and (i+1, j-1); bits past the last
    column may be set."""
    up, down = x << 1, x >> 1  # (i, j) -> (i, j+1) and (i, j) -> (i, j-1)
    if x.shape[1] > 1:  # carry between the words of a row
        up[:, 1:] |= x[:, :-1] >> (x.itemsize * 8 - 1)
        down[:, :-1] |= x[:, 1:] << (x.itemsize * 8 - 1)
    from_above = x | down    # row i-1 reaches (i, j) from (i-1, j) and (i-1, j+1)
    out = from_above | up
    out[1:] |= from_above[:-1]
    out[:-1] |= x[1:] | up[1:]  # row i+1 reaches it from (i+1, j) and (i+1, j-1)
    return out


# Words of one grid stack per fill: larger batches fall out of cache and
# iterate until their slowest grid converges (a 2^20-row chunk of side-5 grids
# at cap 3 took 4.7 s as one batch and 1.1 s in 4096-row batches, 2-vCPU Xeon).
_FILL_WORDS = 1 << 15


def _dual_counts(side: int, alive: np.ndarray, cap: int, out: np.ndarray) -> None:
    """Add the capped LR and TB counts of (T, side*side) alive rows to the
    (2, T) array ``out``, on row words.

    The start side is the top row: the fewest alive cells on a top-to-bottom
    crossing is the LR count of a grid and the TB count of its transpose, and
    both go into one (side, W, 2T) stack of row words, a few thousand rows at
    a time.
    """
    rows = max(1, _FILL_WORDS // (2 * side * -(-side // 64)))
    valid = pack_rows(np.ones((1, side), dtype=bool))[0][None, :, None]
    for lo in range(0, len(alive), rows):
        grids = alive[lo:lo + rows].reshape(-1, side, side)
        t = len(grids)
        both = np.concatenate([grids, grids.transpose(0, 2, 1)])
        packed = pack_rows(both.reshape(2 * t * side, side))
        words = np.ascontiguousarray(packed.reshape(2 * t, side, -1).transpose(1, 2, 0))
        dead = ~words & valid
        counts = out[:, lo:lo + t]
        reach = np.zeros_like(words)
        reach[0] = dead[0]
        for _ in range(cap):
            while True:
                grown = _dilate(reach)
                flooded = reach | (grown & dead)
                if flooded.tobytes() == reach.tobytes():  # cheaper than array_equal here
                    break
                reach = flooded
            open_rows = ~reach[-1].any(axis=0)  # this level misses the bottom row
            counts += open_rows.reshape(2, t)
            if not open_rows.any():
                break
            reach = grown & valid
            reach[0] = valid[0]


# Bytes of each whole-grid fill buffer: 2^16 grids of uint16, 2^15 of uint32 or
# 2^14 of uint64 per batch.  Each batch iterates until its own slowest grid
# converges, in buffers that stay in cache: at cap 1 on the 2^20 side-5 subsets,
# fills that allocated every step took 219 ms and batches 65 ms (2-vCPU Xeon),
# and 2^16 uint64 grids per batch ran 50% slower at side 8.
_FLOOD_BYTES = 1 << 17


def _grid_word_counts(side: int, alive: np.ndarray, cap: int, out: np.ndarray) -> None:
    """Add the capped LR and TB counts of (T, side*side) alive rows to the
    (2, T) array ``out``, for side*side <= 64, with each grid in one word.

    Cell (i, j) is bit i*side + j of the smallest unsigned word that holds
    side*side bits (uint16 at sides 3 and 4).  The LR count fills from the
    top row to the bottom row and the TB count from the left column to the
    right column, each a batch of _FLOOD_BYTES-byte preallocated buffers at
    a time; the flood at each level runs through the dead cells and that
    level's seed.
    """
    n = side * side
    full = (1 << n) - 1
    left, top = sum(1 << (i * side) for i in range(side)), (1 << side) - 1
    right, bottom = left << (side - 1), top << (n - side)
    not_left, not_right = full & ~left, full & ~right

    def dilate(x: np.ndarray, to: np.ndarray, u: np.ndarray, d: np.ndarray) -> None:
        # u = x | x>>side and d = x | x<<side reach (i-1, j) and (i+1, j);
        # u<<1 and d>>1 add (i, j+1), (i-1, j+1) and (i, j-1), (i+1, j-1).
        # A bit the shifts move across a row end lands in the masked-off
        # column or past bit n, where the caller's mask clears it.
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

    dead = ~pack_rows(alive)[:, 0].astype(np.min_scalar_type(full)) & full
    batch = _FLOOD_BYTES // dead.itemsize
    buffers = [np.empty(min(len(dead), batch), dtype=dead.dtype) for _ in range(5)]
    for lo in range(0, len(dead), batch):
        block = dead[lo:lo + batch]
        reach, grown, u, d, seeded = (b[:len(block)] for b in buffers)
        for counts, start, target in zip(out[:, lo:lo + len(block)], (top, left), (bottom, right)):
            np.bitwise_and(block, start, out=reach)
            flood = block
            for level in range(cap):
                if level:
                    dilate(reach, grown, u, d)
                    grown &= full
                    grown |= start
                    reach, grown = grown, reach
                    flood = np.bitwise_or(block, reach, out=seeded)
                while True:
                    dilate(reach, grown, u, d)
                    grown &= flood
                    if np.array_equal(grown, reach):
                        break
                    reach, grown = grown, reach
                missed = (reach & target) == 0
                counts += missed
                if not missed.any():
                    break


def disjoint_path_counts(side: int, alive: np.ndarray, cap: int) -> np.ndarray:
    """Vertex-disjoint open crossing paths of each alive row, capped at ``cap``.

    ``alive`` is a (T, side*side) boolean matrix.  Returns a (T, 2) array of
    the smallest unsigned type that holds min(cap, side), whose columns are
    min(paths, cap) for LR and TB.  One algorithm, the dual fill, answers for
    every cap and side: on one word per grid when side*side <= 64, and on row
    words otherwise.
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
    fill = _grid_word_counts if side * side <= 64 else _dual_counts
    fill(side, alive, cap, out)
    return out.T


def max_disjoint_paths(grid: TriGrid, alive: ElementSet, orientation: Orientation) -> int:
    """Maximum number of pairwise vertex-disjoint open paths across the grid.

    LR crosses from column 0 to column side-1, TB from row 0 to row side-1.
    Only vertices in ``alive`` may be used.
    """
    if orientation not in (LR, TB):
        raise ParameterError(f"orientation must be 'LR' or 'TB', got {orientation!r}")
    counts = disjoint_path_counts(grid.side, alive.as_bool()[None, :], grid.side)
    return int(counts[0, (LR, TB).index(orientation)])


def mpath_live(side: int, r: int, alive: ElementSet) -> bool:
    """True iff the grid has >= r disjoint open paths in BOTH orientations."""
    if not 1 <= r <= side:
        raise ParameterError(f"need 1 <= r <= side, got r={r}, side={side}")
    return bool((disjoint_path_counts(side, alive.as_bool()[None, :], r) >= r).all())
