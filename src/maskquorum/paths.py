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
dead vertices free, and symmetrically for TB.  A bit-parallel fill on row
words finds that 0/1-weighted distance for many alive rows at once, level by
level up to the cap; max_disjoint_paths and mpath_live are one-row calls.
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


def _check_orientation(orientation: str) -> None:
    if orientation not in (LR, TB):
        raise ParameterError(f"orientation must be 'LR' or 'TB', got {orientation!r}")


# ---------------------------------------------------------------------------
# Dual-crossing fill on row words
# ---------------------------------------------------------------------------

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


def _dual_counts(side: int, alive: np.ndarray, cap: int) -> np.ndarray:
    """Capped LR and TB path counts of (T, side*side) alive rows, as (T, 2).

    The fewest alive cells on a top-to-bottom crossing is the LR count of a
    grid and the TB count of its transpose; both go into one (side, W, 2T)
    stack of row words.  Level k is every cell that a path from the top row
    reaches with at most k alive cells on it: level 0 floods through dead
    cells from the dead top-row cells, level k+1 from level k's neighbours
    plus the whole top row.  A count is the number of levels below ``cap``
    that miss the bottom row.
    """
    t = len(alive)
    grids = alive.reshape(t, side, side)
    both = np.concatenate([grids, grids.transpose(0, 2, 1)])
    packed = pack_rows(both.reshape(2 * t * side, side))
    words = np.ascontiguousarray(packed.reshape(2 * t, side, -1).transpose(1, 2, 0))
    valid = pack_rows(np.ones((1, side), dtype=bool))[0][None, :, None]
    dead = ~words & valid
    counts = np.zeros(words.shape[2], dtype=np.int64)
    reach = np.zeros_like(words)
    reach[0] = dead[0]
    level = 0
    while True:
        grown = _dilate(reach)
        flooded = reach | (grown & dead)
        if flooded.tobytes() != reach.tobytes():  # cheaper than array_equal here
            reach = flooded
            continue
        open_rows = ~reach[-1].any(axis=0)  # level `level` misses the bottom row
        counts += open_rows
        level += 1
        if level == cap or not open_rows.any():
            return counts.reshape(2, t).T
        reach = grown & valid
        reach[0] = valid[0]


def disjoint_path_counts(side: int, alive: np.ndarray, cap: int) -> np.ndarray:
    """Vertex-disjoint open crossing paths of each alive row, capped at ``cap``.

    ``alive`` is a (T, side*side) boolean matrix.  Returns a (T, 2) integer
    array whose columns are min(paths, cap) for LR and TB, from dual fills on
    a few thousand rows at a time.  With cap 1 and side*side <= 64 the packed
    flood fill ``connected_batch`` answers instead.
    """
    if side < 1:
        raise ParameterError(f"grid side must be >= 1, got {side}")
    alive = np.asarray(alive, dtype=bool)
    if alive.ndim != 2 or alive.shape[1] != side * side:
        raise ParameterError(
            f"alive rows must have {side * side} columns, got shape {alive.shape}")
    if cap < 1:
        raise ParameterError(f"path cap must be >= 1, got {cap}")
    if cap == 1 and side * side <= 64:
        masks = pack_rows(alive)[:, 0]
        return np.stack([connected_batch(masks, side, LR),
                         connected_batch(masks, side, TB)], axis=1).astype(np.int64)
    rows = max(1, _FILL_WORDS // (2 * side * -(-side // 64)))
    out = np.empty((len(alive), 2), dtype=np.int64)
    for start in range(0, len(alive), rows):
        out[start:start + rows] = _dual_counts(side, alive[start:start + rows], cap)
    return out


def max_disjoint_paths(grid: TriGrid, alive: ElementSet, orientation: Orientation) -> int:
    """Maximum number of pairwise vertex-disjoint open paths across the grid.

    LR crosses from column 0 to column side-1, TB from row 0 to row side-1.
    Only vertices in ``alive`` may be used.
    """
    _check_orientation(orientation)
    counts = disjoint_path_counts(grid.side, alive.as_bool()[None, :], grid.side)
    return int(counts[0, (LR, TB).index(orientation)])


def mpath_live(side: int, r: int, alive: ElementSet) -> bool:
    """True iff the grid has >= r disjoint open paths in BOTH orientations."""
    if not 1 <= r <= side:
        raise ParameterError(f"need 1 <= r <= side, got r={r}, side={side}")
    return bool((disjoint_path_counts(side, alive.as_bool()[None, :], r) >= r).all())


# ---------------------------------------------------------------------------
# Packed-bitmask connectivity (the r = 1 case, vectorised over many alive sets)
# ---------------------------------------------------------------------------

def _side_masks(side: int, dtype) -> dict:
    n = side * side
    full = (1 << n) - 1
    col0 = sum(1 << (i * side) for i in range(side))
    col_last = sum(1 << (i * side + side - 1) for i in range(side))
    row0 = (1 << side) - 1
    row_last = row0 << (side * (side - 1))
    return {
        "full": dtype(full),
        "col0": dtype(col0),
        "col_last": dtype(col_last),
        "row0": dtype(row0 & full),
        "row_last": dtype(row_last & full),
        "not_col0": dtype(full & ~col0),
        "not_col_last": dtype(full & ~col_last),
    }


def connected_batch(masks: np.ndarray, side: int, orientation: Orientation) -> np.ndarray:
    """Vectorised crossing test: does each packed alive-mask contain an open path?

    Equivalent to ``max_disjoint_paths(...) >= 1`` for every mask; implemented
    as a bit-parallel flood fill.  Requires side*side <= 64 and masks of dtype
    uint32 (n <= 32) or uint64.
    """
    _check_orientation(orientation)
    n = side * side
    if n > 64:
        raise ParameterError("connected_batch supports side*side <= 64")
    dtype = masks.dtype.type
    mk = _side_masks(side, dtype)
    if orientation == LR:
        start, target = mk["col0"], mk["col_last"]
    else:
        start, target = mk["row0"], mk["row_last"]
    s1, ss, sd = dtype(1), dtype(side), dtype(side - 1)
    zero = dtype(0)

    alive = masks & mk["full"]
    reach = alive & start
    while True:
        grow = reach.copy()
        grow |= (reach << s1) & mk["not_col0"]       # (i, j+1)
        grow |= (reach >> s1) & mk["not_col_last"]   # (i, j-1)
        grow |= reach << ss                          # (i+1, j)
        grow |= reach >> ss                          # (i-1, j)
        if side > 1:
            grow |= (reach >> sd) & mk["not_col0"]       # (i-1, j+1)
            grow |= (reach << sd) & mk["not_col_last"]   # (i+1, j-1)
        grow &= alive
        if np.array_equal(grow, reach):
            return (reach & target) != zero
        reach = grow
