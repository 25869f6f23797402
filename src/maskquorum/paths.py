"""Triangulated-grid graph model and vertex-disjoint path counting.

Vertices are the cells of a side x side grid, numbered (i, j) -> i*side + j
(0-based).  Two vertices are adjacent iff one of three rules holds:
(i) same row, j2 = j1 + 1; (ii) same column, i2 = i1 + 1;
(iii) i2 = i1 - 1 and j2 = j1 + 1 (the triangulating diagonal).

disjoint_path_counts counts pairwise vertex-disjoint open paths between two
opposite sides via unit-capacity max-flow on the node-split graph (each open
vertex capacity 1, dead vertices capacity 0), which is exact by Menger's
theorem.  Paths may wander arbitrarily; monotonicity is not assumed.  The
graph of a side is built once; each call fills in its capacities and runs
scipy's Dinic on many alive rows at once, with every row's count capped.
max_disjoint_paths and mpath_live are one-row calls on the same graph.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Literal, NamedTuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

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

    def coords(self, v: int) -> tuple[int, int]:
        return divmod(v, self.side)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]


def _check_orientation(orientation: str) -> None:
    if orientation not in (LR, TB):
        raise ParameterError(f"orientation must be 'LR' or 'TB', got {orientation!r}")


# ---------------------------------------------------------------------------
# Batched, capped max-flow on the node-split grid
# ---------------------------------------------------------------------------

# Edges per max-flow call.  It bounds a slab's memory, and it keeps slabs of
# large grids small: each Dinic phase scans the whole slab, and a slab needs as
# many phases as the distinct path lengths of all its copies together.
_FLOW_EDGE_BUDGET = 1 << 15


class _FlowTemplate(NamedTuple):
    """Node-split flow network of one alive row, cached per grid side.

    The row owns two copies of the grid, LR then TB, each with in-nodes v,
    out-nodes n+v and a local source 2n.  Edges are stored in CSR order with
    heads numbered inside the row; edges into the shared sink are flagged.
    """

    nodes: int             # nodes of one row (both copies)
    indptr: np.ndarray     # (nodes + 1,) edge offsets of each node's row
    heads: np.ndarray      # (edges,) head of each edge, row-local
    to_sink: np.ndarray    # (edges,) True where the head is the shared sink
    split: np.ndarray      # (2, n) position of v_in -> v_out in each copy
    sources: np.ndarray    # (2,) local source of each copy


@lru_cache(maxsize=16)
def _flow_template(side: int) -> _FlowTemplate:
    grid = TriGrid(side)
    n = grid.n
    copy_nodes = 2 * n + 1
    cells = np.arange(n).reshape(side, side)
    ends = {LR: (cells[:, 0], cells[:, -1]), TB: (cells[0, :], cells[-1, :])}
    arcs = np.array([(u, v) for u in range(n) for v in grid.neighbors(u)],
                    dtype=np.int64).reshape(-1, 2)
    tails, heads = [], []
    for copy, orientation in enumerate((LR, TB)):
        base = copy * copy_nodes
        start, end = ends[orientation]
        tails += [base + np.arange(n), base + n + arcs[:, 0],
                  np.full(side, base + 2 * n), base + n + end]
        heads += [base + n + np.arange(n), base + arcs[:, 1], base + start,
                  np.full(side, -1)]
    tail, head = np.concatenate(tails), np.concatenate(heads)
    order = np.lexsort((head, tail))  # sink (-1) first, as node 1 is in a slab
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    copy_edges = len(tail) // 2
    split = np.stack([position[:n], position[copy_edges:copy_edges + n]])
    nodes = 2 * copy_nodes
    indptr = np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=nodes))])
    template = _FlowTemplate(
        nodes=nodes,
        indptr=indptr.astype(np.int32),
        heads=head[order].astype(np.int32),
        to_sink=head[order] < 0,
        split=split,
        sources=np.array([2 * n, copy_nodes + 2 * n], dtype=np.int32),
    )
    for arr in template[1:]:
        arr.setflags(write=False)
    return template


def _slab_counts(t: _FlowTemplate, alive: np.ndarray, cap: int) -> np.ndarray:
    """Capped LR and TB path counts of every row of one slab, by one Dinic run.

    Node 0 is the super-source, node 1 the shared sink, and row k starts at
    node 2 + k * t.nodes.  The super-source feeds each copy's local source
    through an edge of capacity ``cap``, so the flow on that edge is the
    copy's path count, capped.
    """
    rows = len(alive)
    edges = len(t.heads)
    row = np.arange(rows, dtype=np.int32)[:, None]
    offsets = 2 + t.nodes * row
    lead = 2 * rows
    indptr = np.empty(2 + rows * t.nodes + 1, dtype=np.int32)
    indptr[:2] = 0, lead
    indptr[2:-1] = (lead + edges * row + t.indptr[:-1]).ravel()
    indptr[-1] = lead + rows * edges
    indices = np.empty(lead + rows * edges, dtype=np.int32)
    indices[:lead] = (offsets + t.sources).ravel()
    indices[lead:] = np.where(t.to_sink, 1, t.heads + offsets).ravel()
    data = np.ones(lead + rows * edges, dtype=np.int32)
    data[:lead] = cap
    body = data[lead:].reshape(rows, edges)
    body[:, t.split[0]] = alive
    body[:, t.split[1]] = alive
    size = len(indptr) - 1
    flow = maximum_flow(csr_array((data, indices, indptr), shape=(size, size)),
                        0, 1, method="dinic").flow
    return flow.data[flow.indptr[0]:flow.indptr[1]].reshape(rows, 2)


def disjoint_path_counts(side: int, alive: np.ndarray, cap: int) -> np.ndarray:
    """Vertex-disjoint open crossing paths of each alive row, capped at ``cap``.

    ``alive`` is a (T, side*side) boolean matrix.  Returns a (T, 2) integer
    array whose columns are min(paths, cap) for LR and TB.  Rows go through
    Dinic's algorithm in slabs sized to a fixed edge budget; the cap stops
    each copy's flow once it reaches ``cap`` paths.
    """
    t = _flow_template(side)
    alive = np.asarray(alive, dtype=bool)
    if alive.ndim != 2 or alive.shape[1] != side * side:
        raise ParameterError(
            f"alive rows must have {side * side} columns, got shape {alive.shape}")
    if cap < 1:
        raise ParameterError(f"path cap must be >= 1, got {cap}")
    slab = max(1, _FLOW_EDGE_BUDGET // len(t.heads))
    out = np.empty((len(alive), 2), dtype=np.int64)
    for start in range(0, len(alive), slab):
        out[start:start + slab] = _slab_counts(t, alive[start:start + slab], cap)
    return out


def max_disjoint_paths(grid: TriGrid, alive: ElementSet, orientation: Orientation) -> int:
    """Maximum number of pairwise vertex-disjoint open paths across the grid.

    LR crosses from column 0 to column side-1, TB from row 0 to row side-1.
    Only vertices in ``alive`` may be used.
    """
    _check_orientation(orientation)
    if alive.n != grid.n:
        raise ParameterError(f"alive set has universe {alive.n}, grid has {grid.n}")
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
