"""Independent brute-force oracles used to validate the library's fast paths.

Everything here is deliberately naive: depth-first path enumeration plus
maximum set packing for disjoint-path counts, a unit-capacity max-flow on the
node-split grid (Menger's theorem) for larger grids, a direct sum over all
crash sets for crash probabilities, and a triple loop for the lines of a
projective plane.  None of it shares code with the
implementations it checks; only TriGrid's neighbour lists are borrowed.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from maskquorum.paths import TriGrid


def simple_crossing_paths(grid: TriGrid, alive_mask: int, orientation: str) -> list[int]:
    """All simple open crossing paths, as vertex bitmasks."""
    side = grid.side
    if orientation == "LR":
        sources = [grid.index(k, 0) for k in range(side)]
        def at_sink(v): return v % side == side - 1
    else:
        sources = [grid.index(0, k) for k in range(side)]
        def at_sink(v): return v // side == side - 1
    paths: list[int] = []

    def dfs(v: int, used: int) -> None:
        if at_sink(v):
            paths.append(used)
            return
        for w in grid.neighbors(v):
            if (alive_mask >> w) & 1 and not (used >> w) & 1:
                dfs(w, used | (1 << w))

    for s in sources:
        if (alive_mask >> s) & 1:
            dfs(s, 1 << s)
    return paths


def packing_disjoint_paths(grid: TriGrid, alive_mask: int, orientation: str) -> int:
    """Maximum number of pairwise vertex-disjoint open crossing paths, by
    exhaustive packing over the enumerated simple paths."""
    paths = sorted(set(simple_crossing_paths(grid, alive_mask, orientation)),
                   key=lambda m: m.bit_count())
    best = 0
    total = len(paths)

    def rec(i: int, used: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if best == grid.side:
            return
        for j in range(i, total):
            if not paths[j] & used:
                rec(j + 1, used | paths[j], count + 1)

    rec(0, 0, 0)
    return best


def menger_disjoint_paths(grid: TriGrid, alive: np.ndarray, orientation: str) -> int:
    """Maximum number of vertex-disjoint open crossing paths of one alive row,
    by unit-capacity max-flow on the node-split grid.

    Vertex v becomes an edge from v_in = v to v_out = n + v of capacity 1 when
    v is alive (left out when dead); grid adjacency becomes v_out -> w_in
    edges, the source 2n feeds the in-nodes of the start side and the
    out-nodes of the end side feed the sink 2n + 1.
    """
    side, n = grid.side, grid.n
    if orientation == "LR":
        starts = [grid.index(k, 0) for k in range(side)]
        ends = [grid.index(k, side - 1) for k in range(side)]
    else:
        starts = [grid.index(0, k) for k in range(side)]
        ends = [grid.index(side - 1, k) for k in range(side)]
    source, sink = 2 * n, 2 * n + 1
    edges = [(v, n + v) for v in range(n) if alive[v]]
    edges += [(n + v, w) for v in range(n) for w in grid.neighbors(v)]
    edges += [(source, v) for v in starts] + [(n + v, sink) for v in ends]
    tails, heads = np.array(edges).T
    graph = csr_array((np.ones(len(edges), dtype=np.int32), (tails, heads)),
                      shape=(2 * n + 2, 2 * n + 2))
    return int(maximum_flow(graph, source, sink).flow_value)


def brute_crash_probability(n: int, quorum_masks: list[int], p: float) -> float:
    """Direct sum over all 2^n crash sets of the killing configurations."""
    total = 0.0
    for crash in range(1 << n):
        alive = ((1 << n) - 1) & ~crash
        if not any(q & ~alive == 0 for q in quorum_masks):
            d = crash.bit_count()
            total += p ** d * (1.0 - p) ** (n - d)
    return total


def brute_resilience(n: int, quorum_masks: list[int]) -> int:
    """Largest k such that every k-subset leaves some quorum untouched."""
    f = -1
    for k in range(n + 1):
        if all(any(q & _mask(kill) == 0 for q in quorum_masks)
               for kill in combinations(range(n), k)):
            f = k
        else:
            break
    return f


def greedy_cover_size(n: int, quorum_masks: list[int]) -> int:
    """Size of the greedy hitting set: take the element meeting the most
    unhit quorums (the lowest index on ties) until every quorum is hit."""
    unhit, size = list(quorum_masks), 0
    while unhit:
        e = max(range(n), key=lambda i: (sum(q >> i & 1 for q in unhit), -i))
        unhit = [q for q in unhit if not q >> e & 1]
        size += 1
    return size


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def mgrid_crash_probability(side: int, g: int, p: float) -> float:
    """Inclusion-exclusion over full rows and columns, term by term in exact
    rationals: P(live) sums (-1)^(a+c) C(a-1,g-1) C(c-1,g-1) C(side,a)
    C(side,c) (1-p)^(side(a+c)-ac) over a, c >= g."""
    from fractions import Fraction
    from math import comb

    alive = 1 - Fraction(p)
    live = Fraction(0)
    for a in range(g, side + 1):
        for c in range(g, side + 1):
            term = (comb(a - 1, g - 1) * comb(c - 1, g - 1) * comb(side, a) * comb(side, c)
                    * alive ** (side * (a + c) - a * c))
            live += -term if (a + c) % 2 else term
    return float(1 - live)


def fpp_line_masks(q: int) -> list[int]:
    """Lines of the projective plane of order q, by the triple loop: the
    canonical points (first nonzero coordinate 1) in lexicographic order, and
    line a = {P : a . P = 0 mod q} as a bitmask over their indices."""
    points = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                nonzero = [x for x in (a, b, c) if x != 0]
                if nonzero and nonzero[0] == 1:
                    points.append((a, b, c))
    masks = []
    for coeff in points:
        mask = 0
        for idx, pt in enumerate(points):
            if (coeff[0] * pt[0] + coeff[1] * pt[1] + coeff[2] * pt[2]) % q == 0:
                mask |= 1 << idx
        masks.append(mask)
    return masks
