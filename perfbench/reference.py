"""Reference values the benchmark checks the program's outputs against.

Nothing here calls maskquorum:

* MGrid crash probability by inclusion-exclusion over full rows and columns,
  in exact rationals (the alternating sum cancels badly in floats);
* RT crash probability by iterating the threshold block's crash function;
* BoostFPP crash probability as F_FPP(q) at the block crash probability, with
  F_FPP from the plane's own lines over all 2^(q^2+q+1) alive sets;
* MPath liveness by unit-capacity max-flow on the node-split triangulated
  grid, with ``scipy.sparse.csgraph.maximum_flow``;
* MPath exact crash profiles, computed once with that max-flow oracle over
  every alive set.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# The oracle-equivalence roster of the test suite, kept here as a copy so the
# benchmark does not depend on the tests.  RT(3,2,3) of that roster is left
# out: its one call takes 11-12 s, too long to be repeated often enough in one
# run to be timed steadily.
ORACLE_ROSTER = [
    {"MGrid": {"side": 2, "b": 0}},
    {"MGrid": {"side": 3, "b": 0}},
    {"MGrid": {"side": 3, "b": 1}},
    {"MGrid": {"side": 4, "b": 1}},
    {"MGrid": {"side": 5, "b": 2}},
    {"Threshold": {"k": 3, "ell": 2}},
    {"Threshold": {"k": 4, "ell": 3}},
    {"Threshold": {"k": 5, "ell": 4}},
    {"Threshold": {"k": 10, "ell": 6}},
    {"RT": {"k": 3, "ell": 2, "h": 2}},
    {"RT": {"k": 4, "ell": 3, "h": 2}},
    {"FPP": {"q": 2}},
    {"FPP": {"q": 3}},
    {"BoostFPP": {"q": 2, "b": 1}},
    {"MPath": {"side": 4, "b": 1}},
    {"MPath": {"side": 5, "b": 0}},
    {"MPath": {"side": 5, "b": 2}},
]

# Kill counts by crash cardinality (entry d: crash sets of size d that leave
# no quorum alive), from FlowOracle over all 2^n alive sets.
MPATH_PROFILES = {
    (4, 0): [0, 0, 0, 0, 39, 436, 2149, 5872, 9737, 10472, 7841, 4348, 1819, 560,
             120, 16, 1],
    (3, 1): [0, 0, 27, 83, 126, 126, 84, 36, 9, 1],
}


def ceil_sqrt(x: int) -> int:
    s = math.isqrt(x)
    return s if s * s == x else s + 1


def profile_crash_prob(profile: list[int], p: float) -> float:
    """Crash probability from a kill-count profile, in exact rationals."""
    n = len(profile) - 1
    q = Fraction(p)
    return float(sum(k * q ** d * (1 - q) ** (n - d) for d, k in enumerate(profile)))


def mgrid_crash_prob(side: int, b: int, p: float) -> float:
    """Exact crash probability of MGrid(side, b): the chance that fewer than
    g = ceil(sqrt(b+1)) rows or fewer than g columns are fully alive.

    P(at least g of the row events and at least g of the column events) is
    sum_{a,c >= g} (-1)^(a+c) C(a-1,g-1) C(c-1,g-1) S(a,c), where S(a,c) sums
    the probability that a given a rows and c columns are all alive:
    C(s,a) C(s,c) (1-p)^(s(a+c) - ac).
    """
    g = ceil_sqrt(b + 1)
    # p as the decimal the CLI is given: the binary double of 0.05 would
    # make every power a huge rational.
    alive = 1 - Fraction(repr(p))
    live = Fraction(0)
    for a in range(g, side + 1):
        wa = math.comb(a - 1, g - 1) * math.comb(side, a)
        for c in range(g, side + 1):
            sign = -1 if (a + c) % 2 else 1
            wc = math.comb(c - 1, g - 1) * math.comb(side, c)
            live += sign * wa * wc * alive ** (side * (a + c) - a * c)
    return float(1 - live)


def threshold_crash_prob(k: int, ell: int, p: float) -> float:
    """Chance that fewer than ell of k servers survive: k-ell+1 or more crash."""
    return sum(math.comb(k, j) * p ** j * (1 - p) ** (k - j) for j in range(k - ell + 1, k + 1))


def rt_crash_prob(k: int, ell: int, h: int, p: float) -> float:
    for _ in range(h):
        p = threshold_crash_prob(k, ell, p)
    return p


def fpp_line_masks(q: int) -> list[int]:
    """Lines of the projective plane over Z_q as bitmasks over its points."""
    points = [v for v in np.ndindex(q, q, q)
              if any(v) and next(x for x in v if x) == 1]
    return [sum(1 << i for i, v in enumerate(points)
                if sum(a * x for a, x in zip(line, v)) % q == 0)
            for line in points]


def boostfpp_crash_prob(q: int, b: int, p: float) -> float:
    """F_FPP(q) evaluated at the block crash probability of (3b+1)-of-(4b+1)."""
    lines = fpp_line_masks(q)
    n = q * q + q + 1
    block = threshold_crash_prob(4 * b + 1, 3 * b + 1, p)
    dead = sum(block ** (n - alive.bit_count()) * (1 - block) ** alive.bit_count()
               for alive in range(1 << n)
               if not any(line & alive == line for line in lines))
    return dead


def binomial_consistent(crashed: int, trials: int, f: float, alpha: float = 1e-7) -> bool:
    """True unless a crash count this far from trials*f has two-sided tail
    probability below alpha under Binomial(trials, f)."""
    from scipy.stats import binom

    lower = binom.cdf(crashed, trials, f)
    upper = binom.sf(crashed - 1, trials, f)
    return min(lower, upper) >= alpha


class FlowOracle:
    """Vertex-disjoint crossing paths on the triangulated side x side grid,
    by max-flow on the node-split graph (in-node v, out-node n+v)."""

    def __init__(self, side: int):
        self.side = side
        n = self.n = side * side
        edges = []
        for i in range(side):
            for j in range(side):
                for di, dj in ((0, 1), (1, 0), (-1, 1)):
                    a, c = i + di, j + dj
                    if 0 <= a < side and 0 <= c < side:
                        edges.append((i * side + j, a * side + c))
        e = np.array(edges, dtype=np.int64)
        # Grid edges are undirected: one arc out(u) -> in(v) each way.
        self._tail = np.concatenate([e[:, 0], e[:, 1]])
        self._head = np.concatenate([e[:, 1], e[:, 0]])
        cells = np.arange(n).reshape(side, side)
        self._ends = {"LR": (cells[:, 0], cells[:, -1]), "TB": (cells[0, :], cells[-1, :])}
        self._source, self._sink = 2 * n, 2 * n + 1

    def flow(self, alive: np.ndarray, orientation: str) -> int:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_flow

        n = self.n
        start, end = self._ends[orientation]
        v = np.flatnonzero(alive)
        arcs = alive[self._tail] & alive[self._head]
        s_in, t_out = start[alive[start]], end[alive[end]]
        rows = np.concatenate([v, n + self._tail[arcs],
                               np.full(len(s_in), self._source), n + t_out])
        cols = np.concatenate([n + v, self._head[arcs], s_in, np.full(len(t_out), self._sink)])
        size = 2 * n + 2
        graph = csr_matrix((np.ones(len(rows), dtype=np.int32), (rows, cols)),
                           shape=(size, size))
        return int(maximum_flow(graph, self._source, self._sink).flow_value)

    def flows(self, alive: np.ndarray) -> tuple[int, int]:
        return self.flow(alive, "LR"), self.flow(alive, "TB")
