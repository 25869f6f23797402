"""Oracle-grade combinatorial analysis of explicit quorum systems.

Everything here is exact: smallest quorum, smallest pairwise intersection,
smallest transversal (branch-and-bound hitting set), masking verification
straight from the definitions, fairness, and the exact load via linear
programming, together with the masking-load lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import sqrt
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog

from ._bitops import iter_bits
from .core import AccessStrategy, ElementSet, ExplicitQuorumSystem, SystemParams
from .errors import ApplicabilityError, NumericalError, ParameterError, SizeError

__all__ = [
    "CombinatorialParams", "combinatorial_params", "min_transversal_size",
    "masking_level", "MaskingCheck", "check_masking", "Fairness", "is_fair",
    "load_lp", "InducedLoad", "induced_load", "load_fair",
    "LoadBounds", "load_lower_bounds",
]

A_MIN_MAX_N = 30
A_MIN_MAX_QUORUMS = 10 ** 4
LP_MAX_QUORUMS = 10 ** 4
LP_MAX_N = 10 ** 3
EXHAUSTIVE_RESILIENCE_MAX_N = 12


class CombinatorialParams(NamedTuple):
    c: int
    i_min: int
    a_min: int


def _min_pairwise_intersection(masks: list[int]) -> int:
    if len(masks) == 1:
        # Degenerate single-quorum system: report the quorum size itself.
        return masks[0].bit_count()
    return min((a & b).bit_count() for a, b in combinations(masks, 2))


def _min_transversal(sys: ExplicitQuorumSystem) -> tuple[int, int]:
    """Exact minimum hitting set: (size, element bitmask) by branch and bound."""
    if sys.m == 0:
        raise ParameterError("empty quorum system")
    if sys.n > A_MIN_MAX_N and sys.m > A_MIN_MAX_QUORUMS:
        raise SizeError(
            f"minimum transversal needs n <= {A_MIN_MAX_N} or quorum count <= "
            f"{A_MIN_MAX_QUORUMS}; got n={sys.n}, m={sys.m}")
    n, masks = sys.n, sys.quorum_masks()
    m = len(masks)
    all_hit = (1 << m) - 1
    # covers[e] = bitmask (over quorum indices) of the quorums containing e.
    covers = [0] * n
    for qi, q in enumerate(masks):
        for e in iter_bits(q):
            covers[e] |= 1 << qi

    # Greedy upper bound: repeatedly take the element hitting the most quorums.
    hit = 0
    greedy = 0
    best_size = 0
    while hit != all_hit:
        e = max(range(n), key=lambda x: (covers[x] & ~hit).bit_count())
        hit |= covers[e]
        greedy |= 1 << e
        best_size += 1
    best_set = greedy

    max_degree = max(c.bit_count() for c in covers)

    def descend(hit: int, chosen: int, depth: int) -> None:
        nonlocal best_size, best_set
        remaining = all_hit & ~hit
        if remaining == 0:
            if depth < best_size:
                best_size, best_set = depth, chosen
            return
        if depth + -(-remaining.bit_count() // max_degree) >= best_size:
            return
        # Branch on the first unhit quorum; try its elements in decreasing
        # order of how many still-unhit quorums they cover.
        qi = (remaining & -remaining).bit_length() - 1
        elems = sorted(iter_bits(masks[qi]),
                       key=lambda e: -(covers[e] & ~hit).bit_count())
        for e in elems:
            descend(hit | covers[e], chosen | (1 << e), depth + 1)

    descend(0, 0, 0)
    return best_size, best_set


def min_transversal_size(sys: ExplicitQuorumSystem) -> int:
    """Exact smallest hitting-set size over the quorum list."""
    return _min_transversal(sys)[0]


def combinatorial_params(sys: ExplicitQuorumSystem) -> CombinatorialParams:
    """Brute-force (c, i_min, a_min) of an explicit system.

    i_min ranges over distinct quorum pairs; a single-quorum system reports
    i_min = c.  a_min is the exact minimum hitting-set size and requires
    n <= 30 or quorum count <= 10^4.
    """
    if sys.m == 0:
        raise ParameterError("empty quorum system")
    masks = sys.quorum_masks()
    c = min(m.bit_count() for m in masks)
    return CombinatorialParams(c, _min_pairwise_intersection(masks), min_transversal_size(sys))


def masking_level(sys: ExplicitQuorumSystem) -> int:
    """Largest b certified by min(a_min - 1, (i_min - 1) // 2).

    Non-negative for every constructible system (quorums are non-empty, so
    a_min >= 1 and i_min >= 1 wherever quorums pairwise intersect).
    """
    _, i_min, a_min = combinatorial_params(sys)
    return min(a_min - 1, (i_min - 1) // 2)


@dataclass(frozen=True)
class MaskingCheck:
    ok: bool
    resilience_check: str  # "exhaustive" or "transversal"
    violating_pair: tuple[int, int] | None = None
    blocking_set: ElementSet | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_masking(sys: ExplicitQuorumSystem, b: int) -> MaskingCheck:
    """Definitional b-masking check: resilience f >= b and all intersections >= 2b+1.

    On failure the result carries a violating quorum pair or a blocking set of
    size <= b.  Resilience is checked exhaustively over all b-subsets for
    n <= 12, and via the transversal bound a_min >= b+1 otherwise; the result
    says which check ran.
    """
    if b < 0:
        raise ParameterError(f"masking level must be >= 0, got {b}")
    if b >= sys.n:
        # Crashing the whole universe hits every (non-empty) quorum.
        return MaskingCheck(ok=False, resilience_check="exhaustive",
                            blocking_set=ElementSet.full(sys.n))
    masks = sys.quorum_masks()
    for (i, qa), (j, qb) in combinations(enumerate(masks), 2):
        if (qa & qb).bit_count() < 2 * b + 1:
            mode = "exhaustive" if sys.n <= EXHAUSTIVE_RESILIENCE_MAX_N else "transversal"
            return MaskingCheck(ok=False, resilience_check=mode, violating_pair=(i, j))

    if sys.n <= EXHAUSTIVE_RESILIENCE_MAX_N:
        # Every b-subset must leave some quorum untouched.
        for kill in combinations(range(sys.n), b):
            kmask = sum(1 << e for e in kill)
            if all(q & kmask for q in masks):
                return MaskingCheck(ok=False, resilience_check="exhaustive",
                                    blocking_set=ElementSet(sys.n, kmask))
        return MaskingCheck(ok=True, resilience_check="exhaustive")

    a_min, witness = _min_transversal(sys)
    if a_min < b + 1:
        # A minimal transversal of size a_min <= b blocks every quorum.
        return MaskingCheck(ok=False, resilience_check="transversal",
                            blocking_set=ElementSet(sys.n, witness))
    return MaskingCheck(ok=True, resilience_check="transversal")


@dataclass(frozen=True)
class Fairness:
    ok: bool
    s: int | None = None  # common quorum size
    d: int | None = None  # common element degree

    def __bool__(self) -> bool:
        return self.ok


def is_fair(sys: ExplicitQuorumSystem) -> Fairness:
    """True iff all quorums share one size s and all elements one degree d."""
    masks = sys.quorum_masks()
    sizes = {m.bit_count() for m in masks}
    if len(sizes) != 1:
        return Fairness(ok=False)
    degrees = [0] * sys.n
    for q in masks:
        for e in iter_bits(q):
            degrees[e] += 1
    if len(set(degrees)) != 1:
        return Fairness(ok=False)
    return Fairness(ok=True, s=sizes.pop(), d=degrees[0])


def load_lp(sys: ExplicitQuorumSystem) -> tuple[float, AccessStrategy]:
    """Exact system load: minimise the busiest element's access probability.

    Solves  min t  s.t.  sum_Q w(Q) = 1,  w >= 0,  for every element u:
    sum_{Q containing u} w(Q) <= t.  Returns the optimal t and a witnessing
    strategy whose induced maximum load equals t (within 1e-9).
    """
    if sys.m == 0:
        raise ParameterError("cannot compute the load of an empty system")
    if sys.m > LP_MAX_QUORUMS or sys.n > LP_MAX_N:
        raise SizeError(
            f"load LP capped at {LP_MAX_QUORUMS} quorums and n <= {LP_MAX_N}; "
            f"got m={sys.m}, n={sys.n}")
    m, n = sys.m, sys.n
    incidence = np.zeros((n, m))
    for qi, q in enumerate(sys.quorums):
        for e in q:
            incidence[e, qi] = 1.0
    # Variables: w_0..w_{m-1}, t.
    a_ub = np.hstack([incidence, -np.ones((n, 1))])
    a_eq = np.concatenate([np.ones(m), [0.0]])[None, :]
    cost = np.concatenate([np.zeros(m), [1.0]])
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (m + 1), method="highs")
    if res.status != 0:
        raise NumericalError(f"load LP failed: {res.message}")
    weights = np.maximum(res.x[:m], 0.0)
    weights /= weights.sum()
    return float(res.fun), AccessStrategy(weights)


@dataclass(frozen=True)
class InducedLoad:
    per_element: np.ndarray
    max: float


def induced_load(sys: ExplicitQuorumSystem, strategy: AccessStrategy) -> InducedLoad:
    """Per-element access probabilities induced by a strategy, and their maximum."""
    if len(strategy) != sys.m:
        raise ParameterError(
            f"strategy has {len(strategy)} weights for {sys.m} quorums")
    loads = np.zeros(sys.n)
    for qi, q in enumerate(sys.quorums):
        for e in q:
            loads[e] += strategy.weights[qi]
    return InducedLoad(per_element=loads, max=float(loads.max()))


def load_fair(target: ExplicitQuorumSystem | SystemParams) -> float:
    """Load of a fair system: c / n.

    Accepts analytic params directly, or an explicit system (which must be
    fair).
    """
    if isinstance(target, SystemParams):
        return target.c / target.n
    fairness = is_fair(target)
    if not fairness:
        raise ApplicabilityError("system is not fair; use load_lp instead")
    return fairness.s / target.n


class LoadBounds(NamedTuple):
    general: float
    sqrt_form: float


def load_lower_bounds(n: int, b: int, c: int) -> LoadBounds:
    """Lower bounds on the load of a b-masking system with smallest quorum c.

    general = max((2b+1)/c, c/n); sqrt_form = sqrt((2b+1)/n), with equality of
    the two exactly when c = sqrt((2b+1) n).
    """
    if not (n >= c >= 1):
        raise ParameterError(f"need n >= c >= 1, got n={n}, c={c}")
    if b < 0:
        raise ParameterError(f"need b >= 0, got {b}")
    return LoadBounds(general=max((2 * b + 1) / c, c / n),
                      sqrt_form=sqrt((2 * b + 1) / n))
