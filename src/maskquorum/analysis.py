"""Oracle-grade combinatorial analysis of explicit quorum systems.

Everything here is exact: smallest quorum, smallest pairwise intersection,
smallest transversal, masking verification straight from the definitions,
fairness, and the exact load via linear programming, together with the
masking-load lower bounds.

Each question has one route, and all of them read the system's packed quorum
words.  Pairwise intersections come from one blocked popcount kernel
(``_bitops.pair_intersections``).  The smallest transversal is a pruned
branch and bound (``_search_transversal``), run at most once per system
object: combinatorial_params, masking_level and check_masking's resilience
half share its result.  Fairness, the load LP and induced loads take the
incidence matrix from ``unpack_masks`` of the same words.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, sqrt
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog

from ._bitops import NO_PAIR, pair_intersections, unpack_masks
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


class CombinatorialParams(NamedTuple):
    c: int
    i_min: int
    a_min: int


def _smallest_pair(sys: ExplicitQuorumSystem) -> tuple[int, int, int] | None:
    """(size, i, j) of a smallest intersection over quorum pairs i < j, the
    first such pair in (i, j) order; None for a single-quorum system."""
    best = None
    for i0, sizes in pair_intersections(sys.quorum_words):
        k, j = np.unravel_index(np.argmin(sizes), sizes.shape)
        if sizes[k, j] != NO_PAIR and (best is None or sizes[k, j] < best[0]):
            best = (int(sizes[k, j]), i0 + int(k), int(j))
    return best


def _min_transversal(sys: ExplicitQuorumSystem) -> tuple[int, int]:
    """Exact minimum hitting set: (size, element bitmask).

    Searched once per system object and kept on it, so that
    combinatorial_params, masking_level and check_masking share one search.
    """
    if sys.m == 0:
        raise ParameterError("empty quorum system")
    if sys.n > A_MIN_MAX_N and sys.m > A_MIN_MAX_QUORUMS:
        raise SizeError(
            f"minimum transversal needs n <= {A_MIN_MAX_N} or quorum count <= "
            f"{A_MIN_MAX_QUORUMS}; got n={sys.n}, m={sys.m}")
    memo = sys.__dict__
    if "_min_transversal" not in memo:
        memo["_min_transversal"] = _search_transversal(sys)
    return memo["_min_transversal"]


def _search_transversal(sys: ExplicitQuorumSystem) -> tuple[int, int]:
    """Branch and bound for the smallest set of elements meeting every quorum.

    Quorum sets are 0/1 float vectors over the quorum list, so one product
    with the (n, m) incidence matrix gives every element's gain (the unhit
    quorums it meets), exactly.  The greedy cover is the first bound.
    """
    incidence = unpack_masks(sys.quorum_words, sys.n).T.astype(np.float64)
    unhit = np.ones(sys.m)
    greedy: list[int] = []
    while unhit.any():
        e = int(np.argmax(incidence @ unhit))
        greedy.append(e)
        unhit = unhit * (incidence[e] == 0)
    best = _descend(incidence, np.ones(sys.m), incidence.sum(axis=0),
                    np.zeros(sys.n, dtype=bool), [], greedy)
    return len(best), sum(1 << e for e in best)


def _descend(incidence: np.ndarray, unhit: np.ndarray, allowed: np.ndarray,
             banned: np.ndarray, chosen: list[int], best: list[int]) -> list[int]:
    """The smallest cover extending ``chosen`` without banned elements, if it
    is smaller than ``best``; otherwise ``best``.

    Branches on the unhit quorum with the fewest allowed elements (allowed[q]
    counts them), taking its elements in decreasing order of gain.  After the
    branch that takes element e returns, e is banned in the later sibling
    branches, so each hitting set is reached in one order only; a quorum
    whose elements are all banned cannot be hit, and its node has no
    branches.  A node is pruned when ceil(unhit / best gain of an allowed
    element) more elements cannot beat ``best``.
    """
    left = unhit.sum()
    if left == 0:
        return chosen if len(chosen) < len(best) else best
    gains = incidence @ unhit
    gains[banned] = 0.0
    top = gains.max()
    if top == 0 or len(chosen) + ceil(left / top) >= len(best):
        return best
    # Hit quorums score above any allowed count, so argmin picks an unhit one.
    q = int(np.argmin(allowed + (len(banned) + 1.0) * (1.0 - unhit)))
    elems = np.flatnonzero((incidence[:, q] == 1) & ~banned)
    banned = banned.copy()
    for e in elems[np.argsort(-gains[elems], kind="stable")]:
        best = _descend(incidence, unhit * (incidence[e] == 0), allowed, banned,
                        chosen + [int(e)], best)
        if len(chosen) + 1 >= len(best):
            break
        banned[e] = True
        allowed = allowed - incidence[e]
    return best


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
    a_min = min_transversal_size(sys)
    c = min(m.bit_count() for m in sys.quorum_masks())
    pair = _smallest_pair(sys)
    # A single-quorum system has no pair: report the quorum size itself.
    return CombinatorialParams(c, c if pair is None else pair[0], a_min)


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
    violating_pair: tuple[int, int] | None = None
    blocking_set: ElementSet | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_masking(sys: ExplicitQuorumSystem, b: int) -> MaskingCheck:
    """Definitional b-masking check: every two quorums share at least 2b+1
    elements, and no b crashes hit every quorum (a_min >= b+1).

    On failure the result carries one witness: a smallest-intersection quorum
    pair if some pair shares fewer than 2b+1 elements, otherwise a blocking
    set, which is a minimum transversal of size a_min <= b.  Resilience has
    one route, the transversal search that combinatorial_params shares.
    """
    if b < 0:
        raise ParameterError(f"masking level must be >= 0, got {b}")
    if b >= sys.n:
        # Crashing the whole universe hits every (non-empty) quorum.
        return MaskingCheck(ok=False, blocking_set=ElementSet.full(sys.n))
    pair = _smallest_pair(sys)
    if pair is not None and pair[0] < 2 * b + 1:
        return MaskingCheck(ok=False, violating_pair=pair[1:])
    a_min, witness = _min_transversal(sys)
    if a_min <= b:
        return MaskingCheck(ok=False, blocking_set=ElementSet(sys.n, witness))
    return MaskingCheck(ok=True)


@dataclass(frozen=True)
class Fairness:
    ok: bool
    s: int | None = None  # common quorum size
    d: int | None = None  # common element degree

    def __bool__(self) -> bool:
        return self.ok


def is_fair(sys: ExplicitQuorumSystem) -> Fairness:
    """True iff all quorums share one size s and all elements one degree d."""
    members = unpack_masks(sys.quorum_words, sys.n)
    sizes, degrees = members.sum(axis=1), members.sum(axis=0)
    if sys.m == 0 or (sizes != sizes[0]).any() or (degrees != degrees[0]).any():
        return Fairness(ok=False)
    return Fairness(ok=True, s=int(sizes[0]), d=int(degrees[0]))


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
    incidence = unpack_masks(sys.quorum_words, n).T.astype(np.float64)
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
    loads = strategy.weights @ unpack_masks(sys.quorum_words, sys.n)
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
