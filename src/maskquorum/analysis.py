"""Oracle-grade combinatorial analysis of explicit quorum systems.

Everything here is exact: smallest quorum, smallest pairwise intersection,
smallest transversal, masking verification straight from the definitions,
fairness, and the exact load via linear programming, together with the
masking-load lower bounds.

Each question has one route, and all of them read the system's packed quorum
words.  The smallest pairwise intersection is ``ExplicitQuorumSystem.
smallest_pair``: one pass of the upper-triangle popcount kernel
(``_bitops.smallest_intersection``) per system object, and check_masking(sys,
0) is the intersection check.  The smallest transversal is a branch and bound
(``_search_transversal``) on blocks of nodes whose unhit quorums are packed
words, run once per system object for combinatorial_params, masking_level
and check_masking's resilience half, and logged at DEBUG on the
"maskquorum" logger.  Where it branches it breaks the symmetry of twins,
elements whose swap maps the quorum list onto itself (``_twin_leaders``),
by the lex-leader rule, so a threshold block of a composition is searched
once, not once per arrangement of its elements.  Fairness, the load LP and
induced loads take the incidence matrix from ``unpack_masks`` of the same
words; a fair system's load is is_fair(sys).s / sys.n.

Only ``load_lp`` needs scipy (``scipy.optimize.milp``, reached only through
the CLI's ``load``), and it imports it when called, so importing
this module or the package does not load scipy.optimize.  The load LP goes
to HiGHS as one dense constraint block through ``milp`` with every variable
continuous and presolve off, which skips ``linprog``'s input cleaning.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from math import sqrt
from typing import NamedTuple

import numpy as np

from ._bitops import and_counts, bools_to_int, pack_rows, unpack_masks
from .constructions import ExplicitQuorumSystem
from .core import AccessStrategy, ElementSet
from .errors import NumericalError, ParameterError, SizeError

__all__ = [
    "CombinatorialParams", "combinatorial_params", "min_transversal_size",
    "masking_level", "MaskingCheck", "check_masking", "Fairness", "is_fair",
    "load_lp", "InducedLoad", "induced_load",
    "LoadBounds", "load_lower_bounds",
]

A_MIN_MAX_N = 30
A_MIN_MAX_QUORUMS = 10 ** 4
LP_MAX_QUORUMS = 10 ** 4
LP_MAX_N = 10 ** 3
# Nodes per block of the transversal search, fewer where its popcount
# temporaries would pass SEARCH_WORDS words (n = 1000, m = 10^4: one node) or
# the children it pushes SEARCH_CHILD_WORDS (n = 1000, m = 200, quorums of
# about 500 elements: 8 nodes, 17 MB over the system where 64 took 116 MB).
SEARCH_NODES = 64
SEARCH_WORDS = 1 << 18
SEARCH_CHILD_WORDS = 1 << 20


class CombinatorialParams(NamedTuple):
    c: int
    i_min: int
    a_min: int


def _min_transversal(sys: ExplicitQuorumSystem) -> tuple[int, int]:
    """Exact minimum hitting set: (size, element bitmask).

    Searched once per system object and kept on it, so that
    combinatorial_params, masking_level and check_masking share one search.
    """
    if sys.n > A_MIN_MAX_N and sys.m > A_MIN_MAX_QUORUMS:
        raise SizeError(
            f"minimum transversal needs n <= {A_MIN_MAX_N} or quorum count <= "
            f"{A_MIN_MAX_QUORUMS}; got n={sys.n}, m={sys.m}")
    memo = sys.__dict__
    if "_min_transversal" not in memo:
        memo["_min_transversal"] = _search_transversal(sys)
    return memo["_min_transversal"]


class _Nodes(NamedTuple):
    """A block of search nodes, one per row."""
    unhit: np.ndarray   # (F, W) words: the quorums no chosen element meets
    banned: np.ndarray  # (F, n) bool: the elements the node may not choose
    chosen: np.ndarray  # (F, n) bool: the elements chosen so far
    bound: np.ndarray   # (F,) int: a lower bound on every cover below the node

    def take(self, rows) -> _Nodes:
        return _Nodes(*(a[rows] for a in self))


class _Twins(NamedTuple):
    """The twin classes of a system, in the layout the ban closure reads."""
    order: np.ndarray   # (n,) the elements by class, then by index
    offset: np.ndarray  # (n,) per position of order: (n - its class's first element) * n

    def earliest(self, rank: np.ndarray) -> np.ndarray:
        """Per row of an (F, n) rank matrix below n, the least rank over each
        element and the earlier members of its class.  The offsets fall from
        class to class along ``order`` by more than any rank, so one running
        minimum never reaches into an earlier class."""
        out = np.empty_like(rank)
        out[:, self.order] = (np.minimum.accumulate(rank[:, self.order] + self.offset, axis=1)
                              - self.offset)
        return out


def _twin_leaders(members: np.ndarray, quorum_words: np.ndarray) -> np.ndarray:
    """The smallest twin of each element, or the element itself if it has none.

    Elements e and f are twins when swapping them maps the quorum list onto
    itself; twins form classes.  Twins have one degree and meet every third
    element equally often, so the candidates are the pairs whose rows of
    co-occurrence counts agree off the pair, each row compared by one
    weighted sum in wrapping uint64 arithmetic: agreeing rows always tie,
    others rarely do, as the weights (g + 1) * 2^64 / phi mod 2^64 are
    distinct and spread.  Each candidate f is then checked exactly
    against its smallest candidate e (``_swap_fixes``).  That e is f's
    smallest twin if the check passes, since the smallest twin is itself a
    candidate; if it fails, f moves on to its next candidate.  So a class of
    k members takes k - 1 checks, up to a block of checks at a time.
    """
    n = members.shape[1]
    co, rows = np.zeros((n, n)), max(1, SEARCH_WORDS // n)
    for q0 in range(0, len(members), rows):  # exact: the counts stay below 2^53
        part = members[q0:q0 + rows].astype(np.float64)
        co += part.T @ part
    co = co.astype(np.uint64)
    degree = co.diagonal().copy()
    np.fill_diagonal(co, 0)
    weight = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    off_pair = (co @ weight)[:, None] - co * weight  # [e, f]: row e's sum off e and f
    leader = np.arange(n)
    candidate = (off_pair == off_pair.T) & (degree[:, None] == degree) & (leader[:, None] < leader)
    pending = candidate.any(axis=0)
    if pending.any():
        # The quorums in key order, so that each check's images come nearly
        # sorted: Threshold(13,7)'s lookups took 380 against 610 us.
        order = np.argsort(_row_keys(quorum_words))
        members, quorum_words = members[order], quorum_words[order]
        keys = _row_keys(quorum_words)
    checks = max(1, SEARCH_WORDS // quorum_words.size)
    while pending.any():
        f = np.flatnonzero(pending)[:checks]
        e = np.argmax(candidate[:, f], axis=0)
        twin = _swap_fixes(members, quorum_words, keys, e, f)
        leader[f[twin]] = e[twin]
        candidate[e, f] = False
        pending[f] = ~twin & candidate[:, f].any(axis=0)
    return leader


def _swap_fixes(members: np.ndarray, quorum_words: np.ndarray, keys: np.ndarray,
                e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """For each i, whether swapping elements e[i] and f[i] maps the quorum
    list onto itself: every quorum holding exactly one of them, with the two
    bits swapped, is among the sorted quorum ``keys`` (``_row_keys``)."""
    pair, q = np.nonzero((members[:, e] != members[:, f]).T)
    swap = np.zeros((len(e), members.shape[1]), dtype=bool)
    swap[np.arange(len(e)), e] = swap[np.arange(len(e)), f] = True
    images = _row_keys(quorum_words[q] ^ pack_rows(swap)[pair])
    at = np.minimum(np.searchsorted(keys, images), len(keys) - 1)
    return np.bincount(pair[keys[at] != images], minlength=len(e)) == 0


def _row_keys(words: np.ndarray) -> np.ndarray:
    """Each row of a packed word matrix as one value, for sorting and looking
    rows up by equality: the word itself at W = 1 (a numeric search is some
    five times faster), else the row's bytes."""
    if words.shape[1] == 1:
        return words[:, 0]
    words = np.ascontiguousarray(words)
    return words.view(np.dtype((np.void, words.shape[1] * words.itemsize)))[:, 0]


def _twin_summary(leader: np.ndarray | None) -> str:
    """The classes of two or more twins as count x size, for the search log."""
    if leader is None:
        return "unsearched"
    sizes = np.bincount(leader)
    size, count = np.unique(sizes[sizes > 1], return_counts=True)
    return "+".join(f"{c}x{s}" for s, c in zip(size, count)) or "none"


def _search_transversal(sys: ExplicitQuorumSystem) -> tuple[int, int]:
    """Branch and bound for the smallest set of elements meeting every quorum.

    Depth first, up to SEARCH_NODES nodes at a time off a stack of node
    blocks (``_Nodes``).  One popcount kernel gives every node's element
    gains (the unhit quorums each meets).  Greedy gives the first incumbent.
    A node is finished in place when one allowed element covers every quorum
    left, and pruned when depth + ceil(left / top gain) cannot beat the
    incumbent; the rest branch (``_children``).  A better cover prunes the
    stack by the stored bounds.

    Where the search first branches it finds the system's twin classes
    (``_twin_leaders``), and the children break their symmetry; a search
    that never branches skips that work.

    The block is capped so that its popcount temporaries stay under
    SEARCH_WORDS words and the children it pushes under SEARCH_CHILD_WORDS,
    or to one node; the stack holds at most one block's children for each
    level of the current path.
    """
    start = time.perf_counter()
    n, m = sys.n, sys.m
    members = unpack_masks(sys.quorum_words, n)
    elem_words = pack_rows(members.T)  # (n, W): the quorums each element meets
    no_elements = np.zeros((1, n), dtype=bool)
    root = _Nodes(pack_rows(np.ones((1, m), dtype=bool)), no_elements, no_elements,
                  np.zeros(1, dtype=np.int64))
    # Greedy: the element meeting the most unhit quorums (the lowest index on
    # ties) until every quorum is hit.
    witness, unhit = np.zeros(n, dtype=bool), root.unhit[0]
    while unhit.any():
        e = int(np.argmax(and_counts(elem_words, unhit[None])))
        witness[e] = True
        unhit = unhit & ~elem_words[e]
    best = int(witness.sum())
    # A child is two n-byte rows, W words of unhit quorums and its bound; a
    # node has at most one child per element of its widest quorum.
    child_words = n // 4 + elem_words.shape[1] + 1
    children_per_node = int(members.sum(axis=1).max()) * child_words
    block = max(1, min(SEARCH_NODES, SEARCH_CHILD_WORDS // children_per_node,
                       SEARCH_WORDS // max(elem_words.size, sys.quorum_words.size)))
    stack, visited = [root], 0
    leader, twins, detect = None, None, 0.0
    while stack:
        nodes = stack.pop()
        if not len(nodes.bound):
            continue
        stack.append(nodes.take(slice(block, None)))
        nodes = nodes.take(slice(block))
        visited += len(nodes.bound)
        depth = nodes.chosen.sum(axis=1)
        gains = and_counts(nodes.unhit, elem_words)
        gains[nodes.banned] = 0
        left = np.bitwise_count(nodes.unhit).sum(axis=1, dtype=np.int64)
        top = gains.max(axis=1)
        # One allowed element covers every quorum left: a cover of depth + 1.
        finish = np.where(top == left, depth + 1, best)
        i = int(np.argmin(finish))
        if finish[i] < best:
            best = int(finish[i])
            witness = nodes.chosen[i] | (np.arange(n) == np.argmax(gains[i]))
            stack = [s.take(s.bound < best) for s in stack]
        # Branch where an unhit quorum has an allowed element and the bound
        # can beat the incumbent.
        go = (top > 0) & (top < left) & (depth - (-left // np.maximum(top, 1)) < best)
        if not go.any():
            continue
        if leader is None:
            clock = time.perf_counter()
            leader = _twin_leaders(members, sys.quorum_words)
            if (leader != np.arange(n)).any():
                order = np.argsort(leader, kind="stable")
                twins = _Twins(order, (n - leader[order]) * n)
            detect = time.perf_counter() - clock
        stack.append(_children(sys.quorum_words, members, elem_words, nodes.take(go),
                               depth[go], gains[go], left[go], top[go], best, twins))
    log = logging.getLogger("maskquorum")
    if log.isEnabledFor(logging.DEBUG):
        log.debug("transversal search: n=%d m=%d nodes=%d size=%d twins=%s "
                  "detect=%.3f ms elapsed=%.3f ms", n, m, visited, best,
                  _twin_summary(leader), 1e3 * detect, 1e3 * (time.perf_counter() - start))
    return best, bools_to_int(witness)


def _children(quorum_words: np.ndarray, members: np.ndarray, elem_words: np.ndarray,
              nodes: _Nodes, depth: np.ndarray, gains: np.ndarray, left: np.ndarray,
              top: np.ndarray, best: int, twins: _Twins | None) -> _Nodes:
    """The children of each node whose bound can beat ``best``.

    A node branches on its unhit quorum with the fewest allowed elements,
    taking them by decreasing gain (stable sort); the child taking the
    element of rank r bans those of rank < r, so each hitting set is reached
    in one order.  A quorum whose elements are all banned has no children.

    With twins, the lex-leader rule (Crawford et al., KR 1996) also holds:
    some minimum transversal meets each twin class in a prefix of its index
    order, since swapping twins maps transversals to transversals.  So a ban
    extends to every later member of the element's class, and a child whose
    element has a banned earlier class member is dropped.
    """
    n = members.shape[1]
    allowed = and_counts(~pack_rows(nodes.banned), quorum_words)
    is_unhit = np.unpackbits(nodes.unhit.view(np.uint8), axis=1, count=len(members),
                             bitorder="little")
    q = np.argmin(np.where(is_unhit, allowed, n + 1), axis=1)
    candidates = members[q] & ~nodes.banned
    order = np.argsort(np.where(candidates, -gains, 1), axis=1, kind="stable")
    rank_of = np.argsort(order, axis=1, kind="stable").astype(np.min_scalar_type(n))
    # The rank from which each element is banned: its own, or with twins the
    # least over it and its earlier class members.
    banned_from = rank_of if twins is None else twins.earliest(rank_of)
    parent, rank = np.nonzero(np.arange(n) < candidates.sum(axis=1)[:, None])
    e = order[parent, rank]
    bound = depth[parent] + 1 - (-(left[parent] - gains[parent, e]) // top[parent])
    keep = (bound < best) & (banned_from[parent, e] == rank)
    parent, rank, e = parent[keep], rank[keep].astype(rank_of.dtype), e[keep]
    return _Nodes(nodes.unhit[parent] & ~elem_words[e],
                  nodes.banned[parent] | (banned_from[parent] < rank[:, None]),
                  nodes.chosen[parent] | (np.arange(n) == e[:, None]),
                  bound[keep])


def min_transversal_size(sys: ExplicitQuorumSystem) -> int:
    """Exact smallest hitting-set size over the quorum list."""
    return _min_transversal(sys)[0]


def combinatorial_params(sys: ExplicitQuorumSystem) -> CombinatorialParams:
    """Brute-force (c, i_min, a_min) of an explicit system.

    i_min ranges over distinct quorum pairs; a single-quorum system reports
    i_min = c.  a_min is the exact minimum hitting-set size and requires
    n <= 30 or quorum count <= 10^4.
    """
    a_min = min_transversal_size(sys)
    c = int(np.bitwise_count(sys.quorum_words).sum(axis=1).min())
    pair = sys.smallest_pair
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
    pair = sys.smallest_pair
    if pair is not None and pair[0] < 2 * b + 1:
        return MaskingCheck(ok=False, violating_pair=pair[1:])
    if b == 0:  # quorums are non-empty, so a_min >= 1 without a search
        return MaskingCheck(ok=True)
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
    if (sizes != sizes[0]).any() or (degrees != degrees[0]).any():
        return Fairness(ok=False)
    return Fairness(ok=True, s=int(sizes[0]), d=int(degrees[0]))


def load_lp(sys: ExplicitQuorumSystem) -> tuple[float, AccessStrategy]:
    """Exact system load: minimise the busiest element's access probability.

    Solves  min t  s.t.  sum_Q w(Q) = 1,  w >= 0,  for every element u:
    sum_{Q containing u} w(Q) <= t.  Returns the optimal t and a witnessing
    strategy whose induced maximum load equals t (within 1e-9).
    """
    if sys.m > LP_MAX_QUORUMS or sys.n > LP_MAX_N:
        raise SizeError(
            f"load LP capped at {LP_MAX_QUORUMS} quorums and n <= {LP_MAX_N}; "
            f"got m={sys.m}, n={sys.n}")
    from scipy.optimize import LinearConstraint, milp

    m, n = sys.m, sys.n
    # Variables w_0..w_{m-1}, t; rows: each element's load minus t, then the
    # weight sum.  Presolve does not pay at these sizes: the 17 roster LPs of
    # the benchmark took 42 ms with it and 35 ms without (2-vCPU Xeon).
    incidence = unpack_masks(sys.quorum_words, n).T
    rows = np.block([[incidence, -np.ones((n, 1))], [np.ones((1, m)), np.zeros((1, 1))]])
    lower = np.append(np.full(n, -np.inf), 1.0)
    upper = np.append(np.zeros(n), 1.0)
    cost = np.append(np.zeros(m), 1.0)
    res = milp(cost, constraints=LinearConstraint(rows, lower, upper),
               options={"presolve": False})
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
