"""Crash probability of quorum systems: exact, Monte Carlo, and analytic bounds.

The exact path asks the target for its route (``exact_route()``), resolved
before any work: a closed form (threshold binomial tail, inclusion-exclusion
over the full rows and columns of MGrid, F_outer(F_inner(p)) for a
composition such as RT), or else enumeration of the 2^n crash sets
(explicit systems, FPP, MPath; n <= 25), once per handle or system object,
tallying how many crash sets of each cardinality kill the system; the crash
probability at any p is then sum(N_d * p^d * (1-p)^(n-d)).  Every
enumeration enters through _profile_of, which tallies the target's
enumerate_kills(); by default that runs the live predicate shared with Monte
Carlo, ``live_batch`` on a (T, n) boolean matrix, for handles and explicit
systems alike.  MPath overrides it: its fill reads the masks as grid words,
and at r = 1 it fills only half the crash sets, since by the Hex theorem a
set's complement is live iff the set crosses the grid neither way.  Monte
Carlo uses counter-based randomness, so estimates are bit-identical for a
given seed regardless of chunking or thread count.

The threshold closed forms, like mgrid_fp_exact, sum in exact integers over
p's binary fraction and round once.

Only ``rt_critical_probability`` needs scipy (``scipy.optimize.brentq``,
reached through the RT handle's ``published_bounds``, ``fp --bounds`` on RT
and ``table8``), and only ``crash_prob_mc`` with more than one worker needs
a thread pool; each imports it at the call, so the exact and single-worker
Monte Carlo routes never load scipy.optimize or concurrent.futures.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np

from ._bitops import ceil_sqrt, popcount, unpack_masks
from .core import MGridSpec, Rng, SystemParams, ThresholdSpec, _require_prime
from .errors import ApplicabilityError, NumericalError, ParameterError, SizeError

if TYPE_CHECKING:
    from .constructions import ExplicitQuorumSystem, QuorumSystemHandle

__all__ = [
    "EstimateResult", "crash_profile", "crash_prob_exact", "crash_prob_mc",
    "FpLowerBounds", "fp_lower_bounds", "ThresholdG", "threshold_g",
    "rt_fp_recurrence", "CriticalProbability", "rt_critical_probability",
    "rt_fp_upper", "BoostFppBound", "boostfpp_fp_upper", "mgrid_fp_lower",
    "mgrid_fp_exact", "mpath_lr_failure_upper", "interior_bound", "mpath_fp_upper",
    "binom_ratio_check",
]

# Largest n at which 2^n crash sets are enumerated.
EXACT_MAX_N = 25
_ENUM_CHUNK = 1 << 20
# Raw draws per Monte Carlo chunk: 2 MB of words and 256 KB of crash
# indicators, small enough to stay in cache (256 trials at n = 1024).
_MC_DOUBLES_PER_CHUNK = 1 << 18


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"probability must be in [0,1], got {p}")


@dataclass(frozen=True)
class EstimateResult:
    """A probability estimate with its provenance."""

    value: float
    route: str  # "closed_form", "enumeration" or "monte_carlo"
    trials: int | None = None
    std_error: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ParameterError(f"estimate {self.value} outside [0,1]")

    @property
    def kind(self) -> str:
        """The estimate's kind: "monte_carlo" on the Monte Carlo route, else "exact"."""
        return "monte_carlo" if self.route == "monte_carlo" else "exact"


# ---------------------------------------------------------------------------
# Exact enumeration and Monte Carlo
# ---------------------------------------------------------------------------

def _profile_of(target) -> np.ndarray:
    """Kill counts by crash size, summed over target.enumerate_kills(): the
    one entry of 2^n enumeration, which crash_profile memoises."""
    profile = np.zeros(target.n + 1, dtype=np.int64)
    for kills in target.enumerate_kills():
        profile += kills
    return profile


def mask_chunks(bits: int) -> Iterator[np.ndarray]:
    """The masks 0 to 2^bits - 1, in ascending uint32 chunks of at most 2^20."""
    total = 1 << bits
    for start in range(0, total, _ENUM_CHUNK):
        yield np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.uint32)


def live_batch_kills(target) -> Iterator[np.ndarray]:
    """The default enumerate_kills of handles and explicit systems: live_batch
    on every alive set of the 2^n, unpacked to boolean rows a chunk at a
    time, yielding each chunk's kill counts by crash size."""
    n = target.n
    for masks in mask_chunks(n):
        live = target.live_batch(unpack_masks(masks, n))
        yield np.bincount(n - popcount(masks[~live]), minlength=n + 1)


def _require_enumerable(n: int) -> None:
    if n > EXACT_MAX_N:
        raise SizeError(f"exact enumeration capped at n <= {EXACT_MAX_N} (got n={n}); "
                        "use crash_prob_mc instead")


def crash_profile(target: ExplicitQuorumSystem | QuorumSystemHandle) -> np.ndarray:
    """Exact kill counts by crash cardinality: entry d is the number of crash
    sets of size d under which no quorum is fully alive.  Requires n <= 25.

    Enumerated once per object and kept on it, for handles and explicit
    systems alike; an equal object built separately enumerates again.
    """
    _require_enumerable(target.n)
    memo = target.__dict__
    if "_crash_profile" not in memo:
        memo["_crash_profile"] = _profile_of(target)
    return memo["_crash_profile"]


def enumeration_route(target: ExplicitQuorumSystem | QuorumSystemHandle
                      ) -> tuple[str, Callable[[float], float]]:
    """A target's route without a closed form: ("enumeration", F), where F sums
    N_d p^d (1-p)^(n-d) over crash_profile, enumerated at F's first call.
    Past n = 25 it raises SizeError before enumerating anything."""
    n = target.n
    _require_enumerable(n)
    d = np.arange(n + 1)
    return "enumeration", lambda p: float(
        np.sum(crash_profile(target) * np.power(p, d) * np.power(1.0 - p, n - d)))


def crash_prob_exact(target: ExplicitQuorumSystem | QuorumSystemHandle,
                     p: float) -> EstimateResult:
    """Exact crash probability: the chance that every quorum is hit when each
    server crashes independently with probability p.

    By the target's exact_route(): a closed form at any n, else enumeration
    up to n = 25, else SizeError before any work.  Logs the route, n, p and
    the elapsed time at DEBUG on the "maskquorum" logger, one line per call.
    """
    _check_probability(p)
    start = time.perf_counter()
    route, crash_prob = target.exact_route()
    value = crash_prob(p)
    logging.getLogger("maskquorum").debug(
        "crash_prob_exact: route=%s n=%d p=%g elapsed=%.3f ms",
        route, target.n, p, 1e3 * (time.perf_counter() - start))
    return EstimateResult(value=min(max(value, 0.0), 1.0), route=route)


def crash_prob_mc(handle: QuorumSystemHandle, p: float, trials: int, seed: int,
                  workers: int | None = None) -> EstimateResult:
    """Monte Carlo crash probability over independent crash trials.

    Trial t derives its crash set from raw draws [t*n, (t+1)*n) of the
    counter-based stream keyed by ``seed`` (exactly sample_crash_set on
    Rng(seed).at(t): both compare the draws with ``Rng.crashed``), so the
    estimate is a pure function of (seed, p, trials): chunking and the worker
    count cannot change it.  ``workers`` defaults to the CPU count.
    Crossing-paths systems gain nothing from more workers: their
    dual-crossing fill runs as many short numpy calls, and the Python code
    between them holds the interpreter lock.  Logs n, p, the trials, seed,
    workers, chunks and the elapsed time at DEBUG on the "maskquorum" logger.
    """
    _check_probability(p)
    start = time.perf_counter()
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    if workers is None:
        workers = os.cpu_count() or 1
    elif workers < 1:
        raise ParameterError(f"worker count must be >= 1, got {workers}")
    n = handle.n
    rng = Rng(seed)
    chunk = max(1, _MC_DOUBLES_PER_CHUNK // max(n, 1))

    def crashed_in(bounds: tuple[int, int]) -> int:
        t0, t1 = bounds
        alive = ~rng.crashed(t0 * n, (t1 - t0) * n, p).reshape(t1 - t0, n)
        return int((~handle.live_batch(alive)).sum())

    ranges = [(t0, min(t0 + chunk, trials)) for t0 in range(0, trials, chunk)]
    if workers == 1 or len(ranges) == 1:
        crashed = sum(crashed_in(r) for r in ranges)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            crashed = sum(pool.map(crashed_in, ranges))
    value = crashed / trials
    logging.getLogger("maskquorum").debug(
        "crash_prob_mc: route=monte_carlo n=%d p=%g trials=%d seed=%d workers=%d chunks=%d "
        "elapsed=%.3f ms", n, p, trials, seed, workers, len(ranges),
        1e3 * (time.perf_counter() - start))
    return EstimateResult(value=value, route="monte_carlo", trials=trials, seed=seed,
                          std_error=math.sqrt(value * (1.0 - value) / trials))


# ---------------------------------------------------------------------------
# Lower bounds from the combinatorial parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FpLowerBounds:
    """Crash-probability lower bounds; p_f is None where its precondition
    (a_min <= (i_min + 1) / 2) fails."""

    p_mt: float
    p_c2f: float
    p_f: float | None


def fp_lower_bounds(params: SystemParams, p: float) -> FpLowerBounds:
    """p^a_min (kill a minimal transversal), p^(c-2b) (strip 2b elements from a
    smallest quorum), and p^(b+1) when a_min <= (i_min+1)/2."""
    _check_probability(p)
    p_mt = p ** params.a_min
    exp_c2f = params.c - 2 * params.b
    p_c2f = p ** exp_c2f if exp_c2f > 0 else 1.0
    p_f = p ** (params.b + 1) if 2 * params.a_min <= params.i_min + 1 else None
    return FpLowerBounds(p_mt=min(p_mt, 1.0), p_c2f=min(p_c2f, 1.0),
                         p_f=None if p_f is None else min(p_f, 1.0))


# ---------------------------------------------------------------------------
# Threshold blocks and recursive-threshold crash probability
# ---------------------------------------------------------------------------

class ThresholdG(NamedTuple):
    exact: float
    lemma_upper: float


def threshold_g(k: int, ell: int, p: float) -> ThresholdG:
    """Crash probability of the ell-of-k block, with its closed upper bound.

    exact: probability of at least k-ell+1 crashes among k servers.
    lemma_upper: C(k, ell-1) * p^(k-ell+1), clamped to 1.
    """
    ThresholdSpec(k, ell)
    _check_probability(p)
    d = k - ell + 1
    crashed, scale = p.as_integer_ratio()
    return ThresholdG(exact=_binomial_tail(k, d, crashed, scale),
                      lemma_upper=_capped_ratio(math.comb(k, ell - 1) * crashed ** d, scale ** d))


def _capped_ratio(num: int, den: int) -> float:
    """min(num / den, 1) for non-negative integers, rounded once."""
    return 1.0 if num >= den else num / den


def _binomial_tail(k: int, d: int, crashed: int, scale: int) -> float:
    """P(at least d of k crash) at p = crashed / scale, in exact integers:
    sum_j C(k, j) crashed^j alive^(k-j) over scale^k, by Horner in alive, with
    each C(k, j) crashed^j from the last by an exact division; rounded once."""
    alive = scale - crashed
    term = math.comb(k, d) * crashed ** d
    total = 0
    for j in range(d, k + 1):
        total = total * alive + term
        term = term * (k - j) * crashed // (j + 1)
    return total / scale ** k


def rt_fp_recurrence(k: int, ell: int, h: int, p: float) -> float:
    """Crash probability of the depth-h recursive threshold: h-fold iteration
    of the block's crash function starting from p."""
    if h < 0:
        raise ParameterError(f"depth must be >= 0, got {h}")
    ThresholdSpec(k, ell)
    _check_probability(p)
    value = p
    for _ in range(h):
        value = threshold_g(k, ell, value).exact
    return value


class CriticalProbability(NamedTuple):
    value: float
    below_half: bool


def rt_critical_probability(k: int, ell: int) -> CriticalProbability:
    """The unique fixed point of the block crash function in (0, 1), by Brent's method.

    ``below_half`` reports whether the root is below 1/2 by more than the
    1e-10 xtol (checked per instance, never assumed); majority-of-3 for
    example sits exactly at 1/2 and reports False.
    """
    from scipy.optimize import brentq

    if k == ell:
        raise ParameterError("degenerate block has no interior fixed point")
    ThresholdSpec(k, ell)

    def gap(x: float) -> float:
        return threshold_g(k, ell, x).exact - x

    lo, hi = 1e-12, 1.0 - 1e-12
    if not (gap(lo) < 0.0 < gap(hi)):
        raise NumericalError("failed to bracket the critical probability")
    value = brentq(gap, lo, hi, xtol=1e-10)
    return CriticalProbability(value=value, below_half=value < 0.5 - 1e-10)


def rt_fp_upper(k: int, ell: int, h: int, p: float) -> float:
    """[C(k, ell-1) p]^((k-ell+1)^h), clamped to 1 (vacuous once
    p >= 1/C(k, ell-1))."""
    if h < 0:
        raise ParameterError(f"depth must be >= 0, got {h}")
    ThresholdSpec(k, ell)
    _check_probability(p)
    crashed, scale = p.as_integer_ratio()
    base = _capped_ratio(math.comb(k, ell - 1) * crashed, scale)
    # A base below 1 is at most 1 - 2^-53, so a power past 10^300 is 0.0.
    return base ** min((k - ell + 1) ** h, 1e300)


# ---------------------------------------------------------------------------
# Construction-specific bounds
# ---------------------------------------------------------------------------

class BoostFppBound(NamedTuple):
    """Chernoff-style crash bound for the boosted projective plane.

    ``paper_form`` uses the rounded exponent (q+1) e^{-b(1-4p)^2/2} (the
    default reported value); ``chernoff_form`` keeps the exact exponent
    (q+1) e^{-2(4b+1) gamma^2} with gamma = (b+1)/(4b+1) - p.
    """

    paper_form: float
    chernoff_form: float


def boostfpp_fp_upper(q: int, b: int, p: float) -> BoostFppBound:
    """Upper bound on the boosted-plane crash probability; valid for p < 1/4."""
    _require_prime(q)
    if b < 0:
        raise ParameterError(f"need b >= 0, got {b}")
    _check_probability(p)
    if p >= 0.25:
        raise ApplicabilityError(
            "the boosted-plane bound requires p < 1/4 (the system's crash "
            "probability tends to 1 beyond it)")
    gamma = (b + 1) / (4 * b + 1) - p
    chernoff = (q + 1) * math.exp(-2.0 * (4 * b + 1) * gamma * gamma)
    paper = (q + 1) * math.exp(-b * (1.0 - 4.0 * p) ** 2 / 2.0)
    return BoostFppBound(paper_form=min(paper, 1.0), chernoff_form=min(chernoff, 1.0))


def mgrid_fp_lower(side: int, p: float) -> float:
    """Lower bound for the grid-of-rows-and-columns system: at least one crash
    per row disables it, so F_p >= (1 - (1-p)^side)^side."""
    if side < 1:
        raise ParameterError(f"side must be >= 1, got {side}")
    _check_probability(p)
    return (1.0 - (1.0 - p) ** side) ** side


def mgrid_fp_exact(side: int, b: int, p: float) -> float:
    """Exact crash probability of MGrid(side, b): the chance that fewer than
    g = ceil(sqrt(b+1)) rows or fewer than g columns are fully alive.

    By inclusion-exclusion over full rows and columns, P(live) is
    sum_{a,c >= g} (-1)^(a+c) C(a-1,g-1) C(c-1,g-1) C(s,a) C(s,c) q^(s^2 - uv)
    with s = side, q = 1-p, u = s-a and v = s-c.  The double p is exactly m / 2^e, so
    the sum is one integer over 2^(e s^2), rounded to a float only at the end:
    the alternating terms cancel far below double precision.
    """
    g = MGridSpec(side, b).g
    _check_probability(p)
    crashed, scale = p.as_integer_ratio()
    e = scale.bit_length() - 1
    alive = scale - crashed  # q = alive / 2^e
    weight = [(-1) ** a * math.comb(a - 1, g - 1) * math.comb(side, a)
              for a in range(g, side + 1)]
    # coef[j] gathers the terms with uv = j, whose power of q is s^2 - j.
    span = (side - g) ** 2
    coef = [0] * (span + 1)
    for u, wa in enumerate(reversed(weight)):
        for v, wc in enumerate(reversed(weight)):
            coef[u * v] += wa * wc
    # Horner in q: sum_j coef[j] alive^(span-j) 2^(e j), then the common
    # factor alive^(s^2 - span).
    live = 0
    for j, c in enumerate(coef):
        live = live * alive + (c << (e * j))
    live *= alive ** (side * side - span)
    total = 1 << (e * side * side)
    return (total - live) / total


def mpath_lr_failure_upper(side: int, p: float) -> float:
    """Counting bound on the probability that no open crossing path exists:
    side * (3p)^side / (1 - 3p), valid for p < 1/3, clamped to 1."""
    if side < 1:
        raise ParameterError(f"side must be >= 1, got {side}")
    _check_probability(p)
    if p >= 1.0 / 3.0:
        raise ApplicabilityError("the path-counting bound requires p < 1/3")
    return min(1.0, side * (3.0 * p) ** side / (1.0 - 3.0 * p))


def interior_bound(r: int, p: float, p_prime: float, tail_at_p_prime: float) -> float:
    """Transfer an increasing-event failure bound from p' down to p < p':
    ((1-p)/(p'-p))^r * tail, clamped to 1.  Depth r counts the perturbation
    budget; r = 0 returns the tail unchanged."""
    if r < 0:
        raise ParameterError(f"interior depth must be >= 0, got {r}")
    _check_probability(p)
    _check_probability(p_prime)
    if p >= p_prime:
        raise ParameterError(f"need p < p_prime, got p={p}, p_prime={p_prime}")
    if not 0.0 <= tail_at_p_prime <= 1.0:
        raise ParameterError(f"tail must be in [0,1], got {tail_at_p_prime}")
    return min(1.0, ((1.0 - p) / (p_prime - p)) ** r * tail_at_p_prime)


def mpath_fp_upper(side: int, b: int, p: float, p_prime: float) -> float:
    """Crash-probability upper bound for the crossing-paths construction:
    2 * interior_bound(r-1, p, p', counting tail at p') with r = ceil(sqrt(2b+1)).
    Requires p < p' < 1/3."""
    if b < 0:
        raise ParameterError(f"need b >= 0, got {b}")
    if not p < p_prime < 1.0 / 3.0:
        raise ApplicabilityError(
            f"need p < p_prime < 1/3, got p={p}, p_prime={p_prime}")
    r = ceil_sqrt(2 * b + 1)
    tail = mpath_lr_failure_upper(side, p_prime)
    return min(1.0, 2.0 * interior_bound(r - 1, p, p_prime, tail))


def binom_ratio_check(k: int, d: int, i: int) -> bool:
    """Exact integer check of C(k, d+i) / C(k, d) <= C(k-d, i)."""
    if d < 0 or i < 0 or d + i > k:
        raise ParameterError(f"need 0 <= d, 0 <= i, d+i <= k; got k={k}, d={d}, i={i}")
    return math.comb(k, d + i) <= math.comb(k - d, i) * math.comb(k, d)
