"""Crash probability of quorum systems: exact, Monte Carlo, and analytic bounds.

The exact path first asks the handle for its closed form (threshold binomial
tail, the recursive-threshold recurrence, inclusion-exclusion over the full
rows and columns of MGrid, F_outer(F_inner(p)) for a composition).  Only
systems without one (explicit systems, FPP, MPath) have their 2^n crash sets
enumerated, once per handle or explicit system object, tallying how many
crash sets of each cardinality kill the system; the crash probability at any
p is then the exact polynomial sum(N_d * p^d * (1-p)^(n-d)).  Enumeration and
Monte Carlo share one live predicate, ``live_batch`` on a (T, n) boolean
matrix, for handles and explicit systems alike; Monte Carlo uses
counter-based randomness, so estimates are bit-identical for a given seed
regardless of chunking or thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from ._bitops import ceil_sqrt, popcount, unpack_masks
from .constructions import (
    EXACT_MAX_N, MGridSpec, QuorumSystemHandle, ThresholdSpec, _require_prime,
)
from .core import ExplicitQuorumSystem, Rng, SystemParams
from .errors import ApplicabilityError, NumericalError, ParameterError, SizeError

__all__ = [
    "EstimateResult", "crash_profile", "crash_prob_exact", "crash_prob_mc",
    "FpLowerBounds", "fp_lower_bounds", "ThresholdG", "threshold_g",
    "rt_fp_recurrence", "CriticalProbability", "rt_critical_probability",
    "rt_fp_upper", "BoostFppBound", "boostfpp_fp_upper", "mgrid_fp_lower",
    "mgrid_fp_exact", "mpath_lr_failure_upper", "interior_bound", "mpath_fp_upper",
    "binom_ratio_check",
]

_ENUM_CHUNK = 1 << 20
# Raw draws per Monte Carlo chunk: 2 MB of words and 256 KB of crash
# indicators, small enough to stay in cache (256 trials at n = 1024).
_MC_DOUBLES_PER_CHUNK = 1 << 18
THREADS_ENV_VAR = "MASKQUORUM_THREADS"


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"probability must be in [0,1], got {p}")


@dataclass(frozen=True)
class EstimateResult:
    """A probability estimate with its provenance."""

    value: float
    kind: str  # "exact" or "monte_carlo"
    route: str  # "closed_form", "enumeration" or "monte_carlo"
    trials: int | None = None
    std_error: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ParameterError(f"estimate {self.value} outside [0,1]")


# ---------------------------------------------------------------------------
# Exact enumeration and Monte Carlo
# ---------------------------------------------------------------------------

def _profile_of(target) -> np.ndarray:
    n = target.n
    profile = np.zeros(n + 1, dtype=np.int64)
    total = 1 << n
    for start in range(0, total, _ENUM_CHUNK):
        masks = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.uint32)
        live = target.live_batch(unpack_masks(masks, n))
        alive_count = popcount(masks[~live])
        profile += np.bincount(n - alive_count, minlength=n + 1)
    return profile


def crash_profile(target: ExplicitQuorumSystem | QuorumSystemHandle) -> np.ndarray:
    """Exact kill counts by crash cardinality: entry d is the number of crash
    sets of size d under which no quorum is fully alive.  Requires n <= 25.

    Enumerated once per object and kept on it, for handles and explicit
    systems alike; an equal object built separately enumerates again.
    """
    n = target.n
    if n > EXACT_MAX_N:
        raise SizeError(
            f"exact enumeration capped at n <= {EXACT_MAX_N} (got n={n}); "
            "use crash_prob_mc instead")
    memo = target.__dict__
    if "_crash_profile" not in memo:
        memo["_crash_profile"] = _profile_of(target)
    return memo["_crash_profile"]


def crash_prob_exact(target: ExplicitQuorumSystem | QuorumSystemHandle,
                     p: float) -> EstimateResult:
    """Exact crash probability: the chance that every quorum is hit when each
    server crashes independently with probability p.

    From the target's closed form at any n where it has one; otherwise by
    enumeration, which requires n <= 25.
    """
    _check_probability(p)
    value = target.closed_form_crash_prob(p)
    route = "closed_form"
    if value is None:
        n = target.n
        profile = crash_profile(target)
        d = np.arange(n + 1)
        value = float(np.sum(profile * np.power(p, d) * np.power(1.0 - p, n - d)))
        route = "enumeration"
    return EstimateResult(value=min(max(value, 0.0), 1.0), kind="exact", route=route)


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get(THREADS_ENV_VAR)
        if env is not None:
            try:
                workers = int(env)
            except ValueError as exc:
                raise ParameterError(f"{THREADS_ENV_VAR} must be an integer") from exc
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ParameterError(f"worker count must be >= 1, got {workers}")
    return workers


def crash_prob_mc(handle: QuorumSystemHandle, p: float, trials: int, seed: int,
                  workers: int | None = None) -> EstimateResult:
    """Monte Carlo crash probability over independent crash trials.

    Trial t derives its crash set from raw draws [t*n, (t+1)*n) of the
    counter-based stream keyed by ``seed`` (exactly sample_crash_set on
    Rng(seed).at(t): both compare the draws with ``Rng.crashed``), so the
    estimate is a pure function of (seed, p, trials): chunking and the worker
    count cannot change it.  ``workers`` defaults to
    the MASKQUORUM_THREADS environment variable, then the CPU count.
    Crossing-paths systems gain nothing from more workers: their
    dual-crossing fill runs as many short numpy calls, and the Python code
    between them holds the interpreter lock.
    """
    _check_probability(p)
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    workers = _resolve_workers(workers)
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
        with ThreadPoolExecutor(max_workers=workers) as pool:
            crashed = sum(pool.map(crashed_in, ranges))
    value = crashed / trials
    return EstimateResult(value=value, kind="monte_carlo", route="monte_carlo",
                          trials=trials, seed=seed,
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
    exact = sum(math.comb(k, j) * p ** j * (1.0 - p) ** (k - j) for j in range(d, k + 1))
    upper = math.comb(k, ell - 1) * p ** d
    return ThresholdG(exact=min(max(exact, 0.0), 1.0), lemma_upper=min(upper, 1.0))


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


def rt_critical_probability(k: int, ell: int, tol: float = 1e-10) -> CriticalProbability:
    """The unique fixed point of the block crash function in (0, 1), by Brent's method.

    ``below_half`` reports whether the root is numerically below 1/2 (checked
    per instance, never assumed); majority-of-3 for example sits exactly at
    1/2 and reports False.
    """
    if tol <= 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    if k == ell:
        raise ParameterError("degenerate block has no interior fixed point")
    ThresholdSpec(k, ell)

    def gap(x: float) -> float:
        return threshold_g(k, ell, x).exact - x

    lo, hi = 1e-12, 1.0 - 1e-12
    if not (gap(lo) < 0.0 < gap(hi)):
        raise NumericalError("failed to bracket the critical probability")
    tol_eff = min(tol, 1e-10)
    value = brentq(gap, lo, hi, xtol=tol_eff)
    return CriticalProbability(value=value, below_half=value < 0.5 - tol_eff)


def rt_fp_upper(k: int, ell: int, h: int, p: float) -> float:
    """[C(k, ell-1) p]^((k-ell+1)^h), clamped to 1 (vacuous once
    p >= 1/C(k, ell-1))."""
    if h < 0:
        raise ParameterError(f"depth must be >= 0, got {h}")
    ThresholdSpec(k, ell)
    _check_probability(p)
    base = math.comb(k, ell - 1) * p
    if base >= 1.0:
        return 1.0
    if base == 0.0:
        return 0.0
    try:
        return min(1.0, base ** float((k - ell + 1) ** h))
    except OverflowError:
        return 0.0  # base < 1 raised to an astronomically large power


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
