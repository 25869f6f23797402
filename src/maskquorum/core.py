"""Universes, element sets, construction specs, and reproducible randomness.

A universe is the integer range 0..n-1 (n servers).  ElementSet is an immutable
subset of a universe backed by an integer bitmap.  The construction specs are
validated value types with a canonical JSON encoding; constructions builds a
handle from each.  Rng provides counter-based randomness so that Monte Carlo
trial t is a pure function of (seed, t) no matter how trials are chunked or
parallelised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from ._bitops import bools_to_int, ceil_sqrt, iter_bits
from .errors import ParameterError, UnsupportedOrderError

__all__ = [
    "ElementSet", "AccessStrategy", "SystemParams",
    "MGridSpec", "ThresholdSpec", "RTSpec", "FPPSpec", "BoostFPPSpec",
    "MPathSpec", "ComposedSpec", "ConstructionSpec", "spec_to_json", "spec_from_json",
    "Rng", "sample_crash_set",
]

# Deepest recursive threshold: RT(k, ell, h) nests h composed handles, a few
# Python frames each, which must fit in the interpreter's recursion limit.
RT_MAX_DEPTH = 200


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


def _require_int_fields(spec) -> None:
    """Reject a spec whose fields are not all integers; a bool is rejected
    too, so JSON true does not read as 1."""
    for name, value in vars(spec).items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterError(
                f"{type(spec).__name__}.{name} must be an integer, got {value!r}")


def _require_prime(q: int) -> None:
    if not _is_prime(q):
        raise UnsupportedOrderError(
            f"projective-plane order {q} is not prime; only prime orders are supported")


@dataclass(frozen=True)
class ElementSet:
    """An immutable subset of the universe {0, ..., n-1}, stored as a bitmap."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"universe size must be >= 1, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ParameterError("bitmap has members outside the universe")

    @classmethod
    def empty(cls, n: int) -> "ElementSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "ElementSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "ElementSet":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise ParameterError(f"element {i} outside universe of size {n}")
            mask |= 1 << int(i)
        return cls(n, mask)

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and (self.mask >> i) & 1 == 1

    def _check_universe(self, other: "ElementSet") -> None:
        if self.n != other.n:
            raise ParameterError(f"universe mismatch: {self.n} != {other.n}")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check_universe(other)
        return ElementSet(self.n, self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check_universe(other)
        return ElementSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check_universe(other)
        return ElementSet(self.n, self.mask & ~other.mask)

    def complement(self) -> "ElementSet":
        return ElementSet(self.n, ((1 << self.n) - 1) & ~self.mask)

    def issubset(self, other: "ElementSet") -> bool:
        self._check_universe(other)
        return self.mask & ~other.mask == 0

    def as_bool(self) -> np.ndarray:
        """Membership as a boolean vector of length n."""
        packed = np.frombuffer(self.mask.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(packed, count=self.n, bitorder="little").astype(bool)

    def __repr__(self) -> str:
        return f"ElementSet(n={self.n}, {{{', '.join(map(str, self.members()))}}})"


class AccessStrategy:
    """A probability distribution over the quorums of an explicit system."""

    def __init__(self, weights: Iterable[float]):
        w = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                       dtype=float).ravel()
        if w.size == 0:
            raise ParameterError("strategy needs at least one weight")
        if not np.isfinite(w).all():
            raise ParameterError("strategy weights must be finite")
        if (w < -1e-12).any():
            raise ParameterError("strategy weights must be non-negative")
        w = np.maximum(w, 0.0)
        if abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError(f"strategy weights sum to {w.sum()!r}, not 1")
        self.weights = w
        self.weights.setflags(write=False)

    @classmethod
    def uniform(cls, m: int) -> "AccessStrategy":
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def point_mass(cls, m: int, index: int) -> "AccessStrategy":
        w = np.zeros(m)
        w[index] = 1.0
        return cls(w)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class SystemParams:
    """Combinatorial measures of a quorum system.

    c is the smallest quorum size, i_min the smallest pairwise quorum
    intersection, a_min the smallest transversal.  The masking level b and
    resilience f are properties derived from them, b = min(a_min - 1,
    (i_min - 1) // 2) and f = a_min - 1, so no record can contradict them.
    """

    n: int
    c: int
    i_min: int
    a_min: int
    load: float

    @property
    def b(self) -> int:
        return min(self.a_min - 1, (self.i_min - 1) // 2)

    @property
    def f(self) -> int:
        return self.a_min - 1

    def to_dict(self) -> dict:
        return {
            "n": self.n, "c": self.c, "i_min": self.i_min, "a_min": self.a_min,
            "b": self.b, "f": self.f, "load": self.load,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SystemParams":
        """The record of to_dict, rebuilt from its stored fields; a contradicting b or f raises."""
        params = cls(n=d["n"], c=d["c"], i_min=d["i_min"], a_min=d["a_min"], load=d["load"])
        if (d["b"], d["f"]) != (params.b, params.f):
            raise ParameterError(
                f"b={d['b']}, f={d['f']} contradict the derived b={params.b}, f={params.f}")
        return params


# ---------------------------------------------------------------------------
# Construction specs (a tagged union with a canonical JSON encoding)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MGridSpec:
    """Union-of-rows-and-columns quorums on a side x side grid, masking b faults."""

    side: int
    b: int

    def __post_init__(self) -> None:
        _require_int_fields(self)
        if self.side < 2:
            raise ParameterError(f"MGrid needs side >= 2, got {self.side}")
        if self.b < 0:
            raise ParameterError(f"MGrid needs b >= 0, got {self.b}")
        if self.g > self.side:
            raise ParameterError(
                f"MGrid needs ceil(sqrt(b+1)) <= side, got g={self.g} > side={self.side}")
        if 2 * self.b > self.side - 1:
            raise ParameterError(
                f"MGrid masking requires b <= (side-1)/2, got b={self.b}, side={self.side}")

    @property
    def g(self) -> int:
        """Rows (and columns) per quorum: ceil(sqrt(b+1))."""
        return ceil_sqrt(self.b + 1)


@dataclass(frozen=True)
class ThresholdSpec:
    """The ell-of-k threshold system.

    Requires k > ell > k/2, except that the degenerate single-element block
    (k = ell = 1) is accepted so the boosted-plane construction is defined at
    b = 0.
    """

    k: int
    ell: int

    def __post_init__(self) -> None:
        _require_int_fields(self)
        if self.k == 1 and self.ell == 1:
            return
        if not (self.k > self.ell and 2 * self.ell > self.k):
            raise ParameterError(
                f"threshold requires k > ell > k/2, got k={self.k}, ell={self.ell}")


@dataclass(frozen=True)
class RTSpec:
    """The ell-of-k threshold recursively composed over itself to depth h."""

    k: int
    ell: int
    h: int

    def __post_init__(self) -> None:
        _require_int_fields(self)
        if not (self.k > self.ell and 2 * self.ell > self.k):
            raise ParameterError(
                f"recursive threshold requires k > ell > k/2, got k={self.k}, ell={self.ell}")
        if not 1 <= self.h <= RT_MAX_DEPTH:
            raise ParameterError(
                f"recursive threshold needs depth 1 <= h <= {RT_MAX_DEPTH}, got {self.h}")


@dataclass(frozen=True)
class FPPSpec:
    """Finite projective plane of prime order q (lines as quorums)."""

    q: int

    def __post_init__(self) -> None:
        _require_int_fields(self)
        _require_prime(self.q)


@dataclass(frozen=True)
class BoostFPPSpec:
    """FPP(q) composed over the (3b+1)-of-(4b+1) threshold block."""

    q: int
    b: int

    def __post_init__(self) -> None:
        _require_int_fields(self)
        _require_prime(self.q)
        if self.b < 0:
            raise ParameterError(f"BoostFPP needs b >= 0, got {self.b}")


@dataclass(frozen=True)
class MPathSpec:
    """Disjoint crossing paths on the triangulated side x side grid."""

    side: int
    b: int

    def __post_init__(self) -> None:
        _require_int_fields(self)
        if self.side < 2:
            raise ParameterError(f"MPath needs side >= 2, got {self.side}")
        if self.b < 0:
            raise ParameterError(f"MPath needs b >= 0, got {self.b}")
        if self.r > self.side:
            raise ParameterError(
                f"MPath needs ceil(sqrt(2b+1)) <= side, got r={self.r} > side={self.side}")
        if self.side - self.r + 1 < self.b + 1:
            raise ParameterError(
                f"MPath masking requires side - r + 1 >= b + 1 "
                f"(side={self.side}, r={self.r}, b={self.b})")

    @property
    def r(self) -> int:
        """Crossing paths per orientation: ceil(sqrt(2b+1))."""
        return ceil_sqrt(2 * self.b + 1)


@dataclass(frozen=True)
class ComposedSpec:
    """Replace every element of the outer system by a copy of the inner one."""

    outer: "ConstructionSpec"
    inner: "ConstructionSpec"


ConstructionSpec = Union[
    MGridSpec, ThresholdSpec, RTSpec, FPPSpec, BoostFPPSpec, MPathSpec, ComposedSpec,
]

_SPEC_TAGS: dict[str, type] = {
    "MGrid": MGridSpec,
    "Threshold": ThresholdSpec,
    "RT": RTSpec,
    "FPP": FPPSpec,
    "BoostFPP": BoostFPPSpec,
    "MPath": MPathSpec,
    "Composed": ComposedSpec,
}
_TAG_BY_TYPE = {cls: tag for tag, cls in _SPEC_TAGS.items()}


def spec_to_json(spec: ConstructionSpec) -> dict:
    """Canonical JSON encoding: {"Tag": {field: value, ...}}."""
    tag = _TAG_BY_TYPE[type(spec)]
    if isinstance(spec, ComposedSpec):
        return {tag: {"outer": spec_to_json(spec.outer), "inner": spec_to_json(spec.inner)}}
    return {tag: dict(spec.__dict__)}


def spec_from_json(obj: dict) -> ConstructionSpec:
    """Parse the canonical JSON encoding produced by spec_to_json."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParameterError("construction spec must be a single-key object")
    tag, fields = next(iter(obj.items()))
    if tag not in _SPEC_TAGS:
        raise ParameterError(f"unknown construction tag {tag!r}")
    if not isinstance(fields, dict):
        raise ParameterError(f"fields of {tag!r} must be an object")
    cls = _SPEC_TAGS[tag]
    try:
        if cls is ComposedSpec:
            fields = {name: spec_from_json(value) if name in ("outer", "inner") else value
                      for name, value in fields.items()}
        return cls(**fields)
    except TypeError as exc:
        raise ParameterError(f"bad fields for {tag!r}: {exc}") from exc


_MASK64 = (1 << 64) - 1

# Raw-draw layout: crash-set sampling for trial t consumes the Philox(key=seed)
# uint64 draws [t*n, (t+1)*n).  numpy's Philox counter advances in blocks of
# four uint64 outputs, so arbitrary draw offsets are reached by setting the
# counter to start//4 and discarding start%4 leading draws.
_DRAWS_PER_BLOCK = 4
# generator() streams live above any block the raw layout can touch.
_STREAM_BASE_BLOCK = 1 << 96


def _crash_cut(p: float) -> int:
    """The integer c with raw < c iff (raw >> 11) * 2^-53 < p, for any uint64 raw."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"crash probability must be in [0,1], got {p}")
    return math.ceil(p * 2.0 ** 53) << 11


@dataclass(frozen=True)
class Rng:
    """Counter-based randomness: every draw is a pure function of (seed, position).

    ``at(t)`` selects the per-trial stream t; ``uniform_draws`` exposes the
    flat raw layout used by vectorised Monte Carlo so that evaluation order
    and chunking cannot change any result, and ``crashed`` compares the same
    draws with a crash probability without converting them to doubles.
    """

    seed: int
    stream: int = 0

    def at(self, trial: int) -> "Rng":
        if trial < 0:
            raise ParameterError("trial index must be non-negative")
        return Rng(self.seed, trial)

    def _raw_draws(self, start: int, count: int) -> np.ndarray:
        """Raw uint64 Philox words [start, start+count) of this seed's stream."""
        if start < 0 or count < 0:
            raise ParameterError("draw range must be non-negative")
        block, offset = divmod(start, _DRAWS_PER_BLOCK)
        bg = np.random.Philox(key=self.seed & _MASK64, counter=block)
        return bg.random_raw(offset + count)[offset:]

    def uniform_draws(self, start: int, count: int) -> np.ndarray:
        """Uniform [0,1) doubles for raw draws [start, start+count)."""
        return (self._raw_draws(start, count) >> 11) * (2.0 ** -53)

    def crashed(self, start: int, count: int, p: float) -> np.ndarray:
        """Crash indicators for raw draws [start, start+count), exactly
        ``uniform_draws(start, count) < p`` but compared as integers.

        A draw is (raw >> 11) * 2^-53, so it is below p iff raw >> 11 is below
        ceil(p * 2^53), that is iff raw < ceil(p * 2^53) << 11; scaling by a
        power of two is exact.  At p = 1 the cut is 2^64 and every draw crashes.
        """
        cut = _crash_cut(p)
        raw = self._raw_draws(start, count)
        if cut > _MASK64:
            return np.ones(count, dtype=bool)
        return raw < np.uint64(cut)

    def generator(self) -> np.random.Generator:
        """A numpy Generator on this stream's private counter region."""
        counter = _STREAM_BASE_BLOCK * (self.stream + 1)
        return np.random.Generator(np.random.Philox(key=self.seed & _MASK64, counter=counter))


def sample_crash_set(n: int, p: float, rng: Rng) -> ElementSet:
    """Crash each of n servers independently with probability p.

    The draw is a pure function of (rng.seed, rng.stream): stream t uses raw
    draws [t*n, (t+1)*n), the same layout as crash_prob_mc trial t.
    """
    crashed = rng.crashed(rng.stream * n, n, p)
    return ElementSet(n, bools_to_int(crashed))
