"""Universes, element sets, explicit quorum systems, and reproducible randomness.

A universe is the integer range 0..n-1 (n servers).  ElementSet is an immutable
subset of a universe backed by an integer bitmap; ExplicitQuorumSystem is the
oracle-friendly representation of a quorum system as an explicit quorum list.
Rng provides counter-based randomness so that Monte Carlo trial t is a pure
function of (seed, t) no matter how trials are chunked or parallelised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

from ._bitops import (
    BLOCK_WORDS, NO_PAIR, bools_to_int, iter_bits, pack_ints, pack_rows, pair_intersections,
)
from .errors import ParameterError

__all__ = [
    "ElementSet",
    "ExplicitQuorumSystem",
    "AccessStrategy",
    "SystemParams",
    "Rng",
    "sample_crash_set",
]


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


@dataclass(frozen=True)
class ExplicitQuorumSystem:
    """A quorum system given by an explicit, ordered list of quorums.

    Construction rejects an empty list, empty quorums, universe mismatches,
    and duplicate quorums.  Pairwise intersection is *not* enforced here, so
    that analysis.check_masking can report a disjoint pair on any input.
    """

    n: int
    quorums: tuple[ElementSet, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"universe size must be >= 1, got {self.n}")
        object.__setattr__(self, "quorums", tuple(self.quorums))
        if not self.quorums:
            raise ParameterError("empty quorum system")
        seen: set[int] = set()
        for idx, q in enumerate(self.quorums):
            if not isinstance(q, ElementSet):
                raise ParameterError(f"quorum {idx} is not an ElementSet")
            if q.n != self.n:
                raise ParameterError(f"quorum {idx} lives in a different universe")
            if q.mask == 0:
                raise ParameterError(f"quorum {idx} is empty")
            if q.mask in seen:
                raise ParameterError(f"duplicate quorum at index {idx}")
            seen.add(q.mask)

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "ExplicitQuorumSystem":
        return cls(n, tuple(ElementSet(n, m) for m in masks))

    @property
    def m(self) -> int:
        return len(self.quorums)

    def quorum_masks(self) -> list[int]:
        return [q.mask for q in self.quorums]

    @cached_property
    def quorum_words(self) -> np.ndarray:
        """The quorum list as a read-only (m, W) packed word matrix (pack_rows
        layout), built once per system."""
        words = pack_ints(self.quorum_masks(), self.n)
        words.setflags(write=False)
        return words

    @cached_property
    def smallest_pair(self) -> tuple[int, int, int] | None:
        """(size, i, j) of a smallest intersection over quorum pairs i < j, the
        first such pair in (i, j) order; None for a single-quorum system.

        One pairwise-intersection pass per system, shared by
        combinatorial_params and check_masking."""
        best = None
        for i0, sizes in pair_intersections(self.quorum_words):
            k, j = np.unravel_index(np.argmin(sizes), sizes.shape)
            if sizes[k, j] != NO_PAIR and (best is None or sizes[k, j] < best[0]):
                best = (int(sizes[k, j]), i0 + int(k), int(j))
        return best

    def exact_route(self) -> tuple[str, Callable[[float], float]]:
        """An explicit system has no closed form: availability.enumeration_route."""
        from .availability import enumeration_route
        return enumeration_route(self)

    def enumerate_kills(self) -> Iterator[np.ndarray]:
        """Kill counts by crash size, a chunk of the 2^n at a time:
        availability.live_batch_kills, as for a handle."""
        from .availability import live_batch_kills
        return live_batch_kills(self)

    def live_batch(self, alive: np.ndarray) -> np.ndarray:
        """Vectorised live predicate on a (T, n) boolean matrix, for any n."""
        if alive.ndim != 2 or alive.shape[1] != self.n:
            raise ParameterError(
                f"alive matrix has shape {alive.shape}, system needs (T, {self.n})")
        words = pack_rows(alive)
        live = np.zeros(len(alive), dtype=bool)
        block = max(1, BLOCK_WORDS // max(1, words.size))
        for q0 in range(0, self.m, block):
            q = self.quorum_words[q0:q0 + block, None, :]
            # OR-ing row by row, not with any(axis=0), keeps a one-quorum
            # block (T >= 2^16) at one pass over the rows.
            for contained in ((words & q) == q).all(axis=2):
                live |= contained
        return live


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
