"""Quorum systems: the explicit system, composition, and the family builders.

ExplicitQuorumSystem lists its quorums, for the oracles.  Composition replaces
each outer element by a copy of the inner system: compose_params multiplies
the five measures, and compose_explicit enumerates the composed quorums.
Each builder returns a QuorumSystemHandle exposing closed-form combinatorial
parameters, a live-quorum predicate, a batched quorum sampler (load-optimal
but for MPath's; see MPathHandle), and (for small instances) materialization
to an ExplicitQuorumSystem.  MGrid and MPath share one row/column handle,
FPP answers from its explicit plane, and BoostFPP and RT are compositions:
RT(k, ell, h) is RT(k, ell, h-1) composed over Threshold(k, ell), starting
from the 1-of-1 block at h = 1, and keeps only its own sampler and bounds.
MPath materializes only its straight-path quorums, so it and every composition
containing it report lists_every_quorum = False.  Each handle owns its exact
route: exact_route() names it and returns the crash probability F(p), or
raises SizeError before any work.  Threshold and MGrid have closed forms, a
composition is F_outer(F_inner(p)), and FPP and MPath enumerate up to n = 25.
Each handle also names its published crash-probability bounds
(published_bounds): the general lower bounds, plus its family's own.

Canonical element numbering: grid cell (i, j) -> i*side + j (0-based);
recursive-threshold leaves are numbered left to right; in a composition the
i-th inner copy occupies the index block [i*n_inner, (i+1)*n_inner).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._bitops import (
    BLOCK_WORDS, NO_PAIR, bools_to_int, iter_bits, pack_ints, pack_rows, pair_intersections,
    popcount, unpack_masks,
)
from .availability import (
    boostfpp_fp_upper, enumeration_route, fp_lower_bounds, live_batch_kills, mask_chunks,
    mgrid_fp_exact, mgrid_fp_lower, mpath_fp_upper, rt_critical_probability, rt_fp_upper,
    threshold_g,
)
from .core import (  # the specs and their encoding keep this import path too
    RT_MAX_DEPTH, BoostFPPSpec, ComposedSpec, ConstructionSpec, ElementSet, FPPSpec, MGridSpec,
    MPathSpec, Rng, RTSpec, SystemParams, ThresholdSpec, spec_from_json, spec_to_json,
)
from .errors import ApplicabilityError, ParameterError, SizeError
from .paths import disjoint_path_counts, grid_word_path_counts

__all__ = [
    "MGridSpec", "ThresholdSpec", "RTSpec", "FPPSpec", "BoostFPPSpec",
    "MPathSpec", "ComposedSpec", "ConstructionSpec", "spec_to_json", "spec_from_json",
    "ExplicitQuorumSystem", "compose_explicit", "compose_params", "iter_composed_masks",
    "QuorumSystemHandle", "build", "fpp_lines",
]

# Longest quorum count, in bits, that quorum_count() computes.  RT(4,3,h) has
# a count of 3^h bits: 531 441 at h = 12 take milliseconds, but h = 18 took
# 1.4 s and 194 MB, and math.comb takes seconds past about 10^6 bits.
COUNT_MAX_BITS = 1 << 20
DEFAULT_COMPOSE_CAP = 10 ** 6


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

    # No closed form: enumeration, as for a handle (QuorumSystemHandle).
    exact_route = enumeration_route
    enumerate_kills = live_batch_kills

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


def compose_explicit(outer: ExplicitQuorumSystem, inner: ExplicitQuorumSystem,
                     cap: int = DEFAULT_COMPOSE_CAP) -> ExplicitQuorumSystem:
    """Enumerate the composition of ``outer`` over disjoint copies of ``inner``.

    The composed universe has outer.n * inner.n elements, with copy i of the
    inner universe occupying indices [i*inner.n, (i+1)*inner.n).  Quorums are
    every union of one inner quorum per element of an outer quorum; duplicate
    unions (possible only when outer quorums nest) are removed.
    """
    count = sum(inner.m ** len(q) for q in outer.quorums)
    if count > cap:
        raise SizeError(f"composition enumerates {count} quorums, exceeding the cap of {cap}")
    composed = dict.fromkeys(
        iter_composed_masks(outer.quorum_masks(), inner.quorum_masks(), inner.n))
    return ExplicitQuorumSystem.from_masks(outer.n * inner.n, composed)


def iter_composed_masks(outer_masks: Iterable[int], inner_masks: Sequence[int],
                        n_inner: int) -> Iterator[int]:
    """For each outer quorum in order, every union of one inner quorum per
    member i, shifted into the block [i*n_inner, (i+1)*n_inner)."""
    for s in outer_masks:
        members = list(iter_bits(s))
        for choice in product(inner_masks, repeat=len(members)):
            mask = 0
            for i, inner_mask in zip(members, choice):
                mask |= inner_mask << (i * n_inner)
            yield mask


def compose_params(outer: SystemParams, inner: SystemParams) -> SystemParams:
    """Parameter algebra of composition: n, c, i_min, a_min, and load multiply,
    and b and f follow from them."""
    return SystemParams(
        n=outer.n * inner.n,
        c=outer.c * inner.c,
        i_min=outer.i_min * inner.i_min,
        a_min=outer.a_min * inner.a_min,
        load=outer.load * inner.load,
    )


def _uniform_subsets(gen: np.random.Generator, rows: int, k: int, ell: int) -> np.ndarray:
    """(rows, ell) indices, each row a uniform ell-subset of range(k): the
    first ell entries of the argsort of its row of one gen.random call."""
    return gen.random((rows, k)).argsort(axis=1)[:, :ell]


def _member_matrix(picks: np.ndarray, width: int) -> np.ndarray:
    """The (len(picks), width) boolean matrix whose row t has members picks[t]."""
    out = np.zeros((len(picks), width), dtype=bool)
    out[np.arange(len(picks))[:, None], picks] = True
    return out


def _comb_bits(k: int, j: int) -> float:
    """log2 C(k, j) at no cost for any k: from lgamma, but from the count
    itself where it fits in 64 bits, so a power of two gives an integer."""
    lg = math.lgamma
    bits = (lg(k + 1) - lg(j + 1) - lg(k - j + 1)) / math.log(2)
    return bits if bits > 64 else math.log2(math.comb(k, j))


def _checked_count_bits(handle: QuorumSystemHandle) -> float:
    """The handle's _count_bits(), refused with SizeError past COUNT_MAX_BITS."""
    bits = handle._count_bits()
    if bits > COUNT_MAX_BITS:
        raise SizeError(f"quorum count of {handle.spec} needs about {bits:.0f} bits, "
                        f"past the limit of {COUNT_MAX_BITS}")
    return bits


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------

class QuorumSystemHandle:
    """An implicitly represented quorum system with analytic parameters."""

    spec: ConstructionSpec
    params: SystemParams
    # False when materialize lists only some of the quorums (straight paths
    # for MPath), so its explicit system may be dead where the handle is live.
    lists_every_quorum: bool = True

    @property
    def n(self) -> int:
        return self.params.n

    def live(self, alive: ElementSet) -> bool:
        """True iff the alive set contains at least one complete quorum."""
        return bool(self.live_batch(alive.as_bool()[None, :])[0])

    def live_batch(self, alive: np.ndarray) -> np.ndarray:
        """Vectorised live predicate on a (T, n) boolean matrix."""
        if alive.ndim != 2 or alive.shape[1] != self.params.n:
            raise ParameterError(
                f"alive matrix has shape {alive.shape}, construction needs (T, {self.params.n})")
        return self._live_batch(alive)

    def _live_batch(self, alive: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # exact_route() gives (route, F), the exact crash probability F(p) and its
    # route's name, and enumerate_kills() the kill counts by crash size, a
    # chunk of the 2^n at a time.  Enumeration by default, refused past
    # n = 25 before any work; a family with a closed form or a faster
    # enumeration overrides them.
    exact_route = enumeration_route
    enumerate_kills = live_batch_kills

    def published_bounds(self, p: float, p_prime: float | None = None) -> dict:
        """Every published crash-probability bound at p, by name: p_mt, p_c2f
        and p_f (None where its condition fails), then the family's own.  A
        family bound whose precondition fails leaves its reason under
        "inapplicable"; entries before it stay.  p_prime is the reference
        probability of MPath's bound, by default midway between p and 1/3."""
        lower = fp_lower_bounds(self.params, p)
        out = {"p_mt": lower.p_mt, "p_c2f": lower.p_c2f, "p_f": lower.p_f}
        try:
            for name, value in self._family_bounds(p, p_prime):
                out[name] = value
        except (ApplicabilityError, ParameterError) as exc:
            out["inapplicable"] = str(exc)
        return out

    def _family_bounds(self, p: float, p_prime: float | None) -> Iterator[tuple[str, float]]:
        return iter(())

    def sample_quorum(self, rng: Rng | np.random.Generator) -> ElementSet:
        """One quorum: row 0 of sample_quorums(rng, 1)."""
        return ElementSet(self.params.n, bools_to_int(self.sample_quorums(rng, 1)[0]))

    def sample_quorums(self, rng: Rng | np.random.Generator, count: int) -> np.ndarray:
        """count draws from the construction's access strategy, as a (count, n)
        boolean matrix; a batch need not equal count successive single draws."""
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
            raise ParameterError(f"quorum count must be a non-negative integer, got {count!r}")
        gen = rng.generator() if isinstance(rng, Rng) else rng
        return self._sample_quorums(gen, int(count))

    def _sample_quorums(self, gen: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def quorum_count(self) -> int:
        """Total number of quorums the construction defines; SizeError, before
        any work, where the count may pass COUNT_MAX_BITS bits."""
        raise NotImplementedError

    def _count_bits(self) -> float:
        """log2 quorum_count(), estimated without computing the count."""
        raise NotImplementedError

    def iter_quorum_masks(self) -> Iterator[int]:
        raise NotImplementedError

    def materialize(self, max_quorums: int) -> ExplicitQuorumSystem:
        """Enumerate every quorum explicitly (straight-path quorums for MPath).

        A count whose estimate passes the cap by a bit is refused uncounted:
        C(10^6, 750001), for one, has 811 267 bits and takes seconds."""
        bits = _checked_count_bits(self)
        if bits > max_quorums.bit_length() + 1:
            raise SizeError(f"construction has an estimated {math.floor(bits) + 1}-bit count of "
                            f"quorums, exceeding the cap of {max_quorums}")
        count = self.quorum_count()
        if count > max_quorums:
            raise SizeError(f"construction has {count} quorums, exceeding the cap of {max_quorums}")
        return ExplicitQuorumSystem.from_masks(self.params.n, self.iter_quorum_masks())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


class ThresholdHandle(QuorumSystemHandle):
    def __init__(self, spec: ThresholdSpec):
        self.spec = spec
        k, ell = spec.k, spec.ell
        self.params = SystemParams(n=k, c=ell, i_min=2 * ell - k, a_min=k - ell + 1, load=ell / k)

    def _live_batch(self, alive: np.ndarray) -> np.ndarray:
        # Count each row's alive members in the smallest unsigned integer
        # that holds k: .sum() would widen every byte to int64.  At the Monte
        # Carlo chunk size (rows * k = 2^18), on C-ordered rows of 4 or 8
        # bytes, each 0 or 1, the popcount of the word they form is the
        # count: 23 against 94 us at k = 4, 13 against 114 us at k = 8.
        # Otherwise strided column adds beat einsum up to 7 columns (and the
        # word at k = 2: 63 against 214 us), tie at 8-10 and lose from 11 on.
        k = self.spec.k
        x = np.asarray(alive, dtype=bool).view(np.uint8)
        if k in (4, 8) and x.flags.c_contiguous:
            count = np.bitwise_count(x.view(np.uint32 if k == 4 else np.uint64)[:, 0])
        elif k > 8:
            count = np.einsum("ij->i", x, dtype=np.min_scalar_type(k))
        else:
            count = reduce(np.add, x.T)
        return count >= self.spec.ell

    def exact_route(self) -> tuple[str, Callable[[float], float]]:
        k, ell = self.spec.k, self.spec.ell
        return "closed_form", lambda p: threshold_g(k, ell, p).exact

    def _sample_quorums(self, gen: np.random.Generator, count: int) -> np.ndarray:
        k = self.spec.k
        return _member_matrix(_uniform_subsets(gen, count, k, self.spec.ell), k)

    def quorum_count(self) -> int:
        _checked_count_bits(self)
        return math.comb(self.spec.k, self.spec.ell)

    def _count_bits(self) -> float:
        return _comb_bits(self.spec.k, self.spec.ell)

    def iter_quorum_masks(self) -> Iterator[int]:
        for subset in combinations(range(self.spec.k), self.spec.ell):
            yield sum(1 << i for i in subset)


class _RowColumnHandle(QuorumSystemHandle):
    """Quorums are unions of g full rows and g full columns of a side x side
    grid; subclasses give g, the smallest intersection and the live predicate."""

    def __init__(self, spec: MGridSpec | MPathSpec, g: int, i_min: int):
        self.spec = spec
        self.g = g
        side = spec.side
        n = side * side
        c = 2 * g * side - g * g
        self.params = SystemParams(n=n, c=c, i_min=i_min, a_min=side - g + 1, load=c / n)

    def _sample_quorums(self, gen: np.random.Generator, count: int) -> np.ndarray:
        # Draw rows 2i and 2i+1 pick quorum i's rows, then its columns.
        side = self.spec.side
        lines = _member_matrix(_uniform_subsets(gen, 2 * count, side, self.g), side)
        rows, cols = lines[0::2, :, None], lines[1::2, None, :]
        return (rows | cols).reshape(count, side * side)

    def quorum_count(self) -> int:
        _checked_count_bits(self)
        return math.comb(self.spec.side, self.g) ** 2

    def _count_bits(self) -> float:
        return 2 * _comb_bits(self.spec.side, self.g)

    def iter_quorum_masks(self) -> Iterator[int]:
        side = self.spec.side
        rows = [((1 << side) - 1) << (i * side) for i in range(side)]
        first = sum(1 << (i * side) for i in range(side))
        col_unions = [sum(cj) for cj in combinations([first << j for j in range(side)], self.g)]
        for ri in combinations(rows, self.g):
            row_union = sum(ri)
            for col_union in col_unions:
                yield row_union | col_union


class MGridHandle(_RowColumnHandle):
    """The smallest pairwise intersection is 2g^2 - max(0, 2g - side)^2: two
    quorums with a rows and a' columns in common intersect in
    s(a+a') - aa' + 2(g-a)(g-a') cells, minimised at a = a' = max(0, 2g-side).
    """

    def __init__(self, spec: MGridSpec):
        g = spec.g
        t = max(0, 2 * g - spec.side)
        super().__init__(spec, g, i_min=2 * g * g - t * t)

    def _live_batch(self, alive: np.ndarray) -> np.ndarray:
        # Each grid row is a field of side bits, in one word per grid when
        # side^2 <= 64 and in row words otherwise, as paths lays them out.  A
        # row is full when its field is all ones, and the full columns are
        # the bits set in every field.  This takes 20 ms on 2^20 subsets of
        # MGrid(5,2) and 0.03 ms on a 256-row chunk of MGrid(32,15), where
        # strided ANDs of bool columns took 81 and 0.35 ms (2-vCPU Xeon).
        side, g = self.spec.side, self.g
        if side * side <= 64:
            words = pack_rows(alive)[:, 0]
            ones = (1 << side) - 1
            full_cols = np.full_like(words, ones)
            full_rows = np.zeros(len(words), dtype=np.uint8)
            for i in range(side):
                field = (words >> (i * side)) & ones
                full_cols &= field
                full_rows += field == ones
            full_cols = np.bitwise_count(full_cols)
        else:
            rows = pack_rows(alive.reshape(-1, side))
            rows = rows.reshape(len(alive), side, rows.shape[1])
            # Grid rows first, so both reductions run over the outer axis.
            rows = np.ascontiguousarray(rows.transpose(1, 0, 2))
            ones = pack_rows(np.ones((1, side), dtype=bool))
            full_rows = (rows == ones).all(axis=2).sum(axis=0)
            full_cols = np.bitwise_count(np.bitwise_and.reduce(rows, axis=0)).sum(axis=1)
        return (full_rows >= g) & (full_cols >= g)

    def exact_route(self) -> tuple[str, Callable[[float], float]]:
        side, b = self.spec.side, self.spec.b
        return "closed_form", lambda p: mgrid_fp_exact(side, b, p)

    def _family_bounds(self, p: float, p_prime: float | None) -> Iterator[tuple[str, float]]:
        yield "mgrid_fp_lower", mgrid_fp_lower(self.spec.side, p)


def fpp_lines(q: int) -> ExplicitQuorumSystem:
    """The finite projective plane of prime order q as an explicit system.

    Points are the projective classes of nonzero triples over the integers
    mod q, indexed by the lexicographic order of their canonical (first
    nonzero coordinate = 1) representatives.  Line a is {P : a . P = 0 mod q},
    one line per coefficient class; every line has q+1 points and two distinct
    lines meet in exactly one point.
    """
    FPPSpec(q)  # rejects a q that is not a prime integer
    points = np.array([(0, 0, 1)] + [(0, 1, z) for z in range(q)]
                      + [(1, y, z) for y in range(q) for z in range(q)])
    incidence = (points @ points.T) % q == 0
    return ExplicitQuorumSystem.from_masks(len(points), [bools_to_int(row) for row in incidence])


class FPPHandle(QuorumSystemHandle):
    """The lines of the projective plane of order q; every question is
    answered by the explicit plane, built once per handle."""

    def __init__(self, spec: FPPSpec):
        self.spec = spec
        q = spec.q
        n = q * q + q + 1
        self.params = SystemParams(n=n, c=q + 1, i_min=1, a_min=q + 1, load=(q + 1) / n)

    @cached_property
    def _plane(self) -> ExplicitQuorumSystem:
        return fpp_lines(self.spec.q)

    @cached_property
    def _lines(self) -> np.ndarray:
        """The plane's (n, n) incidence: row i is line i as a boolean vector."""
        return unpack_masks(self._plane.quorum_words, self.params.n)

    def _live_batch(self, alive: np.ndarray) -> np.ndarray:
        return self._plane.live_batch(alive)

    def _sample_quorums(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return self._lines[gen.integers(self.params.n, size=count)]

    def quorum_count(self) -> int:
        return self.params.n

    def _count_bits(self) -> float:
        return math.log2(self.params.n)

    def iter_quorum_masks(self) -> Iterator[int]:
        return iter(self._plane.quorum_masks())


class ComposedHandle(QuorumSystemHandle):
    """The composition of an outer system over disjoint copies of an inner one."""

    def __init__(self, spec: ComposedSpec):
        self.spec = spec
        self.outer = build(spec.outer)
        self.inner = build(spec.inner)
        self.params = compose_params(self.outer.params, self.inner.params)
        self.lists_every_quorum = self.outer.lists_every_quorum and self.inner.lists_every_quorum

    def _live_batch(self, alive: np.ndarray) -> np.ndarray:
        t = len(alive)
        n_s, n_r = self.outer.n, self.inner.n
        copies = alive.reshape(t * n_s, n_r)
        super_alive = self.inner.live_batch(copies).reshape(t, n_s)
        return self.outer.live_batch(super_alive)

    def exact_route(self) -> tuple[str, Callable[[float], float]]:
        # The composition theorem: F(p) = F_outer(F_inner(p)).  Both parts
        # resolve before either enumerates, so a refusal comes before any work.
        _, outer = self.outer.exact_route()
        _, inner = self.inner.exact_route()
        return "closed_form", lambda p: outer(inner(p))

    def _sample_quorums(self, gen: np.random.Generator, count: int) -> np.ndarray:
        # The outer batch, then one inner draw per outer member in nonzero's
        # order: by quorum, then by ascending member.
        quorum, member = np.nonzero(self.outer._sample_quorums(gen, count))
        out = np.zeros((count, self.outer.n, self.inner.n), dtype=bool)
        out[quorum, member] = self.inner._sample_quorums(gen, len(quorum))
        return out.reshape(count, self.params.n)

    def quorum_count(self) -> int:
        # Every quorum of every handle has exactly params.c members, so the
        # count is m_outer * m_inner^c.
        _checked_count_bits(self)
        return self.outer.quorum_count() * self.inner.quorum_count() ** self.outer.params.c

    def _count_bits(self) -> float:
        return self.outer._count_bits() + self.outer.params.c * self.inner._count_bits()

    def iter_quorum_masks(self) -> Iterator[int]:
        return iter_composed_masks(self.outer.iter_quorum_masks(),
                                   list(self.inner.iter_quorum_masks()), self.inner.n)


class BoostFPPHandle(ComposedHandle):
    """FPP(q) boosted by the (3b+1)-of-(4b+1) threshold block.

    Built as a composition so its parameters are bit-identical to the generic
    composed route.
    """

    def __init__(self, spec: BoostFPPSpec):
        super().__init__(ComposedSpec(FPPSpec(spec.q),
                                      ThresholdSpec(4 * spec.b + 1, 3 * spec.b + 1)))
        self.spec = spec

    def _family_bounds(self, p: float, p_prime: float | None) -> Iterator[tuple[str, float]]:
        bound = boostfpp_fp_upper(self.spec.q, self.spec.b, p)
        yield "boostfpp_fp_upper", bound.paper_form
        yield "boostfpp_fp_upper_chernoff", bound.chernoff_form


class RTHandle(ComposedHandle):
    """Depth-h recursion of the ell-of-k threshold over k^h leaves:
    RT(k, ell, h-1) composed over Threshold(k, ell), and at depth 1 the 1-of-1
    threshold over the block.  Nested to the left, the live predicate reaches
    the 1-of-1 block with one row per trial, not one per leaf."""

    def __init__(self, spec: RTSpec):
        k, ell = spec.k, spec.ell
        outer = RTSpec(k, ell, spec.h - 1) if spec.h > 1 else ThresholdSpec(1, 1)
        super().__init__(ComposedSpec(outer, ThresholdSpec(k, ell)))
        self.spec = spec

    def _family_bounds(self, p: float, p_prime: float | None) -> Iterator[tuple[str, float]]:
        k, ell = self.spec.k, self.spec.ell
        yield "rt_fp_upper", rt_fp_upper(k, ell, self.spec.h, p)
        yield "rt_critical_probability", rt_critical_probability(k, ell).value

    def _sample_quorums(self, gen: np.random.Generator, count: int) -> np.ndarray:
        # Level by level, each node (quorum by quorum) keeps a uniform
        # ell-subset of its k children; child c of node v is node v*k + c one
        # level down, and the last level holds the leaves.
        k, ell = self.spec.k, self.spec.ell
        nodes = np.zeros((count, 1), dtype=np.int64)
        for _ in range(self.spec.h):
            picks = _uniform_subsets(gen, nodes.size, k, ell)
            nodes = (nodes.reshape(-1, 1) * k + picks).reshape(count, nodes.shape[1] * ell)
        return _member_matrix(nodes, self.params.n)


class MPathHandle(_RowColumnHandle):
    """Quorums of r disjoint crossing paths per orientation on the triangulated grid.

    Analytic parameters report the straight-path quorum size 2*r*side - r^2 and
    the crossing-argument intersection bound r^2.  Sampling and materialization
    use straight rows/columns only: materialize lists only some quorums, and
    the straight-path strategy's load params.load only bounds the full
    system's load from above (MPath(3,0): 0.5556 against an LP load of 0.5).
    Liveness asks disjoint_path_counts for both orientations' path counts
    capped at r: one dual-crossing fill, on one word per grid when n <= 64 and
    on row words otherwise, at every r.  Like every family without a closed
    form, its exact route is enumeration, up to n = 25; enumerate_kills hands
    each chunk of masks to the fill as the grid words they already are, and
    at r = 1 fills only the 2^(n-1) sets whose last cell is dead, each fill
    answering for the set's complement too by the Hex theorem.
    """

    lists_every_quorum = False

    def __init__(self, spec: MPathSpec):
        super().__init__(spec, spec.r, i_min=spec.r * spec.r)

    def _live_batch(self, alive: np.ndarray) -> np.ndarray:
        return (disjoint_path_counts(self.spec.side, alive, self.g) >= self.g).all(axis=1)

    def enumerate_kills(self) -> Iterator[np.ndarray]:
        # Each chunk of masks is a chunk of alive grid words.  At r = 1 one
        # fill of A also decides its complement: by the Hex theorem the
        # complement crosses LR iff A does not cross TB, and TB iff A does not
        # cross LR, so it is live iff A crosses neither way.  A set A is
        # killed at crash size n - |A| (its tally by |A|, reversed), its
        # complement at |A|, and the sets whose last cell is dead cover all
        # 2^n with their complements.  No such identity holds at r >= 2, so
        # there every set is filled.
        n, r = self.n, self.g
        half = r == 1
        for alive in mask_chunks(n - 1 if half else n):
            counts = grid_word_path_counts(self.spec.side, alive, r)
            size = popcount(alive)
            yield np.bincount(size[~(counts >= r).all(axis=1)], minlength=n + 1)[::-1]
            if half:
                yield np.bincount(size[counts.any(axis=1)], minlength=n + 1)

    def _family_bounds(self, p: float, p_prime: float | None) -> Iterator[tuple[str, float]]:
        p_prime = (p + 1.0 / 3.0) / 2.0 if p_prime is None else p_prime
        yield "p_prime", p_prime
        yield "mpath_fp_upper", mpath_fp_upper(self.spec.side, self.spec.b, p, p_prime)


_HANDLE_BY_SPEC: dict[type, type[QuorumSystemHandle]] = {
    MGridSpec: MGridHandle,
    ThresholdSpec: ThresholdHandle,
    RTSpec: RTHandle,
    FPPSpec: FPPHandle,
    BoostFPPSpec: BoostFPPHandle,
    MPathSpec: MPathHandle,
    ComposedSpec: ComposedHandle,
}


def build(spec: ConstructionSpec) -> QuorumSystemHandle:
    """Build a handle for any construction spec.  A universe past a double's
    range is refused: the bounds raise doubles to powers up to n."""
    handle_class = _HANDLE_BY_SPEC.get(type(spec))
    if handle_class is None:
        raise ParameterError(f"unknown construction spec {spec!r}")
    handle = handle_class(spec)
    if handle.n > sys.float_info.max:
        raise SizeError(f"{spec} has a universe of about 10^{math.log10(handle.n):.0f} "
                        "servers, past a double's range")
    return handle
