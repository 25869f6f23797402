"""Builders for the masking quorum-system families.

Each builder returns a QuorumSystemHandle exposing closed-form combinatorial
parameters, a live-quorum predicate, a load-optimal quorum sampler, and (for
small instances) materialization to an ExplicitQuorumSystem.

Canonical element numbering: grid cell (i, j) -> i*side + j (0-based);
recursive-threshold leaves are numbered left to right; in a composition the
i-th inner copy occupies the index block [i*n_inner, (i+1)*n_inner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Union

import numpy as np

from ._bitops import bools_to_int, ceil_sqrt, iter_bits, pack_rows
from .composition import compose_params, iter_composed_masks
from .core import ElementSet, ExplicitQuorumSystem, Rng, SystemParams
from .errors import ParameterError, SizeError, UnsupportedOrderError
from .paths import LR, TB, connected_batch, disjoint_path_counts

__all__ = [
    "MGridSpec", "ThresholdSpec", "RTSpec", "FPPSpec", "BoostFPPSpec",
    "MPathSpec", "ComposedSpec", "ConstructionSpec",
    "QuorumSystemHandle", "build", "fpp_lines",
    "spec_to_json", "spec_from_json",
]


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


def _require_prime(q: int) -> None:
    if not isinstance(q, int) or isinstance(q, bool):
        raise ParameterError(f"projective-plane order must be an integer, got {q!r}")
    if not _is_prime(q):
        raise UnsupportedOrderError(
            f"projective-plane order {q} is not prime; only prime orders are supported")


# ---------------------------------------------------------------------------
# Construction specs (a tagged union with a canonical JSON encoding)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MGridSpec:
    """Union-of-rows-and-columns quorums on a side x side grid, masking b faults."""

    side: int
    b: int

    def __post_init__(self) -> None:
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
        if self.k == 1 and self.ell == 1:
            return
        if not (self.k > self.ell > self.k / 2):
            raise ParameterError(
                f"threshold requires k > ell > k/2, got k={self.k}, ell={self.ell}")


@dataclass(frozen=True)
class RTSpec:
    """The ell-of-k threshold recursively composed over itself to depth h."""

    k: int
    ell: int
    h: int

    def __post_init__(self) -> None:
        if not (self.k > self.ell > self.k / 2):
            raise ParameterError(
                f"recursive threshold requires k > ell > k/2, got k={self.k}, ell={self.ell}")
        if self.h < 1:
            raise ParameterError(f"recursive threshold needs depth h >= 1, got {self.h}")


@dataclass(frozen=True)
class FPPSpec:
    """Finite projective plane of prime order q (lines as quorums)."""

    q: int

    def __post_init__(self) -> None:
        _require_prime(self.q)


@dataclass(frozen=True)
class BoostFPPSpec:
    """FPP(q) composed over the (3b+1)-of-(4b+1) threshold block."""

    q: int
    b: int

    def __post_init__(self) -> None:
        _require_prime(self.q)
        if self.b < 0:
            raise ParameterError(f"BoostFPP needs b >= 0, got {self.b}")


@dataclass(frozen=True)
class MPathSpec:
    """Disjoint crossing paths on the triangulated side x side grid."""

    side: int
    b: int

    def __post_init__(self) -> None:
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
            return ComposedSpec(outer=spec_from_json(fields["outer"]),
                                inner=spec_from_json(fields["inner"]))
        return cls(**fields)
    except KeyError as exc:
        raise ParameterError(f"missing field {exc} for {tag!r}") from exc
    except TypeError as exc:
        raise ParameterError(f"bad fields for {tag!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------

class QuorumSystemHandle:
    """An implicitly represented quorum system with analytic parameters."""

    spec: ConstructionSpec
    params: SystemParams

    @property
    def n(self) -> int:
        return self.params.n

    def live(self, alive: ElementSet) -> bool:
        """True iff the alive set contains at least one complete quorum."""
        if alive.n != self.params.n:
            raise ParameterError(
                f"alive set has universe {alive.n}, construction has {self.params.n}")
        return bool(self.live_batch(alive.as_bool()[None, :])[0])

    def live_batch(self, alive: np.ndarray) -> np.ndarray:
        """Vectorised live predicate on a (T, n) boolean matrix."""
        raise NotImplementedError

    def sample_quorum(self, rng: Rng | np.random.Generator) -> ElementSet:
        """Draw a quorum from the construction's load-optimal access strategy."""
        gen = rng.generator() if isinstance(rng, Rng) else rng
        return ElementSet(self.params.n, self._sample_mask(gen))

    def _sample_mask(self, gen: np.random.Generator) -> int:
        raise NotImplementedError

    def quorum_count(self) -> int:
        """Total number of quorums the construction defines."""
        raise NotImplementedError

    def iter_quorum_masks(self) -> Iterator[int]:
        raise NotImplementedError

    def materialize(self, max_quorums: int) -> ExplicitQuorumSystem:
        """Enumerate every quorum explicitly (straight-path quorums for MPath)."""
        count = self.quorum_count()
        if count > max_quorums:
            raise SizeError(
                f"construction has {count} quorums, exceeding the cap of {max_quorums}")
        masks = dict.fromkeys(self.iter_quorum_masks())
        return ExplicitQuorumSystem.from_masks(self.params.n, masks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


class ThresholdHandle(QuorumSystemHandle):
    def __init__(self, spec: ThresholdSpec):
        self.spec = spec
        k, ell = spec.k, spec.ell
        self.params = SystemParams.derive(
            n=k, c=ell, i_min=2 * ell - k, a_min=k - ell + 1, load=ell / k)

    def live_batch(self, alive: np.ndarray) -> np.ndarray:
        return alive.sum(axis=1, dtype=np.min_scalar_type(self.spec.k)) >= self.spec.ell

    def _sample_mask(self, gen: np.random.Generator) -> int:
        picks = gen.choice(self.spec.k, self.spec.ell, replace=False)
        return sum(1 << int(i) for i in picks)

    def quorum_count(self) -> int:
        return math.comb(self.spec.k, self.spec.ell)

    def iter_quorum_masks(self) -> Iterator[int]:
        for subset in combinations(range(self.spec.k), self.spec.ell):
            yield sum(1 << i for i in subset)


@lru_cache(maxsize=16)
def _row_masks(side: int) -> tuple[int, ...]:
    return tuple(((1 << side) - 1) << (i * side) for i in range(side))


@lru_cache(maxsize=16)
def _col_masks(side: int) -> tuple[int, ...]:
    first = sum(1 << (i * side) for i in range(side))
    return tuple(first << j for j in range(side))


def _iter_row_col_unions(side: int, g: int) -> Iterator[int]:
    rows, cols = _row_masks(side), _col_masks(side)
    for ri in combinations(range(side), g):
        rmask = 0
        for i in ri:
            rmask |= rows[i]
        for cj in combinations(range(side), g):
            mask = rmask
            for j in cj:
                mask |= cols[j]
            yield mask


def _sample_row_col_union(side: int, g: int, gen: np.random.Generator) -> int:
    rows, cols = _row_masks(side), _col_masks(side)
    mask = 0
    for i in gen.choice(side, g, replace=False):
        mask |= rows[int(i)]
    for j in gen.choice(side, g, replace=False):
        mask |= cols[int(j)]
    return mask


class MGridHandle(QuorumSystemHandle):
    """Quorums are unions of g full rows and g full columns of the grid.

    The smallest pairwise intersection is 2g^2 - max(0, 2g - side)^2: two
    quorums with a rows and a' columns in common intersect in
    s(a+a') - aa' + 2(g-a)(g-a') cells, minimised at a = a' = max(0, 2g-side).
    """

    def __init__(self, spec: MGridSpec):
        self.spec = spec
        side, g = spec.side, spec.g
        n = side * side
        c = 2 * g * side - g * g
        t = max(0, 2 * g - side)
        self.params = SystemParams.derive(
            n=n, c=c, i_min=2 * g * g - t * t, a_min=side - g + 1, load=c / n)

    def live_batch(self, alive: np.ndarray) -> np.ndarray:
        side, g = self.spec.side, self.spec.g
        grid = alive.reshape(len(alive), side, side)
        full_rows = grid.all(axis=2).sum(axis=1)
        full_cols = grid.all(axis=1).sum(axis=1)
        return (full_rows >= g) & (full_cols >= g)

    def _sample_mask(self, gen: np.random.Generator) -> int:
        return _sample_row_col_union(self.spec.side, self.spec.g, gen)

    def quorum_count(self) -> int:
        return math.comb(self.spec.side, self.spec.g) ** 2

    def iter_quorum_masks(self) -> Iterator[int]:
        return _iter_row_col_unions(self.spec.side, self.spec.g)


class RTHandle(QuorumSystemHandle):
    """Depth-h recursion of the ell-of-k threshold over k^h leaves."""

    def __init__(self, spec: RTSpec):
        self.spec = spec
        k, ell, h = spec.k, spec.ell, spec.h
        self.params = SystemParams.derive(
            n=k ** h, c=ell ** h, i_min=(2 * ell - k) ** h,
            a_min=(k - ell + 1) ** h, load=(ell / k) ** h)

    def live_batch(self, alive: np.ndarray) -> np.ndarray:
        # Count the alive children of each node by adding the k child slices
        # as small unsigned integers: .sum() would widen every byte to int64.
        k, ell = self.spec.k, self.spec.ell
        count_type = np.min_scalar_type(k)
        x = np.asarray(alive, dtype=bool).view(np.uint8)
        for _ in range(self.spec.h):
            children = x.reshape(len(alive), -1, k)
            count = np.add(children[:, :, 0], children[:, :, 1], dtype=count_type)
            for c in range(2, k):
                count += children[:, :, c]
            x = (count >= ell).view(np.uint8)
        return x[:, 0].view(bool)

    def _sample_mask(self, gen: np.random.Generator) -> int:
        # Level by level, each node keeps a uniform ell-subset of its k
        # children (the first ell of a random permutation); child c of node v
        # is node v*k + c one level down, and the last level holds the leaves.
        k, ell = self.spec.k, self.spec.ell
        nodes = np.zeros(1, dtype=np.int64)
        for _ in range(self.spec.h):
            picks = gen.random((len(nodes), k)).argsort(axis=1)[:, :ell]
            nodes = (nodes[:, None] * k + picks).ravel()
        leaves = np.zeros(self.params.n, dtype=bool)
        leaves[nodes] = True
        return bools_to_int(leaves)

    def quorum_count(self) -> int:
        k, ell = self.spec.k, self.spec.ell
        count = 1
        for _ in range(self.spec.h):
            count = math.comb(k, ell) * count ** ell
        return count

    def iter_quorum_masks(self) -> Iterator[int]:
        # Depth d + 1 is the ell-of-k threshold composed over depth d (k^d leaves).
        block = ThresholdHandle(ThresholdSpec(self.spec.k, self.spec.ell))
        masks = [1]
        for depth in range(self.spec.h):
            masks = list(iter_composed_masks(block.iter_quorum_masks(), masks,
                                             self.spec.k ** depth))
        return iter(masks)


def fpp_lines(q: int) -> ExplicitQuorumSystem:
    """The finite projective plane of prime order q as an explicit system.

    Points are the projective classes of nonzero triples over the integers
    mod q, indexed by the lexicographic order of their canonical (first
    nonzero coordinate = 1) representatives.  Line a is {P : a . P = 0 mod q},
    one line per coefficient class; every line has q+1 points and two distinct
    lines meet in exactly one point.
    """
    _require_prime(q)
    points: list[tuple[int, int, int]] = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                nonzero = [x for x in (a, b, c) if x != 0]
                if nonzero and nonzero[0] == 1:
                    points.append((a, b, c))
    assert len(points) == q * q + q + 1
    masks = []
    for coeff in points:
        mask = 0
        for idx, pt in enumerate(points):
            if (coeff[0] * pt[0] + coeff[1] * pt[1] + coeff[2] * pt[2]) % q == 0:
                mask |= 1 << idx
        masks.append(mask)
    return ExplicitQuorumSystem.from_masks(len(points), masks)


class FPPHandle(QuorumSystemHandle):
    def __init__(self, spec: FPPSpec):
        self.spec = spec
        q = spec.q
        n = q * q + q + 1
        self.params = SystemParams.derive(n=n, c=q + 1, i_min=1, a_min=q + 1, load=(q + 1) / n)
        self._lines: list[int] | None = None
        self._points: np.ndarray | None = None

    def _line_masks(self) -> list[int]:
        if self._lines is None:
            self._lines = fpp_lines(self.spec.q).quorum_masks()
        return self._lines

    def live_batch(self, alive: np.ndarray) -> np.ndarray:
        if self._points is None:  # the q+1 points of each line, one row per line
            self._points = np.array([list(iter_bits(m)) for m in self._line_masks()])
        return alive[:, self._points].all(axis=2).any(axis=1)

    def _sample_mask(self, gen: np.random.Generator) -> int:
        lines = self._line_masks()
        return lines[int(gen.integers(len(lines)))]

    def quorum_count(self) -> int:
        return self.params.n

    def iter_quorum_masks(self) -> Iterator[int]:
        return iter(self._line_masks())


class ComposedHandle(QuorumSystemHandle):
    """The composition of an outer system over disjoint copies of an inner one."""

    def __init__(self, outer: QuorumSystemHandle, inner: QuorumSystemHandle,
                 spec: ConstructionSpec | None = None):
        self.outer = outer
        self.inner = inner
        self.spec = spec if spec is not None else ComposedSpec(outer.spec, inner.spec)
        self.params = compose_params(outer.params, inner.params)

    def live_batch(self, alive: np.ndarray) -> np.ndarray:
        t = len(alive)
        n_s, n_r = self.outer.n, self.inner.n
        copies = alive.reshape(t * n_s, n_r)
        super_alive = self.inner.live_batch(copies).reshape(t, n_s)
        return self.outer.live_batch(super_alive)

    def _sample_mask(self, gen: np.random.Generator) -> int:
        n_r = self.inner.n
        mask = 0
        for i in iter_bits(self.outer._sample_mask(gen)):
            mask |= self.inner._sample_mask(gen) << (i * n_r)
        return mask

    def quorum_count(self) -> int:
        # Every quorum of every handle has exactly params.c members.
        return self.outer.quorum_count() * self.inner.quorum_count() ** self.outer.params.c

    def iter_quorum_masks(self) -> Iterator[int]:
        return iter_composed_masks(self.outer.iter_quorum_masks(),
                                   list(self.inner.iter_quorum_masks()), self.inner.n)


class BoostFPPHandle(ComposedHandle):
    """FPP(q) boosted by the (3b+1)-of-(4b+1) threshold block.

    Built as a composition so its parameters are bit-identical to the generic
    composed route.
    """

    def __init__(self, spec: BoostFPPSpec):
        super().__init__(
            FPPHandle(FPPSpec(spec.q)),
            ThresholdHandle(ThresholdSpec(4 * spec.b + 1, 3 * spec.b + 1)),
            spec=spec,
        )


class MPathHandle(QuorumSystemHandle):
    """Quorums of r disjoint crossing paths per orientation on the triangulated grid.

    Analytic parameters report the straight-path quorum size 2*r*side - r^2 and
    the crossing-argument intersection bound r^2.  Sampling and materialization
    use straight rows/columns only.  Liveness uses the packed flood fill when
    r = 1 and n <= 64, and otherwise the batched max-flow path count capped
    at r.
    """

    def __init__(self, spec: MPathSpec):
        self.spec = spec
        side, r = spec.side, spec.r
        n = side * side
        c = 2 * r * side - r * r
        self.params = SystemParams.derive(
            n=n, c=c, i_min=r * r, a_min=side - r + 1, load=c / n)

    def live_batch(self, alive: np.ndarray) -> np.ndarray:
        side, r = self.spec.side, self.spec.r
        if r == 1 and self.params.n <= 64:
            masks = pack_rows(alive)[:, 0]
            return connected_batch(masks, side, LR) & connected_batch(masks, side, TB)
        return (disjoint_path_counts(side, alive, r) >= r).all(axis=1)

    def _sample_mask(self, gen: np.random.Generator) -> int:
        return _sample_row_col_union(self.spec.side, self.spec.r, gen)

    def quorum_count(self) -> int:
        return math.comb(self.spec.side, self.spec.r) ** 2

    def iter_quorum_masks(self) -> Iterator[int]:
        return _iter_row_col_unions(self.spec.side, self.spec.r)


def build(spec: ConstructionSpec) -> QuorumSystemHandle:
    """Build a handle for any construction spec."""
    if isinstance(spec, MGridSpec):
        return MGridHandle(spec)
    if isinstance(spec, ThresholdSpec):
        return ThresholdHandle(spec)
    if isinstance(spec, RTSpec):
        return RTHandle(spec)
    if isinstance(spec, FPPSpec):
        return FPPHandle(spec)
    if isinstance(spec, BoostFPPSpec):
        return BoostFPPHandle(spec)
    if isinstance(spec, MPathSpec):
        return MPathHandle(spec)
    if isinstance(spec, ComposedSpec):
        return ComposedHandle(build(spec.outer), build(spec.inner), spec)
    raise ParameterError(f"unknown construction spec {spec!r}")
