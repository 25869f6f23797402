"""Builders for the masking quorum-system families.

Each builder returns a QuorumSystemHandle exposing closed-form combinatorial
parameters, a live-quorum predicate, a batched quorum sampler (load-optimal
but for MPath's; see MPathHandle), and (for small instances) materialization
to an ExplicitQuorumSystem.  MGrid and MPath share one row/column handle,
FPP answers from its explicit plane, and BoostFPP and RT are compositions:
RT(k, ell, h) is Threshold(k, ell) composed over RT(k, ell, h-1), ending in
the 1-of-1 block at h = 1, and keeps only its own sampler and bounds.  MPath
materializes only its straight-path quorums, so it and every composition
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
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from typing import Callable, Iterator, Union

import numpy as np

from ._bitops import bools_to_int, ceil_sqrt, popcount, unpack_masks
from .composition import compose_params, iter_composed_masks
from .core import ElementSet, ExplicitQuorumSystem, Rng, SystemParams
from .errors import ApplicabilityError, ParameterError, SizeError, UnsupportedOrderError
from .paths import disjoint_path_counts, grid_word_path_counts

__all__ = [
    "MGridSpec", "ThresholdSpec", "RTSpec", "FPPSpec", "BoostFPPSpec",
    "MPathSpec", "ComposedSpec", "ConstructionSpec",
    "QuorumSystemHandle", "build", "fpp_lines",
    "spec_to_json", "spec_from_json",
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


def _uniform_subsets(gen: np.random.Generator, rows: int, k: int, ell: int) -> np.ndarray:
    """(rows, ell) indices, each row a uniform ell-subset of range(k): the
    first ell entries of the argsort of its row of one gen.random call."""
    return gen.random((rows, k)).argsort(axis=1)[:, :ell]


def _member_matrix(picks: np.ndarray, width: int) -> np.ndarray:
    """The (len(picks), width) boolean matrix whose row t has members picks[t]."""
    out = np.zeros((len(picks), width), dtype=bool)
    out[np.arange(len(picks))[:, None], picks] = True
    return out


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
        _require_int_fields(self)
        if not (self.k > self.ell > self.k / 2):
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

    # The closed forms and bounds live in availability, which imports this
    # module, so the methods import them when called.
    def exact_route(self) -> tuple[str, Callable[[float], float]]:
        """(route, F): the exact crash probability F(p) and its route's name.

        Enumeration by default, refused with SizeError past n = 25 before
        anything is enumerated; a family with a closed form overrides it."""
        from .availability import enumeration_route
        return enumeration_route(self)

    def enumerate_kills(self) -> Iterator[np.ndarray]:
        """Kill counts by crash size (entry d counts the crash sets of size d
        that kill the system), a chunk of the 2^n at a time:
        availability.live_batch_kills unless a family enumerates faster."""
        from .availability import live_batch_kills
        return live_batch_kills(self)

    def published_bounds(self, p: float, p_prime: float | None = None) -> dict:
        """Every published crash-probability bound at p, by name: p_mt, p_c2f
        and p_f (None where its condition fails), then the family's own.  A
        family bound whose precondition fails leaves its reason under
        "inapplicable"; entries before it stay.  p_prime is the reference
        probability of MPath's bound, by default midway between p and 1/3."""
        from .availability import fp_lower_bounds
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
        # Carlo chunk size (rows * k = 2^18) strided column adds beat einsum
        # up to 7 columns, tie at 8-10 and lose from 11 on.
        k = self.spec.k
        x = np.asarray(alive, dtype=bool).view(np.uint8)
        count = np.einsum("ij->i", x, dtype=np.min_scalar_type(k)) if k > 8 else reduce(np.add, x.T)
        return count >= self.spec.ell

    def exact_route(self) -> tuple[str, Callable[[float], float]]:
        from .availability import threshold_g
        k, ell = self.spec.k, self.spec.ell
        return "closed_form", lambda p: threshold_g(k, ell, p).exact

    def _sample_quorums(self, gen: np.random.Generator, count: int) -> np.ndarray:
        k = self.spec.k
        return _member_matrix(_uniform_subsets(gen, count, k, self.spec.ell), k)

    def quorum_count(self) -> int:
        return math.comb(self.spec.k, self.spec.ell)

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
        self._rows = [((1 << side) - 1) << (i * side) for i in range(side)]
        first = sum(1 << (i * side) for i in range(side))
        self._cols = [first << j for j in range(side)]

    def _sample_quorums(self, gen: np.random.Generator, count: int) -> np.ndarray:
        # Draw rows 2i and 2i+1 pick quorum i's rows, then its columns.
        side = self.spec.side
        lines = _member_matrix(_uniform_subsets(gen, 2 * count, side, self.g), side)
        rows, cols = lines[0::2, :, None], lines[1::2, None, :]
        return (rows | cols).reshape(count, side * side)

    def quorum_count(self) -> int:
        return math.comb(self.spec.side, self.g) ** 2

    def iter_quorum_masks(self) -> Iterator[int]:
        col_unions = [sum(cj) for cj in combinations(self._cols, self.g)]
        for ri in combinations(self._rows, self.g):
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
        side, g = self.spec.side, self.g
        # Strided ANDs beat all(axis=...) on the short axes: 116 against
        # 301 ms on 2^20 subsets of MGrid(5,2) (2-vCPU Xeon).
        grid = alive.reshape(len(alive), side, side)
        full_rows = reduce(np.logical_and, (grid[:, :, j] for j in range(side)))
        full_cols = reduce(np.logical_and, (grid[:, i, :] for i in range(side)))
        return (full_rows.sum(axis=1) >= g) & (full_cols.sum(axis=1) >= g)

    def exact_route(self) -> tuple[str, Callable[[float], float]]:
        from .availability import mgrid_fp_exact
        side, b = self.spec.side, self.spec.b
        return "closed_form", lambda p: mgrid_fp_exact(side, b, p)

    def _family_bounds(self, p: float, p_prime: float | None) -> Iterator[tuple[str, float]]:
        from .availability import mgrid_fp_lower
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
        super().__init__(ComposedSpec(FPPSpec(spec.q),
                                      ThresholdSpec(4 * spec.b + 1, 3 * spec.b + 1)))
        self.spec = spec

    def _family_bounds(self, p: float, p_prime: float | None) -> Iterator[tuple[str, float]]:
        from .availability import boostfpp_fp_upper
        bound = boostfpp_fp_upper(self.spec.q, self.spec.b, p)
        yield "boostfpp_fp_upper", bound.paper_form
        yield "boostfpp_fp_upper_chernoff", bound.chernoff_form


class RTHandle(ComposedHandle):
    """Depth-h recursion of the ell-of-k threshold over k^h leaves:
    Threshold(k, ell) composed over RT(k, ell, h-1), where depth 1 composes
    the block over single elements (the 1-of-1 threshold)."""

    def __init__(self, spec: RTSpec):
        k, ell = spec.k, spec.ell
        inner = RTSpec(k, ell, spec.h - 1) if spec.h > 1 else ThresholdSpec(1, 1)
        super().__init__(ComposedSpec(ThresholdSpec(k, ell), inner))
        self.spec = spec

    def _family_bounds(self, p: float, p_prime: float | None) -> Iterator[tuple[str, float]]:
        from .availability import rt_critical_probability, rt_fp_upper
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
        from .availability import mask_chunks
        n, r = self.n, self.g
        half = r == 1
        for alive in mask_chunks(n - 1 if half else n):
            counts = grid_word_path_counts(self.spec.side, alive, r)
            size = popcount(alive)
            yield np.bincount(size[~(counts >= r).all(axis=1)], minlength=n + 1)[::-1]
            if half:
                yield np.bincount(size[counts.any(axis=1)], minlength=n + 1)

    def _family_bounds(self, p: float, p_prime: float | None) -> Iterator[tuple[str, float]]:
        from .availability import mpath_fp_upper
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
    """Build a handle for any construction spec."""
    handle_class = _HANDLE_BY_SPEC.get(type(spec))
    if handle_class is None:
        raise ParameterError(f"unknown construction spec {spec!r}")
    return handle_class(spec)
