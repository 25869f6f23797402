"""Quorum-system composition: replace each outer element by an inner copy.

All five combinatorial measures multiply under composition, the crash
probability composes functionally (F(p) of the whole = outer-F applied to
inner-F(p)), and the load multiplies.  compose_explicit is the enumeration
oracle; compose_params is the parameter algebra.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from ._bitops import iter_bits
from .core import ExplicitQuorumSystem, SystemParams
from .errors import SizeError

__all__ = ["compose_explicit", "compose_params", "iter_composed_masks"]

DEFAULT_COMPOSE_CAP = 10 ** 6


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
    """Parameter algebra of composition: n, c, i_min, a_min, and load multiply.

    The masking level b and resilience f are re-derived from the composed
    intersection and transversal sizes.
    """
    return SystemParams.derive(
        n=outer.n * inner.n,
        c=outer.c * inner.c,
        i_min=outer.i_min * inner.i_min,
        a_min=outer.a_min * inner.a_min,
        load=outer.load * inner.load,
    )
