"""The explicit system on integer masks and packed words: its two
constructors, the smallest-intersection kernel, the live OR and the
composition order, each against a plain reference."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import maskquorum as mq
from maskquorum import ElementSet, ExplicitQuorumSystem, availability, build, constructions
from maskquorum._bitops import iter_bits, pack_ints, pack_rows, smallest_intersection, unpack_masks
from maskquorum.constructions import iter_composed_masks
from maskquorum.errors import ParameterError


@st.composite
def word_matrices(draw):
    """(n, masks): up to 40 masks, zero and repeats allowed, at the word edges
    of pack_rows; half are sparse, so that intersection sizes repeat."""
    n = draw(st.sampled_from([1, 2, 5, 12, 32, 33, 64, 65, 130]))
    dense = st.integers(0, (1 << n) - 1)
    sparse = st.sets(st.integers(0, n - 1), max_size=4).map(lambda bits: sum(1 << b for b in bits))
    masks = draw(st.lists(st.one_of(dense, sparse), min_size=1, max_size=40))
    return n, masks


def brute_smallest_pair(masks):
    best = None
    for i, j in itertools.combinations(range(len(masks)), 2):
        size = (masks[i] & masks[j]).bit_count()
        if best is None or size < best[0]:
            best = (size, i, j)
    return best


class TestSmallestIntersection:
    @given(word_matrices())
    def test_matches_double_loop(self, case):
        n, masks = case
        assert smallest_intersection(pack_ints(masks, n)) == brute_smallest_pair(masks)

    @pytest.mark.parametrize("n, masks, want", [
        (4, [0b1111], None),
        (4, [0b0011, 0b0110], (1, 0, 1)),
        # Every pair meets in one element: the first pair wins.
        (3, [0b011, 0b110, 0b101], (1, 0, 1)),
        # Sizes 2, 1, 1: the first pair of size 1 in (i, j) order.
        (5, [0b00111, 0b01011, 0b11100], (1, 0, 2)),
    ])
    def test_small_cases(self, n, masks, want):
        assert smallest_intersection(pack_ints(masks, n)) == want

    @pytest.mark.parametrize("n, m", [(12, 700), (130, 300)])
    def test_many_blocks(self, n, m):
        # Blocks of about 90 and 70 rows, so the pair may sit in any of them.
        rng = np.random.default_rng(n)
        masks = [int.from_bytes(rng.bytes(-(-n // 8)), "little") & ((1 << n) - 1)
                 for _ in range(m)]
        assert smallest_intersection(pack_ints(masks, n)) == brute_smallest_pair(masks)


# Each invalid input through both constructors, with the message it raises.
INVALID = {
    "empty list": (lambda: ExplicitQuorumSystem(3, ()),
                   lambda: ExplicitQuorumSystem.from_masks(3, []), "empty quorum system"),
    "empty quorum": (lambda: ExplicitQuorumSystem(3, (ElementSet(3, 0b011), ElementSet(3, 0))),
                     lambda: ExplicitQuorumSystem.from_masks(3, [0b011, 0]),
                     "quorum 1 is empty"),
    "duplicate": (lambda: ExplicitQuorumSystem(3, [ElementSet(3, m) for m in (1, 2, 4, 2)]),
                  lambda: ExplicitQuorumSystem.from_masks(3, [1, 2, 4, 2]),
                  "duplicate quorum at index 3"),
    "duplicate, then empty": (
        lambda: ExplicitQuorumSystem(3, [ElementSet(3, m) for m in (1, 2, 4, 2, 0)]),
        lambda: ExplicitQuorumSystem.from_masks(3, [1, 2, 4, 2, 0]),
        "duplicate quorum at index 3"),
    "out of universe": (lambda: ExplicitQuorumSystem(3, (ElementSet(3, 0b1000),)),
                        lambda: ExplicitQuorumSystem.from_masks(3, [0b011, 0b1000]),
                        "bitmap has members outside the universe"),
    "negative mask": (lambda: ExplicitQuorumSystem(3, (ElementSet(3, -1),)),
                      lambda: ExplicitQuorumSystem.from_masks(3, [0b011, -1]),
                      "bitmap has members outside the universe"),
    "n < 1": (lambda: ExplicitQuorumSystem(0, (ElementSet(0, 1),)),
              lambda: ExplicitQuorumSystem.from_masks(0, [1]), "universe size must be >= 1, got 0"),
}


class TestConstructors:
    @pytest.mark.parametrize("by_sets, by_masks, message", INVALID.values(), ids=INVALID.keys())
    def test_same_message(self, by_sets, by_masks, message):
        for build_system in (by_sets, by_masks):
            with pytest.raises(ParameterError) as info:
                build_system()
            assert str(info.value) == message

    @given(st.integers(1, 70).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.integers(1, (1 << n) - 1), min_size=1, max_size=30, unique=True))))
    def test_both_routes_agree(self, case):
        n, masks = case
        sets = tuple(ElementSet(n, m) for m in masks)
        by_masks = ExplicitQuorumSystem.from_masks(n, masks)
        by_sets = ExplicitQuorumSystem(n, sets)
        assert by_masks.quorums == sets
        assert by_sets.quorums is sets
        assert by_masks == by_sets and hash(by_masks) == hash(by_sets)
        assert by_masks.m == len(masks) and by_masks.quorum_masks() == masks
        np.testing.assert_array_equal(by_masks.quorum_words, by_sets.quorum_words)
        assert repr(by_masks) == repr(by_sets)
        if len(masks) > 1:
            assert by_masks != ExplicitQuorumSystem.from_masks(n, masks[::-1])

    def test_immutable(self):
        system = ExplicitQuorumSystem.from_masks(3, [0b011, 0b110])
        with pytest.raises(AttributeError):
            system.n = 4
        assert system.n == 3


def row_loop_live(system, alive):
    """The live predicate as one pass over the rows per quorum."""
    words = pack_rows(alive)
    live = np.zeros(len(alive), dtype=bool)
    for q in system.quorum_words:
        live |= ((words & q) == q).all(axis=1)
    return live


class TestLiveOr:
    @pytest.mark.parametrize("spec", [mq.BoostFPPSpec(2, 1), mq.MGridSpec(5, 2),
                                      mq.FPPSpec(3), mq.MGridSpec(6, 1), mq.MGridSpec(9, 1)])
    def test_200_rows(self, spec):
        # One word (n <= 32), one uint64 (n = 36) and two (n = 81).
        system = build(spec).materialize(10 ** 4)
        rng = np.random.default_rng(system.n)
        alive = rng.random((200, system.n)) >= np.linspace(0.0, 0.6, 200)[:, None]
        got = system.live_batch(alive)
        assert got.any() and not got.all()
        np.testing.assert_array_equal(got, row_loop_live(system, alive))

    def test_enumeration_chunk(self):
        # 2^20 rows: one quorum per block, read as words and as bool rows.
        n = 22
        rng = np.random.default_rng(7)
        system = ExplicitQuorumSystem.from_masks(n, sorted({
            int(sum(1 << int(b) for b in rng.choice(n, 6, replace=False))) for _ in range(12)}))
        masks = rng.integers(0, 1 << n, size=1 << 20, dtype=np.uint32)
        alive = unpack_masks(masks, n)
        want = row_loop_live(system, alive)
        assert want.any() and not want.all()
        np.testing.assert_array_equal(system.live_batch(alive), want)
        np.testing.assert_array_equal(system._live_words(masks[:, None]), want)

    @pytest.mark.parametrize("spec", [mq.MGridSpec(4, 1), mq.FPPSpec(3), mq.RTSpec(3, 2, 2)])
    def test_word_enumeration_matches_bool_rows(self, spec):
        system = build(spec).materialize(10 ** 4)
        words = sum(system.enumerate_kills())
        np.testing.assert_array_equal(words, sum(availability.live_batch_kills(system)))
        np.testing.assert_array_equal(words, availability.crash_profile(build(spec)))


def product_composed_masks(outer_masks, inner_masks, n_inner):
    """Composed masks, one union per itertools.product tuple."""
    for s in outer_masks:
        members = list(iter_bits(s))
        for choice in itertools.product(inner_masks, repeat=len(members)):
            yield sum(q << (i * n_inner) for i, q in zip(members, choice))


class TestComposedOrder:
    def test_boostfpp(self):
        handle = build(mq.BoostFPPSpec(2, 1))
        outer = list(handle.outer.iter_quorum_masks())
        inner = list(handle.inner.iter_quorum_masks())
        got = list(iter_composed_masks(outer, inner, handle.inner.n))
        assert len(got) == 875
        assert got == list(product_composed_masks(outer, inner, handle.inner.n))

    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    def test_matches_product_order(self, n_outer, n_inner, data):
        outer = data.draw(st.lists(st.integers(1, (1 << n_outer) - 1), min_size=1, max_size=5))
        inner = data.draw(st.lists(st.integers(1, (1 << n_inner) - 1), min_size=1, max_size=4))
        assert (list(iter_composed_masks(outer, inner, n_inner))
                == list(product_composed_masks(outer, inner, n_inner)))

    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    def test_lazy_members_keep_product_order(self, n_outer, n_inner, data):
        # With a list of at most four unions, most members are chosen lazily.
        outer = data.draw(st.lists(st.integers(1, (1 << n_outer) - 1), min_size=1, max_size=5))
        inner = data.draw(st.lists(st.integers(1, (1 << n_inner) - 1), min_size=1, max_size=4))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(constructions, "UNIONS_MAX", 4)
            got = list(iter_composed_masks(outer, inner, n_inner))
        assert got == list(product_composed_masks(outer, inner, n_inner))
