import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import maskquorum as mq
from maskquorum import ElementSet, ExplicitQuorumSystem, Rng, core
from maskquorum._bitops import pack_ints, pack_rows
from maskquorum.errors import ParameterError

masks_n8 = st.integers(min_value=0, max_value=255)


class TestElementSet:
    def test_basic(self):
        s = ElementSet.from_indices(5, [0, 3])
        assert len(s) == 2
        assert s.members() == (0, 3)
        assert 3 in s and 1 not in s
        assert list(s) == [0, 3]

    def test_construction_errors(self):
        with pytest.raises(ParameterError):
            ElementSet(0, 0)
        with pytest.raises(ParameterError):
            ElementSet(3, 1 << 3)
        with pytest.raises(ParameterError):
            ElementSet.from_indices(3, [3])

    def test_numpy_indices_past_bit_63(self):
        # Shifting by a numpy int64 wraps at 64 bits; Python ints do not.
        assert ElementSet.from_indices(64, np.array([63])).members() == (63,)
        assert ElementSet.from_indices(70, np.array([64])).members() == (64,)
        wide = ElementSet(70, (1 << 69) | 1)
        assert np.nonzero(wide.as_bool())[0].tolist() == [0, 69]

    def test_universe_mismatch(self):
        with pytest.raises(ParameterError):
            ElementSet.full(3) | ElementSet.full(4)

    @given(masks_n8, masks_n8)
    def test_commutativity(self, a, b):
        x, y = ElementSet(8, a), ElementSet(8, b)
        assert (x | y) == (y | x)
        assert (x & y) == (y & x)

    @given(masks_n8, masks_n8, masks_n8)
    def test_associativity(self, a, b, c):
        x, y, z = (ElementSet(8, m) for m in (a, b, c))
        assert ((x | y) | z) == (x | (y | z))
        assert ((x & y) & z) == (x & (y & z))

    @given(masks_n8, masks_n8)
    def test_de_morgan(self, a, b):
        x, y = ElementSet(8, a), ElementSet(8, b)
        assert (x | y).complement() == x.complement() & y.complement()
        assert (x & y).complement() == x.complement() | y.complement()

    @given(masks_n8, masks_n8)
    def test_difference_and_cardinality(self, a, b):
        x, y = ElementSet(8, a), ElementSet(8, b)
        assert (x - y) == (x & y.complement())
        assert len(x | y) + len(x & y) == len(x) + len(y)

    @given(masks_n8)
    def test_bool_roundtrip(self, a):
        x = ElementSet(8, a)
        assert ElementSet.from_indices(8, np.nonzero(x.as_bool())[0]) == x


class TestExplicitQuorumSystem:
    def test_rejects_duplicates(self):
        q = ElementSet.from_indices(3, [0, 1])
        with pytest.raises(ParameterError, match="duplicate"):
            ExplicitQuorumSystem(3, (q, q))

    def test_rejects_empty_quorum(self):
        # An empty quorum, and an empty quorum list.
        for quorums in ((ElementSet.empty(3),), ()):
            with pytest.raises(ParameterError, match="empty"):
                ExplicitQuorumSystem(3, quorums)

    def test_rejects_universe_mismatch(self):
        with pytest.raises(ParameterError):
            ExplicitQuorumSystem(3, (ElementSet.full(4),))


def _brute_live(system, alive):
    masks = system.quorum_masks()
    out = []
    for row in alive:
        alive_mask = sum(1 << int(i) for i in np.flatnonzero(row))
        out.append(any(q & ~alive_mask == 0 for q in masks))
    return np.array(out)


class TestExplicitLiveBatch:
    @staticmethod
    def _alive(n, seed):
        # Row t crashes each server with probability 0.05 .. 0.6, so both
        # outcomes occur on every system below.
        rng = np.random.default_rng(seed)
        probs = np.linspace(0.05, 0.6, 300)
        return rng.random((300, n)) >= probs[:, None]

    @pytest.mark.parametrize("name", ["MGrid(4,1)", "RT(3,2,2)", "FPP(3)", "BoostFPP(2,1)"])
    def test_matches_subset_check(self, materialized, name):
        system = materialized[name]
        alive = self._alive(system.n, 5)
        got = system.live_batch(alive)
        assert got.dtype == bool and got.shape == (len(alive),)
        assert got.any() and not got.all(), name
        np.testing.assert_array_equal(got, _brute_live(system, alive))

    def test_past_one_word(self):
        system = mq.build(mq.MGridSpec(9, 1)).materialize(10 ** 4)
        assert system.n == 81
        alive = self._alive(81, 6)
        got = system.live_batch(alive)
        assert got.any() and not got.all()
        np.testing.assert_array_equal(got, _brute_live(system, alive))

    def test_wrong_column_count(self, materialized):
        system = materialized["FPP(2)"]
        with pytest.raises(ParameterError):
            system.live_batch(np.ones((3, system.n + 1), dtype=bool))


class TestPackInts:
    """pack_ints reads masks straight into the words pack_rows makes of the
    membership matrix."""

    @pytest.mark.parametrize("n", [1, 7, 31, 32, 33, 63, 64, 65, 130])
    @pytest.mark.parametrize("masks_of", [
        lambda n: [], lambda n: [0], lambda n: [1 << (n - 1)],
        lambda n: [0, 1 << (n - 1), (1 << n) - 1]], ids=["empty", "zero", "top", "mixed"])
    def test_matches_pack_rows(self, n, masks_of):
        masks = masks_of(n)
        bits = np.array([[m >> j & 1 for j in range(n)] for m in masks], dtype=bool)
        want = pack_rows(bits.reshape(len(masks), n))
        got = pack_ints(masks, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


class TestPackRows:
    """pack_rows against np.packbits, on every memory layout: rows that fill
    whole words (n = 32, or a multiple of 64) skip the zero-padded copy."""

    @pytest.mark.parametrize("n", [1, 7, 8, 31, 32, 33, 63, 64, 65, 128, 1024])
    def test_matches_packbits(self, n):
        rng = np.random.default_rng(n)
        base = rng.random((41, 2 * n + 3)) < 0.5
        width = 32 if n <= 32 else 64
        dtype = np.dtype("<u4" if width == 32 else "<u8")
        for bits in (np.ascontiguousarray(base[:, :n]), np.asfortranarray(base[:, :n]),
                     base[::2, 3:3 + 2 * n:2]):
            packed = np.packbits(bits, axis=1, bitorder="little")
            padded = np.zeros((len(bits), -(-n // width) * width // 8), dtype=np.uint8)
            padded[:, :packed.shape[1]] = packed
            got = pack_rows(bits)
            assert got.dtype == dtype and got.shape == (len(bits), -(-n // width))
            np.testing.assert_array_equal(got, padded.view(dtype))


class TestValidateExplicit:
    """The intersection check, check_masking(sys, 0)."""

    def test_triangle_majority_ok(self):
        sys = ExplicitQuorumSystem.from_masks(3, [0b011, 0b110, 0b101])
        assert mq.check_masking(sys, 0).ok

    def test_disjoint_pair_reported(self):
        sys = ExplicitQuorumSystem.from_masks(2, [0b01, 0b10])
        check = mq.check_masking(sys, 0)
        assert not check.ok
        assert check.violating_pair == (0, 1)

    def test_fano_ok(self):
        assert mq.check_masking(mq.fpp_lines(2), 0).ok

    @pytest.mark.parametrize("n, masks", [
        (5, [0b00011, 0b01100, 0b10000, 0b00101, 0b11010, 0b01001]),
        # 2047 quorums: the pairwise kernel splits the rows into blocks.
        (11, range(2047, 0, -1)),
    ])
    def test_disjoint_pairs_in_double_loop_order(self, n, masks):
        # The reported pair is the first disjoint pair in (i, j) order.
        sys = ExplicitQuorumSystem.from_masks(n, masks)
        m = sys.quorum_masks()
        want = [(i, j) for i in range(len(m)) for j in range(i + 1, len(m)) if m[i] & m[j] == 0]
        assert len(want) > 3
        assert mq.check_masking(sys, 0).violating_pair == want[0]

    def test_answers_past_the_transversal_limit(self):
        # n = 31 and 10^4 + 1 quorums through element 0: too large for the
        # transversal search, which b = 0 does not need.
        sys = ExplicitQuorumSystem.from_masks(31, [1 | k << 1 for k in range(10_001)])
        assert mq.check_masking(sys, 0).ok
        with pytest.raises(mq.SizeError):
            mq.min_transversal_size(sys)

    @given(st.permutations(range(7)))
    def test_stable_under_reordering(self, order):
        fano = mq.fpp_lines(2)
        shuffled = ExplicitQuorumSystem(7, tuple(fano.quorums[i] for i in order))
        assert mq.check_masking(shuffled, 0).ok


class TestAccessStrategy:
    def test_validates_sum(self):
        with pytest.raises(ParameterError):
            mq.AccessStrategy([0.5, 0.4])

    def test_validates_sign(self):
        with pytest.raises(ParameterError):
            mq.AccessStrategy([1.5, -0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_weights(self, bad):
        # NaN passes both the sign and the sum comparisons, so it needs its own check.
        with pytest.raises(ParameterError, match="finite"):
            mq.AccessStrategy([bad, 1.0])

    def test_uniform(self):
        w = mq.AccessStrategy.uniform(4)
        assert len(w) == 4
        assert np.allclose(w.weights, 0.25)


class TestSystemParams:
    def test_derive_masking_and_resilience(self):
        p = mq.SystemParams(n=16, c=9, i_min=4, a_min=4, load=9 / 16)
        assert p.b == min(3, 1) == 1
        assert p.f == 3

    def test_roundtrip(self):
        p = mq.SystemParams(n=49, c=24, i_min=8, a_min=6, load=24 / 49)
        assert mq.SystemParams.from_dict(p.to_dict()) == p

    def test_from_dict_rejects_contradicting_b_and_f(self):
        # The derived b and f are 0; a record claiming b = 5, f = 9 would feed
        # fp_lower_bounds p_c2f = 1 and p_f = 1e-6 in place of 0.01 and 0.1.
        record = {"n": 4, "c": 2, "i_min": 1, "a_min": 1, "b": 5, "f": 9, "load": 0.5}
        with pytest.raises(ParameterError, match="contradict"):
            mq.SystemParams.from_dict(record)
        record.update(b=0, f=0)
        bounds = mq.fp_lower_bounds(mq.SystemParams.from_dict(record), 0.1)
        assert (bounds.p_c2f, bounds.p_f) == pytest.approx((0.01, 0.1))

    def test_constructor_takes_no_b_or_f(self):
        # b and f are derived properties, so the contradicting record above
        # cannot be built directly either.
        with pytest.raises(TypeError):
            mq.SystemParams(n=4, c=2, i_min=1, a_min=1, b=5, f=9, load=0.5)
        params = mq.SystemParams(n=4, c=2, i_min=1, a_min=1, load=0.5)
        assert (params.b, params.f) == (0, 0)


class TestRng:
    def test_chunk_invariance(self):
        rng = Rng(12345)
        full = rng.uniform_draws(0, 100)
        pieces = [rng.uniform_draws(s, c) for s, c in [(0, 7), (7, 13), (20, 41), (61, 39)]]
        assert np.array_equal(full, np.concatenate(pieces))

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8))
    def test_chunk_invariance_any_boundaries(self, sizes):
        rng = Rng(6502)
        full = rng.uniform_draws(0, sum(sizes))
        pieces, start = [], 0
        for size in sizes:
            pieces.append(rng.uniform_draws(start, size))
            start += size
        assert np.array_equal(full, np.concatenate(pieces) if pieces else full)

    def test_streams_are_pure(self):
        rng = Rng(9)
        a = rng.at(3).generator().random(5)
        b = rng.at(3).generator().random(5)
        c = rng.at(4).generator().random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_changes_draws(self):
        assert not np.array_equal(Rng(1).uniform_draws(0, 16), Rng(2).uniform_draws(0, 16))


# Crash probabilities at the edges of the integer comparison: zero, the
# smallest subnormal, the draw spacing, the paper's p, both sides of 1/2, a p
# that is not a dyadic rational, the largest double below 1, and one.
CUT_EDGES = [0.0, 5e-324, 2.0 ** -53, 0.125, float(np.nextafter(0.5, 0.0)), 0.5, 0.35,
             1.0 - 2.0 ** -53, 1.0]


class TestCrashedDraws:
    @pytest.mark.parametrize("p", CUT_EDGES)
    def test_equals_float_comparison(self, p):
        rng = Rng(31337)
        for start, count in [(0, 4096), (1, 999), (6, 17), (4099, 1000), (3, 0)]:
            got = rng.crashed(start, count, p)
            assert got.dtype == bool
            assert np.array_equal(got, rng.uniform_draws(start, count) < p)

    @pytest.mark.parametrize("p", CUT_EDGES)
    def test_cut_at_the_boundary(self, p):
        # Raw words next to the cut, which random draws almost never reach.
        cut = core._crash_cut(p)
        near = {cut + d for d in (-2049, -2048, -1, 0, 1, 2047, 2048)}
        raw = np.array(sorted(r for r in near | {0, (1 << 64) - 1} if 0 <= r < 1 << 64),
                       dtype=np.uint64)
        as_float = (raw >> 11) * (2.0 ** -53) < p
        assert np.array_equal(np.array([int(r) < cut for r in raw]), as_float)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 10 ** 6),
           st.integers(0, 300))
    def test_property(self, p, start, count):
        rng = Rng(8)
        assert np.array_equal(rng.crashed(start, count, p),
                              rng.uniform_draws(start, count) < p)

    def test_p_out_of_range(self):
        for p in (-0.1, 1.5, float("nan")):
            with pytest.raises(ParameterError):
                Rng(0).crashed(0, 4, p)


class TestSampleCrashSet:
    def test_p_zero_empty(self):
        assert len(mq.sample_crash_set(10, 0.0, Rng(0))) == 0

    def test_p_one_full(self):
        assert mq.sample_crash_set(10, 1.0, Rng(0)) == ElementSet.full(10)

    def test_p_out_of_range(self):
        with pytest.raises(ParameterError):
            mq.sample_crash_set(10, 1.5, Rng(0))

    def test_trial_layout_matches_block_draws(self):
        # Trial t must consume raw draws [t*n, (t+1)*n): the same layout the
        # vectorised Monte Carlo path uses.
        n, p, rng = 50, 0.3, Rng(777)
        for t in (0, 1, 17, 999):
            expected_mask = 0
            for i in np.nonzero(rng.uniform_draws(t * n, n) < p)[0]:
                expected_mask |= 1 << int(i)
            assert mq.sample_crash_set(n, p, rng.at(t)).mask == expected_mask

    def test_binomial_mean(self):
        # 1e5 trials at n=1000, p=0.25: mean cardinality within 3 sigma of 250.
        n, p, trials = 1000, 0.25, 100_000
        rng = Rng(2024)
        total = 0
        chunk = 4000
        for t0 in range(0, trials, chunk):
            u = rng.uniform_draws(t0 * n, chunk * n).reshape(chunk, n)
            total += int((u < p).sum())
        mean = total / trials
        sigma_mean = np.sqrt(n * p * (1 - p) / trials)
        assert abs(mean - n * p) <= 3 * sigma_mean
