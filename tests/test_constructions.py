import math
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import maskquorum as mq
from maskquorum import ElementSet, Rng, build
from maskquorum.constructions import ThresholdHandle
from maskquorum.errors import ParameterError, SizeError, UnsupportedOrderError

from oracles import fpp_line_masks


class TestSpecValidation:
    def test_mgrid_rejects_excess_masking(self):
        with pytest.raises(ParameterError, match="b <=" ):
            mq.MGridSpec(side=4, b=2)

    def test_mgrid_rejects_small_side(self):
        with pytest.raises(ParameterError):
            mq.MGridSpec(side=1, b=0)

    def test_threshold_rejects_minority(self):
        with pytest.raises(ParameterError):
            mq.ThresholdSpec(k=4, ell=2)
        with pytest.raises(ParameterError):
            mq.ThresholdSpec(k=4, ell=4)

    def test_threshold_degenerate_singleton_allowed(self):
        spec = mq.ThresholdSpec(k=1, ell=1)
        params = build(spec).params
        assert (params.n, params.c, params.i_min, params.a_min) == (1, 1, 1, 1)

    def test_rt_depth(self):
        with pytest.raises(ParameterError):
            mq.RTSpec(k=4, ell=3, h=0)
        with pytest.raises(ParameterError, match="h <= 200"):
            mq.RTSpec(k=4, ell=3, h=201)

    def test_fpp_rejects_prime_powers_and_composites(self):
        for q in (4, 6, 8, 9, 1, 0):
            with pytest.raises(UnsupportedOrderError):
                mq.FPPSpec(q=q)

    def test_mpath_rejects_thin_grids(self):
        # side - r + 1 >= b + 1 fails: side=4, b=2 gives r=3, 2 < 3.
        with pytest.raises(ParameterError):
            mq.MPathSpec(side=4, b=2)
        with pytest.raises(ParameterError):
            mq.MPathSpec(side=2, b=5)


class TestAnalyticParams:
    def test_mgrid_7_3(self):
        p = build(mq.MGridSpec(7, 3)).params
        assert mq.MGridSpec(7, 3).g == 2
        assert p.c == 2 * 2 * 7 - 4 == 24
        assert p.a_min == 6 and p.f == 5 and p.b == 3
        assert p.load == 24 / 49

    def test_rt_4_3_5(self):
        p = build(mq.RTSpec(4, 3, 5)).params
        assert (p.n, p.c, p.i_min, p.a_min) == (1024, 243, 32, 32)
        assert p.b == 15 and p.f == 31
        assert p.load == (3 / 4) ** 5

    def test_mpath_32_7(self):
        spec = mq.MPathSpec(32, 7)
        assert spec.r == 4
        p = build(spec).params
        assert p.a_min == 29 and p.i_min == 16 and p.i_min >= 2 * 7 + 1
        assert p.b == 7 and p.f == 28
        assert p.c == 2 * 4 * 32 - 16 == 240

    def test_threshold_examples(self):
        p = build(mq.ThresholdSpec(4, 3)).params
        assert (p.n, p.c, p.i_min, p.a_min, p.b, p.f) == (4, 3, 2, 2, 0, 1)
        p = build(mq.ThresholdSpec(5, 4)).params
        assert (p.i_min, p.a_min, p.b) == (3, 2, 1)

    def test_fpp_params(self):
        p = build(mq.FPPSpec(3)).params
        assert (p.n, p.c, p.i_min, p.a_min) == (13, 4, 1, 4)
        assert p.load == 4 / 13

    def test_boostfpp_3_19(self):
        p = build(mq.BoostFPPSpec(3, 19)).params
        assert (p.n, p.c, p.i_min, p.a_min) == (1001, 232, 39, 80)
        assert p.b == 19 and p.f == 79

    def test_boostfpp_identical_to_composed_route(self):
        direct = build(mq.BoostFPPSpec(3, 19)).params
        composed = build(mq.ComposedSpec(mq.FPPSpec(3), mq.ThresholdSpec(77, 58))).params
        assert direct == composed

    def test_boostfpp_b0_degenerates_to_plane(self):
        boosted = build(mq.BoostFPPSpec(2, 0))
        plane = build(mq.FPPSpec(2))
        for field in ("n", "c", "i_min", "a_min", "b", "f"):
            assert getattr(boosted.params, field) == getattr(plane.params, field)
        assert boosted.materialize(10).quorum_masks() == plane.materialize(10).quorum_masks()

    def test_composed_squared_threshold_equals_rt(self):
        composed = build(mq.ComposedSpec(mq.ThresholdSpec(4, 3), mq.ThresholdSpec(4, 3))).params
        rt = build(mq.RTSpec(4, 3, 2)).params
        assert (composed.n, composed.c, composed.i_min, composed.a_min, composed.b) == \
            (16, 9, 4, 4, 1)
        assert composed.n == rt.n and composed.c == rt.c
        assert composed.i_min == rt.i_min and composed.a_min == rt.a_min
        assert composed.load == pytest.approx(rt.load, abs=1e-12)


class TestFppLines:
    def test_fano(self):
        fano = mq.fpp_lines(2)
        assert fano.n == 7 and fano.m == 7
        assert all(len(q) == 3 for q in fano.quorums)
        masks = fano.quorum_masks()
        for i in range(7):
            for j in range(i + 1, 7):
                assert (masks[i] & masks[j]).bit_count() == 1

    def test_q3(self):
        sys13 = mq.fpp_lines(3)
        assert sys13.n == 13 and sys13.m == 13
        assert all(len(q) == 4 for q in sys13.quorums)
        masks = sys13.quorum_masks()
        assert all((a & b).bit_count() == 1
                   for i, a in enumerate(masks) for b in masks[i + 1:])

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_incidence_axioms(self, q):
        sys_q = mq.fpp_lines(q)
        assert sys_q.n == sys_q.m == q * q + q + 1
        masks = sys_q.quorum_masks()
        assert all(m.bit_count() == q + 1 for m in masks)
        assert all((a & b).bit_count() == 1
                   for i, a in enumerate(masks) for b in masks[i + 1:])
        degrees = [0] * sys_q.n
        for mask in masks:
            for e in ElementSet(sys_q.n, mask):
                degrees[e] += 1
        assert set(degrees) == {q + 1}

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_same_lines_in_the_same_order_as_the_triple_loop(self, q):
        assert mq.fpp_lines(q).quorum_masks() == fpp_line_masks(q)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 31])
    def test_points_in_the_order_of_the_filtered_triples(self, q):
        # The reference lists all q^3 triples and keeps those whose first
        # nonzero coordinate is 1.
        points = np.array([t for t in product(range(q), repeat=3)
                           if next((x for x in t if x), 0) == 1])
        incidence = (points @ points.T) % q == 0
        want = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in incidence]
        assert mq.fpp_lines(q).quorum_masks() == want

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            mq.fpp_lines(4)


class TestBruteForceEqualsAnalytic:
    def test_all_materializable(self, handles, materialized, brute_params):
        for name, handle in handles.items():
            brute = brute_params[name]
            params = handle.params
            if isinstance(handle.spec, mq.MPathSpec):
                side, r, b = handle.spec.side, handle.spec.r, params.b
                assert brute.c == 2 * r * side - r * r == params.c, name
                assert brute.a_min == side - r + 1 == params.a_min, name
                assert brute.i_min >= 2 * b + 1, name
            else:
                assert brute.c == params.c, name
                assert brute.i_min == params.i_min, name
                assert brute.a_min == params.a_min, name

    def test_validate_all(self, materialized):
        for name, system in materialized.items():
            assert mq.check_masking(system, 0).ok, name

    def test_masking_soundness(self, materialized, handles):
        # Pairwise intersections >= 2b+1 and a_min >= b+1 for the derived b.
        for name, system in materialized.items():
            b = handles[name].params.b
            masks = system.quorum_masks()
            worst = min((a & c).bit_count()
                        for i, a in enumerate(masks) for c in masks[i + 1:])
            assert worst >= 2 * b + 1, name
            assert mq.min_transversal_size(system) >= b + 1, name


class TestLivePredicate:
    def test_full_universe_always_live(self, handles):
        for name, handle in handles.items():
            assert handle.live(ElementSet.full(handle.n)), name

    def test_threshold_below_threshold(self):
        handle = build(mq.ThresholdSpec(4, 3))
        assert not handle.live(ElementSet.from_indices(4, [0, 2]))

    def test_mgrid_row_and_column(self):
        handle = build(mq.MGridSpec(3, 0))
        alive = ElementSet.from_indices(9, [0, 1, 2, 3, 6])  # row 0 union col 0
        assert handle.live(alive)
        explicit = handle.materialize(100)
        assert any(q.issubset(alive) for q in explicit.quorums)

    def test_universe_mismatch(self, handles):
        with pytest.raises(ParameterError):
            handles["Threshold(3,2)"].live(ElementSet.full(5))

    @pytest.mark.parametrize("spec, shape", [
        (mq.ThresholdSpec(3, 2), (2, 5)), (mq.RTSpec(3, 2, 2), (2, 27)),
        (mq.MGridSpec(4, 1), (2, 15)), (mq.MGridSpec(4, 1), (2, 17)),
        (mq.ThresholdSpec(3, 2), (3,))])
    def test_live_batch_rejects_wrong_shape(self, spec, shape):
        with pytest.raises(ParameterError, match="alive matrix has shape"):
            build(spec).live_batch(np.ones(shape, dtype=bool))

    def test_live_iff_some_quorum_alive(self, handles, materialized):
        # 1000 random alive sets per construction; for the crossing-paths
        # system the implication is one-sided (straight quorum => live).
        rng = np.random.default_rng(123)
        for name, handle in handles.items():
            system = materialized[name]
            n = handle.n
            bits = rng.random((1000, n)) >= np.array([0.2, 0.5, 0.8])[
                rng.integers(0, 3, size=(1000, 1))]
            got = handle.live_batch(bits)
            masks = system.quorum_masks()
            for row, live in zip(bits, got):
                alive_mask = 0
                for i in np.nonzero(row)[0]:
                    alive_mask |= 1 << int(i)
                subset_live = any(q & ~alive_mask == 0 for q in masks)
                if isinstance(handle.spec, mq.MPathSpec):
                    if subset_live:
                        assert live, name
                else:
                    assert bool(live) == subset_live, name

    @given(st.integers(0, 2 ** 9 - 1), st.integers(0, 2 ** 9 - 1))
    def test_monotone(self, a, b):
        for spec in (mq.MGridSpec(3, 0), mq.RTSpec(3, 2, 2), mq.MPathSpec(3, 0)):
            handle = build(spec)
            small, big = ElementSet(9, a & b), ElementSet(9, a | b)
            if handle.live(small):
                assert handle.live(big)

    def test_live_single_equals_batch(self, handles):
        rng = np.random.default_rng(5)
        for name, handle in handles.items():
            bits = rng.random((50, handle.n)) >= 0.4
            batch = handle.live_batch(bits)
            for row, expected in zip(bits, batch):
                alive = ElementSet.from_indices(handle.n, np.nonzero(row)[0])
                assert handle.live(alive) == bool(expected), name


    @pytest.mark.parametrize("spec", [mq.MPathSpec(8, 1), mq.MPathSpec(32, 7)])
    def test_mpath_flow_batch_equals_single_at_n_ge_64(self, spec):
        handle = build(spec)
        rng = np.random.default_rng(spec.side)
        outcomes = set()
        for p in (0.125, 0.4):
            bits = rng.random((30, handle.n)) >= p
            batch = handle.live_batch(bits)
            for row, expected in zip(bits, batch):
                alive = ElementSet.from_indices(handle.n, np.nonzero(row)[0])
                assert handle.live(alive) == bool(expected), p
            outcomes.update(batch.tolist())
        assert outcomes == {True, False}

    @pytest.mark.parametrize("spec", [mq.RTSpec(3, 2, 3), mq.RTSpec(4, 3, 5),
                                      mq.RTSpec(5, 3, 2)])
    def test_rt_live_batch_matches_int64_sum(self, spec):
        handle = build(spec)
        rng = np.random.default_rng(spec.k * 10 + spec.h)
        bits = rng.random((500, handle.n)) >= rng.uniform(0.1, 0.5, size=(500, 1))
        got = handle.live_batch(bits)
        assert got.dtype == bool
        assert np.array_equal(got, _rt_live_reference(spec, bits))
        assert set(got.tolist()) == {True, False}

    @pytest.mark.parametrize("spec", [mq.RTSpec(300, 151, 1), mq.ThresholdSpec(300, 151)])
    def test_live_batch_block_wider_than_a_byte(self, spec):
        # 300 members: a uint8 count would wrap 300 to 44 and call it dead.
        handle = build(spec)
        alive = np.ones((2, 300), dtype=bool)
        alive[1, 150:] = False
        assert handle.live_batch(alive).tolist() == [True, False]

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 77, 300])
    def test_threshold_count_matches_int64_sum(self, k):
        # Column adds count blocks of up to 8 columns, einsum the wider ones.
        # The count is called directly: no ell-of-2 system exists to build.
        rng = np.random.default_rng(k)
        alive = rng.random((400, k)) < rng.random((400, 1))
        for ell in sorted({1, k // 2 + 1, k}):
            block = SimpleNamespace(spec=SimpleNamespace(k=k, ell=ell))
            want = alive.sum(axis=1) >= ell
            for layout in (alive, np.asfortranarray(alive)):
                assert np.array_equal(ThresholdHandle._live_batch(block, layout), want)


def _rt_live_reference(spec, alive):
    """The recursive-threshold predicate with int64 child counts."""
    x = alive
    for _ in range(spec.h):
        x = x.reshape(len(alive), -1, spec.k).sum(axis=2) >= spec.ell
    return x[:, 0]


class TestSampler:
    def test_mgrid_shape(self):
        handle = build(mq.MGridSpec(7, 3))
        rows = [((1 << 7) - 1) << (7 * i) for i in range(7)]
        cols = [sum(1 << (7 * i + j) for i in range(7)) for j in range(7)]
        gen = Rng(3).generator()
        for _ in range(200):
            q = handle.sample_quorum(gen)
            assert len(q) == 24
            full_rows = sum(1 for r in rows if q.mask & r == r)
            full_cols = sum(1 for c in cols if q.mask & c == c)
            assert full_rows == 2 and full_cols == 2

    def test_fpp_uniform_over_lines(self):
        handle = build(mq.FPPSpec(2))
        lines = {mask: 0 for mask in handle.iter_quorum_masks()}
        gen = Rng(11).generator()
        draws = 10_000
        for _ in range(draws):
            lines[handle.sample_quorum(gen).mask] += 1
        expected = draws / 7
        sigma = math.sqrt(draws * (1 / 7) * (6 / 7))
        for count in lines.values():
            assert abs(count - expected) <= 3 * sigma

    def test_threshold_uniform(self):
        handle = build(mq.ThresholdSpec(3, 2))
        counts = {0b011: 0, 0b101: 0, 0b110: 0}
        gen = Rng(4).generator()
        draws = 9_000
        for _ in range(draws):
            counts[handle.sample_quorum(gen).mask] += 1
        sigma = math.sqrt(draws * (1 / 3) * (2 / 3))
        for count in counts.values():
            assert abs(count - draws / 3) <= 3 * sigma

    def test_rt_uniform_over_quorums(self):
        handle = build(mq.RTSpec(3, 2, 2))
        counts = dict.fromkeys(handle.iter_quorum_masks(), 0)
        assert len(counts) == 27
        gen = Rng(27).generator()
        draws = 27_000
        for _ in range(draws):
            q = handle.sample_quorum(gen)
            assert len(q) == 2 ** 2
            counts[q.mask] += 1
        sigma = math.sqrt(draws * (1 / 27) * (26 / 27))
        for count in counts.values():
            assert abs(count - draws / 27) <= 3 * sigma

    def test_samples_are_live_and_valid_quorums(self, handles):
        for name, handle in handles.items():
            gen = Rng(9).generator()
            for _ in range(25):
                q = handle.sample_quorum(gen)
                assert handle.live(q), name

    def test_rng_value_endpoint(self):
        handle = build(mq.ThresholdSpec(3, 2))
        assert handle.sample_quorum(Rng(1).at(5)) == handle.sample_quorum(Rng(1).at(5))


def _row_masks(rows):
    """The Python-integer mask of each row of a boolean matrix."""
    return [sum(1 << int(i) for i in np.flatnonzero(row)) for row in rows]


class TestSampleQuorums:
    """The batched sampler: shape, validation, agreement with single draws,
    support and uniformity."""

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_shape_and_dtype(self, handles, count):
        for name, handle in handles.items():
            got = handle.sample_quorums(Rng(2).generator(), count)
            assert got.shape == (count, handle.n) and got.dtype == bool, name
            assert (got.sum(axis=1) == handle.params.c).all(), name

    @pytest.mark.parametrize("count", [-1, 2.0, "3", None, True])
    def test_bad_count(self, count):
        with pytest.raises(ParameterError, match="count"):
            build(mq.RTSpec(3, 2, 2)).sample_quorums(Rng(0).generator(), count)

    def test_numpy_integer_count(self):
        got = build(mq.FPPSpec(2)).sample_quorums(Rng(0), np.int64(3))
        assert got.shape == (3, 7)

    def test_row_zero_is_the_single_draw(self, handles):
        composed = build(mq.ComposedSpec(mq.FPPSpec(2), mq.ThresholdSpec(3, 2)))
        for name, handle in {**handles, "FPP(2)oT(3,2)": composed}.items():
            for seed in range(3):
                batch = handle.sample_quorums(Rng(seed).generator(), 1)
                single = handle.sample_quorum(Rng(seed).generator())
                assert np.array_equal(batch[0], single.as_bool()), (name, seed)

    @pytest.mark.parametrize("spec", [
        mq.MGridSpec(4, 1), mq.RTSpec(3, 2, 2), mq.BoostFPPSpec(2, 1), mq.FPPSpec(3),
        mq.ThresholdSpec(5, 4),
    ])
    def test_every_row_is_a_quorum(self, spec):
        handle = build(spec)
        quorums = set(handle.iter_quorum_masks())
        rows = handle.sample_quorums(Rng(12).generator(), 2000)
        assert set(_row_masks(rows)) <= quorums

    def test_rt_batch_chi_square(self):
        # Uniform over the 27 quorums of RT(3,2,2); the seed was fixed before
        # the first run.  The 1 - 1e-4 quantile of chi-square with 26
        # degrees of freedom is 61.66 (scipy.stats.chi2.ppf).
        handle = build(mq.RTSpec(3, 2, 2))
        index = {mask: i for i, mask in enumerate(handle.iter_quorum_masks())}
        draws = 27_000
        rows = handle.sample_quorums(Rng(1607).generator(), draws)
        counts = np.bincount([index[m] for m in _row_masks(rows)], minlength=27)
        expected = draws / 27
        assert ((counts - expected) ** 2 / expected).sum() < 61.66

    @pytest.mark.parametrize("spec, want", [
        (mq.RTSpec(3, 2, 2), [0x35, 0x33, 0x1a8, 0xd8, 0xf0, 0xe8]),
        (mq.RTSpec(4, 3, 2), [0xe0ee, 0xb07d, 0xd7b0, 0xbd0e, 0xd70b, 0xbbb0]),
        (mq.FPPSpec(3), [0x8c4, 0xf, 0x492, 0x1242, 0x624, 0x922]),
    ])
    def test_rt_and_fpp_single_draws_are_pinned(self, spec, want):
        # The single draws of the per-draw samplers that the batched one
        # replaced, on Rng(8).generator().
        handle = build(spec)
        gen = Rng(8).generator()
        assert [handle.sample_quorum(gen).mask for _ in want] == want


class TestMaterialize:
    def test_counts(self):
        assert build(mq.MGridSpec(4, 1)).quorum_count() == math.comb(4, 2) ** 2 == 36
        assert build(mq.ThresholdSpec(4, 3)).quorum_count() == 4
        assert build(mq.FPPSpec(2)).quorum_count() == 7
        assert build(mq.RTSpec(4, 3, 2)).quorum_count() == 256

    def test_count_equals_distinct_quorums(self, handles):
        # ComposedHandle.quorum_count assumes every quorum of a handle has
        # size params.c; the distinct enumerated quorums pin that premise.
        t32 = mq.ThresholdSpec(3, 2)
        composed = {
            "FPP(2)oT(3,2)": mq.ComposedSpec(mq.FPPSpec(2), t32),
            "T(3,2)oT(3,2)": mq.ComposedSpec(t32, t32),
            "T(4,3)oT(3,2)": mq.ComposedSpec(mq.ThresholdSpec(4, 3), t32),
        }
        for name, handle in {**handles,
                             **{k: build(v) for k, v in composed.items()}}.items():
            masks = set(handle.iter_quorum_masks())
            assert handle.quorum_count() == len(masks), name
            assert {m.bit_count() for m in masks} == {handle.params.c}, name

    def test_threshold_4_3(self):
        system = build(mq.ThresholdSpec(4, 3)).materialize(10)
        assert system.m == 4
        assert all(len(q) == 3 for q in system.quorums)

    def test_cap_error_reports_exact_count(self):
        with pytest.raises(SizeError, match="36"):
            build(mq.MGridSpec(4, 1)).materialize(35)

    def test_duplicate_enumerated_quorum_raises(self, monkeypatch):
        # An enumerator that yields a mask twice would make quorum_count()
        # disagree with the explicit system's m, so materialize refuses it.
        handle = build(mq.ThresholdSpec(3, 2))
        monkeypatch.setattr(handle, "iter_quorum_masks", lambda: iter([0b011, 0b011, 0b101]))
        with pytest.raises(ParameterError, match="duplicate"):
            handle.materialize(10)

    def test_mpath_straight_paths_only(self):
        handle = build(mq.MPathSpec(5, 2))  # r = 3
        system = handle.materialize(200)
        assert system.m == math.comb(5, 3) ** 2
        assert all(len(q) == 2 * 3 * 5 - 9 for q in system.quorums)


def _grid_lines(side):
    rows = [((1 << side) - 1) << (side * i) for i in range(side)]
    cols = [sum(1 << (side * i + j) for i in range(side)) for j in range(side)]
    return rows, cols


class TestDrawAndEnumerationOrder:
    """Seeded draws and enumeration order, re-derived from the grid and the plane."""

    @pytest.mark.parametrize("spec, g", [
        (mq.MGridSpec(4, 1), 2), (mq.MGridSpec(32, 15), 4),
        (mq.MPathSpec(5, 2), 3), (mq.MPathSpec(32, 7), 4),
    ])
    def test_grid_draws_rows_then_columns(self, spec, g):
        handle = build(spec)
        rows, cols = _grid_lines(spec.side)
        gen, ref = Rng(5).generator(), Rng(5).generator()
        for _ in range(100):
            want = 0
            for i in ref.random(spec.side).argsort()[:g]:
                want |= rows[i]
            for j in ref.random(spec.side).argsort()[:g]:
                want |= cols[j]
            assert handle.sample_quorum(gen).mask == want

    @pytest.mark.parametrize("spec, g", [
        (mq.MGridSpec(4, 1), 2), (mq.MGridSpec(5, 2), 2),
        (mq.MPathSpec(4, 1), 2), (mq.MPathSpec(5, 2), 3),
    ])
    def test_grid_enumerates_row_sets_then_column_sets(self, spec, g):
        rows, cols = _grid_lines(spec.side)
        want = [sum(ri) | sum(cj)
                for ri in combinations(rows, g) for cj in combinations(cols, g)]
        assert list(build(spec).iter_quorum_masks()) == want

    @pytest.mark.parametrize("q", [2, 3])
    def test_fpp_draws_one_line_per_integer(self, q):
        lines = mq.fpp_lines(q).quorums
        handle = build(mq.FPPSpec(q))
        gen, ref = Rng(6).generator(), Rng(6).generator()
        for _ in range(200):
            assert handle.sample_quorum(gen) == lines[ref.integers(len(lines))]

    @pytest.mark.parametrize("q, b", [(2, 1), (3, 19)])
    def test_boostfpp_draws_a_line_then_one_block_per_point(self, q, b):
        lines = mq.fpp_lines(q).quorums
        k, ell = 4 * b + 1, 3 * b + 1
        handle = build(mq.BoostFPPSpec(q, b))
        gen, ref = Rng(7).generator(), Rng(7).generator()
        for _ in range(50):
            want = 0
            for point in lines[ref.integers(len(lines))].members():
                for i in ref.random(k).argsort()[:ell]:
                    want |= 1 << (point * k + int(i))
            assert handle.sample_quorum(gen).mask == want

    def test_fpp_plane_built_once_per_handle(self, monkeypatch):
        calls = []
        plane = mq.constructions.fpp_lines

        def counting_plane(q):
            calls.append(q)
            return plane(q)

        monkeypatch.setattr(mq.constructions, "fpp_lines", counting_plane)
        for spec in (mq.FPPSpec(3), mq.BoostFPPSpec(2, 1)):
            handle = build(spec)
            handle.live_batch(np.ones((4, handle.n), dtype=bool))
            handle.sample_quorum(Rng(0).generator())
            handle.materialize(10 ** 4)
        assert calls == [3, 2]


class TestSpecJson:
    @pytest.mark.parametrize("spec", [
        mq.MGridSpec(32, 15),
        mq.ThresholdSpec(4, 3),
        mq.RTSpec(4, 3, 5),
        mq.FPPSpec(3),
        mq.BoostFPPSpec(3, 19),
        mq.MPathSpec(32, 7),
        mq.ComposedSpec(mq.FPPSpec(2), mq.ThresholdSpec(3, 2)),
    ])
    def test_roundtrip(self, spec):
        assert mq.spec_from_json(mq.spec_to_json(spec)) == spec

    def test_rejects_unknown_tag(self):
        with pytest.raises(ParameterError):
            mq.spec_from_json({"Pyramid": {"side": 3}})

    def test_rejects_bad_fields(self):
        for obj in [{"MGrid": {"side": 4}},
                    {"RT": {"k": 3, "ell": 2, "h": 1.5}},
                    {"MGrid": {"side": 4.0, "b": 1}},
                    {"Threshold": {"k": True, "ell": True}},
                    {"BoostFPP": {"q": 3, "b": 1.0}},
                    {"Composed": {"outer": {"FPP": {"q": 2}},
                                  "inner": {"FPP": {"q": 2}}, "extra": 5}},
                    {"Composed": {"outer": {"FPP": {"q": 2}}}}]:
            with pytest.raises(ParameterError):
                mq.spec_from_json(obj)
