import itertools

import numpy as np
import pytest

import maskquorum as mq
from maskquorum import build, compose_explicit, compose_params
from maskquorum.errors import SizeError


@pytest.fixture(scope="module")
def components():
    return {
        "T32": build(mq.ThresholdSpec(3, 2)).materialize(100),
        "T43": build(mq.ThresholdSpec(4, 3)).materialize(100),
        "FPP2": build(mq.FPPSpec(2)).materialize(100),
    }


class TestComposeExplicit:
    def test_threshold_squared(self, components):
        t32 = components["T32"]
        composed = compose_explicit(t32, t32)
        assert composed.n == 9
        # 3 outer quorums of size 2, each with 3 inner choices per element.
        assert composed.m == 3 * 3 ** 2 == 27
        assert min(len(q) for q in composed.quorums) == 4
        assert mq.check_masking(composed, 0).ok

    def test_fpp_over_threshold(self, components):
        composed = compose_explicit(components["FPP2"], components["T32"])
        assert composed.n == 21
        assert composed.m == 7 * 3 ** 3 == 189
        got = mq.combinatorial_params(composed)
        assert got == (6, 1, 6)

    def test_identity_composition(self, components):
        singleton = mq.ExplicitQuorumSystem.from_masks(1, [0b1])
        for name in ("T32", "T43", "FPP2"):
            outer = components[name]
            composed = compose_explicit(outer, singleton)
            assert composed.n == outer.n
            assert composed.quorum_masks() == outer.quorum_masks()

    def test_cap_reports_exact_count(self, components):
        with pytest.raises(SizeError, match="189"):
            compose_explicit(components["FPP2"], components["T32"], cap=188)

    def test_block_numbering(self, components):
        # Inner copy i occupies [i*n_inner, (i+1)*n_inner).
        composed = compose_explicit(components["T32"], components["T32"])
        for q in composed.quorums:
            copies = {e // 3 for e in q}
            assert len(copies) == 2  # outer quorums have two elements


class TestComposeParams:
    def test_boost_point(self):
        outer = build(mq.FPPSpec(3)).params
        inner = build(mq.ThresholdSpec(77, 58)).params
        got = compose_params(outer, inner)
        assert (got.n, got.c, got.i_min, got.a_min, got.f) == (1001, 232, 39, 80, 79)

    def test_squared_threshold_equals_rt_depth2(self):
        t43 = build(mq.ThresholdSpec(4, 3)).params
        got = compose_params(t43, t43)
        rt = build(mq.RTSpec(4, 3, 2)).params
        assert (got.n, got.c, got.i_min, got.a_min, got.b) == (16, 9, 4, 4, 1)
        assert (got.n, got.c, got.i_min, got.a_min) == (rt.n, rt.c, rt.i_min, rt.a_min)

    def test_multiplicative_identity(self):
        one = mq.SystemParams(n=1, c=1, i_min=1, a_min=1, load=1.0)
        p = build(mq.RTSpec(4, 3, 2)).params
        assert compose_params(p, one) == p
        assert compose_params(one, p) == p


class TestCompositionTheorem:
    def test_params_multiply_on_all_small_pairs(self, components):
        # Brute-force params of the enumeration equal the parameter algebra
        # applied to brute-force component params, for all nine ordered pairs.
        brute = {}
        for name, sys in components.items():
            c, i_min, a_min = mq.combinatorial_params(sys)
            brute[name] = mq.SystemParams(sys.n, c, i_min, a_min, load=0.0)
        for (no, outer), (ni, inner) in itertools.product(components.items(), repeat=2):
            composed = compose_explicit(outer, inner)
            got = mq.combinatorial_params(composed)
            want = compose_params(brute[no], brute[ni])
            assert composed.n == want.n, (no, ni)
            assert got.c == want.c, (no, ni)
            assert got.i_min == want.i_min, (no, ni)
            assert got.a_min == want.a_min, (no, ni)

    def test_crash_probability_composes_functionally(self, components):
        # F(p) of the composition equals outer-F evaluated at inner-F(p).
        pairs = [("FPP2", "T32"), ("T32", "T32"), ("T43", "T32")]
        for no, ni in pairs:
            outer, inner = components[no], components[ni]
            composed = compose_explicit(outer, inner)
            for p in (0.1, 0.25, 0.5):
                r_p = mq.crash_prob_exact(inner, p).value
                s_r = mq.crash_prob_exact(outer, r_p).value
                whole = mq.crash_prob_exact(composed, p).value
                assert whole == pytest.approx(s_r, abs=1e-9), (no, ni, p)

    def test_load_multiplies(self, components):
        outer, inner = components["FPP2"], components["T32"]
        composed = compose_explicit(outer, inner)
        lo, _ = mq.load_lp(outer)
        li, _ = mq.load_lp(inner)
        lc, _ = mq.load_lp(composed)
        assert lc == pytest.approx(lo * li, abs=1e-6)
        assert lc == pytest.approx(2 / 7, abs=1e-6)

    def test_fairness_preserved(self, components):
        composed = compose_explicit(components["FPP2"], components["T32"])
        fairness = mq.is_fair(composed)
        assert fairness.ok
        assert fairness.s == 6

    def test_composed_handle_matches_explicit(self, components):
        handle = build(mq.ComposedSpec(mq.FPPSpec(2), mq.ThresholdSpec(3, 2)))
        explicit = compose_explicit(components["FPP2"], components["T32"])
        assert handle.materialize(1000).quorum_masks() == explicit.quorum_masks()
        for p in (0.1, 0.4):
            assert mq.crash_prob_exact(handle, p).value == pytest.approx(
                mq.crash_prob_exact(explicit, p).value, abs=1e-12)


def test_composition_is_associative(components):
    # The block numbering makes ((i, j), k) and (i, (j, k)) the same index,
    # so both associations enumerate identical quorum masks.
    t32 = components["T32"]
    left = compose_explicit(compose_explicit(t32, t32), t32)
    right = compose_explicit(t32, compose_explicit(t32, t32))
    assert left.n == right.n == 27
    assert set(left.quorum_masks()) == set(right.quorum_masks())

    p_left = compose_params(compose_params(*(build(mq.ThresholdSpec(3, 2)).params,) * 2),
                            build(mq.ThresholdSpec(3, 2)).params)
    p_right = compose_params(build(mq.ThresholdSpec(3, 2)).params,
                             compose_params(*(build(mq.ThresholdSpec(3, 2)).params,) * 2))
    assert (p_left.n, p_left.c, p_left.i_min, p_left.a_min) == \
        (p_right.n, p_right.c, p_right.i_min, p_right.a_min)
    assert p_left.load == pytest.approx(p_right.load, abs=1e-15)


def test_recursive_threshold_is_iterated_composition():
    for k, ell, h in [(4, 3, 2), (3, 2, 2), (3, 2, 3), (5, 3, 2)]:
        # The block composed over itself h - 1 times, as nested ComposedSpecs.
        block = mq.ThresholdSpec(k, ell)
        spec = block
        for _ in range(h - 1):
            spec = mq.ComposedSpec(block, spec)
        composed = build(spec)
        rt = build(mq.RTSpec(k, ell, h))
        explicit = rt.materialize(10 ** 4)
        assert explicit.quorum_masks() == composed.materialize(10 ** 4).quorum_masks()
        fields = ("n", "c", "i_min", "a_min", "b", "f")
        assert [getattr(rt.params, f) for f in fields] == \
            [getattr(composed.params, f) for f in fields]

        alive = np.random.default_rng(k * 100 + h).random((300, rt.n)) < 0.7
        want = explicit.live_batch(alive)
        assert 0 < want.sum() < len(want)
        assert (rt.live_batch(alive) == want).all()
        assert (composed.live_batch(alive) == want).all()

        for p in (0.05, 0.2, 0.5):
            assert mq.crash_prob_exact(rt, p).value == mq.rt_fp_recurrence(k, ell, h, p)
