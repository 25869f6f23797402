import logging
import math
import re

import numpy as np
import pytest

import maskquorum as mq
from maskquorum import ExplicitQuorumSystem, Rng, build
from maskquorum import availability
from maskquorum.availability import crash_profile
from maskquorum.errors import ApplicabilityError, ParameterError, SizeError
from maskquorum.paths import TriGrid, disjoint_path_counts

from oracles import brute_crash_probability, mgrid_crash_probability, packing_disjoint_paths


def exact(target, p):
    return mq.crash_prob_exact(target, p).value


def by_enumeration(target, p):
    """Crash probability from the 2^n crash profile, whatever route
    crash_prob_exact takes."""
    n = target.n
    return sum(int(kills) * p ** d * (1.0 - p) ** (n - d)
               for d, kills in enumerate(crash_profile(target)))


def _slow_mpath(handle) -> bool:
    # r >= 2 crossing-path systems enumerate through the dual fill; their exact
    # path is exercised once on the 3x3 grid instead of in every sweep.
    return isinstance(handle.spec, mq.MPathSpec) and handle.spec.r > 1


class TestCrashProbExact:
    def test_single_element(self):
        system = ExplicitQuorumSystem.from_masks(1, [0b1])
        for p in (0.0, 0.2, 0.7, 1.0):
            assert exact(system, p) == pytest.approx(p, abs=1e-12)

    def test_threshold_3_2_half(self):
        assert exact(build(mq.ThresholdSpec(3, 2)), 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_threshold_4_3_polynomial(self):
        handle = build(mq.ThresholdSpec(4, 3))
        for p in (0.1, 0.2324, 0.4):
            poly = 6 * p ** 2 - 8 * p ** 3 + 3 * p ** 4
            assert exact(handle, p) == pytest.approx(poly, abs=1e-12)

    def test_matches_independent_subset_sum(self, materialized):
        for name in ("Threshold(3,2)", "Threshold(4,3)", "FPP(2)", "MGrid(2,0)"):
            system = materialized[name]
            for p in (0.15, 0.5, 0.85):
                want = brute_crash_probability(system.n, system.quorum_masks(), p)
                assert exact(system, p) == pytest.approx(want, abs=1e-12), name

    def test_handle_and_explicit_agree(self, handles, materialized):
        for name, handle in handles.items():
            if handle.n > 21 or isinstance(handle.spec, mq.MPathSpec):
                continue
            assert exact(handle, 0.3) == pytest.approx(
                exact(materialized[name], 0.3), abs=1e-12), name

    def test_monotone_in_p(self, handles):
        grid = np.linspace(0.0, 1.0, 21)
        for name, handle in handles.items():
            if handle.n > 21 or _slow_mpath(handle):
                continue
            values = [exact(handle, p) for p in grid]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:])), name

    def test_size_error_directs_to_mc(self):
        # FPP(5) (n = 31) has no closed form, so it would need 2^31 subsets.
        with pytest.raises(SizeError, match="crash_prob_mc"):
            mq.crash_prob_exact(build(mq.FPPSpec(5)), 0.1)

    def test_exceeds_lower_bounds(self, handles):
        for name, handle in handles.items():
            if handle.n > 21 or _slow_mpath(handle):
                continue
            bounds_source = handle.params
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                value = exact(handle, p)
                bounds = mq.fp_lower_bounds(bounds_source, p)
                assert value >= bounds.p_mt - 1e-12, (name, p)
                assert value >= bounds.p_c2f - 1e-12, (name, p)
                if bounds.p_f is not None:
                    assert value >= bounds.p_f - 1e-12, (name, p)


class TestProfileMemo:
    @pytest.fixture
    def enumerated(self, monkeypatch):
        targets = []
        profile_of = availability._profile_of

        def counting_profile_of(target):
            targets.append(target)
            return profile_of(target)

        monkeypatch.setattr(availability, "_profile_of", counting_profile_of)
        return targets

    def test_handle_enumerates_once(self, enumerated):
        handle = build(mq.ThresholdSpec(3, 2))
        crash_profile(handle)
        crash_profile(handle)
        assert enumerated == [handle]

    def test_explicit_system_enumerates_once(self, enumerated):
        system = ExplicitQuorumSystem.from_masks(3, [0b011, 0b101, 0b110])
        exact(system, 0.2)
        exact(system, 0.7)
        assert enumerated == [system]

    def test_equal_systems_enumerate_once_each(self, enumerated):
        # The memo lives on the object: no cache is shared between equal systems.
        first = ExplicitQuorumSystem.from_masks(3, [0b011, 0b101, 0b110])
        second = ExplicitQuorumSystem.from_masks(3, [0b011, 0b101, 0b110])
        assert first == second and first is not second
        assert exact(first, 0.3) == exact(second, 0.3)
        assert [id(t) for t in enumerated] == [id(first), id(second)]


class TestCrashProbMc:
    def test_p_zero_is_exactly_zero(self):
        est = mq.crash_prob_mc(build(mq.ThresholdSpec(3, 2)), 0.0, trials=1000, seed=1)
        assert est.value == 0.0

    def test_within_three_sigma_of_exact(self):
        cases = [
            (build(mq.ThresholdSpec(3, 2)), 0.5, 100_000),
            (build(mq.MGridSpec(3, 0)), 0.3, 50_000),
            (build(mq.RTSpec(4, 3, 2)), 0.3, 50_000),
        ]
        for handle, p, trials in cases:
            est = mq.crash_prob_mc(handle, p, trials=trials, seed=7)
            want = exact(handle, p)
            assert est.kind == "monte_carlo" and est.seed == 7
            assert abs(est.value - want) <= 3 * max(est.std_error, 1e-4)

    def test_deterministic_given_seed(self):
        handle = build(mq.ThresholdSpec(4, 3))
        a = mq.crash_prob_mc(handle, 0.3, trials=30_000, seed=5)
        b = mq.crash_prob_mc(handle, 0.3, trials=30_000, seed=5)
        assert a.value == b.value

    def test_worker_count_invariant(self):
        handle = build(mq.MGridSpec(3, 0))
        one = mq.crash_prob_mc(handle, 0.4, trials=50_000, seed=3, workers=1)
        eight = mq.crash_prob_mc(handle, 0.4, trials=50_000, seed=3, workers=8)
        assert one.value == eight.value

    def test_flow_backed_mpath_at_n64(self, monkeypatch):
        # MPath(8,1) has r = 2 and n = 64, past the flood fill.  64 trials per
        # chunk make two workers split the 300 trials between them.
        monkeypatch.setattr(availability, "_MC_DOUBLES_PER_CHUNK", 64 * 64)
        handle = build(mq.MPathSpec(8, 1))
        p, trials, seed = 0.2, 300, 11
        one = mq.crash_prob_mc(handle, p, trials=trials, seed=seed, workers=1)
        two = mq.crash_prob_mc(handle, p, trials=trials, seed=seed, workers=2)
        assert one.value == two.value
        rejected = sum(
            not handle.live(mq.sample_crash_set(64, p, Rng(seed).at(t)).complement())
            for t in range(trials))
        assert 0 < rejected < trials
        assert one.value == rejected / trials

    def test_trials_validated(self):
        with pytest.raises(ParameterError):
            mq.crash_prob_mc(build(mq.ThresholdSpec(3, 2)), 0.5, trials=0, seed=0)


class TestRouteLogging:
    """crash_prob_exact and crash_prob_mc log their route at DEBUG."""

    @staticmethod
    def _messages(caplog, prefix):
        return [r.getMessage() for r in caplog.records
                if r.name == "maskquorum" and r.levelname == "DEBUG"
                and r.getMessage().startswith(prefix)]

    def test_exact_logs_route_n_p_and_time(self, caplog):
        caplog.set_level(logging.DEBUG, logger="maskquorum")
        mq.crash_prob_exact(build(mq.FPPSpec(2)), 0.25)
        mq.crash_prob_exact(build(mq.ThresholdSpec(3, 2)), 0.5)
        enum, closed = self._messages(caplog, "crash_prob_exact:")
        assert re.fullmatch(r"crash_prob_exact: route=enumeration n=7 p=0\.25 "
                            r"elapsed=\d+\.\d{3} ms", enum)
        assert re.fullmatch(r"crash_prob_exact: route=closed_form n=3 p=0\.5 "
                            r"elapsed=\d+\.\d{3} ms", closed)

    @pytest.mark.parametrize("spec", [
        mq.RTSpec(4, 3, 5), mq.BoostFPPSpec(3, 19),
        mq.ComposedSpec(mq.FPPSpec(2), mq.MPathSpec(2, 0))], ids=repr)
    def test_composition_logs_one_line(self, caplog, spec):
        # The parts of a composition are exact values of its closed form, not
        # calls of their own.
        handle = build(spec)
        caplog.set_level(logging.DEBUG, logger="maskquorum")
        mq.crash_prob_exact(handle, 1 / 8)
        [line] = self._messages(caplog, "crash_prob_exact:")
        assert re.fullmatch(rf"crash_prob_exact: route=closed_form n={handle.n} p=0\.125 "
                            r"elapsed=\d+\.\d{3} ms", line)

    def test_mc_logs_trials_seed_workers_and_chunks(self, caplog, monkeypatch):
        monkeypatch.setattr(availability, "_MC_DOUBLES_PER_CHUNK", 9 * 100)
        caplog.set_level(logging.DEBUG, logger="maskquorum")
        mq.crash_prob_mc(build(mq.MGridSpec(3, 0)), 0.3, trials=1000, seed=4, workers=2)
        [line] = self._messages(caplog, "crash_prob_mc:")
        assert re.fullmatch(r"crash_prob_mc: route=monte_carlo n=9 p=0\.3 trials=1000 "
                            r"seed=4 workers=2 chunks=10 elapsed=\d+\.\d{3} ms", line)

    def test_silent_above_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="maskquorum")
        mq.crash_prob_exact(build(mq.ThresholdSpec(3, 2)), 0.5)
        mq.crash_prob_mc(build(mq.ThresholdSpec(3, 2)), 0.5, trials=100, seed=0, workers=1)
        assert not [r for r in caplog.records if r.name == "maskquorum"]


class TestFpLowerBounds:
    def test_rt_depth5_transversal_bound(self):
        params = build(mq.RTSpec(4, 3, 5)).params
        bounds = mq.fp_lower_bounds(params, 1 / 8)
        assert bounds.p_mt == pytest.approx((1 / 8) ** 32)

    def test_p_one_all_ones(self):
        # Threshold(5,4) has a_min = 2 <= (i_min + 1)/2 = 2, so p_f applies.
        params = build(mq.ThresholdSpec(5, 4)).params
        bounds = mq.fp_lower_bounds(params, 1.0)
        assert bounds.p_mt == 1.0 and bounds.p_c2f == 1.0
        assert bounds.p_f == 1.0

    def test_mgrid_7_3_pf_not_applicable(self):
        params = build(mq.MGridSpec(7, 3)).params
        bounds = mq.fp_lower_bounds(params, 0.5)
        assert bounds.p_f is None  # a_min = 6 > (i_min + 1) / 2
        assert bounds.p_mt == pytest.approx(0.5 ** 6)

    def test_pf_applicable_for_rt(self):
        params = build(mq.RTSpec(4, 3, 2)).params  # a_min = 4, i_min = 4: 4 <= 2.5? no
        assert mq.fp_lower_bounds(params, 0.3).p_f is None
        boosted = build(mq.BoostFPPSpec(2, 2)).params  # a_min = 9, i_min = 5
        assert mq.fp_lower_bounds(boosted, 0.3).p_f is None
        tight = mq.SystemParams(n=10, c=5, i_min=9, a_min=5, load=0.5)
        assert mq.fp_lower_bounds(tight, 0.3).p_f == pytest.approx(0.3 ** (tight.b + 1))


class TestThresholdG:
    def test_4_3_point(self):
        got = mq.threshold_g(4, 3, 0.2)
        assert got.exact == pytest.approx(0.1808, abs=1e-12)
        assert got.lemma_upper == pytest.approx(6 * 0.2 ** 2)

    def test_p_zero(self):
        assert mq.threshold_g(5, 4, 0.0) == (0.0, 0.0)

    def test_exact_below_lemma_upper_sweep(self):
        for k in range(3, 13):
            for ell in range(k // 2 + 1, k):
                for p in np.linspace(0.0, 1.0, 101):
                    got = mq.threshold_g(k, ell, float(p))
                    assert got.exact <= got.lemma_upper + 1e-12, (k, ell, p)

    def test_matches_exact_crash_probability(self):
        for k, ell in ((3, 2), (4, 3), (5, 3), (7, 4)):
            handle = build(mq.ThresholdSpec(k, ell))
            for p in (0.1, 0.35, 0.6):
                assert mq.threshold_g(k, ell, p).exact == pytest.approx(
                    by_enumeration(handle, p), abs=1e-12)


class TestLargeThreshold:
    """Past k = 1029, C(k, k/2) passes the double range; the closed forms
    then sum in exact integers and still return finite values in [0, 1]."""

    def test_threshold_g_at_k_2000(self):
        for ell in (1001, 1500):
            for p in (0.0, 1e-3, 0.1, 0.5, 1.0):
                got = mq.threshold_g(2000, ell, p)
                assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in got), (ell, p)
                assert got.exact <= got.lemma_upper, (ell, p)

    def test_threshold_g_exact_at_half(self):
        # At p = 1/2 the tail is a count of subsets over 2^k.
        k, ell = 2000, 1500
        want = sum(math.comb(k, j) for j in range(k - ell + 1, k + 1)) / 2 ** k
        assert mq.threshold_g(k, ell, 0.5).exact == want

    def test_rt_fp_upper_at_k_2000(self):
        assert mq.rt_fp_upper(2000, 1500, 2, 0.1) == 1.0
        assert mq.rt_fp_upper(2000, 1500, 2, 0.0) == 0.0

    def test_composed_exact_at_k_2001(self):
        # BoostFPP(3,500): FPP(3) over the 1501-of-2001 block, n = 26 013.
        est = mq.crash_prob_exact(build(mq.BoostFPPSpec(3, 500)), 0.2)
        assert est.route == "closed_form"
        assert math.isfinite(est.value) and 0.0 < est.value < 1e-20


# One large instance per family, n from 10^4 to 10^6, with the error its
# exact route raises (None where it has a closed form).
LARGE_INSTANCES = {
    "MGrid(128,63)": (mq.MGridSpec(128, 63), None),
    "RT(4,3,7)": (mq.RTSpec(4, 3, 7), None),
    "FPP(101)": (mq.FPPSpec(101), SizeError),
    "BoostFPP(3,315)": (mq.BoostFPPSpec(3, 315), None),
    "MPath(128,100)": (mq.MPathSpec(128, 100), SizeError),
    "MGrid(32,15) o Threshold(1100,900)":
        (mq.ComposedSpec(mq.MGridSpec(32, 15), mq.ThresholdSpec(1100, 900)), None),
}


class TestLargeInstances:
    """Every family's exact route and published bounds at a large instance:
    each value is finite in [0, 1] or None, or the route refuses by name."""

    @pytest.mark.parametrize("name", LARGE_INSTANCES)
    def test_exact_route_and_bounds(self, name):
        spec, refusal = LARGE_INSTANCES[name]
        handle = build(spec)
        values = []
        if refusal is None:
            route, crash_prob = handle.exact_route()
            assert route == "closed_form"
            values += [crash_prob(p) for p in (1 / 8, 1 / 4)]
        else:
            with pytest.raises(refusal):
                handle.exact_route()
        for p in (1 / 8, 1 / 4):
            bounds = handle.published_bounds(p)
            assert isinstance(bounds.pop("inapplicable", ""), str)
            values += bounds.values()
        assert all(v is None or (math.isfinite(v) and 0.0 <= v <= 1.0) for v in values), values


class TestRtRecurrence:
    def test_depth_zero_is_p(self):
        assert mq.rt_fp_recurrence(4, 3, 0, 0.37) == 0.37

    def test_depth_one(self):
        assert mq.rt_fp_recurrence(4, 3, 1, 0.2) == pytest.approx(0.1808, abs=1e-12)

    def test_fixed_point_is_stationary(self):
        pc = 0.2324
        for h in (1, 3, 6):
            assert mq.rt_fp_recurrence(4, 3, h, pc) == pytest.approx(pc, abs=1e-3)

    def test_matches_exact_for_materializable_depths(self):
        for k, ell, h in ((3, 2, 2), (4, 3, 2)):
            handle = build(mq.RTSpec(k, ell, h))
            for p in (0.1, 0.3, 0.6):
                assert mq.rt_fp_recurrence(k, ell, h, p) == pytest.approx(
                    by_enumeration(handle, p), abs=1e-12)

    def test_s_shape_monotone_in_depth(self):
        # Below the fixed point the recurrence decreases strictly with depth,
        # above it increases; the grid keeps clear of the fixed point and of
        # float saturation at the endpoints.
        for k, ell in ((4, 3), (5, 4)):
            pc = mq.rt_critical_probability(k, ell).value
            for p in np.arange(0.05, 0.61, 0.025):
                if abs(p - pc) <= 1e-3:
                    continue
                values = [mq.rt_fp_recurrence(k, ell, h, float(p)) for h in range(5)]
                if p < pc:
                    assert all(a > b for a, b in zip(values, values[1:])), (k, ell, p)
                else:
                    assert all(a < b for a, b in zip(values, values[1:])), (k, ell, p)


class TestRtCriticalProbability:
    def test_4_3(self):
        got = mq.rt_critical_probability(4, 3)
        assert got.value == pytest.approx(0.2324, abs=5e-4)
        assert got.below_half

    def test_majority_of_three_sits_at_half(self):
        got = mq.rt_critical_probability(3, 2)
        assert got.value == pytest.approx(0.5, abs=1e-9)
        assert not got.below_half

    def test_5_4_matches_grid_scan(self):
        # Fine-grid scan oracle: locate the sign change of g(p) - p directly
        # from the binomial tail, independently of the bisection code.
        got = mq.rt_critical_probability(5, 4)
        ps = np.linspace(0.001, 0.999, 99_901)
        vals = np.array([sum(math.comb(5, j) * p ** j * (1 - p) ** (5 - j)
                             for j in range(2, 6)) - p for p in ps])
        sign_changes = np.nonzero(np.diff(np.sign(vals)) > 0)[0]
        assert len(sign_changes) == 1
        lo, hi = ps[sign_changes[0]], ps[sign_changes[0] + 1]
        assert lo <= got.value <= hi

    def test_fixed_point_property(self):
        got = mq.rt_critical_probability(4, 3)
        assert mq.threshold_g(4, 3, got.value).exact == pytest.approx(got.value, abs=1e-9)

    def test_rejects_degenerate(self):
        with pytest.raises(ParameterError):
            mq.rt_critical_probability(1, 1)


class TestRtFpUpper:
    def test_published_point(self):
        assert mq.rt_fp_upper(4, 3, 5, 1 / 8) == pytest.approx(0.75 ** 32)

    def test_p_zero(self):
        assert mq.rt_fp_upper(4, 3, 5, 0.0) == 0.0

    def test_vacuous_above_inverse_binomial(self):
        assert mq.rt_fp_upper(4, 3, 5, 1 / 6) == 1.0
        assert mq.rt_fp_upper(4, 3, 5, 0.9) == 1.0

    def test_dominates_recurrence(self):
        for h in (0, 1, 2, 3):
            rec = mq.rt_fp_recurrence(4, 3, h, 0.1)
            assert rec <= mq.rt_fp_upper(4, 3, h, 0.1) + 1e-12

    def test_huge_depth_underflows_to_zero(self):
        assert mq.rt_fp_upper(4, 3, 500, 0.01) == 0.0


class TestBoostFppUpper:
    def test_published_point(self):
        bound = mq.boostfpp_fp_upper(3, 19, 1 / 8)
        assert bound.paper_form == pytest.approx(0.372, abs=1e-3)
        gamma = 20 / 77 - 1 / 8
        assert bound.chernoff_form == pytest.approx(4 * math.exp(-2 * 77 * gamma ** 2))

    def test_requires_p_below_quarter(self):
        with pytest.raises(ApplicabilityError):
            mq.boostfpp_fp_upper(3, 19, 0.25)

    def test_near_quarter_vacuous(self):
        bound = mq.boostfpp_fp_upper(3, 19, 0.2499)
        assert bound.paper_form == 1.0

    def test_mc_respects_bound(self):
        for q, b in ((2, 2), (2, 10)):
            handle = build(mq.BoostFPPSpec(q, b))
            bound = mq.boostfpp_fp_upper(q, b, 0.1).paper_form
            est = mq.crash_prob_mc(handle, 0.1, trials=100_000, seed=13)
            assert est.value <= bound + 3 * max(est.std_error, 1e-4)


class TestMgridFpLower:
    def test_published_point(self):
        value = mq.mgrid_fp_lower(32, 1 / 8)
        assert value == pytest.approx(0.6386, abs=1e-3)
        assert value == pytest.approx(0.638, abs=1e-3)

    def test_p_zero(self):
        assert mq.mgrid_fp_lower(32, 0.0) == 0.0

    def test_below_exact(self):
        for spec, ps in ((mq.MGridSpec(3, 0), (0.1, 0.3, 0.6)),
                         (mq.MGridSpec(4, 1), (0.1, 0.3, 0.6))):
            handle = build(spec)
            for p in ps:
                assert mq.mgrid_fp_lower(spec.side, p) <= exact(handle, p) + 1e-12


class TestMpathBounds:
    def test_lr_failure_value(self):
        side, p = 32, 1 / 7
        want = side * (3 * p) ** side / (1 - 3 * p)
        assert mq.mpath_lr_failure_upper(side, p) == pytest.approx(want, rel=1e-12)

    def test_lr_failure_p_zero(self):
        assert mq.mpath_lr_failure_upper(16, 0.0) == 0.0

    def test_lr_failure_requires_p_below_third(self):
        with pytest.raises(ApplicabilityError):
            mq.mpath_lr_failure_upper(16, 0.34)

    def test_lr_failure_mc(self):
        # Monte Carlo estimate of Pr(no open crossing path) on the 5x5 grid.
        side, p, trials = 5, 0.1, 1_000_000
        rng = Rng(21)
        n = side * side
        blocked = 0
        chunk = 100_000
        for t0 in range(0, trials, chunk):
            u = rng.uniform_draws(t0 * n, chunk * n).reshape(chunk, n)
            alive = u >= p
            lr_ok = disjoint_path_counts(side, alive, 1)[:, 0] >= 1
            blocked += int((~lr_ok).sum())
        rate = blocked / trials
        sigma = math.sqrt(max(rate * (1 - rate) / trials, 1e-12))
        assert rate <= mq.mpath_lr_failure_upper(side, p) + 3 * sigma

    def test_interior_examples(self):
        assert mq.interior_bound(0, 0.1, 0.2, 0.37) == 0.37
        mult = ((1 - 1 / 8) / (1 / 7 - 1 / 8)) ** 3
        assert mult == pytest.approx(49 ** 3)
        tail = 1e-9
        assert mq.interior_bound(3, 1 / 8, 1 / 7, tail) == pytest.approx(mult * tail)

    def test_interior_monotone_in_r(self):
        values = [mq.interior_bound(r, 0.1, 0.2, 1e-12) for r in range(6)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_interior_domain(self):
        with pytest.raises(ParameterError):
            mq.interior_bound(1, 0.3, 0.2, 0.5)
        with pytest.raises(ParameterError):
            mq.interior_bound(1, 0.1, 0.2, 1.5)

    def test_mpath_upper_published_point(self):
        bound = mq.mpath_fp_upper(32, 7, 1 / 8, 1 / 7)
        assert bound <= 0.001
        assert bound == pytest.approx(2.21e-5, rel=0.01)

    def test_mpath_upper_depth_zero(self):
        tail = mq.mpath_lr_failure_upper(9, 0.2)
        assert mq.mpath_fp_upper(9, 0, 0.1, 0.2) == pytest.approx(min(1.0, 2 * tail))

    def test_mpath_upper_regime(self):
        with pytest.raises(ApplicabilityError):
            mq.mpath_fp_upper(32, 7, 0.2, 0.1)
        with pytest.raises(ApplicabilityError):
            mq.mpath_fp_upper(32, 7, 0.3, 0.35)


class TestBinomRatio:
    def test_examples(self):
        assert mq.binom_ratio_check(5, 2, 1)
        assert mq.binom_ratio_check(9, 4, 0)

    def test_exhaustive_up_to_15(self):
        for k in range(16):
            for d in range(k + 1):
                for i in range(k - d + 1):
                    assert mq.binom_ratio_check(k, d, i), (k, d, i)

    def test_domain(self):
        with pytest.raises(ParameterError):
            mq.binom_ratio_check(5, 3, 4)


class TestClamping:
    def test_all_bounds_within_unit_interval(self):
        params = build(mq.RTSpec(4, 3, 3)).params
        for p in np.linspace(0.0, 1.0, 11):
            p = float(p)
            bounds = mq.fp_lower_bounds(params, p)
            for v in (bounds.p_mt, bounds.p_c2f, bounds.p_f):
                assert v is None or 0.0 <= v <= 1.0
            g = mq.threshold_g(4, 3, p)
            assert 0.0 <= g.exact <= 1.0 and 0.0 <= g.lemma_upper <= 1.0
            assert 0.0 <= mq.rt_fp_upper(4, 3, 4, p) <= 1.0
            assert 0.0 <= mq.mgrid_fp_lower(9, p) <= 1.0
            if p < 0.25:
                b = mq.boostfpp_fp_upper(2, 3, p)
                assert 0.0 <= b.paper_form <= 1.0 and 0.0 <= b.chernoff_form <= 1.0
            if p < 1 / 3:
                assert 0.0 <= mq.mpath_lr_failure_upper(6, p) <= 1.0
                if p < 0.3:
                    assert 0.0 <= mq.mpath_fp_upper(6, 1, p, 0.32) <= 1.0


class TestMpathExact:
    def test_profile_vs_mc_and_bound(self, mpath5_handle):
        handle = mpath5_handle
        value = exact(handle, 0.1)
        est = mq.crash_prob_mc(handle, 0.1, trials=100_000, seed=17)
        assert abs(est.value - value) <= 3 * max(est.std_error, 1e-5)
        assert value <= mq.mpath_fp_upper(5, 0, 0.1, 0.2)

    def test_mc_at_p03_matches_enumeration(self, mpath5_handle):
        want = exact(mpath5_handle, 0.3)
        est = mq.crash_prob_mc(mpath5_handle, 0.3, trials=100_000, seed=29)
        assert abs(est.value - want) <= 3 * est.std_error

    def test_profile_total(self, mpath5_handle):
        profile = crash_profile(mpath5_handle)
        assert profile.sum() <= 1 << 25
        assert profile[25] == 1  # killing everything always crashes the system
        assert profile[0] == 0   # no crashes leaves the full grid live

    def test_exceeds_lower_bounds(self, mpath5_handle):
        for p in (0.1, 0.3, 0.5, 0.7):
            value = exact(mpath5_handle, p)
            bounds = mq.fp_lower_bounds(mpath5_handle.params, p)
            assert value >= bounds.p_mt - 1e-12
            assert value >= bounds.p_c2f - 1e-12

    def test_flow_backed_exact_on_3x3(self):
        # The r = 2 exact path runs the batched dual fill; cross-check the whole
        # profile against a direct loop over the live predicate.
        handle = build(mq.MPathSpec(3, 1))
        from maskquorum import ElementSet
        want = np.zeros(10, dtype=np.int64)
        for alive_mask in range(1 << 9):
            alive = ElementSet(9, alive_mask).as_bool()[None]
            if not (disjoint_path_counts(3, alive, 2) >= 2).all():
                want[9 - alive_mask.bit_count()] += 1
        assert np.array_equal(crash_profile(handle), want)

    def test_flow_backed_exact_matches_path_packing(self):
        # Independent of the dual-fill code: exhaustive path packing decides
        # every one of the 512 alive sets of MPath(3,1).
        grid = TriGrid(3)
        want = np.zeros(10, dtype=np.int64)
        for alive_mask in range(1 << 9):
            if min(packing_disjoint_paths(grid, alive_mask, o) for o in ("LR", "TB")) < 2:
                want[9 - alive_mask.bit_count()] += 1
        assert np.array_equal(crash_profile(build(mq.MPathSpec(3, 1))), want)


class TestMpathProfile:
    """MPath enumerates on grid words, and at r = 1 over half the crash sets
    by Hex duality; these check it against enumerations that do neither."""

    @staticmethod
    def live_batch_profile(handle):
        """The default enumeration: live_batch on unpacked boolean rows."""
        return sum(availability.live_batch_kills(handle))

    @pytest.mark.parametrize("side, b", [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1)])
    def test_matches_live_batch_enumeration(self, side, b):
        handle = build(mq.MPathSpec(side, b))
        assert np.array_equal(crash_profile(handle), self.live_batch_profile(handle))

    def test_every_valid_spec_up_to_side_4_is_covered(self):
        valid = set()
        for side in range(2, 5):
            for b in range(side * side):
                try:
                    mq.MPathSpec(side, b)
                except ParameterError:
                    continue
                valid.add((side, b))
        assert valid == {(2, 0), (3, 0), (3, 1), (4, 0), (4, 1)}

    @pytest.mark.parametrize("side, b, want", [
        # The max-flow oracle's counts (perfbench/reference.py, MPATH_PROFILES).
        (4, 0, [0, 0, 0, 0, 39, 436, 2149, 5872, 9737, 10472, 7841, 4348, 1819, 560,
                120, 16, 1]),
        (3, 1, [0, 0, 27, 83, 126, 126, 84, 36, 9, 1]),
    ])
    def test_matches_max_flow_counts(self, side, b, want):
        assert crash_profile(build(mq.MPathSpec(side, b))).tolist() == want

    def test_enumerates_once_through_profile_of(self, monkeypatch):
        enumerated = []
        profile_of = availability._profile_of

        def recording_profile_of(target):
            enumerated.append(target)
            return profile_of(target)

        monkeypatch.setattr(availability, "_profile_of", recording_profile_of)
        handle = build(mq.MPathSpec(3, 0))
        values = [exact(handle, p) for p in (0.1, 0.3)]
        assert enumerated == [handle]
        assert values == pytest.approx([by_enumeration(handle, p) for p in (0.1, 0.3)], rel=1e-12)


# Systems with a closed form small enough to enumerate, beside the roster:
# compositions whose parts have none, and BoostFPP at b = 0.
CLOSED_FORM_EXTRAS = {
    "MPath(2,0) o Threshold(3,2)": mq.ComposedSpec(mq.MPathSpec(2, 0), mq.ThresholdSpec(3, 2)),
    "Threshold(3,2) o MPath(2,0)": mq.ComposedSpec(mq.ThresholdSpec(3, 2), mq.MPathSpec(2, 0)),
    "FPP(2) o Threshold(3,2)": mq.ComposedSpec(mq.FPPSpec(2), mq.ThresholdSpec(3, 2)),
    "BoostFPP(2,0)": mq.BoostFPPSpec(2, 0),
}


def _route(handle):
    """The handle's exact route, or None where it has none."""
    try:
        return handle.exact_route()[0]
    except SizeError:
        return None


TABLE8_SPECS = [mq.MGridSpec(32, 15), mq.RTSpec(4, 3, 5), mq.BoostFPPSpec(3, 19),
                mq.MPathSpec(32, 7)]


class TestClosedForms:
    P_GRID = (0.05, 0.125, 0.3, 0.5, 0.9)

    def test_matches_enumeration(self, handles):
        targets = dict(handles)
        targets.update((name, build(spec)) for name, spec in CLOSED_FORM_EXTRAS.items())
        checked = []
        for name, handle in targets.items():
            if handle.n > 25 or handle.exact_route()[0] != "closed_form":
                continue
            checked.append(name)
            for p in self.P_GRID:
                est = mq.crash_prob_exact(handle, p)
                assert est.route == "closed_form", name
                want = by_enumeration(handle, p)
                assert est.value == pytest.approx(want, abs=1e-12), (name, p)
        # 11 roster systems and the 4 extras: none is skipped by accident.
        assert len(checked) == 15

    def test_routes(self, handles):
        for name in ("FPP(2)", "MPath(4,1)"):
            assert handles[name].exact_route()[0] == "enumeration", name
            assert mq.crash_prob_exact(handles[name], 0.5).route == "enumeration", name
        system = ExplicitQuorumSystem.from_masks(3, [0b011, 0b101, 0b110])
        assert mq.crash_prob_exact(system, 0.5).route == "enumeration"

    def test_mgrid_matches_rational_sum(self):
        # Term by term in rationals, at dyadic p where that stays fast; g = 3
        # and g = 4 are past every enumerable grid.
        for side, b in ((9, 4), (32, 15)):
            g = mq.MGridSpec(side, b).g
            for p in (1 / 32, 1 / 16, 1 / 8):
                assert mq.mgrid_fp_exact(side, b, p) == pytest.approx(
                    mgrid_crash_probability(side, g, p), rel=1e-14, abs=0), (side, b, p)

    def test_mgrid_endpoints(self):
        assert mq.mgrid_fp_exact(32, 15, 0.0) == 0.0
        assert mq.mgrid_fp_exact(32, 15, 1.0) == 1.0
        with pytest.raises(ParameterError):
            mq.mgrid_fp_exact(32, 16, 0.1)

    def test_published_bounds_point_the_right_way(self, handles):
        # Every entry of published_bounds against the exact crash probability,
        # on the roster and the Table 8 systems; a system without a closed
        # form is skipped past n = 16, so no new 2^n enumeration runs.
        lower = {"p_mt", "p_c2f", "p_f", "mgrid_fp_lower"}
        upper = {"rt_fp_upper", "boostfpp_fp_upper", "boostfpp_fp_upper_chernoff",
                 "mpath_fp_upper"}
        targets = dict(handles)
        targets.update((repr(spec), build(spec)) for spec in TABLE8_SPECS)
        checked = []
        for name, handle in targets.items():
            if handle.n > 16 and _route(handle) != "closed_form":
                continue
            checked.append(name)
            for p in (0.02, 0.05, 0.1, 0.125, 0.2, 0.24, 0.3, 0.5, 0.9):
                value = mq.crash_prob_exact(handle, p).value
                for key, bound in handle.published_bounds(p).items():
                    where = (name, p, key)
                    if key in lower:
                        assert bound is None or bound <= value + 1e-12, where
                    elif key in upper:
                        assert value <= bound + 1e-12, where
                    elif key == "rt_critical_probability":
                        # The recursion pulls p down below its fixed point, up above it.
                        if abs(p - bound) > 1e-6:
                            assert (value < p) == (p < bound), where
                    else:
                        assert key in ("p_prime", "inapplicable"), where
        # 16 roster systems (MPath(5,0) and MPath(5,2) skipped) and three
        # Table 8 systems (MPath(32,7) skipped), none skipped by accident.
        assert len(checked) == 19
        for spec in TABLE8_SPECS[:3]:
            assert mq.crash_prob_exact(build(spec), 1 / 8).route == "closed_form"

    def test_composed_part_without_route_refuses_past_cap(self):
        # FPP(5) has no closed form and n = 31: the size error is the part's.
        handle = build(mq.ComposedSpec(mq.FPPSpec(5), mq.ThresholdSpec(3, 2)))
        with pytest.raises(SizeError, match="n=31"):
            mq.crash_prob_exact(handle, 0.1)
        with pytest.raises(SizeError, match="n=31"):
            handle.exact_route()

    @pytest.mark.parametrize("spec, p", [
        (mq.MGridSpec(32, 15), 0.05),
        (mq.RTSpec(4, 3, 5), 0.23),
    ], ids=["MGrid(32,15)", "RT(4,3,5)"])
    def test_mc_agrees_at_n1024(self, spec, p):
        handle = build(spec)
        want = mq.crash_prob_exact(handle, p).value
        trials = 10 ** 5
        est = mq.crash_prob_mc(handle, p, trials=trials, seed=1, workers=1)
        sigma = math.sqrt(want * (1.0 - want) / trials)
        assert abs(est.value - want) <= 4 * sigma
