import itertools
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import maskquorum as mq
from maskquorum import ExplicitQuorumSystem, analysis, build
from maskquorum.errors import ApplicabilityError, ParameterError, SizeError

from oracles import brute_resilience, greedy_cover_size

# Explicit systems on up to 12 elements whose quorums may be disjoint.
random_systems = st.integers(1, 12).flatmap(lambda n: st.sets(
    st.integers(1, (1 << n) - 1), min_size=1, max_size=20).map(
        lambda masks: ExplicitQuorumSystem.from_masks(n, sorted(masks))))


@st.composite
def wide_systems(draw):
    """Explicit systems on up to 12 elements with up to 100 quorums, so that
    a search node's unhit quorums may span two words."""
    n = draw(st.integers(1, 12))
    m = min(draw(st.integers(1, 100)), (1 << n) - 1)
    masks = draw(st.sets(st.integers(1, (1 << n) - 1), min_size=m, max_size=m))
    return ExplicitQuorumSystem.from_masks(n, sorted(masks))


# A random system with a masking level b from 0 to n + 2.
masking_cases = random_systems.flatmap(
    lambda system: st.tuples(st.just(system), st.integers(0, system.n + 2)))


class TestCombinatorialParams:
    def test_threshold_4_3(self):
        system = build(mq.ThresholdSpec(4, 3)).materialize(10)
        assert mq.combinatorial_params(system) == (3, 2, 2)

    def test_fano(self):
        assert mq.combinatorial_params(mq.fpp_lines(2)) == (3, 1, 3)

    def test_mgrid_2_0(self):
        # Four quorums of size 3 on n=4; every pair of 3-subsets of a 4-set
        # meets in 2 elements, and {0, 3} is a minimum transversal.
        system = build(mq.MGridSpec(2, 0)).materialize(10)
        assert mq.combinatorial_params(system) == (3, 2, 2)

    def test_single_quorum_reports_c(self):
        system = ExplicitQuorumSystem.from_masks(4, [0b0111])
        assert mq.combinatorial_params(system) == (3, 3, 1)

    def test_size_guard(self):
        # n > 30 and quorum count > 1e4 trips the transversal size guard.
        n = 31
        masks = [0b11 | ((i + 1) << 2) for i in range(10_001)]
        system = ExplicitQuorumSystem.from_masks(n, masks)
        with pytest.raises(SizeError):
            mq.combinatorial_params(system)


class TestMaskingLevel:
    def test_fano_is_zero(self):
        assert mq.masking_level(mq.fpp_lines(2)) == 0

    def test_rt_4_3_depth2(self):
        system = build(mq.RTSpec(4, 3, 2)).materialize(300)
        assert mq.masking_level(system) == 1

    def test_threshold_5_4(self):
        system = build(mq.ThresholdSpec(5, 4)).materialize(10)
        assert mq.masking_level(system) == 1

    def test_equals_largest_checkable_b(self, materialized):
        # Level + 1 fails on a pair or on the shared minimum transversal, at
        # every n.
        for name, system in materialized.items():
            level = mq.masking_level(system)
            assert mq.check_masking(system, level).ok, name
            assert not mq.check_masking(system, level + 1).ok, name


class TestCheckMasking:
    def test_threshold_4_3(self):
        system = build(mq.ThresholdSpec(4, 3)).materialize(10)
        assert mq.check_masking(system, 0).ok
        result = mq.check_masking(system, 1)
        assert not result.ok
        assert result.violating_pair is not None

    def test_mgrid_4_1(self):
        system = build(mq.MGridSpec(4, 1)).materialize(100)
        assert mq.check_masking(system, 1).ok

    def test_fano_witness(self):
        fano = mq.fpp_lines(2)
        result = mq.check_masking(fano, 1)
        assert not result.ok
        i, j = result.violating_pair
        masks = fano.quorum_masks()
        assert (masks[i] & masks[j]).bit_count() == 1

    def test_blocking_set_witness(self):
        # {{0,1},{0,2},{1,2}} has a_min = 2, so b = 2 must fail resilience
        # with a 2-element blocking set.
        system = ExplicitQuorumSystem.from_masks(3, [0b011, 0b101, 0b110])
        result = mq.check_masking(system, 2)
        assert not result.ok
        # Intersections of size 1 already fail at b = 2; drop to the
        # resilience-only regime with b = 1 on a wider system.
        wide = build(mq.ThresholdSpec(5, 4)).materialize(10)
        assert mq.check_masking(wide, 1).ok
        # Every pair shares {0, 1, 2}, enough for b = 1, but crashing
        # element 0 alone hits every quorum.
        star = ExplicitQuorumSystem.from_masks(6, [0b001111, 0b010111, 0b100111])
        result = mq.check_masking(star, 1)
        assert not result.ok and result.violating_pair is None
        assert len(result.blocking_set) == 1
        assert all(q & result.blocking_set.mask for q in star.quorum_masks())

    @given(random_systems, st.integers(0, 4))
    def test_violating_pair_is_a_smallest_intersection(self, system, b):
        masks = system.quorum_masks()
        result = mq.check_masking(system, b)
        if b >= system.n or system.m == 1:
            assert result.violating_pair is None
            return
        smallest = min((x & y).bit_count() for x, y in itertools.combinations(masks, 2))
        if smallest >= 2 * b + 1:
            assert result.violating_pair is None
        else:
            i, j = result.violating_pair
            assert i < j
            assert (masks[i] & masks[j]).bit_count() == smallest

    @given(masking_cases)
    def test_matches_brute_force(self, case):
        # Resilience has one route, the shared minimum transversal; brute
        # force walks every b-subset and every pair.
        system, b = case
        masks = system.quorum_masks()
        result = mq.check_masking(system, b)
        pairs = [(x & y).bit_count() for x, y in itertools.combinations(masks, 2)]
        want = (b < system.n and brute_resilience(system.n, masks) >= b
                and (system.m == 1 or min(pairs) >= 2 * b + 1))
        assert result.ok == want
        assert want == (result.violating_pair is None and result.blocking_set is None)
        if result.violating_pair is not None:
            i, j = result.violating_pair
            assert (masks[i] & masks[j]).bit_count() < 2 * b + 1
        if result.blocking_set is not None:
            assert len(result.blocking_set) <= b
            assert all(q & result.blocking_set.mask for q in masks)

    def test_smallest_pair_in_the_last_kernel_block(self):
        # 2001 quorums, so the pairwise kernel splits the rows into blocks.
        # The first 1999 contain {0, 1, 2}; the last two, {0, 1, 3} and
        # {0, 2, 4}, meet the others in 2 elements and each other in 1.
        masks = [0b111 | x << 5 for x in range(1, 2000)] + [0b01011, 0b10101]
        system = ExplicitQuorumSystem.from_masks(16, masks)
        assert mq.check_masking(system, 1).violating_pair == (1999, 2000)
        assert mq.combinatorial_params(system).i_min == 1


def _searched(system, caplog):
    """(size, witness, nodes visited) of one logged transversal search."""
    caplog.set_level(logging.DEBUG, logger="maskquorum")
    caplog.clear()
    size, witness = analysis._search_transversal(system)
    assert witness.bit_count() == size
    assert all(q & witness for q in system.quorum_masks())
    [record] = [r for r in caplog.records if "transversal search" in r.getMessage()]
    return size, witness, int(re.search(r"nodes=(\d+)", record.getMessage())[1])


class TestMinTransversal:
    @given(wide_systems())
    def test_matches_brute_force(self, system):
        size, witness = analysis._min_transversal(system)
        assert size == brute_resilience(system.n, system.quorum_masks()) + 1
        assert witness.bit_count() == size
        assert all(q & witness for q in system.quorum_masks())

    @pytest.mark.parametrize("spec, a_min", [
        (mq.ThresholdSpec(13, 7), 7),    # 1716 quorums: 27 words each
        (mq.ThresholdSpec(70, 69), 2),   # n = 70: two words per element set
    ])
    def test_multiword_threshold(self, spec, a_min, caplog):
        system = build(spec).materialize(10 ** 4)
        assert _searched(system, caplog)[0] == a_min

    def test_beats_greedy_over_many_blocks(self, caplog):
        # Greedy stops at 10 elements; the search needs more than one block
        # of nodes to find and prove the optimum of 6.
        system = build(mq.BoostFPPSpec(2, 1)).materialize(10 ** 4)
        assert greedy_cover_size(system.n, system.quorum_masks()) == 10
        size, _, nodes = _searched(system, caplog)
        assert size == 6
        assert nodes > analysis.SEARCH_NODES

    def test_one_node_blocks_find_the_optimum(self, caplog, monkeypatch):
        # Wide quorums shrink the block so that the children it pushes stay
        # small; down to one node per block, the search still proves 6.
        system = build(mq.BoostFPPSpec(2, 1)).materialize(10 ** 4)
        branched, children = [], analysis._children
        monkeypatch.setattr(analysis, "_children",
                            lambda *args: branched.append(len(args[3].bound)) or children(*args))
        monkeypatch.setattr(analysis, "SEARCH_CHILD_WORDS", 1)
        assert _searched(system, caplog)[0] == 6
        assert max(branched) == 1

    def test_logs_each_search_at_debug(self, caplog):
        system = build(mq.FPPSpec(3)).materialize(100)
        caplog.set_level(logging.DEBUG, logger="maskquorum")
        mq.min_transversal_size(system)
        mq.min_transversal_size(system)
        [record] = caplog.records
        assert record.name == "maskquorum" and record.levelno == logging.DEBUG
        message = record.getMessage()
        for field in ("n=13", "m=13", "nodes=", "size=4", "elapsed="):
            assert field in message


class TestResilience:
    def test_f_equals_transversal_minus_one(self, materialized, handles):
        for name, system in materialized.items():
            if system.n > 12:
                continue
            f = brute_resilience(system.n, system.quorum_masks())
            assert f == mq.min_transversal_size(system) - 1, name
            if not isinstance(handles[name].spec, mq.MPathSpec):
                assert f == handles[name].params.f, name

    def test_search_matches_analytic_a_min(self, materialized, handles):
        # MPath materializes its straight paths only, a sub-list whose
        # transversals are smaller than the system's.
        for name, system in materialized.items():
            if not isinstance(handles[name].spec, mq.MPathSpec):
                assert mq.min_transversal_size(system) == handles[name].params.a_min, name


class TestIsFair:
    def test_fano(self):
        fairness = mq.is_fair(mq.fpp_lines(2))
        assert fairness.ok and (fairness.s, fairness.d) == (3, 3)

    def test_threshold(self):
        fairness = mq.is_fair(build(mq.ThresholdSpec(4, 3)).materialize(10))
        assert fairness.ok and (fairness.s, fairness.d) == (3, 3)

    def test_unfair_degrees(self):
        system = ExplicitQuorumSystem.from_masks(3, [0b011, 0b110])
        assert not mq.is_fair(system)


class TestLoadLp:
    def test_fano(self):
        value, strategy = mq.load_lp(mq.fpp_lines(2))
        assert value == pytest.approx(3 / 7, abs=1e-9)
        induced = mq.induced_load(mq.fpp_lines(2), strategy)
        assert induced.max == pytest.approx(value, abs=1e-9)

    def test_single_mandatory_element(self):
        system = ExplicitQuorumSystem.from_masks(1, [0b1])
        value, _ = mq.load_lp(system)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_threshold_3_2(self):
        value, _ = mq.load_lp(build(mq.ThresholdSpec(3, 2)).materialize(10))
        assert value == pytest.approx(2 / 3, abs=1e-9)

    def test_fair_systems_load_c_over_n(self, materialized, handles):
        for name, system in materialized.items():
            fairness = mq.is_fair(system)
            if not fairness:
                continue
            value, _ = mq.load_lp(system)
            assert value == pytest.approx(fairness.s / system.n, abs=1e-6), name

    def test_lower_bound_inequality(self, materialized, handles, brute_params):
        for name, system in materialized.items():
            value, _ = mq.load_lp(system)
            brute = brute_params[name]
            b = min(brute.a_min - 1, (brute.i_min - 1) // 2)
            bounds = mq.load_lower_bounds(system.n, b, brute.c)
            assert value >= bounds.general - 1e-9, name

    def test_resilience_load_tradeoff(self, materialized, handles):
        # f <= n * load for every masking system.
        for name, system in materialized.items():
            value, _ = mq.load_lp(system)
            f = mq.min_transversal_size(system) - 1
            assert f <= system.n * value + 1e-6, name

    def test_unfair_wheel(self):
        # Spokes {0,1}, {0,2}, {0,3} and rim {1,2,3}.  With weights w1..w3 on
        # the spokes and w4 on the rim, 2*load(0) + load(1) + load(2) + load(3)
        # = 3 * sum(w) = 3, so the load is at least 3/5, and spokes of 1/5
        # with a rim of 2/5 put exactly 3/5 on every element.
        system = ExplicitQuorumSystem.from_masks(4, [0b0011, 0b0101, 0b1001, 0b1110])
        assert not mq.is_fair(system)
        value, strategy = mq.load_lp(system)
        assert value == pytest.approx(3 / 5, abs=1e-9)
        assert strategy.weights == pytest.approx([0.2, 0.2, 0.2, 0.4], abs=1e-9)
        assert mq.induced_load(system, strategy).max == pytest.approx(value, abs=1e-9)

    def test_empty_system(self):
        with pytest.raises(ParameterError):
            mq.load_lp(ExplicitQuorumSystem(3, ()))


class TestInducedLoad:
    def test_uniform_on_fano(self):
        fano = mq.fpp_lines(2)
        induced = mq.induced_load(fano, mq.AccessStrategy.uniform(7))
        assert np.allclose(induced.per_element, 3 / 7)

    def test_point_mass(self):
        system = build(mq.ThresholdSpec(3, 2)).materialize(10)
        induced = mq.induced_load(system, mq.AccessStrategy.point_mass(3, 0))
        assert sorted(induced.per_element.tolist()) == [0.0, 1.0, 1.0]

    def test_threshold_uniform(self):
        system = build(mq.ThresholdSpec(3, 2)).materialize(10)
        induced = mq.induced_load(system, mq.AccessStrategy.uniform(3))
        assert np.allclose(induced.per_element, 2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            mq.induced_load(mq.fpp_lines(2), mq.AccessStrategy.uniform(6))


class TestLoadFair:
    def test_fano(self):
        assert mq.load_fair(mq.fpp_lines(2)) == pytest.approx(3 / 7)

    def test_params_route(self):
        assert mq.load_fair(build(mq.MGridSpec(7, 3)).params) == pytest.approx(24 / 49)

    def test_unfair_raises(self):
        system = ExplicitQuorumSystem.from_masks(3, [0b011, 0b110])
        with pytest.raises(ApplicabilityError):
            mq.load_fair(system)


class TestLoadLowerBounds:
    def test_rt_point(self):
        bounds = mq.load_lower_bounds(1024, 15, 243)
        assert bounds.general == pytest.approx(max(31 / 243, 243 / 1024))
        assert bounds.general == pytest.approx(0.2373, abs=1e-4)
        assert bounds.sqrt_form == pytest.approx(math.sqrt(31 / 1024))

    def test_regular_case_recovers_sqrt_n(self):
        n = 144
        bounds = mq.load_lower_bounds(n, 0, 12)
        assert bounds.general == pytest.approx(1 / 12)
        assert bounds.sqrt_form == pytest.approx(1 / 12)

    def test_equality_at_balanced_quorum_size(self):
        # (2b+1) * n = 15 * 960 = 120^2, so c = 120 puts both bounds at 1/8.
        bounds = mq.load_lower_bounds(960, 7, 120)
        assert bounds.general == pytest.approx(bounds.sqrt_form, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            mq.load_lower_bounds(4, 0, 5)
