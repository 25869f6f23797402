"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

import functools
import math

import numpy as np
import pytest

import maskquorum as mq
from maskquorum import ElementSet, Rng, build
from maskquorum._bitops import unpack_masks
from maskquorum.cli import RESILIENCE_NOTE
from maskquorum.paths import TriGrid, disjoint_path_counts

from oracles import packing_disjoint_paths

CRITERION_SYSTEMS = [
    "MGrid(2,0)", "MGrid(3,0)", "MGrid(4,1)",
    "Threshold(3,2)", "Threshold(4,3)", "Threshold(5,4)",
    "RT(3,2,2)", "RT(4,3,2)", "FPP(2)", "FPP(3)",
]


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {label}: PASS", flush=True)
        return inner
    return wrap


@criterion("1 published comparison point (n=1024, p=1/8)")
def test_criterion_1_published_comparison():
    p = 1 / 8

    mgrid = build(mq.MGridSpec(32, 15)).params
    assert mgrid.f == 28
    assert mgrid.load == pytest.approx(240 / 1024, abs=1e-12)
    lower = mq.mgrid_fp_lower(32, p)
    assert lower == pytest.approx(0.6386, abs=1e-3)
    assert lower == pytest.approx(0.638, abs=1e-3)

    rt = build(mq.RTSpec(4, 3, 5)).params
    assert rt.b == 15 and rt.f == 31
    rt_bound = mq.rt_fp_upper(4, 3, 5, p)
    assert rt_bound == pytest.approx(0.75 ** 32, rel=1e-12)
    assert f"{rt_bound:.0e}" == f"{0.0001:.0e}"  # agree to one significant digit

    boost = build(mq.BoostFPPSpec(3, 19)).params
    assert boost.n == 1001 and boost.f == 79
    assert mq.boostfpp_fp_upper(3, 19, p).paper_form == pytest.approx(0.372, abs=1e-3)

    mpath = build(mq.MPathSpec(32, 7)).params
    assert mq.mpath_fp_upper(32, 7, p, 1 / 7) <= 0.001
    # Resilience reported from the transversal size, with the published
    # discrepancy documented next to the comparison table.
    assert mpath.f == 28
    assert "28" in RESILIENCE_NOTE and "29" in RESILIENCE_NOTE


@criterion("2 recursive-threshold analytics")
def test_criterion_2_rt_analytics():
    for p in np.linspace(0.025, 0.975, 20):
        p = float(p)
        poly = 6 * p ** 2 - 8 * p ** 3 + 3 * p ** 4
        assert mq.threshold_g(4, 3, p).exact == pytest.approx(poly, abs=1e-12)
    pc = mq.rt_critical_probability(4, 3)
    assert pc.value == pytest.approx(0.2324, abs=5e-4)


@criterion("3 brute-force oracle equivalence")
def test_criterion_3_oracle_equivalence(handles, materialized, brute_params):
    roster = {name: handles[name] for name in CRITERION_SYSTEMS}
    roster["FPP(2) o Threshold(3,2)"] = build(
        mq.ComposedSpec(mq.FPPSpec(2), mq.ThresholdSpec(3, 2)))

    for name, handle in roster.items():
        if name in materialized:
            system = materialized[name]
            brute = brute_params[name]
        else:
            system = handle.materialize(10 ** 4)
            brute = mq.combinatorial_params(system)
        params = handle.params
        assert brute == (params.c, params.i_min, params.a_min), name

        level = mq.masking_level(system)
        assert level == params.b, name
        if system.n <= 12:
            assert mq.check_masking(system, level).ok, name
            assert not mq.check_masking(system, level + 1).ok, name

        for p in (0.1, 0.3, 0.5, 0.7):
            value = mq.crash_prob_exact(handle, p).value
            bounds = mq.fp_lower_bounds(params, p)
            assert value >= bounds.p_mt - 1e-12, (name, p)
            assert value >= bounds.p_c2f - 1e-12, (name, p)
            if bounds.p_f is not None:
                assert value >= bounds.p_f - 1e-12, (name, p)


@criterion("4 composition theorem")
def test_criterion_4_composition():
    outer = build(mq.FPPSpec(2)).materialize(100)
    inner = build(mq.ThresholdSpec(3, 2)).materialize(100)
    composed = mq.compose_explicit(outer, inner)

    brute_outer = mq.combinatorial_params(outer)
    brute_inner = mq.combinatorial_params(inner)
    brute = mq.combinatorial_params(composed)
    assert composed.n == outer.n * inner.n
    assert brute.c == brute_outer.c * brute_inner.c
    assert brute.i_min == brute_outer.i_min * brute_inner.i_min
    assert brute.a_min == brute_outer.a_min * brute_inner.a_min

    for p in (0.1, 0.25, 0.5):
        r_p = mq.crash_prob_exact(inner, p).value
        s_r = mq.crash_prob_exact(outer, r_p).value
        assert mq.crash_prob_exact(composed, p).value == pytest.approx(s_r, abs=1e-9)

    lp, _ = mq.load_lp(composed)
    assert lp == pytest.approx(2 / 7, abs=1e-6)
    lo, _ = mq.load_lp(outer)
    li, _ = mq.load_lp(inner)
    assert lp == pytest.approx(lo * li, abs=1e-6)

    assert mq.is_fair(composed).ok


@criterion("5 load: LP, bounds, and empirical samplers")
def test_criterion_5_load(handles, materialized):
    fano = mq.fpp_lines(2)
    value, strategy = mq.load_lp(fano)
    assert value == pytest.approx(3 / 7, abs=1e-9)
    assert mq.induced_load(fano, strategy).max == pytest.approx(value, abs=1e-9)

    for name, system in materialized.items():
        lp, _ = mq.load_lp(system)
        fairness = mq.is_fair(system)
        if fairness:
            assert lp == pytest.approx(fairness.s / system.n, abs=1e-6), name
        params = handles[name].params
        bounds = mq.load_lower_bounds(system.n, params.b, params.c)
        assert lp >= bounds.general - 1e-9, name

    draws = 100_000
    for spec in (mq.MGridSpec(7, 3), mq.RTSpec(4, 3, 2), mq.FPPSpec(3), mq.MPathSpec(9, 1)):
        handle = build(spec)
        gen = Rng(1234).generator()
        counts = np.zeros(handle.n, dtype=np.int64)
        for _ in range(draws):
            for e in handle.sample_quorum(gen):
                counts[e] += 1
        load = handle.params.load
        sigma = math.sqrt(load * (1 - load) / draws)
        assert abs(counts.max() / draws - load) <= 3 * sigma, spec


@criterion("6 crossing-path machinery")
def test_criterion_6_mpath(mpath5_handle):
    # Uncapped path counts against the packing oracle; column 0 is LR, 1 TB.
    g3 = TriGrid(3)
    counts = disjoint_path_counts(3, unpack_masks(np.arange(1 << 9, dtype=np.uint32), 9), 3)
    for mask in range(1 << 9):
        for col, o in enumerate(("LR", "TB")):
            assert counts[mask, col] == packing_disjoint_paths(g3, mask, o)

    g4 = TriGrid(4)
    rng = np.random.default_rng(7)
    for trial in range(1000):
        density = (0.2, 0.45, 0.7)[trial % 3]
        mask = 0
        for i in np.nonzero(rng.random(16) >= density)[0]:
            mask |= 1 << int(i)
        col = trial % 2
        got = disjoint_path_counts(4, ElementSet(16, mask).as_bool()[None], 4)[0, col]
        assert got == packing_disjoint_paths(g4, mask, ("LR", "TB")[col])

    # Crossing property: no alive set carries an open LR path disjoint from an
    # open TB path (scan every subset against its complement).
    for side in (2, 3, 4):
        n = side * side
        masks = np.arange(1 << n, dtype=np.uint32)
        counts = disjoint_path_counts(side, unpack_masks(masks, n), 1)
        lr_ok, tb_ok = counts[:, 0] >= 1, counts[:, 1] >= 1
        complements = (~masks) & np.uint32((1 << n) - 1)
        assert not np.any(lr_ok & tb_ok[complements])

    p = 0.1
    value = mq.crash_prob_exact(mpath5_handle, p).value
    est = mq.crash_prob_mc(mpath5_handle, p, trials=100_000, seed=23)
    assert abs(est.value - value) <= 3 * max(est.std_error, 1e-5)
    assert value <= mq.mpath_fp_upper(5, 0, 0.1, 0.2)


@criterion("7 combinatorial lemmas")
def test_criterion_7_lemmas():
    for k in range(16):
        for d in range(k + 1):
            for i in range(k - d + 1):
                assert mq.binom_ratio_check(k, d, i), (k, d, i)
    for k in range(3, 13):
        for ell in range(k // 2 + 1, k):
            for p in np.linspace(0.0, 1.0, 101):
                got = mq.threshold_g(k, ell, float(p))
                assert got.exact <= got.lemma_upper + 1e-12, (k, ell, p)


@criterion("8 monotonicity, clamping, and MC determinism")
def test_criterion_8_sanity(handles, mpath5_handle):
    grid = np.linspace(0.0, 1.0, 11)
    for name, handle in handles.items():
        if handle.n > 21 or (isinstance(handle.spec, mq.MPathSpec) and handle.spec.r > 1):
            continue
        values = [mq.crash_prob_exact(handle, float(p)).value for p in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:])), name
        assert all(0.0 <= v <= 1.0 for v in values), name
    mp_values = [mq.crash_prob_exact(mpath5_handle, float(p)).value for p in grid]
    assert all(a <= b + 1e-12 for a, b in zip(mp_values, mp_values[1:]))

    params = build(mq.RTSpec(4, 3, 2)).params
    for p in grid:
        p = float(p)
        bounds = mq.fp_lower_bounds(params, p)
        assert all(v is None or 0.0 <= v <= 1.0
                   for v in (bounds.p_mt, bounds.p_c2f, bounds.p_f))
        assert 0.0 <= mq.rt_fp_upper(4, 3, 2, p) <= 1.0
        assert 0.0 <= mq.mgrid_fp_lower(7, p) <= 1.0

    handle = build(mq.MGridSpec(3, 0))
    a = mq.crash_prob_mc(handle, 0.3, trials=40_000, seed=99, workers=1)
    b = mq.crash_prob_mc(handle, 0.3, trials=40_000, seed=99, workers=1)
    c = mq.crash_prob_mc(handle, 0.3, trials=40_000, seed=99, workers=8)
    assert a.value == b.value == c.value
