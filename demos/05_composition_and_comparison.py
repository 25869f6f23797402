"""Composition algebra and the published four-way comparison.

Replacing every element of one quorum system with a copy of another
multiplies all five measures (n, c, i_min, a_min, load) and composes the
crash-probability functions.  The boosting recipe - a projective plane over
(3b+1)-of-(4b+1) threshold blocks - turns a plain quorum system into a
b-masking one with optimal load.
"""

import maskquorum as mq

outer = mq.build(mq.FPPSpec(2)).materialize(100)
inner = mq.build(mq.ThresholdSpec(3, 2)).materialize(100)
composed = mq.compose_explicit(outer, inner)
print(f"FPP(2) over Threshold(3,2): n={composed.n}, {composed.m} quorums")
print("  brute force (c, i_min, a_min):", tuple(mq.combinatorial_params(composed)))

algebra = mq.compose_params(mq.build(mq.FPPSpec(2)).params,
                            mq.build(mq.ThresholdSpec(3, 2)).params)
print("  parameter algebra            :", (algebra.c, algebra.i_min, algebra.a_min))

# Crash probabilities compose functionally: F(p) = s(r(p)).
for p in (0.1, 0.25):
    r_p = mq.crash_prob_exact(inner, p).value
    s_r = mq.crash_prob_exact(outer, r_p).value
    whole = mq.crash_prob_exact(composed, p).value
    print(f"  p={p:.2f}: F(composition)={whole:.6f}  s(r(p))={s_r:.6f}")

# The four constructions at the published comparison point: 1024 servers,
# crash probability 1/8 per server, the crossing-paths bound taken at
# p' = 1/7 as in the published table.  Each handle names its own bounds;
# `maskquorum table8` prints the same comparison.
published = [
    ("MGrid(32,15)", mq.MGridSpec(32, 15), "mgrid_fp_lower", 0.638),
    ("RT(4,3,5)", mq.RTSpec(4, 3, 5), "rt_fp_upper", 0.0001),
    ("BoostFPP(3,19)", mq.BoostFPPSpec(3, 19), "boostfpp_fp_upper", 0.372),
    ("MPath(32,7)", mq.MPathSpec(32, 7), "mpath_fp_upper", 0.001),
]
print(f"\n{'system':<16} {'b':>3} {'f':>3} {'load':>7} {'bound':>18} "
      f"{'F_p value':>10} {'published':>10}")
for label, spec, bound, paper in published:
    handle = mq.build(spec)
    params = handle.params
    value = handle.published_bounds(1 / 8, 1 / 7)[bound]
    print(f"{label:<16} {params.b:>3} {params.f:>3} {params.load:>7.4f} {bound:>18} "
          f"{value:>10.3g} {paper:>10}")
print("\n(The crossing-paths row reports f = 28; the published table prints 29.)")
