"""Build each quorum-system construction and inspect its parameters.

A quorum system is a family of pairwise-intersecting server subsets; the
masking variants keep every pairwise intersection at 2b+1 or more elements so
reads can outvote up to b Byzantine servers.  Every handle exposes the same
record: universe size n, smallest quorum c, smallest pairwise intersection
i_min, smallest transversal a_min, the certified masking level b, the crash
resilience f = a_min - 1, and the load of the optimal access strategy.
"""

import maskquorum as mq

specs = [
    mq.MGridSpec(side=32, b=15),      # rows-and-columns unions on a 32x32 grid
    mq.RTSpec(k=4, ell=3, h=5),       # 3-of-4 threshold nested five levels deep
    mq.BoostFPPSpec(q=3, b=19),       # projective plane boosted by 58-of-77 blocks
    mq.MPathSpec(side=32, b=7),       # 4 disjoint crossing paths per orientation
    mq.ThresholdSpec(k=77, ell=58),
    mq.FPPSpec(q=3),
]

def label(spec):
    name = type(spec).__name__.removesuffix("Spec")
    return f"{name}({', '.join(str(v) for v in spec.__dict__.values())})"


print(f"{'construction':<28} {'n':>5} {'c':>4} {'i_min':>5} {'a_min':>5} "
      f"{'b':>3} {'f':>3} {'load':>8}")
for spec in specs:
    handle = mq.build(spec)
    p = handle.params
    print(f"{label(spec):<28} {p.n:>5} {p.c:>4} "
          f"{p.i_min:>5} {p.a_min:>5} {p.b:>3} {p.f:>3} {p.load:>8.4f}")

# Small instances can be expanded into an explicit quorum list and checked
# against the closed forms.
handle = mq.build(mq.MGridSpec(4, 1))
system = handle.materialize(max_quorums=100)
print(f"\nMGrid(4,1) materializes to {system.m} quorums "
      f"(validates: {mq.check_masking(system, 0).ok})")
print("brute force (c, i_min, a_min):", tuple(mq.combinatorial_params(system)))
print("analytic    (c, i_min, a_min):",
      (handle.params.c, handle.params.i_min, handle.params.a_min))

# The Fano plane is the q=2 projective plane: 7 points, 7 lines of 3 points,
# any two lines meeting in exactly one point.
fano = mq.fpp_lines(2)
print("\nFano plane lines:", [sorted(q.members()) for q in fano.quorums])
