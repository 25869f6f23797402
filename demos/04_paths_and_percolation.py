"""The crossing-paths system: disjoint open paths on a triangulated grid.

A quorum is r = ceil(sqrt(2b+1)) vertex-disjoint left-right paths plus r
top-bottom paths.  Liveness reduces to counting disjoint open crossing paths.
By Menger's theorem and the Hex theorem that count equals the fewest open
cells on any crossing in the other orientation, which a bit-parallel fill
over the grid's rows finds exactly.  Because crossing events only
get more robust as the grid grows, the system stays available for any crash
probability below the site-percolation threshold of the lattice.
"""

import maskquorum as mq
from maskquorum.paths import disjoint_path_counts


def path_counts(alive):
    """Disjoint LR and TB paths of one alive set of the 5x5 grid, uncapped."""
    return disjoint_path_counts(5, alive.as_bool()[None], 5)[0]


full = mq.ElementSet.full(25)
lr, tb = path_counts(full)
print("5x5 grid, everything alive:", lr, "disjoint LR paths,", tb, "disjoint TB paths")

# Kill a column: no left-right path survives, but top-bottom paths remain.
dead_column = mq.ElementSet.from_indices(25, [i * 5 + 2 for i in range(5)])
lr, tb = path_counts(full - dead_column)
print("column 2 dead:", lr, "LR,", tb, "TB")

# The r = 1 system on the 5x5 grid is small enough for exact enumeration of
# all 2^25 crash configurations.
handle = mq.build(mq.MPathSpec(5, 0))
print("\nMPath(5,0) exact crash probability:")
for p in (0.1, 0.2, 0.3):
    print(f"  p={p:.1f}: {mq.crash_prob_exact(handle, p).value:.6f}")

# The closed-form chain: a counting bound on single-path failure at p', then
# the interior trick transfers it down to p with an r-path guarantee.
side, b, p, p_prime = 32, 7, 1 / 8, 1 / 7
tail = mq.mpath_lr_failure_upper(side, p_prime)
bound = mq.mpath_fp_upper(side, b, p, p_prime)
print(f"\nMPath(32,7) at p=1/8: path-failure tail at p'=1/7 is {tail:.3g}; "
      f"crash bound {bound:.3g} (published target 0.001)")

# Monte Carlo cross-check on a mid-size grid the enumerator cannot touch.
big = mq.build(mq.MPathSpec(8, 0))
est = mq.crash_prob_mc(big, 0.25, trials=100_000, seed=5)
print(f"\nMPath(8,0) at p=0.25: MC {est.value:.5f} +- {est.std_error:.5f}")
