"""Load: how busy is the busiest server under the best access strategy?

The exact load of an explicit system is a small linear program; fair systems
(uniform quorum size and element degree) have load exactly c/n.  Every
b-masking system obeys load >= max((2b+1)/c, c/n) >= sqrt((2b+1)/n), so the
constructions here are within constants of optimal.
"""

import numpy as np

import maskquorum as mq

fano = mq.fpp_lines(2)
value, strategy = mq.load_lp(fano)
print(f"Fano plane LP load      : {value:.9f}  (c/n = {3 / 7:.9f})")
print(f"strategy weights        : {np.round(strategy.weights, 4)}")
print(f"per-element load        : {np.round(mq.induced_load(fano, strategy).per_element, 4)}")

for spec in (mq.MGridSpec(7, 3), mq.RTSpec(4, 3, 2), mq.FPPSpec(3)):
    handle = mq.build(spec)
    system = handle.materialize(10_000)
    lp, _ = mq.load_lp(system)
    bounds = mq.load_lower_bounds(handle.n, handle.params.b, handle.params.c)
    name = type(spec).__name__.removesuffix("Spec")
    print(f"\n{name}({', '.join(str(v) for v in spec.__dict__.values())})")
    print(f"  LP load        : {lp:.6f}")
    print(f"  analytic c/n   : {handle.params.load:.6f}")
    print(f"  lower bound    : {bounds.general:.6f}  (sqrt form {bounds.sqrt_form:.6f})")

# MGrid's sampler implements its load-optimal strategy (every family's does
# but MPath's, which draws straight paths only and so only bounds the full
# system's load from above), so the empirical access frequency of the
# busiest server converges to the analytic load.
handle = mq.build(mq.MGridSpec(7, 3))
draws = 20_000
counts = handle.sample_quorums(mq.Rng(0).generator(), draws).sum(axis=0)
print(f"\nMGrid(7,3): busiest-server frequency over {draws} sampled quorums: "
      f"{counts.max() / draws:.4f} vs analytic load {handle.params.load:.4f}")
