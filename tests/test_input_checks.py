"""Each public input check raises its error type, with its own message.

The message pins that the named check fired, not an earlier one.  The spec
rows also pin that spec validation fires from core, where the specs live.
"""

import numpy as np
import pytest

import maskquorum as mq
from maskquorum import availability
from maskquorum.errors import ParameterError
from maskquorum.paths import TriGrid, grid_word_path_counts

THRESHOLD32 = mq.ThresholdSpec(3, 2)

CHECKS = {
    # Specs
    "MGridSpec b < 0": (lambda: mq.MGridSpec(4, -1), r"MGrid needs b >= 0"),
    "MGridSpec g > side": (lambda: mq.MGridSpec(2, 4), r"ceil\(sqrt\(b\+1\)\) <= side"),
    "RTSpec ell <= k/2": (lambda: mq.RTSpec(4, 2, 1), r"requires k > ell > k/2"),
    "BoostFPPSpec b < 0": (lambda: mq.BoostFPPSpec(3, -1), r"BoostFPP needs b >= 0"),
    "MPathSpec side < 2": (lambda: mq.MPathSpec(1, 0), r"MPath needs side >= 2"),
    "MPathSpec b < 0": (lambda: mq.MPathSpec(4, -1), r"MPath needs b >= 0"),
    # Spec parsing
    "spec_from_json non-dict": (lambda: mq.spec_from_json([{"FPP": {"q": 2}}]),
                                r"single-key object"),
    "spec_from_json two keys": (lambda: mq.spec_from_json({"FPP": {"q": 2}, "RT": {}}),
                                r"single-key object"),
    "spec_from_json non-object fields": (lambda: mq.spec_from_json({"FPP": [2]}),
                                         r"fields of 'FPP' must be an object"),
    "build unknown spec": (lambda: mq.build(object()), r"unknown construction spec"),
    # Availability
    "crash_prob_mc workers=0": (
        lambda: mq.crash_prob_mc(mq.build(THRESHOLD32), 0.1, 10, 0, workers=0),
        r"worker count must be >= 1"),
    "rt_fp_recurrence h < 0": (lambda: mq.rt_fp_recurrence(4, 3, -1, 0.1),
                               r"depth must be >= 0"),
    "rt_fp_upper h < 0": (lambda: mq.rt_fp_upper(4, 3, -1, 0.1), r"depth must be >= 0"),
    "boostfpp_fp_upper b < 0": (lambda: mq.boostfpp_fp_upper(3, -1, 0.1), r"need b >= 0"),
    "mpath_fp_upper b < 0": (lambda: mq.mpath_fp_upper(4, -1, 0.1, 0.2), r"need b >= 0"),
    "mgrid_fp_lower side < 1": (lambda: mq.mgrid_fp_lower(0, 0.1), r"side must be >= 1"),
    "mpath_lr_failure_upper side < 1": (lambda: mq.mpath_lr_failure_upper(0, 0.1),
                                        r"side must be >= 1"),
    "interior_bound r < 0": (lambda: mq.interior_bound(-1, 0.1, 0.2, 0.5),
                             r"interior depth must be >= 0"),
    "EstimateResult value > 1": (lambda: availability.EstimateResult(1.5, "monte_carlo"),
                                 r"outside \[0,1\]"),
    # Analysis
    "check_masking b < 0": (
        lambda: mq.check_masking(mq.build(THRESHOLD32).materialize(10), -1),
        r"masking level must be >= 0"),
    "load_lower_bounds b < 0": (lambda: mq.load_lower_bounds(4, -1, 2), r"need b >= 0"),
    # Core, and the explicit system
    "ExplicitQuorumSystem n < 1": (lambda: mq.ExplicitQuorumSystem(0, ()),
                                   r"universe size must be >= 1"),
    "ExplicitQuorumSystem non-ElementSet quorum": (
        lambda: mq.ExplicitQuorumSystem(2, (0b11,)), r"quorum 0 is not an ElementSet"),
    "AccessStrategy([])": (lambda: mq.AccessStrategy([]), r"at least one weight"),
    "Rng.at(-1)": (lambda: mq.Rng(0).at(-1), r"trial index must be non-negative"),
    "Rng.uniform_draws(-1, 1)": (lambda: mq.Rng(0).uniform_draws(-1, 1),
                                 r"draw range must be non-negative"),
    # Paths
    "TriGrid(0)": (lambda: TriGrid(0), r"grid side must be >= 1"),
    "grid_word_path_counts cap=0": (
        lambda: grid_word_path_counts(2, np.zeros(1, dtype=np.uint64), 0),
        r"path cap must be >= 1"),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS.keys())
def test_check_raises(call, message):
    with pytest.raises(ParameterError, match=message):
        call()
