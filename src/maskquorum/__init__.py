"""Masking quorum systems: constructions, combinatorial analysis, load, and
crash probability.

The package builds quorum systems whose pairwise quorum intersections are
large enough (>= 2b+1 elements) to outvote up to b Byzantine servers while
surviving a possibly larger number f of crash failures, analyses their
combinatorial measures and load, and computes exact, Monte Carlo, and
closed-form crash probabilities.
"""

from .analysis import (
    CombinatorialParams,
    Fairness,
    InducedLoad,
    LoadBounds,
    MaskingCheck,
    check_masking,
    combinatorial_params,
    induced_load,
    is_fair,
    load_lower_bounds,
    load_lp,
    masking_level,
    min_transversal_size,
)
from .availability import (
    BoostFppBound,
    CriticalProbability,
    EstimateResult,
    FpLowerBounds,
    ThresholdG,
    binom_ratio_check,
    boostfpp_fp_upper,
    crash_prob_exact,
    crash_prob_mc,
    crash_profile,
    fp_lower_bounds,
    interior_bound,
    mgrid_fp_exact,
    mgrid_fp_lower,
    mpath_fp_upper,
    mpath_lr_failure_upper,
    rt_critical_probability,
    rt_fp_recurrence,
    rt_fp_upper,
    threshold_g,
)
from .composition import compose_explicit, compose_params
from .constructions import (
    BoostFPPSpec,
    ComposedSpec,
    ConstructionSpec,
    FPPSpec,
    MGridSpec,
    MPathSpec,
    QuorumSystemHandle,
    RTSpec,
    ThresholdSpec,
    build,
    fpp_lines,
    spec_from_json,
    spec_to_json,
)
from .core import (
    AccessStrategy,
    ElementSet,
    ExplicitQuorumSystem,
    Rng,
    SystemParams,
    sample_crash_set,
)
from .errors import (
    ApplicabilityError,
    MaskQuorumError,
    NumericalError,
    ParameterError,
    SizeError,
    UnsupportedOrderError,
)
from .paths import TriGrid

__version__ = "0.1.0"
