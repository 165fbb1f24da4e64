"""caliblab: a sequential-calibration laboratory.

Hard environments, group families, forecasters, and black-box reductions
for studying multicalibration error empirically: exact identity checks,
pathwise inequality suites, Monte Carlo probes of the noise floor, and
T^(2/3)-scaling experiments.
"""

__version__ = "0.1.0"

from .calibration import (
    BiasLedger,
    CalibrationReport,
    Predictions,
    accumulate_run,
    block_decompose,
    deviation_stats,
)
from .environments import (
    ContextRecord,
    Trajectory,
    grid_section3,
    grid_section4,
    sample_bernoulli_env,
    sample_bit_env,
    sample_rademacher_env,
    substream,
)
from .experiments import (
    ExperimentConfig,
    fit_exponent,
    run_identity_suite,
    run_oracle_bound,
    run_reduction_bound,
    run_scaling,
)
from .forecasters import (
    Forecaster,
    PatternRouter,
    PredictionDistribution,
    ProperReduction,
    make_forecaster_factory,
    run_forecaster,
)
from .groups import (
    BlockLayout,
    GroupFamily,
    build_bit_family,
    build_block_hadamard_family,
    build_full_walsh_family,
    build_pred_threshold_family,
    build_walsh_family,
    default_eta,
)
from .orthogonal import fwht, prefix_extremum, threshold_expansion, walsh_sign
from .probes import (
    bucketing_probe,
    first_return_pmf,
    martingale_transform_probe,
    truncated_root_return_probe,
)
