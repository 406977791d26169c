"""sfglab: a guidance laboratory for score-based generative models.

Every task is an exact Gaussian mixture (a simplex, two Gaussians, and a
branching fractal built from thin anisotropic components), so log densities,
scores, Hessians, Bayes-classifier gradients and saddle regions are available
in closed form and every guidance strategy can be checked against exact
oracles.
"""

__version__ = "0.6.0"

from .datasets import (
    Fractal,
    FractalSpec,
    GmmSpec,
    LabeledPointSet,
    make_outlier_gmm,
    make_saddle_gmm,
    make_simplex_gmm,
    make_two_gaussian,
    sample_gmm,
)
from .oracle import (
    SmoothedGmm,
    classifier_grad,
    classify_region,
    full_spectrum,
    hessian,
    log_density,
    score,
    smooth,
)
from .model import (
    OracleModel,
    ScoreModel,
    TrainConfig,
    eps_to_flow,
    eps_to_score,
    esm_loss,
    flow_to_eps,
    load_checkpoint,
    save_checkpoint,
    score_to_eps,
    train,
)
from .guidance import (
    GuidanceSpec,
    SfgState,
    extrapolate,
    sfg_start,
    sfg_step,
)
from .sampler import (
    Schedule,
    Trajectories,
    flow_time_schedule,
    sample,
    sigma_schedule,
)
from .evaluation import (
    EvalReport,
    coverage_entropy,
    curvature_field,
    esm_by_region,
    gaussian_frechet,
    outlier_rate,
)
