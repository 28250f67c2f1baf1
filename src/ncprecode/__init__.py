"""Downlink precoding under non-circular Gaussian jamming.

Block-level and symbol-level precoder designs (pre-whitened, transmit-only
and worst-case robust), the widely-linear and confidence-ellipse geometry
they rest on, a certified min-norm QP kernel, and a deterministic
Monte-Carlo harness with a CLI front end.
"""

from .blp import (
    LinearPrecoder,
    mmse_blp,
    mse_closed_form,
    mse_of_precoder,
    naive_blp,
    pw_blp,
    robust_blp,
    stack_whitened,
)
from .errors import (
    ConfigError,
    DegenerateEllipse,
    Infeasible,
    InfeasibleQ,
    InvalidConfidence,
    MaxIterations,
    NotPositiveDefinite,
    PrecodingError,
    ZeroRow,
)
from .noisegeom import (
    CIRCULAR_Q,
    ConfidenceEllipse,
    JammerModel,
    chi2_scale,
    effective_cov,
    ellipse_from_cov,
    jammer_model,
    q_from_elements,
    q_rank_one,
    rotated_cov,
    sample_noise,
    t_from_q,
    wedge_exit_probability,
)
from .sim import (
    METHODS,
    MetricsRecord,
    QSpec,
    Scenario,
    energy_efficiency,
    margin_from_psi,
    psk_detect,
    run_montecarlo,
    sample_channels,
    sample_psk,
    sweep_q_grid,
    verify_lemma_blp,
    verify_lemma_slp,
)
from .slp import (
    MarginRows,
    MarginTargets,
    SlpSolution,
    ellipse_margins,
    margin_rows,
    margin_rows_pair,
    naive_slp,
    nc_slp,
    pw_slp_minpower,
    pw_slp_msm,
    robust_slp,
    safety_margin,
    tangent_points,
    whitened_effective_channel,
    worst_case_pterms,
)
from .solver import QpProblem, QpSolution, kkt_residuals, solve_maximin, solve_min_norm, validate_solution
from .wlalg import (
    SymMat2,
    collapse_vec,
    eig2_sym,
    expand_row,
    expand_vec,
    sqrt_inv_psd2,
    symbol_rotation,
)

__version__ = "0.1.0"
