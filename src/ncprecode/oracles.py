"""Independent verification routes for the numerical core.

Each suite re-derives a quantity by brute force (subset enumeration, dense
boundary sampling, large-sample Monte Carlo) and compares it against the
closed-form or solver path used in production. The CLI exposes the suites in
SUITES through the `oracle` subcommand (`oracle all` runs every one); the
test suite asserts on the same outcomes. Each suite draws a fixed number of
instances from its own fixed seed (20240-20243), so every run checks the
same instances.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .noisegeom import (
    ConfidenceEllipse,
    boundary_normals,
    chi2_scale,
    effective_cov,
    jammer_model,
    q_from_elements,
    q_rank_one,
    sample_noise,
    wedge_exit_probability,
)
from .slp import ellipse_margins, tangent_points
from .solver import QpProblem, solve_min_norm, validate_solution
from .wlalg import sqrt_inv_psd2

__all__ = [
    "OracleOutcome",
    "min_norm_by_enumeration",
    "run_qp_suite",
    "run_ellipse_suite",
    "run_covariance_suite",
    "run_wedge_suite",
    "SUITES",
]


@dataclass(frozen=True)
class OracleOutcome:
    name: str
    passed: bool
    detail: str


def min_norm_by_enumeration(a, b):
    """Globally solve min ||x||^2 s.t. a x >= b by constraint-subset search.

    For every subset of rows, the minimum-norm solution of the subset's
    equality system is a candidate; the optimum is the feasible candidate of
    least norm (the true active set is one of the subsets); a candidate is
    feasible within 1e-9 max(1, max |b|). Exponential in m, fine for the
    small instances it is meant to check.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    scale = max(1.0, float(np.max(np.abs(b))))
    best = None
    best_obj = math.inf
    if np.all(a @ np.zeros(n) >= b - 1e-9 * scale):
        best = np.zeros(n)
        best_obj = 0.0
    for size in range(1, min(m, n) + 1):
        for subset in itertools.combinations(range(m), size):
            rows = a[list(subset)]
            rhs = b[list(subset)]
            x, _, _, _ = np.linalg.lstsq(rows, rhs, rcond=None)
            if np.max(np.abs(rows @ x - rhs)) > 1e-7 * scale:
                continue  # inconsistent equality system
            if np.all(a @ x >= b - 1e-9 * scale) and x @ x < best_obj - 1e-15:
                best = x
                best_obj = float(x @ x)
    return best


def run_qp_suite() -> OracleOutcome:
    """Random min-norm QPs (n <= 6, m <= 8) vs. the enumeration oracle.

    Counts 200 feasible instances; genuinely infeasible random draws must be
    flagged infeasible by both routes and are reported separately.
    """
    from .errors import Infeasible

    rng = np.random.default_rng(20240)
    worst_dx = 0.0
    failures = 0
    feasible = 0
    infeasible = 0
    while feasible < 200:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        prob = QpProblem(a, b)
        try:
            sol = solve_min_norm(prob)
        except Infeasible:
            infeasible += 1
            if min_norm_by_enumeration(a, b) is not None:
                failures += 1
            continue
        feasible += 1
        ref = min_norm_by_enumeration(a, b)
        if ref is None:
            failures += 1
            continue
        dx = float(np.max(np.abs(sol.x - ref)))
        worst_dx = max(worst_dx, dx)
        if dx > 1e-6 or not validate_solution(prob, sol):
            failures += 1
    return OracleOutcome(
        name="qp-enumeration",
        passed=failures == 0,
        detail=(
            f"{feasible} feasible instances ({infeasible} infeasible cross-checked), "
            f"max |dx| = {worst_dx:.3e}, failures = {failures}"
        ),
    )


def _sampled_margins(ellipse: ConfidenceEllipse, theta: float, cos_t: np.ndarray, sin_t: np.ndarray):
    """Support distances to the boundary-parallel lines via dense sampling.

    The boundary points are a v cos t + b vp sin t at the angles t whose
    cosines and sines are given, with a and b the semi-axes and v, vp the
    major and minor axis directions; each distance is the largest
    projection of those points on the boundary's normal.
    """
    v = np.array([math.cos(ellipse.alpha), math.sin(ellipse.alpha)])
    vp = np.array([-v[1], v[0]])
    a = math.sqrt(ellipse.omega * ellipse.lambda1)
    b = math.sqrt(ellipse.omega * max(ellipse.lambda2, 0.0))
    return tuple(float(np.max(a * (v @ n) * cos_t + b * (vp @ n) * sin_t)) for n in boundary_normals(theta))


def _slope_residual(ellipse: ConfidenceEllipse, theta: float) -> float:
    """Max angle mismatch between tangent normal and the boundary normal.

    The residual is |cross(normalized gradient, expected normal)|, i.e. the
    sine of the angle between them; it equals the tangent-slope error in the
    rotated frame and stays finite at theta = pi/2.
    """
    pts = tangent_points(ellipse, theta)
    v = np.array([math.cos(ellipse.alpha), math.sin(ellipse.alpha)])
    vp = np.array([-v[1], v[0]])
    ginv = np.outer(v, v) / ellipse.lambda1 + np.outer(vp, vp) / ellipse.lambda2
    n_u, n_l = boundary_normals(theta)
    worst = 0.0
    for pt, nvec in zip(pts, (n_u, n_u, n_l, n_l)):
        grad = ginv @ pt
        grad = grad / np.linalg.norm(grad)
        worst = max(worst, abs(grad[0] * nvec[1] - grad[1] * nvec[0]))
    return worst


_ELLIPSE_THETAS = (math.pi / 2, math.pi / 4, math.pi / 8)   # decision half-angles of BPSK, QPSK, 8-PSK


def run_ellipse_suite() -> OracleOutcome:
    """Closed-form margins vs. dense boundary sampling (10^6 points) plus tangency checks."""
    count = 100
    rng = np.random.default_rng(20241)
    worst_margin = 0.0
    worst_slope = 0.0
    t = np.linspace(0.0, 2.0 * math.pi, 1_000_000, endpoint=False)
    cos_t, sin_t = np.cos(t), np.sin(t)
    for _ in range(count):
        lam1 = float(rng.uniform(0.5, 4.0))
        lam2 = float(rng.uniform(0.05, lam1))
        alpha = float(rng.uniform(0.0, math.pi))
        p = float(rng.uniform(0.5, 0.99))
        ell = ConfidenceEllipse(lambda1=lam1, lambda2=lam2, alpha=alpha, omega=chi2_scale(p))
        for theta in _ELLIPSE_THETAS:
            du, dl = ellipse_margins(ell, theta)
            su, sl = _sampled_margins(ell, theta, cos_t, sin_t)
            worst_margin = max(worst_margin, abs(du - su), abs(dl - sl))
            worst_slope = max(worst_slope, _slope_residual(ell, theta))
    passed = bool(worst_margin <= 1e-4 and worst_slope <= 1e-8)
    return OracleOutcome(
        name="ellipse-geometry",
        passed=passed,
        detail=(
            f"{count} ellipses x {len(_ELLIPSE_THETAS)} angles, max margin err = "
            f"{worst_margin:.3e}, max slope residual = {worst_slope:.3e}"
        ),
    )


def run_covariance_suite() -> OracleOutcome:
    """Sampled covariances vs. the closed forms, raw and whitened."""
    draws = 1_000_000
    rng = np.random.default_rng(20242)
    h_jk = complex(rng.standard_normal(), rng.standard_normal())
    jam = jammer_model(math.sqrt(10.0), q_from_elements(0.8, 0.35))
    awgn_var = 1.3

    g = effective_cov(h_jk, jam, awgn_var)
    c = sample_noise(rng, h_jk, jam, awgn_var, size=draws)
    emp = c.T @ c / draws
    err_raw = float(np.max(np.abs(emp - g))) / np.trace(g)

    w = sqrt_inv_psd2(g)
    wc = c @ w.T
    emp_w = wc.T @ wc / draws
    err_white = float(np.max(np.abs(emp_w - np.eye(2)))) / 2.0

    sigma2 = np.trace(g)
    gamma = math.sqrt(sigma2 / 2.0)
    sc = gamma * wc
    emp_s = sc.T @ sc / draws
    err_slp = float(np.max(np.abs(emp_s - 0.5 * sigma2 * np.eye(2)))) / sigma2

    passed = bool(err_raw <= 0.01 and err_white <= 0.01 and err_slp <= 0.01)
    return OracleOutcome(
        name="covariance-montecarlo",
        passed=passed,
        detail=(
            f"{draws} draws, rel-trace errors: raw = {err_raw:.4f}, "
            f"whitened = {err_white:.4f}, scaled-whitened = {err_slp:.4f}"
        ),
    )


def run_wedge_suite() -> OracleOutcome:
    """Wedge-exit probabilities vs. sampled effective noise around fixed points.

    For every PSK order and three jammer covariances (circular, general
    improper, rank-one over a small AWGN floor) one noise-free point inside
    the decision wedge and one past its upper boundary are perturbed by 10^6
    effective-noise draws; the fraction of draws leaving the wedge
    |arg y| < pi/D must match wedge_exit_probability within four sampling
    standard errors.
    """
    rng = np.random.default_rng(20243)
    covariances = (
        (q_from_elements(0.5, 0.0), 1.0),
        (q_from_elements(0.8, 0.25), 1.0),
        (q_rank_one(0.7), 0.01),
    )
    worst = 0.0
    cases = 0
    for d in (2, 4, 8, 16):
        theta = math.pi / d
        for q, awgn_var in covariances:
            h_jk = complex(rng.standard_normal(), rng.standard_normal())
            jam = jammer_model(math.sqrt(10.0), q)
            g = effective_cov(h_jk, jam, awgn_var)
            noise = sample_noise(rng, h_jk, jam, awgn_var, size=1_000_000)
            for beta in (rng.uniform(-0.5, 0.5) * theta, rng.uniform(1.05, 1.5) * theta):
                radius = rng.uniform(1.0, 3.0) * math.sqrt(np.trace(g)) / math.sin(theta)
                mu = radius * np.array([math.cos(beta), math.sin(beta)])
                y = mu + noise
                frac = float(np.mean(np.abs(np.arctan2(y[:, 1], y[:, 0])) > theta))
                prob = float(wedge_exit_probability(mu, g, theta))
                se = max(math.sqrt(prob * (1.0 - prob) / len(noise)), 1e-300)
                worst = max(worst, abs(frac - prob) / se)
                cases += 1
    return OracleOutcome(
        name="wedge-exit",
        passed=worst <= 4.0,
        detail=(
            f"{cases} points x {len(noise)} noise draws, "
            f"max |sampled - exact| = {worst:.2f} standard errors"
        ),
    )


SUITES = {
    "qp": run_qp_suite,
    "ellipse": run_ellipse_suite,
    "covariance": run_covariance_suite,
    "wedge": run_wedge_suite,
}
