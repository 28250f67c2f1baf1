"""Jammer and effective-noise statistics.

Builds the per-user effective noise covariance (jamming plus AWGN), its
symbol-rotated variant, confidence ellipses for a preset containment
probability, the exact probability that the noise moves a point out of its
PSK decision wedge, and draws noise samples consistent with those statistics.
Every covariance is a float (..., 2, 2) array, symmetric by construction: its
builders write both off-diagonal entries from one value. The covariance
builders broadcast over leading axes (a chunk's trials and users, a grid's
cells), with the bits of their one-item calls (see ``wlalg``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEllipse, InfeasibleQ, InvalidConfidence
from .wlalg import _each, _outer, _perp, _sym2, eig2_sym, expand_row, symbol_rotation

__all__ = [
    "JammerModel",
    "ConfidenceEllipse",
    "CIRCULAR_Q",
    "q_from_elements",
    "q_rank_one",
    "t_from_q",
    "jammer_model",
    "effective_cov",
    "rotated_cov",
    "chi2_scale",
    "ellipse_from_cov",
    "sample_noise",
    "boundary_normals",
    "wedge_exit_probability",
]

CIRCULAR_Q = np.array([[0.5, 0.0], [0.0, 0.5]])
CIRCULAR_Q.flags.writeable = False   # shared by every circular trial

# Fixed Gauss-Legendre rule for Sheppard's bivariate-normal integral; 64
# nodes keep the wedge-exit probability within 3e-7 relative of a
# 40,000-node composite rule for correlations up to 0.99999.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_ERFC = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class JammerModel:
    """Single-antenna jammer: amplitude rho and unit-trace covariances Q = T T^T (..., 2, 2)."""

    rho: float
    q: np.ndarray
    t_factor: np.ndarray

    def __post_init__(self):
        if self.rho < 0.0:
            raise ValueError("jammer amplitude must be nonnegative")
        if (np.abs(self.q[..., 0, 0] + self.q[..., 1, 1] - 1.0) > 1e-12).any():
            raise ValueError("jammer covariance must have unit trace")


@dataclass(frozen=True)
class ConfidenceEllipse:
    """Level set of a bivariate Gaussian containing mass p.

    lambda1 >= lambda2 are the variances along the principal axes, alpha the
    major-axis orientation in [0, pi), omega the chi-square scale so that the
    boundary is {e : e^T G^-1 e = omega} around the noise-free point.
    """

    lambda1: float
    lambda2: float
    alpha: float
    omega: float


def _in_disk(q11: float, q12: float) -> bool:
    return (q11 - 0.5) ** 2 + q12 ** 2 <= 0.25 + 1e-12   # written so that NaN fails it


def q_from_elements(q11, q12) -> np.ndarray:
    """Unit-trace covariances [[q11, q12], [q12, 1-q11]] of same-shaped q11, q12.

    The feasible region is the disk (q11 - 1/2)^2 + q12^2 <= 1/4 (PSD with
    trace one); the boundary circle holds the rank-one covariances.
    """
    if not _each(_in_disk, q11, q12).all():
        raise InfeasibleQ(f"(q11, q12) = ({q11}, {q12}) is outside the feasible disk")
    q11 = np.asarray(q11, dtype=float)
    return _sym2(q11, q12, 1.0 - q11)


def q_rank_one(phi) -> np.ndarray:
    """Maximally non-circular covariances v v^T with v = (cos phi, sin phi), for orientations phi (...)."""
    c, s = _each(math.cos, phi), _each(math.sin, phi)
    return _sym2(c * c, c * s, s * s)


def _clip0(x):
    """max(x, 0.0) elementwise, as Python's max gives it: x unless 0.0 > x (a -0.0 or NaN stays)."""
    return np.where(0.0 > x, 0.0, x)


def t_from_q(q) -> np.ndarray:
    """Symmetric PSD square roots T with T T^T = Q, for Q (..., 2, 2) (rank-one Q gives rank-one T)."""
    lam1, lam2, v = eig2_sym(q)
    if (lam2 < -1e-12).any():
        raise InfeasibleQ("covariance is not positive semidefinite")
    vp = _perp(v)
    root1, root2 = np.sqrt(_clip0(lam1))[..., None, None], np.sqrt(_clip0(lam2))[..., None, None]
    return root1 * _outer(v, v) + root2 * _outer(vp, vp)


def jammer_model(rho: float, q) -> JammerModel:
    """Build a JammerModel from amplitude and unit-trace covariances (..., 2, 2)."""
    return JammerModel(rho=float(rho), q=q, t_factor=t_from_q(q))


def effective_cov(h_jk, jam: JammerModel, awgn_var: float) -> np.ndarray:
    """Effective noise covariances rho^2 Hj Q Hj^T + (awgn_var/2) I at users with jammer gains h_jk.

    h_jk (...) broadcasts against the leading axes of ``jam.q`` (..., 2, 2).
    Each trace equals rho^2 |h_jk|^2 + awgn_var for every unit-trace Q.
    """
    hb = expand_row(np.asarray(h_jk, dtype=complex)[..., None])
    g = jam.rho ** 2 * (hb @ jam.q @ hb.swapaxes(-1, -2))
    half = 0.5 * awgn_var
    return _sym2(g[..., 0, 0] + half, 0.5 * (g[..., 0, 1] + g[..., 1, 0]), g[..., 1, 1] + half)


def rotated_cov(g, s) -> np.ndarray:
    """Covariances of the effective noise g (..., 2, 2) after de-rotating by the symbol phases s.

    Conjugation by the orthogonal symbol rotation preserves eigenvalues.
    """
    sb = symbol_rotation(s)
    m = sb.swapaxes(-1, -2) @ g @ sb
    return _sym2(m[..., 0, 0], 0.5 * (m[..., 0, 1] + m[..., 1, 0]), m[..., 1, 1])


def chi2_scale(p: float) -> float:
    """Exact chi-square(2) quantile scale omega = -2 ln(1 - p)."""
    if not 0.0 < p < 1.0:
        raise InvalidConfidence(f"confidence level must be in (0, 1), got {p}")
    return -2.0 * math.log1p(-p)


def _axis_angle(y: float, x: float) -> float:
    """The angle of the axis through (x, y), in [0, pi)."""
    alpha = math.atan2(y, x)
    if alpha < 0.0:
        alpha += math.pi
    if alpha >= math.pi:
        alpha -= math.pi
    return alpha


def ellipse_from_cov(g_check, p: float) -> ConfidenceEllipse:
    """Confidence ellipses of bivariate Gaussians with covariances g_check (..., 2, 2).

    The orientation alpha is the major-axis angle, normalized into [0, pi);
    for a circular covariance alpha = 0 by convention. A stack gives one
    ellipse whose lambda1, lambda2 and alpha are arrays.
    """
    omega = chi2_scale(p)
    lam1, lam2, v = eig2_sym(g_check)
    if (lam2 < -1e-12).any():
        raise DegenerateEllipse("covariance has a negative principal variance")
    return ConfidenceEllipse(
        lambda1=lam1, lambda2=_clip0(lam2)[()], alpha=_each(_axis_angle, v[..., 1], v[..., 0])[()], omega=omega
    )


def sample_noise(rng, h_jk: complex, jam: JammerModel, awgn_var: float, size: int):
    """Draw `size` effective-noise samples Hj (rho T v) + n with v ~ N(0, I2).

    Returns shape (size, 2). The AWGN part has covariance (awgn_var/2) I2.
    """
    hb = expand_row([h_jk])
    mix = (jam.rho * hb @ jam.t_factor).T  # right-multiplying mixer
    std = math.sqrt(0.5 * awgn_var)
    v = rng.standard_normal((size, 2))
    return v @ mix + std * rng.standard_normal((size, 2))


def boundary_normals(theta: float):
    """Unit normals (n_u, n_l) of the upper and lower PSK decision boundaries.

    In the frame de-rotated by the symbol phase the decision wedge
    |arg y| < theta is n_u^T y >= 0 and n_l^T y >= 0 with
    n_u = (sin theta, -cos theta) and n_l = (sin theta, cos theta).
    """
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    return np.array([sin_t, -cos_t]), np.array([sin_t, cos_t])


def _norm_cdf(x):
    """Standard normal CDF, elementwise."""
    return 0.5 * _ERFC(-np.asarray(x, dtype=float) / math.sqrt(2.0))


def _bvn_cdf(h, k, r):
    """Bivariate standard normal CDF P(X <= h, Y <= k) at correlation r.

    Sheppard's formula Phi(h) Phi(k) + (1 / 2 pi) int_0^{asin r}
    exp(-(h^2 + k^2 - 2 h k sin t) / (2 cos^2 t)) dt on fixed Gauss-Legendre
    nodes; arguments broadcast elementwise.
    """
    h, k, r = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (h, k, r)))
    upper = np.arcsin(np.clip(r, -1.0, 1.0))[..., None]
    t = 0.5 * upper * (_GL_X + 1.0)
    sin_t = np.sin(t)
    hh, kk = h[..., None], k[..., None]
    f = np.exp(-(hh * hh + kk * kk - 2.0 * hh * kk * sin_t) / (2.0 * np.cos(t) ** 2))
    integral = 0.5 * upper[..., 0] * (f @ _GL_W)
    return _norm_cdf(h) * _norm_cdf(k) + integral / (2.0 * math.pi)


def wedge_exit_probability(mu, cov, theta: float) -> np.ndarray:
    """Probability that N(mu, cov) falls outside the PSK decision wedge.

    mu holds noise-free received points in the frame de-rotated by their
    symbol phase (shape (..., 2)), cov the matching noise covariances (shape
    (..., 2, 2), or one (2, 2) for all). The wedge |arg y| < theta is the
    intersection of n_u^T y >= 0 and n_l^T y >= 0 (:func:`boundary_normals`).
    With the standardized distances a, b and the correlation r of the two
    boundary projections the exit probability is
    Phi(-a) + Phi(-b) - Phi2(-a, -b; r); for theta = pi/2 (BPSK) both
    boundaries are one line and it reduces to Phi(-a).
    """
    mu = np.asarray(mu, dtype=float)
    cov = np.asarray(cov, dtype=float)
    n_u, n_l = boundary_normals(theta)
    cov_u = cov @ n_u
    sd_u = np.sqrt(cov_u @ n_u)
    a = (mu @ n_u) / sd_u
    if math.isclose(theta, 0.5 * math.pi):
        return _norm_cdf(-a)
    sd_l = np.sqrt((cov @ n_l) @ n_l)
    b = (mu @ n_l) / sd_l
    r = (cov_u @ n_l) / (sd_u * sd_l)
    return _norm_cdf(-a) + _norm_cdf(-b) - _bvn_cdf(-a, -b, r)
