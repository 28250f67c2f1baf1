"""Symbol-level precoders and the safety-margin geometry behind them.

The transmit vector is re-optimized for every symbol vector so multiuser
interference can be steered constructively. Pre-whitened variants place the
whitened noise-free point deep inside the PSK decision sector; the
transmit-only variants keep a confidence ellipse of the raw (non-circular)
noise inside the sector via separate upper/lower margin constraints; the
robust variant replaces the ellipse by its worst case over all unit-trace
jammer covariances, which is attained at rank-one covariances and searched
over a small grid of orientations.

The transmit-only designs take the model's two scalars: one preset safety
margin delta0, set by the SNR threshold and shared by every user and both
boundaries, and one AWGN variance shared by every user. Every design builds
its QP from per-user (rows, bounds) terms made by :func:`user_terms` with the
design's own bound function, and solves the stacked terms with
:func:`solve_min_power` or :func:`solve_max_margin`. A user's terms depend
only on that user's channel, noise and symbol, so the Monte-Carlo engine
caches them per (user, symbol) and stacks the cached terms through the same
two functions; bounds that do not depend on the symbol (pw_slp, naive_slp)
are per-user constants it builds once at trial set-up.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .blp import _per_user
from .errors import DegenerateEllipse, ZeroRow
from .noisegeom import (
    ConfidenceEllipse,
    boundary_normals,
    chi2_scale,
    effective_cov,
    ellipse_from_cov,
    rotated_cov,
)
from .solver import solve_maximin_batch, solve_min_norm, solve_min_norm_batch
from .wlalg import expand_row, sqrt_inv_psd2

__all__ = [
    "SlpSolution",
    "whitened_effective_channel",
    "safety_margin",
    "margin_rows_pair",
    "user_terms",
    "solve_min_power",
    "solve_max_margin",
    "pw_slp_minpower",
    "pw_slp_msm",
    "ellipse_margins",
    "tangent_points",
    "nc_bounds",
    "nc_slp",
    "worst_case_pterms",
    "robust_bounds",
    "robust_slp",
    "circular_bounds",
    "naive_bounds",
    "naive_slp",
    "solve_min_norm",   # re-exported: the benchmark's tracer wraps it at every binding
]

_ROW_EPS = 1e-12


@dataclass(frozen=True)
class SlpSolution:
    """Per-symbol transmit vector with its power and constraint slacks."""

    x: np.ndarray
    power: float
    achieved_margins: np.ndarray


def whitened_effective_channel(h_k, g_k):
    """Rows of gamma_k G_k^{-1/2} Hbar_k with gamma_k = sigma_k / sqrt(2).

    sigma_k^2 = tr G_k is the user's total effective-noise power. The scaling
    keeps the total whitened noise power equal to sigma_k^2, so the implied
    whitened noise has covariance (sigma_k^2 / 2) I2 and margin targets keep
    the same meaning as in the circular case.
    """
    gamma = math.sqrt(g_k.trace()) / math.sqrt(2.0)
    he = gamma * (sqrt_inv_psd2(g_k) @ expand_row(h_k))
    return he[0], he[1]


def safety_margin(s_k: complex, h_e, x, theta: float) -> float:
    """Signed distance of the noise-free point to the nearer decision boundary.

    Computed as Re{s* h x} sin(theta) - |Im{s* h x}| cos(theta) for a complex
    effective row h and transmit vector x.
    """
    z = complex(np.conj(s_k) * (np.asarray(h_e, dtype=complex) @ np.asarray(x, dtype=complex)))
    return z.real * math.sin(theta) - abs(z.imag) * math.cos(theta)


def margin_rows_pair(h_e1, h_e2, s_k: complex, theta: float):
    """(a_minus, a_plus): one user's margin rows for the two decision boundaries.

    (h_e1, h_e2) is the user's real effective-channel pair, for a complex
    row h the two rows of ``expand_row(h)``. a_minus bounds the distance to
    the upper boundary (positive imaginary side after de-rotation by the
    symbol phase), a_plus the lower one: with sh = s* h the rows are
    [Re sh, -Im sh] sin(theta) -/+ [Im sh, Re sh] cos(theta), so
    a_minus @ xbar is exactly Re{s* h x} sin(theta) - Im{s* h x} cos(theta).
    """
    s = complex(s_k)
    h_minus = s.real * np.asarray(h_e1) + s.imag * np.asarray(h_e2)
    h_plus = -s.imag * np.asarray(h_e1) + s.real * np.asarray(h_e2)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    return h_minus * sin_t - h_plus * cos_t, h_minus * sin_t + h_plus * cos_t


def user_terms(pair, s_k: complex, theta: float, bounds=None):
    """One user's margin rows for symbol s_k, paired with their bounds.

    `pair` is the user's (first row, second row) real effective channel.
    The rows are a_minus (upper boundary), then a_plus (lower boundary), each
    repeated once per bound on it. `bounds` has 2r entries along its last
    axis, r per boundary (r = 2 for the robust design's two worst-case
    terms), and may have a leading axis over jammer-covariance orientations.
    With bounds=None only the rows are built, for the maximin designs.
    Returns (rows, bounds) with rows a tuple of 1-D arrays;
    :func:`solve_min_power` and :func:`solve_max_margin` stack these terms
    in user order.
    """
    a_minus, a_plus = margin_rows_pair(*pair, s_k, theta)
    r = 1 if bounds is None else np.shape(bounds)[-1] // 2
    return (a_minus,) * r + (a_plus,) * r, bounds


def _stack_rows(vectors) -> np.ndarray:
    """Each vector's per-user rows, stacked in user order: vectors x rows x columns."""
    return np.array([[row for rows, _ in terms for row in rows] for terms in vectors])


def _per_vector(vectors, solve):
    """solve(row stacks) for per-vector terms, failing where a loop over the vectors would.

    A vector with a numerically zero row raises ZeroRow, after the vectors
    before it are solved, so that an earlier vector's failure comes first.
    """
    a = _stack_rows(vectors)
    zero = ((a * a).sum(axis=2).min(axis=1) <= _ROW_EPS ** 2 * max(1.0, a.shape[2])).tolist()
    count = zero.index(True) if True in zero else len(a)
    out = solve(a[:count]) if count else []
    if count < len(a):
        raise ZeroRow("degenerate (zero) margin constraint row")
    return out


def solve_min_power(vectors, conservative: bool = False) -> list:
    """Minimum-power transmit vector of each symbol vector's per-user (rows, bounds) terms.

    The stacked bounds of a vector are one orientation (1-D) or one per
    jammer-covariance orientation (leading axis). Each orientation is one QP
    on the vector's rows, and the solution needing the most power is
    returned (the first on ties). With conservative=True the orientations are
    first reduced to their elementwise maxima, a single QP; 1-D bounds are one
    orientation either way. The bounds may be per-user constants built once
    or per-symbol arrays: the stacking is the same. Every QP of every vector
    goes to one :func:`solve_min_norm_batch` call, and the first vector, in
    order, whose rows or QP fail raises that failure.
    """

    def solve(a):
        n_vec, m = a.shape[:2]
        b = np.array([np.concatenate([bounds for _, bounds in terms], axis=-1) for terms in vectors[:n_vec]])
        b = b.reshape(n_vec, -1, m)
        if conservative:
            b = np.max(b, axis=1, keepdims=True)
        n_or = b.shape[1]
        sols = solve_min_norm_batch(a, b.reshape(-1, m), np.arange(n_vec).repeat(n_or))
        for sol in sols:
            if isinstance(sol, Exception):
                raise sol
        # max keeps the first of equal objectives
        pick = [max(range(v * n_or, (v + 1) * n_or), key=lambda i: sols[i].objective) for v in range(n_vec)]
        x = np.array([sols[i].x for i in pick])
        margins = np.matmul(a, x[:, :, None])[:, :, 0] - b.reshape(-1, m)[pick]
        return [SlpSolution(x=x[v], power=sols[i].objective, achieved_margins=margins[v])
                for v, i in enumerate(pick)]

    return _per_vector(vectors, solve)


def solve_max_margin(vectors, p_t: float) -> list:
    """(x, delta) of each symbol vector: the largest common margin of its rows under power p_t."""
    return _per_vector(vectors, lambda a: solve_maximin_batch(a, p_t))


def pw_slp_minpower(eff_channels, s, targets, theta: float) -> SlpSolution:
    """Minimum-power transmit vector meeting per-user margin targets.

    `eff_channels` is a sequence of (first row, second row) whitened pairs,
    `targets` the per-user preset margins applied to both boundaries.
    """
    s = np.ravel(np.asarray(s, dtype=complex))
    t = _per_user(targets, len(s))
    return solve_min_power(
        [[user_terms(pair, s_k, theta, np.full(2, t_k)) for pair, s_k, t_k in zip(eff_channels, s, t)]]
    )[0]


def pw_slp_msm(eff_channels, s, p_t: float, theta: float):
    """Maximize the smallest safety margin under a transmit power budget.

    Returns (solution, delta) where delta is the achieved common margin and
    the solution uses the full budget.
    """
    s = np.ravel(np.asarray(s, dtype=complex))
    terms = [user_terms(pair, s_k, theta) for pair, s_k in zip(eff_channels, s)]
    x, delta = solve_max_margin([terms], p_t)[0]
    return (
        SlpSolution(
            x=x,
            power=float(x @ x),
            achieved_margins=_stack_rows([terms])[0] @ x - delta,
        ),
        delta,
    )


def ellipse_margins(ellipse: ConfidenceEllipse, theta: float):
    """Distances from the ellipse center to the two bounding-box tangents.

    |delta_u| = sqrt(omega (lam1 sin^2(alpha - theta) + lam2 cos^2(alpha - theta)))
    and the lower analogue with alpha + theta. These are how far the noise
    can push the received point toward either decision boundary while staying
    inside the confidence ellipse.
    """
    lam1, lam2, alpha, omega = ellipse.lambda1, ellipse.lambda2, ellipse.alpha, ellipse.omega
    du = math.sqrt(omega * (lam1 * math.sin(alpha - theta) ** 2 + lam2 * math.cos(alpha - theta) ** 2))
    dl = math.sqrt(omega * (lam1 * math.sin(alpha + theta) ** 2 + lam2 * math.cos(alpha + theta) ** 2))
    return du, dl


def tangent_points(ellipse: ConfidenceEllipse, theta: float):
    """The four bounding-box tangency offsets relative to the ellipse center.

    Returns (upper+, upper-, lower+, lower-). The upper pair are the points
    where the tangent line is parallel to the upper decision boundary (slope
    tan theta); they are the support points of the ellipse along the unit
    normal n_u of :func:`boundary_normals`, at +/- sqrt(omega) G n / sqrt(n^T G n).
    A rank-one ellipse (lambda2 = 0) degenerates to a segment and both pairs
    collapse to its endpoints +/- sqrt(omega lambda1) along the major axis.
    """
    lam1, lam2, alpha, omega = ellipse.lambda1, ellipse.lambda2, ellipse.alpha, ellipse.omega
    if lam1 < 0.0 or lam2 < -1e-12:
        raise DegenerateEllipse("ellipse has a negative principal variance")
    v = np.array([math.cos(alpha), math.sin(alpha)])
    if lam2 <= 0.0:
        end = math.sqrt(omega * max(lam1, 0.0)) * v
        return end, -end, end.copy(), -end
    vp = np.array([-v[1], v[0]])
    g = lam1 * np.outer(v, v) + lam2 * np.outer(vp, vp)

    def support(nvec):
        gn = g @ nvec
        return math.sqrt(omega / float(nvec @ gn)) * gn

    pu, pl = map(support, boundary_normals(theta))
    return pu, -pu, pl, -pl


def _users(channels, h_j, s, delta0: float):
    """Channel rows, jammer gains and symbols, one per user; checks the preset margin."""
    if delta0 < 0.0:
        raise ValueError("preset margin delta0 must be nonnegative")
    h = np.atleast_2d(np.asarray(channels, dtype=complex))
    return h, np.ravel(h_j), np.ravel(np.asarray(s, dtype=complex))


def nc_bounds(cov, s_k: complex, delta0: float, p: float, theta: float) -> np.ndarray:
    """Upper and lower bounds of one user's transmit-only constraints.

    The effective-noise covariance is rotated by the symbol phase, and its
    confidence ellipse at level p adds the upper/lower margin terms to the
    preset margin delta0.
    """
    cos_t = math.cos(theta)
    du, dl = ellipse_margins(ellipse_from_cov(rotated_cov(cov, s_k), p), theta)
    return np.array([delta0 * cos_t + du, delta0 * cos_t + dl])


def nc_slp(channels, h_j, jam, awgn_var: float, s, delta0: float, p: float, theta: float) -> SlpSolution:
    """Transmit-only non-circular SLP: minimum power with ellipse-aware bounds.

    Each user contributes two constraints bounded by :func:`nc_bounds` with
    the common preset margin delta0 and the AWGN variance awgn_var shared by
    all users, and the transmit vector solves the resulting min-power QP. No
    receiver processing is assumed.
    """
    h, h_j, s = _users(channels, h_j, s, delta0)
    return solve_min_power([[
        user_terms(
            expand_row(h[u]), s[u], theta,
            nc_bounds(effective_cov(h_j[u], jam, awgn_var), s[u], delta0, p, theta),
        )
        for u in range(len(s))
    ]])[0]


def worst_case_pterms(alpha_check: float, theta: float, jam_power: float, awgn_var: float):
    """Endpoint maxima of the squared margin terms over rank-one covariances.

    With the jammer power split lam1 + lam2 = 1 the squared upper margin term
    is linear in lam1, so its maximum sits at lam1 in {1, 0}:

      p_u1 = jam_power sin^2(alpha_check - theta) + awgn_var / 2
      p_u2 = jam_power cos^2(alpha_check - theta) + awgn_var / 2

    and analogously p_l1 / p_l2 with alpha_check + theta. jam_power is the
    received jammer power rho^2 |h_jk|^2, awgn_var the AWGN variance.
    """
    half = 0.5 * awgn_var
    p_u1 = jam_power * math.sin(alpha_check - theta) ** 2 + half
    p_u2 = jam_power * math.cos(alpha_check - theta) ** 2 + half
    p_l1 = jam_power * math.sin(alpha_check + theta) ** 2 + half
    p_l2 = jam_power * math.cos(alpha_check + theta) ** 2 + half
    return p_u1, p_u2, p_l1, p_l2


def robust_bounds(h_jk: complex, jammer_power: float, awgn_var: float, s_k: complex,
                  delta0: float, omega: float, theta: float, n_div: int) -> np.ndarray:
    """One user's worst-case bounds, one row (u1, u2, l1, l2) per orientation.

    Row n - 1 belongs to the rank-one covariance orientation phi = n pi / n_div.
    """
    base = delta0 * math.cos(theta)
    hj = complex(h_jk)
    jp = jammer_power * abs(hj) ** 2
    root = math.sqrt(omega)
    out = np.empty((n_div, 4))
    for n in range(1, n_div + 1):
        alpha_check = n * math.pi / n_div + cmath.phase(hj) - cmath.phase(complex(s_k))
        out[n - 1] = [base + root * math.sqrt(pt) for pt in worst_case_pterms(alpha_check, theta, jp, awgn_var)]
    return out


def robust_slp(channels, h_j, jammer_power: float, awgn_var: float, s, delta0: float, p: float,
               theta: float, n_div: int = 16, conservative: bool = False) -> SlpSolution:
    """Worst-case SLP against an unknown jammer covariance.

    Each margin constraint's worst case is a rank-one covariance (its squared
    bound is affine in Q), so the eigenvector orientation phi of rank-one
    covariances is swept over n_div points in (0, pi]. Each orientation
    yields four constraint bounds per user; by default the per-orientation QP
    with the largest optimal power is returned. That default is the worst
    case over covariances shared by all users' constraints restricted to the
    rank-one boundary; the coupled minimum-power surface can peak inside the
    covariance disk (docs/DECISIONS.md, c02), so it is not guaranteed to be
    the worst case over the whole disk. With conservative=True a single QP
    is solved whose bounds are the elementwise maxima over all orientations,
    the per-constraint worst case, so the one returned vector satisfies every
    sampled orientation simultaneously.
    """
    if n_div < 1:
        raise ValueError("n_div must be at least 1")
    h, h_j, s = _users(channels, h_j, s, delta0)
    omega = chi2_scale(p)
    return solve_min_power([[
        user_terms(
            expand_row(h[u]), s[u], theta,
            robust_bounds(h_j[u], jammer_power, awgn_var, s[u], delta0, omega, theta, n_div),
        )
        for u in range(len(s))
    ]], conservative)[0]


def circular_bounds(sigma2: float, delta0: float, omega: float, theta: float) -> np.ndarray:
    """Both bounds of a user whose noise is circular with total power sigma2.

    The confidence disk of covariance (sigma2 / 2) I adds sqrt(omega sigma2 / 2)
    to the preset margin term delta0 cos(theta) on either boundary. pw_slp
    applies it to the whitened noise, naive_slp (:func:`naive_bounds`) to the
    circularized raw noise.
    """
    return np.full(2, delta0 * math.cos(theta) + math.sqrt(omega * 0.5 * sigma2))


def naive_bounds(h_jk: complex, jammer_power: float, awgn_var: float,
                 delta0: float, omega: float, theta: float) -> np.ndarray:
    """One user's bounds with the noise circularized at its total power."""
    return circular_bounds(jammer_power * abs(complex(h_jk)) ** 2 + awgn_var, delta0, omega, theta)


def naive_slp(channels, h_j, jammer_power: float, awgn_var: float, s, delta0: float, p: float,
              theta: float) -> SlpSolution:
    """SLP that ignores non-circularity: circular noise of the same total power.

    Runs the transmit-only pipeline with G_k replaced by (sigma_k^2 / 2) I,
    sigma_k^2 = jammer_power |h_jk|^2 + awgn_var, so the margins depend only
    on the total effective-noise power.
    """
    h, h_j, s = _users(channels, h_j, s, delta0)
    omega = chi2_scale(p)
    return solve_min_power([[
        user_terms(
            expand_row(h[u]), s[u], theta,
            naive_bounds(h_j[u], jammer_power, awgn_var, delta0, omega, theta),
        )
        for u in range(len(s))
    ]])[0]
