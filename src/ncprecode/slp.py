"""Symbol-level precoders and the safety-margin geometry behind them.

The transmit vector is re-optimized for every symbol vector so multiuser
interference can be steered constructively. Pre-whitened variants place the
whitened noise-free point deep inside the PSK decision sector; the
transmit-only variants keep a confidence ellipse of the raw (non-circular)
noise inside the sector via separate upper/lower margin constraints; the
robust variant replaces the ellipse by its worst case over all unit-trace
jammer covariances, which is attained at rank-one covariances and searched
over a small grid of orientations.

Every design builds its QP from per-user (rows, bounds) terms made by
:func:`user_terms` with the design's own bound function, and solves the
stacked terms with :func:`solve_min_power` or :func:`solve_max_margin`. A
user's terms depend only on that user's channel, noise and symbol, so the
Monte-Carlo engine caches them per (user, symbol) and stacks the cached
terms through the same two functions.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .blp import _per_user
from .errors import DegenerateEllipse, ZeroRow
from .noisegeom import ConfidenceEllipse, chi2_scale, effective_cov, rotated_cov, ellipse_from_cov
from .solver import QpProblem, solve_maximin, solve_min_norm
from .wlalg import expand_row, sqrt_inv_psd2

__all__ = [
    "MarginRows",
    "MarginTargets",
    "SlpSolution",
    "whitened_effective_channel",
    "safety_margin",
    "margin_rows",
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
    "naive_bounds",
    "naive_slp",
]

_ROW_EPS = 1e-12


@dataclass(frozen=True)
class MarginRows:
    """Per-user constraint rows for the two PSK decision boundaries.

    a_minus bounds the distance to the upper boundary (positive imaginary
    side after de-rotation by the symbol phase), a_plus the lower one.
    """

    a_minus: np.ndarray
    a_plus: np.ndarray


@dataclass(frozen=True)
class MarginTargets:
    """Preset upper and lower safety margins, one pair per user."""

    delta_u0: np.ndarray
    delta_l0: np.ndarray

    def __post_init__(self):
        du = np.atleast_1d(np.asarray(self.delta_u0, dtype=float))
        dl = np.atleast_1d(np.asarray(self.delta_l0, dtype=float))
        if du.shape != dl.shape:
            raise ValueError("upper and lower target arrays must have equal length")
        if np.any(du < 0.0) or np.any(dl < 0.0):
            raise ValueError("margin targets must be nonnegative")
        object.__setattr__(self, "delta_u0", du)
        object.__setattr__(self, "delta_l0", dl)

    @classmethod
    def uniform(cls, delta: float, k: int) -> "MarginTargets":
        return cls(np.full(k, float(delta)), np.full(k, float(delta)))


@dataclass(frozen=True)
class SlpSolution:
    """Per-symbol transmit vector with its power and constraint slacks."""

    x: np.ndarray
    power: float
    achieved_margins: np.ndarray


def whitened_effective_channel(h_k, g_k, sigma_k: float):
    """Rows of gamma_k G_k^{-1/2} Hbar_k with gamma_k = sigma_k / sqrt(2).

    The scaling keeps the total whitened noise power equal to sigma_k^2, so
    the implied whitened noise has covariance (sigma_k^2 / 2) I2 and margin
    targets keep the same meaning as in the circular case.
    """
    gamma = sigma_k / math.sqrt(2.0)
    he = gamma * (sqrt_inv_psd2(g_k) @ expand_row(h_k))
    return he[0], he[1]


def safety_margin(s_k: complex, h_e, x, theta: float) -> float:
    """Signed distance of the noise-free point to the nearer decision boundary.

    Computed as Re{s* h x} sin(theta) - |Im{s* h x}| cos(theta) for a complex
    effective row h and transmit vector x.
    """
    z = complex(np.conj(s_k) * (np.asarray(h_e, dtype=complex) @ np.asarray(x, dtype=complex)))
    return z.real * math.sin(theta) - abs(z.imag) * math.cos(theta)


def margin_rows_pair(h_e1, h_e2, s_k: complex, theta: float) -> MarginRows:
    """Margin rows from a (first row, second row) real effective-channel pair."""
    s = complex(s_k)
    h_minus = s.real * np.asarray(h_e1) + s.imag * np.asarray(h_e2)
    h_plus = -s.imag * np.asarray(h_e1) + s.real * np.asarray(h_e2)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    return MarginRows(
        a_minus=h_minus * sin_t - h_plus * cos_t,
        a_plus=h_minus * sin_t + h_plus * cos_t,
    )


def margin_rows(h_k, s_k: complex, theta: float) -> MarginRows:
    """Margin rows built from a complex channel row and its intended symbol.

    With sh = s* h these are [Re sh, -Im sh] sin(theta) -/+ [Im sh, Re sh]
    cos(theta); a_minus @ xbar is exactly the upper-boundary distance
    Re{s* h x} sin(theta) - Im{s* h x} cos(theta).
    """
    hb = expand_row(h_k)
    return margin_rows_pair(hb[0], hb[1], s_k, theta)


def _check_rows(a: np.ndarray):
    if np.min(np.sum(a * a, axis=1)) <= _ROW_EPS ** 2 * max(1.0, a.shape[1]):
        raise ZeroRow("degenerate (zero) margin constraint row")


def _solution(prob: QpProblem, sol) -> SlpSolution:
    return SlpSolution(
        x=sol.x,
        power=sol.objective,
        achieved_margins=prob.a @ sol.x - prob.b,
    )


def _min_power(rows, bounds) -> SlpSolution:
    prob = QpProblem(rows, bounds)
    return _solution(prob, solve_min_norm(prob))


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
    mr = margin_rows_pair(pair[0], pair[1], s_k, theta)
    r = 1 if bounds is None else np.shape(bounds)[-1] // 2
    return (mr.a_minus,) * r + (mr.a_plus,) * r, bounds


def _stack_rows(terms) -> np.ndarray:
    return np.array([row for rows, _ in terms for row in rows])


def solve_min_power(terms, conservative: bool = False) -> SlpSolution:
    """Minimum-power transmit vector for per-user (rows, bounds) terms.

    Bounds with a leading orientation axis give one QP per orientation, and
    the solution needing the most power is returned (the first on ties);
    with conservative=True a single QP on their elementwise maxima is solved.
    """
    a = _stack_rows(terms)
    _check_rows(a)
    b = np.concatenate([bounds for _, bounds in terms], axis=-1)
    if b.ndim == 1:
        return _min_power(a, b)
    if conservative:
        return _min_power(a, np.max(b, axis=0))
    best = None
    for bounds in b:
        prob = QpProblem(a, bounds)
        sol = solve_min_norm(prob)
        if best is None or sol.objective > best[1].objective:
            best = prob, sol
    return _solution(*best)


def solve_max_margin(terms, p_t: float):
    """(x, delta): the largest common margin delta of per-user rows under power p_t."""
    a = _stack_rows(terms)
    _check_rows(a)
    return solve_maximin(a, p_t)


def pw_slp_minpower(eff_channels, s, targets, theta: float) -> SlpSolution:
    """Minimum-power transmit vector meeting per-user margin targets.

    `eff_channels` is a sequence of (first row, second row) whitened pairs,
    `targets` the per-user preset margins applied to both boundaries.
    """
    s = np.ravel(np.asarray(s, dtype=complex))
    t = _per_user(targets, len(s))
    return solve_min_power(
        [user_terms(pair, s_k, theta, np.full(2, t_k)) for pair, s_k, t_k in zip(eff_channels, s, t)]
    )


def pw_slp_msm(eff_channels, s, p_t: float, theta: float):
    """Maximize the smallest safety margin under a transmit power budget.

    Returns (solution, delta) where delta is the achieved common margin and
    the solution uses the full budget.
    """
    s = np.ravel(np.asarray(s, dtype=complex))
    terms = [user_terms(pair, s_k, theta) for pair, s_k in zip(eff_channels, s)]
    x, delta = solve_max_margin(terms, p_t)
    return (
        SlpSolution(
            x=x,
            power=float(x @ x),
            achieved_margins=_stack_rows(terms) @ x - delta,
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
    normal n_u = (sin theta, -cos theta), at +/- sqrt(omega) G n / sqrt(n^T G n).
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

    pu = support(np.array([math.sin(theta), -math.cos(theta)]))
    pl = support(np.array([math.sin(theta), math.cos(theta)]))
    return pu, -pu, pl, -pl


def _users(channels, h_j, awgn_vars, s):
    """Channel rows, jammer gains, AWGN variances and symbols, one per user."""
    h = np.atleast_2d(np.asarray(channels, dtype=complex))
    k = h.shape[0]
    return h, np.ravel(h_j), _per_user(awgn_vars, k), np.ravel(np.asarray(s, dtype=complex))


def nc_bounds(cov, s_k: complex, du0: float, dl0: float, p: float, theta: float) -> np.ndarray:
    """Upper and lower bounds of one user's transmit-only constraints.

    The effective-noise covariance is rotated by the symbol phase, and its
    confidence ellipse at level p adds the upper/lower margin terms to the
    preset margins.
    """
    cos_t = math.cos(theta)
    du, dl = ellipse_margins(ellipse_from_cov(rotated_cov(cov, s_k), p), theta)
    return np.array([du0 * cos_t + du, dl0 * cos_t + dl])


def nc_slp(channels, h_j, jam, awgn_vars, s, targets: MarginTargets, p: float, theta: float) -> SlpSolution:
    """Transmit-only non-circular SLP: minimum power with ellipse-aware bounds.

    Each user contributes two constraints bounded by :func:`nc_bounds`, and
    the transmit vector solves the resulting min-power QP. No receiver
    processing is assumed.
    """
    h, h_j, awgn, s = _users(channels, h_j, awgn_vars, s)
    return solve_min_power(
        [
            user_terms(
                expand_row(h[u]), s[u], theta,
                nc_bounds(effective_cov(h_j[u], jam, awgn[u]), s[u],
                          targets.delta_u0[u], targets.delta_l0[u], p, theta),
            )
            for u in range(len(s))
        ]
    )


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
                  du0: float, dl0: float, omega: float, theta: float, n_div: int) -> np.ndarray:
    """One user's worst-case bounds, one row (u1, u2, l1, l2) per orientation.

    Row n - 1 belongs to the rank-one covariance orientation phi = n pi / n_div.
    """
    cos_t = math.cos(theta)
    hj = complex(h_jk)
    jp = jammer_power * abs(hj) ** 2
    root = math.sqrt(omega)
    out = np.empty((n_div, 4))
    for n in range(1, n_div + 1):
        alpha_check = n * math.pi / n_div + cmath.phase(hj) - cmath.phase(complex(s_k))
        p_u1, p_u2, p_l1, p_l2 = worst_case_pterms(alpha_check, theta, jp, awgn_var)
        out[n - 1] = (
            du0 * cos_t + root * math.sqrt(p_u1),
            du0 * cos_t + root * math.sqrt(p_u2),
            dl0 * cos_t + root * math.sqrt(p_l1),
            dl0 * cos_t + root * math.sqrt(p_l2),
        )
    return out


def robust_slp(
    channels,
    h_j,
    jammer_power: float,
    awgn_vars,
    s,
    targets: MarginTargets,
    p: float,
    theta: float,
    n_div: int = 16,
    conservative: bool = False,
) -> SlpSolution:
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
    h, h_j, awgn, s = _users(channels, h_j, awgn_vars, s)
    omega = chi2_scale(p)
    return solve_min_power(
        [
            user_terms(
                expand_row(h[u]), s[u], theta,
                robust_bounds(h_j[u], jammer_power, awgn[u], s[u], targets.delta_u0[u],
                              targets.delta_l0[u], omega, theta, n_div),
            )
            for u in range(len(s))
        ],
        conservative,
    )


def naive_bounds(h_jk: complex, jammer_power: float, awgn_var: float,
                 du0: float, dl0: float, omega: float, theta: float) -> np.ndarray:
    """One user's bounds with the noise circularized at its total power."""
    sigma2 = jammer_power * abs(complex(h_jk)) ** 2 + awgn_var
    margin = math.sqrt(omega * 0.5 * sigma2)
    cos_t = math.cos(theta)
    return np.array([du0 * cos_t + margin, dl0 * cos_t + margin])


def naive_slp(channels, h_j, jammer_power: float, awgn_vars, s, targets: MarginTargets, p: float, theta: float) -> SlpSolution:
    """SLP that ignores non-circularity: circular noise of the same total power.

    Runs the transmit-only pipeline with G_k replaced by (sigma_k^2 / 2) I,
    sigma_k^2 = jammer_power |h_jk|^2 + awgn_var_k, so the margins depend only
    on the total effective-noise power.
    """
    h, h_j, awgn, s = _users(channels, h_j, awgn_vars, s)
    omega = chi2_scale(p)
    return solve_min_power(
        [
            user_terms(
                expand_row(h[u]), s[u], theta,
                naive_bounds(h_j[u], jammer_power, awgn[u], targets.delta_u0[u],
                             targets.delta_l0[u], omega, theta),
            )
            for u in range(len(s))
        ]
    )
