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
its QP from per-user terms: the user's two :func:`margin_rows_pair` rows,
one per decision boundary (:func:`margin_rows` stacks them), and one bound
per row from the design's own bound function; the robust design bounds each
boundary by its worst case over the swept orientations' rank-one endpoints.
The stacked rows and bounds are solved with :func:`solve_min_power` or
``solver.solve_maximin_batch``, so every min-power QP is 2K x 2M; both take
and return stacks (one transmit vector per symbol vector, read from the QP
batch's stacked results), and the one-vector public designs wrap their one
item in an :class:`SlpSolution`. A user's
terms depend only on that user's channel, noise and symbol, so the
Monte-Carlo engine builds them once per (trial, user, symbol) and stacks
them for the same solvers; bounds that do not depend on the symbol (pw_slp,
naive_slp) are per-user constants it builds once at set-up. Neither solver
screens the rows: every failure rule, the zero-row one included, is the QP
kernel's.

The row and bound builders broadcast over leading axes (users, a chunk's
(trial, user, symbol) terms), each item with the bits of its one-item call
(see ``wlalg``); a public design such as :func:`nc_slp` stacks its users
through the same calls.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DegenerateEllipse
from .noisegeom import (
    ConfidenceEllipse,
    boundary_normals,
    chi2_scale,
    effective_cov,
    ellipse_from_cov,
    rotated_cov,
)
from .solver import solve_maximin, solve_min_norm, solve_min_norm_batch
from .wlalg import _each, expand_row

__all__ = [
    "SlpSolution",
    "whitened_effective_channel",
    "safety_margin",
    "margin_rows_pair",
    "margin_rows",
    "solve_min_power",
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

@dataclass(frozen=True)
class SlpSolution:
    """Per-symbol transmit vector with its power and constraint slacks."""

    x: np.ndarray
    power: float
    achieved_margins: np.ndarray


def whitened_effective_channel(h_k, g_k, w_k) -> np.ndarray:
    """The two rows of gamma_k G_k^{-1/2} Hbar_k with gamma_k = sigma_k / sqrt(2), shape (..., 2, 2M).

    h_k (..., M) are channel rows, g_k (..., 2, 2) their noise covariances
    and w_k (..., 2, 2) the whiteners G_k^{-1/2} of those, as
    ``sqrt_inv_psd2`` gives them. sigma_k^2 = tr G_k is the user's total
    effective-noise power. The scaling keeps the total whitened noise power
    equal to sigma_k^2, so the implied whitened noise has covariance
    (sigma_k^2 / 2) I2 and margin targets keep the same meaning as in the
    circular case.
    """
    gamma = np.sqrt(np.trace(g_k, axis1=-2, axis2=-1)) / math.sqrt(2.0)
    return gamma[..., None, None] * (w_k @ expand_row(h_k))


def safety_margin(s_k: complex, h_e, x, theta: float) -> float:
    """Signed distance of the noise-free point to the nearer decision boundary.

    Computed as Re{s* h x} sin(theta) - |Im{s* h x}| cos(theta) for a complex
    effective row h and transmit vector x.
    """
    z = complex(np.conj(s_k) * (np.asarray(h_e, dtype=complex) @ np.asarray(x, dtype=complex)))
    return z.real * math.sin(theta) - abs(z.imag) * math.cos(theta)


def margin_rows_pair(h_e1, h_e2, s_k, theta: float):
    """(a_minus, a_plus): margin rows (..., 2M) for the two decision boundaries.

    (h_e1, h_e2) (..., 2M) are users' real effective-channel pairs, for a
    complex row h the two rows of ``expand_row(h)``, and s_k (...) their
    symbols. a_minus bounds the distance to
    the upper boundary (positive imaginary side after de-rotation by the
    symbol phase), a_plus the lower one: with sh = s* h the rows are
    [Re sh, -Im sh] sin(theta) -/+ [Im sh, Re sh] cos(theta), so
    a_minus @ xbar is exactly Re{s* h x} sin(theta) - Im{s* h x} cos(theta).
    """
    s = np.asarray(s_k, dtype=complex)[..., None]
    h_minus = s.real * np.asarray(h_e1) + s.imag * np.asarray(h_e2)
    h_plus = -s.imag * np.asarray(h_e1) + s.real * np.asarray(h_e2)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    return h_minus * sin_t - h_plus * cos_t, h_minus * sin_t + h_plus * cos_t


def margin_rows(pairs, s, theta: float) -> np.ndarray:
    """Stacked margin rows (..., 2K, 2M) of users' channel pairs (..., K, 2, 2M) and symbols (..., K).

    User k's rows are 2k (a_minus) and 2k + 1 (a_plus), from one
    :func:`margin_rows_pair` call for every user.
    """
    rows = np.stack(margin_rows_pair(pairs[..., 0, :], pairs[..., 1, :], s, theta), axis=-2)
    return rows.reshape(rows.shape[:-3] + (-1, rows.shape[-1]))


def solve_min_power(a, b):
    """Minimum-power transmit vectors of symbol vectors: rows a (vectors x R x 2M), bounds b (vectors x O x R).

    A vector's bounds are one row per jammer-covariance orientation (O = 1
    for a single orientation), one bound per stacked row: any other count
    raises ValueError. Each orientation is one QP on the vector's rows, and
    the solution needing the most power is kept (the first on ties: one
    argmax over the vectors x orientations objectives, which are never NaN).
    Every QP of every vector goes to one :func:`solve_min_norm_batch` call,
    and the first failing QP, in vector order and then orientation order,
    raises its failure. A zero margin row (from a zero channel row, say)
    meets the QP kernel's rule: under a positive bound it raises
    Infeasible("zero constraint row with positive bound"). Returns stacks:
    the transmit vectors x (vectors x 2M), their powers and their achieved
    margins a x - b (vectors x R), one stacked product.
    """
    n_vec, n_or = b.shape[:2]
    b = b.reshape(-1, b.shape[-1])
    res = solve_min_norm_batch(a, b, np.arange(n_vec).repeat(n_or))
    if res.errors:
        raise res.errors[min(res.errors)]
    power = res.objective
    pick = np.arange(n_vec) * n_or + power.reshape(n_vec, n_or).argmax(axis=1)
    x = res.x[pick]
    return x, power[pick], np.matmul(a, x[:, :, None])[:, :, 0] - b[pick]


def _min_power_one(pairs, s, theta: float, b) -> SlpSolution:
    """:func:`solve_min_power` of one symbol vector as an SlpSolution.

    pairs (K x 2 x 2M) are the users' channel pairs, s (K) their symbols and
    b (O x 2K) the bounds, one row per orientation.
    """
    x, power, margins = solve_min_power(margin_rows(pairs, s, theta)[None], b[None])
    return SlpSolution(x=x[0], power=float(power[0]), achieved_margins=margins[0])


def pw_slp_minpower(eff_channels, s, targets, theta: float) -> SlpSolution:
    """Minimum-power transmit vector meeting per-user margin targets.

    `eff_channels` is a sequence of (first row, second row) whitened pairs,
    `targets` the per-user preset margins applied to both boundaries: one
    scalar for every user or one value per user (any other count raises
    ValueError).
    """
    s = np.ravel(np.asarray(s, dtype=complex))
    t = np.asarray(targets, dtype=float).ravel()
    if t.size not in (1, len(s)):
        raise ValueError(f"expected {len(s)} per-user values, got {t.size}")
    return _min_power_one(
        np.asarray(eff_channels, dtype=float), s, theta, np.repeat(np.broadcast_to(t, len(s)), 2)[None]
    )


def pw_slp_msm(eff_channels, s, p_t: float, theta: float):
    """Maximize the smallest safety margin under a transmit power budget.

    Returns (solution, delta) where delta is the achieved common margin and
    the solution uses the full budget.
    """
    a = margin_rows(np.asarray(eff_channels, dtype=float), np.ravel(np.asarray(s, dtype=complex)), theta)
    x, delta = solve_maximin(a, p_t)
    return SlpSolution(x=x, power=float(x @ x), achieved_margins=a @ x - delta), delta


def _squares(fn, x) -> np.ndarray:
    """fn(t) ** 2 for each element t of x, as Python floats: libm's fn and pow, not numpy's square."""
    return np.array(list(map(pow, map(fn, np.ravel(x).tolist()), repeat(2))), dtype=float).reshape(np.shape(x))


def ellipse_margins(ellipse: ConfidenceEllipse, theta: float):
    """Distances from the ellipse center to the two bounding-box tangents.

    |delta_u| = sqrt(omega (lam1 sin^2(alpha - theta) + lam2 cos^2(alpha - theta)))
    and the lower analogue with alpha + theta. These are how far the noise
    can push the received point toward either decision boundary while staying
    inside the confidence ellipse. Array fields (of one shape) give arrays.
    """
    lam1, lam2, alpha, omega = ellipse.lambda1, ellipse.lambda2, ellipse.alpha, ellipse.omega

    def margin(l1: float, l2: float, t: float) -> float:
        return math.sqrt(omega * (l1 * math.sin(t) ** 2 + l2 * math.cos(t) ** 2))

    return _each(margin, lam1, lam2, alpha - theta)[()], _each(margin, lam1, lam2, alpha + theta)[()]


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


def nc_bounds(cov, s_k, delta0: float, p: float, theta: float) -> np.ndarray:
    """Upper and lower bounds (..., 2) of users' transmit-only constraints.

    Each effective-noise covariance cov (..., 2, 2) is rotated by its symbol
    phase s_k (...), and its confidence ellipse at level p adds the
    upper/lower margin terms to the preset margin delta0.
    """
    cos_t = math.cos(theta)
    du, dl = ellipse_margins(ellipse_from_cov(rotated_cov(cov, s_k), p), theta)
    return np.stack([delta0 * cos_t + du, delta0 * cos_t + dl], axis=-1)


def nc_slp(channels, h_j, jam, awgn_var: float, s, delta0: float, p: float, theta: float) -> SlpSolution:
    """Transmit-only non-circular SLP: minimum power with ellipse-aware bounds.

    Each user contributes two constraints bounded by :func:`nc_bounds` with
    the common preset margin delta0 and the AWGN variance awgn_var shared by
    all users, and the transmit vector solves the resulting min-power QP. No
    receiver processing is assumed.
    """
    h, h_j, s = _users(channels, h_j, s, delta0)
    bounds = nc_bounds(effective_cov(h_j, jam, awgn_var), s, delta0, p, theta)
    return _min_power_one(expand_row(h), s, theta, bounds.reshape(1, -1))


def worst_case_pterms(alpha_check, theta: float, jam_power, awgn_var: float):
    """Endpoint maxima of the squared margin terms over rank-one covariances, elementwise.

    With the jammer power split lam1 + lam2 = 1 the squared upper margin term
    is linear in lam1, so its maximum sits at lam1 in {1, 0}:

      p_u1 = jam_power sin^2(alpha_check - theta) + awgn_var / 2
      p_u2 = jam_power cos^2(alpha_check - theta) + awgn_var / 2

    and analogously p_l1 / p_l2 with alpha_check + theta. jam_power is the
    received jammer power rho^2 |h_jk|^2, awgn_var the AWGN variance.
    """
    half = 0.5 * awgn_var
    up, lo = np.asarray(alpha_check - theta), np.asarray(alpha_check + theta)
    return tuple(jam_power * _squares(fn, t) + half for t in (up, lo) for fn in (math.sin, math.cos))


def robust_bounds(h_jk, jammer_power: float, awgn_var: float, s_k,
                  delta0: float, omega: float, theta: float, n_div: int) -> np.ndarray:
    """Users' worst-case bounds (..., n_div, 2), one row (upper, lower) per orientation.

    h_jk and s_k (...) are the users' jammer gains and symbols. Row n - 1
    belongs to the rank-one covariance orientation phi = n pi / n_div. Each
    boundary's bound is the larger of its two rank-one endpoint terms
    (:func:`worst_case_pterms`), the binding one of the pair.
    """
    base = delta0 * math.cos(theta)
    jp = (jammer_power * _squares(abs, h_jk))[..., None]
    root = math.sqrt(omega)
    phase = _each(cmath.phase, h_jk)[..., None]
    alpha_check = np.arange(1, n_div + 1) * math.pi / n_div + phase - _each(cmath.phase, s_k)[..., None]
    p_u1, p_u2, p_l1, p_l2 = worst_case_pterms(alpha_check, theta, jp, awgn_var)
    # max(p1, p2) as Python's max gives it: p1 unless p2 > p1
    upper = base + root * np.sqrt(np.where(p_u2 > p_u1, p_u2, p_u1))
    lower = base + root * np.sqrt(np.where(p_l2 > p_l1, p_l2, p_l1))
    return np.stack([upper, lower], axis=-1)


def robust_slp(channels, h_j, jammer_power: float, awgn_var: float, s, delta0: float, p: float,
               theta: float, n_div: int = 16, conservative: bool = False) -> SlpSolution:
    """Worst-case SLP against an unknown jammer covariance.

    Each margin constraint's worst case is a rank-one covariance (its squared
    bound is affine in Q), so the eigenvector orientation phi of rank-one
    covariances is swept over n_div points in (0, pi]. Each orientation
    yields two constraint bounds per user, the binding one of each
    boundary's two rank-one endpoint terms; by default the per-orientation QP
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
    bounds = robust_bounds(h_j, jammer_power, awgn_var, s, delta0, chi2_scale(p), theta, n_div)
    if conservative:   # each bound's maximum over the orientations: one QP
        bounds = np.max(bounds, axis=-2, keepdims=True)
    b = bounds.swapaxes(0, 1).reshape(bounds.shape[1], -1)   # orientations x (user, boundary)
    return _min_power_one(expand_row(h), s, theta, b)


def circular_bounds(sigma2, delta0: float, omega: float, theta: float) -> np.ndarray:
    """Both bounds (..., 2) of users whose noise is circular with total power sigma2 (...).

    The confidence disk of covariance (sigma2 / 2) I adds sqrt(omega sigma2 / 2)
    to the preset margin term delta0 cos(theta) on either boundary. pw_slp
    applies it to the whitened noise, naive_slp (:func:`naive_bounds`) to the
    circularized raw noise.
    """
    bound = delta0 * math.cos(theta) + np.sqrt(omega * 0.5 * np.asarray(sigma2, dtype=float))
    return np.stack([bound, bound], axis=-1)


def naive_bounds(h_jk, jammer_power: float, awgn_var: float,
                 delta0: float, omega: float, theta: float) -> np.ndarray:
    """Users' bounds (..., 2) with the noise circularized at its total power, for jammer gains h_jk (...)."""
    return circular_bounds(jammer_power * _squares(abs, h_jk) + awgn_var, delta0, omega, theta)


def naive_slp(channels, h_j, jammer_power: float, awgn_var: float, s, delta0: float, p: float,
              theta: float) -> SlpSolution:
    """SLP that ignores non-circularity: circular noise of the same total power.

    Runs the transmit-only pipeline with G_k replaced by (sigma_k^2 / 2) I,
    sigma_k^2 = jammer_power |h_jk|^2 + awgn_var, so the margins depend only
    on the total effective-noise power.
    """
    h, h_j, s = _users(channels, h_j, s, delta0)
    bounds = naive_bounds(h_j, jammer_power, awgn_var, delta0, chi2_scale(p), theta)
    return _min_power_one(expand_row(h), s, theta, bounds.reshape(1, -1))
