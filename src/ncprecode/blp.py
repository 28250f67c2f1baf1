"""Block-level MMSE precoders.

One linear precoder per channel block, acting on the real-stacked symbol
vector. Variants differ only in the per-user noise covariance they assume:
the pre-whitened design uses the true (generally non-circular) covariance,
the robust design a circular covariance of the same total power, and the
naive design the AWGN-only covariance. The designs broadcast over leading
axes (a chunk's trials, a grid's cells), each item with the bits of its
one-item call: stacked whitening and products, and stacked LAPACK
Cholesky factorizations and solves.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, PrecodingError
from .wlalg import _sym2, expand_row, sqrt_inv_psd2

__all__ = [
    "LinearPrecoder",
    "stack_whitened",
    "mmse_blp",
    "stationarity_residuals",
    "mse_closed_form",
    "mse_of_precoder",
    "pw_blp",
    "robust_blp",
    "naive_blp",
]


@dataclass(frozen=True)
class LinearPrecoder:
    """Real 2M x 2K precoder with its MMSE scaling and power budget.

    The transmit-power constraint holds with equality: 0.5 tr(P P^T) equals
    the budget. A stack of designs has p (..., 2M, 2K) and beta (...).
    """

    p: np.ndarray
    beta: float
    power_budget: float


def _as_channel_matrix(channels) -> np.ndarray:
    """K x M complex channel rows, or a stack of them (..., K, M)."""
    return np.atleast_2d(np.asarray(channels, dtype=complex))


def stack_whitened(channels, whiteners) -> np.ndarray:
    """Stacked whitened channels (..., 2K, 2M): rows G_k^{-1/2} Hbar_k, first rows then seconds.

    channels (..., K, M) are the users' channel rows and whiteners (..., K,
    2, 2) the whiteners G_k^{-1/2} of their noise covariances, as
    ``sqrt_inv_psd2`` gives them. Row k (k = 0..K-1) is the first whitened
    row of user k, row K + k the second, matching the ordering of the
    stacked whitened observations.
    """
    he = whiteners @ expand_row(_as_channel_matrix(channels))
    return np.concatenate([he[..., 0, :], he[..., 1, :]], axis=-2)


def mmse_blp(h_e: np.ndarray, p_t: float) -> LinearPrecoder:
    """MMSE block precoders for stacked whitened channels h_e (..., 2K, 2M).

    P = beta * Delta @ H_E^T with Delta = (H_E^T H_E + a I)^{-1}, a = 2K/p_t,
    and beta chosen so the power constraint is tight. Delta is inverted via
    its Cholesky factor (the matrix is always positive definite since a > 0).
    """
    if p_t <= 0.0:
        raise ValueError("transmit power budget must be positive")
    two_k, two_m = h_e.shape[-2:]
    k = two_k // 2
    a = 2.0 * k / p_t
    with np.errstate(over="ignore"):
        gram = h_e.swapaxes(-1, -2) @ h_e + a * np.eye(two_m)
    if not np.isfinite(gram).all():
        # whitening scales the channel by the inverse square root of its noise
        # covariance, so a vanishing covariance takes H_E^T H_E out of range
        raise PrecodingError(
            "the whitened channel's Gram product overflows: the noise covariance is too small to whiten"
        )
    chol = np.linalg.cholesky(gram)
    eye = np.eye(two_m)
    delta = np.linalg.solve(chol.swapaxes(-1, -2), np.linalg.solve(chol, eye))
    hd = h_e @ delta  # = (Delta @ H_E^T)^T by symmetry of Delta
    power = (hd * hd).reshape(hd.shape[:-2] + (-1,)).sum(axis=-1)
    with np.errstate(over="ignore", divide="ignore"):
        beta = np.sqrt(2.0 * p_t / power)
    if not np.isfinite(beta).all():
        # a power of zero (a tiny budget) or a subnormal one (a huge whitened
        # channel whose Gram product is still finite)
        raise PrecodingError(
            f"power budget {p_t!r} is too small: the precoder's power underflows" if np.any(power == 0.0)
            else "the precoder's scaling overflows: the noise covariance is too small to whiten"
        )
    return LinearPrecoder(p=beta[..., None, None] * hd.swapaxes(-1, -2), beta=beta[()], power_budget=float(p_t))


def stationarity_residuals(pre: LinearPrecoder, h_e: np.ndarray):
    """Max-abs residuals of the two stationarity conditions at the optimum.

    The first is the matrix condition in P (with the multiplier recovered as
    a / beta^2), the second the scalar condition in beta.
    """
    two_k = h_e.shape[0]
    k = two_k // 2
    a = 2.0 * k / pre.power_budget
    beta = pre.beta
    lam = a / beta ** 2
    res_p = -h_e.T / beta + (h_e.T @ (h_e @ pre.p)) / beta ** 2 + lam * pre.p
    hp = h_e @ pre.p
    res_beta = (
        np.trace(hp) / beta ** 2
        - float(np.sum(hp * hp)) / beta ** 3
        - 4.0 * k / beta ** 3
    )
    return float(np.max(np.abs(res_p))), abs(res_beta)


def mse_closed_form(channels, covs, p_t: float):
    """Optimal MSE of the pre-whitened MMSE design for given noise covariances.

    Equals K - M + 0.5 tr{(I + (1/a) sum_k Hbar_k^T G_k^{-1} Hbar_k)^{-1}}
    with a = 2K/p_t, for the K x M channels and covs (..., K, 2, 2): one
    value per leading index, the users summed in user order. Depends on
    each covariance only through its inverse, so it is invariant to the
    choice of whitening factor. A singular or indefinite covariance raises
    NotPositiveDefinite.
    """
    h = _as_channel_matrix(channels)
    k, m = h.shape
    a = 2.0 * k / p_t
    covs = np.asarray(covs, dtype=float)
    m11, m12, m22 = covs[..., 0, 0], covs[..., 0, 1], covs[..., 1, 1]
    det = m11 * m22 - m12 * m12
    if np.any(det <= 0.0):
        raise NotPositiveDefinite("2x2 matrix is singular or indefinite")
    inv = _sym2(m22 / det, -m12 / det, m11 / det)
    hb = expand_row(h)
    acc = np.zeros(covs.shape[:-3] + (2 * m, 2 * m))
    for u in range(k):
        acc += hb[u].T @ inv[..., u, :, :] @ hb[u]
    d = np.eye(2 * m) + acc / a
    return (k - m + 0.5 * np.trace(np.linalg.solve(d, np.eye(2 * m)), axis1=-2, axis2=-1))[()]


def mse_of_precoder(pre: LinearPrecoder, channels, covs) -> float:
    """MSE of a given (P, beta) pair under the stated true noise covariances.

    The receivers whiten with their actual covariance, so the whitened noise
    is white with identity covariance regardless of the design assumptions
    baked into P.
    """
    h = _as_channel_matrix(channels)
    k = h.shape[0]
    h_e = stack_whitened(h, sqrt_inv_psd2(covs))
    hp = h_e @ pre.p
    beta = pre.beta
    return (
        k
        - float(np.trace(hp)) / beta
        + (0.5 * float(np.sum(hp * hp)) + 2.0 * k) / beta ** 2
    )


def pw_blp(channels, covs, p_t: float) -> LinearPrecoder:
    """Pre-whitened MMSE precoder for the true effective-noise covariances.

    covs[k] is user k's G_k, as `noisegeom.effective_cov` gives it.
    """
    return mmse_blp(stack_whitened(channels, sqrt_inv_psd2(covs)), p_t)


def robust_blp(channels, awgn_var: float, jammer_powers_per_user, p_t: float) -> LinearPrecoder:
    """Worst-case MMSE precoder: assumes circular noise of the full power.

    The worst-case covariance for the MMSE criterion is circular, so the
    robust design uses G_k = ((rho^2 |h_jk|^2 + awgn_var) / 2) I.
    """
    h = _as_channel_matrix(channels)
    s = 0.5 * (np.broadcast_to(np.asarray(jammer_powers_per_user, dtype=float), h.shape[:-1]) + awgn_var)
    return mmse_blp(stack_whitened(h, sqrt_inv_psd2(_sym2(s, 0.0, s))), p_t)


def naive_blp(channels, awgn_var: float, p_t: float) -> LinearPrecoder:
    """MMSE precoder that ignores the jammer entirely: robust_blp with zero jammer power."""
    return robust_blp(channels, awgn_var, 0.0, p_t)
