"""Widely-linear algebra kernel.

Complex <-> real-stacked conversions, planar rotations, and closed-form
eigen/whitening decompositions for symmetric 2x2 matrices. Everything in this
module is a pure function on small fixed-size arrays: a symmetric 2x2 matrix
(a noise or jammer covariance) is a plain float (2, 2) array whose builders
write both off-diagonal entries from one value. The rest of the library is
built on top of these primitives.
"""

import math
import sys

import numpy as np

from .errors import NotPositiveDefinite

__all__ = [
    "expand_vec",
    "collapse_vec",
    "expand_row",
    "symbol_rotation",
    "eig2_sym",
    "sqrt_inv_psd2",
]


def expand_vec(v) -> np.ndarray:
    """Stack a complex vector as [real parts; imaginary parts]."""
    v = np.asarray(v, dtype=complex).ravel()
    return np.concatenate([v.real, v.imag])


def collapse_vec(vbar) -> np.ndarray:
    """Inverse of :func:`expand_vec`."""
    vbar = np.asarray(vbar, dtype=float).ravel()
    if vbar.size % 2:
        raise ValueError("real-stacked vector must have even length")
    q = vbar.size // 2
    return vbar[:q] + 1j * vbar[q:]


def expand_row(h) -> np.ndarray:
    """Real 2x2t block form [[Re h, -Im h], [Im h, Re h]] of a complex row.

    For any complex x, expand_row(h) @ expand_vec(x) == [Re(hx); Im(hx)].
    """
    h = np.asarray(h, dtype=complex).ravel()
    top = np.concatenate([h.real, -h.imag])
    bot = np.concatenate([h.imag, h.real])
    return np.vstack([top, bot])


def symbol_rotation(s: complex) -> np.ndarray:
    """Orthogonal 2x2 matrix [[Re s, -Im s], [Im s, Re s]] of a unit symbol."""
    s = complex(s)
    if abs(abs(s) - 1.0) > 1e-9:
        raise ValueError("symbol must have unit magnitude")
    return np.array([[s.real, -s.imag], [s.imag, s.real]])


def eig2_sym(g: np.ndarray):
    """Closed-form eigendecomposition of a symmetric 2x2 matrix.

    Returns (lam1, lam2, v) with lam1 >= lam2 and v the unit eigenvector of
    lam1. Sign convention: the first nonzero component of v is positive. For
    a multiple of the identity (circle) v = (1, 0). Only the diagonal and
    g[0, 1] are read.
    """
    a, b, c = float(g[0, 0]), float(g[0, 1]), float(g[1, 1])
    half_tr = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    lam1 = half_tr + disc
    lam2 = half_tr - disc
    # Two candidate eigenvector expressions; keep the better conditioned one.
    cand1 = np.array([lam1 - c, b])
    cand2 = np.array([b, lam1 - a])
    v = cand1 if cand1 @ cand1 >= cand2 @ cand2 else cand2
    norm = math.sqrt(float(v @ v))
    if norm == 0.0:
        v = np.array([1.0, 0.0])
    else:
        v = v / norm
        if v[0] < 0.0 or (v[0] == 0.0 and v[1] < 0.0):
            v = -v
    return lam1, lam2, v


def sqrt_inv_psd2(g: np.ndarray) -> np.ndarray:
    """Symmetric principal inverse square root W of a positive definite g.

    Satisfies W @ g @ W.T == I. The symmetric root is one whitener among
    many; fixing it keeps downstream results deterministic. Every whitening
    of a noise covariance in the package goes through here. A singular g
    whose larger eigenvalue is below the smallest normal float (a noise
    power that underflows, as a jammer of about -3230 dB without AWGN gives)
    raises NotPositiveDefinite("the noise covariance is too small to whiten
    ..."); any other singular or indefinite g raises it as not strictly
    positive definite.
    """
    lam1, lam2, v = eig2_sym(g)
    if lam2 <= 0.0:
        if lam1 < sys.float_info.min:
            raise NotPositiveDefinite("the noise covariance is too small to whiten: its entries underflow")
        raise NotPositiveDefinite("matrix must be strictly positive definite")
    vp = np.array([-v[1], v[0]])
    return np.outer(v, v) / math.sqrt(lam1) + np.outer(vp, vp) / math.sqrt(lam2)
