"""Widely-linear algebra kernel.

Complex <-> real-stacked conversions, planar rotations, and closed-form
eigen/whitening decompositions for symmetric 2x2 matrices. The functions
broadcast over leading axes: a symmetric 2x2 matrix (a noise or jammer
covariance) is a float (..., 2, 2) array whose builders write both
off-diagonal entries from one value, and a single (2, 2) matrix is the
one-item case of the same code. The rest of the library is built on top of
these primitives.

Every item of a stack has the bits of its own one-item call, because only
three kinds of operation are used: each libm call (math.hypot, math.atan2,
math.sin, math.cos, cmath.phase and Python-float ``** 2``) stays a
per-element Python call (:func:`_each`), since numpy's own hypot, arctan2,
sin, cos and square differ from them in the last bit on some arguments;
each product and dot product is a stacked np.matmul, which makes the same
BLAS call per item; and only + - * / and sqrt act elementwise in numpy.
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


def _each(fn, *args) -> np.ndarray:
    """fn called as a Python function on each element of the same-shaped args; float results."""
    return np.array(list(map(fn, *(np.ravel(a).tolist() for a in args))), dtype=float).reshape(np.shape(args[0]))


def _sym2(a, b, c) -> np.ndarray:
    """The symmetric (..., 2, 2) matrices [[a, b], [b, c]] of broadcast a, b, c."""
    out = np.empty(np.broadcast(a, b, c).shape + (2, 2))
    out[..., 0, 0] = a
    out[..., 0, 1] = out[..., 1, 0] = b
    out[..., 1, 1] = c
    return out


def _outer(u, v) -> np.ndarray:
    """Outer products u v^T of (..., 2) vectors, as np.outer forms them."""
    return u[..., :, None] * v[..., None, :]


def _perp(v) -> np.ndarray:
    """The (..., 2) vectors (-v1, v0), v rotated by a quarter turn."""
    out = np.empty(v.shape)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def expand_vec(v) -> np.ndarray:
    """Stack complex vectors v (..., t) as [real parts; imaginary parts], shape (..., 2t)."""
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag], axis=-1)


def collapse_vec(vbar) -> np.ndarray:
    """Inverse of :func:`expand_vec`: complex vectors (..., t) of real-stacked ones (..., 2t)."""
    vbar = np.asarray(vbar, dtype=float)
    if vbar.shape[-1] % 2:
        raise ValueError("real-stacked vector must have even length")
    q = vbar.shape[-1] // 2
    return vbar[..., :q] + 1j * vbar[..., q:]


def expand_row(h) -> np.ndarray:
    """Real 2x2t block form [[Re h, -Im h], [Im h, Re h]] of complex rows h (..., t).

    Returns shape (..., 2, 2t). For any complex x,
    expand_row(h) @ expand_vec(x) == [Re(hx); Im(hx)] for a single row h.
    """
    h = np.asarray(h, dtype=complex)
    t = h.shape[-1]
    out = np.empty(h.shape[:-1] + (2, 2 * t))
    out[..., 0, :t] = out[..., 1, t:] = h.real
    out[..., 0, t:] = -h.imag
    out[..., 1, :t] = h.imag
    return out


def symbol_rotation(s) -> np.ndarray:
    """Orthogonal 2x2 matrices [[Re s, -Im s], [Im s, Re s]] of unit symbols s (...)."""
    s = np.asarray(s, dtype=complex)
    if (np.abs(np.abs(s) - 1.0) > 1e-9).any():
        raise ValueError("symbol must have unit magnitude")
    return expand_row(s[..., None])


def eig2_sym(g):
    """Closed-form eigendecomposition of symmetric 2x2 matrices g (..., 2, 2).

    Returns (lam1, lam2, v) with lam1 >= lam2 and v (..., 2) the unit
    eigenvector of lam1. Sign convention: the first nonzero component of v
    is positive. For a multiple of the identity (circle) v = (1, 0), and so
    for a matrix whose lam1 is not finite (entries near the float limit),
    which eig2_sym computes without a floating-point warning. Only
    the diagonal and g[..., 0, 1] are read. For one matrix lam1 and lam2 are
    scalars.
    """
    g = np.asarray(g, dtype=float)
    a, b, c = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    # Two candidate eigenvector expressions, one per row; keep the better
    # conditioned one. Entries near the float limit (a noise power that
    # overflows) give an infinite or NaN lam1, quietly, and such a matrix
    # gets the circle's direction: its candidates are zero.
    with np.errstate(over="ignore", invalid="ignore"):
        half_tr = 0.5 * (a + c)
        disc = _each(math.hypot, 0.5 * (a - c), b)
        lam1 = half_tr + disc
        lam2 = half_tr - disc
        cand = _sym2(lam1 - c, b, lam1 - a)
    cand[~np.isfinite(lam1)] = 0.0
    # Their squared norms overflow above about 1e154, so candidates whose
    # largest entry reaches 2^500 are first scaled down by an exact power of
    # two, which changes no bit of the direction.
    if (np.abs(cand) >= 2.0 ** 500).any():
        peak = np.abs(cand).max(axis=(-2, -1))
        cand = np.ldexp(cand, -np.maximum(np.frexp(peak)[1] - 500, 0)[..., None, None])
    norm2 = np.matmul(cand[..., None, :], cand[..., :, None])[..., 0]   # one BLAS dot per row, as cand @ cand
    v = np.where(norm2[..., 0, :] >= norm2[..., 1, :], cand[..., 0, :], cand[..., 1, :])
    norm = np.sqrt(np.matmul(v[..., None, :], v[..., :, None]))[..., 0]
    unit = np.zeros(v.shape)
    unit[..., 0] = 1.0   # the circle's convention, kept where the norm is zero
    v = np.divide(v, norm, out=unit, where=norm != 0.0)
    first = np.where(v[..., :1] == 0.0, v[..., 1:], v[..., :1])   # the first nonzero component
    np.negative(v, out=v, where=first < 0.0)
    return lam1[()], lam2[()], v


def sqrt_inv_psd2(g) -> np.ndarray:
    """Symmetric principal inverse square roots W of positive definite g (..., 2, 2).

    Satisfies W @ g @ W.T == I. The symmetric root is one whitener among
    many; fixing it keeps downstream results deterministic. Every whitening
    of a noise covariance in the package goes through here. A singular g
    whose larger eigenvalue is below the smallest normal float (a noise
    power that underflows, as a jammer of about -3230 dB without AWGN gives)
    raises NotPositiveDefinite("the noise covariance is too small to whiten
    ..."); a g whose eigenvalues are not finite (a noise power near the
    float limit, as a jammer of about 3080 dB gives) raises it as "too large
    to whiten ..."; any other singular or indefinite g raises it as not
    strictly positive definite. In a stack the first such matrix, in C
    order, raises.
    """
    lam1, lam2, v = eig2_sym(g)
    bad = np.ravel(~((lam2 > 0.0) & (lam1 < math.inf)))
    if bad.any():   # the first failing matrix's message
        first = np.ravel(lam1)[bad.argmax()]
        if first < sys.float_info.min:
            raise NotPositiveDefinite("the noise covariance is too small to whiten: its entries underflow")
        if not first < math.inf:
            raise NotPositiveDefinite("the noise covariance is too large to whiten: its eigenvalues overflow")
        raise NotPositiveDefinite("matrix must be strictly positive definite")
    vp = _perp(v)
    return _outer(v, v) / np.sqrt(lam1)[..., None, None] + _outer(vp, vp) / np.sqrt(lam2)[..., None, None]
