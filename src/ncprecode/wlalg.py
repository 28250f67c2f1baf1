"""Widely-linear algebra kernel.

Complex <-> real-stacked conversions, planar rotations, and closed-form
eigen/whitening decompositions for symmetric 2x2 matrices. Everything in this
module is a pure function on small fixed-size arrays; the rest of the library
is built on top of these primitives.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite

__all__ = [
    "SymMat2",
    "expand_vec",
    "collapse_vec",
    "expand_row",
    "symbol_rotation",
    "eig2_sym",
    "sqrt_inv_psd2",
]


@dataclass(frozen=True)
class SymMat2:
    """Symmetric 2x2 matrix stored by its three independent entries."""

    m11: float
    m12: float
    m22: float

    @classmethod
    def from_array(cls, m) -> "SymMat2":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        scale = max(1.0, abs(m[0, 1]), abs(m[1, 0]))
        if abs(m[0, 1] - m[1, 0]) > 1e-9 * scale:
            raise ValueError("matrix is not symmetric")
        off = 0.5 * (m[0, 1] + m[1, 0])
        return cls(float(m[0, 0]), float(off), float(m[1, 1]))

    @classmethod
    def scaled_identity(cls, scale: float) -> "SymMat2":
        return cls(float(scale), 0.0, float(scale))

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m12, self.m22]])

    def trace(self) -> float:
        return self.m11 + self.m22

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m12

    def inv(self) -> "SymMat2":
        d = self.det()
        if d <= 0.0:
            raise NotPositiveDefinite("2x2 matrix is singular or indefinite")
        return SymMat2(self.m22 / d, -self.m12 / d, self.m11 / d)


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


def eig2_sym(g: SymMat2):
    """Closed-form eigendecomposition of a symmetric 2x2 matrix.

    Returns (lam1, lam2, v) with lam1 >= lam2 and v the unit eigenvector of
    lam1. Sign convention: the first nonzero component of v is positive. For
    a multiple of the identity (circle) v = (1, 0).
    """
    a, b, c = g.m11, g.m12, g.m22
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


def sqrt_inv_psd2(g: SymMat2) -> np.ndarray:
    """Symmetric principal inverse square root W of a positive definite g.

    Satisfies W @ g @ W.T == I. The symmetric root is one whitener among
    many; fixing it keeps downstream results deterministic.
    """
    lam1, lam2, v = eig2_sym(g)
    if lam2 <= 0.0:
        raise NotPositiveDefinite("matrix must be strictly positive definite")
    vp = np.array([-v[1], v[0]])
    return np.outer(v, v) / math.sqrt(lam1) + np.outer(vp, vp) / math.sqrt(lam2)
