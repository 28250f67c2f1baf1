"""Small dense convex kernel: minimize ||x||^2 subject to A x >= b.

The problems solved here are tiny (a handful of rows and columns), strictly
convex, and almost always feasible by construction, so a dual active-set
method in the style of Goldfarb-Idnani is used: start from the unconstrained
optimum x = 0, repeatedly add the most violated constraint, taking partial
steps that drop blocking constraints whose multipliers would go negative.
Each iteration keeps an exactly-satisfied independent active set, so the
returned solution carries an exact KKT certificate (2x = A^T mu, mu >= 0,
complementary slackness). Ties are broken by lowest constraint index, which
makes the solver fully deterministic.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import Infeasible, MaxIterations, ZeroRow

__all__ = [
    "QpProblem",
    "QpSolution",
    "solve_min_norm",
    "solve_maximin",
    "kkt_residuals",
    "validate_solution",
]

_ZERO_ROW_NORM2 = 1e-30


@dataclass(frozen=True)
class QpProblem:
    """Constraint data for min ||x||^2 s.t. a @ x >= b."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
            raise ValueError("constraint matrix and bound vector sizes do not match")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("problem must have at least one row and one column")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class QpSolution:
    """Certified optimum of a min-norm QP."""

    x: np.ndarray
    objective: float
    duals: np.ndarray
    active_set: tuple = field(default_factory=tuple)


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _solve(a, b):
    """``np.linalg.solve(a, b)`` for a square float matrix and a 1-D right-hand side.

    Calls the LAPACK ``gesv`` gufunc that ``np.linalg.solve`` dispatches to
    for this case, under the same floating-point error state, so the result
    has the same bits and a singular matrix raises the same LinAlgError; the
    array-wrapping checks around it, which cost several times the solve for
    the small systems here, are skipped.

    `b` may also be a stack of right-hand sides, one per row. The gufunc
    broadcasts `a` over the rows and makes one ``gesv`` call per row, so row
    r of the result has the bits of ``_solve(a, b[r])``. (A 2-D ``b`` given to
    ``np.linalg.solve`` is a matrix of right-hand-side columns instead, solved
    in one call whose columns need not match the 1-D results bit for bit.)
    """
    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.solve1(a, b, signature="dd->d")


def _min_norm_kernel(a, b, gram, row_norm2):
    """Dual active-set iteration on precomputed Gram data.

    Returns (x, duals, active_list). `a`, `b` are the m x n constraint data,
    `gram` = a @ a.T and `row_norm2` its diagonal.
    """
    m, n = a.shape
    scale = max(1.0, float(abs(b).max()))
    eps_p = 1e-9 * scale
    zero_rows = row_norm2 <= _ZERO_ROW_NORM2
    if (zero_rows & (b > eps_p)).any():
        raise Infeasible("zero constraint row with positive bound")

    x = np.zeros(n)
    active: list[int] = []
    mu: list[float] = []
    cap = 50 * (m + n) + 200
    iters = 0
    while True:
        iters += 1
        if iters > cap:
            raise MaxIterations(f"active-set solver exceeded {cap} iterations")
        slack = a @ x - b
        p = int(slack.argmin())
        if slack[p] >= -eps_p:
            break
        mu_p = 0.0
        while True:
            iters += 1
            if iters > cap:
                raise MaxIterations(f"active-set solver exceeded {cap} iterations")
            if active:
                s = np.array(active)
                r = _solve(gram[s[:, None], s], gram[s, p])
                z = 0.5 * (a[p] - a[s].T @ r)
            else:
                z = 0.5 * a[p]
            z2 = float(z @ z)
            sp = float(b[p] - a[p] @ x)
            if z2 > 1e-20 * max(1.0, row_norm2[p]):
                t_full = max(sp, 0.0) / (2.0 * z2)
            else:
                z2 = 0.0
                t_full = math.inf
            t_drop = math.inf
            k_drop = -1
            if active:
                r_eps = 1e-12 * (1.0 + float(abs(r).max()))
                r = r.tolist()
                for j, (mu_j, r_j) in enumerate(zip(mu, r)):
                    if r_j > r_eps and mu_j / r_j < t_drop:
                        t_drop = mu_j / r_j
                        k_drop = j
            if not math.isfinite(t_full) and not math.isfinite(t_drop):
                raise Infeasible("inconsistent constraints")
            t = max(min(t_full, t_drop), 0.0)
            if t > 0.0:
                if z2 > 0.0:
                    x = x + t * z
                for j in range(len(mu)):
                    mu[j] -= t * r[j]
                mu_p += t
            if t_full <= t_drop:
                active.append(p)
                mu.append(mu_p)
                break
            del active[k_drop]
            del mu[k_drop]

    duals = np.zeros(m)
    for idx, mu_i in zip(active, mu):
        duals[idx] = max(mu_i, 0.0)
    return x, duals, active


def solve_min_norm(prob: QpProblem) -> QpSolution:
    """Globally optimal solution of min ||x||^2 s.t. A x >= b.

    The problem is strictly convex so the optimum is unique; the returned
    duals and active set certify it (see :func:`validate_solution`). Raises
    Infeasible only when a zero row carries a positive bound, and
    MaxIterations if the iteration cap is hit.
    """
    a, b = prob.a, prob.b
    gram = a @ a.T
    row_norm2 = np.einsum("ij,ij->i", a, a)
    x, duals, active = _min_norm_kernel(a, b, gram, row_norm2)
    return QpSolution(
        x=x,
        objective=float(x @ x),
        duals=duals,
        active_set=tuple(sorted(active)),
    )


def solve_maximin(a_rows, p_t: float):
    """Maximize the smallest constraint value delta s.t. ||x||^2 <= p_t.

    For uniform bounds the optimal power scales exactly as delta^2 times the
    power of the unit-bound problem, so one min-norm solve plus a closed-form
    rescaling yields the maximin point with the power budget met with
    equality. Returns (x, delta).
    """
    a = np.atleast_2d(np.asarray(a_rows, dtype=float))
    if p_t <= 0.0:
        raise ValueError("power budget must be positive")
    row_norm2 = np.einsum("ij,ij->i", a, a)
    if np.all(row_norm2 <= _ZERO_ROW_NORM2):
        raise ZeroRow("all constraint rows are zero")
    if np.any(row_norm2 <= _ZERO_ROW_NORM2):
        # A zero row pins its constraint value at zero for every x.
        return np.zeros(a.shape[1]), 0.0
    try:
        base = solve_min_norm(QpProblem(a, np.ones(a.shape[0])))
    except Infeasible:
        # No direction makes every margin positive; x = 0 is optimal.
        return np.zeros(a.shape[1]), 0.0
    delta = math.sqrt(p_t / base.objective)
    return delta * base.x, delta


def kkt_residuals(prob: QpProblem, sol: QpSolution):
    """(primal violation, complementary slackness, stationarity) residuals."""
    a, b = prob.a, prob.b
    slack = a @ sol.x - b
    primal = max(0.0, float(np.max(b - a @ sol.x)))
    comp = float(np.max(np.abs(sol.duals * slack))) if len(b) else 0.0
    stat = float(np.max(np.abs(2.0 * sol.x - a.T @ sol.duals)))
    return primal, comp, stat


def validate_solution(prob: QpProblem, sol: QpSolution) -> bool:
    """Re-check the three KKT conditions independently of the solve path.

    Relative to s = max(1, max |b|): primal violation at most 1e-7 s,
    complementary slackness at most 1e-6 s^2, stationarity at most 1e-6 s.
    """
    if np.any(sol.duals < -1e-12):
        return False
    primal, comp, stat = kkt_residuals(prob, sol)
    scale = max(1.0, float(np.max(np.abs(prob.b))))
    return primal <= 1e-7 * scale and comp <= 1e-6 * scale ** 2 and stat <= 1e-6 * scale
