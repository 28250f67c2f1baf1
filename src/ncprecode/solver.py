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

Batches. :func:`solve_min_norm_batch` solves a stack of same-shape problems
(each a matrix of the stack with one of its bound vectors) and returns, per
problem, exactly what :func:`solve_min_norm` returns for it, bit for bit, or
the exception it raises. From BATCH_CROSSOVER distinct matrices on, the
problems advance in lockstep through one kernel (:func:`_min_norm_batch`)
whose stacked products are the same BLAS calls as the scalar kernel's; below
it each problem goes through :func:`solve_min_norm`. The crossover was
measured on the QPs of one 512-slot M = K = 4 QPSK trial (2-core host,
numpy 2.4.6 with OpenBLAS on one thread, five different batches per size,
median of 15 runs each): for the 8 x 8 problems of nc_slp, pw_slp and msm,
one matrix each, the lockstep kernel took 1.30-1.42x the time of the scalar
path at 8 problems, 0.95-1.03x at 12 and 0.56-0.59x at 24, and about 25-35
against 160-170 us per problem at 224. It counts matrices, not problems, so
that robust_slp's orientations of one symbol vector (16 bound vectors on one
matrix) stay on the scalar path, which the benchmark's traced kernel count
for a one-slot trial expects; batched, they took about 0.6x the time.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import Infeasible, MaxIterations, PrecodingError, ZeroRow

__all__ = [
    "QpProblem",
    "QpSolution",
    "solve_min_norm",
    "solve_maximin",
    "kkt_residuals",
    "validate_solution",
]

_ZERO_ROW_NORM2 = 1e-30

# A batch on fewer distinct constraint matrices goes problem by problem
# through solve_min_norm (see the module docstring for how it was measured).
BATCH_CROSSOVER = 12


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


def _min_norm_batch(a, gram, row_norm2, b, owner):
    """`_min_norm_kernel` on problems (a[owner[i]], b[i]), in lockstep.

    Every problem takes its own sequence of steps, with the kernel's
    operations on the same operands, so its x, duals and active list have
    the kernel's bits; the steps of all problems are taken together. Each
    round, the problems in the outer phase take one stacked slack and argmin,
    and every problem in the inner phase takes one step: the active-set
    solves are grouped by active-set size into one stacked ``_solve`` per
    size, the products become stacked ``np.matmul`` calls (each item the
    same BLAS call as the kernel's 2-D or 1-D product), and the ratio test and
    the updates are elementwise, with the same first index on ties. Returns
    one entry per problem: (x, duals, active_list), or the exception the
    kernel raises for it.
    """
    n_prob, m = b.shape
    n = a.shape[2]
    cap = 50 * (m + n) + 200
    out = [None] * n_prob

    def fail(problems, error, message):
        for i in problems.tolist():
            out[i] = error(message)

    bmax = np.abs(b).max(axis=1)
    eps_p = 1e-9 * np.where(bmax > 1.0, bmax, 1.0)
    zero_bad = ((row_norm2[owner] <= _ZERO_ROW_NORM2) & (b > eps_p[:, None])).any(axis=1)
    fail(np.flatnonzero(zero_bad), Infeasible, "zero constraint row with positive bound")

    x = np.zeros((n_prob, n))
    act = np.zeros((n_prob, m), dtype=np.intp)   # active list, first size[i] entries
    mu = np.zeros((n_prob, m))                  # its multipliers
    size = np.zeros(n_prob, dtype=np.intp)
    p = np.zeros(n_prob, dtype=np.intp)
    mu_p = np.zeros(n_prob)
    iters = np.zeros(n_prob, dtype=np.intp)
    outer = np.flatnonzero(~zero_bad)
    inner = outer[:0]
    while outer.size or inner.size:
        if outer.size:
            iters[outer] += 1
            over = iters[outer] > cap
            fail(outer[over], MaxIterations, f"active-set solver exceeded {cap} iterations")
            outer = outer[~over]
            slack = np.matmul(a[owner[outer]], x[outer, :, None])[:, :, 0] - b[outer]
            pp = slack.argmin(axis=1)
            done = slack[np.arange(outer.size), pp] >= -eps_p[outer]
            for i in outer[done]:
                k = size[i]
                duals = np.zeros(m)
                active = act[i, :k].tolist()
                for idx, mu_i in zip(active, mu[i, :k].tolist()):
                    duals[idx] = max(mu_i, 0.0)
                out[i] = (x[i].copy(), duals, active)
            enter = outer[~done]
            p[enter] = pp[~done]
            mu_p[enter] = 0.0
            inner = np.concatenate([inner, enter])
        if not inner.size:
            break
        iters[inner] += 1
        over = iters[inner] > cap
        fail(inner[over], MaxIterations, f"active-set solver exceeded {cap} iterations")
        inner = inner[~over]
        own, ip, ks = owner[inner], p[inner], size[inner]
        ap = a[own, ip]
        z = np.empty((inner.size, n))
        width = act.shape[1]
        r = np.zeros((inner.size, width))
        ok = np.ones(inner.size, dtype=bool)
        for k in np.unique(ks).tolist():
            sel = np.flatnonzero(ks == k)
            if k == 0:
                z[sel] = 0.5 * ap[sel]
                continue
            s = act[inner[sel], :k]
            o = own[sel]
            g = gram[o[:, None, None], s[:, :, None], s[:, None, :]]
            rhs = gram[o[:, None], s, ip[sel, None]]
            try:
                r_k = _solve(g, rhs)
            except np.linalg.LinAlgError:
                # one gesv call per problem finds the singular ones
                r_k = np.zeros((sel.size, k))
                for j in range(sel.size):
                    try:
                        r_k[j] = _solve(g[j], rhs[j])
                    except np.linalg.LinAlgError as exc:
                        out[inner[sel[j]]] = exc
                        ok[sel[j]] = False
            a_s = a[o[:, None], s].transpose(0, 2, 1)
            z[sel] = 0.5 * (ap[sel] - np.matmul(a_s, r_k[:, :, None])[:, :, 0])
            r[sel, :k] = r_k
        if not ok.all():
            inner, ip, ap, z, r = inner[ok], ip[ok], ap[ok], z[ok], r[ok]
            own = owner[inner]
        z2 = np.matmul(z[:, None, :], z[:, :, None])[:, 0, 0]
        sp = b[inner, ip] - np.matmul(ap[:, None, :], x[inner, :, None])[:, 0, 0]
        rn = row_norm2[own, ip]
        full = z2 > 1e-20 * np.where(rn > 1.0, rn, 1.0)
        z2 = np.where(full, z2, 0.0)
        t_full = np.full(inner.size, math.inf)
        ratio = np.full((inner.size, width), math.inf)
        # The kernel takes these steps in Python floats, which overflow to
        # inf without a warning; it moves x in numpy, as done below.
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(np.where(0.0 > sp, 0.0, sp), 2.0 * z2, out=t_full, where=full)
            r_eps = 1e-12 * (1.0 + np.abs(r).max(axis=1))
            np.divide(mu[inner], r, out=ratio, where=r > r_eps[:, None])
            ratio[~(ratio < math.inf)] = math.inf   # a NaN ratio never blocks
            k_drop = ratio.argmin(axis=1)
            t_drop = ratio[np.arange(inner.size), k_drop]
            stuck = ~np.isfinite(t_full) & ~np.isfinite(t_drop)
            fail(inner[stuck], Infeasible, "inconsistent constraints")
            t_min = np.where(t_drop < t_full, t_drop, t_full)
            t = np.where(0.0 > t_min, 0.0, t_min)
            pos = (t > 0.0) & ~stuck
            mu[inner[pos]] = mu[inner[pos]] - t[pos, None] * r[pos]
            mu_p[inner[pos]] += t[pos]
        move = pos & (z2 > 0.0)
        x[inner[move]] = x[inner[move]] + t[move, None] * z[move]
        add = (t_full <= t_drop) & ~stuck
        grow = inner[add]
        if grow.size and size[grow].max() == width:
            # a list that re-adds a constraint can outgrow m entries
            act = np.pad(act, ((0, 0), (0, m)))
            mu = np.pad(mu, ((0, 0), (0, m)))
        act[grow, size[grow]] = ip[add]
        mu[grow, size[grow]] = mu_p[grow]
        size[grow] += 1
        drop = ~add & ~stuck
        shrink = inner[drop]
        cols = np.arange(act.shape[1])
        src = np.minimum(cols + (cols >= k_drop[drop, None]), act.shape[1] - 1)
        act[shrink] = np.take_along_axis(act[shrink], src, axis=1)
        mu[shrink] = np.take_along_axis(mu[shrink], src, axis=1)
        size[shrink] -= 1
        outer, inner = grow, shrink
    return out


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


def solve_min_norm_batch(a, b, owner=None) -> list:
    """:func:`solve_min_norm` of each problem min ||x||^2 s.t. a[owner[i]] x >= b[i].

    `a` is a stack of P same-shape m x n constraint matrices, `b` an N x m
    array of bounds and `owner` the matrix of each of its rows (default: row
    i of `b` goes with matrix i, N = P). Returns one entry per row of `b`: the
    QpSolution :func:`solve_min_norm` returns, bit for bit, or the exception
    (Infeasible, MaxIterations or LinAlgError) it raises for that problem.

    A stack of fewer than BATCH_CROSSOVER matrices goes problem by problem
    through :func:`solve_min_norm`. A larger one has each matrix's Gram
    product and row norms computed once, however many bound vectors share
    it, and all its problems solved in lockstep (:func:`_min_norm_batch`).
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    owner = np.arange(len(a)) if owner is None else np.asarray(owner, dtype=np.intp)
    if a.ndim != 3 or b.ndim != 2 or b.shape[1] != a.shape[1] or owner.shape != (len(b),):
        raise ValueError("constraint stack, bound rows and owners do not match")
    if len(a) < BATCH_CROSSOVER:
        out = []
        for i, o in enumerate(owner.tolist()):
            try:
                out.append(solve_min_norm(QpProblem(a[o], b[i])))
            except (PrecodingError, np.linalg.LinAlgError) as exc:
                out.append(exc)
        return out
    if a.shape[1] < 1 or a.shape[2] < 1:
        raise ValueError("problem must have at least one row and one column")
    gram = np.matmul(a, a.transpose(0, 2, 1))
    row_norm2 = np.einsum("pij,pij->pi", a, a)
    out = _min_norm_batch(a, gram, row_norm2, b, owner)
    solved = [i for i, res in enumerate(out) if not isinstance(res, Exception)]
    if solved:
        xs = np.array([out[i][0] for i in solved])
        objectives = np.matmul(xs[:, None, :], xs[:, :, None])[:, 0, 0].tolist()
        for i, obj in zip(solved, objectives):
            x, duals, active = out[i]
            out[i] = QpSolution(x=x, objective=obj, duals=duals, active_set=tuple(sorted(active)))
    return out


def solve_maximin(a_rows, p_t: float):
    """Maximize the smallest constraint value delta s.t. ||x||^2 <= p_t.

    For uniform bounds the optimal power scales exactly as delta^2 times the
    power of the unit-bound problem, so one min-norm solve plus a closed-form
    rescaling yields the maximin point with the power budget met with
    equality. Returns (x, delta). :func:`solve_maximin_batch` of one matrix.
    """
    return solve_maximin_batch(np.atleast_2d(np.asarray(a_rows, dtype=float))[None], p_t)[0]


def solve_maximin_batch(a, p_t: float) -> list:
    """(x, delta) of :func:`solve_maximin` for each matrix of the stack `a`.

    A matrix with a zero row pins that constraint value at zero, and one with
    no direction that makes every value positive (Infeasible) has x = 0
    optimal: both give (0, 0.0). A matrix whose rows are all zero raises
    ZeroRow. Problems fail in stack order: the first matrix whose solve
    raises, or whose rows are all zero, raises its exception, as a loop of
    single solves would.
    """
    a = np.asarray(a, dtype=float)
    if p_t <= 0.0:
        raise ValueError("power budget must be positive")
    zero = np.einsum("pij,pij->pi", a, a) <= _ZERO_ROW_NORM2
    all_zero = np.flatnonzero(zero.all(axis=1))
    count = all_zero[0] if all_zero.size else len(a)
    qp = np.flatnonzero(~zero[:count].any(axis=1))
    sols = dict(zip(qp.tolist(), solve_min_norm_batch(a[qp], np.ones((qp.size, a.shape[1])))))
    out = []
    for i in range(count):
        sol = sols.get(i)
        if isinstance(sol, Exception) and not isinstance(sol, Infeasible):
            raise sol
        if sol is None or isinstance(sol, Infeasible):
            # a zero row, or no direction makes every margin positive: x = 0 is optimal
            out.append((np.zeros(a.shape[2]), 0.0))
        else:
            delta = math.sqrt(p_t / sol.objective)
            out.append((delta * sol.x, delta))
    if count < len(a):
        raise ZeroRow("all constraint rows are zero")
    return out


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
