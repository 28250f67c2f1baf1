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
(each a matrix of the stack with one of its bound vectors) and returns one
``QpBatch`` of stacks: x, objectives, duals and active lists, row i exactly
what :func:`solve_min_norm` gives problem i, bit for bit, and the exception
of each problem that raises one. No object is built per problem. From
BATCH_CROSSOVER distinct matrices on, the problems advance in lockstep
through one kernel (:func:`_min_norm_batch`) whose stacked products are the
same BLAS calls as the scalar kernel's; below it each problem goes through
:func:`solve_min_norm`. The lockstep kernel works on arrays of the problems
still running, from which a problem leaves with its x, active list and
multipliers once it finishes. Problems that share a matrix, an active list
and an entering row (robust_slp's orientations of one symbol vector, say)
share that step's active-set solve and direction, taken once for all of
them with the operands each would use, so each keeps its bits. The lockstep
kernel takes only the regular step. A
problem that needs a rare path (a zero row under a positive bound, a
singular active-set solve, inconsistent constraints, an overlong active
list, the iteration cap) is solved again from the start by
:func:`_min_norm_kernel`, which is deterministic and so gives it the same
result or exception, written into the same arrays; every failure rule and
message is defined there alone. The crossover was
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

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import _umath_linalg

from .errors import Infeasible, MaxIterations, PrecodingError, ZeroRow

__all__ = [
    "QpProblem",
    "QpSolution",
    "solve_min_norm",
    "solve_min_norm_batch",
    "solve_maximin",
    "solve_maximin_batch",
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
    active_set: tuple   # the active constraints, in the order the kernel added them


# Stacked results of N min-norm QPs, problem i in row i: x (N x n), objective
# (N, ||x||^2), duals (N x m) and the active lists active[i, :size[i]], in the
# order the kernel added them (only a broken active-set solve makes a list
# longer than m, and then `active` is wider). `errors` maps each failed
# problem to the exception the kernel raises for it; its rows are zero.
QpBatch = namedtuple("QpBatch", "x objective duals active size errors")


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# The floating-point error state np.linalg.solve sets around gesv, built
# once: a singular matrix (an invalid flag) calls _raise_singular, and no
# other flag warns.
_SINGULAR_STATE = _make_extobj(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")


def _solve(a, b):
    """``np.linalg.solve(a, b)`` for a square float matrix and a 1-D right-hand side.

    Calls the LAPACK ``gesv`` gufunc that ``np.linalg.solve`` dispatches to
    for this case, under the same floating-point error state, so the result
    has the same bits and a singular matrix raises the same LinAlgError; the
    array-wrapping checks around it, which cost several times the solve for
    the small systems here, are skipped. The state is built once and set on
    numpy's error-state context variable, as ``np.errstate`` sets it, without
    the context manager's Python calls.

    `b` may also be a stack of right-hand sides, one per row. The gufunc
    broadcasts `a` over the rows and makes one ``gesv`` call per row, so row
    r of the result has the bits of ``_solve(a, b[r])``. (A 2-D ``b`` given to
    ``np.linalg.solve`` is a matrix of right-hand-side columns instead, solved
    in one call whose columns need not match the 1-D results bit for bit.)
    """
    token = _extobj_contextvar.set(_SINGULAR_STATE)
    try:
        return _umath_linalg.solve1(a, b, signature="dd->d")
    finally:
        _extobj_contextvar.reset(token)


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
        duals[idx] = max(mu_i, 0.0)   # a negative multiplier's dual is 0
    return x, duals, active


def _zeros(n_prob: int, m: int, n: int):
    """Zero x, active-list, list-size and multiplier arrays of n_prob problems with m rows and n columns."""
    return (
        np.zeros((n_prob, n)),
        np.zeros((n_prob, m), dtype=np.intp),
        np.zeros(n_prob, dtype=np.intp),
        np.zeros((n_prob, m)),
    )


def _batch(solve, todo, x, act, size, mu) -> QpBatch:
    """The QpBatch of lockstep arrays, with each problem i of `todo` set to solve(i).

    Row i's active list is ``act[i, :size[i]]``, in insertion order, with
    multipliers ``mu[i, :size[i]]``. Its duals are one scatter of
    ``where(0 > mu, 0, mu)``, which has the bits of the kernel's
    ``max(mu_i, 0.0)``, -0.0 and NaN included, in (problem, list position)
    order, the order in which the kernel writes them. solve(i) gives a
    kernel triple (x, duals, active list) or a QpSolution, which replaces
    row i, or raises a PrecodingError or LinAlgError, which is recorded and
    leaves row i zero. The objectives are one stacked matmul, each item the
    BLAS dot of ``float(x @ x)``.
    """
    duals = np.zeros(mu.shape)
    row, at = np.nonzero(np.arange(mu.shape[1]) < size[:, None])
    duals[row, act[row, at]] = np.where(0.0 > mu[row, at], 0.0, mu[row, at])
    errors = {}
    for i in todo:
        try:
            res = solve(i)
        except (PrecodingError, np.linalg.LinAlgError) as exc:
            errors[i], res = exc, (0.0, 0.0, ())
        x[i], duals[i], active = res if isinstance(res, tuple) else (res.x, res.duals, res.active_set)
        size[i] = len(active)
        if size[i] > act.shape[1]:
            act = np.pad(act, ((0, 0), (0, size[i] - act.shape[1])))
        act[i, :size[i]] = active
    with np.errstate(over="ignore"):   # an x near the float limit's square root: an infinite objective
        return QpBatch(x, np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0], duals, act, size, errors)


def _min_norm_batch(a, gram, row_norm2, b, owner):
    """`_min_norm_kernel` on problems (a[owner[i]], b[i]), in lockstep.

    Every problem takes its own sequence of the kernel's regular steps, with
    the kernel's operations on the same operands, so its x, duals and active
    list have the kernel's bits; the steps of all problems are taken
    together, on arrays that hold only the problems still running. Each
    round, the problems that just added a constraint (or just started) take
    one stacked slack and argmin; those that are done leave the arrays
    together with those that left the lockstep, and every other problem
    takes one step. Problems that share a constraint matrix, an active list
    (in insertion order) and an entering row share the step's active-set
    solve and direction z, taken once for all of them; the active-set solves
    are grouped by active-set size into one stacked ``_solve`` per size, the
    products become stacked ``np.matmul`` calls (each item the same BLAS call
    as the kernel's 2-D or 1-D product), and the ratio test and the updates
    are elementwise, with the same first index on ties. A problem that needs
    one of the kernel's rare paths leaves the lockstep: a zero row under a
    positive bound, a size group whose stacked solve raises (the whole
    group), a step that can neither add nor drop, an add to a list of m
    entries, or an iteration count past the cap. After the loop the kernel
    solves each such problem again from the start, so every failure rule
    lives in the kernel alone, and its triple or exception goes into the
    same arrays (:func:`_batch`).

    A finished problem's x row, its active list ``act[i, :size[i]]`` in the
    kernel's insertion order and its multipliers are written out as it
    leaves; :func:`_batch` scatters the duals. Returns the QpBatch of every
    problem.
    """
    n_prob, m = b.shape
    n = a.shape[2]
    cap = 50 * (m + n) + 200
    bmax = np.abs(b).max(axis=1)
    eps_p = 1e-9 * np.where(bmax > 1.0, bmax, 1.0)
    zero_bad = ((row_norm2[owner] <= _ZERO_ROW_NORM2) & (b > eps_p[:, None])).any(axis=1)
    x_out, act_out, size_out, mu_out = _zeros(n_prob, m, n)
    solved = np.zeros(n_prob, dtype=bool)   # a problem that leaves unsolved is handed off
    # A step's key is its matrix, entering row and active list as digits in
    # base m + 1 (m past the list's end); no key is built when no matrix has
    # two problems, or when the keys could overflow.
    share = np.bincount(owner, minlength=len(a)).max() > 1 and len(a) * (m + 1) ** (m + 1) < 2 ** 63
    digits = (m + 1) ** np.arange(m, dtype=np.int64)
    cols = np.arange(m)

    # The running problems: their index, matrix, bounds and state, compacted.
    idx = np.flatnonzero(~zero_bad)
    own, bq, eq = owner[idx], b[idx], eps_p[idx]
    x, act, size, mu = _zeros(idx.size, m, n)
    p = np.zeros(idx.size, dtype=np.intp)
    mu_p = np.zeros(idx.size)
    iters = np.zeros(idx.size, dtype=np.intp)
    outer = live = np.ones(idx.size, dtype=bool)   # every problem starts with a slack test
    while True:
        iters += outer
        slack = np.matmul(a[own], x[:, :, None])[:, :, 0] - bq   # only the outer rows' are used
        pp = slack.argmin(axis=1)
        done = outer & (iters <= cap) & (slack[np.arange(idx.size), pp] >= -eq)
        p = np.where(outer, pp, p)
        mu_p = np.where(outer, 0.0, mu_p)
        iters += 1
        keep = live & ~done & (iters <= cap)
        fin = idx[done]
        solved[fin] = True
        x_out[fin], act_out[fin], size_out[fin], mu_out[fin] = x[done], act[done], size[done], mu[done]
        if not keep.all():
            idx, own, bq, eq, x, act, size, mu, p, mu_p, iters = (
                v[keep] for v in (idx, own, bq, eq, x, act, size, mu, p, mu_p, iters)
            )
        if not idx.size:
            break
        ap = a[own, p]
        z = 0.5 * ap   # the step of an empty active set
        r = np.zeros((idx.size, m))
        live = np.ones(idx.size, dtype=bool)
        rep = np.arange(idx.size)   # the problems whose step is taken
        if share:
            key = (own * (m + 1) + p) * (m + 1) ** m + np.where(cols < size[:, None], act, m) @ digits
            _, rep, inv = np.unique(key, return_index=True, return_inverse=True)
        ks = size[rep]
        for k in np.unique(ks[ks > 0]).tolist():
            sel = rep[ks == k]
            s = act[sel, :k]
            o = own[sel]
            try:
                r_k = _solve(gram[o[:, None, None], s[:, :, None], s[:, None, :]], gram[o[:, None], s, p[sel, None]])
            except np.linalg.LinAlgError:
                live[sel] = False   # the whole size group
                continue
            a_s = a[o[:, None], s].transpose(0, 2, 1)
            z[sel] = 0.5 * (ap[sel] - np.matmul(a_s, r_k[:, :, None])[:, :, 0])
            r[sel, :k] = r_k
        if share:   # each problem gets the step of its key's first problem
            z, r, live = z[rep[inv]], r[rep[inv]], live[rep[inv]]
        z2 = np.matmul(z[:, None, :], z[:, :, None])[:, 0, 0]
        sp = bq[np.arange(idx.size), p] - np.matmul(ap[:, None, :], x[:, :, None])[:, 0, 0]
        rn = row_norm2[own, p]
        full = z2 > 1e-20 * np.where(rn > 1.0, rn, 1.0)
        z2 = np.where(full, z2, 0.0)
        t_full = np.full(idx.size, math.inf)
        ratio = np.full((idx.size, m), math.inf)
        # The kernel takes these steps in Python floats, which overflow to
        # inf without a warning; it moves x in numpy, as done below.
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(np.where(0.0 > sp, 0.0, sp), 2.0 * z2, out=t_full, where=full)
            r_eps = 1e-12 * (1.0 + functools.reduce(np.maximum, np.abs(r).T))
            np.divide(mu, r, out=ratio, where=r > r_eps[:, None])
            ratio[~(ratio < math.inf)] = math.inf   # a NaN ratio never blocks
            k_drop = ratio.argmin(axis=1)
            t_drop = ratio[np.arange(idx.size), k_drop]
            add = t_full <= t_drop
            # stuck (neither an add nor a drop), or an add to a full list
            live &= (np.isfinite(t_full) | np.isfinite(t_drop)) & ~(add & (size == m))
            t_min = np.where(t_drop < t_full, t_drop, t_full)
            t = np.where(0.0 > t_min, 0.0, t_min)
            pos = (t > 0.0) & live
            mu = np.where(pos[:, None], mu - t[:, None] * r, mu)
            mu_p = np.where(pos, mu_p + t, mu_p)
            x = np.where((pos & (z2 > 0.0))[:, None], x + t[:, None] * z, x)
        outer = add & live
        grow = np.flatnonzero(outer)
        act[grow, size[grow]] = p[grow]
        mu[grow, size[grow]] = mu_p[grow]
        size += outer
        drop = ~add & live
        if drop.any():
            shrink = np.flatnonzero(drop)
            src = np.minimum(cols + (cols >= k_drop[shrink, None]), m - 1)
            act[shrink] = np.take_along_axis(act[shrink], src, axis=1)
            mu[shrink] = np.take_along_axis(mu[shrink], src, axis=1)
            size -= drop
    return _batch(  # every problem that left the lockstep for a rare path, again from the start
        lambda i: _min_norm_kernel(a[owner[i]], b[i], gram[owner[i]], row_norm2[owner[i]]),
        np.flatnonzero(~solved).tolist(), x_out, act_out, size_out, mu_out,
    )


def solve_min_norm(prob: QpProblem) -> QpSolution:
    """Globally optimal solution of min ||x||^2 s.t. A x >= b.

    The problem is strictly convex so the optimum is unique; the returned
    duals and active set certify it (see :func:`validate_solution`). Raises
    Infeasible when a zero row carries a positive bound or the constraints
    are inconsistent, MaxIterations if the iteration cap is hit, and
    LinAlgError if an active-set solve is singular.
    """
    a, b = prob.a, prob.b
    gram = a @ a.T
    row_norm2 = np.einsum("ij,ij->i", a, a)
    x, duals, active = _min_norm_kernel(a, b, gram, row_norm2)
    with np.errstate(over="ignore"):   # an x near the float limit's square root: an infinite objective
        return QpSolution(x=x, objective=float(x @ x), duals=duals, active_set=tuple(active))


def solve_min_norm_batch(a, b, owner=None) -> QpBatch:
    """:func:`solve_min_norm` of each problem min ||x||^2 s.t. a[owner[i]] x >= b[i], stacked.

    `a` is a stack of P same-shape m x n constraint matrices, `b` an N x m
    array of bounds and `owner` the matrix of each of its rows (default: row
    i of `b` goes with matrix i, N = P). Returns the :class:`QpBatch` of the N
    problems: row i has the x, objective, duals and active list (in the
    kernel's order) :func:`solve_min_norm` gives problem i, bit for bit, or
    `errors[i]` holds the exception (Infeasible, MaxIterations or
    LinAlgError) it raises.

    A stack of fewer than BATCH_CROSSOVER matrices goes problem by problem
    through :func:`solve_min_norm`. A larger one has each matrix's Gram
    product and row norms computed once, however many bound vectors share
    it, and all its problems solved in lockstep (:func:`_min_norm_batch`).
    Both routes give the objectives as one stacked matmul.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    owner = np.arange(len(a)) if owner is None else np.asarray(owner, dtype=np.intp)
    if a.ndim != 3 or b.ndim != 2 or b.shape[1] != a.shape[1] or owner.shape != (len(b),):
        raise ValueError("constraint stack, bound rows and owners do not match")
    if len(a) < BATCH_CROSSOVER:
        return _batch(
            lambda i: solve_min_norm(QpProblem(a[owner[i]], b[i])), range(len(b)), *_zeros(len(b), *a.shape[1:])
        )
    if a.shape[1] < 1 or a.shape[2] < 1:
        raise ValueError("problem must have at least one row and one column")
    gram = np.matmul(a, a.transpose(0, 2, 1))
    row_norm2 = np.einsum("pij,pij->pi", a, a)
    return _min_norm_batch(a, gram, row_norm2, b, owner)


def solve_maximin(a_rows, p_t: float):
    """Maximize the smallest constraint value delta s.t. ||x||^2 <= p_t.

    For uniform bounds the optimal power scales exactly as delta^2 times the
    power of the unit-bound problem, so one min-norm solve plus a closed-form
    rescaling yields the maximin point with the power budget met with
    equality. Returns (x, delta). :func:`solve_maximin_batch` of one matrix.
    """
    x, delta = solve_maximin_batch(np.atleast_2d(np.asarray(a_rows, dtype=float))[None], p_t)
    return x[0], float(delta[0])


def solve_maximin_batch(a, p_t: float):
    """Stacked (x, delta) of :func:`solve_maximin` for the matrices of the stack `a`.

    A matrix with a zero row pins that constraint value at zero, and one with
    no direction that makes every value positive (Infeasible) has x = 0
    optimal: both give a zero x row and delta 0. A matrix whose rows are all
    zero raises ZeroRow. Problems fail in stack order: the first matrix whose
    solve raises, or whose rows are all zero, raises its exception, as a loop
    of single solves would. Each delta is sqrt(p_t / ||x||^2) of its unit-bound
    solution and each x that solution times delta, elementwise as in the
    single solve, so both have its bits.
    """
    a = np.asarray(a, dtype=float)
    if p_t <= 0.0:
        raise ValueError("power budget must be positive")
    all_zero = (np.einsum("pij,pij->pi", a, a) <= _ZERO_ROW_NORM2).all(axis=1)
    res = solve_min_norm_batch(a, np.ones(a.shape[:2]))
    raising = {i: exc for i, exc in res.errors.items() if not isinstance(exc, Infeasible)}
    raising.update((i, ZeroRow("all constraint rows are zero")) for i in np.flatnonzero(all_zero).tolist())
    if raising:
        raise raising[min(raising)]
    # a zero row, or no direction makes every margin positive (Infeasible): x = 0, delta 0
    solved = ~np.isin(np.arange(len(a)), list(res.errors))
    delta = np.sqrt(np.divide(p_t, res.objective, out=np.zeros(len(a)), where=solved))
    return delta[:, None] * res.x, delta


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
