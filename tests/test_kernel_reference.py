"""The active-set kernel against its reference implementation, bit for bit.

`_reference_kernel` is the kernel as it was before its bookkeeping was made
cheaper (direct Gram gather, the gesv gufunc through `solver._solve`, array
methods in place of numpy wrappers, a ratio test over a Python list). Its
arithmetic is the same operation on the same operands, so the current kernel
must return exactly the same x, duals and active list, and raise the same
exception type, on every problem.
"""

import math
import warnings

import numpy as np
import pytest

from ncprecode.errors import Infeasible, MaxIterations
from ncprecode.solver import _ZERO_ROW_NORM2, _min_norm_kernel, _solve


def _reference_kernel(a, b, gram, row_norm2, max_iter=None):
    """Dual active-set iteration on precomputed Gram data.

    Returns (x, duals, active_list). `a`, `b` are the m x n constraint data,
    `gram` = a @ a.T and `row_norm2` its diagonal.
    """
    m, n = a.shape
    scale = max(1.0, float(np.max(np.abs(b))))
    eps_p = 1e-9 * scale
    zero_rows = row_norm2 <= _ZERO_ROW_NORM2
    if np.any(zero_rows & (b > eps_p)):
        raise Infeasible("zero constraint row with positive bound")

    x = np.zeros(n)
    active: list[int] = []
    mu: list[float] = []
    cap = max_iter if max_iter is not None else 50 * (m + n) + 200
    iters = 0
    while True:
        iters += 1
        if iters > cap:
            raise MaxIterations(f"active-set solver exceeded {cap} iterations")
        slack = a @ x - b
        p = int(np.argmin(slack))
        if slack[p] >= -eps_p:
            break
        mu_p = 0.0
        while True:
            iters += 1
            if iters > cap:
                raise MaxIterations(f"active-set solver exceeded {cap} iterations")
            if active:
                s_arr = np.asarray(active)
                r = np.linalg.solve(gram[np.ix_(s_arr, s_arr)], gram[s_arr, p])
                z = 0.5 * (a[p] - a[s_arr].T @ r)
            else:
                r = np.zeros(0)
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
            if active and r.size:
                r_eps = 1e-12 * (1.0 + float(np.max(np.abs(r))))
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


def _random(rng):
    m, n = int(rng.integers(1, 17)), int(rng.integers(1, 9))
    return rng.standard_normal((m, n)), rng.standard_normal(m)


def _duplicate_rows(rng):
    a, b = _random(rng)
    rows = rng.integers(0, a.shape[0], size=int(rng.integers(1, 9)))
    # repeated rows with their own bounds, as the robust design stacks them
    return np.vstack([a, a[rows]]), np.concatenate([b, rng.uniform(-1.0, 2.0, rows.size)])


def _near_parallel_rows(rng):
    a, b = _random(rng)
    rows = rng.integers(0, a.shape[0], size=int(rng.integers(1, 5)))
    tilt = 10.0 ** rng.uniform(-12.0, -6.0) * rng.standard_normal((rows.size, a.shape[1]))
    return np.vstack([a, a[rows] + tilt]), np.concatenate([b, b[rows] + rng.uniform(0.0, 1e-3, rows.size)])


def _zero_bounds(rng):
    a, b = _random(rng)
    b[rng.random(b.size) < 0.5] = 0.0
    return a, b if rng.random() < 0.7 else np.zeros_like(b)


def _zero_rows(rng):
    a, b = _random(rng)
    rows = rng.random(a.shape[0]) < 0.3
    rows[int(rng.integers(0, a.shape[0]))] = True
    a[rows] = 0.0
    b[rows] = -np.abs(b[rows]) * (rng.random(int(rows.sum())) < 0.7)   # nonpositive
    if rng.random() < 0.2:
        b[np.flatnonzero(rows)[0]] = 1.0   # a positive bound on a zero row: infeasible
    return a, b


def _single_row(rng):
    n = int(rng.integers(1, 9))
    a = rng.standard_normal((1, n))
    if rng.random() < 0.2:
        a[:] = 0.0
    return a, rng.standard_normal(1)


def _integer_rows(rng):
    # small integers: exact ties in the most-violated choice and the ratio test
    m, n = int(rng.integers(1, 17)), int(rng.integers(1, 9))
    return rng.integers(-2, 3, size=(m, n)).astype(float), rng.integers(-1, 4, size=m).astype(float)


def _margin_like(rng):
    # every bound positive and rows in +/- pairs, like the SLP margin rows
    m, n = 2 * int(rng.integers(1, 9)), int(rng.integers(1, 9))
    half = rng.standard_normal((m // 2, n))
    spread = rng.uniform(0.0, 1.0, size=(m // 2, n))
    return np.vstack([half - spread, half + spread]), rng.uniform(0.1, 3.0, m)


CASES = {
    "random": _random,
    "duplicate_rows": _duplicate_rows,
    "near_parallel_rows": _near_parallel_rows,
    "zero_bounds": _zero_bounds,
    "zero_rows": _zero_rows,
    "single_row": _single_row,
    "integer_rows": _integer_rows,
    "margin_like": _margin_like,
}


def _run(kernel, a, b):
    gram = a @ a.T
    row_norm2 = np.einsum("ij,ij->i", a, a)
    try:
        return kernel(a, b, gram, row_norm2)
    except Exception as exc:   # the exception type itself is compared
        return type(exc)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_reference_bit_for_bit(case):
    rng = np.random.default_rng([4, sorted(CASES).index(case)])
    solved = 0
    for _ in range(120):
        a, b = CASES[case](rng)
        ref = _run(_reference_kernel, a, b)
        out = _run(_min_norm_kernel, a, b)
        if isinstance(ref, type):
            assert out is ref
            continue
        solved += 1
        x, duals, active = out
        assert np.array_equal(x, ref[0])
        assert np.array_equal(duals, ref[1])
        assert active == ref[2]
    assert solved >= 60


def test_solve_matches_numpy():
    rng = np.random.default_rng(5)
    for k in range(1, 9):
        g = rng.standard_normal((k, k))
        g = g @ g.T + 0.1 * np.eye(k)
        rhs = rng.standard_normal(k)
        assert np.array_equal(_solve(g, rhs), np.linalg.solve(g, rhs))


def test_solve_raises_on_singular_matrix_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("state", [{}, {"divide": "raise", "over": "ignore", "invalid": "print"}], ids=["default", "set"])
def test_solve_puts_back_the_callers_error_state(state):
    # _solve sets its own error state on numpy's context variable and must
    # reset it, after a normal solve and after a singular one that raises,
    # so the caller's state holds again: a float division by zero still
    # warns (or raises) as the caller asked
    with np.errstate(**state):
        before = np.geterr()
        _solve(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 0.0]))
        assert np.geterr() == before
        with pytest.raises(np.linalg.LinAlgError):
            _solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))
        assert np.geterr() == before
        if state:
            with pytest.raises(FloatingPointError):
                np.float64(1.0) / 0.0
        else:
            with pytest.warns(RuntimeWarning, match="divide by zero"):
                np.float64(1.0) / 0.0
