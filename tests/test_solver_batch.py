"""The batched QP entry point against the scalar kernel, bit for bit.

`solve_min_norm_batch` sends a stack of fewer than BATCH_CROSSOVER matrices
through `solve_min_norm` and a larger one through the lockstep kernel
`_min_norm_batch`. Both routes must give, for every problem, the x, duals and
active set `_min_norm_kernel` gives, or raise the same exception type with
the same message, on the generators that hold the kernel to its reference.
"""

import numpy as np
import pytest

from ncprecode import solver
from ncprecode.errors import MaxIterations, PrecodingError
from ncprecode.solver import BATCH_CROSSOVER, _min_norm_batch, _min_norm_kernel, solve_min_norm_batch
from test_kernel_reference import CASES

SIZES = (1, 2, BATCH_CROSSOVER - 1, BATCH_CROSSOVER + 1)


def _kernel(a, b):
    try:
        return _min_norm_kernel(a, b, a @ a.T, np.einsum("ij,ij->i", a, a))
    except (PrecodingError, np.linalg.LinAlgError) as exc:
        return exc


def _by_shape(case, count):
    """`count` problems of a generator, grouped by constraint shape."""
    rng = np.random.default_rng([12, sorted(CASES).index(case)])
    groups = {}
    for _ in range(count):
        a, b = CASES[case](rng)
        groups.setdefault(a.shape, []).append((a, b))
    return groups


def _margin_stack(seed, count, m=12, n=5):
    """`count` margin-like problems (rows in +/- pairs, positive bounds) of one shape."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((count, m // 2, n))
    spread = rng.uniform(0.0, 1.0, size=(count, m // 2, n))
    return np.concatenate([half - spread, half + spread], axis=1), rng.uniform(0.1, 3.0, (count, m))


def _same_error(out, ref):
    return isinstance(out, Exception) and type(out) is type(ref) and str(out) == str(ref)


def _assert_solution(out, ref):
    """A QpSolution of the entry point against a kernel triple or exception."""
    if isinstance(ref, Exception):
        assert _same_error(out, ref)
        return
    x, duals, active = ref
    assert not isinstance(out, Exception)
    assert np.array_equal(out.x, x)
    assert np.array_equal(out.duals, duals)
    assert out.active_set == tuple(sorted(active))
    assert out.objective == float(x @ x)


def _assert_triple(out, ref):
    """A lockstep-kernel entry against a kernel triple or exception, active order included."""
    if isinstance(ref, Exception):
        assert _same_error(out, ref)
        return
    assert not isinstance(out, Exception)
    assert np.array_equal(out[0], ref[0])
    assert np.array_equal(out[1], ref[1])
    assert out[2] == ref[2]


@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_point_matches_kernel_at_every_batch_size(case):
    solved = failed = 0
    for group in _by_shape(case, 240).values():
        a = np.array([a for a, _ in group])
        b = np.array([b for _, b in group])
        refs = [_kernel(*prob) for prob in group]
        solved += sum(not isinstance(ref, Exception) for ref in refs)
        failed += sum(isinstance(ref, Exception) for ref in refs)
        for size in SIZES:
            for start in range(0, len(group), size):
                out = solve_min_norm_batch(a[start:start + size], b[start:start + size])
                assert len(out) == len(group[start:start + size])
                for res, ref in zip(out, refs[start:start + size]):
                    _assert_solution(res, ref)
    assert solved >= 100 and failed >= 10


@pytest.mark.parametrize("case", sorted(CASES))
def test_lockstep_kernel_keeps_the_active_order(case):
    for group in _by_shape(case, 240).values():
        a = np.array([a for a, _ in group])
        b = np.array([b for _, b in group])
        gram = np.matmul(a, a.transpose(0, 2, 1))
        row_norm2 = np.einsum("pij,pij->pi", a, a)
        out = _min_norm_batch(a, gram, row_norm2, b, np.arange(len(a)))
        for res, prob in zip(out, group):
            _assert_triple(res, _kernel(*prob))


def test_bound_vectors_sharing_a_matrix():
    # robust_slp's orientations: several bound vectors per constraint matrix
    rng = np.random.default_rng(31)
    mats, bounds, owner = [], [], []
    for i in range(BATCH_CROSSOVER + 2):
        half = rng.standard_normal((4, 4))
        spread = rng.uniform(0.0, 1.0, size=(4, 4))
        mats.append(np.vstack([half - spread, half + spread]))
        for _ in range(int(rng.integers(1, 6))):
            bounds.append(rng.uniform(-0.5, 2.0, 8))
            owner.append(i)
    a, b = np.array(mats), np.array(bounds)
    out = solve_min_norm_batch(a, b, owner)
    assert len(out) == len(b)
    for res, bi, oi in zip(out, b, owner):
        _assert_solution(res, _kernel(a[oi], bi))


def test_singular_active_set_solves_fail_one_problem_each(monkeypatch):
    # An active-set matrix gesv finds singular fails that problem only: the
    # stacked solve is retried one problem at a time. Both kernels see the
    # same patched solve, which fails for some active sets of 3 or more rows.
    solve = solver._solve

    def picky(g, rhs):
        if np.any((np.asarray(rhs)[..., 0] < -0.5) & (np.shape(rhs)[-1] >= 3)):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(g, rhs)

    monkeypatch.setattr(solver, "_solve", picky)
    a, b = _margin_stack(41, 60)
    refs = [_kernel(*prob) for prob in zip(a, b)]
    assert sum(isinstance(ref, np.linalg.LinAlgError) for ref in refs) >= 5
    assert sum(not isinstance(ref, Exception) for ref in refs) >= 5
    for res, ref in zip(solve_min_norm_batch(a, b), refs):
        _assert_solution(res, ref)


def test_iteration_cap_is_per_problem(monkeypatch):
    # With every active-set solve returning 0 the steps stop keeping the
    # active constraints, and some problems run into the iteration cap.
    monkeypatch.setattr(solver, "_solve", lambda g, rhs: np.zeros(np.shape(rhs)))
    a, b = _margin_stack(42, 20, m=4, n=3)
    refs = [_kernel(*prob) for prob in zip(a, b)]
    assert sum(isinstance(ref, MaxIterations) for ref in refs) >= 5
    assert sum(not isinstance(ref, Exception) for ref in refs) >= 5
    for res, ref in zip(solve_min_norm_batch(a, b), refs):
        _assert_solution(res, ref)


@pytest.mark.parametrize("a_shape, b_shape, owner", [
    ((3, 4, 2), (3, 5), None),      # bound rows of the wrong length
    ((3, 4, 2), (2, 4), None),      # one bound row per matrix by default
    ((3, 4, 2), (2, 4), [0, 1, 2]),  # one owner per bound row
    ((4, 2), (4,), None),           # a single problem is not a stack
])
def test_mismatched_stacks_are_rejected(a_shape, b_shape, owner):
    with pytest.raises(ValueError):
        solve_min_norm_batch(np.ones(a_shape), np.ones(b_shape), owner)
