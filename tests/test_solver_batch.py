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
from ncprecode.errors import Infeasible, MaxIterations, PrecodingError
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
    # An active-set matrix gesv finds singular fails that problem only: its
    # whole size group leaves the lockstep, and the scalar kernel solves each
    # problem of it again. Both kernels see the same patched solve, which
    # fails for some active sets of 3 or more rows.
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
    # active constraints, and some problems run into the scalar kernel's
    # iteration cap. In the lockstep kernel every such problem fills its
    # active list first, so this covers the full-list handoff;
    # TestHandoff::test_the_iteration_cap covers the lockstep cap.
    monkeypatch.setattr(solver, "_solve", lambda g, rhs: np.zeros(np.shape(rhs)))
    a, b = _margin_stack(42, 20, m=4, n=3)
    refs = [_kernel(*prob) for prob in zip(a, b)]
    assert sum(isinstance(ref, MaxIterations) for ref in refs) >= 5
    assert sum(not isinstance(ref, Exception) for ref in refs) >= 5
    for res, ref in zip(solve_min_norm_batch(a, b), refs):
        _assert_solution(res, ref)


def _kernel_calls(monkeypatch, a, b):
    """The lockstep entry point's results, and how many problems it gave the scalar kernel."""
    assert len(a) >= BATCH_CROSSOVER
    calls = []
    kernel = solver._min_norm_kernel

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(solver, "_min_norm_kernel", counting)
    out = solve_min_norm_batch(a, b)
    monkeypatch.setattr(solver, "_min_norm_kernel", kernel)
    return out, len(calls)


class TestHandoff:
    """Each of the kernel's rare paths sends exactly its problems to the scalar kernel."""

    def test_zero_row_under_a_positive_bound(self, monkeypatch):
        a, b = _margin_stack(51, BATCH_CROSSOVER + 4, m=6, n=6)   # all feasible
        a[[2, 5, 9], 3] = 0.0
        b[[2, 5], 3] = 0.5                    # handed off
        b[9, 3] = -0.5                        # a zero row under a negative bound stays
        out, calls = _kernel_calls(monkeypatch, a, b)
        refs = [_kernel(*prob) for prob in zip(a, b)]
        assert calls == 2
        assert [i for i, ref in enumerate(refs) if isinstance(ref, Exception)] == [2, 5]
        assert str(refs[2]) == "zero constraint row with positive bound"
        for res, ref in zip(out, refs):
            _assert_solution(res, ref)

    def test_a_singular_size_group_goes_whole(self, monkeypatch):
        # The stacked solve of every 2-row active set raises; the kernel's
        # one-problem solves do not, so each problem that reaches two active
        # rows is handed off and solved regularly.
        a, b = _margin_stack(52, BATCH_CROSSOVER + 8, m=6, n=6)
        solve = solver._solve
        refs, reach_two = [], []
        for prob in zip(a, b):
            sizes = []
            monkeypatch.setattr(solver, "_solve", lambda g, rhs: sizes.append(len(rhs)) or solve(g, rhs))
            refs.append(_kernel(*prob))
            reach_two.append(2 in sizes)

        def stacked_pairs_fail(g, rhs):
            if np.ndim(rhs) == 2 and np.shape(rhs)[1] == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(g, rhs)

        monkeypatch.setattr(solver, "_solve", stacked_pairs_fail)
        out, calls = _kernel_calls(monkeypatch, a, b)
        assert 5 <= calls == sum(reach_two) < len(a)
        for res, ref in zip(out, refs):
            assert not isinstance(ref, Exception)
            _assert_solution(res, ref)

    def test_a_step_that_can_neither_add_nor_drop(self, monkeypatch):
        # x1 >= 1 and -x1 >= 1: the second row's step is zero and no
        # multiplier blocks, so the kernel finds the constraints inconsistent.
        # A third, slack row gives the clash the shape of feasible problems
        # that take two-row active-set solves in the same round as it would.
        rng = np.random.default_rng(53)
        a = rng.standard_normal((BATCH_CROSSOVER + 4, 3, 2))
        a[:, :, 0] = rng.uniform(0.5, 1.5, (len(a), 3))   # x = (large, 0) is feasible
        b = rng.uniform(0.1, 2.0, (len(a), 3))
        clash = [1, 6, 7]
        a[clash] = [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]
        b[clash] = [1.0, 1.0, 0.5]
        out, calls = _kernel_calls(monkeypatch, a, b)
        refs = [_kernel(*prob) for prob in zip(a, b)]
        assert calls == len(clash)
        for i, (res, ref) in enumerate(zip(out, refs)):
            assert isinstance(ref, Infeasible) == (i in clash)
            _assert_solution(res, ref)
        assert str(out[1]) == "inconsistent constraints"

    def test_an_add_to_a_full_active_list(self, monkeypatch):
        # Only a broken solve fills a list: with every active-set solve
        # returning 0 no constraint is ever dropped, so the list grows by one
        # per violated constraint. A problem that would add to a list of m
        # entries is handed off; the kernel solves some of them with longer
        # lists and caps the others.
        monkeypatch.setattr(solver, "_solve", lambda g, rhs: np.zeros(np.shape(rhs)))
        a, b = _margin_stack(42, BATCH_CROSSOVER + 8, m=4, n=3)
        refs = [_kernel(*prob) for prob in zip(a, b)]
        long = sum(not isinstance(ref, Exception) and len(ref[2]) > 4 for ref in refs)
        capped = sum(isinstance(ref, MaxIterations) for ref in refs)
        assert long >= 3 and capped >= 3
        out, calls = _kernel_calls(monkeypatch, a, b)
        assert calls == long + capped < len(a)
        for res, ref in zip(out, refs):
            _assert_solution(res, ref)

    def test_the_iteration_cap(self, monkeypatch):
        # Every active-set solve returning 2 keeps the lists short but the
        # steps from converging: the capped problems, and only they, are
        # handed off.
        monkeypatch.setattr(solver, "_solve", lambda g, rhs: np.full(np.shape(rhs), 2.0))
        a, b = _margin_stack(43, 40, m=4, n=3)
        refs = [_kernel(*prob) for prob in zip(a, b)]
        capped = sum(isinstance(ref, MaxIterations) for ref in refs)
        assert capped >= 10 and capped < len(a)
        out, calls = _kernel_calls(monkeypatch, a, b)
        assert calls == capped
        for res, ref in zip(out, refs):
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
