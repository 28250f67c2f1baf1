"""The batched QP entry point against the scalar kernel, bit for bit.

`solve_min_norm_batch` sends a stack of fewer than BATCH_CROSSOVER matrices
through `solve_min_norm` and a larger one through the lockstep kernel
`_min_norm_batch`. Both return one stacked QpBatch. On both routes, each
problem's row must hold the x, duals, active list (in the kernel's insertion
order) and objective that `_min_norm_kernel` gives it, or its `errors` entry
the exception type and message the kernel raises, on the generators that
hold the kernel to its reference.
"""

import numpy as np
import pytest

from ncprecode import solver
from ncprecode.errors import Infeasible, MaxIterations, PrecodingError
from ncprecode.solver import BATCH_CROSSOVER, _batch, _min_norm_batch, _min_norm_kernel, solve_min_norm_batch
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


def _same_bits(u, v):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return u.shape == v.shape and u.tobytes() == v.tobytes()


def _assert_item(out, i, ref):
    """Problem i of a stacked QpBatch against a kernel triple or exception, active order included."""
    assert len(out.x) == len(out.objective) == len(out.duals) == len(out.active) == len(out.size)
    if isinstance(ref, Exception):
        assert _same_error(out.errors.get(i), ref)
        assert not out.x[i].any() and not out.duals[i].any() and out.size[i] == 0
        return
    x, duals, active = ref
    assert i not in out.errors
    assert _same_bits(out.x[i], x)
    assert _same_bits(out.duals[i], duals)
    assert out.active[i, :out.size[i]].tolist() == active
    assert _same_bits(out.objective[i], float(x @ x))


def _assert_batch(out, refs):
    assert len(out.x) == len(refs)
    assert set(out.errors) == {i for i, ref in enumerate(refs) if isinstance(ref, Exception)}
    for i, ref in enumerate(refs):
        _assert_item(out, i, ref)


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
                _assert_batch(out, refs[start:start + size])
    assert solved >= 100 and failed >= 10


@pytest.mark.parametrize("case", sorted(CASES))
def test_lockstep_kernel_keeps_the_active_order(case):
    for group in _by_shape(case, 240).values():
        a = np.array([a for a, _ in group])
        b = np.array([b for _, b in group])
        gram = np.matmul(a, a.transpose(0, 2, 1))
        row_norm2 = np.einsum("pij,pij->pi", a, a)
        out = _min_norm_batch(a, gram, row_norm2, b, np.arange(len(a)))
        _assert_batch(out, [_kernel(*prob) for prob in group])


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
    _assert_batch(out, [_kernel(a[oi], bi) for bi, oi in zip(b, owner)])


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
    _assert_batch(solve_min_norm_batch(a, b), refs)


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
    _assert_batch(solve_min_norm_batch(a, b), refs)


def _kernel_calls(monkeypatch, a, b, owner=None):
    """The lockstep entry point's results, and how many problems it gave the scalar kernel."""
    assert len(a) >= BATCH_CROSSOVER
    calls = []
    kernel = solver._min_norm_kernel

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(solver, "_min_norm_kernel", counting)
    out = solve_min_norm_batch(a, b, owner)
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
        _assert_batch(out, refs)

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
        assert not any(isinstance(ref, Exception) for ref in refs)
        _assert_batch(out, refs)

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
        for i, ref in enumerate(refs):
            assert isinstance(ref, Infeasible) == (i in clash)
        _assert_batch(out, refs)
        assert str(out.errors[1]) == "inconsistent constraints"

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
        _assert_batch(out, refs)

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
        _assert_batch(out, refs)


@pytest.mark.parametrize("a_shape, b_shape, owner", [
    ((3, 4, 2), (3, 5), None),      # bound rows of the wrong length
    ((3, 4, 2), (2, 4), None),      # one bound row per matrix by default
    ((3, 4, 2), (2, 4), [0, 1, 2]),  # one owner per bound row
    ((4, 2), (4,), None),           # a single problem is not a stack
])
def test_mismatched_stacks_are_rejected(a_shape, b_shape, owner):
    with pytest.raises(ValueError):
        solve_min_norm_batch(np.ones(a_shape), np.ones(b_shape), owner)


def _rigged_solve(monkeypatch):
    """Patch solver._solve to pick problems by the scale of their rows, for both kernels.

    An active-set block whose largest diagonal entry is below 1e-4 (rows
    scaled by 1e-3) is singular from two rows on; one above 1e4 (rows scaled
    by 1e3) gets the step 2 in every entry, which keeps its steps from
    converging. Every other item keeps the real solve's bits. In the lockstep
    kernel a singular item fails its whole size group, so the problems of the
    group that the scalar kernel solves are handed off and solved there.
    """
    solve = solver._solve

    def rigged(g, rhs):
        scale = np.diagonal(g, axis1=-2, axis2=-1).max(axis=-1)
        if np.any((scale < 1e-4) & (np.shape(rhs)[-1] >= 2)):
            raise np.linalg.LinAlgError("Singular matrix")
        return np.where((scale > 1e4)[..., None], 2.0, solve(g, rhs))

    monkeypatch.setattr(solver, "_solve", rigged)


@pytest.mark.parametrize("n_mats", [BATCH_CROSSOVER - 6, BATCH_CROSSOVER + 2], ids=["scalar", "lockstep"])
def test_mixed_problems_of_a_robust_layout(monkeypatch, n_mats):
    # robust_slp's layout: 16 bound rows on each matrix. Zero-row, singular,
    # capped and handed-off problems lie between solved ones, and every
    # problem's row of the stacked result is the scalar kernel's.
    _rigged_solve(monkeypatch)
    a, _ = _margin_stack(61, n_mats, m=4, n=3)
    a[1::4] *= 1e-3     # singular from two active rows on
    a[2::4] *= 1e3      # capped, or solved with the broken step
    a[3::4, 1] = 0.0    # a zero row: its problems fail under a positive bound
    rng = np.random.default_rng(62)
    owner = np.arange(n_mats).repeat(16)
    b = rng.uniform(-1.0, 2.0, (len(owner), 4))
    refs = [_kernel(a[o], bi) for o, bi in zip(owner, b)]
    kinds = [type(ref).__name__ for ref in refs]
    assert kinds.count("tuple") >= 50 and kinds.count("LinAlgError") >= 10
    assert kinds.count("MaxIterations") >= 5 and kinds.count("Infeasible") >= 10
    assert "zero constraint row with positive bound" in map(str, refs)
    kernel_calls = []
    kernel = solver._min_norm_kernel
    monkeypatch.setattr(solver, "_min_norm_kernel", lambda *args: kernel_calls.append(args) or kernel(*args))
    _assert_batch(solve_min_norm_batch(a, b, owner), refs)
    if n_mats < BATCH_CROSSOVER:
        assert len(kernel_calls) == len(refs)
    else:   # every failure, some solved problems, not all
        assert len(refs) - kinds.count("tuple") < len(kernel_calls) < len(refs)


def test_duals_are_the_kernels_max_bit_for_bit():
    # The kernel's multipliers start at +0.0 and change only by steps t > 0,
    # so no solve gives a -0.0 or NaN multiplier; the scatter's rule for them
    # is checked on hand-made lockstep arrays. Each dual must have the bits
    # of the kernel's max(mu_i, 0.0) written in list order, a repeated index
    # included (only a broken active-set solve repeats one).
    mu = np.array([
        [-0.0, 1.5, -2.0, np.nan],
        [np.nan, -0.0, 0.0, 3.0],
        [7.0, 8.0, 9.0, 10.0],
        [-1.0, 2.0, -0.0, 4.0],
    ])
    act = np.array([[2, 0, 3, 1], [1, 3, 0, 2], [0, 1, 2, 3], [3, 0, 3, 1]])
    size = np.array([4, 2, 0, 3])
    out = _batch(None, [], np.zeros((4, 2)), act, size, mu)
    for i in range(4):
        ref = np.zeros(4)
        for idx, mu_i in zip(act[i, :size[i]].tolist(), mu[i, :size[i]].tolist()):
            ref[idx] = max(mu_i, 0.0)
        assert _same_bits(out.duals[i], ref)
    assert np.signbit(out.duals[0, 2]) and np.isnan(out.duals[0, 1]) and out.errors == {}


def _sharing_stack(seed, counts, m, n):
    """counts[i] bound vectors on margin-like matrix i, about a third exact repeats, in shuffled order."""
    a, _ = _margin_stack(seed, len(counts), m=m, n=n)
    rng = np.random.default_rng(seed)
    owner = rng.permutation(np.arange(len(counts)).repeat(counts))
    b = rng.uniform(0.1, 3.0, (len(owner), m))
    for i in range(len(owner)):
        earlier = np.flatnonzero(owner[:i] == owner[i])
        if earlier.size and rng.random() < 0.35:
            b[i] = b[rng.choice(earlier)]
    return a, b, owner


def _solve_rows(monkeypatch):
    """Patch solver._solve to record how many active-set systems each call solves."""
    rows = []
    solve = solver._solve
    monkeypatch.setattr(solver, "_solve", lambda g, rhs: rows.append(int(np.prod(np.shape(rhs)[:-1]))) or solve(g, rhs))
    return rows


class TestSharedSteps:
    """Problems on one matrix with one active list and one entering row take that step once.

    Each row of the result must still be the scalar kernel's, active order
    included, whichever problems share steps and wherever they sit in the
    stack.
    """

    @pytest.mark.parametrize("m, n", [(4, 3), (8, 8), (12, 12)])
    def test_many_bound_vectors_per_matrix_with_repeats(self, monkeypatch, m, n):
        a, b, owner = _sharing_stack(71, [16] * (BATCH_CROSSOVER + 1), m, n)
        rows = _solve_rows(monkeypatch)
        refs, solves = [], {}
        for o, bi in zip(owner, b):
            rows.clear()
            refs.append(_kernel(a[o], bi))
            solves[o, bi.tobytes()] = sum(rows)
        assert len(solves) < len(b)   # some problems are exact repeats
        assert not any(isinstance(ref, Exception) for ref in refs)   # none is solved twice
        rows.clear()
        out = solve_min_norm_batch(a, b, owner)
        _assert_batch(out, refs)
        # a repeated problem costs no solve, and distinct problems share some
        assert 0 < sum(rows) < sum(solves.values())

    def test_a_stack_where_only_some_matrices_repeat(self):
        counts = [1] * BATCH_CROSSOVER + [16, 3, 2]
        a, b, owner = _sharing_stack(72, counts, m=8, n=4)
        _assert_batch(solve_min_norm_batch(a, b, owner), [_kernel(a[o], bi) for o, bi in zip(owner, b)])

    def test_keys_that_could_overflow_are_not_built(self, monkeypatch):
        # 17 ** 17 exceeds an int64: the steps are taken problem by problem
        a, b, owner = _sharing_stack(73, [4] * BATCH_CROSSOVER, m=16, n=16)
        rows = _solve_rows(monkeypatch)
        refs = [_kernel(a[o], bi) for o, bi in zip(owner, b)]
        kernel_rows = sum(rows)
        rows.clear()
        _assert_batch(solve_min_norm_batch(a, b, owner), refs)
        assert sum(rows) == kernel_rows

    def test_a_singular_size_group_goes_whole(self, monkeypatch):
        # As TestHandoff's case, with steps shared: every problem that
        # reaches two active rows is handed off, and only those.
        a, b, owner = _sharing_stack(74, [6] * (BATCH_CROSSOVER + 2), m=6, n=6)
        solve = solver._solve
        refs, reach_two = [], []
        for o, bi in zip(owner, b):
            sizes = []
            monkeypatch.setattr(solver, "_solve", lambda g, rhs: sizes.append(len(rhs)) or solve(g, rhs))
            refs.append(_kernel(a[o], bi))
            reach_two.append(2 in sizes)

        def stacked_pairs_fail(g, rhs):
            if np.ndim(rhs) == 2 and np.shape(rhs)[1] == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(g, rhs)

        monkeypatch.setattr(solver, "_solve", stacked_pairs_fail)
        out, calls = _kernel_calls(monkeypatch, a, b, owner)
        assert 5 <= calls == sum(reach_two) < len(b)
        _assert_batch(out, refs)

    @pytest.mark.parametrize("step", [2.0, 0.0], ids=["iteration-cap", "full-list"])
    def test_handoffs_among_shared_steps(self, monkeypatch, step):
        # Every active-set solve returning 2 keeps the steps from converging;
        # returning 0 never drops a constraint, so lists fill up. The
        # problems the kernel caps or gives a list longer than m are handed
        # off, and only they.
        monkeypatch.setattr(solver, "_solve", lambda g, rhs: np.full(np.shape(rhs), step))
        a, b, owner = _sharing_stack(75, [5] * (BATCH_CROSSOVER + 2), m=4, n=3)
        refs = [_kernel(a[o], bi) for o, bi in zip(owner, b)]
        capped = sum(isinstance(ref, MaxIterations) for ref in refs)
        long = sum(not isinstance(ref, Exception) and len(ref[2]) > 4 for ref in refs)
        assert capped >= 5 and capped + long < len(b)
        out, calls = _kernel_calls(monkeypatch, a, b, owner)
        assert calls == capped + long
        _assert_batch(out, refs)
