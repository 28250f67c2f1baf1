import math
import warnings

import numpy as np
import pytest

from ncprecode.errors import Infeasible, ZeroRow
from ncprecode.oracles import min_norm_by_enumeration
from ncprecode.solver import (
    QpProblem,
    kkt_residuals,
    solve_maximin,
    _solve,
    solve_min_norm,
    validate_solution,
)


class TestMinNorm:
    def test_single_constraint(self):
        sol = solve_min_norm(QpProblem([[1.0]], [1.0]))
        np.testing.assert_allclose(sol.x, [1.0])
        assert sol.objective == pytest.approx(1.0)
        assert sol.active_set == (0,)

    def test_inactive_constraints(self):
        sol = solve_min_norm(QpProblem(np.eye(2), [-1.0, -1.0]))
        np.testing.assert_allclose(sol.x, [0.0, 0.0])
        assert sol.active_set == ()

    def test_zero_row_with_positive_bound(self):
        with pytest.raises(Infeasible):
            solve_min_norm(QpProblem([[0.0, 0.0], [1.0, 0.0]], [0.5, 1.0]))

    def test_zero_row_with_nonpositive_bound(self):
        sol = solve_min_norm(QpProblem([[0.0, 0.0], [1.0, 0.0]], [-0.5, 1.0]))
        np.testing.assert_allclose(sol.x, [1.0, 0.0])

    def test_duplicate_rows(self):
        a = np.array([[1.0, 2.0], [1.0, 2.0]])
        sol = solve_min_norm(QpProblem(a, [1.0, 2.0]))
        # only the tighter bound can be active; x = 2 a / ||a||^2
        np.testing.assert_allclose(sol.x, 2.0 * a[0] / 5.0, atol=1e-12)
        assert validate_solution(QpProblem(a, np.array([1.0, 2.0])), sol)

    def test_opposed_rows_infeasible(self):
        with pytest.raises(Infeasible):
            solve_min_norm(QpProblem([[1.0], [-1.0]], [1.0, 0.5]))

    def test_determinism(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        s1 = solve_min_norm(QpProblem(a, b))
        s2 = solve_min_norm(QpProblem(a, b))
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.duals, s2.duals)
        assert s1.active_set == s2.active_set

    def test_random_instances_vs_enumeration(self):
        rng = np.random.default_rng(22)
        feasible = 0
        for _ in range(160):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 9))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            prob = QpProblem(a, b)
            try:
                sol = solve_min_norm(prob)
            except Infeasible:
                # both routes must agree on infeasibility
                assert min_norm_by_enumeration(a, b) is None
                continue
            feasible += 1
            ref = min_norm_by_enumeration(a, b)
            assert ref is not None
            assert np.max(np.abs(sol.x - ref)) < 1e-6
            assert validate_solution(prob, sol)
        assert feasible >= 100

    def test_kkt_residual_values(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((8, 5))
        b = rng.uniform(0.1, 2.0, size=8)
        prob = QpProblem(a, b)
        sol = solve_min_norm(prob)
        primal, comp, stat = kkt_residuals(prob, sol)
        assert primal <= 1e-7
        assert comp <= 1e-6
        assert stat <= 1e-6


class TestSolveStack:
    """`_solve` on a stack of right-hand sides is one gesv call per row."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_row_has_the_bits_of_its_own_solve(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            rows = rng.standard_normal((n, n + 2))
            g = rows @ rows.T
            rhs = 2.0 * rng.standard_normal((rng.integers(1, 40), n))
            stacked = _solve(g, rhs)
            assert stacked.shape == rhs.shape
            for r in range(len(rhs)):
                assert stacked[r].tobytes() == _solve(g, rhs[r]).tobytes()

    def test_singular_matrix_with_a_stack_raises(self):
        g = np.array([[1.0, 2.0], [2.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                _solve(g, np.ones((3, 2)))


class TestMaximin:
    def test_single_row(self):
        x, delta = solve_maximin([[1.0, 0.0]], 4.0)
        assert delta == pytest.approx(2.0)
        np.testing.assert_allclose(x, [2.0, 0.0])

    def test_power_scaling(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((5, 3))
        _, d1 = solve_maximin(a, 2.0)
        _, d4 = solve_maximin(a, 8.0)
        assert d4 == pytest.approx(2.0 * d1, rel=1e-12)

    def test_budget_met_with_equality(self):
        rng = np.random.default_rng(25)
        a = rng.standard_normal((6, 4))
        x, delta = solve_maximin(a, 3.0)
        assert float(x @ x) == pytest.approx(3.0, rel=1e-12)
        assert float(np.min(a @ x)) == pytest.approx(delta, rel=1e-9)

    def test_matches_bisection(self):
        # independent route: bisect on the margin, inner min-norm feasibility
        rng = np.random.default_rng(26)
        a = rng.standard_normal((6, 3))
        p_t = 5.0
        x, delta = solve_maximin(a, p_t)
        lo, hi = 0.0, math.sqrt(p_t) * float(np.max(np.linalg.norm(a, axis=1)))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            power = solve_min_norm(QpProblem(a, np.full(6, mid))).objective
            if power <= p_t:
                lo = mid
            else:
                hi = mid
        assert delta == pytest.approx(lo, abs=1e-8 * hi)

    def test_grid_oracle_2d(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            a = rng.standard_normal((4, 2))
            p_t = 2.0
            x, delta = solve_maximin(a, p_t)
            # dense sweep over the feasible disk
            t = np.linspace(0, 2 * math.pi, 2000, endpoint=False)
            radii = np.linspace(0, math.sqrt(p_t), 200)
            pts = np.stack(
                [np.outer(radii, np.cos(t)).ravel(), np.outer(radii, np.sin(t)).ravel()],
                axis=1,
            )
            best = np.max(np.min(pts @ a.T, axis=1))
            assert delta >= best - 2e-2
            assert delta <= best + 2e-2 + 1e-9

    def test_all_zero_rows(self):
        with pytest.raises(ZeroRow):
            solve_maximin(np.zeros((3, 2)), 1.0)

    def test_partial_zero_row_pins_margin(self):
        x, delta = solve_maximin([[0.0, 0.0], [1.0, 0.0]], 1.0)
        assert delta == 0.0
        np.testing.assert_allclose(x, 0.0)

    def test_power_curve_convex_increasing(self):
        rng = np.random.default_rng(28)
        a = rng.standard_normal((5, 3))
        deltas = np.linspace(0.1, 2.0, 8)
        powers = [
            solve_min_norm(QpProblem(a, np.full(5, d))).objective for d in deltas
        ]
        assert all(p2 > p1 for p1, p2 in zip(powers, powers[1:]))
        second = np.diff(powers, 2)
        assert np.all(second > -1e-9)
