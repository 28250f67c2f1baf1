import cmath
import math

import numpy as np
import pytest

from ncprecode.noisegeom import (
    CIRCULAR_Q,
    ConfidenceEllipse,
    chi2_scale,
    effective_cov,
    jammer_model,
    q_from_elements,
    q_rank_one,
    sample_noise,
)
from ncprecode.oracles import min_norm_by_enumeration
from ncprecode.sim import margin_from_psi, psk_constellation, sample_channels
from ncprecode.slp import (
    SlpSolution,
    circular_bounds,
    ellipse_margins,
    margin_rows_pair,
    naive_bounds,
    naive_slp,
    nc_bounds,
    nc_slp,
    pw_slp_minpower,
    pw_slp_msm,
    robust_bounds,
    robust_slp,
    safety_margin,
    solve_min_power,
    tangent_points,
    whitened_effective_channel,
    worst_case_pterms,
)
from ncprecode.errors import Infeasible, ZeroRow
from ncprecode.solver import BATCH_CROSSOVER, QpProblem, solve_maximin_batch, solve_min_norm
from ncprecode.wlalg import eig2_sym, expand_row, expand_vec, sqrt_inv_psd2

THETA4 = math.pi / 4


def rand_symbols(rng, d, k):
    return psk_constellation(d)[rng.integers(0, d, size=k)]


class TestWhitenedEffectiveChannel:
    def test_circular_total_power_is_identity(self):
        rng = np.random.default_rng(51)
        h, _ = sample_channels(rng, 3, 1)
        sigma2 = 3.7
        g = sigma2 / 2 * np.eye(2)
        e1, e2 = whitened_effective_channel(h[0], g, sqrt_inv_psd2(g))
        hb = expand_row(h[0])
        np.testing.assert_allclose(e1, hb[0], atol=1e-12)
        np.testing.assert_allclose(e2, hb[1], atol=1e-12)

    def test_awgn_only(self):
        rng = np.random.default_rng(52)
        h, _ = sample_channels(rng, 2, 1)
        jam = jammer_model(0.0, CIRCULAR_Q)
        g = effective_cov(0.3 + 0.1j, jam, 2.0)
        e1, e2 = whitened_effective_channel(h[0], g, sqrt_inv_psd2(g))
        hb = expand_row(h[0])
        np.testing.assert_allclose(e1, hb[0], atol=1e-12)
        np.testing.assert_allclose(e2, hb[1], atol=1e-12)

    def test_whitened_noise_power(self):
        rng = np.random.default_rng(53)
        jam = jammer_model(math.sqrt(10.0), q_rank_one(0.9))
        h_jk = 1.1 - 0.6j
        g = effective_cov(h_jk, jam, 1.0)
        sigma2 = np.trace(g)
        gamma = math.sqrt(sigma2 / 2.0)
        from ncprecode.wlalg import sqrt_inv_psd2

        c = sample_noise(rng, h_jk, jam, 1.0, size=1_000_000)
        cw = gamma * (c @ sqrt_inv_psd2(g).T)
        emp = cw.T @ cw / len(cw)
        assert np.max(np.abs(emp - 0.5 * sigma2 * np.eye(2))) < 0.01 * sigma2


class TestSafetyMargin:
    def test_on_symbol_ray(self):
        s = np.exp(1j * 0.7)
        h = np.array([2.5 + 0j])
        x = np.array([s * 1.2 / h[0]])  # received point = 1.2 * s
        assert safety_margin(s, h, x, THETA4) == pytest.approx(1.2 * math.sin(THETA4))

    def test_on_decision_boundary(self):
        s = 1.0 + 0j
        h = np.array([1.0 + 0j])
        x = np.array([np.exp(1j * THETA4)])  # point on the upper boundary
        assert safety_margin(s, h, x, THETA4) == pytest.approx(0.0, abs=1e-15)

    def test_geometry_oracle(self):
        # margin = min over the two signed half-plane distances
        rng = np.random.default_rng(54)
        for _ in range(100):
            s = np.exp(1j * rng.uniform(0, 2 * math.pi))
            h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            theta = rng.uniform(0.15, math.pi / 2)
            z = np.conj(s) * (h @ x)
            expected = min(
                z.real * math.sin(theta) - z.imag * math.cos(theta),
                z.real * math.sin(theta) + z.imag * math.cos(theta),
            )
            assert safety_margin(s, h, x, theta) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestMarginRows:
    def test_fixed_example(self):
        a_minus, a_plus = margin_rows_pair(*expand_row([1.0]), 1.0 + 0j, THETA4)
        r = math.sqrt(2) / 2
        np.testing.assert_allclose(a_minus, [r, -r], atol=1e-15)
        np.testing.assert_allclose(a_plus, [r, r], atol=1e-15)

    def test_row_sum_identity(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            s = np.exp(1j * rng.uniform(0, 2 * math.pi))
            theta = rng.uniform(0.1, math.pi / 2)
            a_minus, a_plus = margin_rows_pair(*expand_row(h), s, theta)
            sh = np.conj(s) * h
            h1 = np.concatenate([sh.real, -sh.imag])
            np.testing.assert_allclose(a_minus + a_plus, 2 * math.sin(theta) * h1, atol=1e-12)

    def test_symbolic_expansion_oracle(self):
        # a_minus @ xbar equals Re{s* h x} sin(theta) - Im{s* h x} cos(theta)
        rng = np.random.default_rng(56)
        for _ in range(50):
            h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            s = np.exp(1j * rng.uniform(0, 2 * math.pi))
            theta = rng.uniform(0.1, math.pi / 2)
            a_minus, a_plus = margin_rows_pair(*expand_row(h), s, theta)
            z = np.conj(s) * (h @ x)
            xb = expand_vec(x)
            assert a_minus @ xb == pytest.approx(
                z.real * math.sin(theta) - z.imag * math.cos(theta), rel=1e-11, abs=1e-11
            )
            assert a_plus @ xb == pytest.approx(
                z.real * math.sin(theta) + z.imag * math.cos(theta), rel=1e-11, abs=1e-11
            )

    def test_pair_equals_row_formula(self):
        # bit-exact against the row formula, so the engine's rows keep every byte
        rng = np.random.default_rng(57)
        for theta in (math.pi / 2, THETA4, math.pi / 8, math.pi / 16):
            h_e1, h_e2 = rng.standard_normal((2, 6))
            s = complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
            h_minus = s.real * h_e1 + s.imag * h_e2
            h_plus = -s.imag * h_e1 + s.real * h_e2
            sin_t, cos_t = math.sin(theta), math.cos(theta)
            a_minus, a_plus = margin_rows_pair(h_e1, h_e2, s, theta)
            assert np.array_equal(a_minus, h_minus * sin_t - h_plus * cos_t)
            assert np.array_equal(a_plus, h_minus * sin_t + h_plus * cos_t)


def eff_channels_from(h, covs):
    return [whitened_effective_channel(h[i], covs[i], sqrt_inv_psd2(covs[i])) for i in range(len(covs))]


class TestPwSlpMinPower:
    def test_zero_targets(self):
        rng = np.random.default_rng(58)
        h, h_j, jam, covs = random_slp_case(rng)
        eff = eff_channels_from(h, covs)
        s = rand_symbols(rng, 4, 3)
        sol = pw_slp_minpower(eff, s, np.zeros(3), THETA4)
        assert sol.power == 0.0
        np.testing.assert_allclose(sol.x, 0.0)

    def test_doubling_targets_quadruples_power(self):
        rng = np.random.default_rng(59)
        h, h_j, jam, covs = random_slp_case(rng)
        eff = eff_channels_from(h, covs)
        s = rand_symbols(rng, 4, 3)
        p1 = pw_slp_minpower(eff, s, np.full(3, 1.3), THETA4).power
        p2 = pw_slp_minpower(eff, s, np.full(3, 2.6), THETA4).power
        assert p2 == pytest.approx(4.0 * p1, rel=1e-12)

    def test_one_target_is_every_users_target(self):
        rng = np.random.default_rng(62)
        h, h_j, jam, covs = random_slp_case(rng)
        eff = eff_channels_from(h, covs)
        s = rand_symbols(rng, 4, 3)
        full = pw_slp_minpower(eff, s, np.full(3, 1.7), THETA4)
        for targets in (1.7, [1.7]):
            assert pw_slp_minpower(eff, s, targets, THETA4).x.tobytes() == full.x.tobytes()

    @pytest.mark.parametrize("targets", [[1.0, 2.0], np.ones(4), []])
    def test_a_wrong_number_of_targets_raises(self, targets):
        rng = np.random.default_rng(63)
        h, h_j, jam, covs = random_slp_case(rng)
        with pytest.raises(ValueError, match=rf"^expected 3 per-user values, got {len(targets)}$"):
            pw_slp_minpower(eff_channels_from(h, covs), rand_symbols(rng, 4, 3), targets, THETA4)

    def test_single_user_vs_enumeration(self):
        rng = np.random.default_rng(60)
        h, h_j, jam, covs = random_slp_case(rng, m=1, k=1)
        eff = eff_channels_from(h, covs)
        s = rand_symbols(rng, 4, 1)
        sol = pw_slp_minpower(eff, s, [2.0], THETA4)
        a = np.vstack(margin_rows_pair(eff[0][0], eff[0][1], s[0], THETA4))
        ref = min_norm_by_enumeration(a, np.array([2.0, 2.0]))
        assert np.max(np.abs(sol.x - ref)) < 1e-8

    def test_constraint_slacks_and_kkt(self):
        rng = np.random.default_rng(61)
        h, h_j, jam, covs = random_slp_case(rng)
        eff = eff_channels_from(h, covs)
        s = rand_symbols(rng, 4, 3)
        sol = pw_slp_minpower(eff, s, np.full(3, 2.0), THETA4)
        assert np.min(sol.achieved_margins) >= -1e-7
        rows = []
        for (e1, e2), sk in zip(eff, s):
            rows += margin_rows_pair(e1, e2, sk, THETA4)
        a = np.vstack(rows)
        # stationarity certificate: x in the cone of active rows
        duals, *_ = np.linalg.lstsq(a.T, 2.0 * sol.x, rcond=None)
        assert np.max(np.abs(a.T @ duals - 2 * sol.x)) < 1e-6


class TestPwSlpMsm:
    def test_power_scaling(self):
        rng = np.random.default_rng(62)
        h, h_j, jam, covs = random_slp_case(rng)
        eff = eff_channels_from(h, covs)
        s = rand_symbols(rng, 4, 3)
        sol1, d1 = pw_slp_msm(eff, s, 10.0, THETA4)
        sol2, d2 = pw_slp_msm(eff, s, 40.0, THETA4)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-12)
        np.testing.assert_allclose(sol2.x, 2.0 * sol1.x, rtol=1e-10)

    def test_duality_round_trip(self):
        rng = np.random.default_rng(63)
        h, h_j, jam, covs = random_slp_case(rng)
        eff = eff_channels_from(h, covs)
        s = rand_symbols(rng, 4, 3)
        p_t = 25.0
        sol, delta = pw_slp_msm(eff, s, p_t, THETA4)
        back = pw_slp_minpower(eff, s, np.full(3, delta), THETA4)
        assert back.power == pytest.approx(p_t, rel=1e-6)

    def test_single_user_analytic(self):
        # align with the symbol: delta = sqrt(P) sin(theta) ||h_e||
        rng = np.random.default_rng(64)
        h_e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        hb = expand_row(h_e)
        s = np.exp(1j * 5 * math.pi / 4)
        p_t = 9.0
        _, delta = pw_slp_msm([(hb[0], hb[1])], [s], p_t, THETA4)
        assert delta == pytest.approx(
            math.sqrt(p_t) * math.sin(THETA4) * np.linalg.norm(h_e), rel=1e-9
        )


class TestEllipseMargins:
    def test_circular(self):
        ell = ConfidenceEllipse(2.0, 2.0, 0.0, 3.0)
        du, dl = ellipse_margins(ell, THETA4)
        assert du == pytest.approx(math.sqrt(6.0))
        assert dl == pytest.approx(math.sqrt(6.0))

    def test_aligned_major_axis(self):
        theta = 0.6
        ell = ConfidenceEllipse(3.0, 0.5, theta, 2.0)
        du, _ = ellipse_margins(ell, theta)
        assert du == pytest.approx(math.sqrt(2.0 * 0.5), rel=1e-12)

    def test_quadratic_form_equivalence(self):
        # closed trig form equals n^T G n with the boundary normals
        rng = np.random.default_rng(65)
        for _ in range(50):
            lam1 = rng.uniform(0.5, 4.0)
            lam2 = rng.uniform(0.01, lam1)
            alpha = rng.uniform(0, math.pi)
            theta = rng.uniform(0.1, math.pi / 2)
            omega = rng.uniform(1.0, 6.0)
            ell = ConfidenceEllipse(lam1, lam2, alpha, omega)
            v = np.array([math.cos(alpha), math.sin(alpha)])
            vp = np.array([-v[1], v[0]])
            g = lam1 * np.outer(v, v) + lam2 * np.outer(vp, vp)
            n_u = np.array([math.sin(theta), -math.cos(theta)])
            n_l = np.array([math.sin(theta), math.cos(theta)])
            du, dl = ellipse_margins(ell, theta)
            assert du == pytest.approx(math.sqrt(omega * n_u @ g @ n_u), rel=1e-12)
            assert dl == pytest.approx(math.sqrt(omega * n_l @ g @ n_l), rel=1e-12)

    def test_dense_sampling_oracle_quick(self):
        rng = np.random.default_rng(66)
        t = np.linspace(0, 2 * math.pi, 200_001)
        for _ in range(5):
            lam1 = rng.uniform(0.5, 4.0)
            lam2 = rng.uniform(0.05, lam1)
            alpha = rng.uniform(0, math.pi)
            ell = ConfidenceEllipse(lam1, lam2, alpha, chi2_scale(0.9))
            v = np.array([math.cos(alpha), math.sin(alpha)])
            vp = np.array([-v[1], v[0]])
            pts = (
                math.sqrt(ell.omega * lam1) * np.outer(np.cos(t), v)
                + math.sqrt(ell.omega * lam2) * np.outer(np.sin(t), vp)
            )
            for theta in (math.pi / 2, math.pi / 4, math.pi / 8):
                du, dl = ellipse_margins(ell, theta)
                n_u = np.array([math.sin(theta), -math.cos(theta)])
                n_l = np.array([math.sin(theta), math.cos(theta)])
                assert du == pytest.approx(np.max(pts @ n_u), abs=1e-4)
                assert dl == pytest.approx(np.max(pts @ n_l), abs=1e-4)


class TestTangentPoints:
    def test_circle(self):
        ell = ConfidenceEllipse(1.5, 1.5, 0.0, 2.0)
        for pt in tangent_points(ell, THETA4):
            assert np.linalg.norm(pt) == pytest.approx(math.sqrt(2.0 * 1.5), rel=1e-12)

    def test_points_on_boundary_and_tangency(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            lam1 = rng.uniform(0.5, 4.0)
            lam2 = rng.uniform(0.05, lam1)
            alpha = rng.uniform(0, math.pi)
            theta = rng.uniform(0.1, math.pi / 2)
            omega = rng.uniform(1.0, 6.0)
            ell = ConfidenceEllipse(lam1, lam2, alpha, omega)
            v = np.array([math.cos(alpha), math.sin(alpha)])
            vp = np.array([-v[1], v[0]])
            ginv = np.outer(v, v) / lam1 + np.outer(vp, vp) / lam2
            n_u = np.array([math.sin(theta), -math.cos(theta)])
            n_l = np.array([math.sin(theta), math.cos(theta)])
            for pt, n in zip(tangent_points(ell, theta), (n_u, n_u, n_l, n_l)):
                assert pt @ ginv @ pt == pytest.approx(omega, abs=1e-9 * omega)
                grad = ginv @ pt
                grad /= np.linalg.norm(grad)
                assert abs(grad[0] * n[1] - grad[1] * n[0]) < 1e-8

    def test_margin_agreement(self):
        # |delta_u| = |u sin(theta) + v cos(theta)| at the upper tangency offset
        rng = np.random.default_rng(68)
        for _ in range(30):
            lam1 = rng.uniform(0.5, 4.0)
            lam2 = rng.uniform(0.05, lam1)
            alpha = rng.uniform(0, math.pi)
            theta = rng.uniform(0.1, math.pi / 2)
            ell = ConfidenceEllipse(lam1, lam2, alpha, 3.0)
            du, dl = ellipse_margins(ell, theta)
            up, _, lp, _ = tangent_points(ell, theta)
            u_off, v_off = -up[0], up[1]
            assert abs(u_off * math.sin(theta) + v_off * math.cos(theta)) == pytest.approx(
                du, abs=1e-9
            )
            assert abs(lp[0] * math.sin(theta) + lp[1] * math.cos(theta)) == pytest.approx(
                dl, abs=1e-9
            )

    def test_theta_right_angle(self):
        ell = ConfidenceEllipse(2.0, 0.7, 1.0, 3.0)
        pts = tangent_points(ell, math.pi / 2)
        v = np.array([math.cos(1.0), math.sin(1.0)])
        vp = np.array([-v[1], v[0]])
        ginv = np.outer(v, v) / 2.0 + np.outer(vp, vp) / 0.7
        for pt in pts:
            assert pt @ ginv @ pt == pytest.approx(3.0, rel=1e-9)

    def test_degenerate_segment(self):
        ell = ConfidenceEllipse(2.0, 0.0, 0.8, 3.0)
        pts = tangent_points(ell, THETA4)
        end = math.sqrt(3.0 * 2.0) * np.array([math.cos(0.8), math.sin(0.8)])
        np.testing.assert_allclose(pts[0], end, atol=1e-12)
        np.testing.assert_allclose(pts[1], -end, atol=1e-12)


def random_slp_case(rng, m=3, k=3, rho2=10.0, q11=0.75, q12=0.25, awgn=1.0):
    from ncprecode.noisegeom import q_from_elements

    h, h_j = sample_channels(rng, m, k)
    jam = jammer_model(math.sqrt(rho2), q_from_elements(q11, q12))
    covs = [effective_cov(hj, jam, awgn) for hj in h_j]
    return h, h_j, jam, covs


class TestNcSlp:
    def test_circular_limit_matches_pw(self):
        # no jammer and equal presets reduce to the pre-whitened problem with
        # targets delta0 cos(theta) + sqrt(omega awgn/2)
        rng = np.random.default_rng(69)
        h, h_j = sample_channels(rng, 3, 3)
        jam = jammer_model(0.0, CIRCULAR_Q)
        awgn = 1.7
        covs = [effective_cov(hj, jam, awgn) for hj in h_j]
        s = rand_symbols(rng, 4, 3)
        p = 0.9
        delta0 = 1.2
        sol_nc = nc_slp(h, h_j, jam, awgn, s, delta0, p, THETA4)
        target = delta0 * math.cos(THETA4) + math.sqrt(chi2_scale(p) * awgn / 2.0)
        sol_pw = pw_slp_minpower(eff_channels_from(h, covs), s, np.full(3, target), THETA4)
        assert sol_nc.power == pytest.approx(sol_pw.power, rel=1e-10)

    def test_confidence_monotone(self):
        rng = np.random.default_rng(70)
        h, h_j, jam, covs = random_slp_case(rng)
        s = rand_symbols(rng, 4, 3)
        targets = 1.0
        p_prev = 0.0
        for p in (0.5, 0.7, 0.9, 0.99):
            power = nc_slp(h, h_j, jam, 1.0, s, targets, p, THETA4).power
            assert power >= p_prev - 1e-12
            p_prev = power

    def test_solution_invariants(self):
        rng = np.random.default_rng(71)
        h, h_j, jam, covs = random_slp_case(rng)
        s = rand_symbols(rng, 8, 3)
        sol = nc_slp(h, h_j, jam, 1.0, s, 0.8, 0.95, math.pi / 8)
        assert np.min(sol.achieved_margins) >= -1e-7

    @staticmethod
    def _single_user_powers(d):
        # one user, zero preset margin, powers over a covariance grid on the disk
        rng = np.random.default_rng(72)
        h, h_j = sample_channels(rng, 3, 1)
        zero = 0.0
        qs = [
            (q11, q12)
            for q11 in np.linspace(0.0, 1.0, 11)
            for q12 in np.linspace(-0.5, 0.5, 11)
            if (q11 - 0.5) ** 2 + q12 ** 2 <= 0.25 + 1e-12
        ]
        rows = []
        for s in psk_constellation(d)[:2]:
            rows.append([
                nc_slp(h, h_j, jammer_model(math.sqrt(10.0), q_from_elements(*q)),
                       1.0, [s], zero, 0.95, math.pi / d).power
                for q in qs
            ])
        return np.array(rows)

    def test_qpsk_single_user_power_invariant_in_q(self):
        # For QPSK the boundary normals are orthogonal, so du^2 + dl^2 =
        # omega sigma_k^2 for every Q, and the user's two margin rows are
        # orthogonal with equal norm: its minimum power ignores Q entirely.
        # This is why the averaged coupled power surface of c02 can peak
        # inside the disk.
        powers = self._single_user_powers(4)
        spread = powers.max(axis=1) - powers.min(axis=1)
        assert np.all(spread <= 1e-12 * powers.max(axis=1))

    def test_8psk_single_user_power_depends_on_q(self):
        powers = self._single_user_powers(8)
        spread = powers.max(axis=1) - powers.min(axis=1)
        assert np.all(spread >= 0.1 * powers.max(axis=1))


class TestWorstCasePterms:
    def test_diagonal_cases(self):
        jp, av = 10.0, 1.0
        pu1, pu2, pl1, pl2 = worst_case_pterms(THETA4 + THETA4, THETA4, jp, av)
        # alpha - theta = pi/4: sin^2 = cos^2 = 1/2
        assert pu1 == pytest.approx(0.5 * jp + 0.5 * av)
        assert pu2 == pytest.approx(0.5 * jp + 0.5 * av)
        pu1, pu2, _, _ = worst_case_pterms(THETA4, THETA4, jp, av)
        assert pu2 == pytest.approx(jp + 0.5 * av)  # cos^2 = 1 branch
        assert pu1 == pytest.approx(0.5 * av)

    def test_grid_oracle(self):
        # maxima over the eigenvalue split match a dense grid over lam1_q
        rng = np.random.default_rng(72)
        lam_grid = np.linspace(0.0, 1.0, 101)
        for _ in range(50):
            alpha = rng.uniform(0, 2 * math.pi)
            theta = rng.uniform(0.1, math.pi / 2)
            jp = rng.uniform(0.1, 20.0)
            av = rng.uniform(0.1, 3.0)
            pu1, pu2, pl1, pl2 = worst_case_pterms(alpha, theta, jp, av)
            su = math.sin(alpha - theta) ** 2
            cu = math.cos(alpha - theta) ** 2
            sl = math.sin(alpha + theta) ** 2
            cl = math.cos(alpha + theta) ** 2
            up = (jp * lam_grid * su + jp * (1 - lam_grid) * cu) + 0.5 * av
            lo = (jp * lam_grid * sl + jp * (1 - lam_grid) * cl) + 0.5 * av
            assert max(pu1, pu2) == pytest.approx(np.max(up), rel=1e-12)
            assert max(pl1, pl2) == pytest.approx(np.max(lo), rel=1e-12)


class TestSolveMinPower:
    """One QP per bound orientation, the solution needing the most power returned."""

    @staticmethod
    def terms(rng, orientations=None, k=3, m=3):
        h, _ = sample_channels(rng, m, k)
        s = rand_symbols(rng, 4, k)
        shape = (2,) if orientations is None else (orientations, 2)
        return [
            (margin_rows_pair(*expand_row(h[u]), s[u], THETA4), rng.uniform(0.5, 2.0, size=shape))
            for u in range(k)
        ]

    @staticmethod
    def stacked(terms):
        a = np.array([row for rows, _ in terms for row in rows])
        return a, np.concatenate([bounds for _, bounds in terms], axis=-1)

    @classmethod
    def min_power(cls, vectors):
        """solve_min_power of symbol vectors given as per-user (rows, bounds) terms, one SlpSolution per vector."""
        a, b = zip(*map(cls.stacked, vectors))
        b = np.array(b)
        x, power, margins = solve_min_power(np.array(a), b.reshape(len(b), -1, b.shape[-1]))
        assert len(x) == len(power) == len(margins) == len(vectors)
        return [SlpSolution(*item) for item in zip(x, power, margins)]

    @classmethod
    def max_margin(cls, vectors, p_t):
        """solve_maximin_batch of symbol vectors given as per-user (rows, None) terms, one (x, delta) per vector."""
        a = np.array([[row for rows, _ in terms for row in rows] for terms in vectors])
        x, delta = solve_maximin_batch(a, p_t)
        assert len(x) == len(delta) == len(vectors)
        return list(zip(x, delta))

    def test_one_dimensional_bounds_are_one_qp(self):
        terms = self.terms(np.random.default_rng(81))
        a, b = self.stacked(terms)
        sol = self.min_power([terms])[0]
        ref = solve_min_norm(QpProblem(a, b))
        assert np.array_equal(sol.x, ref.x)
        assert sol.power == ref.objective
        assert np.array_equal(sol.achieved_margins, a @ ref.x - b)

    def test_conservative_is_one_qp_on_the_elementwise_maxima(self):
        # robust_slp's conservative option reduces each user's orientations to
        # their elementwise maxima, one QP; by default the orientation needing
        # the most power wins
        rng = np.random.default_rng(82)
        h, h_j = sample_channels(rng, 3, 3)
        s = rand_symbols(rng, 4, 3)
        omega = chi2_scale(0.95)
        rows, bounds = [], []
        for u in range(3):
            rows += margin_rows_pair(*expand_row(h[u]), s[u], THETA4)
            bounds.append(robust_bounds(h_j[u], 10.0, 1.0, s[u], 0.5, omega, THETA4, 5))
        a, b = np.array(rows), np.concatenate(bounds, axis=1)
        assert b.shape == (5, a.shape[0])
        sol = robust_slp(h, h_j, 10.0, 1.0, s, 0.5, 0.95, THETA4, n_div=5, conservative=True)
        ref = solve_min_norm(QpProblem(a, np.max(b, axis=0)))
        assert np.array_equal(sol.x, ref.x)
        assert sol.power == ref.objective
        assert np.array_equal(sol.achieved_margins, a @ ref.x - np.max(b, axis=0))
        worst = max((solve_min_norm(QpProblem(a, row)) for row in b), key=lambda r: r.objective)
        assert np.array_equal(robust_slp(h, h_j, 10.0, 1.0, s, 0.5, 0.95, THETA4, n_div=5).x, worst.x)

    def test_many_vectors_are_the_single_vector_calls(self):
        # enough vectors for the lockstep kernel; each still gets the bits of its own call
        rng = np.random.default_rng(84)
        for orientations in (None, 5):
            vectors = [self.terms(rng, orientations) for _ in range(BATCH_CROSSOVER + 3)]
            for terms, sol in zip(vectors, self.min_power(vectors)):
                one = self.min_power([terms])[0]
                assert np.array_equal(sol.x, one.x)
                assert sol.power == one.power
                assert np.array_equal(sol.achieved_margins, one.achieved_margins)

    def test_a_bound_count_that_differs_from_the_row_count_raises(self):
        # four bounds per user on its two rows are rejected, not regrouped
        # into twice as many orientations
        rng = np.random.default_rng(86)
        for orientations in (None, 5):
            wide = [(rows, np.concatenate([b, b], axis=-1)) for rows, b in self.terms(rng, orientations)]
            for count in (1, BATCH_CROSSOVER + 3):
                with pytest.raises(ValueError, match="constraint stack, bound rows and owners do not match"):
                    self.min_power([wide] * count)

    def test_the_first_failing_vector_raises(self):
        # as a loop over the vectors would: an earlier vector's failure wins,
        # whether it is a zero row or an inconsistent QP, on the scalar path
        # and in the lockstep kernel
        for count in (4, BATCH_CROSSOVER + 3):
            rng = np.random.default_rng(85)
            good = [self.terms(rng) for _ in range(count)]
            (rows, bounds), *rest = good[0]
            zero = [(tuple(np.zeros_like(r) for r in rows), bounds), *rest]
            clash = [((rows[0], -rows[0]), np.ones(2)), *rest]   # a x >= 1 and -a x >= 1
            with pytest.raises(Infeasible, match="inconsistent constraints"):
                self.min_power(good[:3] + [clash] + good[3:6] + [zero] + good[6:])
            with pytest.raises(Infeasible, match="zero constraint row with positive bound"):
                self.min_power(good[:3] + [zero] + [clash] + good[3:])
            with pytest.raises(Infeasible, match="zero constraint row with positive bound"):
                self.min_power([zero] + good)
            # the maximin designs pin a zero row's margin at 0; only all-zero rows raise
            all_zero = [(tuple(np.zeros_like(r) for r in rows_u), b) for rows_u, b in good[0]]
            out = self.max_margin(good[:3] + [zero] + good[3:], 1.0)
            assert np.array_equal(out[3][0], np.zeros(6)) and out[3][1] == 0.0
            for terms, (x, delta) in zip(good, out[:3] + out[4:]):
                x_one, delta_one = self.max_margin([terms], 1.0)[0]
                assert np.array_equal(x, x_one) and delta == delta_one
            with pytest.raises(ZeroRow, match="all constraint rows are zero"):
                self.max_margin(good[:3] + [zero, all_zero] + good[3:], 1.0)

    # One vector's rows: x1 >= b0, -x1 >= b1 and a zero row >= b2. Its
    # orientations (bound rows) are feasible, inconsistent (b0 + b1 > 0) or
    # fail on the zero row (b2 > 0).
    EDGE_ROWS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    FEASIBLE, INCONSISTENT, ZERO = [1.0, -2.0, 0.0], [1.0, 1.0, 0.0], [1.0, -2.0, 1.0]

    @staticmethod
    def stack(vectors, n_good):
        """Stacked rows and bounds of `vectors`, (rows, orientations) pairs, amid n_good random 3 x 2 vectors.

        Returns (a, b, at): `vectors` start at stack index `at`. The random
        vectors have bounds -1, so x = 0 solves each of their orientations.
        """
        rng = np.random.default_rng(87)
        n_or = len(vectors[0][1])
        good = [(rng.standard_normal((3, 2)), np.full((n_or, 3), -1.0)) for _ in range(n_good)]
        half = n_good // 2
        items = good[:half] + list(vectors) + good[half:]
        return np.array([rows for rows, _ in items]), np.array([b for _, b in items], dtype=float), half

    @pytest.mark.parametrize("n_good", [0, BATCH_CROSSOVER + 2], ids=["scalar", "lockstep"])
    def test_tied_orientations_keep_the_first(self, n_good):
        # The unit rows with bounds (1, 0) and (0, 1) give x = e1 and x = e2,
        # both of power exactly 1; identical bound rows tie with identical x.
        unit = np.eye(2)
        tied = (unit, [[1.0, 0.0], [0.0, 1.0]])
        same = (unit, [[0.5, 0.25], [0.5, 0.25]])
        rising = (unit, [[0.5, 0.0], [0.0, 0.75]])   # the second orientation needs more power
        for vector, first in ((tied, 0), (same, 0), (rising, 1)):
            a, b, at = self.stack([(np.vstack([vector[0], [[0.0, 0.0]]]), np.pad(vector[1], ((0, 0), (0, 1))))],
                                  n_good)
            x, power, margins = solve_min_power(a, b)
            ref = solve_min_norm(QpProblem(a[at], b[at, first]))
            assert np.array_equal(x[at], ref.x)
            assert power[at] == ref.objective
            assert np.array_equal(margins[at], a[at] @ ref.x - b[at, first])
            assert len(x) == n_good + 1
        assert np.array_equal(x[at], [0.0, 0.75])

    @pytest.mark.parametrize("n_good", [0, BATCH_CROSSOVER + 2], ids=["scalar", "lockstep"])
    def test_a_later_orientation_fails_first_in_orientation_order(self, n_good):
        for orientations, message in (
            ([self.FEASIBLE, self.INCONSISTENT, self.ZERO], "^inconsistent constraints$"),
            ([self.FEASIBLE, self.ZERO, self.INCONSISTENT], "^zero constraint row with positive bound$"),
        ):
            a, b, _ = self.stack([(self.EDGE_ROWS, orientations)], n_good)
            with pytest.raises(Infeasible, match=message):
                solve_min_power(a, b)
            # an earlier vector's failure comes first, whatever its orientation
            a, b, _ = self.stack([(self.EDGE_ROWS, [self.FEASIBLE, self.FEASIBLE, self.ZERO]),
                                  (self.EDGE_ROWS, orientations)], n_good)
            with pytest.raises(Infeasible, match="^zero constraint row with positive bound$"):
                solve_min_power(a, b)


class TestZeroChannelRow:
    """A zero channel row meets the QP solver's zero-row rules in every design."""

    @staticmethod
    def case(seed):
        rng = np.random.default_rng(seed)
        h, h_j, jam, covs = random_slp_case(rng, k=2)
        h[0] = 0.0
        return h, h_j, jam, covs, rand_symbols(rng, 4, 2)

    @pytest.mark.parametrize("design", [
        lambda h, h_j, jam, covs, s: nc_slp(h, h_j, jam, 1.0, s, 0.5, 0.9, THETA4),
        lambda h, h_j, jam, covs, s: naive_slp(h, h_j, 10.0, 1.0, s, 0.5, 0.9, THETA4),
        lambda h, h_j, jam, covs, s: pw_slp_minpower(eff_channels_from(h, covs), s, [1.0, 1.0], THETA4),
        lambda h, h_j, jam, covs, s: robust_slp(h, h_j, 10.0, 1.0, s, 0.5, 0.9, THETA4),
    ], ids=["nc_slp", "naive_slp", "pw_slp_minpower", "robust_slp"])
    def test_min_power_designs_are_infeasible(self, design):
        with pytest.raises(Infeasible, match="^zero constraint row with positive bound$"):
            design(*self.case(91))

    def test_max_min_design_pins_the_margin_at_zero(self):
        h, h_j, jam, covs, s = self.case(92)
        sol, delta = pw_slp_msm(eff_channels_from(h, covs), s, 10.0, THETA4)
        assert delta == 0.0
        assert np.array_equal(sol.x, np.zeros(6))
        assert sol.power == 0.0

    def test_all_zero_rows_raise(self):
        h, h_j, jam, covs, s = self.case(93)
        with pytest.raises(ZeroRow, match="all constraint rows are zero"):
            pw_slp_msm(eff_channels_from(0.0 * h, covs), s, 10.0, THETA4)


def orientation_bounds(h_j, jammer_power, awgn_var, s, delta, omega, theta, phi):
    """Worst-case bounds (u1, u2, l1, l2 per user) of one rank-one orientation phi."""
    bounds = []
    for hj, sk in zip(h_j, s):
        alpha_check = phi + np.angle(hj) - np.angle(sk)
        terms = worst_case_pterms(alpha_check, theta, jammer_power * abs(hj) ** 2, awgn_var)
        bounds += [delta * math.cos(theta) + math.sqrt(omega * pt) for pt in terms]
    return np.array(bounds)


class TestRobustSlp:
    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except Exception as exc:
            return exc

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_one_row_per_boundary_is_the_duplicated_qp(self, k):
        # Listing each row once per endpoint bound gives the same QP as one
        # row per boundary under the larger bound: the looser copy is never
        # active. Equal to rounding only, as BLAS results can depend on the
        # row count; a zero channel row fails both forms alike.
        rng = np.random.default_rng(100 + k)
        omega = chi2_scale(0.95)
        for m in (k, k + 1):
            for n_div in (1, 5, 16):
                h, h_j = sample_channels(rng, m, k)
                s = rand_symbols(rng, 4, k)
                for zero_row in (False, True):
                    if zero_row:
                        h[0] = 0.0
                    rows = []
                    for u in range(k):
                        a_minus, a_plus = margin_rows_pair(*expand_row(h[u]), s[u], THETA4)
                        rows += [a_minus, a_minus, a_plus, a_plus]
                    qps = [
                        QpProblem(np.array(rows), orientation_bounds(h_j, 10.0, 1.0, s, 0.5, omega, THETA4,
                                                                     n * math.pi / n_div))
                        for n in range(1, n_div + 1)
                    ]
                    ref = self.outcome(lambda: max(map(solve_min_norm, qps), key=lambda r: r.objective))
                    sol = self.outcome(lambda: robust_slp(h, h_j, 10.0, 1.0, s, 0.5, 0.95, THETA4, n_div=n_div))
                    if isinstance(ref, Exception):
                        assert type(sol) is type(ref) and str(sol) == str(ref)
                        continue
                    assert not isinstance(sol, Exception)
                    assert sol.power == pytest.approx(ref.objective, rel=1e-12)
                    assert np.linalg.norm(sol.x - ref.x) <= 1e-12 * np.linalg.norm(ref.x)

    def test_bounds_are_the_larger_endpoint_bounds_bit_for_bit(self):
        # one bound per boundary: the maximum of its two endpoint bounds,
        # each built as before from base + sqrt(omega) sqrt(p)
        rng = np.random.default_rng(72)
        for _ in range(300):
            theta = math.pi / int(rng.choice([2, 4, 8, 16]))
            h_jk = complex(*rng.standard_normal(2))
            s_k = rand_symbols(rng, 16, 1)[0]
            jammer_power, awgn_var, delta0 = rng.exponential(5.0, 3)
            omega = chi2_scale(rng.uniform(0.05, 0.99))
            n_div = int(rng.integers(1, 17))
            base, root = delta0 * math.cos(theta), math.sqrt(omega)
            old = np.array([
                [base + root * math.sqrt(pt) for pt in worst_case_pterms(
                    n * math.pi / n_div + cmath.phase(h_jk) - cmath.phase(complex(s_k)), theta,
                    jammer_power * abs(h_jk) ** 2, awgn_var,
                )]
                for n in range(1, n_div + 1)
            ])   # (u1, u2, l1, l2) per orientation
            got = robust_bounds(h_jk, jammer_power, awgn_var, s_k, delta0, omega, theta, n_div)
            assert got.shape == (n_div, 2)
            assert np.array_equal(got, np.maximum(old[:, [0, 2]], old[:, [1, 3]]))

    def test_n_div_one_is_single_orientation(self):
        rng = np.random.default_rng(73)
        h, h_j, jam, covs = random_slp_case(rng)
        s = rand_symbols(rng, 4, 3)
        targets = 1.0
        sol1 = robust_slp(h, h_j, 10.0, 1.0, s, targets, 0.95, THETA4, n_div=1)
        # reproduce by hand at phi = pi
        rows = []
        for i in range(3):
            a_minus, a_plus = margin_rows_pair(*expand_row(h[i]), s[i], THETA4)
            rows += [a_minus, a_minus, a_plus, a_plus]
        bounds = orientation_bounds(h_j, 10.0, 1.0, s, 1.0, chi2_scale(0.95), THETA4, math.pi)
        ref = solve_min_norm(QpProblem(rows, bounds)).objective
        assert sol1.power == pytest.approx(ref, rel=1e-12)

    def test_nested_grid_monotone(self):
        rng = np.random.default_rng(74)
        h, h_j, jam, covs = random_slp_case(rng)
        s = rand_symbols(rng, 4, 3)
        targets = 1.0
        prev = -np.inf
        for n_div in (4, 8, 16, 32):
            power = robust_slp(h, h_j, 10.0, 1.0, s, targets, 0.95, THETA4, n_div=n_div).power
            assert power >= prev - 1e-9
            prev = power

    def test_dominates_grid_aligned_rank_one(self):
        # worst-case design needs at least the power of the exact-covariance
        # design whenever the true rank-one orientation is on the sweep grid
        rng = np.random.default_rng(75)
        n_div = 16
        for _ in range(20):
            h, h_j = sample_channels(rng, 3, 3)
            s = rand_symbols(rng, 4, 3)
            targets = 1.0
            phi = int(rng.integers(1, n_div + 1)) * math.pi / n_div
            jam = jammer_model(math.sqrt(10.0), q_rank_one(phi))
            p_nc = nc_slp(h, h_j, jam, 1.0, s, targets, 0.95, THETA4).power
            p_rob = robust_slp(h, h_j, 10.0, 1.0, s, targets, 0.95, THETA4, n_div=n_div).power
            assert p_rob >= p_nc - 1e-9

    def test_conservative_mode(self):
        rng = np.random.default_rng(76)
        h, h_j, jam, covs = random_slp_case(rng)
        s = rand_symbols(rng, 4, 3)
        targets = 0.5
        default = robust_slp(h, h_j, 10.0, 1.0, s, targets, 0.95, THETA4, n_div=8)
        conservative = robust_slp(
            h, h_j, 10.0, 1.0, s, targets, 0.95, THETA4, n_div=8, conservative=True
        )
        assert conservative.power >= default.power - 1e-9
        # the conservative vector satisfies every sampled orientation's bounds
        rows = []
        for i in range(3):
            a_minus, a_plus = margin_rows_pair(*expand_row(h[i]), s[i], THETA4)
            rows += [a_minus, a_minus, a_plus, a_plus]
        a = np.vstack(rows)
        for n in range(1, 9):
            bounds = orientation_bounds(
                h_j, 10.0, 1.0, s, 0.5, chi2_scale(0.95), THETA4, n * math.pi / 8
            )
            assert np.all(a @ conservative.x - bounds >= -1e-7)


class TestPhysicalContainment:
    def test_noisy_point_stays_in_decision_region(self):
        # with zero presets the confidence ellipse of the true noise sits
        # inside the decision region, so the noisy received point stays in
        # the correct region with probability at least p (the bounding box
        # is conservative, so the measured rate typically exceeds p)
        rng = np.random.default_rng(78)
        theta = THETA4
        p = 0.95
        for q11, q12 in [(0.9, 0.29), (0.5, 0.0), (0.5, -0.49)]:
            jam = jammer_model(math.sqrt(10.0), q_from_elements(q11, q12))
            h, h_j = sample_channels(rng, 3, 3)
            idx = rng.integers(0, 4, size=3)
            s = psk_constellation(4)[idx]
            sol = nc_slp(h, h_j, jam, 1.0, s, 0.0, p, theta)
            x = sol.x[:3] + 1j * sol.x[3:]
            for k in range(3):
                c = sample_noise(rng, h_j[k], jam, 1.0, size=100_000)
                y = h[k] @ x + c[:, 0] + 1j * c[:, 1]
                z = np.conj(s[k]) * y
                inside = z.real * math.sin(theta) - np.abs(z.imag) * math.cos(theta) >= 0
                assert inside.mean() >= p - 0.02


class TestNaiveSlp:
    def test_equals_nc_for_circular(self):
        rng = np.random.default_rng(77)
        h, h_j = sample_channels(rng, 3, 3)
        jam = jammer_model(math.sqrt(10.0), CIRCULAR_Q)
        s = rand_symbols(rng, 4, 3)
        targets = 1.0
        sol_nc = nc_slp(h, h_j, jam, 1.0, s, targets, 0.9, THETA4)
        sol_naive = naive_slp(h, h_j, 10.0, 1.0, s, targets, 0.9, THETA4)
        assert sol_naive.power == pytest.approx(sol_nc.power, rel=1e-12)
        np.testing.assert_allclose(sol_naive.x, sol_nc.x, atol=1e-10)


class TestCircularBounds:
    def test_equals_matched_reliability_targets(self):
        # the expression the engine used for pw_slp's whitened-domain targets
        rng = np.random.default_rng(80)
        omega = chi2_scale(0.8)
        for sigma2 in rng.exponential(10.0, 1000):
            expected = np.full(2, 1.7 * math.cos(THETA4) + np.sqrt(omega * sigma2 / 2.0))
            assert np.array_equal(circular_bounds(sigma2, 1.7, omega, THETA4), expected)

    def test_naive_bounds_circularize_the_total_power(self):
        rng = np.random.default_rng(81)
        omega = chi2_scale(0.95)
        for _ in range(100):
            h_jk = complex(rng.standard_normal(), rng.standard_normal())
            rho2, awgn_var, delta0 = rng.exponential(5.0, 3)
            assert np.array_equal(
                naive_bounds(h_jk, rho2, awgn_var, delta0, omega, THETA4),
                circular_bounds(rho2 * abs(h_jk) ** 2 + awgn_var, delta0, omega, THETA4),
            )


class TestPresetMargin:
    def test_negative_margin_rejected(self):
        rng = np.random.default_rng(79)
        h, h_j, jam, _ = random_slp_case(rng)
        s = rand_symbols(rng, 4, 3)
        with pytest.raises(ValueError, match="delta0"):
            nc_slp(h, h_j, jam, 1.0, s, -0.1, 0.95, THETA4)
        with pytest.raises(ValueError, match="delta0"):
            naive_slp(h, h_j, 10.0, 1.0, s, -0.1, 0.95, THETA4)
        with pytest.raises(ValueError, match="delta0"):
            robust_slp(h, h_j, 10.0, 1.0, s, -0.1, 0.95, THETA4)

    def test_empty_orientation_grid_rejected(self):
        rng = np.random.default_rng(79)
        h, h_j, _, _ = random_slp_case(rng)
        s = rand_symbols(rng, 4, 3)
        with pytest.raises(ValueError, match="n_div must be at least 1"):
            robust_slp(h, h_j, 10.0, 1.0, s, 0.1, 0.95, THETA4, n_div=0)


class TestRankOneSmallAwgn:
    """Seeded property checks: rank-one jammer, AWGN down to 1e-8, M = K = 4, QPSK.

    The effective-noise covariances approach singularity (condition number
    up to about 1e10 at awgn_var = 1e-8), which stresses the ellipse margins,
    the worst-case bounds and the whitening of the pre-whitened design.
    """

    M = K = 4
    P = 0.8
    RHO2 = 10.0
    DRAWS = 50

    @staticmethod
    def assert_feasible(sol, bounds):
        assert np.isfinite(sol.x).all() and math.isfinite(sol.power)
        assert sol.achieved_margins.min() >= -1e-7 * max(1.0, float(np.max(bounds)))

    @pytest.mark.parametrize("awgn_var", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_designs_feasible_and_whitening_exact(self, awgn_var):
        rng = np.random.default_rng(2024)
        omega = chi2_scale(self.P)
        delta0 = margin_from_psi(10.0, THETA4, self.RHO2, awgn_var)
        eps = np.finfo(float).eps
        for _ in range(self.DRAWS):
            h, h_j = sample_channels(rng, self.M, self.K)
            jam = jammer_model(math.sqrt(self.RHO2), q_rank_one(rng.uniform(0.0, math.pi)))
            s = rand_symbols(rng, 4, self.K)
            covs = [effective_cov(hj, jam, awgn_var) for hj in h_j]

            nc = [nc_bounds(g, s_k, delta0, self.P, THETA4) for g, s_k in zip(covs, s)]
            self.assert_feasible(nc_slp(h, h_j, jam, awgn_var, s, delta0, self.P, THETA4), nc)

            rb = [
                robust_bounds(hj, self.RHO2, awgn_var, s_k, delta0, omega, THETA4, 8)
                for hj, s_k in zip(h_j, s)
            ]
            sol = robust_slp(h, h_j, self.RHO2, awgn_var, s, delta0, self.P, THETA4, n_div=8)
            self.assert_feasible(sol, rb)

            sigma2 = np.array([np.trace(g) for g in covs])
            eff = [whitened_effective_channel(h[u], covs[u], sqrt_inv_psd2(covs[u])) for u in range(self.K)]
            pw_targets = delta0 * math.cos(THETA4) + np.sqrt(omega * sigma2 / 2.0)
            self.assert_feasible(pw_slp_minpower(eff, s, pw_targets, THETA4), pw_targets)

            # W G W^T = I to within a few units of cond(G) * eps (measured: below 1)
            for g in covs:
                w = sqrt_inv_psd2(g)
                lam1, lam2, _ = eig2_sym(g)
                err = np.abs(w @ g @ w.T - np.eye(2)).max()
                assert err <= 8.0 * (lam1 / lam2) * eps
