import math

import numpy as np
import pytest

from ncprecode.blp import (
    mmse_blp,
    mse_closed_form,
    mse_of_precoder,
    naive_blp,
    pw_blp,
    robust_blp,
    stack_whitened,
    stationarity_residuals,
)
from ncprecode.errors import NotPositiveDefinite, PrecodingError
from ncprecode.noisegeom import CIRCULAR_Q, effective_cov, jammer_model, q_from_elements, sample_noise
from ncprecode.sim import sample_channels
from ncprecode.wlalg import expand_row, sqrt_inv_psd2


def random_case(rng, m=3, k=3, rho=math.sqrt(10.0), q11=0.7, q12=0.2, awgn=1.0):
    h, h_j = sample_channels(rng, m, k)
    jam = jammer_model(rho, q_from_elements(q11, q12))
    covs = [effective_cov(hj, jam, awgn) for hj in h_j]
    return h, h_j, jam, covs


class TestStackWhitened:
    def test_identity_covs(self):
        rng = np.random.default_rng(31)
        h, _ = sample_channels(rng, 3, 2)
        covs = [np.eye(2)] * 2
        h_e = stack_whitened(h, sqrt_inv_psd2(covs))
        for k in range(2):
            hb = expand_row(h[k])
            np.testing.assert_allclose(h_e[k], hb[0])
            np.testing.assert_allclose(h_e[2 + k], hb[1])

    def test_single_user_diag(self):
        h_e = stack_whitened([[1.0]], sqrt_inv_psd2([np.diag([4.0, 1.0])]))
        np.testing.assert_allclose(h_e, [[0.5, 0.0], [0.0, 1.0]])

    def test_whitened_noise_covariance(self):
        rng = np.random.default_rng(32)
        h, h_j, jam, covs = random_case(rng, m=2, k=2)
        draws = 400_000
        stacked = np.zeros((draws, 4))
        for k in range(2):
            c = sample_noise(rng, h_j[k], jam, 1.0, size=draws)
            w = sqrt_inv_psd2(covs[k])
            cw = c @ w.T
            stacked[:, k] = cw[:, 0]
            stacked[:, 2 + k] = cw[:, 1]
        emp = stacked.T @ stacked / draws
        assert np.max(np.abs(emp - np.eye(4))) < 0.01 * 4


class TestMmseBlp:
    def test_small_closed_form(self):
        pre = mmse_blp(np.eye(2), 2.0)
        assert pre.beta == pytest.approx(math.sqrt(8.0), rel=1e-12)
        np.testing.assert_allclose(pre.p, math.sqrt(2.0) * np.eye(2), atol=1e-12)
        res_p, res_b = stationarity_residuals(pre, np.eye(2))
        assert res_p < 1e-10
        assert res_b < 1e-10

    def test_a_subnormal_power_in_a_stack_raises(self):
        # A whitened channel of about 1e154 keeps its Gram product finite,
        # but its precoder's power is subnormal, so 2 p_t / power overflows:
        # the stack raises, without a warning, where beta would be inf.
        h_e = np.array([np.eye(2), 1.2e154 * np.eye(2), np.eye(2)])
        with pytest.raises(PrecodingError, match="^the precoder's scaling overflows: the noise covariance"):
            mmse_blp(h_e, 2.0)
        assert np.isfinite(mmse_blp(0.5 * h_e, 2.0).beta).all()

    def test_power_constraint_equality(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            h, _, _, covs = random_case(rng)
            h_e = stack_whitened(h, sqrt_inv_psd2(covs))
            p_t = float(rng.uniform(0.5, 200.0))
            pre = mmse_blp(h_e, p_t)
            assert 0.5 * np.sum(pre.p * pre.p) == pytest.approx(p_t, rel=1e-8)

    def test_stationarity_random(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            h, _, _, covs = random_case(rng)
            h_e = stack_whitened(h, sqrt_inv_psd2(covs))
            pre = mmse_blp(h_e, 30.0)
            res_p, res_b = stationarity_residuals(pre, h_e)
            assert res_p < 1e-8
            assert res_b < 1e-8

    def test_local_optimality_probe(self):
        # perturbing P on the power-constraint sphere never reduces the MSE
        rng = np.random.default_rng(35)
        h, _, _, covs = random_case(rng)
        h_e = stack_whitened(h, sqrt_inv_psd2(covs))
        p_t = 50.0
        pre = mmse_blp(h_e, p_t)
        base = mse_of_precoder(pre, h, covs)
        for _ in range(40):
            d = rng.standard_normal(pre.p.shape)
            p_pert = pre.p + 1e-4 * d
            p_pert *= math.sqrt(p_t / (0.5 * np.sum(p_pert * p_pert)))
            pert = type(pre)(p=p_pert, beta=pre.beta, power_budget=p_t)
            assert mse_of_precoder(pert, h, covs) >= base - 1e-12


class TestClosedFormMse:
    def test_inv(self):
        # one user with an identity channel row: the sum in the closed form is
        # G^-1 itself, and [[2, 1], [1, 1]] has the exactly representable
        # inverse [[1, -1], [-1, 2]]
        g = np.array([[2.0, 1.0], [1.0, 1.0]])
        exact = 0.5 * np.trace(np.linalg.solve(np.eye(2) + np.array([[1.0, -1.0], [-1.0, 2.0]]), np.eye(2)))
        assert mse_closed_form([[1.0]], [g], 2.0) == exact
        g = np.array([[2.0, 0.3], [0.3, 1.0]])
        ref = 0.5 * np.trace(np.linalg.solve(np.eye(2) + np.linalg.inv(g), np.eye(2)))
        assert mse_closed_form([[1.0]], [g], 2.0) == pytest.approx(ref, rel=1e-14)

    def test_inv_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite, match="2x2 matrix is singular or indefinite"):
            mse_closed_form([[1.0]], [np.array([[1.0, 2.0], [2.0, 1.0]])], 2.0)

    def test_vanishing_power_limit(self):
        rng = np.random.default_rng(36)
        h, _, _, covs = random_case(rng)
        assert mse_closed_form(h, covs, 1e-12) == pytest.approx(3.0, rel=1e-6)

    def test_matches_optimal_precoder_evaluation(self):
        rng = np.random.default_rng(37)
        h, _, _, covs = random_case(rng)
        pre = pw_blp_from(h, covs, 40.0)
        assert mse_of_precoder(pre, h, covs) == pytest.approx(
            mse_closed_form(h, covs, 40.0), rel=1e-10
        )

    def test_whitener_invariance(self):
        # value depends on each covariance only through its inverse: whiten
        # with a Cholesky factor instead of the symmetric root
        rng = np.random.default_rng(38)
        h, _, _, covs = random_case(rng)
        p_t = 25.0
        rows_first, rows_second = [], []
        for hk, g in zip(h, covs):
            lchol = np.linalg.cholesky(g)
            w = np.linalg.inv(lchol)
            he = w @ expand_row(hk)
            rows_first.append(he[0])
            rows_second.append(he[1])
        h_e_chol = np.vstack(rows_first + rows_second)
        pre = mmse_blp(h_e_chol, p_t)
        k = h.shape[0]
        hp = h_e_chol @ pre.p
        mse_chol = (
            k - np.trace(hp) / pre.beta + (0.5 * np.sum(hp * hp) + 2 * k) / pre.beta ** 2
        )
        assert mse_chol == pytest.approx(mse_closed_form(h, covs, p_t), rel=1e-10)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(39)
        h, h_j, jam, covs = random_case(rng)
        p_t = 100.0
        pre = pw_blp(h, covs, p_t)
        mse_mc = simulate_mse(rng, pre, h, h_j, jam, covs, n=100_000)
        assert mse_mc == pytest.approx(mse_closed_form(h, covs, p_t), rel=0.02)


def pw_blp_from(h, covs, p_t):
    return mmse_blp(stack_whitened(h, sqrt_inv_psd2(covs)), p_t)


def simulate_mse(rng, pre, h, h_j, jam, covs, n=100_000):
    """Monte-Carlo MSE over QPSK symbol vectors and sampled effective noise."""
    k, m = h.shape
    const = np.exp(1j * np.pi * (2 * np.arange(1, 5) - 1) / 4)
    idx = rng.integers(0, 4, size=(n, k))
    s = const[idx]
    sbar = np.concatenate([s.real, s.imag], axis=1)  # n x 2K
    h_e = stack_whitened(h, sqrt_inv_psd2(covs))
    whit = [sqrt_inv_psd2(g) for g in covs]
    noise = np.zeros((n, 2 * k))
    for u in range(k):
        c = sample_noise(rng, h_j[u], jam, 1.0, size=n)
        cw = c @ whit[u].T
        noise[:, u] = cw[:, 0]
        noise[:, k + u] = cw[:, 1]
    y = sbar @ (h_e @ pre.p).T + noise
    err = y / pre.beta - sbar
    return float(np.mean(np.sum(err * err, axis=1)))


class TestVariants:
    def test_robust_equals_pw_for_circular(self):
        rng = np.random.default_rng(40)
        h, h_j = sample_channels(rng, 3, 3)
        jam = jammer_model(2.0, CIRCULAR_Q)
        pre_pw = pw_blp(h, [effective_cov(hj, jam, 1.0) for hj in h_j], 20.0)
        pre_rob = robust_blp(h, 1.0, 4.0 * np.abs(h_j) ** 2, 20.0)
        np.testing.assert_allclose(pre_rob.p, pre_pw.p, atol=1e-10)
        assert pre_rob.beta == pytest.approx(pre_pw.beta, rel=1e-12)

    def test_robust_closed_form_consistency(self):
        rng = np.random.default_rng(41)
        h, h_j = sample_channels(rng, 3, 3)
        jam = jammer_model(2.0, CIRCULAR_Q)
        covs = [effective_cov(hj, jam, 1.0) for hj in h_j]
        pre_rob = robust_blp(h, 1.0, 4.0 * np.abs(h_j) ** 2, 20.0)
        assert mse_of_precoder(pre_rob, h, covs) == pytest.approx(
            mse_closed_form(h, covs, 20.0), rel=1e-10
        )

    def test_naive_equals_pw_without_jammer(self):
        rng = np.random.default_rng(42)
        h, h_j = sample_channels(rng, 3, 3)
        jam = jammer_model(0.0, CIRCULAR_Q)
        pre_pw = pw_blp(h, [effective_cov(hj, jam, 1.5) for hj in h_j], 10.0)
        pre_naive = naive_blp(h, 1.5, 10.0)
        np.testing.assert_allclose(pre_naive.p, pre_pw.p, atol=1e-10)

    def test_naive_worse_under_jamming(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            h, h_j, jam, covs = random_case(rng)
            pre_pw = pw_blp(h, covs, 50.0)
            pre_naive = naive_blp(h, 1.0, 50.0)
            assert mse_of_precoder(pre_naive, h, covs) >= mse_of_precoder(pre_pw, h, covs) - 1e-10


class TestWorstCaseLocation:
    def test_mse_grid_peaks_at_circular(self):
        # desk-scale version of the worst-case-covariance check
        rng = np.random.default_rng(44)
        p_t = 100.0
        for _ in range(5):
            h, h_j = sample_channels(rng, 3, 3)
            grid = np.linspace(0.0, 1.0, 21)
            offs = np.linspace(-0.5, 0.5, 21)
            best, best_q = -np.inf, None
            for q11 in grid:
                for q12 in offs:
                    if (q11 - 0.5) ** 2 + q12 ** 2 > 0.25 + 1e-12:
                        continue
                    jam = jammer_model(math.sqrt(10.0), q_from_elements(q11, q12))
                    covs = [effective_cov(hj, jam, 1.0) for hj in h_j]
                    val = mse_closed_form(h, covs, p_t)
                    if val > best:
                        best, best_q = val, (q11, q12)
            assert abs(best_q[0] - 0.5) <= 0.05 + 1e-9
            assert abs(best_q[1]) <= 0.05 + 1e-9

    def test_mse_symmetric_in_q12(self):
        rng = np.random.default_rng(45)
        h, h_j = sample_channels(rng, 3, 3)
        for q11, q12 in [(0.5, 0.3), (0.7, 0.2), (0.4, 0.45)]:
            covs_p = [
                effective_cov(hj, jammer_model(2.0, q_from_elements(q11, q12)), 1.0)
                for hj in h_j
            ]
            covs_m = [
                effective_cov(hj, jammer_model(2.0, q_from_elements(q11, -q12)), 1.0)
                for hj in h_j
            ]
            # conjugating the jammer covariance conjugates the channels, which
            # leaves the closed-form MSE of the conjugated channel set equal
            h_conj = np.conj(h)
            hj_conj = np.conj(h_j)
            covs_m_conj = [
                effective_cov(hj, jammer_model(2.0, q_from_elements(q11, -q12)), 1.0)
                for hj in hj_conj
            ]
            assert mse_closed_form(h, covs_p, 50.0) == pytest.approx(
                mse_closed_form(h_conj, covs_m_conj, 50.0), rel=1e-10
            )
