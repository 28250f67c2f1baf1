import math

import numpy as np
import pytest

from ncprecode import blp
from ncprecode.errors import InfeasibleQ, InvalidConfidence
from ncprecode.noisegeom import (
    CIRCULAR_Q,
    boundary_normals,
    chi2_scale,
    effective_cov,
    ellipse_from_cov,
    jammer_model,
    q_from_elements,
    q_rank_one,
    rotated_cov,
    sample_noise,
    t_from_q,
    wedge_exit_probability,
)
from ncprecode.oracles import run_wedge_suite
from ncprecode.sim import sample_channels
from ncprecode.wlalg import eig2_sym


def random_feasible_q(rng):
    r = 0.5 * math.sqrt(rng.uniform())
    ang = rng.uniform(0, 2 * math.pi)
    return q_from_elements(0.5 + r * math.cos(ang), r * math.sin(ang))


class TestQConstruction:
    def test_circular(self):
        q = q_from_elements(0.5, 0.0)
        np.testing.assert_allclose(q, 0.5 * np.eye(2))

    def test_rank_one_boundary(self):
        q = q_from_elements(1.0, 0.0)
        np.testing.assert_allclose(q, np.diag([1.0, 0.0]))
        q2 = q_from_elements(0.5, 0.5)
        assert np.linalg.det(q2) == pytest.approx(0.0, abs=1e-15)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleQ):
            q_from_elements(1.2, 0.0)
        with pytest.raises(InfeasibleQ):
            q_from_elements(0.5, 0.51)

    @pytest.mark.parametrize("q11, q12", [(math.nan, 0.0), (0.5, math.nan)])
    def test_nan_is_outside_the_disk(self, q11, q12):
        with pytest.raises(InfeasibleQ):
            q_from_elements(q11, q12)

    def test_rank_one_by_angle(self):
        q = q_rank_one(0.3)
        assert np.trace(q) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.det(q) == pytest.approx(0.0, abs=1e-15)


class TestTFactor:
    def test_circular(self):
        np.testing.assert_allclose(t_from_q(CIRCULAR_Q), np.eye(2) / math.sqrt(2))

    def test_rank_one(self):
        np.testing.assert_allclose(t_from_q(q_from_elements(1.0, 0.0)), np.diag([1.0, 0.0]), atol=1e-15)

    def test_multiply_back(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = random_feasible_q(rng)
            t = t_from_q(q)
            np.testing.assert_allclose(t @ t.T, q, atol=1e-12)


class TestEffectiveCov:
    def test_no_jammer(self):
        jam = jammer_model(0.0, CIRCULAR_Q)
        g = effective_cov(0.7 - 0.2j, jam, 2.0)
        np.testing.assert_allclose(g, np.eye(2))

    def test_circular_jamming(self):
        jam = jammer_model(2.0, CIRCULAR_Q)
        h = 0.6 + 0.8j
        g = effective_cov(h, jam, 1.0)
        expected = (0.5 * 4.0 * abs(h) ** 2 + 0.5) * np.eye(2)
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            q = random_feasible_q(rng)
            rho = rng.uniform(0.1, 5.0)
            h = complex(rng.standard_normal(), rng.standard_normal())
            av = rng.uniform(0.1, 3.0)
            g = effective_cov(h, jammer_model(rho, q), av)
            assert np.trace(g) == pytest.approx(rho ** 2 * abs(h) ** 2 + av, rel=1e-12)

    def test_rank_one_minor_eigenvalue(self):
        # rank-one jamming contributes along a single direction only
        jam = jammer_model(3.0, q_rank_one(1.1))
        g = effective_cov(1.3 - 0.4j, jam, 0.8)
        _, lam2, _ = eig2_sym(g)
        assert lam2 == pytest.approx(0.4, rel=1e-12)

    def test_sample_covariance(self):
        rng = np.random.default_rng(13)
        jam = jammer_model(math.sqrt(10.0), q_from_elements(0.8, 0.25))
        h = 0.9 + 1.1j
        g = effective_cov(h, jam, 1.0)
        c = sample_noise(rng, h, jam, 1.0, size=1_000_000)
        emp = c.T @ c / len(c)
        assert np.max(np.abs(emp - g)) < 0.01 * np.trace(g)


class TestRotatedCov:
    def test_unit_symbol(self):
        g = np.array([[2.0, 0.4], [0.4, 1.0]])
        assert np.array_equal(rotated_cov(g, 1.0), g)

    def test_circular_invariant(self):
        g = 0.5 * np.eye(2)
        out = rotated_cov(g, np.exp(1j * 0.7))
        np.testing.assert_allclose(out, g, atol=1e-15)

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            g = m @ m.T
            s = np.exp(1j * rng.uniform(0, 2 * math.pi))
            l1, l2, _ = eig2_sym(g)
            r1, r2, _ = eig2_sym(rotated_cov(g, s))
            assert r1 == pytest.approx(l1, rel=1e-12, abs=1e-12)
            assert r2 == pytest.approx(l2, rel=1e-12, abs=1e-12)


class TestEllipse:
    def test_omega_values(self):
        assert chi2_scale(0.95) == pytest.approx(5.991464547107980, rel=1e-12)
        assert chi2_scale(0.8) == pytest.approx(3.218875824868201, rel=1e-12)

    def test_diagonal_orientation(self):
        ell = ellipse_from_cov(np.diag([2.0, 1.0]), 0.8)
        assert ell.alpha == 0.0
        assert (ell.lambda1, ell.lambda2) == (2.0, 1.0)
        assert ell.omega == pytest.approx(3.218875824868201, rel=1e-12)

    def test_alpha_range(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            ell = ellipse_from_cov(m @ m.T, 0.9)
            assert 0.0 <= ell.alpha < math.pi

    def test_invalid_confidence(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(InvalidConfidence):
                ellipse_from_cov(np.eye(2), p)

    @pytest.mark.parametrize("q11,q12,p", [(0.5, 0.0, 0.95), (1.0, 0.0, 0.9), (0.62, 0.31, 0.8)])
    def test_containment_probability(self, q11, q12, p):
        # Monte-Carlo containment oracle: the ellipse holds mass p, for
        # circular and maximally improper jamming alike.
        rng = np.random.default_rng(16)
        jam = jammer_model(math.sqrt(10.0), q_from_elements(q11, q12))
        h = 0.8 - 0.5j
        g = effective_cov(h, jam, 1.0)
        ell = ellipse_from_cov(g, p)
        c = sample_noise(rng, h, jam, 1.0, size=1_000_000)
        v = np.array([math.cos(ell.alpha), math.sin(ell.alpha)])
        vp = np.array([-v[1], v[0]])
        qf = (c @ v) ** 2 / ell.lambda1 + (c @ vp) ** 2 / ell.lambda2
        frac = np.mean(qf <= ell.omega)
        assert frac == pytest.approx(p, abs=0.005)


class TestSampling:
    def test_zero_noise(self):
        jam = jammer_model(0.0, CIRCULAR_Q)
        rng = np.random.default_rng(17)
        out = sample_noise(rng, 1.0, jam, 0.0, size=100)
        np.testing.assert_allclose(out, 0.0)

    def test_zero_mean(self):
        rng = np.random.default_rng(18)
        jam = jammer_model(1.0, q_from_elements(0.7, -0.3))
        c = sample_noise(rng, 1.2 + 0.1j, jam, 0.5, size=1_000_000)
        sigma = math.sqrt(np.trace(effective_cov(1.2 + 0.1j, jam, 0.5)))
        assert np.max(np.abs(c.mean(axis=0))) < 4 * sigma / 1000


def assert_symmetric_2x2(g):
    assert isinstance(g, np.ndarray) and g.dtype == np.float64 and g.shape == (2, 2)
    assert g[0, 1].tobytes() == g[1, 0].tobytes()


class TestSymmetricArrays:
    """Every covariance builder returns a float (2, 2) array, symmetric bit for bit."""

    def test_jammer_covariances(self):
        rng = np.random.default_rng(19)
        assert_symmetric_2x2(CIRCULAR_Q)
        for _ in range(50):
            assert_symmetric_2x2(random_feasible_q(rng))
            assert_symmetric_2x2(q_rank_one(rng.uniform(0.0, math.pi)))

    def test_effective_and_rotated_covariances(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            jam = jammer_model(rng.uniform(0.1, 5.0), random_feasible_q(rng))
            g = effective_cov(complex(rng.standard_normal(), rng.standard_normal()), jam, rng.uniform(0.1, 3.0))
            assert_symmetric_2x2(g)
            assert_symmetric_2x2(rotated_cov(g, np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))))

    def test_blp_design_covariances(self, monkeypatch):
        # the covariances a BLP design whitens, recorded where it whitens them
        seen = []
        sqrt_inv_psd2 = blp.sqrt_inv_psd2

        def recording_sqrt_inv_psd2(covs):
            seen.extend(covs)
            return sqrt_inv_psd2(covs)

        monkeypatch.setattr(blp, "sqrt_inv_psd2", recording_sqrt_inv_psd2)
        rng = np.random.default_rng(21)
        h, _ = sample_channels(rng, 3, 3)
        blp.robust_blp(h, 1.3, rng.uniform(0.0, 10.0, size=3), 20.0)
        blp.naive_blp(h, 0.7, 20.0)
        assert len(seen) == 6
        for g in seen:
            assert_symmetric_2x2(g)

    def test_circular_q_is_read_only(self):
        with pytest.raises(ValueError):
            CIRCULAR_Q[0, 1] = 0.1
        np.testing.assert_array_equal(CIRCULAR_Q, 0.5 * np.eye(2))


class TestBoundaryNormals:
    @pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 4, math.pi / 8, math.pi / 16])
    def test_unit_normals_of_the_wedge_boundaries(self, theta):
        n_u, n_l = boundary_normals(theta)
        # the arrays every caller used to build inline
        assert np.array_equal(n_u, np.array([math.sin(theta), -math.cos(theta)]))
        assert np.array_equal(n_l, np.array([math.sin(theta), math.cos(theta)]))
        assert np.linalg.norm(n_u) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(n_l) == pytest.approx(1.0, abs=1e-15)
        # each is orthogonal to its boundary ray arg y = +theta / -theta
        assert n_u @ [math.cos(theta), math.sin(theta)] == pytest.approx(0.0, abs=1e-15)
        assert n_l @ [math.cos(theta), -math.sin(theta)] == pytest.approx(0.0, abs=1e-15)


class TestWedgeExit:
    def test_sampling_oracle(self):
        outcome = run_wedge_suite()
        assert outcome.passed, outcome.detail

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_apex_of_circular_noise(self, d):
        # at the apex, circular noise stays in the 2 pi / D wedge with probability 1 / D
        p = wedge_exit_probability(np.zeros(2), np.eye(2), math.pi / d)
        assert p == pytest.approx(1.0 - 1.0 / d, abs=1e-12)

    def test_bpsk_is_one_half_plane(self):
        # d = 2: P(y1 < 0) for y1 ~ N(mu1, g11)
        g = np.array([[2.0, 0.7], [0.7, 1.0]])
        p = wedge_exit_probability(np.array([1.5, -4.0]), g, math.pi / 2)
        assert p == pytest.approx(0.5 * math.erfc(1.5 / math.sqrt(2.0 * 2.0)), rel=1e-12)

    def test_broadcasts_over_points_and_covariances(self):
        rng = np.random.default_rng(19)
        mu = rng.normal(2.0, 1.0, size=(5, 3, 2))
        m = rng.standard_normal((5, 3, 2, 2))
        cov = m @ np.swapaxes(m, -1, -2) + 0.1 * np.eye(2)
        batch = wedge_exit_probability(mu, cov, math.pi / 8)
        assert batch.shape == (5, 3)
        assert batch[2, 1] == pytest.approx(
            float(wedge_exit_probability(mu[2, 1], cov[2, 1], math.pi / 8)), rel=1e-14
        )
