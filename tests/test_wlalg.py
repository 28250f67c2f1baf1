import math

import numpy as np
import pytest

from ncprecode.errors import NotPositiveDefinite
from ncprecode.wlalg import (
    SymMat2,
    collapse_vec,
    eig2_sym,
    expand_row,
    expand_vec,
    sqrt_inv_psd2,
    symbol_rotation,
)


class TestExpand:
    def test_expand_vec_examples(self):
        np.testing.assert_allclose(expand_vec([1 + 2j]), [1.0, 2.0])
        np.testing.assert_allclose(expand_vec([1j, 0]), [0.0, 0.0, 1.0, 0.0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        np.testing.assert_allclose(collapse_vec(expand_vec(v)), v)

    def test_expand_row_examples(self):
        np.testing.assert_allclose(expand_row([1.0]), [[1, 0], [0, 1]])
        np.testing.assert_allclose(expand_row([1j]), [[0, -1], [1, 0]])

    def test_block_multiply_identity(self):
        # expand_row(h) @ expand_vec(x) reproduces the complex product h @ x
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = int(rng.integers(1, 6))
            h = rng.standard_normal(t) + 1j * rng.standard_normal(t)
            x = rng.standard_normal(t) + 1j * rng.standard_normal(t)
            hx = h @ x
            got = expand_row(h) @ expand_vec(x)
            np.testing.assert_allclose(got, [hx.real, hx.imag], atol=1e-12)


class TestRotations:
    def test_symbol_rotation(self):
        np.testing.assert_allclose(symbol_rotation(1.0), np.eye(2))
        s = np.exp(1j * math.pi / 4)
        r = math.sqrt(2) / 2
        np.testing.assert_allclose(symbol_rotation(s), [[r, -r], [r, r]], atol=1e-15)
        rng = np.random.default_rng(3)
        for phase in rng.uniform(0, 2 * math.pi, size=20):
            sb = symbol_rotation(np.exp(1j * phase))
            np.testing.assert_allclose(sb.T @ sb, np.eye(2), atol=1e-14)

    def test_symbol_rotation_rejects_nonunit(self):
        with pytest.raises(ValueError):
            symbol_rotation(1.5)


class TestEig2:
    def test_diagonal(self):
        lam1, lam2, v = eig2_sym(SymMat2(2.0, 0.0, 1.0))
        assert (lam1, lam2) == (2.0, 1.0)
        np.testing.assert_allclose(v, [1.0, 0.0])

    def test_ones_matrix(self):
        lam1, lam2, v = eig2_sym(SymMat2(1.0, 1.0, 1.0))
        assert lam1 == pytest.approx(2.0)
        assert lam2 == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(v, [1 / math.sqrt(2)] * 2)

    def test_circle_convention(self):
        lam1, lam2, v = eig2_sym(SymMat2(3.0, 0.0, 3.0))
        assert lam1 == lam2 == 3.0
        np.testing.assert_allclose(v, [1.0, 0.0])

    def test_random_eigen_identities(self):
        # characteristic-polynomial oracle: trace/determinant and G v = lam1 v
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b, c = rng.standard_normal(3) * 3
            g = SymMat2(a, b, c)
            lam1, lam2, v = eig2_sym(g)
            assert lam1 >= lam2
            assert lam1 + lam2 == pytest.approx(g.trace(), rel=1e-10, abs=1e-10)
            assert lam1 * lam2 == pytest.approx(g.det(), rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(g.as_array() @ v, lam1 * v, atol=1e-10)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert v[0] > 0 or (v[0] == 0 and v[1] > 0)


class TestWhitener:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_inv_psd2(SymMat2(1, 0, 1)), np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_inv_psd2(SymMat2(4, 0, 1)), np.diag([0.5, 1.0]))

    def test_random_spd_multiply_back(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.standard_normal((2, 2))
            g_arr = m @ m.T + 0.05 * np.eye(2)
            g = SymMat2.from_array(g_arr)
            w = sqrt_inv_psd2(g)
            np.testing.assert_allclose(w, w.T, atol=1e-12)
            np.testing.assert_allclose(w @ g_arr @ w.T, np.eye(2), atol=1e-10)

    def test_rejects_semidefinite(self):
        with pytest.raises(NotPositiveDefinite, match="strictly positive definite"):
            sqrt_inv_psd2(SymMat2(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("g", [SymMat2(0.0, 0.0, 0.0), SymMat2(5e-324, 0.0, 0.0), SymMat2(0.0, 0.0, 1e-310)])
    def test_underflowing_matrix_is_too_small_to_whiten(self, g):
        # singular, with every entry zero or subnormal: a noise power below the float range
        with pytest.raises(NotPositiveDefinite, match="too small to whiten"):
            sqrt_inv_psd2(g)

    def test_smallest_normal_matrix_is_whitened(self):
        tiny = 2.2250738585072014e-308
        np.testing.assert_allclose(sqrt_inv_psd2(SymMat2(tiny, 0.0, tiny)) * np.sqrt(tiny), np.eye(2))


class TestSymMat2:
    def test_from_array_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMat2.from_array([[1.0, 0.5], [0.2, 1.0]])

    def test_inv(self):
        g = SymMat2(2.0, 0.3, 1.0)
        np.testing.assert_allclose(
            g.inv().as_array() @ g.as_array(), np.eye(2), atol=1e-12
        )

    def test_inv_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            SymMat2(1.0, 2.0, 1.0).inv()
