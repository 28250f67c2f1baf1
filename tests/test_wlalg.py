import math
import warnings

import numpy as np
import pytest

from ncprecode.errors import NotPositiveDefinite
from ncprecode.wlalg import (
    collapse_vec,
    eig2_sym,
    expand_row,
    expand_vec,
    sqrt_inv_psd2,
    symbol_rotation,
)


def sym(a, b, c):
    """Symmetric 2x2 array [[a, b], [b, c]]."""
    return np.array([[a, b], [b, c]], dtype=float)


class TestExpand:
    def test_expand_vec_examples(self):
        np.testing.assert_allclose(expand_vec([1 + 2j]), [1.0, 2.0])
        np.testing.assert_allclose(expand_vec([1j, 0]), [0.0, 0.0, 1.0, 0.0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        np.testing.assert_allclose(collapse_vec(expand_vec(v)), v)

    def test_stacked_rows_are_their_one_row_calls(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
        vbar = expand_vec(v)
        back = collapse_vec(vbar)
        assert vbar.shape == (4, 3, 10) and back.shape == v.shape
        for i in np.ndindex(4, 3):
            assert vbar[i].tobytes() == expand_vec(v[i]).tobytes()
            assert back[i].tobytes() == collapse_vec(vbar[i]).tobytes()
        assert back.tobytes() == v.tobytes()

    @pytest.mark.parametrize("shape", [(5,), (3, 7), (2, 2, 1), (3, 2, 3)])
    def test_odd_last_axis_raises(self, shape):
        # the last axis is the stacked vector's, whatever the total size
        with pytest.raises(ValueError, match="even length"):
            collapse_vec(np.zeros(shape))

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
        lam1, lam2, v = eig2_sym(sym(2.0, 0.0, 1.0))
        assert (lam1, lam2) == (2.0, 1.0)
        np.testing.assert_allclose(v, [1.0, 0.0])

    def test_ones_matrix(self):
        lam1, lam2, v = eig2_sym(sym(1.0, 1.0, 1.0))
        assert lam1 == pytest.approx(2.0)
        assert lam2 == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(v, [1 / math.sqrt(2)] * 2)

    def test_circle_convention(self):
        lam1, lam2, v = eig2_sym(sym(3.0, 0.0, 3.0))
        assert lam1 == lam2 == 3.0
        np.testing.assert_allclose(v, [1.0, 0.0])

    def test_random_eigen_identities(self):
        # characteristic-polynomial oracle: trace/determinant and G v = lam1 v
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b, c = rng.standard_normal(3) * 3
            g = sym(a, b, c)
            lam1, lam2, v = eig2_sym(g)
            assert lam1 >= lam2
            assert lam1 + lam2 == pytest.approx(np.trace(g), rel=1e-10, abs=1e-10)
            assert lam1 * lam2 == pytest.approx(a * c - b * b, rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(g @ v, lam1 * v, atol=1e-10)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert v[0] > 0 or (v[0] == 0 and v[1] > 0)


    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
    def test_huge_entries_give_a_unit_eigenvector(self, scale):
        # the candidates' squared norms would overflow; scaled by a power of
        # two first, the eigenvector stays a unit vector without a warning
        g = scale * sym(1.0, 0.3, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam1, lam2, v = eig2_sym(g)
        ref1, ref2, ref_v = eig2_sym(sym(1.0, 0.3, 0.5))
        assert lam1 == pytest.approx(scale * ref1, rel=1e-14) and lam2 == pytest.approx(scale * ref2, rel=1e-14)
        assert np.hypot(*v) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(v, ref_v, rtol=1e-14)

    @pytest.mark.parametrize("g", [
        sym(1e308, 0.0, 1e308), sym(1.7e308, 1.7e308, 1.7e308), sym(np.inf, 0.0, 1.0), sym(np.inf, 0.0, np.inf),
        sym(np.nan, 0.0, 1.0),
    ])
    def test_overflowing_eigenvalues_are_quiet_and_keep_the_circles_direction(self, g):
        # a noise power near the float limit: lam1 is not finite, no warning
        # is given, and the matrix has the circle's eigenvector, alone or in
        # a stack with an ordinary matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam1, _, v = eig2_sym(g)
            stacked = eig2_sym(np.array([sym(1.0, 0.3, 0.5), g]))
        assert not np.isfinite(lam1) and np.array_equal(v, [1.0, 0.0])
        ordinary = eig2_sym(sym(1.0, 0.3, 0.5))
        assert stacked[0][0] == ordinary[0] and np.array_equal(stacked[2][0], ordinary[2])
        assert np.array_equal(stacked[2][1], [1.0, 0.0])

    def test_a_stack_is_its_items(self):
        # a stack mixing huge and ordinary matrices gives each item the bits
        # of its own call: only the huge ones are scaled
        rng = np.random.default_rng(6)
        g = np.array([sym(*(rng.standard_normal(3) * 10.0 ** rng.uniform(-200, 300))) for _ in range(300)])
        lam1, lam2, v = eig2_sym(g)
        for i, gi in enumerate(g):
            one = eig2_sym(gi)
            assert (lam1[i], lam2[i]) == one[:2] and np.array_equal(v[i], one[2])


class TestWhitener:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_inv_psd2(sym(1, 0, 1)), np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_inv_psd2(sym(4, 0, 1)), np.diag([0.5, 1.0]))

    def test_random_spd_multiply_back(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.standard_normal((2, 2))
            g = m @ m.T + 0.05 * np.eye(2)
            w = sqrt_inv_psd2(g)
            np.testing.assert_allclose(w, w.T, atol=1e-12)
            np.testing.assert_allclose(w @ g @ w.T, np.eye(2), atol=1e-10)

    def test_rejects_semidefinite(self):
        with pytest.raises(NotPositiveDefinite, match="strictly positive definite"):
            sqrt_inv_psd2(sym(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("g", [sym(0.0, 0.0, 0.0), sym(5e-324, 0.0, 0.0), sym(0.0, 0.0, 1e-310)])
    def test_underflowing_matrix_is_too_small_to_whiten(self, g):
        # singular, with every entry zero or subnormal: a noise power below the float range
        with pytest.raises(NotPositiveDefinite, match="too small to whiten"):
            sqrt_inv_psd2(g)

    @pytest.mark.parametrize("g", [
        sym(1e308, 0.0, 1e308), sym(1.7e308, 1.7e308, 1.7e308), sym(np.inf, 0.0, 1.0), sym(np.nan, 0.0, 1.0)
    ])
    def test_matrix_whose_eigenvalues_overflow_is_too_large_to_whiten(self, g):
        # a noise power near the float limit: its eigenvalues are not finite,
        # and eig2_sym computes them without a warning
        with pytest.raises(NotPositiveDefinite, match="too large to whiten"):
            sqrt_inv_psd2(g)

    def test_the_first_failing_matrix_of_a_stack_names_its_failure(self):
        ok, huge, zero = sym(1.0, 0.0, 1.0), sym(1e308, 0.0, 1e308), sym(0.0, 0.0, 0.0)
        with pytest.raises(NotPositiveDefinite, match="too large to whiten"):
            sqrt_inv_psd2(np.array([ok, huge, zero]))
        with pytest.raises(NotPositiveDefinite, match="too small to whiten"):
            sqrt_inv_psd2(np.array([ok, zero, huge]))

    def test_largest_finite_noise_is_whitened(self):
        big = 8e307   # its trace stays finite
        np.testing.assert_allclose(sqrt_inv_psd2(sym(big, 0.0, big)) * np.sqrt(big), np.eye(2))

    def test_smallest_normal_matrix_is_whitened(self):
        tiny = 2.2250738585072014e-308
        np.testing.assert_allclose(sqrt_inv_psd2(sym(tiny, 0.0, tiny)) * np.sqrt(tiny), np.eye(2))

