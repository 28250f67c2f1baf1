"""A chunk's stacked set-up against the one-trial scalar set-up it replaced, bit for bit.

The `_ref_*` functions are frozen copies of the scalar 2x2 builders as they
were before they broadcast over leading axes, and `_RefEngine` is the
scalar set-up and term builder of a trial as `sim._TrialEngine` had them:
each trial from its own set-up stream, every (user) and (user, symbol) item
one call at a time. The stacked path keeps every libm call a per-element
Python call, makes every product a stacked matmul (the same BLAS call per
item) and does only + - * / and sqrt elementwise in numpy, so every
covariance, whitener, precoder, channel pair and bound, and every margin
row and bound of every (trial, user, symbol) term, must have the same bits
(compared as uint64 words), for chunks of 1, 7 and 32 trials. When a step
fails, the run must raise the exception type and message of the first
failing trial and user of a trial-by-trial scalar run. Lemma 2's symbol
chains, built at once, must have the bits of `_ref_sweep_chain`, the
per-symbol build. A chunk draws its trials into one buffer and assembles
them at once: its set-up must call neither `sample_channels` nor
`QSpec.draw`, and those one-trial forms of the same code must still draw
the frozen values.
"""

import cmath
import math
import sys

import numpy as np
import pytest

from ncprecode import sim, slp
from ncprecode.blp import mse_closed_form
from ncprecode.errors import DegenerateEllipse, Infeasible, InfeasibleQ, NotPositiveDefinite, PrecodingError
from ncprecode.noisegeom import (
    boundary_normals,
    chi2_scale,
    effective_cov,
    ellipse_from_cov,
    jammer_model,
    q_from_elements,
    rotated_cov,
    t_from_q,
)
from ncprecode.sim import METHODS, QSpec, Scenario, _stream, sample_channels
from ncprecode.solver import solve_maximin_batch
from ncprecode.wlalg import eig2_sym, expand_row, sqrt_inv_psd2, symbol_rotation


# -- frozen scalar builders ---------------------------------------------------


def _ref_sample_channels(rng, m, k):
    scale = 1.0 / math.sqrt(2.0)
    h = scale * (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)))
    h_j = scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return h, h_j


def _ref_expand_row(h):
    h = np.asarray(h, dtype=complex).ravel()
    return np.vstack([np.concatenate([h.real, -h.imag]), np.concatenate([h.imag, h.real])])


def _ref_symbol_rotation(s):
    s = complex(s)
    return np.array([[s.real, -s.imag], [s.imag, s.real]])


def _ref_eig2_sym(g):
    a, b, c = float(g[0, 0]), float(g[0, 1]), float(g[1, 1])
    half_tr = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    lam1 = half_tr + disc
    lam2 = half_tr - disc
    cand1 = np.array([lam1 - c, b])
    cand2 = np.array([b, lam1 - a])
    v = cand1 if cand1 @ cand1 >= cand2 @ cand2 else cand2
    norm = math.sqrt(float(v @ v))
    if norm == 0.0:
        v = np.array([1.0, 0.0])
    else:
        v = v / norm
        if v[0] < 0.0 or (v[0] == 0.0 and v[1] < 0.0):
            v = -v
    return lam1, lam2, v


def _ref_sqrt_inv_psd2(g):
    lam1, lam2, v = _ref_eig2_sym(g)
    if lam2 <= 0.0:
        if lam1 < sys.float_info.min:
            raise NotPositiveDefinite("the noise covariance is too small to whiten: its entries underflow")
        raise NotPositiveDefinite("matrix must be strictly positive definite")
    vp = np.array([-v[1], v[0]])
    return np.outer(v, v) / math.sqrt(lam1) + np.outer(vp, vp) / math.sqrt(lam2)


def _ref_q_rank_one(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c * c, c * s], [c * s, s * s]])


def _ref_q_from_elements(q11, q12):
    if not ((q11 - 0.5) ** 2 + q12 ** 2 <= 0.25 + 1e-12):
        raise InfeasibleQ(f"(q11, q12) = ({q11}, {q12}) is outside the feasible disk")
    q11, q12 = float(q11), float(q12)
    return np.array([[q11, q12], [q12, 1.0 - q11]])


def _ref_t_from_q(q):
    lam1, lam2, v = _ref_eig2_sym(q)
    if lam2 < -1e-12:
        raise InfeasibleQ("covariance is not positive semidefinite")
    lam1 = max(lam1, 0.0)
    lam2 = max(lam2, 0.0)
    vp = np.array([-v[1], v[0]])
    return math.sqrt(lam1) * np.outer(v, v) + math.sqrt(lam2) * np.outer(vp, vp)


def _ref_effective_cov(h_jk, rho, q, awgn_var):
    hb = _ref_expand_row([h_jk])
    g = rho ** 2 * (hb @ q @ hb.T)
    half = 0.5 * awgn_var
    off = 0.5 * (g[0, 1] + g[1, 0])
    return np.array([[g[0, 0] + half, off], [off, g[1, 1] + half]])


def _ref_rotated_cov(g, s):
    sb = _ref_symbol_rotation(s)
    m = sb.T @ g @ sb
    off = 0.5 * (m[0, 1] + m[1, 0])
    return np.array([[m[0, 0], off], [off, m[1, 1]]])


def _ref_ellipse(g_check, p):
    omega = chi2_scale(p)
    lam1, lam2, v = _ref_eig2_sym(g_check)
    if lam2 < -1e-12:
        raise DegenerateEllipse("covariance has a negative principal variance")
    lam2 = max(lam2, 0.0)
    alpha = math.atan2(v[1], v[0])
    if alpha < 0.0:
        alpha += math.pi
    if alpha >= math.pi:
        alpha -= math.pi
    return lam1, lam2, alpha, omega


def _ref_nc_bounds(cov, s_k, delta0, p, theta):
    cos_t = math.cos(theta)
    lam1, lam2, alpha, omega = _ref_ellipse(_ref_rotated_cov(cov, s_k), p)
    du = math.sqrt(omega * (lam1 * math.sin(alpha - theta) ** 2 + lam2 * math.cos(alpha - theta) ** 2))
    dl = math.sqrt(omega * (lam1 * math.sin(alpha + theta) ** 2 + lam2 * math.cos(alpha + theta) ** 2))
    return np.array([delta0 * cos_t + du, delta0 * cos_t + dl])


def _ref_robust_bounds(h_jk, jammer_power, awgn_var, s_k, delta0, omega, theta, n_div):
    base = delta0 * math.cos(theta)
    hj = complex(h_jk)
    jp = jammer_power * abs(hj) ** 2
    root = math.sqrt(omega)
    half = 0.5 * awgn_var
    out = np.empty((n_div, 2))
    for n in range(1, n_div + 1):
        alpha_check = n * math.pi / n_div + cmath.phase(hj) - cmath.phase(complex(s_k))
        p_u1 = jp * math.sin(alpha_check - theta) ** 2 + half
        p_u2 = jp * math.cos(alpha_check - theta) ** 2 + half
        p_l1 = jp * math.sin(alpha_check + theta) ** 2 + half
        p_l2 = jp * math.cos(alpha_check + theta) ** 2 + half
        out[n - 1] = base + root * math.sqrt(max(p_u1, p_u2)), base + root * math.sqrt(max(p_l1, p_l2))
    return out


def _ref_circular_bounds(sigma2, delta0, omega, theta):
    return np.full(2, delta0 * math.cos(theta) + math.sqrt(omega * 0.5 * sigma2))


def _ref_margin_rows_pair(h_e1, h_e2, s_k, theta):
    s = complex(s_k)
    h_minus = s.real * np.asarray(h_e1) + s.imag * np.asarray(h_e2)
    h_plus = -s.imag * np.asarray(h_e1) + s.real * np.asarray(h_e2)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    return h_minus * sin_t - h_plus * cos_t, h_minus * sin_t + h_plus * cos_t


def _ref_stack_whitened(h, covs):
    first, second = [], []
    for hk, gk in zip(h, covs):
        he = _ref_sqrt_inv_psd2(gk) @ _ref_expand_row(hk)
        first.append(he[0])
        second.append(he[1])
    return np.vstack(first + second)


def _ref_mmse_blp(h_e, p_t):
    two_k, two_m = h_e.shape
    a = 2.0 * (two_k // 2) / p_t
    with np.errstate(over="ignore"):
        gram = h_e.T @ h_e + a * np.eye(two_m)
    if not np.isfinite(gram).all():
        raise PrecodingError(
            "the whitened channel's Gram product overflows: the noise covariance is too small to whiten"
        )
    chol = np.linalg.cholesky(gram)
    eye = np.eye(two_m)
    delta = np.linalg.solve(chol.T, np.linalg.solve(chol, eye))
    hd = h_e @ delta
    power = float(np.sum(hd * hd))
    if power == 0.0:
        raise PrecodingError(f"power budget {p_t!r} is too small: the precoder's power underflows")
    beta = math.sqrt(2.0 * p_t / power)
    return beta * hd.T, beta


def _ref_mse_closed_form(h, covs, p_t):
    k, m = h.shape
    a = 2.0 * k / p_t
    acc = np.zeros((2 * m, 2 * m))
    for hk, gk in zip(h, covs):
        m11, m12, m22 = gk[0, 0], gk[0, 1], gk[1, 1]
        det = m11 * m22 - m12 * m12
        if det <= 0.0:
            raise NotPositiveDefinite("2x2 matrix is singular or indefinite")
        hb = _ref_expand_row(hk)
        acc += hb.T @ np.array([[m22 / det, -m12 / det], [-m12 / det, m11 / det]]) @ hb
    d = np.eye(2 * m) + acc / a
    return k - m + 0.5 * float(np.trace(np.linalg.solve(d, np.eye(2 * m))))


def _ref_draw_q(spec, rng):
    if spec.kind == "elements":
        return _ref_q_from_elements(*spec.args)
    if spec.kind == "rank_one":
        return _ref_q_rank_one(*spec.args)
    if spec.kind == "random_rank_one":
        return _ref_q_rank_one(rng.uniform(0.0, math.pi))
    return np.array([[0.5, 0.0], [0.0, 0.5]])


class _RefEngine:
    """One trial's scalar set-up and (user, symbol) terms, as the engine built them one at a time."""

    channels = staticmethod(_ref_sample_channels)

    def __init__(self, sc, trial):
        self.sc = sc
        k, method, theta = sc.k, sc.method, sc.theta
        rng = _stream(sc.seed, trial, 0)
        h, h_j = self.h, self.h_j = self.channels(rng, sc.m, k)
        q = _ref_draw_q(sc.q_spec, rng)
        t_factor = _ref_t_from_q(q)
        self.mix = (sc.rho * t_factor).T
        self.const = sim.psk_constellation(sc.d)
        covs = self.covs = [_ref_effective_cov(h_j[i], sc.rho, q, sc.awgn_var) for i in range(k)]
        self.whiten = None
        if method in sim._WHITENED_RX:
            self.whiten = np.array([_ref_sqrt_inv_psd2(g) for g in covs])
        self.precoder = self.pairs = None
        if method == "pw_blp":
            self.precoder = _ref_mmse_blp(_ref_stack_whitened(h, covs), sc.p_t)
        elif method in ("robust_blp", "naive_blp"):
            jp = sc.rho2 * np.abs(h_j) ** 2 if method == "robust_blp" else np.zeros(k)
            circ = [np.array([[s, 0.0], [0.0, s]]) for s in 0.5 * (jp + sc.awgn_var)]
            self.precoder = _ref_mmse_blp(_ref_stack_whitened(h, circ), sc.p_t)
        elif method in ("pw_msm", "pw_slp"):
            self.pairs = []
            for i in range(k):
                gamma = math.sqrt(np.trace(covs[i])) / math.sqrt(2.0)
                he = gamma * (_ref_sqrt_inv_psd2(covs[i]) @ _ref_expand_row(h[i]))
                self.pairs.append((he[0], he[1]))
        else:
            self.pairs = [_ref_expand_row(h[i]) for i in range(k)]
        omega = self.omega = chi2_scale(sc.p)
        self.bounds = [None] * k
        if method == "pw_slp":
            self.bounds = [_ref_circular_bounds(np.trace(g), sc.delta0, omega, theta) for g in covs]
        elif method == "naive_slp":
            self.bounds = [
                _ref_circular_bounds(sc.rho2 * abs(complex(h_j[u])) ** 2 + sc.awgn_var, sc.delta0, omega, theta)
                for u in range(k)
            ]

    def term(self, u, i):
        sc, s_k = self.sc, self.const[i]
        if sc.method == "nc_slp":
            bounds = _ref_nc_bounds(self.covs[u], s_k, sc.delta0, sc.p, sc.theta)
        elif sc.method == "robust_slp":
            bounds = _ref_robust_bounds(self.h_j[u], sc.rho2, sc.awgn_var, s_k, sc.delta0, self.omega,
                                        sc.theta, sc.n_div)
        else:
            bounds = self.bounds[u]
        return _ref_margin_rows_pair(*self.pairs[u], s_k, sc.theta), bounds


# -- helpers ------------------------------------------------------------------


def same_bits(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and np.array_equal(got.view(np.uint64), ref.view(np.uint64))


Q_KINDS = {
    "circular": QSpec(),
    "elements": QSpec("elements", (0.3, 0.2)),
    "rank_one": QSpec("rank_one", (0.7,)),
    "random_rank_one": QSpec("random_rank_one"),
}


def scenario(method, d, q, awgn_std=1.0, trials=32):
    return Scenario(
        m=3, k=3, d=d, rho2_db=10.0, awgn_std=awgn_std, p=0.9, trials=trials, block_len=1,
        seed=20240901 + d, method=method, q_spec=Q_KINDS[q], p_t_db=15.0, psi_db=3.0, n_div=4,
    )


def assert_chunk_matches(sc, first, n):
    chunk = sim._TrialEngine(sc, range(first, first + n))
    k, d = sc.k, sc.d
    for pos in range(n):
        ref = _RefEngine(sc, first + pos)
        assert same_bits(chunk.h[pos].view(float), ref.h.view(float))
        assert same_bits(chunk.h_j[pos].view(float), ref.h_j.view(float))
        assert same_bits(chunk.mix[pos], ref.mix)
        assert same_bits(chunk.covs[pos], ref.covs)
        assert (chunk.whiten is None) == (ref.whiten is None)
        if ref.whiten is not None:
            assert same_bits(chunk.whiten[pos], ref.whiten)
        if ref.precoder is not None:
            assert same_bits(chunk.precoder.p[pos], ref.precoder[0])
            assert same_bits(chunk.precoder.beta[pos], ref.precoder[1])
            continue
        assert same_bits(chunk.pairs[pos], np.array([np.vstack(pair) for pair in ref.pairs]))
        if chunk.bounds is not None:
            assert same_bits(chunk.bounds[pos], ref.bounds)
        # every (user, symbol) term of the trial, in one stacked call
        u, i = np.divmod(np.arange(k * d), d)
        rows, bounds = chunk.terms(np.full(k * d, pos), u, i)
        for j in range(k * d):
            ref_rows, ref_bounds = ref.term(u[j], i[j])
            assert same_bits(rows[j], np.vstack(ref_rows))
            assert (bounds is None) == (ref_bounds is None)
            if ref_bounds is not None:
                assert same_bits(bounds[j], ref_bounds)


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("q", sorted(Q_KINDS))
@pytest.mark.parametrize("d", [2, 4, 8, 16])
@pytest.mark.parametrize("method", METHODS)
def test_chunk_of_seven_matches_the_scalar_set_up(method, d, q):
    assert_chunk_matches(scenario(method, d, q), 3, 7)


@pytest.mark.parametrize("n", [1, 32])
@pytest.mark.parametrize("method", METHODS)
def test_chunks_of_one_and_thirty_two(method, n):
    assert_chunk_matches(scenario(method, 4, "random_rank_one"), 5, n)


def _loadable_without_awgn():
    for method in METHODS:
        for q in sorted(Q_KINDS):
            try:
                scenario(method, 8, q, awgn_std=0.0)
            except ValueError:
                continue
            yield method, q


@pytest.mark.parametrize("method, q", list(_loadable_without_awgn()))
def test_zero_awgn_where_loadable(method, q):
    assert_chunk_matches(scenario(method, 8, q, awgn_std=0.0), 0, 7)


@pytest.mark.parametrize("q", sorted(Q_KINDS))
def test_the_one_trial_draws_are_the_frozen_draws(q):
    # sample_channels and QSpec.draw are the one-trial forms of the chunk's
    # assembly code; each must still draw the frozen scalar values
    spec = Q_KINDS[q]
    for trial in range(12):
        rng, ref_rng = _stream(5, trial, 0), _stream(5, trial, 0)
        h, h_j = sample_channels(rng, 3, 2)
        ref_h, ref_h_j = _ref_sample_channels(ref_rng, 3, 2)
        assert same_bits(h.view(float), ref_h.view(float)) and same_bits(h_j.view(float), ref_h_j.view(float))
        assert same_bits(spec.draw(rng), _ref_draw_q(spec, ref_rng))


@pytest.mark.parametrize("q", sorted(Q_KINDS))
def test_a_chunk_is_drawn_without_the_one_trial_forms(monkeypatch, q):
    # the set-up draws every trial into one buffer and assembles the stacks
    # at once: no per-trial channel or covariance call
    def forbidden(*args):
        raise AssertionError(f"a per-trial draw was called with {len(args)} arguments")

    monkeypatch.setattr(sim, "sample_channels", forbidden)
    monkeypatch.setattr(QSpec, "draw", forbidden)
    for method in METHODS:
        assert sim._TrialEngine(scenario(method, 4, q), range(32)).h.shape == (32, 3, 3)


def patch_channels(monkeypatch, change):
    """Apply change(trial, h, h_j) to the channel draws of the engine and of the reference."""
    draw = sim._TrialEngine.draw

    def engine_draw(engine, trials):
        h, h_j, q = draw(engine, trials)
        for trial, h_t, h_j_t in zip(trials, h, h_j):
            change(trial, h_t, h_j_t)
        return h, h_j, q

    def ref_channels(rng, m, k):
        h, h_j = _ref_sample_channels(rng, m, k)
        change(int(rng.bit_generator.state["state"]["key"][1]) >> 32, h, h_j)   # the set-up stream's trial
        return h, h_j

    monkeypatch.setattr(sim._TrialEngine, "draw", engine_draw)
    monkeypatch.setattr(_RefEngine, "channels", staticmethod(ref_channels))


@pytest.mark.parametrize("method", METHODS)
def test_a_zero_jammer_gain(monkeypatch, method):
    # users whose jammer channel is exactly zero: covariances (awgn/2) I
    def zero_jammer_gains(trial, h, h_j):
        h_j[::2] = 0.0

    patch_channels(monkeypatch, zero_jammer_gains)
    assert_chunk_matches(scenario(method, 4, "random_rank_one"), 0, 7)


AXES = np.array([1.0, 1j, -1.0, -1j, complex(-0.0, 1.0), complex(1.0, -0.0)])


def test_primitives_on_axes_and_degenerate_covariances():
    # symbols exactly on the axes, covariances that are zero, scaled
    # identities, rank one, diagonal or huge, and zero jammer gains
    rng = np.random.default_rng(7)
    covs = [np.zeros((2, 2)), 0.5 * np.eye(2), np.diag([2.0, 0.0]), np.array([[1.0, 1.0], [1.0, 1.0]])]
    for _ in range(40):
        m = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 3)
        covs.append(m @ m.T)
    covs = np.array(covs)
    gains = np.concatenate([[0.0, 1.0, -1j, 0.3 - 0.4j, complex(-0.0, 0.0)],
                            rng.standard_normal(8) + 1j * rng.standard_normal(8)])
    theta, p, delta0 = math.pi / 4, 0.9, 0.7
    omega = chi2_scale(p)
    g_st, s_st = np.broadcast_arrays(covs[:, None], AXES[None, :, None, None])
    s_st = s_st[..., 0, 0]
    lam1, lam2, v = eig2_sym(covs)
    rot = rotated_cov(g_st, s_st)
    for c, g in enumerate(covs):
        ref = _ref_eig2_sym(g)
        assert same_bits(lam1[c], ref[0]) and same_bits(lam2[c], ref[1]) and same_bits(v[c], ref[2])
        for a, s in enumerate(AXES):
            assert same_bits(rot[c, a], _ref_rotated_cov(g, s))
    got = slp.nc_bounds(g_st, s_st, delta0, p, theta)
    for c, g in enumerate(covs):
        for a, s in enumerate(AXES):
            assert same_bits(got[c, a], _ref_nc_bounds(g, s, delta0, p, theta))
    h_st, s_st = np.broadcast_arrays(gains[:, None], AXES[None, :])
    got = slp.robust_bounds(h_st, 10.0, 1.0, s_st, delta0, omega, theta, 5)
    naive = slp.naive_bounds(gains, 10.0, 1.0, delta0, omega, theta)
    for j, hj in enumerate(gains):
        assert same_bits(naive[j], _ref_circular_bounds(10.0 * abs(complex(hj)) ** 2 + 1.0, delta0, omega, theta))
        for a, s in enumerate(AXES):
            assert same_bits(got[j, a], _ref_robust_bounds(hj, 10.0, 1.0, s, delta0, omega, theta, 5))
    pairs = expand_row(gains[:, None])
    rows = slp.margin_rows_pair(pairs[:, None, 0], pairs[:, None, 1], AXES[None, :], theta)
    for j, hj in enumerate(gains):
        assert same_bits(pairs[j], _ref_expand_row([hj]))
        for a, s in enumerate(AXES):
            ref = _ref_margin_rows_pair(*_ref_expand_row([hj]), s, theta)
            assert same_bits(rows[0][j, a], ref[0]) and same_bits(rows[1][j, a], ref[1])
    rot = symbol_rotation(AXES)
    for a, s in enumerate(AXES):
        assert same_bits(rot[a], _ref_symbol_rotation(s))
    pd = covs[np.array([_ref_eig2_sym(g)[1] > 0.0 for g in covs])]
    assert same_bits(sqrt_inv_psd2(pd), [_ref_sqrt_inv_psd2(g) for g in pd])
    assert same_bits(ellipse_from_cov(pd, p).alpha, [_ref_ellipse(g, p)[2] for g in pd])


def test_jammer_model_and_effective_cov_broadcast_over_cells():
    qs = [(0.5, 0.0), (0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (0.2, -0.3), (0.9, 0.1)]
    q11, q12 = np.array(qs).T
    jam = jammer_model(3.1, q_from_elements(q11, q12)[:, None])
    gains = np.array([0.0, 0.7 - 0.2j, -1.3j])
    got = effective_cov(gains, jam, 0.4)
    for c, (a, b) in enumerate(qs):
        q = _ref_q_from_elements(a, b)
        assert same_bits(jam.t_factor[c, 0], _ref_t_from_q(q))
        assert same_bits(t_from_q(q), _ref_t_from_q(q))
        for u, hj in enumerate(gains):
            assert same_bits(got[c, u], _ref_effective_cov(hj, 3.1, q, 0.4))


def test_lemma1_cells_match_the_per_cell_mse():
    # _sweep_mse evaluates every cell at once; each cell's MSE has the bits
    # of the per-cell loop
    sc = Scenario(m=3, k=3, d=4, rho2_db=10.0, awgn_std=1.0, p=0.95, trials=1, block_len=1,
                  seed=20240817, method="pw_blp", p_t_db=20.0)
    q11, q12 = sim._grid_axes(21)
    cells = np.argwhere(sim._feasible_mask(q11, q12))
    q11_c, q12_c = q11[cells[:, 0]], q12[cells[:, 1]]
    for draw in range(3):
        h, h_j = _ref_sample_channels(_stream(sc.seed, draw, 0), sc.m, sc.k)
        ref = []
        for a, b in zip(q11_c, q12_c):
            covs = [_ref_effective_cov(hj, sc.rho, _ref_q_from_elements(a, b), sc.awgn_var) for hj in h_j]
            ref.append(_ref_mse_closed_form(h, covs, sc.p_t))
        assert same_bits(sim._sweep_mse(sc, h, h_j, q11_c, q12_c), ref)
        # the one-cell call is the one-item case of the same code
        jam = jammer_model(sc.rho, q_from_elements(0.3, 0.1))
        covs = [_ref_effective_cov(hj, sc.rho, _ref_q_from_elements(0.3, 0.1), sc.awgn_var) for hj in h_j]
        assert same_bits(mse_closed_form(h, effective_cov(h_j, jam, sc.awgn_var), sc.p_t),
                         _ref_mse_closed_form(h, covs, sc.p_t))


def _ref_sweep_chain(sc, h, h_j, q11, q12, s):
    """One symbol draw's rows, Gram matrix, bounds and tolerance, as the lemma-2 sweep builds them."""
    theta = sc.theta
    rows, coeffs = [], []
    for u in range(len(h)):
        rows += _ref_margin_rows_pair(*_ref_expand_row(h[u]), s[u], theta)
        jv = _ref_symbol_rotation(s[u]).T @ _ref_expand_row([h_j[u]])
        for nvec in boundary_normals(theta):
            w = jv.T @ nvec
            coeffs.append((w[1] ** 2, w[0] ** 2 - w[1] ** 2, 2.0 * w[0] * w[1]))
    a = np.vstack(rows)
    const, lin11, lin12 = np.array(coeffs).T
    qf = np.maximum(const[None, :] + q11[:, None] * lin11[None, :] + q12[:, None] * lin12[None, :], 0.0)
    bounds = sc.delta0 * math.cos(theta) + np.sqrt(chi2_scale(sc.p) * (sc.rho * sc.rho * qf + 0.5 * sc.awgn_var))
    return a, a @ a.T, bounds, 1e-9 * max(1.0, float(np.max(bounds)))


@pytest.mark.parametrize("d, k", [(2, 3), (4, 1), (4, 4), (8, 3)])
def test_lemma2_chains_match_the_per_symbol_build(d, k):
    # _sweep_chains builds every symbol draw's chain at once; each chain has
    # the bits of the per-symbol loop, whose squares are libm pows of
    # np.float64 scalars (numpy's array square differs from them in the
    # last bit on some arguments)
    sc = Scenario(m=3, k=k, d=d, rho2_db=10.0, awgn_std=1.0, p=0.8, trials=1, block_len=1,
                  seed=20240817 + d, method="nc_slp", psi_db=3.0)
    q11, q12 = sim._grid_axes(21)
    cells = np.argwhere(sim._feasible_mask(q11, q12))
    q11_c, q12_c = q11[cells[:, 0]], q12[cells[:, 1]]
    for draw in range(10):
        h, h_j = _ref_sample_channels(_stream(sc.seed, draw, 0), sc.m, sc.k)
        rng = _stream(sc.seed, draw, 1)
        symbols = [sim.sample_psk(rng, d, k) for _ in range(50)]
        got = sim._sweep_chains(sc, h, h_j, q11_c, q12_c, symbols)
        for c, s in enumerate(symbols):
            for g, r in zip(got, _ref_sweep_chain(sc, h, h_j, q11_c, q12_c, s)):
                assert same_bits(g[c], r)


def _scalar_outcome(sc):
    """(type, message) of the first failure of a trial-by-trial scalar run, or None."""
    for trial in range(sc.trials):
        try:
            ref = _RefEngine(sc, trial)
            if ref.precoder is not None:
                continue
            idx = _stream(sc.seed, trial, 1).integers(1, sc.d + 1, size=sc.k) - 1
            terms = [ref.term(u, i) for u, i in enumerate(idx)]
            a = np.array([[row for rows, _ in terms for row in rows]])
            if sc.method in sim.MSM_METHODS:
                solve_maximin_batch(a, sc.p_t)
            else:
                b = np.concatenate([bounds for _, bounds in terms], axis=-1)
                slp.solve_min_power(a, b.reshape(1, -1, b.shape[-1]))
        except Exception as exc:
            return type(exc), str(exc)
    return None


def _outcome(sc):
    try:
        sim.per_trial_metrics(sc)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("method, zero, clash, expected", [
    ("pw_blp", (2, 1), None, NotPositiveDefinite),
    ("pw_blp", (5, 2), (1, 2), NotPositiveDefinite),
    ("pw_msm", (6, 0), (6, 1), NotPositiveDefinite),
    ("pw_slp", (5, 2), (1, 1), Infeasible),
    ("pw_slp", (2, 1), (4, 1), NotPositiveDefinite),
    ("pw_slp", (6, 2), (6, 1), NotPositiveDefinite),
])
def test_the_first_failing_trial_and_user_raises_its_own_failure(monkeypatch, method, zero, clash, expected):
    # Without AWGN a user whose jammer gain is zero has a zero covariance,
    # which cannot be whitened, so that trial's set-up fails; a user who
    # shares user 0's channel row cannot put one received point in two
    # symbols' sectors, so that trial's SLP QP fails. The chunked run must
    # raise the failure of the first failing trial and user, for chunks of
    # one trial, of three and of all eight.
    def broken(trial, h, h_j):
        if trial == zero[0]:
            h_j[zero[1]] = 0.0
        if clash is not None and trial == clash[0]:
            h[clash[1]] = h[0]

    patch_channels(monkeypatch, broken)
    sc = Scenario(m=3, k=3, d=4, rho2_db=10.0, awgn_std=0.0, p=0.9, trials=8, block_len=1,
                  seed=99, method=method, p_t_db=15.0, psi_db=3.0)
    want = _scalar_outcome(sc)
    assert want is not None and want[0] is expected
    for chunk_slots in (1, 3, 512):
        monkeypatch.setattr(sim, "CHUNK_SLOTS", chunk_slots)
        assert _outcome(sc) == want
