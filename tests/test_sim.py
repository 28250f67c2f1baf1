import dataclasses
import math
import warnings

import numpy as np
import pytest

from ncprecode import sim, slp, solver
from ncprecode.errors import Infeasible
from ncprecode.noisegeom import chi2_scale, effective_cov, jammer_model, q_from_elements
from ncprecode.oracles import min_norm_by_enumeration
from ncprecode.sim import (
    QSpec,
    Scenario,
    _TrialEngine,
    _design,
    _raw_indices,
    _std_err,
    _stream,
    energy_efficiency,
    margin_from_psi,
    psk_constellation,
    psk_detect,
    run_montecarlo,
    sample_channels,
    sample_psk,
    sweep_q_grid,
    per_trial_metrics,
    _summarize,
)
from ncprecode import cli
from ncprecode.solver import QpProblem, validate_solution
from ncprecode.wlalg import expand_row, sqrt_inv_psd2, symbol_rotation


def _engine(seed):
    """A one-trial engine keyed by seed, whose generator a test re-keys."""
    return _TrialEngine(small_scenario("msm", p_t_db=10.0, seed=seed, trials=1, block_len=1), range(1))


class TestSampling:
    def test_channel_statistics(self):
        rng = np.random.default_rng(81)
        h, h_j = sample_channels(rng, 100, 2500)
        flat = h.ravel()
        assert np.mean(np.abs(flat) ** 2) == pytest.approx(1.0, rel=0.01)
        assert abs(np.mean(flat)) < 4.0 / math.sqrt(len(flat))
        # independence between entries
        corr = np.mean(flat[:-1] * np.conj(flat[1:]))
        assert abs(corr) < 4.0 / math.sqrt(len(flat))

    def test_psk_phases(self):
        sym = psk_constellation(4)
        np.testing.assert_allclose(
            np.angle(sym), [math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4, -math.pi / 4]
        )
        np.testing.assert_allclose(np.abs(sym), 1.0)

    def test_psk_uniformity(self):
        rng = np.random.default_rng(82)
        s = sample_psk(rng, 8, 1_000_000)
        phases = np.angle(s)
        _, counts = np.unique(np.round(phases, 9), return_counts=True)
        assert len(counts) == 8
        # chi-square test at a generous threshold
        expected = len(s) / 8
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 40.0

    @pytest.mark.parametrize("seed, trial, slot", [(12345, 0, 1), (2**64 - 1, 2**32 - 1, 2**32 - 1), (7, 3, 511)])
    def test_rekey_restarts_the_slot_stream(self, seed, trial, slot):
        # one engine's state template serves every stream it re-keys to:
        # after other streams' draws, only the key it sets may differ
        engine = _engine(seed)
        rng = engine.rng
        for other in ((trial + 1, slot), (trial, slot ^ 1), (trial, slot)):
            engine.rekey(*other)
            rng.standard_normal(3)
            rng.integers(0, 7, size=3, dtype=np.uint32)   # odd count of 32-bit draws
            state = rng.bit_generator.state
            assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        engine.rekey(trial, slot)
        fresh = _stream(seed, trial, slot)
        got, want = rng.bit_generator.state, fresh.bit_generator.state
        assert got.keys() == want.keys() and got["has_uint32"] == 0
        for name in ("counter", "key"):
            assert np.array_equal(got["state"][name], want["state"][name])
        for name in ("buffer", "buffer_pos", "has_uint32", "uinteger"):
            assert np.array_equal(got[name], want[name])
        for draw in (
            lambda g: g.integers(1, 5, size=4),
            lambda g: g.integers(0, 9, size=3, dtype=np.uint32),
            lambda g: g.standard_normal(2),
            lambda g: g.standard_normal((4, 2)),
        ):
            assert np.array_equal(draw(rng), draw(fresh))

    @pytest.mark.parametrize("seed, trial, slot", [(12345, 0, 1), (2**64 - 1, 2**32 - 1, 2**32 - 1), (7, 3, 511)])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_raw_bits_draw_is_the_integers_draw(self, seed, trial, slot, d):
        # The engine draws a slot's indices as raw bits, then its jammer and
        # AWGN normals in one call; this binds both to Generator.integers and
        # the two normal draws after it, for odd and even k (an odd k leaves
        # half of a 64-bit word unused).
        engines = [_engine(seed) for _ in range(3)]
        raw_rng, one_rng, int_rng = (e.rng for e in engines)
        for k in range(1, 7):
            for s in range(slot, slot + 20):
                for engine in engines:
                    engine.rekey(trial, s & (2**32 - 1))
                expected = int_rng.integers(1, d + 1, size=k)
                for g in (raw_rng, one_rng):
                    raw = g.bit_generator.random_raw((k + 1) // 2)
                    assert np.array_equal(_raw_indices(raw[None], d, k)[0], expected)
                normals = [int_rng.standard_normal(2), int_rng.standard_normal((k, 2))]
                assert np.array_equal(raw_rng.standard_normal(2), normals[0])
                assert np.array_equal(raw_rng.standard_normal((k, 2)), normals[1])
                one = np.empty(2 + 2 * k)
                one_rng.standard_normal(out=one)
                assert np.array_equal(one, np.concatenate([normals[0], normals[1].ravel()]))


class TestDetection:
    def test_examples(self):
        assert psk_detect(1 + 0.1j, 4) == 1
        assert psk_detect(1j, 4) == 1  # boundary: lower sector index wins
        assert psk_detect(0, 4) == 1
        assert psk_detect(-1 + 0.1j, 4) == 2
        assert psk_detect(1 - 0.1j, 4) == 4

    def test_bpsk_sectors(self):
        assert psk_detect(1j, 2) == 1
        assert psk_detect(-1j, 2) == 2

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(83)
        for d in (2, 4, 8, 16):
            const = psk_constellation(d)
            for _ in range(300):
                y = complex(rng.standard_normal(), rng.standard_normal())
                got = psk_detect(y, d)
                dist = np.abs(np.angle(y * np.conj(const)))
                assert got == int(np.argmin(dist)) + 1


class TestMarginFromPsi:
    def test_zero(self):
        assert margin_from_psi(-300.0, math.pi / 4, 10.0, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_unit_case(self):
        assert margin_from_psi(0.0, math.pi / 4, 1.0, 1.0) == pytest.approx(1.0)

    def test_round_trip(self):
        theta = math.pi / 8
        rho2, sigma2 = 10.0, 1.5
        delta = margin_from_psi(7.0, theta, rho2, sigma2)
        psi = delta ** 2 / (math.sin(theta) ** 2 * (rho2 + sigma2))
        assert 10 * math.log10(psi) == pytest.approx(7.0, rel=1e-12)


class TestEnergyEfficiency:
    def test_no_errors(self):
        assert energy_efficiency(0.0, 2, 4, 10.0) == pytest.approx(0.8)

    def test_all_blocks_fail(self):
        assert energy_efficiency(1.0, 2, 4, 10.0) == 0.0

    def test_zero_power(self):
        assert energy_efficiency(0.0, 2, 4, 0.0) == 0.0


def small_scenario(method, **kw):
    base = dict(
        m=2, k=2, d=2, rho2_db=10.0, awgn_std=1.0, p=0.9, trials=10,
        block_len=20, seed=321, method=method, q_spec=QSpec("random_rank_one"),
    )
    base.update(kw)
    return Scenario(**base)


class TestRunMonteCarlo:
    def test_thread_count_invariance(self):
        sc = small_scenario("nc_slp", psi_db=5.0)
        r1 = run_montecarlo(sc, threads=1)
        r4 = run_montecarlo(sc, threads=4)
        assert r1 == r4

    def test_no_jammer_nc_equals_naive(self):
        kw = dict(rho2_db=-300.0, psi_db=5.0, q_spec=QSpec("circular"))
        r_nc = run_montecarlo(small_scenario("nc_slp", **kw))
        r_naive = run_montecarlo(small_scenario("naive_slp", **kw))
        assert r_nc == r_naive

    def test_method_validation(self):
        with pytest.raises(ValueError):
            small_scenario("msm")  # needs a power budget
        with pytest.raises(ValueError):
            small_scenario("nc_slp")  # needs psi_db

    def test_reference_walkthrough_nc_slp(self):
        # step-by-step scalar re-implementation with independent numerics:
        # margins from the support function, QP by subset enumeration,
        # detection by nearest constellation angle
        sc = small_scenario("nc_slp", psi_db=5.0)
        rec = run_montecarlo(sc)
        ref_err = reference_error_counts_nc(sc)
        got = np.array(rec.ser_per_user) * sc.trials * sc.block_len
        np.testing.assert_allclose(got, ref_err, atol=1e-9)

    def test_reference_walkthrough_naive_blp(self):
        sc = small_scenario("naive_blp", p_t_db=13.0)
        rec = run_montecarlo(sc)
        ref_err = reference_error_counts_blp(sc)
        got = np.array(rec.ser_per_user) * sc.trials * sc.block_len
        np.testing.assert_allclose(got, ref_err, atol=1e-9)

    def test_pw_msm_converges_to_msm_in_awgn(self):
        kw = dict(m=3, k=3, awgn_std=40.0, p_t_db=30.0, trials=20, block_len=40,
                  d=4, q_spec=QSpec("rank_one", (0.6,)))
        r_pw = run_montecarlo(small_scenario("pw_msm", **kw))
        r_msm = run_montecarlo(small_scenario("msm", **kw))
        assert r_pw.ber == pytest.approx(r_msm.ber, rel=0.1)

    def test_ser_nonincreasing_in_margin_target(self):
        # paired seeds: raising the preset margin never raises the SER
        kw = dict(m=3, k=3, d=4, awgn_std=1.0, trials=15, block_len=40,
                  q_spec=QSpec("random_rank_one"))
        prev = math.inf
        for psi_db in (0.0, 6.0, 12.0):
            rec = run_montecarlo(small_scenario("nc_slp", psi_db=psi_db, **kw))
            assert rec.worst_user_ser <= prev + 1e-12
            prev = rec.worst_user_ser


def noisy_scenario(method, **kw):
    """Small QPSK scenario with frequent symbol errors."""
    base = dict(m=3, k=3, d=4, p=0.5, trials=30, block_len=40, seed=7)
    base.update(kw)
    return small_scenario(method, **base)


NOISY_CONFIG = """
[scenario]
m = 3
k = 3
d = 4
rho2_db = 10.0
q = random_rank_one
awgn_std = 1.0
p = 0.5
psi_db = 0.0
trials = 6
block_len = 10
seed = 7
method = nc_slp

[sweep]
method = nc_slp, pw_slp
"""


class TestNoiseIntegratedSer:
    @pytest.mark.parametrize("method", ["nc_slp", "pw_slp"])
    def test_agrees_with_counted_ser(self, method):
        # the integrated SER is the counted SER's conditional mean given the
        # transmitted points, so their paired per-user difference is centred
        series = per_trial_metrics(noisy_scenario(method, psi_db=0.0), noise_integrated=True)
        counted = series.ser_per_user
        assert counted.mean() > 0.02
        diff = counted - series.ser_integrated_per_user
        se = diff.std(axis=0, ddof=1) / math.sqrt(diff.shape[0])
        assert np.all(np.abs(diff.mean(axis=0)) <= 3.0 * se), (diff.mean(axis=0), se)
        np.testing.assert_array_equal(
            series.worst_user_ser_integrated, series.ser_integrated_per_user.max(axis=1)
        )

    def test_off_by_default(self):
        series = per_trial_metrics(noisy_scenario("nc_slp", psi_db=0.0, trials=2))
        assert series.ser_integrated_per_user is None
        assert series.worst_user_ser_integrated is None

    def test_counted_outputs_unchanged(self, tmp_path):
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text(NOISY_CONFIG)
        out = tmp_path / "cli.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        base, sweep, _ = cli.load_config(str(cfg))
        rows = []
        for sc in cli.expand_sweep(base, sweep):
            on = per_trial_metrics(sc, noise_integrated=True)
            rec = _summarize(sc, on)
            assert repr(rec) == repr(run_montecarlo(sc))
            rows.append(cli._row_dict(sc, rec))
        rebuilt = tmp_path / "rebuilt.csv"
        cli._write_rows(rows, str(rebuilt), "csv")
        assert rebuilt.read_bytes() == out.read_bytes()

    def test_thread_count_invariance(self):
        sc = noisy_scenario("pw_slp", psi_db=0.0, trials=6)
        one = per_trial_metrics(sc, threads=1, noise_integrated=True)
        two = per_trial_metrics(sc, threads=2, noise_integrated=True)
        np.testing.assert_array_equal(one.ser_integrated_per_user, two.ser_integrated_per_user)
        np.testing.assert_array_equal(one.ser_per_user, two.ser_per_user)


def _nearest_psk(y, d):
    const = psk_constellation(d)
    return int(np.argmin(np.abs(np.angle(y * np.conj(const))))) + 1


def _draws_for_trial(sc, trial):
    rng = _stream(sc.seed, trial, 0)
    scale = 1 / math.sqrt(2)
    h = scale * (rng.standard_normal((sc.k, sc.m)) + 1j * rng.standard_normal((sc.k, sc.m)))
    h_j = scale * (rng.standard_normal(sc.k) + 1j * rng.standard_normal(sc.k))
    q = sc.q_spec.draw(rng)
    return h, h_j, q


def reference_error_counts_nc(sc):
    rho = math.sqrt(10 ** (sc.rho2_db / 10))
    awgn_var = sc.awgn_std ** 2
    theta = math.pi / sc.d
    omega = chi2_scale(sc.p)
    delta0 = margin_from_psi(sc.psi_db, theta, rho * rho, awgn_var)
    errors = np.zeros(sc.k)
    for trial in range(sc.trials):
        h, h_j, q = _draws_for_trial(sc, trial)
        t_fac = _sym_sqrt(q)
        for slot in range(1, sc.block_len + 1):
            rng_s = _stream(sc.seed, trial, slot)
            idx = rng_s.integers(1, sc.d + 1, size=sc.k)
            s = psk_constellation(sc.d)[idx - 1]
            rows, bounds = [], []
            for u in range(sc.k):
                sh = np.conj(s[u]) * h[u]
                h1 = np.concatenate([sh.real, -sh.imag])
                h2 = np.concatenate([sh.imag, sh.real])
                rows.append(h1 * math.sin(theta) - h2 * math.cos(theta))
                rows.append(h1 * math.sin(theta) + h2 * math.cos(theta))
                hb = expand_row([h_j[u]])
                g = rho ** 2 * hb @ q @ hb.T + 0.5 * awgn_var * np.eye(2)
                gch = symbol_rotation(s[u]).T @ g @ symbol_rotation(s[u])
                for nvec in (
                    np.array([math.sin(theta), -math.cos(theta)]),
                    np.array([math.sin(theta), math.cos(theta)]),
                ):
                    bounds.append(delta0 * math.cos(theta) + math.sqrt(omega * nvec @ gch @ nvec))
            xb = min_norm_by_enumeration(np.vstack(rows), np.array(bounds))
            x = xb[: sc.m] + 1j * xb[sc.m :]
            zv = rng_s.standard_normal(2) @ (rho * t_fac).T
            z = complex(zv[0], zv[1])
            nv = math.sqrt(awgn_var / 2) * rng_s.standard_normal((sc.k, 2))
            for u in range(sc.k):
                y = h[u] @ x + h_j[u] * z + complex(nv[u, 0], nv[u, 1])
                if _nearest_psk(y, sc.d) != idx[u]:
                    errors[u] += 1
    return errors


def reference_error_counts_blp(sc):
    p_t = 10 ** (sc.p_t_db / 10)
    awgn_var = sc.awgn_std ** 2
    rho = math.sqrt(10 ** (sc.rho2_db / 10))
    errors = np.zeros(sc.k)
    for trial in range(sc.trials):
        h, h_j, q = _draws_for_trial(sc, trial)
        t_fac = _sym_sqrt(q)
        # whiten by the AWGN-only covariance and build the MMSE precoder
        rows1, rows2 = [], []
        w = np.eye(2) / math.sqrt(awgn_var / 2)
        for u in range(sc.k):
            he = w @ expand_row(h[u])
            rows1.append(he[0])
            rows2.append(he[1])
        h_e = np.vstack(rows1 + rows2)
        a = 2 * sc.k / p_t
        delta = np.linalg.inv(h_e.T @ h_e + a * np.eye(2 * sc.m))
        beta = math.sqrt(2 * p_t / np.trace(delta @ h_e.T @ h_e @ delta))
        p_mat = beta * delta @ h_e.T
        for slot in range(1, sc.block_len + 1):
            rng_s = _stream(sc.seed, trial, slot)
            idx = rng_s.integers(1, sc.d + 1, size=sc.k)
            s = psk_constellation(sc.d)[idx - 1]
            sbar = np.concatenate([s.real, s.imag])
            xb = p_mat @ sbar
            x = xb[: sc.m] + 1j * xb[sc.m :]
            zv = rng_s.standard_normal(2) @ (rho * t_fac).T
            z = complex(zv[0], zv[1])
            nv = math.sqrt(awgn_var / 2) * rng_s.standard_normal((sc.k, 2))
            for u in range(sc.k):
                y = h[u] @ x + h_j[u] * z + complex(nv[u, 0], nv[u, 1])
                if _nearest_psk(y, sc.d) != idx[u]:
                    errors[u] += 1
    return errors


def _sym_sqrt(m):
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


class TestSweep:
    def test_blp_mode_center(self):
        sc = Scenario(
            m=3, k=3, d=4, rho2_db=10.0, awgn_std=1.0, p=0.95, trials=1,
            block_len=1, seed=5, method="pw_blp", p_t_db=20.0,
        )
        res = sweep_q_grid(sc, grid_n=21, n_symbols=50)
        assert res.mode == "mse"
        assert abs(res.argmax_q[0] - 0.5) <= 0.05 + 1e-9
        assert abs(res.argmax_q[1]) <= 0.05 + 1e-9
        assert not res.argmax_on_boundary

    def test_power_mode_matches_public_op(self):
        from ncprecode.sim import sample_psk as _sp
        from ncprecode.slp import nc_slp

        sc = Scenario(
            m=2, k=2, d=4, rho2_db=10.0, awgn_std=1.0, p=0.9, trials=1,
            block_len=1, seed=5, method="nc_slp", psi_db=6.0,
        )
        res = sweep_q_grid(sc, grid_n=11, n_symbols=4)
        rng = _stream(sc.seed, 0, 0)
        h, h_j = sample_channels(rng, sc.m, sc.k)
        rng_s = _stream(sc.seed, 0, 1)
        symbols = [_sp(rng_s, sc.d, sc.k) for _ in range(4)]
        for i, j in [(5, 5), (0, 5), (8, 2)]:
            if not res.feasible[i, j]:
                continue
            jam = jammer_model(sc.rho, q_from_elements(res.q11[i], res.q12[j]))
            avg = np.mean(
                [
                    nc_slp(h, h_j, jam, sc.awgn_var, s, sc.delta0, sc.p, sc.theta).power
                    for s in symbols
                ]
            )
            assert res.values[i, j] == pytest.approx(avg, rel=1e-9)

    def test_coarse_grid_rejected(self):
        sc = Scenario(
            m=2, k=2, d=4, rho2_db=10.0, awgn_std=1.0, p=0.9, trials=1,
            block_len=1, seed=5, method="pw_blp", p_t_db=10.0,
        )
        with pytest.raises(ValueError, match="grid resolution must be at least 5"):
            sweep_q_grid(sc, grid_n=4, n_symbols=50)

    def test_boundary_mask_consistency(self):
        sc = Scenario(
            m=2, k=2, d=4, rho2_db=10.0, awgn_std=1.0, p=0.9, trials=1,
            block_len=1, seed=5, method="pw_blp", p_t_db=10.0,
        )
        res = sweep_q_grid(sc, grid_n=11, n_symbols=50)
        # every boundary cell is feasible and has an infeasible 4-neighbour
        idx = np.argwhere(res.boundary)
        assert len(idx) > 0
        for i, j in idx:
            assert res.feasible[i, j]
        # the four extreme feasible points are boundary cells
        assert res.boundary[0, 5]   # q11 = 0
        assert res.boundary[10, 5]  # q11 = 1
        assert res.boundary[5, 0]   # q12 = -1/2
        assert res.boundary[5, 10]  # q12 = +1/2


QP_METHODS = ("msm", "pw_msm", "pw_slp", "nc_slp", "naive_slp", "robust_slp")


def reuse_scenario(method):
    # d^K = 16 distinct symbol vectors, so a 48-slot block repeats them
    return Scenario(
        m=2, k=2, d=4, rho2_db=10.0, awgn_std=1.0, p=0.8, trials=2, block_len=48,
        seed=4242, method=method, q_spec=QSpec("random_rank_one"), p_t_db=12.0,
        psi_db=6.0, n_div=8,
    )


def slot_indices(sc, trial):
    return [
        _stream(sc.seed, trial, slot).integers(1, sc.d + 1, size=sc.k)
        for slot in range(1, sc.block_len + 1)
    ]


def per_slot_reference(sc):
    """Per-trial (power, symbol errors, bit errors) with one public precoder call per slot."""
    k, d, theta = sc.k, sc.d, sc.theta
    const = psk_constellation(d)
    gray = [i ^ (i >> 1) for i in range(d)]
    powers, sym, bits = [], [], []
    for trial in range(sc.trials):
        rng = _stream(sc.seed, trial, 0)
        h, h_j = sample_channels(rng, sc.m, k)
        jam = jammer_model(sc.rho, sc.q_spec.draw(rng))
        covs = [effective_cov(hj, jam, sc.awgn_var) for hj in h_j]
        sigma2 = np.array([np.trace(g) for g in covs])
        eff = [slp.whitened_effective_channel(h[u], covs[u], sqrt_inv_psd2(covs[u])) for u in range(k)]
        plain = [tuple(expand_row(h[u])) for u in range(k)]
        pw_targets = sc.delta0 * math.cos(theta) + np.sqrt(chi2_scale(sc.p) * sigma2 / 2.0)
        whiten = sc.method in ("pw_msm", "pw_slp")
        power = 0.0
        err = np.zeros(k, dtype=np.int64)
        bit = np.zeros(k, dtype=np.int64)
        for slot in range(1, sc.block_len + 1):
            rng_s = _stream(sc.seed, trial, slot)
            idx = rng_s.integers(1, d + 1, size=k)
            s = const[idx - 1]
            if sc.method == "msm":
                xb = slp.pw_slp_msm(plain, s, sc.p_t, theta)[0].x
            elif sc.method == "pw_msm":
                xb = slp.pw_slp_msm(eff, s, sc.p_t, theta)[0].x
            elif sc.method == "pw_slp":
                xb = slp.pw_slp_minpower(eff, s, pw_targets, theta).x
            elif sc.method == "nc_slp":
                xb = slp.nc_slp(h, h_j, jam, sc.awgn_var, s, sc.delta0, sc.p, theta).x
            elif sc.method == "naive_slp":
                xb = slp.naive_slp(h, h_j, sc.rho2, sc.awgn_var, s, sc.delta0, sc.p, theta).x
            else:
                xb = slp.robust_slp(
                    h, h_j, sc.rho2, sc.awgn_var, s, sc.delta0, sc.p, theta, sc.n_div
                ).x
            x = xb[: sc.m] + 1j * xb[sc.m :]
            power += float(np.real(x @ np.conj(x)))
            zv = rng_s.standard_normal(2) @ (sc.rho * jam.t_factor).T
            nv = math.sqrt(0.5 * sc.awgn_var) * rng_s.standard_normal((k, 2))
            y = h @ x + h_j * complex(zv[0], zv[1]) + (nv[:, 0] + 1j * nv[:, 1])
            for u in range(k):
                yu = y[u]
                if whiten:
                    zw = sqrt_inv_psd2(covs[u]) @ np.array([yu.real, yu.imag])
                    yu = complex(zw[0], zw[1])
                det = psk_detect(yu, d)
                if det != idx[u]:
                    err[u] += 1
                    bit[u] += bin(gray[idx[u] - 1] ^ gray[det - 1]).count("1")
        powers.append(power / sc.block_len)
        sym.append(err)
        bits.append(bit)
    return np.array(powers), np.vstack(sym), np.vstack(bits)


class TestSlotReuse:
    """Work reused across the slots of a trial gives exactly the per-slot results."""

    def test_block_repeats_symbol_vectors(self):
        sc = reuse_scenario("nc_slp")
        for trial in range(sc.trials):
            distinct = {tuple(idx) for idx in slot_indices(sc, trial)}
            assert len(distinct) < sc.block_len

    @pytest.mark.parametrize("method", QP_METHODS)
    def test_matches_per_slot_public_calls(self, method):
        sc = reuse_scenario(method)
        power, sym, bits = per_slot_reference(sc)
        series = per_trial_metrics(sc)
        t_len, k = sc.block_len, sc.k
        assert np.array_equal(series.avg_tx_power, power)
        assert np.array_equal(series.ser_per_user, sym / t_len)
        assert np.array_equal(series.ber, bits.sum(axis=1) / (k * t_len * sc.c_bits))
        two = per_trial_metrics(sc, threads=2)
        for name in ("ser_per_user", "worst_user_ser", "ber", "bler", "avg_tx_power"):
            assert np.array_equal(getattr(two, name), getattr(series, name))

    @pytest.mark.parametrize("method, solves_per_vector", [("nc_slp", 1), ("robust_slp", 8)])
    def test_one_solve_per_distinct_vector_and_lazy_terms(self, monkeypatch, method, solves_per_vector):
        # "solve" counts the problems given to the batched QP entry point:
        # one per distinct vector and jammer-covariance orientation; "terms"
        # counts the (trial, user, symbol) items given to the stacked
        # margin-row builder.
        sc = reuse_scenario(method)
        calls = {"solve": 0, "terms": 0}

        def counted(name, fn, count=lambda *args: 1):
            def wrapper(*args, **kwargs):
                calls[name] += count(*args)
                return fn(*args, **kwargs)
            return wrapper

        batch = slp.solve_min_norm_batch

        def solve(a, b, owner):
            out = batch(a, b, owner)
            assert len(out.x) == len(out.objective) == len(b)   # one stacked row per problem
            calls["solve"] += len(out.x)
            return out

        monkeypatch.setattr(slp, "solve_min_norm_batch", solve)
        items = lambda h_e1, h_e2, s_k, theta: np.size(s_k)   # noqa: E731
        monkeypatch.setattr(slp, "margin_rows_pair", counted("terms", slp.margin_rows_pair, items))
        per_trial_metrics(sc)
        vectors = pairs = 0
        for trial in range(sc.trials):
            idxs = slot_indices(sc, trial)
            vectors += len({tuple(idx) for idx in idxs})
            pairs += len({(u, int(idx[u])) for idx in idxs for u in range(sc.k)})
        assert calls["solve"] == vectors * solves_per_vector
        assert calls["terms"] == pairs <= sc.trials * sc.d * sc.k

    @pytest.mark.parametrize("method, bound", [
        ("naive_slp", "naive_bounds"), ("nc_slp", "nc_bounds"), ("robust_slp", "robust_bounds"),
    ])
    def test_symbol_free_bounds_are_built_once_per_user(self, monkeypatch, method, bound):
        # naive_slp's bounds do not depend on the symbol, so each trial builds
        # them once per user at set-up; nc_slp and robust_slp bound each
        # distinct (user, symbol) of the trial once. Each stacked call counts
        # its items: its symbols, or naive_slp's jammer gains.
        sc = reuse_scenario(method)
        calls = []
        fn = getattr(slp, bound)

        def counted(*args):
            calls.extend([args] * np.size(args[1] if bound == "nc_bounds" else args[0]))
            return fn(*args)

        monkeypatch.setattr(slp, bound, counted)
        per_trial_metrics(sc)
        pairs = sum(
            len({(u, int(idx[u])) for idx in slot_indices(sc, trial) for u in range(sc.k)})
            for trial in range(sc.trials)
        )
        assert pairs > sc.trials * sc.k
        assert len(calls) == (sc.trials * sc.k if method == "naive_slp" else pairs)


def long_block_scenario(method):
    # the benchmark's mc_long_block shape: M = K = 4, QPSK, one 512-slot trial
    return Scenario(
        m=4, k=4, d=4, rho2_db=10.0, awgn_std=1.0, p=0.8, trials=1, block_len=512,
        seed=20240901, method=method, q_spec=QSpec("random_rank_one"), p_t_db=26.4,
        psi_db=10.0, n_div=16,
    )


class TestBatchedSolves:
    """The engine's QPs go to the batched entry point, each with an exact KKT certificate."""

    @pytest.mark.parametrize("method", QP_METHODS)
    def test_every_batched_solution_is_certified(self, monkeypatch, method):
        batches = []
        batch = solver.solve_min_norm_batch

        def recording(a, b, owner=None):
            out = batch(a, b, owner)
            batches.append((np.asarray(a), np.asarray(b), np.arange(len(a)) if owner is None else owner, out))
            return out

        kernel_calls = []
        kernel = solver._min_norm_kernel

        def counting(*args):
            kernel_calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(solver, "solve_min_norm_batch", recording)   # the maximin designs
        monkeypatch.setattr(slp, "solve_min_norm_batch", recording)      # the min-power designs
        monkeypatch.setattr(solver, "_min_norm_kernel", counting)        # a handoff from the lockstep
        run_montecarlo(long_block_scenario(method))
        assert len(batches) == 1
        assert kernel_calls == []   # every problem stayed in the lockstep
        a, b, owner, out = batches[0]
        sc = long_block_scenario(method)
        assert a.shape[1:] == (2 * sc.k, 2 * sc.m)   # one margin row per decision boundary per user
        assert len(a) >= solver.BATCH_CROSSOVER   # the lockstep kernel solved them
        assert len(out.x) == len(b) == len(a) * (16 if method == "robust_slp" else 1)
        assert out.errors == {}
        for i, (bounds, o) in enumerate(zip(b, owner)):
            active = tuple(out.active[i, :out.size[i]].tolist())
            sol = solver.QpSolution(x=out.x[i], objective=out.objective[i], duals=out.duals[i], active_set=active)
            assert validate_solution(QpProblem(a[o], bounds), sol)

    def test_a_run_builds_no_per_problem_result(self, monkeypatch):
        # The engine's QPs stay stacks from the lockstep kernel to the
        # transmit vectors: no QpSolution or SlpSolution is built, and one
        # lockstep call solves every problem without a handoff.
        def forbidden(*args, **kwargs):
            raise AssertionError("a per-problem result object was built")

        lockstep, kernel_calls = [], []
        batch, kernel = solver._min_norm_batch, solver._min_norm_kernel
        monkeypatch.setattr(solver, "_min_norm_batch", lambda *args: lockstep.append(len(args[3])) or batch(*args))
        monkeypatch.setattr(solver, "_min_norm_kernel", lambda *args: kernel_calls.append(args) or kernel(*args))
        sc = long_block_scenario("robust_slp")
        expected = run_montecarlo(sc)
        lockstep.clear()
        monkeypatch.setattr(solver, "QpSolution", forbidden)
        monkeypatch.setattr(slp, "SlpSolution", forbidden)
        assert run_montecarlo(sc) == expected
        assert len(lockstep) == 1 and lockstep[0] >= 16 * solver.BATCH_CROSSOVER
        assert kernel_calls == []

    @staticmethod
    def clashing_engine():
        # user 1 shares user 0's channel, so a vector with two different
        # symbols asks one received point to lie in two sectors; the term of
        # user 1 with symbol index 3 (0-based) cannot be built. The engine's
        # bound function takes stacks of (trial place, user, symbol) triples.
        engine = _TrialEngine(reuse_scenario("nc_slp"), range(0, 1))
        engine.pairs[0, 1] = engine.pairs[0, 0]
        bound_fn = engine.bound_fn

        def failing(t, u, s_k):
            if np.any((u == 1) & (s_k == engine.const[3])):
                raise ValueError("no bounds for this symbol")
            return bound_fn(t, u, s_k)

        engine.bound_fn = failing
        return engine

    def test_design_fails_at_the_first_failing_vector(self):
        same, clash, broken = np.array([1, 1]), np.array([1, 2]), np.array([3, 4])

        def design(*vectors):
            engine = self.clashing_engine()
            return _design(engine, np.zeros(len(vectors), dtype=np.int64), np.array(vectors))

        assert len(design(same, same + 1)) == 2
        with pytest.raises(Infeasible, match="inconsistent constraints"):
            design(same, clash, broken)
        with pytest.raises(ValueError, match="no bounds"):
            design(same, broken, clash)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_earliest_failing_trial_raises_across_a_chunk(self, monkeypatch, threads):
        # Trial 1 fails in its QP (its users share a channel, as in
        # clashing_engine) and trial 3 fails at set-up. The chunk sets up
        # every trial before it solves any QP, so it meets trial 3's failure
        # first; the run must still raise trial 1's, as trial by trial.
        sc = dataclasses.replace(reuse_scenario("nc_slp"), trials=4)
        assert sim.CHUNK_SLOTS // sc.block_len >= sc.trials   # one chunk
        init = sim._TrialEngine.__init__

        def failing(engine, sc, trials):
            if 3 in trials:
                raise ValueError("set-up of trial 3")
            init(engine, sc, trials)
            if 1 in trials:
                engine.pairs[trials.index(1), 1] = engine.pairs[trials.index(1), 0]

        monkeypatch.setattr(sim._TrialEngine, "__init__", failing)
        with pytest.raises(ValueError, match="set-up of trial 3"):
            sim._run_chunk(sc, range(sc.trials), False)
        with pytest.raises(Infeasible, match="inconsistent constraints"):
            per_trial_metrics(sc, threads=threads)


class TestStdErr:
    def test_large_values_do_not_overflow(self):
        # np.std squares the deviations, which overflows above about 1e154
        values = np.array([1e200, 3e200, 2e200, 5e300])
        scaled = np.array([1.0, 3.0, 2.0, 5e100])
        assert _std_err(values) == pytest.approx(_std_err(scaled) * 1e200, rel=1e-14)
        assert _std_err(np.array([-1.7e308, 1.7e308])) == pytest.approx(1.7e308, rel=1e-15)

    def test_bits_unchanged_where_the_plain_form_is_finite(self):
        rng = np.random.default_rng(20)
        for _ in range(2000):
            n = int(rng.integers(2, 40))
            offset = rng.uniform(-1, 1) * 10.0 ** rng.uniform(-150, 150)
            values = rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150) + offset
            plain = np.float64(np.std(values, ddof=1) / math.sqrt(n))
            assert np.float64(_std_err(values)).tobytes() == plain.tobytes()
        assert _std_err(np.array([2.5])) == 0.0

    @pytest.mark.parametrize("method, awgn_std, rho2_db", [
        ("nc_slp", 1e100, 10.0), ("pw_slp", 1.0, 2000.0), ("nc_slp", 1.0, 2000.0),
    ])
    def test_huge_noise_covariances_run_without_overflow(self, method, awgn_std, rho2_db):
        # covariances of order 1e200: eig2_sym scales its eigenvector
        # candidates before their squared norms would overflow
        sc = Scenario(
            m=2, k=2, d=4, rho2_db=rho2_db, awgn_std=awgn_std, p=0.8, trials=4, block_len=3,
            seed=11, method=method, psi_db=0.0, n_div=4,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run_montecarlo(sc)
        values = [getattr(rec, f.name) for f in dataclasses.fields(rec)]
        assert all(math.isfinite(v) for value in values for v in np.ravel(value))
        assert rec.avg_tx_power > 1e190

    @pytest.mark.parametrize("method", ["pw_slp", "naive_slp", "robust_slp"])
    def test_a_huge_awgn_std_gives_a_finite_power_error(self, method):
        sc = Scenario(
            m=2, k=2, d=4, rho2_db=10.0, awgn_std=1e100, p=0.8, trials=4, block_len=3,
            seed=11, method=method, psi_db=0.0, n_div=4,
        )
        rec = run_montecarlo(sc)
        assert rec.avg_tx_power > 1e190 and math.isfinite(rec.avg_tx_power_se) and rec.avg_tx_power_se > 0.0
