"""The engine's array pass over a chunk of trials against a slot-by-slot reference, bit for bit.

`_reference_run` is one trial's run as it was before its slots were drawn,
detected and counted as arrays: each slot draws its symbol indices with
`Generator.integers`, then its jammer and AWGN draws, and every received
point is whitened (for the pw_* receivers) and detected on its own by
`psk_detect`. The chunk pass draws the same numbers from the raw Philox
bits, forms every received point with the same arithmetic, decides the
points away from a sector boundary with np.arctan2 and the rest with the
scalar detector, and sums each trial's power in slot order, so each trial's
symbol and bit errors, power bits and integrated SER must be equal on every
scenario, whatever chunk the trial runs in. The integrated SER is
compared with `_exit_probability`, a frozen copy of the per-trial form the
engine computed before one stacked call served every trial of a chunk.

`TestGuard` puts points on the decision boundaries, at zero and at
infinity or NaN, where only the scalar detector's decision counts; in a
chunk of several trials each trial's points come from its own whitener.
Its decisions are compared with `_scalar_detect`, a frozen copy of the
per-point detector (whiten one point, then `psk_detect`) the engine had
before `_detect` decided its guard points on the coordinates it had whitened.
"""

import math
import warnings

import numpy as np
import pytest

from ncprecode import sim
from ncprecode.noisegeom import rotated_cov, wedge_exit_probability
from ncprecode.sim import (
    _BIT_ERRORS,
    METHODS,
    QSpec,
    Scenario,
    _design,
    _detect,
    _run_chunk,
    _run_trials,
    _TrialEngine,
    psk_detect,
)


def _exit_probability(sc, whiten, covs, const, rx, idx):
    """One trial's per-slot, per-user symbol-error probability (slots x users), as the per-trial engine had it.

    whiten holds the trial's whiteners (users x 2 x 2; None for a raw
    receiver) and covs its noise covariances (users x 2 x 2).
    """
    if whiten is not None:
        zw = np.einsum("kij,tkj->tki", whiten, np.stack([rx.real, rx.imag], axis=-1))
        rx = zw[..., 0] + 1j * zw[..., 1]
        cov = np.eye(2)
    else:
        table = rotated_cov(covs[:, None], const)   # users x symbols x 2 x 2
        cov = table[np.arange(sc.k), idx - 1]
    mu = rx * np.conj(const[idx - 1])
    return wedge_exit_probability(np.stack([mu.real, mu.imag], axis=-1), cov, sc.theta)


def _scalar_detect(engine, pos, y_k, user):
    """The scalar decision for received point y_k of a user of trial place pos, as the engine's own detector had it."""
    if engine.whiten is not None:
        z = engine.whiten[pos, user] @ np.array([y_k.real, y_k.imag])
        return psk_detect(complex(z[0], z[1]), engine.sc.d)
    return psk_detect(y_k, engine.sc.d)


def _reference_run(sc, trial, integrate):
    """(symbol errors, bit errors, summed transmit power, noise-integrated SER) of one trial, slot by slot."""
    engine = _TrialEngine(sc, range(trial, trial + 1))
    rng, h, h_j, mix = engine.rng, engine.h[0], engine.h_j[0], engine.mix[0]
    whiten = None if engine.whiten is None else engine.whiten[0]
    k, d, bit_errors = sc.k, sc.d, _BIT_ERRORS[sc.d]
    awgn_scale = math.sqrt(0.5 * sc.awgn_var)
    slots = []
    first = {}
    for slot in range(1, sc.block_len + 1):
        engine.rekey(trial, slot)
        idx = rng.integers(1, d + 1, size=k)
        zv = rng.standard_normal(2) @ mix
        nv = awgn_scale * rng.standard_normal((k, 2))
        key = idx.tobytes()
        first.setdefault(key, idx)
        slots.append((key, idx, complex(zv[0], zv[1]), nv[:, 0] + 1j * nv[:, 1]))
    xs = _design(engine, np.zeros(len(first), dtype=np.int64), np.array(list(first.values())))
    memo = {key: (float(np.real(x @ np.conj(x))), h @ x) for key, x in zip(first, xs)}
    sym_err = np.zeros(k, dtype=np.int64)
    bit_err = np.zeros(k, dtype=np.int64)
    power_sum = 0.0
    for key, idx, z, w in slots:
        power, rx = memo[key]
        power_sum += power
        y = rx + h_j * z + w
        for u in range(k):
            y_k = y[u]
            if whiten is not None:
                zw = whiten[u] @ np.array([y_k.real, y_k.imag])
                y_k = complex(zw[0], zw[1])
            det = psk_detect(y_k, d)
            if det != idx[u]:
                sym_err[u] += 1
                bit_err[u] += bit_errors[idx[u] - 1][det - 1]
    ser_integrated = None
    if integrate:
        rx_block = np.array([memo[key][1] for key, *_ in slots])
        idx_block = np.array([idx for _, idx, *_ in slots])
        ser_integrated = _exit_probability(sc, whiten, engine.covs[0], engine.const, rx_block, idx_block).mean(axis=0)
    return sym_err, bit_err, power_sum, ser_integrated


Q_KINDS = {
    "circular": QSpec(),
    "elements": QSpec("elements", (0.3, 0.2)),
    "random_rank_one": QSpec("random_rank_one"),
}


def scenario(method, d, q, block_len, trials=1):
    return Scenario(
        m=3, k=2, d=d, rho2_db=10.0, awgn_std=1.0, p=0.8, trials=trials, block_len=block_len,
        seed=20240817 + d, method=method, q_spec=Q_KINDS[q], p_t_db=12.0, psi_db=0.0, n_div=4,
    )


def assert_equal_stats(got, ref, integrate):
    sym, bit, power, ser = got
    ref_sym, ref_bit, ref_power, ref_ser = ref
    assert sym.dtype == bit.dtype == np.int64
    assert sym.tobytes() == ref_sym.tobytes() and bit.tobytes() == ref_bit.tobytes()
    assert type(power) is float and np.float64(power).tobytes() == np.float64(ref_power).tobytes()
    if integrate:
        assert ser.tobytes() == ref_ser.tobytes()
    else:
        assert ser is None


@pytest.mark.parametrize("block_len", [1, 5, 6, 300])
@pytest.mark.parametrize("q", sorted(Q_KINDS))
@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("method", METHODS)
def test_run_matches_the_slot_loop(method, d, q, block_len):
    sc = scenario(method, d, q, block_len)
    ref = _reference_run(sc, 1, True)
    for integrate in (True, False):
        (got,) = _run_chunk(sc, range(1, 2), integrate)
        assert_equal_stats(got, ref, integrate)
    if block_len == 300 and d == 8:
        assert ref[0].sum() > 0   # every method's comparison covers counted errors


@pytest.mark.parametrize("trials, block_len, mid", [(40, 1, 7), (12, 5, 35), (3, 300, 600)])
@pytest.mark.parametrize("method", METHODS)
def test_every_chunking_matches_the_slot_loop(monkeypatch, method, trials, block_len, mid):
    # Chunks of one trial, chunks that split the run mid-way (40 = 5 x 7 + 5,
    # 12 = 7 + 5 and 3 = 2 + 1 trials) and the default chunk give every trial
    # the bytes of its own slot loop, at one thread and at three.
    sc = scenario(method, 8, "random_rank_one", block_len, trials)
    refs = [_reference_run(sc, t, True) for t in range(trials)]
    if block_len == 300:
        assert sum(ref[0].sum() for ref in refs) > 0   # the comparison covers counted errors
    for chunk_slots, threads in [(1, 1), (mid, 1), (mid, 3), (sim.CHUNK_SLOTS, 1)]:
        monkeypatch.setattr(sim, "CHUNK_SLOTS", chunk_slots)
        got = _run_trials(sc, True, threads)
        assert len(got) == trials
        for stats, ref in zip(got, refs):
            assert_equal_stats(stats, ref, True)


def _outcome(fn):
    """(decision or exception type and message, warning messages) of fn()."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = int(fn())
        except Exception as exc:
            out = (type(exc), str(exc))
    return out, {str(w.message) for w in caught}


def _boundary_points(d, scale):
    """Points on each decision-boundary ray (the 0/2 pi wrap among them) and one ULP either side."""
    points = []
    for j in range(d):
        phi = 2.0 * math.pi * j / d
        re, im = scale * math.cos(phi), scale * math.sin(phi)
        for dr in (-math.inf, 0.0, math.inf):
            for di in (-math.inf, 0.0, math.inf):
                points.append((math.nextafter(re, dr) if dr else re, math.nextafter(im, di) if di else im))
    return np.array(points)


SPECIAL = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)] + [
    complex(a, b)
    for a, b in [(math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf), (1.0, -math.inf), (math.inf, math.inf),
                 (-math.inf, -math.inf), (math.inf, -math.inf), (-math.inf, math.inf), (math.inf, 0.0),
                 (0.0, -math.inf), (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.inf, math.nan)]
]


class TestGuard:
    """Points the array pass must leave to the scalar detector get its decision or its exception."""

    @staticmethod
    def ray_points(engine, d):
        """Received points (trial places x points x users) whose whitened images lie on the rays, to the last bits."""
        pts = np.vstack([_boundary_points(d, s) for s in (1.0, 1e-3, 1e3)])
        n, k = engine.h.shape[:2]
        y = np.empty((n, len(pts), k), dtype=complex)
        for i, u in np.ndindex(n, k):
            p = pts if engine.whiten is None else np.linalg.solve(engine.whiten[i, u], pts.T).T
            y[i, :, u] = p[:, 0] + 1j * p[:, 1]
        return y

    @staticmethod
    def assert_scalar_decisions(engine, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            det = _detect(engine, y)
        assert det.dtype == np.int64 and det.shape == y.shape
        for i, t, u in np.ndindex(y.shape):
            assert det[i, t, u] == _scalar_detect(engine, i, y[i, t, u], u), (i, t, u, y[i, t, u])

    @pytest.mark.parametrize("method", ["naive_blp", "pw_blp"])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_boundary_rays(self, method, d):
        engine = _TrialEngine(scenario(method, d, "random_rank_one", 1), range(0, 1))
        self.assert_scalar_decisions(engine, self.ray_points(engine, d))

    @pytest.mark.parametrize("method", ["pw_blp", "pw_slp"])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_boundary_rays_of_each_trial_of_a_chunk(self, method, d):
        # each trial's points are made from its own whitener, so a decision
        # taken with another trial's whitener differs
        engine = _TrialEngine(scenario(method, d, "random_rank_one", 1, 3), range(3))
        self.assert_scalar_decisions(engine, self.ray_points(engine, d))

    @pytest.mark.parametrize("method", ["naive_blp", "pw_blp"])
    @pytest.mark.parametrize("value", SPECIAL, ids=repr)
    def test_zero_infinity_and_nan(self, method, value):
        # A NaN part, or an infinite one that whitening turns into NaN, raises
        # the ValueError of ceil(nan); the other points get their decision.
        # The array pass adds no warning the scalar path does not give.
        engine = _TrialEngine(scenario(method, 4, "random_rank_one", 1), range(0, 1))
        y = np.full((3, engine.sc.k), 0.3 + 0.2j)
        y[1, 1] = value
        got, got_warnings = _outcome(lambda: _detect(engine, y[None])[0, 1, 1])
        expected, expected_warnings = _outcome(lambda: _scalar_detect(engine, 0, y[1, 1], 1))
        assert got == expected
        if math.isnan(value.real) or math.isnan(value.imag):
            assert expected == (ValueError, "cannot convert float NaN to integer")
        assert got_warnings <= expected_warnings
