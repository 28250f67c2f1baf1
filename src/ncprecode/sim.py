"""Monte-Carlo engine: channels, symbols, receiver pipelines and metrics.

Each channel realization ("trial") draws fresh BS-user and jammer channels,
computes the selected precoder, transmits a block of PSK symbol vectors with
jamming plus AWGN redrawn every slot, detects, and accumulates symbol / bit /
block error counts and transmit power. Randomness is derived from
counter-based Philox streams keyed by (master seed, trial, slot), so results
are bit-identical regardless of how trials are distributed over worker
threads.

Within a trial only d^K symbol vectors and d K (user, symbol) pairs exist,
so per-trial work is done once and reused across slots: the transmit
vector, its power and the noise-free received points once per distinct
symbol-index vector (``_run_trial``), and each user's margin rows and
bounds once per (user, symbol index) (``_TrialEngine``), both filled on
first use and dropped with the trial. The reused values are the ones a
fresh computation would return, because they are deterministic functions
of the same inputs, so every output byte is the same as without reuse.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import blp as _blp
from . import slp as _slp
from .noisegeom import (
    CIRCULAR_Q,
    chi2_scale,
    effective_cov,
    jammer_model,
    q_from_elements,
    q_rank_one,
    rotated_cov,
    wedge_exit_probability,
)
from .solver import _min_norm_kernel, _solve
from .wlalg import SymMat2, expand_row, sqrt_inv_psd2, symbol_rotation

__all__ = [
    "QSpec",
    "Scenario",
    "MetricsRecord",
    "TrialSeries",
    "SweepResult",
    "LemmaReport",
    "METHODS",
    "db_to_linear",
    "sample_channels",
    "sample_psk",
    "psk_constellation",
    "psk_detect",
    "margin_from_psi",
    "run_montecarlo",
    "per_trial_metrics",
    "energy_efficiency",
    "sweep_q_grid",
    "verify_lemma_blp",
    "verify_lemma_slp",
]

BLP_METHODS = ("naive_blp", "pw_blp", "robust_blp")
MSM_METHODS = ("msm", "pw_msm")
MINPOWER_METHODS = ("naive_slp", "pw_slp", "nc_slp", "robust_slp")
METHODS = BLP_METHODS + MSM_METHODS + MINPOWER_METHODS
_WHITENED_RX = frozenset({"pw_blp", "pw_msm", "pw_slp"})
_NEEDS_POWER = frozenset(BLP_METHODS) | frozenset(MSM_METHODS)
_NEEDS_PSI = frozenset(MINPOWER_METHODS)

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _key(seed: int, trial: int, slot: int) -> tuple:
    return seed & _MASK64, ((trial & _MASK32) << 32) | (slot & _MASK32)


def _stream(seed: int, trial: int, slot: int) -> np.random.Generator:
    """Philox generator keyed by (seed, trial, slot); slot 0 = trial setup."""
    return np.random.Generator(np.random.Philox(key=np.array(_key(seed, trial, slot), dtype=np.uint64)))


def _rekey(rng: np.random.Generator, seed: int, trial: int, slot: int) -> None:
    """Reset a Philox generator to the fresh state of ``_stream(seed, trial, slot)``.

    Counter zero, output buffer empty and no buffered 32-bit half: what
    ``Philox(key=...)`` starts from, without building a generator (and the
    entropy-seeded SeedSequence its constructor makes) for every slot.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": _key(seed, trial, slot)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


@dataclass(frozen=True)
class QSpec:
    """Jammer covariance specification for a scenario.

    kind is one of "circular", "elements" (explicit q11/q12 inside the PSD
    disk, checked on construction), "rank_one" (fixed orientation phi), or
    "random_rank_one" (orientation redrawn uniformly on [0, pi) each trial).
    """

    kind: str = "circular"
    q11: float | None = None
    q12: float | None = None
    phi: float | None = None

    def __post_init__(self):
        if self.kind not in ("circular", "elements", "rank_one", "random_rank_one"):
            raise ValueError(f"unknown covariance spec kind: {self.kind}")
        if self.kind == "elements":
            if self.q11 is None or self.q12 is None:
                raise ValueError("elements spec requires q11 and q12")
            q_from_elements(self.q11, self.q12)  # raises InfeasibleQ outside the PSD disk
        if self.kind == "rank_one" and self.phi is None:
            raise ValueError("rank_one spec requires an orientation phi")

    def draw(self, rng) -> SymMat2:
        if self.kind == "circular":
            return CIRCULAR_Q
        if self.kind == "elements":
            return q_from_elements(self.q11, self.q12)
        if self.kind == "rank_one":
            return q_rank_one(self.phi)
        return q_rank_one(rng.uniform(0.0, math.pi))

    @property
    def rank_deficient(self) -> bool:
        """Whether the covariance is singular (rank one) in every trial."""
        if self.kind == "elements":
            return SymMat2(self.q11, self.q12, 1.0 - self.q11).det() <= 0.0
        return self.kind in ("rank_one", "random_rank_one")

    def label(self) -> str:
        if self.kind == "elements":
            return f"elements:{self.q11!r},{self.q12!r}"
        if self.kind == "rank_one":
            return f"rank_one:{self.phi!r}"
        return self.kind


@dataclass(frozen=True)
class Scenario:
    """Complete configuration of one Monte-Carlo run."""

    m: int
    k: int
    d: int
    rho2_db: float
    awgn_std: float
    p: float
    trials: int
    block_len: int
    seed: int
    method: str
    q_spec: QSpec = field(default_factory=QSpec)
    p_t_db: float | None = None
    psi_db: float | None = None
    n_div: int = 16

    def __post_init__(self):
        if self.d not in (2, 4, 8, 16):
            raise ValueError("PSK order must be one of 2, 4, 8, 16")
        if self.trials < 1 or self.block_len < 1:
            raise ValueError("trials and block_len must be at least 1")
        if not 0.0 < self.p < 1.0:
            raise ValueError("confidence level must be in (0, 1)")
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method}")
        if self.method in _NEEDS_POWER and self.p_t_db is None:
            raise ValueError(f"method {self.method} requires a transmit power budget")
        if self.method in _NEEDS_PSI and self.psi_db is None:
            raise ValueError(f"method {self.method} requires an SNR threshold psi_db")
        if not (math.isfinite(self.awgn_std) and self.awgn_std >= 0.0):
            raise ValueError("awgn_std must be finite and nonnegative")
        if self.n_div < 1:
            raise ValueError("n_div must be at least 1")
        if self.method in _WHITENED_RX and self.awgn_std == 0.0 and self.q_spec.rank_deficient:
            raise ValueError(
                f"method {self.method} whitens the effective noise, which is singular "
                "for a rank-deficient jammer covariance unless awgn_std > 0"
            )

    @property
    def theta(self) -> float:
        return math.pi / self.d

    @property
    def c_bits(self) -> int:
        """Bits per PSK symbol."""
        return int(math.log2(self.d))


@dataclass(frozen=True)
class MetricsRecord:
    """Aggregated error-rate, power and efficiency metrics of one run."""

    ser_per_user: tuple
    worst_user_ser: float
    worst_user_ser_se: float
    ber: float
    ber_se: float
    bler: float
    bler_se: float
    avg_tx_power: float
    avg_tx_power_se: float
    throughput: float
    ee: float
    ee_se: float


def sample_channels(rng, m: int, k: int):
    """K unit-variance complex Gaussian channel rows plus K jammer scalars."""
    scale = 1.0 / math.sqrt(2.0)
    h = scale * (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)))
    h_j = scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return h, h_j


def psk_constellation(d: int) -> np.ndarray:
    """The D phase points exp(j pi (2i - 1) / D), i = 1..D."""
    return np.exp(1j * np.pi * (2.0 * np.arange(1, d + 1) - 1.0) / d)


def _draw_index(rng, d: int, k: int) -> np.ndarray:
    """Uniform 1-based PSK symbol indices for k users."""
    return rng.integers(1, d + 1, size=k)


def sample_psk(rng, d: int, k: int) -> np.ndarray:
    """Uniform unit-magnitude PSK symbols for k users."""
    return psk_constellation(d)[_draw_index(rng, d, k) - 1]


def psk_detect(y: complex, d: int) -> int:
    """1-based index of the decision sector containing phase(y).

    Sector i spans ((2i - 2) pi / D, 2 i pi / D]; y = 0 maps to sector 1 by
    convention.
    """
    y = complex(y)
    if y == 0:
        return 1
    phase = math.atan2(y.imag, y.real)
    if phase <= 0.0:
        phase += 2.0 * math.pi
    idx = int(math.ceil(phase * d / (2.0 * math.pi)))
    return min(max(idx, 1), d)


def margin_from_psi(psi_db: float, theta: float, rho2: float, sigma2: float) -> float:
    """Safety margin for an SNR threshold: delta = sin(theta) sqrt(psi (rho^2 + sigma^2))."""
    psi = db_to_linear(psi_db)
    if psi < 0.0:
        raise ValueError("SNR threshold must be nonnegative")
    return math.sin(theta) * math.sqrt(psi * (rho2 + sigma2))


def energy_efficiency(bler: float, c_bits: float, block_len: int, k: int, avg_power: float) -> float:
    """Throughput (1 - P_B) c T K divided by the energy T * avg_power per block."""
    if avg_power <= 0.0:
        return 0.0
    return (1.0 - bler) * c_bits * k / avg_power


def _gray(i: int) -> int:
    return i ^ (i >> 1)


_POPCOUNT = [bin(i).count("1") for i in range(32)]


@dataclass
class _TrialStats:
    sym_err: np.ndarray
    bit_err: np.ndarray
    blk_err: np.ndarray
    power_sum: float
    ser_integrated: np.ndarray | None = None


class _TrialEngine:
    """Per-trial state: precoder/solver plus the receiver pipeline.

    For the QP methods, each user's margin rows and bounds depend on the
    trial and that user's own symbol only, so they are built once per
    (user, symbol index) on first use and reused by every later symbol
    vector of the trial; a new symbol vector then costs one stacking and the
    QP solve.
    """

    def __init__(self, sc: Scenario, h, h_j, jam, consts):
        self.sc = sc
        self.h = h
        self.h_j = h_j
        self.jam = jam
        self.c = consts
        k = sc.k
        self.const = psk_constellation(sc.d)
        self.covs = [effective_cov(h_j[i], jam, consts["awgn_var"]) for i in range(k)]
        self.sigma2 = np.array([g.trace() for g in self.covs])
        self.whiten = None
        if sc.method in _WHITENED_RX:
            self.whiten = [sqrt_inv_psd2(g) for g in self.covs]
        self.terms = [[None] * sc.d for _ in range(k)]   # (user, symbol index) -> (rows, bounds)
        self._setup_method()

    def _setup_method(self):
        sc, c = self.sc, self.c
        method = sc.method
        if method in BLP_METHODS:
            if method == "pw_blp":
                pre = _blp.pw_blp(self.h, self.h_j, self.jam, c["awgn_var"], c["p_t"])
            elif method == "robust_blp":
                jp = c["rho2"] * np.abs(self.h_j) ** 2
                pre = _blp.robust_blp(self.h, c["awgn_var"], jp, c["p_t"])
            else:
                pre = _blp.naive_blp(self.h, c["awgn_var"], c["p_t"])
            self.precoder = pre
        elif method in ("pw_msm", "pw_slp"):
            self.pairs = [
                _slp.whitened_effective_channel(self.h[i], self.covs[i], math.sqrt(self.sigma2[i]))
                for i in range(sc.k)
            ]
            if method == "pw_slp":
                # Matched-reliability whitened-domain targets: after whitening
                # the noise is circular with power sigma_k^2, so the preset
                # margin plus its confidence disk maps to
                # delta cos(theta) + sqrt(omega sigma_k^2 / 2); the raw-domain
                # designs apply the same preset with their own (elliptical or
                # circularized) confidence terms.
                omega = chi2_scale(sc.p)
                self.pw_targets = c["delta0"] * math.cos(sc.theta) + np.sqrt(
                    omega * self.sigma2 / 2.0
                )
        else:
            self.pairs = [expand_row(self.h[i]) for i in range(sc.k)]

    def _user_terms(self, u: int, i: int):
        """Margin rows and bounds of user u for its 0-based symbol index i."""
        sc, c = self.sc, self.c
        method, theta, s_k = sc.method, sc.theta, self.const[i]
        if method in MSM_METHODS:
            return _slp.user_terms(self.pairs[u], s_k, theta)
        if method == "pw_slp":
            return _slp.user_terms(self.pairs[u], s_k, theta, np.full(2, self.pw_targets[u]))
        du0, dl0 = c["targets"].delta_u0[u], c["targets"].delta_l0[u]
        if method == "nc_slp":
            bounds = _slp.nc_bounds(self.covs[u], s_k, du0, dl0, sc.p, theta)
        elif method == "naive_slp":
            bounds = _slp.naive_bounds(self.h_j[u], c["rho2"], c["awgn_var"], du0, dl0, chi2_scale(sc.p), theta)
        else:  # robust_slp
            bounds = _slp.robust_bounds(
                self.h_j[u], c["rho2"], c["awgn_var"], s_k, du0, dl0, chi2_scale(sc.p), theta, sc.n_div
            )
        return _slp.user_terms(self.pairs[u], s_k, theta, bounds)

    def transmit(self, idx: np.ndarray) -> np.ndarray:
        """Complex transmit vector for one vector of 1-based symbol indices."""
        sc = self.sc
        m = sc.m
        if sc.method in BLP_METHODS:
            s = self.const[idx - 1]
            sbar = np.concatenate([s.real, s.imag])
            xb = self.precoder.p @ sbar
            return xb[:m] + 1j * xb[m:]
        terms = []
        for u, i in enumerate(idx - 1):
            entry = self.terms[u][i]
            if entry is None:
                entry = self.terms[u][i] = self._user_terms(u, i)
            terms.append(entry)
        if sc.method in MSM_METHODS:
            xb = _slp.solve_max_margin(terms, self.c["p_t"])[0]
        else:
            xb = _slp.solve_min_power(terms).x
        return xb[:m] + 1j * xb[m:]

    def detect(self, y_k: complex, user: int) -> int:
        if self.whiten is not None:
            yb = np.array([y_k.real, y_k.imag])
            z = self.whiten[user] @ yb
            return psk_detect(complex(z[0], z[1]), self.sc.d)
        return psk_detect(y_k, self.sc.d)

    def exit_probability(self, rx: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Per-slot, per-user probability (slots x users) of a symbol error.

        rx holds the noise-free received points h_k x, idx the 1-based symbol
        indices. Pre-whitened receivers detect G_k^{-1/2} y, whose noise is
        N(0, I2); raw receivers see the symbol-rotated effective covariance.
        """
        sc, const = self.sc, self.const
        if self.whiten is not None:
            w = np.stack(self.whiten)
            zw = np.einsum("kij,tkj->tki", w, np.stack([rx.real, rx.imag], axis=-1))
            rx = zw[..., 0] + 1j * zw[..., 1]
            cov = np.eye(2)
        else:
            table = np.array([[rotated_cov(g, c).as_array() for c in const] for g in self.covs])
            cov = table[np.arange(sc.k), idx - 1]
        mu = rx * np.conj(const[idx - 1])
        return wedge_exit_probability(np.stack([mu.real, mu.imag], axis=-1), cov, sc.theta)


def _scenario_constants(sc: Scenario) -> dict:
    c = {
        "rho2": db_to_linear(sc.rho2_db),
        "awgn_var": sc.awgn_std ** 2,
        "p_t": db_to_linear(sc.p_t_db) if sc.p_t_db is not None else None,
    }
    c["rho"] = math.sqrt(c["rho2"])
    if sc.psi_db is not None:
        delta0 = margin_from_psi(sc.psi_db, sc.theta, c["rho2"], c["awgn_var"])
        c["delta0"] = delta0
        c["targets"] = _slp.MarginTargets.uniform(delta0, sc.k)
    return c


def _run_trial(sc: Scenario, consts: dict, trial: int, integrate: bool = False) -> _TrialStats:
    """Counted errors and transmit power of one channel trial.

    The transmit vector, its power and the noise-free received points
    rx = h x depend only on the trial and the slot's symbol-index vector, so
    they are computed once per distinct index vector and reused by every
    slot that draws it again; slots then only draw noise and detect. Reuse
    is exact: a repeat would recompute the same deterministic function of
    the same inputs, and every slot still draws its symbols and noise from
    its own (seed, trial, slot) stream: the trial's generator, re-keyed by
    :func:`_rekey`. The memo holds at most
    min(block_len, d^K) entries and ends with the trial.
    """
    rng = _stream(sc.seed, trial, 0)
    h, h_j = sample_channels(rng, sc.m, sc.k)
    q = sc.q_spec.draw(rng)
    jam = jammer_model(consts["rho"], q)
    engine = _TrialEngine(sc, h, h_j, jam, consts)

    k, d = sc.k, sc.d
    gray = [_gray(i) for i in range(d)]
    mix = (consts["rho"] * jam.t_factor).T
    awgn_scale = math.sqrt(0.5 * consts["awgn_var"])
    sym_err = np.zeros(k, dtype=np.int64)
    bit_err = np.zeros(k, dtype=np.int64)
    power_sum = 0.0
    memo = {}   # symbol-index vector -> (transmit power, noise-free received points)
    rx_block = np.empty((sc.block_len, k), dtype=complex) if integrate else None
    idx_block = np.empty((sc.block_len, k), dtype=np.int64) if integrate else None
    for slot in range(1, sc.block_len + 1):
        _rekey(rng, sc.seed, trial, slot)
        idx = _draw_index(rng, d, k)
        key = idx.tobytes()
        hit = memo.get(key)
        if hit is None:
            x = engine.transmit(idx)
            hit = memo[key] = (float(np.real(x @ np.conj(x))), h @ x)
        power, rx = hit
        power_sum += power
        zv = rng.standard_normal(2) @ mix
        z = complex(zv[0], zv[1])
        nv = awgn_scale * rng.standard_normal((k, 2))
        y = rx + h_j * z + (nv[:, 0] + 1j * nv[:, 1])
        if rx_block is not None:
            rx_block[slot - 1] = rx
            idx_block[slot - 1] = idx
        for u in range(k):
            det = engine.detect(y[u], u)
            if det != idx[u]:
                sym_err[u] += 1
                bit_err[u] += _POPCOUNT[gray[idx[u] - 1] ^ gray[det - 1]]
    return _TrialStats(
        sym_err=sym_err,
        bit_err=bit_err,
        blk_err=sym_err > 0,
        power_sum=power_sum,
        ser_integrated=(
            engine.exit_probability(rx_block, idx_block).mean(axis=0) if integrate else None
        ),
    )


def _std_err(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


@dataclass(frozen=True)
class TrialSeries:
    """Per-trial metric vectors, for paired method comparisons.

    The *_integrated series are None unless requested: the per-user SER
    averaged over the slots' exact symbol-error probabilities given the
    transmitted point, and its per-trial worst user.
    """

    ser_per_user: np.ndarray   # trials x K
    worst_user_ser: np.ndarray
    ber: np.ndarray
    bler: np.ndarray
    avg_tx_power: np.ndarray
    ser_integrated_per_user: np.ndarray | None = None   # trials x K
    worst_user_ser_integrated: np.ndarray | None = None


def per_trial_metrics(sc: Scenario, threads: int = 1, noise_integrated: bool = False) -> TrialSeries:
    """Per-trial metric series of the configured experiment.

    Runs with the same seed and different methods share every channel,
    symbol, and noise draw, so per-trial differences between methods are
    paired samples.

    With noise_integrated=True the same pass also records, for every slot
    and user, the probability that the Gaussian effective noise moves the
    noise-free received point out of its decision wedge (a quasi-analytic
    SER estimate: it integrates the noise out exactly instead of counting
    sampled errors, so its variance comes from channels and symbols alone).
    The counted series do not change.
    """
    consts = _scenario_constants(sc)
    trials = sc.trials

    def run(t):
        return _run_trial(sc, consts, t, noise_integrated)

    if threads <= 1:
        stats = [run(t) for t in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            stats = list(pool.map(run, range(trials)))
    k, t_len, c_bits = sc.k, sc.block_len, sc.c_bits
    sym = np.vstack([st.sym_err for st in stats])            # trials x K
    bits = np.vstack([st.bit_err for st in stats])
    blk = np.vstack([st.blk_err for st in stats]).astype(float)
    power = np.array([st.power_sum / t_len for st in stats])
    ser_int = np.vstack([st.ser_integrated for st in stats]) if noise_integrated else None
    return TrialSeries(
        ser_per_user=sym / t_len,
        worst_user_ser=sym.max(axis=1) / t_len,
        ber=bits.sum(axis=1) / (k * t_len * c_bits),
        bler=blk.mean(axis=1),
        avg_tx_power=power,
        ser_integrated_per_user=ser_int,
        worst_user_ser_integrated=ser_int.max(axis=1) if noise_integrated else None,
    )


def run_montecarlo(sc: Scenario, threads: int = 1) -> MetricsRecord:
    """Run the configured Monte-Carlo experiment and aggregate its metrics.

    Receiver pipelines: pw_* methods pre-whiten the received point with the
    user's true noise covariance before detection, all other methods detect
    the raw received point. worst_user_ser is the per-trial maximum of the
    per-user symbol error rates, averaged over trials.
    """
    return _summarize(sc, per_trial_metrics(sc, threads=threads))


def _summarize(sc: Scenario, series: TrialSeries) -> MetricsRecord:
    """Aggregate the counted per-trial series into a MetricsRecord."""
    k, t_len, c_bits = sc.k, sc.block_len, sc.c_bits
    bler = float(series.bler.mean())
    avg_power = float(series.avg_tx_power.mean())
    ee_t = np.array(
        [
            energy_efficiency(b, c_bits, t_len, k, pw)
            for b, pw in zip(series.bler, series.avg_tx_power)
        ]
    )
    return MetricsRecord(
        ser_per_user=tuple(float(v) for v in series.ser_per_user.mean(axis=0)),
        worst_user_ser=float(series.worst_user_ser.mean()),
        worst_user_ser_se=_std_err(series.worst_user_ser),
        ber=float(series.ber.mean()),
        ber_se=_std_err(series.ber),
        bler=bler,
        bler_se=_std_err(series.bler),
        avg_tx_power=avg_power,
        avg_tx_power_se=_std_err(series.avg_tx_power),
        throughput=(1.0 - bler) * c_bits * t_len * k,
        ee=energy_efficiency(bler, c_bits, t_len, k, avg_power),
        ee_se=_std_err(ee_t),
    )


# ---------------------------------------------------------------------------
# Covariance-grid sweeps (worst-case geometry verification)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Metric surface over the feasible (q11, q12) disk."""

    q11: np.ndarray
    q12: np.ndarray
    values: np.ndarray        # grid_n x grid_n, NaN outside the feasible disk
    feasible: np.ndarray
    boundary: np.ndarray
    argmax_q: tuple
    argmax_on_boundary: bool
    mode: str


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of a multi-draw worst-case-location verification."""

    per_draw: tuple
    n_pass: int
    n_draws: int
    passed: bool


def _grid_axes(grid_n: int):
    q11 = np.linspace(0.0, 1.0, grid_n)
    q12 = np.linspace(-0.5, 0.5, grid_n)
    return q11, q12


def _feasible_mask(q11, q12):
    r2 = (q11[:, None] - 0.5) ** 2 + (q12[None, :]) ** 2
    return r2 <= 0.25 + 1e-12


def _boundary_mask(feasible):
    pad = np.zeros((feasible.shape[0] + 2, feasible.shape[1] + 2), dtype=bool)
    pad[1:-1, 1:-1] = feasible
    inner = pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:]
    return feasible & ~inner


def _sweep_mse(h, h_j, rho, awgn_var, p_t, grid_n):
    q11, q12 = _grid_axes(grid_n)
    feas = _feasible_mask(q11, q12)
    values = np.full((grid_n, grid_n), np.nan)
    for i in range(grid_n):
        for j in range(grid_n):
            if not feas[i, j]:
                continue
            jam = jammer_model(rho, q_from_elements(q11[i], q12[j]))
            covs = [effective_cov(hj, jam, awgn_var) for hj in h_j]
            values[i, j] = _blp.mse_closed_form(h, covs, p_t)
    return q11, q12, feas, values


def _sweep_power(h, h_j, rho, awgn_var, targets, p, theta, grid_n, symbols):
    """Average minimum power of the transmit-only design over the Q grid.

    The per-user squared margin terms are affine in (q11, q12), so for each
    symbol draw the constraint matrix and its Gram matrix are fixed and only
    the QP bounds vary across the grid.
    """
    q11, q12 = _grid_axes(grid_n)
    feas = _feasible_mask(q11, q12)
    cells = np.argwhere(feas)
    k = h.shape[0]
    omega = chi2_scale(p)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    n_u = np.array([sin_t, -cos_t])
    n_l = np.array([sin_t, cos_t])
    rho2 = rho * rho
    half_awgn = 0.5 * awgn_var

    totals = np.zeros(len(cells))
    q11_c = q11[cells[:, 0]]
    q12_c = q12[cells[:, 1]]
    for s in symbols:
        rows = []
        coeffs = []
        for u in range(k):
            mr = _slp.margin_rows(h[u], s[u], theta)
            rows.append(mr.a_minus)
            rows.append(mr.a_plus)
            jv = symbol_rotation(s[u]).T @ expand_row([h_j[u]])
            for nvec in (n_u, n_l):
                w = jv.T @ nvec
                # w^T Q w = w2^2 + q11 (w1^2 - w2^2) + 2 q12 w1 w2
                coeffs.append((w[1] ** 2, w[0] ** 2 - w[1] ** 2, 2.0 * w[0] * w[1]))
        a = np.vstack(rows)
        gram = a @ a.T
        row_norm2 = np.einsum("ij,ij->i", a, a)
        const = np.array([c0 for c0, _, _ in coeffs])
        lin11 = np.array([c1 for _, c1, _ in coeffs])
        lin12 = np.array([c2 for _, _, c2 in coeffs])
        # bounds per cell: target cos(theta) + sqrt(omega (rho^2 w^T Q w + awgn/2))
        qf = const[None, :] + q11_c[:, None] * lin11[None, :] + q12_c[:, None] * lin12[None, :]
        qf = np.maximum(qf, 0.0)
        base = np.column_stack([targets.delta_u0, targets.delta_l0]).ravel() * cos_t
        bounds_all = base[None, :] + np.sqrt(omega * (rho2 * qf + half_awgn))
        # Adjacent cells usually share the optimal active set, so try to
        # certify the previous cell's set via the full KKT conditions before
        # falling back to the solver; either path returns the unique optimum.
        prev_active: list[int] = []
        eps_p = 1e-9 * max(1.0, float(np.max(bounds_all)))
        for ci in range(len(cells)):
            b = bounds_all[ci]
            power = None
            if prev_active:
                s_arr = np.asarray(prev_active)
                try:
                    mu = _solve(gram[s_arr[:, None], s_arr], 2.0 * b[s_arr])
                except np.linalg.LinAlgError:
                    mu = None
                if mu is not None and (mu >= 0.0).all():
                    x = 0.5 * (a[s_arr].T @ mu)
                    if (a @ x - b >= -eps_p).all():
                        power = float(x @ x)
            if power is None:
                x, _, prev_active = _min_norm_kernel(a, b, gram, row_norm2)
                power = float(x @ x)
            totals[ci] += power
    values = np.full((grid_n, grid_n), np.nan)
    values[cells[:, 0], cells[:, 1]] = totals / len(symbols)
    return q11, q12, feas, values


def _draw_surface(sc: Scenario, draw: int, grid_n: int, n_symbols: int, mode: str) -> SweepResult:
    """Metric surface of one channel draw over the feasible (q11, q12) disk.

    The channels come from trial `draw`'s set-up stream. Mode "mse" sweeps
    the closed-form MSE of the pre-whitened BLP design; mode "power" sweeps
    the transmit-only minimum power averaged over n_symbols symbol vectors
    drawn from the trial's slot-1 stream.
    """
    if grid_n < 5:
        raise ValueError("grid resolution must be at least 5")
    consts = _scenario_constants(sc)
    h, h_j = sample_channels(_stream(sc.seed, draw, 0), sc.m, sc.k)
    if mode == "mse":
        q11, q12, feas, values = _sweep_mse(
            h, h_j, consts["rho"], consts["awgn_var"], consts["p_t"], grid_n
        )
    else:
        rng_s = _stream(sc.seed, draw, 1)
        symbols = [sample_psk(rng_s, sc.d, sc.k) for _ in range(n_symbols)]
        q11, q12, feas, values = _sweep_power(
            h, h_j, consts["rho"], consts["awgn_var"], consts["targets"],
            sc.p, sc.theta, grid_n, symbols,
        )
    boundary = _boundary_mask(feas)
    flat = np.where(feas, values, -np.inf)
    arg = np.unravel_index(int(np.argmax(flat)), flat.shape)
    return SweepResult(
        q11=q11,
        q12=q12,
        values=values,
        feasible=feas,
        boundary=boundary,
        argmax_q=(float(q11[arg[0]]), float(q12[arg[1]])),
        argmax_on_boundary=bool(boundary[arg]),
        mode=mode,
    )


def sweep_q_grid(sc: Scenario, grid_n: int = 21, n_symbols: int = 50) -> SweepResult:
    """Evaluate the worst-case metric surface over the feasible (q11, q12) disk.

    BLP methods sweep the closed-form MSE of the pre-whitened design; SLP
    methods sweep the average transmit-only minimum power over n_symbols
    symbol draws. Channels come from the scenario's trial-0 stream.
    """
    mode = "mse" if sc.method in BLP_METHODS else "power"
    return _draw_surface(sc, 0, grid_n, n_symbols, mode)


def _verify_lemma(sc, grid_n, n_draws, n_symbols, mode, passes, pass_fraction) -> LemmaReport:
    """Per-draw argmax of the `mode` surface, judged by passes(surface)."""
    per_draw = []
    for draw in range(n_draws):
        res = _draw_surface(sc, draw, grid_n, n_symbols, mode)
        per_draw.append((res.argmax_q[0], res.argmax_q[1], bool(passes(res))))
    n_pass = sum(ok for _, _, ok in per_draw)
    return LemmaReport(
        per_draw=tuple(per_draw),
        n_pass=n_pass,
        n_draws=n_draws,
        passed=n_pass >= math.ceil(pass_fraction * n_draws),
    )


def verify_lemma_blp(
    sc: Scenario, grid_n: int = 21, n_draws: int = 100, pass_fraction: float = 0.95
) -> LemmaReport:
    """Check that the worst-case MSE sits at the circular center of the Q disk.

    A draw passes when the grid argmax lies within one grid cell of
    (q11, q12) = (0.5, 0).
    """
    tol = 1.0 / (grid_n - 1) + 1e-9

    def at_center(res):
        return abs(res.argmax_q[0] - 0.5) <= tol and abs(res.argmax_q[1]) <= tol

    return _verify_lemma(sc, grid_n, n_draws, 0, "mse", at_center, pass_fraction)


def verify_lemma_slp(
    sc: Scenario,
    grid_n: int = 21,
    n_draws: int = 100,
    n_symbols: int = 50,
    pass_fraction: float = 0.95,
) -> LemmaReport:
    """Check that the worst-case transmit power sits on the rank-one boundary.

    A draw passes when the grid argmax of the average minimum power is a
    boundary cell of the feasible disk (rank-deficient covariance); an
    interior maximum fails the draw.

    The verdict concerns the coupled exact-covariance power surface, which
    for QPSK may peak inside the disk: with a zero preset margin each user's
    own minimum power is then invariant in Q, so only the coupling between
    users moves it. Each margin constraint on its own always peaks on the
    boundary; the supplementary acceptance test c02p checks that
    per-constraint form (see docs/DECISIONS.md).
    """
    return _verify_lemma(
        sc, grid_n, n_draws, n_symbols, "power",
        lambda res: res.argmax_on_boundary, pass_fraction,
    )
