"""Monte-Carlo engine: channels, symbols, receiver pipelines and metrics.

Each channel realization ("trial") draws fresh BS-user and jammer channels,
computes the selected precoder, transmits a block of PSK symbol vectors with
jamming plus AWGN redrawn every slot, detects, and accumulates symbol / bit /
block error counts and transmit power. Randomness is derived from
counter-based Philox streams keyed by (master seed, trial, slot), so results
are bit-identical regardless of how trials are distributed over worker
threads.

Each trial is one ``_TrialEngine(sc, trial)``: its constructor draws the
trial's channels and jammer covariance from the trial's set-up stream and
builds every per-trial constant once (the noise covariances, the jammer
mixing matrix, the BLP precoder, or each user's channel pair and, for
designs whose bounds do not depend on the symbol, each user's bounds). Its
``run`` method makes three passes over the slots: a draw pass stores each
slot's symbol indices, jammer draw and AWGN draw; a solve pass designs the
distinct symbol-index vectors, in order of first appearance, in one call,
so that the SLP designs solve all of the trial's QPs in one batch
(``solver.solve_min_norm_batch``); a detect pass adds each slot's noise and
counts its errors. Within a trial only d^K symbol vectors and d K (user,
symbol) pairs exist, so the transmit vector, its power and the noise-free
received points are kept once per distinct symbol-index vector, and each
user's margin rows with their bounds once per (user, symbol index), both
dropped with the trial. The reused values are the ones a fresh computation
would return, because they are deterministic functions of the same inputs,
and the batched QPs have the bits of one solve each, so every output byte
is the same as designing each slot in turn.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import blp as _blp
from . import slp as _slp
from .noisegeom import (
    CIRCULAR_Q,
    boundary_normals,
    chi2_scale,
    effective_cov,
    jammer_model,
    q_from_elements,
    q_rank_one,
    rotated_cov,
    wedge_exit_probability,
)
from .solver import _min_norm_kernel, _solve
from .wlalg import SymMat2, collapse_vec, expand_row, expand_vec, sqrt_inv_psd2, symbol_rotation

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

# Per PSK order d: the number of bits that differ between the Gray codes
# g(i) = i ^ (i >> 1) of 0-based symbol indices i and j, as [i][j].
_BIT_ERRORS = {
    d: [[bin(i ^ (i >> 1) ^ j ^ (j >> 1)).count("1") for j in range(d)] for i in range(d)]
    for d in (2, 4, 8, 16)
}

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

    kind is one of "circular", "elements" (args (q11, q12) inside the PSD
    disk, checked on construction), "rank_one" (args (phi,), a fixed
    orientation), or "random_rank_one" (orientation redrawn uniformly on
    [0, pi) each trial). KINDS gives the number of args each kind takes; the
    config grammar is ``kind`` or ``kind:arg,...`` with that many values,
    each finite.
    """

    kind: str = "circular"
    args: tuple = ()

    KINDS = {"circular": 0, "elements": 2, "rank_one": 1, "random_rank_one": 0}

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown covariance spec kind: {self.kind}")
        if len(self.args) != self.KINDS[self.kind]:
            raise ValueError(f"{self.kind} spec takes {self.KINDS[self.kind]} values, got {len(self.args)}")
        if not all(map(math.isfinite, self.args)):
            raise ValueError(f"{self.kind} spec values must be finite, got {self.args}")
        if self.kind == "elements":
            q_from_elements(*self.args)  # raises InfeasibleQ outside the PSD disk

    def draw(self, rng) -> SymMat2:
        if self.kind == "elements":
            return q_from_elements(*self.args)
        if self.kind == "rank_one":
            return q_rank_one(*self.args)
        if self.kind == "random_rank_one":
            return q_rank_one(rng.uniform(0.0, math.pi))
        return CIRCULAR_Q

    @property
    def rank_deficient(self) -> bool:
        """Whether the covariance is singular (rank one) in every trial."""
        if self.kind == "elements":
            return q_from_elements(*self.args).det() <= 0.0
        return self.kind in ("rank_one", "random_rank_one")

    def label(self) -> str:
        return f"{self.kind}:{','.join(map(repr, self.args))}" if self.args else self.kind


@dataclass(frozen=True)
class Scenario:
    """Complete configuration of one Monte-Carlo run.

    The linear constants the designs and the engine use (jammer power rho2
    and amplitude rho, the AWGN variance shared by every user, the power
    budget p_t and the preset margin delta0; None without their dB key) are
    derived from the fields once, on first use. Every dB field must have a
    finite linear value; -inf is allowed for rho2_db (no jammer) and psi_db
    (zero preset margin), and p_t_db must give a positive budget whose square
    is finite (the BLP designs' precoder power is of order p_t^2).
    """

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
        if self.d not in _BIT_ERRORS:
            raise ValueError("PSK order must be one of 2, 4, 8, 16")
        if self.trials < 1 or self.block_len < 1:
            raise ValueError("trials and block_len must be at least 1")
        if not 0.0 < self.p < 1.0:
            raise ValueError("confidence level must be in (0, 1)")
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method}")
        if self.method in BLP_METHODS + MSM_METHODS and self.p_t_db is None:
            raise ValueError(f"method {self.method} requires a transmit power budget")
        if self.method in MINPOWER_METHODS and self.psi_db is None:
            raise ValueError(f"method {self.method} requires an SNR threshold psi_db")
        if not (math.isfinite(self.awgn_std) and self.awgn_std >= 0.0):
            raise ValueError("awgn_std must be finite and nonnegative")
        for key in ("rho2_db", "psi_db", "p_t_db"):
            db = getattr(self, key)
            if db is None:
                continue
            try:
                lin = db_to_linear(db)
            except OverflowError:
                lin = math.inf
            if not math.isfinite(lin):
                raise ValueError(f"{key} = {db!r} has no finite linear value")
            if key == "p_t_db" and lin <= 0.0:
                raise ValueError(f"p_t_db = {db!r} gives no positive transmit power budget")
            if key == "p_t_db" and not math.isfinite(lin * lin):
                raise ValueError(f"p_t_db = {db!r} gives a budget whose square overflows")
        if self.psi_db is not None and not math.isfinite(self.delta0):
            raise ValueError(f"psi_db = {self.psi_db!r} gives an infinite preset margin")
        if self.n_div < 1:
            raise ValueError("n_div must be at least 1")
        if self.awgn_std == 0.0:
            # The BLP designs and the pw_* receivers whiten a noise covariance.
            if self.method in _WHITENED_RX and self.q_spec.rank_deficient:
                raise ValueError(
                    f"method {self.method} whitens the effective noise, which is singular "
                    "for a rank-deficient jammer covariance unless awgn_std > 0"
                )
            if self.method == "naive_blp":
                raise ValueError("method naive_blp whitens the AWGN alone, which is zero unless awgn_std > 0")
            if self.method in _WHITENED_RX | {"robust_blp"} and self.rho2 == 0.0:
                raise ValueError(
                    f"method {self.method} whitens the effective noise, which is zero "
                    "without a jammer (rho2 = 0) unless awgn_std > 0"
                )

    @property
    def theta(self) -> float:
        return math.pi / self.d

    @property
    def c_bits(self) -> int:
        """Bits per PSK symbol."""
        return int(math.log2(self.d))

    @cached_property
    def rho2(self) -> float:
        return db_to_linear(self.rho2_db)

    @cached_property
    def rho(self) -> float:
        return math.sqrt(self.rho2)

    @cached_property
    def awgn_var(self) -> float:
        return self.awgn_std ** 2

    @cached_property
    def p_t(self) -> float | None:
        return None if self.p_t_db is None else db_to_linear(self.p_t_db)

    @cached_property
    def delta0(self) -> float | None:
        """Preset safety margin of the SNR threshold psi_db, shared by every user."""
        return None if self.psi_db is None else margin_from_psi(self.psi_db, self.theta, self.rho2, self.awgn_var)


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
    return math.sin(theta) * math.sqrt(psi * (rho2 + sigma2))


def energy_efficiency(bler: float, c_bits: float, k: int, avg_power: float) -> float:
    """Throughput (1 - P_B) c T K divided by the energy T * avg_power per block."""
    if avg_power <= 0.0:
        return 0.0
    return (1.0 - bler) * c_bits * k / avg_power


class _TrialEngine:
    """One Monte-Carlo trial: its draws, its per-trial constants and its slot loop.

    Set-up draws the trial's channels and jammer covariance from its slot-0
    stream and builds everything that depends on the trial only: the noise
    covariances, the jammer mixing matrix, the BLP precoder, or each user's
    channel pair and, where the bounds do not depend on the symbol, that
    user's bounds (pw_slp's matched-reliability targets, naive_slp's
    circularised bounds; None, rows only, for the maximin designs). nc_slp
    and robust_slp bound a user per symbol, so their bounds come from
    ``bound_fn``. Each user's (rows, bounds) term is built once per (user,
    symbol index) on first use and reused by every later symbol vector of
    the trial; a new symbol vector then costs one stacking and its share of
    the trial's batched QP solve.
    """

    def __init__(self, sc: Scenario, trial: int):
        self.sc, self.trial = sc, trial
        k, method, theta = sc.k, sc.method, sc.theta
        self.rng = _stream(sc.seed, trial, 0)   # re-keyed to each slot by run()
        h, h_j = self.h, self.h_j = sample_channels(self.rng, sc.m, k)
        jam = jammer_model(sc.rho, sc.q_spec.draw(self.rng))
        self.mix = (sc.rho * jam.t_factor).T
        self.const = psk_constellation(sc.d)
        covs = self.covs = [effective_cov(h_j[i], jam, sc.awgn_var) for i in range(k)]
        self.whiten = None
        if method in _WHITENED_RX:
            self.whiten = [sqrt_inv_psd2(g) for g in covs]
        self.terms = [[None] * sc.d for _ in range(k)]   # (user, symbol index) -> (rows, bounds)
        if method == "pw_blp":
            self.precoder = _blp.pw_blp(h, covs, sc.p_t)
        elif method == "robust_blp":
            self.precoder = _blp.robust_blp(h, sc.awgn_var, sc.rho2 * np.abs(h_j) ** 2, sc.p_t)
        elif method == "naive_blp":
            self.precoder = _blp.naive_blp(h, sc.awgn_var, sc.p_t)
        elif method in ("pw_msm", "pw_slp"):
            self.pairs = [_slp.whitened_effective_channel(h[i], covs[i]) for i in range(k)]
        else:
            self.pairs = [expand_row(h[i]) for i in range(k)]
        omega = chi2_scale(sc.p)
        self.bounds = [None] * k   # per-user symbol-free bounds
        self.bound_fn = None       # (user, symbol) -> bounds, for symbol-dependent designs
        if method == "pw_slp":
            # Matched-reliability whitened-domain targets: after whitening
            # the noise is circular with power sigma_k^2 = tr G_k; the
            # raw-domain designs apply the same preset with their own
            # (elliptical or circularized) confidence terms.
            self.bounds = [_slp.circular_bounds(g.trace(), sc.delta0, omega, theta) for g in covs]
        elif method == "naive_slp":
            self.bounds = [
                _slp.naive_bounds(h_j[u], sc.rho2, sc.awgn_var, sc.delta0, omega, theta) for u in range(k)
            ]
        elif method == "nc_slp":
            self.bound_fn = lambda u, s_k: _slp.nc_bounds(covs[u], s_k, sc.delta0, sc.p, theta)
        elif method == "robust_slp":
            self.bound_fn = lambda u, s_k: _slp.robust_bounds(
                h_j[u], sc.rho2, sc.awgn_var, s_k, sc.delta0, omega, theta, sc.n_div
            )

    def design(self, vectors) -> list:
        """Complex transmit vectors for distinct vectors of 1-based symbol indices, in order.

        The SLP designs solve every vector's QP in one batch. A vector whose
        terms, rows or QP fail raises that failure, and an earlier vector's
        failure comes first, as one design call per vector would have it.
        """
        sc = self.sc
        if sc.method in BLP_METHODS:
            return [collapse_vec(self.precoder.p @ expand_vec(self.const[idx - 1])) for idx in vectors]
        built, terms = [], self.terms
        try:
            for idx in vectors:
                built.append([terms[u][i] or self.term(u, i) for u, i in enumerate((idx - 1).tolist())])
        except Exception:
            if built:
                self.solve(built)   # raises an earlier vector's failure first
            raise
        return [collapse_vec(xb) for xb in self.solve(built)]

    def term(self, u: int, i: int):
        """Build and keep user u's (rows, bounds) for 0-based symbol index i."""
        s_k = self.const[i]
        bounds = self.bounds[u] if self.bound_fn is None else self.bound_fn(u, s_k)
        entry = self.terms[u][i] = _slp.user_terms(self.pairs[u], s_k, self.sc.theta, bounds)
        return entry

    def solve(self, terms) -> list:
        """Real-stacked transmit vectors of per-vector terms."""
        if self.sc.method in MSM_METHODS:
            return [x for x, _ in _slp.solve_max_margin(terms, self.sc.p_t)]
        return [sol.x for sol in _slp.solve_min_power(terms)]

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

    def run(self, integrate: bool):
        """(symbol errors, bit errors, summed transmit power, noise-integrated SER) of the trial.

        The per-user error counts are int64 arrays; the noise-integrated
        per-user SER (see ``exit_probability``) is None unless `integrate`.
        Three passes over the slots:

        1. Draw: each slot re-keys the trial's generator to its own (seed,
           trial, slot) stream (:func:`_rekey`) and draws its symbol indices,
           its jammer draw and its AWGN draw, in that order, and they are
           stored.
        2. Solve: one :meth:`design` call for the distinct index vectors, in
           order of first appearance; each gives its transmit vector x, its
           power and the noise-free received points rx = h x.
        3. Detect: each slot adds its stored noise to its vector's rx, detects
           and counts errors.

        The transmit vector depends only on the trial and the index vector,
        so every slot that draws a vector again reuses its values, exactly:
        a repeat would recompute the same deterministic function of the same
        inputs. The stored draws are the ones a slot loop would draw, so every
        output byte is the same as designing each slot in turn.
        """
        sc, trial, rng, h, h_j, mix = self.sc, self.trial, self.rng, self.h, self.h_j, self.mix
        k, d, bit_errors = sc.k, sc.d, _BIT_ERRORS[sc.d]
        awgn_scale = math.sqrt(0.5 * sc.awgn_var)
        slots = []
        first = {}   # symbol-index vector -> its indices, in order of first appearance
        for slot in range(1, sc.block_len + 1):
            _rekey(rng, sc.seed, trial, slot)
            idx = _draw_index(rng, d, k)
            zv = rng.standard_normal(2) @ mix
            nv = awgn_scale * rng.standard_normal((k, 2))
            key = idx.tobytes()
            first.setdefault(key, idx)
            slots.append((key, idx, complex(zv[0], zv[1]), nv[:, 0] + 1j * nv[:, 1]))
        memo = {   # symbol-index vector -> (transmit power, noise-free received points)
            key: (float(np.real(x @ np.conj(x))), h @ x)
            for key, x in zip(first, self.design(list(first.values())))
        }
        sym_err = np.zeros(k, dtype=np.int64)
        bit_err = np.zeros(k, dtype=np.int64)
        power_sum = 0.0
        rx_block = np.empty((sc.block_len, k), dtype=complex) if integrate else None
        idx_block = np.empty((sc.block_len, k), dtype=np.int64) if integrate else None
        for slot, (key, idx, z, w) in enumerate(slots):
            power, rx = memo[key]
            power_sum += power
            y = rx + h_j * z + w
            if rx_block is not None:
                rx_block[slot] = rx
                idx_block[slot] = idx
            for u in range(k):
                det = self.detect(y[u], u)
                if det != idx[u]:
                    sym_err[u] += 1
                    bit_err[u] += bit_errors[idx[u] - 1][det - 1]
        ser_integrated = self.exit_probability(rx_block, idx_block).mean(axis=0) if integrate else None
        return sym_err, bit_err, power_sum, ser_integrated


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
    trials = sc.trials

    def run(t):
        return _TrialEngine(sc, t).run(noise_integrated)

    if threads <= 1:
        stats = [run(t) for t in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            stats = list(pool.map(run, range(trials)))
    k, t_len, c_bits = sc.k, sc.block_len, sc.c_bits
    sym_err, bit_err, power_sum, ser_integrated = zip(*stats)
    sym = np.vstack(sym_err)            # trials x K
    bits = np.vstack(bit_err)
    blk = (sym > 0).astype(float)       # a user's block is in error when any of its symbols is
    power = np.array([p / t_len for p in power_sum])
    ser_int = np.vstack(ser_integrated) if noise_integrated else None
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
            energy_efficiency(b, c_bits, k, pw)
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
        ee=energy_efficiency(bler, c_bits, k, avg_power),
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


def _sweep_mse(sc: Scenario, h, h_j, q11, q12) -> np.ndarray:
    """Closed-form MSE of the pre-whitened BLP design at each cell (q11[c], q12[c])."""
    values = []
    for q1, q2 in zip(q11, q12):
        jam = jammer_model(sc.rho, q_from_elements(q1, q2))
        covs = [effective_cov(hj, jam, sc.awgn_var) for hj in h_j]
        values.append(_blp.mse_closed_form(h, covs, sc.p_t))
    return np.array(values)


def _sweep_power(sc: Scenario, h, h_j, q11, q12, symbols) -> np.ndarray:
    """Average minimum power of the transmit-only design at each cell (q11[c], q12[c]).

    The per-user squared margin terms are affine in (q11, q12), so for each
    symbol draw the constraint matrix and its Gram matrix are fixed and only
    the QP bounds vary across the cells.

    For a fixed active set S the optimum is affine in the bounds b:
    mu = G_SS^-1 2 b_S and x = A_S^T mu / 2, and it is the cell's optimum
    exactly when mu >= 0 and A x >= b - eps_p (the full KKT conditions).
    The kernel finds S at one cell; the cells after it are certified against
    S in windows of 4, 8, 16, ... cells, one stacked solve and two stacked
    matmuls per window, and the kernel runs again at the first cell that
    fails. The stacked gufunc forms (gesv per right-hand-side row, matmul per
    stacked vector) compute each cell with the same operations as a solve
    and matmul on that cell alone, so every cell's power has the bits of the
    per-cell check before it, and the kernel runs on the same cells.
    """
    k = h.shape[0]
    omega = chi2_scale(sc.p)
    theta = sc.theta
    cos_t = math.cos(theta)
    normals = boundary_normals(theta)
    rho2 = sc.rho * sc.rho
    half_awgn = 0.5 * sc.awgn_var
    n_cells = len(q11)

    totals = np.zeros(n_cells)
    for s in symbols:
        rows = []
        coeffs = []
        for u in range(k):
            rows += _slp.user_terms(expand_row(h[u]), s[u], theta)[0]
            jv = symbol_rotation(s[u]).T @ expand_row([h_j[u]])
            for nvec in normals:
                w = jv.T @ nvec
                # w^T Q w = w2^2 + q11 (w1^2 - w2^2) + 2 q12 w1 w2
                coeffs.append((w[1] ** 2, w[0] ** 2 - w[1] ** 2, 2.0 * w[0] * w[1]))
        a = np.vstack(rows)
        gram = a @ a.T
        row_norm2 = np.einsum("ij,ij->i", a, a)
        const, lin11, lin12 = np.array(coeffs).T
        # bounds per cell: delta0 cos(theta) + sqrt(omega (rho^2 w^T Q w + awgn/2))
        qf = const[None, :] + q11[:, None] * lin11[None, :] + q12[:, None] * lin12[None, :]
        qf = np.maximum(qf, 0.0)
        bounds_all = sc.delta0 * cos_t + np.sqrt(omega * (rho2 * qf + half_awgn))
        eps_p = 1e-9 * max(1.0, float(np.max(bounds_all)))
        ci = 0
        while ci < n_cells:
            x, _, active = _min_norm_kernel(a, bounds_all[ci], gram, row_norm2)
            totals[ci] += float(x @ x)
            ci += 1
            if not active:
                continue
            s_arr = np.asarray(active)
            g_ss = gram[s_arr[:, None], s_arr]
            a_st = a[s_arr].T
            width = 4
            while ci < n_cells:
                b_w = bounds_all[ci:ci + width]
                try:
                    mu = _solve(g_ss, 2.0 * b_w[:, s_arr])
                except np.linalg.LinAlgError:
                    # A singular G_SS fails every cell; anything else fails
                    # only some, so retry one cell at a time to find which.
                    if width == 1:
                        break
                    width = 1
                    continue
                x_w = 0.5 * np.matmul(a_st, mu[:, :, None])[:, :, 0]
                ok = (mu >= 0.0).all(1) & (np.matmul(a, x_w[:, :, None])[:, :, 0] - b_w >= -eps_p).all(1)
                n_ok = len(ok) if ok.all() else int(ok.argmin())
                x_ok = x_w[:n_ok]
                totals[ci:ci + n_ok] += np.matmul(x_ok[:, None, :], x_ok[:, :, None])[:, 0, 0]
                ci += n_ok
                if n_ok < len(ok):
                    break
                width *= 2
    return totals / len(symbols)


def _draw_surface(sc: Scenario, draw: int, grid_n: int, n_symbols: int, mode: str) -> SweepResult:
    """Metric surface of one channel draw over the feasible (q11, q12) disk.

    The channels come from trial `draw`'s set-up stream. Mode "mse" sweeps
    the closed-form MSE of the pre-whitened BLP design; mode "power" sweeps
    the transmit-only minimum power averaged over n_symbols symbol vectors
    drawn from the trial's slot-1 stream. Each sweep returns one value per
    feasible cell, in row-major order.
    """
    if grid_n < 5:
        raise ValueError("grid resolution must be at least 5")
    q11, q12 = _grid_axes(grid_n)
    feas = _feasible_mask(q11, q12)
    cells = np.argwhere(feas)
    q11_c = q11[cells[:, 0]]
    q12_c = q12[cells[:, 1]]
    h, h_j = sample_channels(_stream(sc.seed, draw, 0), sc.m, sc.k)
    if mode == "mse":
        cell_values = _sweep_mse(sc, h, h_j, q11_c, q12_c)
    else:
        rng_s = _stream(sc.seed, draw, 1)
        symbols = [sample_psk(rng_s, sc.d, sc.k) for _ in range(n_symbols)]
        cell_values = _sweep_power(sc, h, h_j, q11_c, q12_c, symbols)
    values = np.full((grid_n, grid_n), np.nan)
    values[cells[:, 0], cells[:, 1]] = cell_values
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


SURFACE_KEYS = {"mse": "p_t_db", "power": "psi_db"}  # the dB key each surface is computed from


def surface_mode(method: str) -> str:
    """The surface sweep_q_grid draws for a method: BLP MSE or SLP transmit power."""
    return "mse" if method in BLP_METHODS else "power"


def sweep_q_grid(sc: Scenario, grid_n: int = 21, n_symbols: int = 50) -> SweepResult:
    """Evaluate the worst-case metric surface over the feasible (q11, q12) disk.

    BLP methods sweep the closed-form MSE of the pre-whitened design; SLP
    methods sweep the average transmit-only minimum power over n_symbols
    symbol draws. Channels come from the scenario's trial-0 stream.
    """
    return _draw_surface(sc, 0, grid_n, n_symbols, surface_mode(sc.method))


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
