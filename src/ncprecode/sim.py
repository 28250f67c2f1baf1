"""Monte-Carlo engine: channels, symbols, receiver pipelines and metrics.

Each channel realization ("trial") draws fresh BS-user and jammer channels,
computes the selected precoder, transmits a block of PSK symbol vectors with
jamming plus AWGN redrawn every slot, detects, and accumulates symbol / bit /
block error counts and transmit power. Randomness is derived from
counter-based Philox streams keyed by (master seed, trial, slot), so results
are bit-identical regardless of how trials are distributed over worker
threads.

Trials run in chunks of consecutive trials, ``max(1, CHUNK_SLOTS //
block_len)`` at a time. A chunk is set up in one pass over its trials by
one ``_TrialEngine``: each trial's set-up stream fills one row of a draw
buffer (and, for a random rank-one jammer, draws its orientation), the only
per-trial work; every trial's channels and jammer covariance are then
assembled from the buffer at once, by the code of the one-trial
``sample_channels`` and ``QSpec.draw``, and every per-trial constant (the
jammer mixing matrices, the noise covariances where a method or the
integrated SER reads them, the whiteners, the BLP precoders, or each user's
channel pair and, for designs whose bounds do not depend on the symbol, each
user's bounds) is built for all of the chunk's trials and users at once, by
the broadcasting 2x2 primitives of ``wlalg``, ``noisegeom``, ``blp`` and
``slp``: one per-method builder from ``_BUILDERS`` over (trial, user)
stacks, each covariance whitened once. The engine names a trial by its place in the chunk, and
``_run_chunk`` then makes three passes over every (trial, slot) pair of the
chunk, as arrays: a draw pass fills arrays with each slot's symbol indices,
jammer draw and AWGN draw; a solve pass designs each trial's distinct
symbol-index vectors, trial by trial and in order of first appearance, in
one call, which builds each distinct (trial, user, symbol) term once, in one
stacked call, and solves all of the chunk's QPs in one batch
(``solver.solve_min_norm_batch``), whose stacked results become the
transmit vectors without an object per QP; a detect pass adds the noise to
every point at once and counts the errors, and, when asked, integrates the
noise out of every point in one stacked call. Within a trial only d^K symbol
vectors and d K (user, symbol) pairs exist, so the transmit vector, its
power and the noise-free received points are kept once per distinct
symbol-index vector. The reused values are the ones a fresh computation
would return, because they are deterministic functions of the same inputs;
the stacked set-up gives every item the bits of its one-trial scalar call
(tests/test_setup_reference.py); and the batched QPs have the bits of one
solve each, so every output byte is the same as setting up each trial and
designing each slot in turn, for any chunk and any thread count.

A slot's symbol indices come from the raw Philox bits (``_raw_indices``),
with the values and the stream position of ``Generator.integers``.
Detection is one array pass (``_detect``): every point is whitened (for the
whitening receivers) in one stacked product, np.arctan2 and ceil give its
decision sector, and a point whose sector coordinate lies within
``SECTOR_GUARD`` of an integer (a decision-boundary ray, the 0/2 pi wrap and
y = 0 among them) or that is not finite is decided by ``psk_detect`` on the
same whitened coordinates, so every decision and every exception is the
scalar detector's. A chunk that raises runs again trial by trial, so the
earliest failing trial raises its own failure.

The covariance-grid sweeps (``sweep_q_grid`` and the two lemma checks)
evaluate one channel draw's surface over the feasible (q11, q12) disk. The
power sweep (``_sweep_power``) solves one min-power QP per symbol vector
and cell; every symbol chain's rows and bounds are built in one stacked
pass (``_sweep_chains``), its symbol chains advance in rounds, each round's
kernel calls in one ``solver.solve_min_norm_batch`` call on the live
chains, whose stacked result gives every chain's power and active list, and
each chain certifies that active set on the cells after it. Every cell's
power has the bits of a chain-by-chain sweep.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import blp as _blp
from . import slp as _slp
from .errors import PrecodingError
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
from .solver import _min_norm_kernel, _solve, solve_maximin_batch, solve_min_norm_batch
from .wlalg import collapse_vec, expand_row, expand_vec, sqrt_inv_psd2, symbol_rotation

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
    "surface_mode",
    "SURFACE_KEYS",
    "verify_lemma_blp",
    "verify_lemma_slp",
    "_min_norm_kernel",   # re-exported: the benchmark's tests check that its tracer wraps this binding
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

# Trials run in chunks of max(1, CHUNK_SLOTS // block_len), each chunk's
# (trial, slot) pairs drawn, designed and detected as arrays. It bounds a
# chunk's arrays; a trial of CHUNK_SLOTS slots or more is a chunk of its own
# (see docs/DECISIONS.md for why this size).
CHUNK_SLOTS = 512

# A point whose decision-sector coordinate phase * d / (2 pi) lies this close
# to an integer is decided by the scalar detector: np.arctan2 may differ from
# math.atan2 in the last bit, which moves the coordinate by about 1e-15.
SECTOR_GUARD = 1e-9

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _key(seed: int, trial: int, slot: int) -> tuple:
    return seed & _MASK64, ((trial & _MASK32) << 32) | (slot & _MASK32)


def _stream(seed: int, trial: int, slot: int) -> np.random.Generator:
    """Philox generator keyed by (seed, trial, slot); slot 0 = trial setup."""
    return np.random.Generator(np.random.Philox(key=np.array(_key(seed, trial, slot), dtype=np.uint64)))


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

    def draw(self, rng) -> np.ndarray:
        """One trial's covariance; random_rank_one draws its orientation from rng."""
        return self.covariances(rng.uniform(0.0, math.pi) if self.kind == "random_rank_one" else None)

    def covariances(self, phi) -> np.ndarray:
        """random_rank_one's covariances (..., 2, 2) at orientations phi (...); a fixed kind's one (2, 2) matrix."""
        if self.kind == "elements":
            return q_from_elements(*self.args)
        if self.kind == "circular":
            return CIRCULAR_Q
        return q_rank_one(*self.args or (phi,))   # rank_one's fixed orientation, else phi

    @property
    def rank_deficient(self) -> bool:
        """Whether the covariance is singular (rank one) in every trial."""
        if self.kind == "elements":
            q = q_from_elements(*self.args)
            return bool(q[0, 0] * q[1, 1] - q[0, 1] * q[0, 1] <= 0.0)
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
    is finite (the BLP designs' precoder power is of order p_t^2). awgn_std
    must be finite and nonnegative, with a finite square (the AWGN variance).
    The master seed must lie in [0, 2^64): the random streams are keyed by
    its 64 bits, so a seed outside that range would alias one inside it.
    Without AWGN, a design or receiver that whitens the noise needs a noise
    covariance it can whiten: naive_blp never has one; robust_blp and the
    pw_* methods need a jammer power of at least the smallest normal float
    (a subnormal one underflows the covariance), and the pw_* methods a
    full-rank jammer covariance.
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
        if self.m < 1 or self.k < 1:
            raise ValueError("m and k must be at least 1")
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
        if not math.isfinite(self.awgn_std * self.awgn_std):
            raise ValueError(f"awgn_std = {self.awgn_std!r} gives a noise variance that overflows")
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
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed = {self.seed!r} is outside [0, 2^64)")
        if self.awgn_std == 0.0:
            # The BLP designs and the pw_* receivers whiten a noise covariance.
            if self.method in _WHITENED_RX and self.q_spec.rank_deficient:
                raise ValueError(
                    f"method {self.method} whitens the effective noise, which is singular "
                    "for a rank-deficient jammer covariance unless awgn_std > 0"
                )
            if self.method == "naive_blp":
                raise ValueError("method naive_blp whitens the AWGN alone, which is zero unless awgn_std > 0")
            # A subnormal jammer power leaves a noise covariance whose entries underflow.
            if self.method in _WHITENED_RX | {"robust_blp"} and self.rho2 < sys.float_info.min:
                raise ValueError(
                    f"method {self.method} whitens the effective noise, which is zero or too small to whiten "
                    f"unless awgn_std > 0 or the jammer power is a normal float (rho2 = {self.rho2!r})"
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
    return _channels(rng.standard_normal(2 * k * (m + 1)), m, k)   # one call draws what four consecutive ones would


def _channels(z: np.ndarray, m: int, k: int):
    """Channel rows (..., K, M) and jammer gains (..., K) of standard normals z (..., 2K(M+1)), in draw order.

    Every operation is elementwise, so each row of a stack of draws gets the
    bits of its own one-trial call.
    """
    scale = 1.0 / math.sqrt(2.0)
    re, im = np.moveaxis(z[..., :2 * k * m].reshape(z.shape[:-1] + (2, k, m)), -3, 0)
    return scale * (re + 1j * im), scale * (z[..., 2 * k * m:-k] + 1j * z[..., -k:])   # h and h_j


def psk_constellation(d: int) -> np.ndarray:
    """The D phase points exp(j pi (2i - 1) / D), i = 1..D."""
    return np.exp(1j * np.pi * (2.0 * np.arange(1, d + 1) - 1.0) / d)


def sample_psk(rng, d: int, k: int) -> np.ndarray:
    """Uniform unit-magnitude PSK symbols for k users."""
    return psk_constellation(d)[rng.integers(1, d + 1, size=k) - 1]


def _raw_indices(raw: np.ndarray, d: int, k: int) -> np.ndarray:
    """Per row of raw 64-bit Philox words, the k 1-based symbol indices ``integers`` would draw.

    ``rng.integers(1, d + 1, size=k)`` takes k 32-bit halves of the stream,
    low half first, and maps each u to (u d) >> 32 (Lemire's method). Its
    rejection threshold (2^32 - d) mod d is 0 for a power-of-two d, so it
    never rejects, and the first k halves of ``random_raw((k + 1) // 2)``
    give its values and leave the 64-bit stream where it leaves it.
    """
    halves = np.stack([raw & _MASK32, raw >> 32], axis=-1).reshape(len(raw), -1)[:, :k]
    return ((halves * d >> 32) + 1).astype(np.int64)


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


def energy_efficiency(bler, c_bits: float, k: int, avg_power):
    """Throughput (1 - P_B) c T K divided by the energy T * avg_power per block; 0 where the power is not positive.

    bler and avg_power broadcast: one np.divide, so every item is the
    scalar rule's quotient, bit for bit; a NaN power gives NaN.
    """
    power = np.asarray(avg_power, dtype=float)
    return np.divide(
        (1.0 - bler) * c_bits * k, power, out=np.zeros(np.broadcast(bler, power).shape), where=~(power <= 0.0)
    )[()]


class _TrialEngine:
    """The set-up of a chunk of consecutive trials, as (trial, user) stacks, with its integrated SER.

    One Philox generator, re-keyed to each trial's set-up stream (seed,
    trial, 0), draws the trials' channels and jammer covariances in trial
    order (:meth:`draw`); the slot draws re-key it again
    (:func:`_run_chunk`). Everything that depends on a trial only is then
    built once for all of the chunk's trials: the jammer mixing matrices
    (trials x 2 x 2), for the whitening receivers the whiteners of the
    effective-noise covariances (trials x users x 2 x 2; ``covs``, built on
    first use, which the other methods need only for the integrated SER or
    nc_slp's bounds), and the method's own constants from ``_BUILDERS``:
    the BLP precoders, or each user's channel pair (trials x users x 2 x
    2M) and either the bounds that do not depend on the symbol (pw_slp's
    matched-reliability targets, naive_slp's circularised bounds; trials x
    users x 2) or ``bound_fn``, which bounds (trial place, user, symbol)
    triples for nc_slp and robust_slp; the maximin designs have rows only.
    Each stacked step gives every item the bits of its one-trial call; a
    step that raises is met again by :func:`_run_trials`, trial by trial.
    A trial is named by its place in the chunk, ``pos``.
    """

    precoder = pairs = bounds = bound_fn = None

    def __init__(self, sc: Scenario, trials: range):
        self.sc = sc
        self.rng = _stream(sc.seed, trials[0], 0)
        # the generator's state template: a fresh Philox state, whose key rekey sets
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.h, self.h_j, q = self.draw(trials)
        self.jam = jammer_model(sc.rho, q[:, None])
        self.mix = np.ascontiguousarray((sc.rho * self.jam.t_factor[:, 0]).swapaxes(-1, -2))
        self.whiten = sqrt_inv_psd2(self.covs) if sc.method in _WHITENED_RX else None
        self.const = psk_constellation(sc.d)
        self.omega = chi2_scale(sc.p)
        vars(self).update(_BUILDERS[sc.method](self))

    def rekey(self, trial: int, slot: int) -> None:
        """Reset the chunk's generator to the fresh state of ``_stream(seed, trial, slot)``.

        Counter zero, output buffer empty and no buffered 32-bit half: what
        ``Philox(key=...)`` starts from, without building a generator (and
        the entropy-seeded SeedSequence its constructor makes) for every
        stream. Only the template's key changes; each engine owns its
        generator and template, so chunks on different threads stay apart.
        """
        self.state["state"]["key"] = _key(self.sc.seed, trial, slot)
        self.rng.bit_generator.state = self.state

    def draw(self, trials: range):
        """The trials' channel rows (trials x K x M), jammer gains (trials x K) and jammer covariances (trials x 2 x 2).

        Each trial re-keys the generator to its set-up stream and fills its
        row of one buffer with the 2K(M+1) normals ``sample_channels``
        takes, then, for random_rank_one, the one raw 64-bit word that
        ``QSpec.draw``'s ``uniform(0, pi)`` would take, so the stream ends
        where it does. The chunk's words become orientations at once, with
        uniform's arithmetic, and the channels and covariances of every
        trial are assembled at once, by the code of the one-trial forms.
        """
        m, k, spec = self.sc.m, self.sc.k, self.sc.q_spec
        z = np.empty((len(trials), 2 * k * (m + 1)))
        words = []
        for trial, row in zip(trials, z):
            self.rekey(trial, 0)
            self.rng.standard_normal(out=row)
            if spec.kind == "random_rank_one":
                words.append(self.rng.bit_generator.random_raw())
        # Generator.uniform(0.0, pi) of each word: 0.0 + pi * (53-bit double)
        phi = 0.0 + math.pi * ((np.array(words, dtype=np.uint64) >> 11) * 2.0 ** -53)
        return (*_channels(z, m, k), np.broadcast_to(spec.covariances(phi), (len(trials), 2, 2)))

    @cached_property
    def covs(self) -> np.ndarray:
        """The effective-noise covariances (trials x users x 2 x 2)."""
        return effective_cov(self.h_j, self.jam, self.sc.awgn_var)

    def terms(self, t, u, i):
        """Margin rows (n x 2 x 2M) and bounds (n x 2 or n x n_div x 2) of (trial place, user, symbol index) triples."""
        s = self.const[i]
        if self.bound_fn is not None:
            bounds = self.bound_fn(t, u, s)
        else:
            bounds = None if self.bounds is None else self.bounds[t, u]
        return _slp.margin_rows(self.pairs[t, u][:, None], s[:, None], self.sc.theta), bounds

    def exit_probability(self, rx: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Per-trial, per-slot, per-user probability (trials x slots x users) of a symbol error.

        rx holds the noise-free received points h_k x of every trial place
        and slot, idx the 1-based symbol indices. Pre-whitened receivers
        detect G_k^{-1/2} y, whose noise is N(0, I2); raw receivers see the
        symbol-rotated effective covariance. Every item has the bits of a
        one-trial call (docs/DECISIONS.md).
        """
        sc, const = self.sc, self.const
        if self.whiten is not None:
            zw = np.einsum("nkij,ntkj->ntki", self.whiten, np.stack([rx.real, rx.imag], axis=-1))
            rx = zw[..., 0] + 1j * zw[..., 1]
            cov = np.eye(2)
        else:
            table = rotated_cov(self.covs[:, :, None], const)   # trials x users x symbols x 2 x 2
            cov = table[np.arange(len(rx))[:, None, None], np.arange(sc.k), idx - 1]
        mu = rx * np.conj(const[idx - 1])
        return wedge_exit_probability(np.stack([mu.real, mu.imag], axis=-1), cov, sc.theta)


def _jammer_powers(engine: _TrialEngine) -> np.ndarray:
    """The received jammer powers rho^2 |h_jk|^2 (trials x users); inf, quietly, where they overflow."""
    with np.errstate(over="ignore"):   # a jammer near the float limit: the whitening raises
        return engine.sc.rho2 * np.abs(engine.h_j) ** 2


# Per method: the chunk's precoders, channel pairs, symbol-free bounds or bound function.
_BUILDERS = {
    "naive_blp": lambda c: {"precoder": _blp.naive_blp(c.h, c.sc.awgn_var, c.sc.p_t)},
    "pw_blp": lambda c: {"precoder": _blp.mmse_blp(_blp.stack_whitened(c.h, c.whiten), c.sc.p_t)},
    "robust_blp": lambda c: {"precoder": _blp.robust_blp(c.h, c.sc.awgn_var, _jammer_powers(c), c.sc.p_t)},
    "msm": lambda c: {"pairs": expand_row(c.h)},
    "pw_msm": lambda c: {"pairs": _slp.whitened_effective_channel(c.h, c.covs, c.whiten)},
    # Matched-reliability whitened-domain targets: after whitening the noise
    # is circular with power sigma_k^2 = tr G_k; the raw-domain designs apply
    # the same preset with their own (elliptical or circularized) terms.
    "pw_slp": lambda c: {
        "pairs": _slp.whitened_effective_channel(c.h, c.covs, c.whiten),
        "bounds": _slp.circular_bounds(np.trace(c.covs, axis1=-2, axis2=-1), c.sc.delta0, c.omega, c.sc.theta),
    },
    "naive_slp": lambda c: {
        "pairs": expand_row(c.h),
        "bounds": _slp.naive_bounds(c.h_j, c.sc.rho2, c.sc.awgn_var, c.sc.delta0, c.omega, c.sc.theta),
    },
    "nc_slp": lambda c: {
        "pairs": expand_row(c.h),
        "bound_fn": lambda t, u, s: _slp.nc_bounds(c.covs[t, u], s, c.sc.delta0, c.sc.p, c.sc.theta),
    },
    "robust_slp": lambda c: {
        "pairs": expand_row(c.h),
        "bound_fn": lambda t, u, s: _slp.robust_bounds(
            c.h_j[t, u], c.sc.rho2, c.sc.awgn_var, s, c.sc.delta0, c.omega, c.sc.theta, c.sc.n_div
        ),
    },
}


def _design(engine: _TrialEngine, pos: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Complex transmit vectors (vectors x M) of 1-based symbol-index vectors idx (vectors x K) at trial places pos.

    The SLP designs build the (trial, user, symbol) terms the vectors need,
    each once, in one stacked call, and solve every vector's QP in one
    batch. A vector whose terms or QP fail raises that failure, and an
    earlier vector's failure comes first, as one design call per vector
    would have it: when the stacked call raises, the vectors are designed
    again one at a time, in order, each raising its terms' failure before
    its QP's (docs/DECISIONS.md).
    """
    sc = engine.sc
    if sc.method in BLP_METHODS:   # the precoder's product, one per vector
        return collapse_vec(np.matmul(engine.precoder.p[pos], expand_vec(engine.const[idx - 1])[:, :, None])[..., 0])
    try:
        a, b = _stack_terms(engine, pos, idx - 1)
    except Exception:
        if len(pos) == 1:
            raise
        return np.concatenate([_design(engine, pos[j:j + 1], idx[j:j + 1]) for j in range(len(pos))])
    if sc.method in MSM_METHODS:
        return collapse_vec(solve_maximin_batch(a, sc.p_t)[0])
    return collapse_vec(_slp.solve_min_power(a, b)[0])


def _stack_terms(engine: _TrialEngine, pos: np.ndarray, idx: np.ndarray):
    """Each vector's stacked rows (vectors x 2K x 2M) and bounds (vectors x orientations x 2K).

    pos holds the vectors' trial places and idx their 0-based symbol
    indices (vectors x K); each distinct (trial, user, symbol) term is built
    once, in one :meth:`_TrialEngine.terms` call.
    """
    k, d = engine.sc.k, engine.sc.d
    key = (pos[:, None] * k + np.arange(k)) * d + idx
    uniq, inverse = np.unique(key, return_inverse=True)
    rows, bounds = engine.terms(uniq // (k * d), uniq // d % k, uniq % d)
    n = len(pos)
    a = rows[inverse.ravel()].reshape(n, 2 * k, -1)
    if bounds is None:
        return a, None
    b = bounds[inverse.ravel()].reshape(n, k, -1, 2).transpose(0, 2, 1, 3)
    return a, b.reshape(n, b.shape[1], 2 * k)


def _detect(engine: _TrialEngine, y: np.ndarray) -> np.ndarray:
    """Decisions (trial places x slots x users) for received points y, each ``psk_detect`` of its whitened point.

    Whitened receivers whiten every point with one stacked matmul, which
    makes each point's vector product ``whiten[i, u] @ (re, im)`` bit for
    bit. np.arctan2 and ceil then give each decision sector. A point whose
    sector coordinate lies within SECTOR_GUARD of an integer, or that is
    not finite, is decided by ``psk_detect`` of its whitened coordinates, in
    trial, slot and user order: the decision-boundary rays, the 0/2 pi wrap
    and y = 0 (whose phase is 0 or +-pi) all lie on integers, and NaN raises
    the scalar ValueError.
    """
    if engine.whiten is None:
        re, im = y.real, y.imag
    else:
        zw = np.matmul(engine.whiten[:, None], np.stack([y.real, y.imag], axis=-1)[..., None])
        re, im = zw[..., 0, 0], zw[..., 1, 0]
    phase = np.arctan2(im, re)
    coord = np.where(phase <= 0.0, phase + 2.0 * math.pi, phase) * engine.sc.d / (2.0 * math.pi)
    clear = np.isfinite(re) & np.isfinite(im) & (np.abs(coord - np.rint(coord)) > SECTOR_GUARD)
    det = np.ceil(np.where(clear, coord, 1.0)).astype(np.int64)
    for i, t, u in zip(*np.nonzero(~clear)):
        det[i, t, u] = psk_detect(complex(re[i, t, u], im[i, t, u]), engine.sc.d)
    return det


def _run_chunk(sc: Scenario, trials: range, integrate: bool) -> list:
    """Per trial of a chunk: (symbol errors, bit errors, summed transmit power, noise-integrated SER).

    The per-user error counts are int64 arrays; the noise-integrated
    per-user SER (see ``_TrialEngine.exit_probability``) is None unless
    `integrate`. The trials are set up together by one :class:`_TrialEngine`,
    and the chunk then makes three passes over all its (trial, slot) pairs,
    as arrays, each trial named by its place in the chunk:

    1. Draw: each slot re-keys the chunk's generator to its own (seed,
       trial, slot) stream (:meth:`_TrialEngine.rekey`), takes the raw bits of its
       symbol indices (:func:`_raw_indices`) and draws its jammer and AWGN
       normals in one call, into preallocated arrays. The jammer mixing
       (one stacked vector-matrix product, which makes each slot's product
       as a single one does) and the noise scaling then act on every slot
       at once.
    2. Solve: one :func:`_design` call for the distinct (trial place, index
       vector) pairs, trial by trial and each trial's in order of first
       appearance; each gives its transmit vector x, its power and the
       noise-free received points rx = h x.
    3. Detect: every received point y = rx + h_j z + w at once, decided by
       :func:`_detect`. Errors and bit errors are counted per user from the
       bit-error table, and each trial's power is summed in slot order; a
       sum that is not finite (a noise power near the float limit) raises
       PrecodingError. With
       `integrate`, one stacked exit-probability call over every trial,
       slot and user gives each trial's per-user mean over its slots.

    The transmit vector depends only on the trial and the index vector, so
    every slot that draws a vector again reuses its values, exactly: a
    repeat would recompute the same deterministic function of the same
    inputs. The draws, the received points, the decisions, the power sums
    and the integrated SER are the ones a slot-by-slot loop over each trial
    makes, so every output byte is the same for any chunk
    (tests/test_detect_reference.py).
    """
    engine = _TrialEngine(sc, trials)
    n, t_len, k, rng, rekey = len(trials), sc.block_len, sc.k, engine.rng, engine.rekey
    raw = np.empty((n, t_len, (k + 1) // 2), dtype=np.uint64)
    normal = np.empty((n, t_len, 2 + 2 * k))   # the jammer's 2 and the AWGN's k x 2, in draw order
    for trial, raw_e, normal_e in zip(trials, raw, normal):
        for t in range(t_len):
            rekey(trial, t + 1)
            raw_e[t] = rng.bit_generator.random_raw(raw.shape[2])
            rng.standard_normal(out=normal_e[t])
    idx = _raw_indices(raw.reshape(n * t_len, -1), sc.d, k).reshape(n, t_len, k)
    z = np.matmul(normal[:, :, None, :2], engine.mix[:, None]).view(complex)[..., 0, 0]   # one vector product per slot
    nv = math.sqrt(0.5 * sc.awgn_var) * normal[..., 2:].reshape(n, t_len, k, 2)
    keyed = np.concatenate([np.arange(n).repeat(t_len)[:, None], idx.reshape(n * t_len, k)], axis=1)
    keys, row = keyed.tobytes(), keyed[0].nbytes
    number = {}   # (trial's place, symbol indices) -> its number, by trial, then first appearance
    inverse = np.array([number.setdefault(keys[j:j + row], len(number)) for j in range(0, len(keys), row)])
    inverse = inverse.reshape(n, t_len)
    vectors = np.frombuffer(b"".join(number), dtype=np.int64).reshape(-1, k + 1)   # trial place, indices
    xs = _design(engine, vectors[:, 0], vectors[:, 1:])
    rx = np.matmul(engine.h[vectors[:, 0]], xs[:, :, None])[..., 0][inverse]
    y = rx + engine.h_j[:, None] * z[..., None] + (nv[..., 0] + 1j * nv[..., 1])
    det = _detect(engine, y)
    sym_err = np.count_nonzero(det != idx, axis=1).astype(np.int64)
    bit_err = np.array(_BIT_ERRORS[sc.d])[idx - 1, det - 1].sum(axis=1)
    # an overflowing power or sum raises below (the discarded imaginary part may be NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.matmul(xs[:, None, :], np.conj(xs)[:, :, None])[:, 0, 0].real   # one BLAS dot per vector
        power_sum = np.cumsum(power[inverse], axis=1)[:, -1]   # cumsum adds in slot order
    if not np.isfinite(power_sum).all():
        raise PrecodingError("the summed transmit power overflows: the noise is too strong for the design")
    ser = engine.exit_probability(rx, idx).mean(axis=1) if integrate else [None] * n
    return list(zip(sym_err, bit_err, power_sum.tolist(), ser))


def _run_trials(sc: Scenario, integrate: bool, threads: int) -> list:
    """``_run_chunk``'s tuple for every trial, in trial order, over chunks mapped on `threads` threads.

    A chunk holds max(1, CHUNK_SLOTS // block_len) consecutive trials and
    is set up by one :class:`_TrialEngine`. A chunk that raises runs again
    as chunks of one trial, each with its own engine, so the earliest
    failing trial raises its own failure, as a trial-by-trial run would.
    """
    size = max(1, CHUNK_SLOTS // sc.block_len)

    def run(first):
        chunk = range(first, min(first + size, sc.trials))
        try:
            return _run_chunk(sc, chunk, integrate)
        except Exception:
            return [stats for t in chunk for stats in _run_chunk(sc, range(t, t + 1), integrate)]

    if threads <= 1:
        chunks = [run(first) for first in range(0, sc.trials, size)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run, range(0, sc.trials, size)))
    return [stats for chunk in chunks for stats in chunk]


def _std_err(values: np.ndarray):
    """Standard error of the mean of each series along the last axis (trials); 0 below two trials.

    A stack of series (series x trials) goes through one ``np.std`` call
    whose rows have the bits of the series' one-row calls.
    """
    if values.shape[-1] < 2:
        return np.zeros(values.shape[:-1])[()]
    # np.std squares the deviations, which overflows above about 1e154. A
    # series reaching 2^400 is scaled down by a power of two first and back
    # after; the scaling is exact, so the bits are those of the plain form.
    exp = np.maximum(np.frexp(np.abs(values).max(axis=-1))[1] - 400, 0)
    return np.ldexp(np.std(np.ldexp(values, -exp[..., None]), axis=-1, ddof=1) / math.sqrt(values.shape[-1]), exp)


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
    k, t_len, c_bits = sc.k, sc.block_len, sc.c_bits
    sym_err, bit_err, power_sum, ser_integrated = zip(*_run_trials(sc, noise_integrated, threads))
    sym = np.vstack(sym_err)            # trials x K
    bits = np.vstack(bit_err)
    blk = (sym > 0).astype(float)       # a user's block is in error when any of its symbols is
    power = np.array(power_sum) / t_len
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
    power = series.avg_tx_power
    ee_t = energy_efficiency(series.bler, c_bits, k, power)
    worst_se, ber_se, bler_se, power_se, ee_se = _std_err(
        np.vstack([series.worst_user_ser, series.ber, series.bler, power, ee_t])
    ).tolist()
    return MetricsRecord(
        ser_per_user=tuple(float(v) for v in series.ser_per_user.mean(axis=0)),
        worst_user_ser=float(series.worst_user_ser.mean()),
        worst_user_ser_se=worst_se,
        ber=float(series.ber.mean()),
        ber_se=ber_se,
        bler=bler,
        bler_se=bler_se,
        avg_tx_power=avg_power,
        avg_tx_power_se=power_se,
        throughput=(1.0 - bler) * c_bits * t_len * k,
        ee=float(energy_efficiency(bler, c_bits, k, avg_power)),
        ee_se=ee_se,
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
    """Closed-form MSE of the pre-whitened BLP design at each cell (q11[c], q12[c]), all cells at once."""
    jam = jammer_model(sc.rho, q_from_elements(q11, q12)[:, None])   # cells x 1 x 2 x 2
    return _blp.mse_closed_form(h, effective_cov(h_j, jam, sc.awgn_var), sc.p_t)


def _certify_windows(a, gram, bounds, eps_p, active, ci, power):
    """Certify one kernel call's active set on cells ci, ci + 1, ...; return the first cell it fails.

    For a fixed active set S the optimum is affine in the bounds b:
    mu = G_SS^-1 2 b_S and x = A_S^T mu / 2, and it is the cell's optimum
    exactly when mu >= 0 and A x >= b - eps_p (the full KKT conditions).
    The cells are certified against S in windows of 16, 32, 64, ... cells, one
    stacked solve and two stacked matmuls per window, up to the first cell
    that fails, and each certified cell's power is written into `power`. The
    stacked gufunc forms (gesv per right-hand-side row, matmul per stacked
    vector) compute each cell with the same operations as a solve and matmul
    on that cell alone, so every cell's power has the bits of a per-cell
    check, and the same cells fail.
    """
    n_cells = len(bounds)
    s_arr = np.asarray(active)
    g_ss = gram[s_arr[:, None], s_arr]
    a_st = a[s_arr].T
    width = 16   # fewer, larger windows: faster per lemma2 draw than 4, same bits
    while ci < n_cells:
        b_w = bounds[ci:ci + width]
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
        power[ci:ci + n_ok] = np.matmul(x_ok[:, None, :], x_ok[:, :, None])[:, 0, 0]
        ci += n_ok
        if n_ok < len(ok):
            break
        width *= 2
    return ci


def _sweep_chains(sc: Scenario, h, h_j, q11, q12, symbols):
    """Every symbol draw's chain: margin rows (draws x 2K x 2M), Gram matrices, bounds, tolerances.

    The per-user squared margin terms are affine in (q11, q12), so for each
    symbol draw the constraint matrix and its Gram matrix are fixed and only
    the QP bounds (draws x cells x 2K) vary across the cells. Every draw is
    built at once; each item of the stacked calls makes the products and
    libm calls of a one-draw build, so it has its bits
    (tests/test_setup_reference.py).
    """
    omega = chi2_scale(sc.p)
    theta = sc.theta
    cos_t = math.cos(theta)
    normals = np.array(boundary_normals(theta))[..., None]   # n_u and n_l as 2 x 1 columns
    rho2 = sc.rho * sc.rho
    half_awgn = 0.5 * sc.awgn_var
    s = np.array(symbols)   # symbol draws x K
    a_all = _slp.margin_rows(expand_row(h), s, theta)   # draws x 2K x 2M
    gram_all = np.matmul(a_all, a_all.swapaxes(-1, -2))
    jv = np.matmul(symbol_rotation(s).swapaxes(-1, -2), expand_row(h_j[:, None]))   # draws x K x 2 x 2
    w = np.matmul(jv.swapaxes(-1, -2)[..., None, :, :], normals)[..., 0]   # draws x K x normals x 2
    # w^T Q w = w2^2 + q11 (w1^2 - w2^2) + 2 q12 w1 w2, each square a Python-float pow
    sq = _slp._squares(float, w)
    const, lin11, lin12 = (
        v.reshape(len(s), 1, -1) for v in (sq[..., 1], sq[..., 0] - sq[..., 1], 2.0 * w[..., 0] * w[..., 1])
    )
    # bounds per cell: delta0 cos(theta) + sqrt(omega (rho^2 w^T Q w + awgn/2))
    qf = np.maximum(const + q11[:, None] * lin11 + q12[:, None] * lin12, 0.0)
    bounds = sc.delta0 * cos_t + np.sqrt(omega * (rho2 * qf + half_awgn))   # draws x cells x 2K
    eps_all = 1e-9 * np.maximum(1.0, bounds.max(axis=(1, 2)))
    return a_all, gram_all, bounds, eps_all


def _sweep_power(sc: Scenario, h, h_j, q11, q12, symbols) -> np.ndarray:
    """Average minimum power of the transmit-only design at each cell (q11[c], q12[c]).

    Each symbol draw is one chain of cells, and every chain's matrix, Gram
    matrix and bounds are built up front (``_sweep_chains``). The kernel
    finds the active set at one cell of a chain, ``_certify_windows``
    certifies it on the cells after it, and the kernel runs again at the
    first cell that fails.

    The chains advance in rounds. Each round, every live chain's kernel call
    at its next cell goes to one ``solve_min_norm_batch`` call on the live
    chains' matrices only, which gives each problem the scalar kernel's bits
    or exception and, counting those matrices, picks the lockstep or the
    problem-by-problem route; the round's powers are its stacked
    objectives, and each chain, in chain order, certifies its windows with
    its active list, in the kernel's insertion order. Each chain's
    powers fill one row, and the rows are added in symbol order, so every
    cell's sum adds the same values in the same order as a chain-by-chain
    loop. A chain whose kernel call fails stops; the sweep raises the
    failure of the lowest failed chain once every lower chain has finished,
    which is the failure a chain-by-chain loop meets first.
    """
    a_all, gram_all, bounds, eps_all = _sweep_chains(sc, h, h_j, q11, q12, symbols)
    n_cells = len(q11)
    power = np.empty((len(symbols), n_cells))
    next_ci = np.zeros(len(symbols), dtype=np.intp)
    failures = {}
    live = np.arange(len(symbols))
    while live.size:
        ci = next_ci[live]
        res = solve_min_norm_batch(a_all[live], bounds[live, ci])
        power[live, ci] = res.objective
        next_ci[live] = ci + 1
        for j, c in enumerate(live.tolist()):
            if j in res.errors:
                failures[c] = res.errors[j]
            elif res.size[j]:
                next_ci[c] = _certify_windows(
                    a_all[c], gram_all[c], bounds[c], eps_all[c], res.active[j, :res.size[j]], ci[j] + 1, power[c]
                )
        live = live[(next_ci[live] < n_cells) & (live < min(failures, default=len(symbols)))]
    if failures:
        raise failures[min(failures)]
    return np.cumsum(power, axis=0)[-1] / len(symbols)   # cumsum adds in symbol order; power.sum(0) would add pairwise


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


def sweep_q_grid(sc: Scenario, grid_n: int, n_symbols: int) -> SweepResult:
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


def verify_lemma_blp(sc: Scenario, grid_n: int, n_draws: int, pass_fraction: float) -> LemmaReport:
    """Check that the worst-case MSE sits at the circular center of the Q disk.

    A draw passes when the grid argmax lies within one grid cell of
    (q11, q12) = (0.5, 0).
    """
    tol = 1.0 / (grid_n - 1) + 1e-9

    def at_center(res):
        return abs(res.argmax_q[0] - 0.5) <= tol and abs(res.argmax_q[1]) <= tol

    return _verify_lemma(sc, grid_n, n_draws, 0, "mse", at_center, pass_fraction)


def verify_lemma_slp(
    sc: Scenario, grid_n: int, n_draws: int, n_symbols: int, pass_fraction: float
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
