"""ncprecode benchmark: µs per slot for each method and seconds per lemma draw.

Usage (from the repository root)::

    python3 bench/run.py --workload mc_long_block --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --record    # rewrite bench/digests.json and BENCHMARK.json

Every workload runs, on one thread, rounds of operations until its time is
spent. A round runs each of the nine methods on a Monte-Carlo scenario
(``configs/<workload>.cfg``) and each lemma check (``configs/lemma*.cfg``),
cheap ones several times (``REPEATS``), interleaved and rotated from round to
round so that slow phases of the host fall on every operation alike. Round 0
uses fixed reference inputs whose result digests are stored in
``digests.json``; round r > 0 uses inputs drawn from ``--seed`` and r. The
two workloads differ only in the Monte-Carlo shape:

* ``mc_long_block``: one trial of 512 slots per operation, so the per-slot
  path dominates (margin rows and bounds, the QP, noise and detection). Work
  reused across slots of a trial shows here.
* ``mc_short_block``: 32 trials of one slot per operation, so per-trial
  set-up dominates (channel draw, jammer model, noise covariances, whitening,
  BLP design). Work reused across slots cannot show here.

The lemma checks run in both: ``lemma1`` (no QP; closed-form MSE and noise
covariances over the grid) and ``lemma2`` (317 bound vectors per shared
constraint matrix, certified by the KKT warm start or solved).

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (fresh
processes, spread over the run, that import the package, build the scenarios
through the CLI config loader and run one slot or tiny draw of each
operation), ``us_per_slot.<method>`` and ``s_per_draw.<lemma>``. Each is the
90th percentile of its samples in the run. The shared host this was tuned on
switches between speed states (about 0.6 : 1 : 1.3) for tens of seconds at a
time, so a run's median lands in whichever state the run spent most time in
and spread by 0.25-0.38 of its median over ten runs; the 90th percentile is
set by the slow states, which nearly every run visits, and spread by at most
0.16. The printed table gives the median, the 90th percentile, the highest
percentile with ten samples above it and the sample count of each operation.

With ``--trace 1`` every round runs twice on the same inputs, once plain and
once with the package's functions wrapped where their callers bound them
(see ``tracing.py``); the two must give the same digests. The per-layer
metrics come from the traced rounds:

* ``<layer>.self_s``: the layer's self time per round; ``<layer>.calls``:
  wrapped calls into it in round 0. ``<layer>.us_per_slot.<method>`` and
  ``<layer>.s_per_draw.<lemma>`` split the self time by operation.
* ``solver.*``: kernel calls per slot, per-call time, active-set size and
  the constraint shapes seen in round 0; worst KKT residual and failures of
  every QP solution returned by ``solve_min_norm``. Should move the six QP
  methods on ``mc_long_block`` and ``s_per_draw.lemma2``, not the BLP methods
  or ``s_per_draw.lemma1``.
* ``sim.warm_start_hit_ratio``: 1 - kernel calls / cell solves in lemma2.
* ``slp``, ``noisegeom``, ``wlalg``: move ``nc_slp``, ``naive_slp`` and
  ``robust_slp`` on ``mc_long_block`` and every method on ``mc_short_block``.
* ``blp``: the BLP methods on ``mc_short_block`` and ``lemma1``.
* ``sim.self_s``, ``sim.detect_*``: the BLP methods on ``mc_long_block``.
* ``cli.self_s``: one traced scenario build; moves ``setup_s`` only.
* ``trace_overhead``: traced over plain wall time of the same rounds, check
  hooks excluded. Read self times against it.

Counts taken in round 0 repeat exactly from run to run. An operation fails
when it raises, when its output fails a range check, when a round-0 digest
differs from ``digests.json``, or when its traced digest differs from the
plain one. The thread check (``configs/threads.cfg`` at ``--threads`` 1 and
2 must give the same CSV bytes, with a stored digest), each set-up process
and each KKT check also count as operations.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import ncprecode
from ncprecode import blp, cli, noisegeom, sim, slp, solver, wlalg
from ncprecode.solver import kkt_residuals, validate_solution

from tracing import Profile, Tracer

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
DIGESTS = HERE / "digests.json"
MANIFEST = HERE.parent / "BENCHMARK.json"

REFERENCE_SEED = 20240817
SETUP_REPEATS = 8
RUN_SECONDS = 55

WORKLOADS = {
    "mc_long_block": "one 512-slot trial per operation, twice d^K, so the per-slot path "
    "(rows, bounds, QP, detection) dominates; plus both lemma grids",
    "mc_short_block": "32 one-slot trials per operation, so per-trial set-up (channels, "
    "covariances, whitening, BLP design) dominates; plus both lemma grids",
}
BLP_METHODS = ("naive_blp", "pw_blp", "robust_blp")
QP_METHODS = ("msm", "pw_msm", "pw_slp", "nc_slp", "naive_slp", "robust_slp")
METHODS = BLP_METHODS + QP_METHODS
LEMMAS = ("lemma1", "lemma2")
OPS = METHODS + LEMMAS

# 90th percentiles still spread by up to 0.16 of their median over ten runs
# on a shared two-core host, so every bound is the largest allowed.
BOUND = 0.25

# Runs of an operation per round (default 1). Cheap operations of the long
# block workload run several times, spread over the round, so that each of
# them is sampled across the whole run and not in a few slow phases.
REPEATS = {
    "mc_long_block": {
        "naive_blp": 4, "pw_blp": 4, "robust_blp": 4, "msm": 2, "pw_msm": 2,
        "pw_slp": 2, "nc_slp": 2, "naive_slp": 2, "lemma1": 2, "lemma2": 2,
    },
    "mc_short_block": {},
}

# Functions wrapped in a traced run, by defining module. Each is wrapped at
# every name it is bound to in the package's namespaces; names a later
# version no longer defines are skipped.
TRACED = {
    "wlalg": (wlalg, ("expand_vec", "collapse_vec", "expand_row", "rotation2",
                      "symbol_rotation", "eig2_sym", "sqrt_inv_psd2")),
    "noisegeom": (noisegeom, ("q_from_elements", "q_rank_one", "t_from_q", "jammer_model",
                              "effective_cov", "rotated_cov", "chi2_scale",
                              "ellipse_from_cov", "sample_noise", "noise_powers")),
    "blp": (blp, ("stack_whitened", "mmse_blp", "mse_closed_form", "mse_of_precoder",
                  "pw_blp", "robust_blp", "naive_blp")),
    "slp": (slp, ("whitened_effective_channel", "safety_margin", "margin_rows",
                  "margin_rows_pair", "pw_slp_minpower", "pw_slp_msm", "ellipse_margins",
                  "tangent_points", "nc_slp", "worst_case_pterms", "robust_slp", "naive_slp")),
    "solver": (solver, ("solve_min_norm", "solve_maximin", "_min_norm_kernel")),
    "sim": (sim, ("run_montecarlo", "per_trial_metrics", "sample_channels", "sample_psk",
                  "psk_detect", "margin_from_psi", "energy_efficiency", "sweep_q_grid",
                  "verify_lemma_blp", "verify_lemma_slp")),
    "cli": (cli, ("load_config", "expand_sweep", "main", "cmd_run")),
}
NAMESPACES = (ncprecode, wlalg, noisegeom, blp, slp, solver, sim, cli)
LAYERS = tuple(TRACED)
KERNEL = "solver._min_norm_kernel"
DETECT = ("sim.psk_detect", "sim._TrialEngine.detect")
SHAPES = ("8x8", "16x8", "6x6")
# Operations whose self time each layer's breakdown reports: where the seed
# program calls into the layer at all.
LAYER_OPS = {
    "wlalg": OPS,
    "noisegeom": OPS,
    "blp": BLP_METHODS + ("lemma1",),
    "slp": QP_METHODS + ("lemma2",),
    "solver": QP_METHODS + ("lemma2",),
    "sim": OPS,
}


class OutputError(Exception):
    """An operation returned a result that fails its range checks."""


@dataclasses.dataclass(frozen=True)
class Op:
    """One benchmark operation: a Monte-Carlo run or a lemma check."""

    name: str
    scenario: sim.Scenario
    grid: dict | None
    units: int  # slots for a Monte-Carlo run, draws for a lemma check
    repeats: int = 1  # runs per round

    @property
    def unit(self) -> str:
        return "slot" if self.grid is None else "draw"


def build_ops(workload: str) -> list:
    """The workload's operations, built through the CLI config loader."""
    base, sweep, _ = cli.load_config(str(CONFIGS / f"{workload}.cfg"))
    ops = [Op(sc.method, sc, None, sc.trials * sc.block_len) for sc in cli.expand_sweep(base, sweep)]
    for name in LEMMAS:
        sc, _, grid = cli.load_config(str(CONFIGS / f"{name}.cfg"))
        ops.append(Op(name, sc, grid, grid["draws"]))
    if tuple(op.name for op in ops) != OPS:
        raise ValueError(f"workload {workload} does not list the operations {OPS}")
    repeats = REPEATS[workload]
    return [dataclasses.replace(op, repeats=repeats.get(op.name, 1)) for op in ops]


def check_record(rec: sim.MetricsRecord, sc: sim.Scenario) -> None:
    values = [v for f in dataclasses.fields(rec) for v in np.ravel(getattr(rec, f.name))]
    if not all(math.isfinite(v) for v in values):
        raise OutputError(f"{sc.method}: non-finite metric")
    rates = list(rec.ser_per_user) + [rec.worst_user_ser, rec.ber, rec.bler]
    if len(rec.ser_per_user) != sc.k or not all(0.0 <= v <= 1.0 for v in rates):
        raise OutputError(f"{sc.method}: error rate outside [0, 1]")
    if not rec.avg_tx_power > 0.0:
        raise OutputError(f"{sc.method}: nonpositive transmit power")
    if sc.method in ("msm", "pw_msm") and not math.isclose(
        rec.avg_tx_power, sim.db_to_linear(sc.p_t_db), rel_tol=1e-9
    ):
        raise OutputError(f"{sc.method}: power budget not met with equality")
    c_bits = math.log2(sc.d)
    if not math.isclose(rec.throughput, (1.0 - rec.bler) * c_bits * sc.block_len * sc.k, rel_tol=1e-12):
        raise OutputError(f"{sc.method}: throughput inconsistent with bler")


def check_report(rep: sim.LemmaReport, grid: dict) -> None:
    if rep.n_draws != grid["draws"] or len(rep.per_draw) != grid["draws"]:
        raise OutputError("lemma report has the wrong number of draws")
    for q11, q12, ok in rep.per_draw:
        if (q11 - 0.5) ** 2 + q12 ** 2 > 0.25 + 1e-9 or not isinstance(ok, bool):
            raise OutputError("lemma argmax outside the covariance disk")
    if rep.n_pass != sum(ok for _, _, ok in rep.per_draw):
        raise OutputError("lemma pass count disagrees with its draws")


def run_op(op: Op, seed: int) -> str:
    """Run one operation on the inputs of `seed`; returns the text digested."""
    sc = dataclasses.replace(op.scenario, seed=seed)
    grid = op.grid
    if grid is None:
        rec = sim.run_montecarlo(sc)
        check_record(rec, sc)
        return repr(rec)
    if op.name == "lemma1":
        rep = sim.verify_lemma_blp(
            sc, grid_n=grid["resolution"], n_draws=grid["draws"],
            pass_fraction=grid["pass_fraction"],
        )
    else:
        rep = sim.verify_lemma_slp(
            sc, grid_n=grid["resolution"], n_draws=grid["draws"],
            n_symbols=grid["symbols_per_point"], pass_fraction=grid["pass_fraction"],
        )
    check_report(rep, grid)
    return repr(rep.per_draw)


def digest(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


def op_seed(seed: int, r: int, j: int) -> int:
    """Inputs of run j of an operation in round r; round 0 is the reference."""
    if r == 0:
        return REFERENCE_SEED + j
    return int(np.random.SeedSequence([seed, r, j]).generate_state(1, dtype=np.uint64)[0])


def schedule(ops, r: int) -> list:
    """(op, j) for each run of round r: repeats spread evenly, order rotated by r."""
    runs = sorted(((j + 0.5) / op.repeats, i, j) for i, op in enumerate(ops) for j in range(op.repeats))
    seq = [(ops[i], j) for _, i, j in runs]
    shift = r % len(seq)
    return seq[shift:] + seq[:shift]


def run_one(op: Op, r: int, j: int, seed: int, tracer: Tracer | None = None):
    """Run j of `op` in round r: (digest or None, seconds).

    Traced seconds exclude the check hooks.
    """
    checks = tracer.check_seconds() if tracer else 0.0
    t0 = time.perf_counter()
    try:
        if tracer is None:
            text = run_op(op, op_seed(seed, r, j))
        else:
            with tracer.operation(op.name):
                text = run_op(op, op_seed(seed, r, j))
        out = digest(text)
    except Exception:
        print(f"operation {op.name} (round {r}, run {j}) failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        out = None
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        elapsed -= tracer.check_seconds() - checks
    return out, elapsed


def run_round(ops, r: int, seed: int, tracer: Tracer | None = None) -> dict:
    """Run round r: {(name, j): (digest or None, seconds)}."""
    return {(op.name, j): run_one(op, r, j, seed, tracer) for op, j in schedule(ops, r)}


def digest_ok(out, r: int, key, reference: dict) -> bool:
    """The run returned, and in round 0 its digest is the stored one."""
    name, j = key
    return out is not None and (r > 0 or out == reference.get(f"{name}.{j}"))


def rounds(seconds: float):
    """Round indices, at least two, until one more round like the last would pass `seconds`."""
    start = time.perf_counter()
    r, last = 0, 0.0
    while r < 2 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        yield r
        last = time.perf_counter() - t0
        r += 1


class Tally:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                print(f"check failed: {what}", file=sys.stderr)


def shrink(op: Op) -> Op:
    """The same operation at its smallest size, for warm-up."""
    if op.grid is None:
        return dataclasses.replace(op, scenario=dataclasses.replace(op.scenario, trials=1, block_len=1), units=1)
    grid = dict(op.grid, resolution=5, draws=1, symbols_per_point=1)
    return dataclasses.replace(op, grid=grid, units=1)


def warm_up(ops) -> None:
    for op in ops:
        run_op(shrink(op), REFERENCE_SEED)


def threads_csv(threads: int):
    """(exit code, CSV bytes) of the CLI run of threads.cfg."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["run", "--config", str(CONFIGS / "threads.cfg"), "--threads", str(threads), "--out", "-"])
    return code, buf.getvalue().encode()


def check_threads(tally: Tally, reference: str) -> None:
    """The CLI run of threads.cfg gives the stored CSV bytes at 1 and 2 threads."""
    (code1, csv1), (code2, csv2) = threads_csv(1), threads_csv(2)
    tally.record(code1 == code2 == 0 and csv1 == csv2 and digest(csv1) == reference, "thread-invariant CSV")


def setup_once(workload: str, tally: Tally) -> float | None:
    """Set-up seconds of one fresh process (see ``--setup-probe``), None if it failed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired:
        tally.record(False, "set-up process timed out")
        return None
    ok = proc.returncode == 0
    tally.record(ok, f"set-up process: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1]) if ok else None


def p90(values) -> float:
    """The statistic of every end-to-end timing; see the module docstring."""
    if len(values) < 2:
        return values[0] if values else math.inf
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def feasible_cells(grid_n: int) -> int:
    q11 = np.linspace(0.0, 1.0, grid_n)
    q12 = np.linspace(-0.5, 0.5, grid_n)
    return int(np.count_nonzero((q11[:, None] - 0.5) ** 2 + q12[None, :] ** 2 <= 0.25 + 1e-12))


# -- tracing hooks ----------------------------------------------------------


def _kkt_hook(tracer, args, kwargs, sol) -> None:
    prob = args[0] if args else kwargs["prob"]
    prof = tracer.profile
    prof.note_max("solver.kkt_worst", max(kkt_residuals(prob, sol)))
    prof.counts["solver.kkt_checks"] += 1
    if not validate_solution(prob, sol):
        prof.counts["solver.kkt_failures"] += 1


def _kernel_hook(tracer, args, kwargs, out) -> None:
    a = args[0] if args else kwargs["a"]
    prof = tracer.profile
    prof.counts[f"solver.shape.{a.shape[0]}x{a.shape[1]}"] += 1
    prof.counts["solver.active_total"] += len(out[2])


HOOKS = {"solver.solve_min_norm": _kkt_hook, KERNEL: _kernel_hook}


def install(tracer: Tracer) -> None:
    """Wrap the TRACED functions at every name the package binds them to."""
    for layer, (module, names) in TRACED.items():
        for fname in names:
            fn = vars(module).get(fname)
            if fn is None:
                continue
            bindings = [(ns, attr) for ns in NAMESPACES for attr, val in vars(ns).items() if val is fn]
            name = f"{layer}.{fname}"
            tracer.wrap(bindings, name, HOOKS.get(name))
    engine = getattr(sim, "_TrialEngine", None)
    if engine is not None and "detect" in vars(engine):
        tracer.wrap([(engine, "detect")], DETECT[1])


@contextlib.contextmanager
def traced(tracer: Tracer):
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


# -- measurement ------------------------------------------------------------


def measure_plain(ops, seconds, seed, reference, tally, probe=None) -> dict:
    """Seconds per unit of each operation, run by run until `seconds` would be exceeded.

    Rounds 0 and 1 always run whole; after them the run stops before an
    operation that would end past `seconds` if it took as long as its last run.
    `probe()`, if given, runs SETUP_REPEATS times between operations, spread
    evenly over `seconds`; its values are returned under "setup".
    """
    start = time.perf_counter()
    last = {}
    samples = defaultdict(list)
    probes = 0

    def run_probes(until: float) -> None:
        nonlocal probes
        while probe is not None and probes < SETUP_REPEATS and probes * seconds / SETUP_REPEATS <= until:
            value = probe()
            probes += 1
            if value is not None:
                samples["setup"].append(value)

    for r in itertools.count():
        for op, j in schedule(ops, r):
            run_probes(time.perf_counter() - start)
            if r >= 2 and time.perf_counter() - start + last[op.name] > seconds:
                run_probes(math.inf)
                return samples
            out, secs = run_one(op, r, j, seed)
            last[op.name] = secs
            tally.record(digest_ok(out, r, (op.name, j), reference), f"{op.name}.{j} round {r} digest")
            if out is not None:
                samples[op.name].append(secs / op.units)


def measure_traced(ops, seconds, seed, reference, tally):
    """Plain and traced runs of each round; returns (profiles, overhead)."""
    profiles = []
    plain_s = traced_s = 0.0
    for r in rounds(seconds):
        tracer = Tracer()
        if r % 2:
            with traced(tracer):
                res_t = run_round(ops, r, seed, tracer)
            res_p = run_round(ops, r, seed)
        else:
            res_p = run_round(ops, r, seed)
            with traced(tracer):
                res_t = run_round(ops, r, seed, tracer)
        for key, (out_p, secs_p) in res_p.items():
            out_t, secs_t = res_t[key]
            tally.record(digest_ok(out_p, r, key, reference), f"{key} round {r} digest")
            tally.record(out_t is not None and out_t == out_p, f"{key} round {r} traced digest")
            plain_s += secs_p
            traced_s += secs_t
        counts = tracer.profile.counts
        tally.attempted += counts["solver.kkt_checks"]
        tally.failed += counts["solver.kkt_failures"]
        profiles.append(tracer.profile)
    return profiles, traced_s / plain_s


# -- metrics ----------------------------------------------------------------


def end_to_end_specs():
    specs = [("setup_s", "s", "lower", BOUND)]
    specs += [(f"us_per_slot.{m}", "us", "lower", BOUND) for m in METHODS]
    specs += [(f"s_per_draw.{name}", "s", "lower", BOUND) for name in LEMMAS]
    return specs


def per_layer_specs():
    specs = [("trace_overhead", "ratio", "lower")]
    for layer in LAYERS:
        specs += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower")]
    for layer, names in LAYER_OPS.items():
        for name in names:
            if name in LEMMAS:
                specs.append((f"{layer}.s_per_draw.{name}", "s", "lower"))
            else:
                specs.append((f"{layer}.us_per_slot.{name}", "us", "lower"))
    specs += [
        ("solver.us_per_call", "us", "lower"),
        ("solver.active_size_mean", "count", "lower"),
        ("solver.kkt_worst", "1", "lower"),
        ("solver.kkt_failures", "count", "lower"),
    ]
    specs += [(f"solver.calls_per_slot.{m}", "count/slot", "lower") for m in QP_METHODS]
    specs += [(f"solver.shape.{s}", "count", "lower") for s in SHAPES + ("other",)]
    specs += [
        ("sim.warm_start_hit_ratio", "ratio", "higher"),
        ("sim.detect_calls", "count", "lower"),
        ("sim.detect_self_s", "s", "lower"),
    ]
    return specs


def end_to_end_metrics(samples) -> dict:
    values = {"setup_s": p90(samples["setup"])}
    for name in METHODS:
        values[f"us_per_slot.{name}"] = p90(samples[name]) * 1e6
    for name in LEMMAS:
        values[f"s_per_draw.{name}"] = p90(samples[name])
    return values


def per_layer_metrics(ops, profiles, overhead, cli_profile) -> dict:
    ref = profiles[0]
    total = Profile()
    for prof in profiles:
        total.merge(prof)
    n = len(profiles)
    by_name = {op.name: op for op in ops}
    per_round = {op.name: op.units * op.repeats for op in ops}
    values = {"trace_overhead": overhead}
    for layer in LAYERS:
        if layer == "cli":
            values["cli.self_s"] = cli_profile.layer_self_s("cli")
            values["cli.calls"] = cli_profile.layer_calls("cli")
            continue
        values[f"{layer}.self_s"] = total.layer_self_s(layer) / n
        values[f"{layer}.calls"] = ref.layer_calls(layer)
    for layer, names in LAYER_OPS.items():
        for name in names:
            per_unit = total.layer_self_s(layer, name) / (per_round[name] * n)
            if name in LEMMAS:
                values[f"{layer}.s_per_draw.{name}"] = per_unit
            else:
                values[f"{layer}.us_per_slot.{name}"] = per_unit * 1e6
    kernel_calls = ref.name_calls(KERNEL)
    values["solver.us_per_call"] = total.layer_self_s("solver") / max(total.name_calls(KERNEL), 1) * 1e6
    values["solver.active_size_mean"] = ref.counts["solver.active_total"] / max(kernel_calls, 1)
    values["solver.kkt_worst"] = total.maxima.get("solver.kkt_worst", 0.0)
    values["solver.kkt_failures"] = total.counts["solver.kkt_failures"]
    for m in QP_METHODS:
        values[f"solver.calls_per_slot.{m}"] = ref.name_calls(KERNEL, m) / per_round[m]
    for shape in SHAPES:
        values[f"solver.shape.{shape}"] = ref.counts[f"solver.shape.{shape}"]
    values["solver.shape.other"] = kernel_calls - sum(ref.counts[f"solver.shape.{s}"] for s in SHAPES)
    lemma2 = by_name["lemma2"]
    cell_solves = per_round["lemma2"] * lemma2.grid["symbols_per_point"] * feasible_cells(lemma2.grid["resolution"])
    values["sim.warm_start_hit_ratio"] = 1.0 - ref.name_calls(KERNEL, "lemma2") / cell_solves
    values["sim.detect_calls"] = ref.name_calls(DETECT[0])
    values["sim.detect_self_s"] = sum(total.name_self_s(name) for name in DETECT) / n
    return values


def tail(values):
    """(percentile, value) of the highest order statistic with ten samples above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    idx = len(ordered) - 11
    return 100.0 * (idx + 1) / len(ordered), ordered[idx]


def print_samples(ops, samples) -> None:
    print(f"{'operation':12s} {'unit':8s} {'median':>12s} {'p90':>12s}  tail (10 samples above)  n")
    rows = [(op.name, *((1e6, "us/slot") if op.unit == "slot" else (1.0, "s/draw"))) for op in ops]
    for name, scale, unit in rows + [("setup", 1.0, "s")]:
        vals = samples[name]
        t = tail(vals)
        tail_txt = f"p{t[0]:.0f} = {t[1] * scale:.6g}" if t else "n/a (n < 11)"
        print(f"{name:12s} {unit:8s} {statistics.median(vals) * scale:12.6g} "
              f"{p90(vals) * scale:12.6g}  {tail_txt:23s}  {len(vals)}")


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
        "seed": seed,
    }


def result(tally: Tally, values: dict, specs) -> dict:
    units = {name: unit for name, unit, *_ in specs}
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name, *_ in specs},
    }


def record() -> None:
    """Rewrite digests.json from round 0 of every workload, and BENCHMARK.json."""
    digests = {}
    for workload in WORKLOADS:
        ops = build_ops(workload)
        results = run_round(ops, 0, 0)
        if any(out is None for out, _ in results.values()):
            raise RuntimeError(f"{workload}: an operation failed; digests not written")
        digests[workload] = {f"{name}.{j}": out for (name, j), (out, _) in sorted(results.items())}
    code, csv = threads_csv(1)
    if code != 0:
        raise RuntimeError("the thread-check run failed; digests not written")
    digests["threads_csv"] = digest(csv)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    manifest = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in end_to_end_specs()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in per_layer_specs()
        ],
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")


def main(argv, start: float) -> int:
    parser = argparse.ArgumentParser(description="ncprecode benchmark; see bench/harness.py")
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/digests.json and BENCHMARK.json, then exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_probe:
        warm_up(build_ops(args.workload))
        print(time.perf_counter() - start)
        return 0

    reference = json.loads(DIGESTS.read_text())
    tally = Tally()
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        cli_tracer = Tracer()
        with traced(cli_tracer), cli_tracer.operation("setup"):
            ops = build_ops(args.workload)
        warm_up(ops)
        check_threads(tally, reference["threads_csv"])
        profiles, overhead = measure_traced(ops, args.seconds, args.seed, reference[args.workload], tally)
        values = per_layer_metrics(ops, profiles, overhead, cli_tracer.profile)
        specs = per_layer_specs()
        print(f"traced rounds: {len(profiles)}, trace overhead {overhead:.3f}")
    else:
        ops = build_ops(args.workload)
        warm_up(ops)
        check_threads(tally, reference["threads_csv"])
        samples = measure_plain(ops, args.seconds, args.seed, reference[args.workload], tally,
                                probe=lambda: setup_once(args.workload, tally))
        print_samples(ops, samples)
        print("samples " + json.dumps(samples))
        values = end_to_end_metrics(samples)
        specs = end_to_end_specs()
    print(f"failed_frac {tally.failed / max(tally.attempted, 1):.6g} ({tally.failed}/{tally.attempted})")
    print(json.dumps(result(tally, values, specs)))
    return 0
