"""Command-line front end: scenario configs, sweeps and verification runs.

Configs are INI-style files (see README for the grammar). All powers are
given in dB and converted once on load; output files are deterministic
functions of the config contents, including the seed.
"""

import argparse
import configparser
import json
import sys
from dataclasses import MISSING, fields, replace

from numpy.linalg import LinAlgError

from .errors import ConfigError, PrecodingError
from .oracles import SUITES
from .sim import (
    METHODS,
    MetricsRecord,
    QSpec,
    SURFACE_KEYS,
    Scenario,
    run_montecarlo,
    surface_mode,
    sweep_q_grid,
    verify_lemma_blp,
    verify_lemma_slp,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VERIFY_FAIL = 3

SCENARIO_COLUMNS = (
    "method", "m", "k", "d", "p_t_db", "rho2_db", "q", "awgn_std", "p",
    "psi_db", "n_div", "trials", "block_len", "seed",
)
METRIC_COLUMNS = (
    "worst_user_ser", "worst_user_ser_se", "ber", "ber_se", "bler", "bler_se",
    "avg_tx_power", "avg_tx_power_se", "throughput", "ee", "ee_se",
    "ser_per_user",
)
COLUMNS = SCENARIO_COLUMNS + METRIC_COLUMNS


def _fmt(value) -> str:
    """Locale-independent shortest round-trip representation."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_qspec(text: str) -> QSpec:
    """``kind`` or ``kind:v1,...`` with as many values as QSpec.KINDS gives the kind."""
    kind, sep, rest = text.strip().partition(":")
    arity = QSpec.KINDS.get(kind)
    if arity is None or bool(sep) != (arity > 0):
        raise ConfigError(f"bad covariance spec: {text}")
    args = tuple(float(v) for v in rest.split(",")) if sep else ()
    if len(args) != arity:
        raise ConfigError(f"bad covariance spec: {text}")
    return QSpec(kind, args)


def _get(section, key, conv):
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in [{section.name}]")
    try:
        return conv(section[key])
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value for '{key}': {section[key]} ({exc})") from exc


# [scenario] key -> Scenario field, in field order (the order they are
# checked). The key is the field name, except q for q_spec; a field without
# a default is a required key, and its type picks the converter.
_SCENARIO_KEYS = {"q" if f.name == "q_spec" else f.name: f for f in fields(Scenario)}
_CONVERTERS = {int: int, float: float, float | None: float, str: str.strip, QSpec: _parse_qspec}
# Numeric [sweep] axes, in expand_sweep's order (which fixes the row order).
_SWEEP_AXES = ("rho2_db", "p", "psi_db")
# [grid] key -> (converter, default, validity test, rule in the error message).
_GRID = {
    "resolution": (int, 21, lambda v: v >= 5, "at least 5"),
    "draws": (int, 100, lambda v: v >= 1, "at least 1"),
    "symbols_per_point": (int, 50, lambda v: v >= 1, "at least 1"),
    "pass_fraction": (float, 0.95, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
}


def load_config(path: str):
    """Parse a config file into (base Scenario, sweep axes, grid options)."""
    parser = configparser.ConfigParser(interpolation=None)   # a '%' in a value is literal
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    if "scenario" not in parser:
        raise ConfigError("config must contain a [scenario] section")
    known = {"scenario": _SCENARIO_KEYS, "sweep": _SWEEP_AXES + ("method",), "grid": _GRID}
    for name in parser.sections():
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
        for key in parser[name]:   # includes the keys of configparser's [DEFAULT]
            if key not in known[name]:
                raise ConfigError(f"unknown key '{key}' in [{name}]")
    sec = parser["scenario"]
    values = {
        f.name: _get(sec, key, _CONVERTERS[f.type])
        for key, f in _SCENARIO_KEYS.items()
        if key in sec or f.default is MISSING and f.default_factory is MISSING
    }
    try:
        base = Scenario(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sweep = {}
    sw = parser["sweep"] if "sweep" in parser else {}
    for key in _SWEEP_AXES:
        if key in sw:
            try:
                sweep[key] = sorted(float(v) for v in sw[key].split(","))
            except Exception as exc:
                raise ConfigError(f"bad sweep axis '{key}': {sw[key]}") from exc
    if "method" in sw:
        methods = [v.strip() for v in sw["method"].split(",") if v.strip()]
        for mname in methods:
            if mname not in METHODS:
                raise ConfigError(f"unknown method in sweep: {mname}")
        if not methods:
            raise ConfigError("empty sweep axis 'method'")
        sweep["method"] = methods

    gr = parser["grid"] if "grid" in parser else {}
    grid = {}
    for key, (conv, default, valid, rule) in _GRID.items():
        grid[key] = _get(gr, key, conv) if key in gr else default
        if not valid(grid[key]):
            raise ConfigError(f"[grid] {key} must be {rule}, got {grid[key]}")
    return base, sweep, grid


def expand_sweep(base: Scenario, sweep: dict):
    """Cartesian product of the sweep axes, methods outermost, values ascending."""
    try:
        scenarios = [base]
        if "method" in sweep:
            scenarios = [replace(s, method=m) for m in sweep["method"] for s in scenarios]
        for key in _SWEEP_AXES:
            if key in sweep:
                scenarios = [replace(s, **{key: v}) for s in scenarios for v in sweep[key]]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return scenarios


def _row_dict(sc: Scenario, rec: MetricsRecord) -> dict:
    fields = {**vars(sc), **vars(rec)}
    fields["q"] = sc.q_spec.label()
    fields["ser_per_user"] = "|".join(repr(v) for v in rec.ser_per_user)
    return {c: fields[c] for c in COLUMNS}


def _csv(header: str, lines) -> str:
    return "\n".join([header, *lines]) + "\n"


def _write(text: str, out_path: str, stdout: bool = False) -> None:
    """Write text to out_path; '-' sends it to stdout if `stdout`, else nowhere."""
    if out_path != "-":
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    elif stdout:
        sys.stdout.write(text)


def _write_rows(rows, out_path: str, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = _csv(",".join(COLUMNS), (",".join(_fmt(row[c]) for c in COLUMNS) for row in rows))
    _write(text, out_path, stdout=True)


def cmd_run(args) -> int:
    base, sweep, _ = load_config(args.config)
    rows = []
    for sc in expand_sweep(base, sweep):
        try:
            rows.append(_row_dict(sc, run_montecarlo(sc, threads=args.threads)))
        except (PrecodingError, LinAlgError) as exc:   # name the failing scenario
            where = ", ".join([sc.method] + [f"{key}={getattr(sc, key)!r}" for key in _SWEEP_AXES if key in sweep])
            raise type(exc)(f"{exc} ({where})") from exc
    _write_rows(rows, args.out, args.format)
    return EXIT_OK


def _grid_config(path: str, mode: str | None = None):
    """(Scenario, grid options) for a grid command whose surface is `mode`.

    The MSE surface needs p_t_db and the power surface psi_db; without it the
    command fails here, before any draw. The MSE surface also needs AWGN: it
    spans the rank-one boundary, where the effective noise it inverts is
    otherwise singular. mode None is the mode sweep-q picks from the method.
    """
    base, _, grid = load_config(path)
    mode = mode or surface_mode(base.method)
    key = SURFACE_KEYS[mode]
    if getattr(base, key) is None:
        raise ConfigError(f"the {mode} surface needs '{key}' in [scenario]")
    if mode == "mse" and base.awgn_std == 0.0:
        raise ConfigError("the mse surface needs awgn_std > 0: its rank-one cells have singular noise without it")
    return base, grid


def cmd_sweep_q(args) -> int:
    base, grid = _grid_config(args.config)
    res = sweep_q_grid(base, grid_n=grid["resolution"], n_symbols=grid["symbols_per_point"])
    lines = []
    for i, q1 in enumerate(res.q11):
        for j, q2 in enumerate(res.q12):
            feas, edge = int(res.feasible[i, j]), int(res.boundary[i, j])
            value = repr(float(res.values[i, j])) if feas else ""
            lines.append(f"{float(q1)!r},{float(q2)!r},{value},{feas},{edge}")
    _write(_csv("q11,q12,value,feasible,boundary", lines), args.out)
    print(
        f"sweep-q [{res.mode}]: argmax at (q11, q12) = "
        f"({res.argmax_q[0]:.4f}, {res.argmax_q[1]:.4f}), "
        f"on_boundary = {res.argmax_on_boundary}"
    )
    return EXIT_OK


def _verdict(report, out_path: str, claim: str, where: str) -> int:
    """Write the per-draw CSV and print the verdict line of a verify command."""
    lines = (f"{i},{q1!r},{q2!r},{int(ok)}" for i, (q1, q2, ok) in enumerate(report.per_draw))
    _write(_csv("draw,argmax_q11,argmax_q12,pass", lines), out_path)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{claim}: {report.n_pass}/{report.n_draws} draws {where} -> {verdict}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_verify_lemma1(args) -> int:
    base, grid = _grid_config(args.config, "mse")
    report = verify_lemma_blp(
        base,
        grid_n=grid["resolution"],
        n_draws=grid["draws"],
        pass_fraction=grid["pass_fraction"],
    )
    return _verdict(report, args.out, "lemma1 (worst-case MSE at circular center)", "at center")


def cmd_verify_lemma2(args) -> int:
    """Verdict on where the averaged exact-covariance power surface peaks.

    Judges the coupled surface of verify_lemma_slp, which for QPSK may peak
    inside the covariance disk; see docs/DECISIONS.md for why, and for the
    per-constraint form of the lemma, which always holds.
    """
    base, grid = _grid_config(args.config, "power")
    report = verify_lemma_slp(
        base,
        grid_n=grid["resolution"],
        n_draws=grid["draws"],
        n_symbols=grid["symbols_per_point"],
        pass_fraction=grid["pass_fraction"],
    )
    return _verdict(report, args.out, "lemma2 (worst-case power on rank-one boundary)", "on boundary")


def cmd_oracle(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_passed = True
    for name in names:
        outcome = SUITES[name]()
        status = "PASS" if outcome.passed else "FAIL"
        print(f"{outcome.name:24s} {status}  {outcome.detail}")
        all_passed &= outcome.passed
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncprecode",
        description="Downlink precoding simulator under non-circular Gaussian jamming",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text, out_help="CSV output path ('-' writes none)"):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--out", default="-", help=out_help)
        return p

    run = add_command("run", "run the configured scenarios/sweeps", "output path ('-' for stdout)")
    run.add_argument("--threads", type=int, default=1,
                     help="worker threads for chunks of trials, at least 1; threads do not "
                          "change results and are not faster (see README)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    add_command("sweep-q", "metric surface over the covariance disk")
    add_command("verify-lemma1", "worst-case MSE location check")
    add_command("verify-lemma2", "worst-case power location check")
    oracle = sub.add_parser("oracle", help="run an independent verification suite")
    oracle.add_argument("suite", choices=tuple(SUITES) + ("all",))
    return parser


_COMMANDS = {
    "run": cmd_run,
    "sweep-q": cmd_sweep_q,
    "verify-lemma1": cmd_verify_lemma1,
    "verify-lemma2": cmd_verify_lemma2,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PrecodingError, LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
