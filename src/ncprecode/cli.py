"""Command-line front end: scenario configs, sweeps and verification runs.

Configs are INI-style files (see README for the grammar). All powers are
given in dB and converted once on load; output files are deterministic
functions of the config contents, including the seed.
"""

import argparse
import configparser
import json
import sys
from dataclasses import replace

from numpy.linalg import LinAlgError

from .errors import ConfigError, PrecodingError
from .oracles import SUITES
from .sim import (
    METHODS,
    MetricsRecord,
    QSpec,
    Scenario,
    run_montecarlo,
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
    kind, sep, args = text.strip().partition(":")
    if kind in ("circular", "random_rank_one") and not sep:
        return QSpec(kind)
    values = [float(v) for v in args.split(",")]
    if kind == "elements" and len(values) == 2:
        return QSpec(kind, q11=values[0], q12=values[1])
    if kind == "rank_one" and len(values) == 1:
        return QSpec(kind, phi=values[0])
    raise ConfigError(f"bad covariance spec: {text}")


def _get(section, key, conv, required=True, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{key}' in [{section.name}]")
        return default
    try:
        return conv(section[key])
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value for '{key}': {section[key]} ({exc})") from exc


# [scenario] keys in the order they are checked. Optional keys map to
# (Scenario field, converter); absent ones take Scenario's defaults.
_SCENARIO_REQUIRED = {
    "m": int, "k": int, "d": int, "rho2_db": float, "awgn_std": float, "p": float,
    "trials": int, "block_len": int, "seed": int, "method": str.strip,
}
_SCENARIO_OPTIONAL = {
    "q": ("q_spec", _parse_qspec), "p_t_db": ("p_t_db", float),
    "psi_db": ("psi_db", float), "n_div": ("n_div", int),
}
# [grid] key -> (converter, default, validity test, rule in the error message).
_GRID = {
    "resolution": (int, 21, lambda v: v >= 5, "at least 5"),
    "draws": (int, 100, lambda v: v >= 1, "at least 1"),
    "symbols_per_point": (int, 50, lambda v: v >= 1, "at least 1"),
    "pass_fraction": (float, 0.95, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
}


def load_config(path: str):
    """Parse a config file into (base Scenario, sweep axes, grid options)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    if "scenario" not in parser:
        raise ConfigError("config must contain a [scenario] section")
    sec = parser["scenario"]
    fields = {key: _get(sec, key, conv) for key, conv in _SCENARIO_REQUIRED.items()}
    for key, (name, conv) in _SCENARIO_OPTIONAL.items():
        if key in sec:
            fields[name] = _get(sec, key, conv)
    try:
        base = Scenario(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sweep = {}
    if "sweep" in parser:
        sw = parser["sweep"]
        for key, conv in (("psi_db", float), ("p", float), ("rho2_db", float)):
            if key in sw:
                try:
                    values = sorted(conv(v) for v in sw[key].split(","))
                except Exception as exc:
                    raise ConfigError(f"bad sweep axis '{key}': {sw[key]}") from exc
                if not values:
                    raise ConfigError(f"empty sweep axis '{key}'")
                sweep[key] = values
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
        grid[key] = _get(gr, key, conv, required=False, default=default)
        if not valid(grid[key]):
            raise ConfigError(f"[grid] {key} must be {rule}, got {grid[key]}")
    return base, sweep, grid


def expand_sweep(base: Scenario, sweep: dict):
    """Cartesian product of the sweep axes, methods outermost, values ascending."""
    try:
        scenarios = [base]
        if "method" in sweep:
            scenarios = [replace(s, method=m) for m in sweep["method"] for s in scenarios]
        for key in ("rho2_db", "p", "psi_db"):
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
    rows = [_row_dict(sc, run_montecarlo(sc, threads=args.threads)) for sc in expand_sweep(base, sweep)]
    _write_rows(rows, args.out, args.format)
    return EXIT_OK


def cmd_sweep_q(args) -> int:
    base, _, grid = load_config(args.config)
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
    base, _, grid = load_config(args.config)
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
    base, _, grid = load_config(args.config)
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
                     help="worker threads (must not change results)")
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
    args = build_parser().parse_args(argv)
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
