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


def _fmt(value) -> str:
    """Locale-independent shortest round-trip representation."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_qspec(text: str) -> QSpec:
    text = text.strip()
    if text == "circular":
        return QSpec("circular")
    if text == "random_rank_one":
        return QSpec("random_rank_one")
    if text.startswith("elements:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ConfigError(f"bad covariance spec: {text}")
        return QSpec("elements", q11=float(parts[0]), q12=float(parts[1]))
    if text.startswith("rank_one:"):
        return QSpec("rank_one", phi=float(text.split(":", 1)[1]))
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
        raise ConfigError(f"bad value for '{key}': {section[key]}") from exc


def load_config(path: str):
    """Parse a config file into (base Scenario, sweep axes, grid options)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    if "scenario" not in parser:
        raise ConfigError("config must contain a [scenario] section")
    sec = parser["scenario"]
    try:
        base = Scenario(
            m=_get(sec, "m", int),
            k=_get(sec, "k", int),
            d=_get(sec, "d", int),
            rho2_db=_get(sec, "rho2_db", float),
            awgn_std=_get(sec, "awgn_std", float),
            p=_get(sec, "p", float),
            trials=_get(sec, "trials", int),
            block_len=_get(sec, "block_len", int),
            seed=_get(sec, "seed", int),
            method=_get(sec, "method", str).strip(),
            q_spec=_get(sec, "q", _parse_qspec, required=False, default=QSpec("circular")),
            p_t_db=_get(sec, "p_t_db", float, required=False),
            psi_db=_get(sec, "psi_db", float, required=False),
            n_div=_get(sec, "n_div", int, required=False, default=16),
        )
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

    grid = {"resolution": 21, "draws": 100, "symbols_per_point": 50, "pass_fraction": 0.95}
    if "grid" in parser:
        gr = parser["grid"]
        grid["resolution"] = _get(gr, "resolution", int, required=False, default=21)
        grid["draws"] = _get(gr, "draws", int, required=False, default=100)
        grid["symbols_per_point"] = _get(
            gr, "symbols_per_point", int, required=False, default=50
        )
        grid["pass_fraction"] = _get(
            gr, "pass_fraction", float, required=False, default=0.95
        )
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
    row = {
        "method": sc.method,
        "m": sc.m,
        "k": sc.k,
        "d": sc.d,
        "p_t_db": sc.p_t_db,
        "rho2_db": sc.rho2_db,
        "q": sc.q_spec.label(),
        "awgn_std": sc.awgn_std,
        "p": sc.p,
        "psi_db": sc.psi_db,
        "n_div": sc.n_div,
        "trials": sc.trials,
        "block_len": sc.block_len,
        "seed": sc.seed,
        "worst_user_ser": rec.worst_user_ser,
        "worst_user_ser_se": rec.worst_user_ser_se,
        "ber": rec.ber,
        "ber_se": rec.ber_se,
        "bler": rec.bler,
        "bler_se": rec.bler_se,
        "avg_tx_power": rec.avg_tx_power,
        "avg_tx_power_se": rec.avg_tx_power_se,
        "throughput": rec.throughput,
        "ee": rec.ee,
        "ee_se": rec.ee_se,
        "ser_per_user": "|".join(repr(v) for v in rec.ser_per_user),
    }
    return row


def _write_rows(rows, out_path: str, fmt: str):
    columns = SCENARIO_COLUMNS + METRIC_COLUMNS
    if fmt == "json":
        payload = json.dumps(rows, indent=2, sort_keys=False)
        text = payload + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def cmd_run(args) -> int:
    base, sweep, _ = load_config(args.config)
    rows = []
    for sc in expand_sweep(base, sweep):
        rec = run_montecarlo(sc, threads=args.threads)
        rows.append(_row_dict(sc, rec))
    _write_rows(rows, args.out, args.format)
    return EXIT_OK


def _write_grid_csv(result, out_path: str):
    lines = ["q11,q12,value,feasible,boundary"]
    for i, q1 in enumerate(result.q11):
        for j, q2 in enumerate(result.q12):
            val = result.values[i, j]
            lines.append(
                ",".join(
                    [
                        repr(float(q1)),
                        repr(float(q2)),
                        "" if not result.feasible[i, j] else repr(float(val)),
                        str(int(result.feasible[i, j])),
                        str(int(result.boundary[i, j])),
                    ]
                )
            )
    with open(out_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_sweep_q(args) -> int:
    base, _, grid = load_config(args.config)
    result = sweep_q_grid(base, grid_n=grid["resolution"], n_symbols=grid["symbols_per_point"])
    _write_grid_csv(result, args.out)
    print(
        f"sweep-q [{result.mode}]: argmax at (q11, q12) = "
        f"({result.argmax_q[0]:.4f}, {result.argmax_q[1]:.4f}), "
        f"on_boundary = {result.argmax_on_boundary}"
    )
    return EXIT_OK


def _write_lemma_csv(report, out_path: str):
    lines = ["draw,argmax_q11,argmax_q12,pass"]
    for idx, (q1, q2, ok) in enumerate(report.per_draw):
        lines.append(f"{idx},{q1!r},{q2!r},{int(ok)}")
    with open(out_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_verify_lemma1(args) -> int:
    base, _, grid = load_config(args.config)
    report = verify_lemma_blp(
        base,
        grid_n=grid["resolution"],
        n_draws=grid["draws"],
        pass_fraction=grid["pass_fraction"],
    )
    if args.out != "-":
        _write_lemma_csv(report, args.out)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"lemma1 (worst-case MSE at circular center): {report.n_pass}/{report.n_draws} "
        f"draws at center -> {verdict}"
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


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
    if args.out != "-":
        _write_lemma_csv(report, args.out)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"lemma2 (worst-case power on rank-one boundary): {report.n_pass}/{report.n_draws} "
        f"draws on boundary -> {verdict}"
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


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

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (must not change results)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    add_common(sub.add_parser("run", help="run the configured scenarios/sweeps"))
    add_common(sub.add_parser("sweep-q", help="metric surface over the covariance disk"))
    add_common(sub.add_parser("verify-lemma1", help="worst-case MSE location check"))
    add_common(sub.add_parser("verify-lemma2", help="worst-case power location check"))
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
