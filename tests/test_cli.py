import hashlib
import json

import numpy as np
import pytest

from ncprecode import cli, sim

MINIMAL = """
[scenario]
m = 2
k = 2
d = 4
rho2_db = 10.0
awgn_std = 1.0
p = 0.9
psi_db = 5.0
trials = 3
block_len = 10
seed = 99
method = nc_slp
q = random_rank_one
"""

SWEEP = MINIMAL + """
[sweep]
psi_db = 8.0, 0.0, 4.0, 2.0, 6.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRun:
    def test_minimal_csv(self, tmp_path):
        cfg = write(tmp_path, "min.cfg", MINIMAL)
        out = tmp_path / "out.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[0] == "method"
        assert "worst_user_ser" in header

    def test_psi_sweep_rows_ascending(self, tmp_path):
        cfg = write(tmp_path, "sweep.cfg", SWEEP)
        out = tmp_path / "out.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6
        header = lines[0].split(",")
        col = header.index("psi_db")
        psis = [float(line.split(",")[col]) for line in lines[1:]]
        assert psis == sorted(psis) == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "min.cfg", MINIMAL)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["run", "--config", cfg, "--out", str(out1)])
        cli.main(["run", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = write(tmp_path, "min.cfg", MINIMAL)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["run", "--config", cfg, "--out", str(out1), "--threads", "1"])
        cli.main(["run", "--config", cfg, "--out", str(out2), "--threads", "4"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        cfg = write(tmp_path, "min.cfg", MINIMAL)
        out = tmp_path / "out.json"
        assert cli.main(["run", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        assert rows[0]["method"] == "nc_slp"

    def test_config_error_exit_code(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", "[scenario]\nm = 2\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_method_exit_code(self, tmp_path):
        bad = MINIMAL.replace("method = nc_slp", "method = bogus")
        cfg = write(tmp_path, "bad.cfg", bad)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_zero_n_div_fails_at_load(self, tmp_path):
        bad = MINIMAL.replace("method = nc_slp", "method = robust_slp") + "n_div = 0\n"
        cfg = write(tmp_path, "bad.cfg", bad)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("awgn_std", ["-1.0", "nan", "inf"])
    def test_bad_awgn_std_fails_at_load(self, tmp_path, awgn_std):
        bad = MINIMAL.replace("awgn_std = 1.0", f"awgn_std = {awgn_std}")
        cfg = write(tmp_path, "bad.cfg", bad)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["pw_slp", "pw_blp", "pw_msm"])
    @pytest.mark.parametrize("q", ["random_rank_one", "rank_one:0.3", "elements:0.5,0.5"])
    def test_whitening_without_awgn_fails_at_load(self, tmp_path, method, q):
        bad = (
            MINIMAL.replace("awgn_std = 1.0", "awgn_std = 0.0")
            .replace("method = nc_slp", f"method = {method}\np_t_db = 20.0")
            .replace("q = random_rank_one", f"q = {q}")
        )
        cfg = write(tmp_path, "bad.cfg", bad)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("method, q", [("nc_slp", "random_rank_one"), ("pw_slp", "elements:0.7,-0.3")])
    def test_zero_awgn_accepted_when_noise_stays_definite(self, tmp_path, method, q):
        ok = (
            MINIMAL.replace("awgn_std = 1.0", "awgn_std = 0.0")
            .replace("method = nc_slp", f"method = {method}")
            .replace("q = random_rank_one", f"q = {q}")
        )
        cfg = write(tmp_path, "ok.cfg", ok)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "method, rho2_db",
        [("naive_blp", "10.0"), ("naive_blp", "-inf")]
        + [(m, r) for m in ("robust_blp", "pw_blp", "pw_msm", "pw_slp") for r in ("-inf", "-4000")],
    )
    def test_zero_noise_whitening_fails_at_load(self, tmp_path, capsys, method, rho2_db):
        # naive_blp whitens the AWGN alone; robust_blp and the pw_* methods
        # whiten the effective noise, which is zero without AWGN and jammer
        # (-4000 dB underflows to rho2 = 0).
        bad = (
            MINIMAL.replace("awgn_std = 1.0", "awgn_std = 0.0")
            .replace("rho2_db = 10.0", f"rho2_db = {rho2_db}")
            .replace("method = nc_slp", f"method = {method}\np_t_db = 20.0")
            .replace("q = random_rank_one", "q = circular")
        )
        cfg = write(tmp_path, "bad.cfg", bad)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: method {method} whitens" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, rho2_db",
        [("robust_blp", "10.0"), ("pw_blp", "10.0")]
        + [(m, "-inf") for m in ("nc_slp", "naive_slp", "robust_slp", "msm")],
    )
    def test_zero_noise_accepted_where_nothing_is_whitened(self, tmp_path, method, rho2_db):
        ok = (
            MINIMAL.replace("awgn_std = 1.0", "awgn_std = 0.0")
            .replace("rho2_db = 10.0", f"rho2_db = {rho2_db}")
            .replace("method = nc_slp", f"method = {method}\np_t_db = 20.0")
            .replace("q = random_rank_one", "q = circular")
        )
        cfg = write(tmp_path, "ok.cfg", ok)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (MINIMAL + "m = 3\n", "option 'm' in section 'scenario' already exists"),
            (MINIMAL + "[scenario]\nseed = 1\n", "section 'scenario' already exists"),
            ("m = 2\n" + MINIMAL, "File contains no section headers"),
            (MINIMAL.replace("m = 2", "m = %(x)s"), "bad value for 'm': %(x)s"),
        ],
        ids=["repeated-key", "repeated-section", "no-section-header", "percent-is-literal"],
    )
    def test_unparsable_config_exits_2(self, tmp_path, capsys, text, message):
        cfg = write(tmp_path, "bad.cfg", text)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("covariance", ["circular", "elements:0.7,-0.3", "rank_one:0.6", "random_rank_one"])
    def test_covariance_spec_label_round_trip(self, covariance):
        spec = cli._parse_qspec(covariance)
        assert spec.label() == covariance
        assert cli._parse_qspec(spec.label()) == spec

    @pytest.mark.parametrize(
        "kind, args", [("circular", (0.5,)), ("elements", (0.5,)), ("rank_one", ()), ("rank_one", (0.1, 0.2)),
                       ("bogus", ())],
    )
    def test_covariance_spec_arity_checked_on_construction(self, kind, args):
        with pytest.raises(ValueError):
            sim.QSpec(kind, args)

    @pytest.mark.parametrize(
        "q",
        [
            "elements:1.2,0.0", "elements:0.5,0.51", "elements:-0.01,0.0",
            "rank_one:nan", "rank_one:inf", "elements:nan,0", "elements:0.5,nan",
        ],
    )
    def test_covariance_outside_disk_fails_at_load(self, tmp_path, q):
        bad = MINIMAL.replace("q = random_rank_one", f"q = {q}")
        cfg = write(tmp_path, "bad.cfg", bad)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, code",
        [
            ("rho2_db", "nan", 2), ("rho2_db", "inf", 2), ("rho2_db", "4000", 2),
            ("psi_db", "nan", 2), ("psi_db", "inf", 2), ("psi_db", "4000", 2),
            ("p_t_db", "nan", 2), ("p_t_db", "inf", 2), ("p_t_db", "4000", 2),
            ("p_t_db", "-inf", 2), ("p_t_db", "-4000", 2),
            ("rho2_db", "-inf", 0), ("psi_db", "-inf", 0),
        ],
    )
    def test_db_values_need_a_finite_linear_value(self, tmp_path, key, value, code):
        text = "\n".join(
            f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in (MINIMAL + "p_t_db = 20.0\n").splitlines()
        )
        cfg = write(tmp_path, "db.cfg", text)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == code
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("method", ["naive_blp", "pw_blp", "robust_blp"])
    def test_budget_whose_precoder_power_underflows(self, tmp_path, capsys, method):
        # 10^(-200) is a positive budget, but the MMSE precoder's power is
        # of order p_t^2 and underflows to 0, so no beta exists.
        text = MINIMAL.replace("method = nc_slp", f"method = {method}") + "p_t_db = -2000\n"
        cfg = write(tmp_path, "tiny.cfg", text)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert "error: power budget 1e-200 is too small" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["robust_blp", "pw_blp"])
    @pytest.mark.parametrize("rho2_db", ["-3080", "-3200"])
    def test_whitened_gram_overflow_is_reported(self, tmp_path, capsys, method, rho2_db):
        # Without AWGN the whitened channel is of order 1/sqrt(rho2), so its
        # Gram product overflows. Warnings are errors here, so a run that
        # overflows before the check fails the test.
        text = (
            MINIMAL.replace("awgn_std = 1.0", "awgn_std = 0.0")
            .replace("rho2_db = 10.0", f"rho2_db = {rho2_db}")
            .replace("method = nc_slp", f"method = {method}\np_t_db = 20.0")
            .replace("q = random_rank_one", "q = circular")
        )
        cfg = write(tmp_path, "tiny-jammer.cfg", text)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: the whitened channel's Gram product overflows" in err
        assert "underflows" not in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["naive_blp", "pw_blp", "robust_blp", "msm", "pw_msm"])
    @pytest.mark.parametrize("p_t_db, code", [("1600", 2), ("3080", 2), ("1500", 0)])
    def test_budget_whose_square_overflows_fails_at_load(self, tmp_path, capsys, method, p_t_db, code):
        # p_t^2 overflows above about 1541.3 dB; the BLP precoder's power is
        # of order p_t^2. Warnings are errors here, so a run that overflows
        # fails the test.
        text = MINIMAL.replace("method = nc_slp", f"method = {method}") + f"p_t_db = {p_t_db}\n"
        cfg = write(tmp_path, "huge.cfg", text)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == code
        if code:
            assert "budget whose square overflows" in capsys.readouterr().err
            assert not out.exists()
        else:
            header, row = out.read_text().splitlines()
            values = dict(zip(header.split(","), row.split(",")))
            assert all(np.isfinite(float(values[c])) for c in cli.METRIC_COLUMNS[:-1])

    @pytest.mark.parametrize(
        "text, message",
        [
            (MINIMAL.replace("q = random_rank_one", "q = bogus"), "bad covariance spec: bogus"),
            (MINIMAL.replace("q = random_rank_one", "q = rank_one"), "bad covariance spec: rank_one"),
            (MINIMAL.replace("q = random_rank_one", "q = elements:0.1"), "bad covariance spec: elements:0.1"),
            (MINIMAL.replace("[scenario]", "[other]"), "config must contain a [scenario] section"),
            (MINIMAL + "[sweep]\np = 0.5, x\n", "bad sweep axis 'p': 0.5, x"),
            (MINIMAL + "[sweep]\np =\n", "bad sweep axis 'p'"),
            (MINIMAL + "[sweep]\nmethod = nc_slp, bogus\n", "unknown method in sweep: bogus"),
            (MINIMAL + "[sweep]\nmethod = ,\n", "empty sweep axis 'method'"),
            (MINIMAL + "[sweep]\np = 0.5, 1.5\n", "confidence level must be in (0, 1)"),
            (MINIMAL + "[sweep]\npsi_db = x\nrho2_db = y\n", "bad sweep axis 'rho2_db': y"),
            (MINIMAL + "n_dvi = 4\n", "unknown key 'n_dvi' in [scenario]"),
            (MINIMAL + "[sweep]\nmethods = nc_slp, msm\n", "unknown key 'methods' in [sweep]"),
            (MINIMAL + "[grid]\nresolutoin = 3\n", "unknown key 'resolutoin' in [grid]"),
            ("[DEFAULT]\nseeed = 1\n" + MINIMAL, "unknown key 'seeed' in [scenario]"),
            (MINIMAL + "[grid]\n[sweeps]\np = 0.5\n", "unknown section [sweeps]"),
            (MINIMAL.replace("d = 4", "d = 3"), "PSK order must be one of 2, 4, 8, 16"),
            (MINIMAL.replace("trials = 3", "trials = 0"), "trials and block_len must be at least 1"),
            (MINIMAL.replace("block_len = 10", "block_len = 0"), "trials and block_len must be at least 1"),
            (
                MINIMAL.replace("psi_db = 5.0", "psi_db = 3000").replace("rho2_db = 10.0", "rho2_db = 100"),
                "psi_db = 3000.0 gives an infinite preset margin",
            ),
        ],
        ids=[
            "q-bogus", "q-rank_one-no-phi", "q-elements-one-value", "no-scenario", "sweep-p-not-a-number",
            "sweep-p-empty", "sweep-method-unknown", "sweep-method-empty", "sweep-p-out-of-range",
            "sweep-two-bad-axes", "scenario-unknown-key", "sweep-unknown-key", "grid-unknown-key",
            "default-unknown-key", "unknown-section", "psk-order-3", "zero-trials", "zero-block-len",
            "preset-margin-overflows",
        ],
    )
    def test_config_errors_exit_2(self, tmp_path, capsys, text, message):
        cfg = write(tmp_path, "bad.cfg", text)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_every_scenario_field_loads_from_its_key(self, tmp_path):
        text = MINIMAL.replace("q = random_rank_one", "q = elements:0.8,0.1") + "n_div = 8\np_t_db = 20.0\n"
        base, sweep, _ = cli.load_config(write(tmp_path, "all.cfg", text))
        assert base == sim.Scenario(
            m=2, k=2, d=4, rho2_db=10.0, awgn_std=1.0, p=0.9, trials=3, block_len=10, seed=99,
            method="nc_slp", q_spec=sim.QSpec("elements", (0.8, 0.1)), p_t_db=20.0, psi_db=5.0, n_div=8,
        )
        assert sweep == {}

    @pytest.mark.parametrize(
        "key", ["m", "k", "d", "rho2_db", "awgn_std", "p", "trials", "block_len", "seed", "method"]
    )
    def test_each_required_key_is_reported(self, tmp_path, capsys, key):
        text = "\n".join(line for line in MINIMAL.splitlines() if not line.startswith(f"{key} ="))
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", write(tmp_path, "bad.cfg", text), "--out", str(out)]) == 2
        assert f"config error: missing required key '{key}' in [scenario]" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        assert cli.main(["run", "--config", missing, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"config error: cannot read config file: {missing}" in capsys.readouterr().err

    def test_linalg_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def singular(args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setitem(cli._COMMANDS, "run", singular)
        cfg = write(tmp_path, "min.cfg", MINIMAL)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "error: Singular matrix" in capsys.readouterr().err


LEMMA1_SMALL = """
[scenario]
m = 3
k = 3
d = 4
p_t_db = 20.0
rho2_db = 10.0
awgn_std = 1.0
p = 0.95
trials = 1
block_len = 1
seed = 7
method = pw_blp

[grid]
resolution = 11
draws = 6
pass_fraction = 0.95
"""

LEMMA2_SMALL = """
[scenario]
m = 3
k = 3
d = 4
rho2_db = 10.0
awgn_std = 1.0
p = 0.95
psi_db = -300.0
trials = 1
block_len = 1
seed = 7
method = nc_slp

[grid]
resolution = 11
draws = 6
symbols_per_point = 1
pass_fraction = 0.8
"""


class TestVerifyCommands:
    def test_lemma1_pass(self, tmp_path):
        cfg = write(tmp_path, "l1.cfg", LEMMA1_SMALL)
        out = tmp_path / "grid.csv"
        code = cli.main(["verify-lemma1", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "draw,argmax_q11,argmax_q12,pass"
        assert len(lines) == 7

    def test_lemma2_small(self, tmp_path):
        cfg = write(tmp_path, "l2.cfg", LEMMA2_SMALL)
        out = tmp_path / "grid.csv"
        code = cli.main(["verify-lemma2", "--config", cfg, "--out", str(out)])
        assert code in (0, 3)
        assert out.exists()

    def test_sweep_q(self, tmp_path):
        cfg = write(tmp_path, "l1.cfg", LEMMA1_SMALL)
        out = tmp_path / "surface.csv"
        assert cli.main(["sweep-q", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "q11,q12,value,feasible,boundary"
        assert len(lines) == 1 + 11 * 11

    @pytest.mark.parametrize("command", ["sweep-q", "verify-lemma1", "verify-lemma2"])
    @pytest.mark.parametrize("option", [["--threads", "2"], ["--format", "json"]])
    def test_run_only_options_rejected(self, tmp_path, command, option):
        cfg = write(tmp_path, "l1.cfg", LEMMA1_SMALL)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", cfg] + option)
        assert exc.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_run_needs_at_least_one_thread(self, tmp_path, capsys, threads):
        cfg, out = write(tmp_path, "t.cfg", MINIMAL), tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", cfg, "--out", str(out), "--threads", threads])
        assert exc.value.code == 2
        assert f"argument --threads: must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()


class TestGridValidation:
    @pytest.mark.parametrize("command", ["sweep-q", "verify-lemma1", "verify-lemma2"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("resolution", "3"), ("resolution", "4"), ("draws", "0"), ("symbols_per_point", "0"),
            ("pass_fraction", "0.0"), ("pass_fraction", "1.5"), ("pass_fraction", "nan"),
        ],
    )
    def test_bad_value_fails_at_load(self, tmp_path, command, key, value):
        bad = "\n".join(
            f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in LEMMA2_SMALL.splitlines()
        )
        cfg = write(tmp_path, "bad.cfg", bad)
        out = tmp_path / "x.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()


class TestGridNoise:
    @pytest.mark.parametrize("resolution", ["7", "8"])
    @pytest.mark.parametrize("command", ["verify-lemma1", "sweep-q"])
    def test_mse_surface_without_awgn_fails_at_load(self, tmp_path, capsys, command, resolution):
        # An odd grid holds exactly rank-one cells, whose noise is singular
        # without AWGN; an even grid's cells are only near rank one.
        bad = (
            LEMMA1_SMALL.replace("awgn_std = 1.0", "awgn_std = 0.0")
            .replace("method = pw_blp", "method = robust_blp")
            .replace("resolution = 11", f"resolution = {resolution}")
            .replace("draws = 6", "draws = 2")
        )
        cfg = write(tmp_path, "bad.cfg", bad)
        out = tmp_path / "x.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error: the mse surface needs awgn_std > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify-lemma2", "sweep-q"])
    def test_power_surface_without_awgn_runs(self, tmp_path, command):
        ok = LEMMA2_SMALL.replace("awgn_std = 1.0", "awgn_std = 0.0").replace("draws = 6", "draws = 2")
        cfg = write(tmp_path, "ok.cfg", ok)
        out = tmp_path / "x.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) in (0, 3)
        assert out.exists()


class TestGridKeys:
    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("verify-lemma2", LEMMA1_SMALL, "psi_db"),
            ("verify-lemma1", LEMMA2_SMALL, "p_t_db"),
            ("sweep-q", LEMMA1_SMALL.replace("method = pw_blp", "method = msm"), "psi_db"),
        ],
        ids=["verify-lemma2", "verify-lemma1", "sweep-q-msm"],
    )
    def test_missing_surface_key_fails_at_load(self, tmp_path, monkeypatch, capsys, command, config, key):
        def no_draw(*args):
            raise AssertionError("a draw was computed")

        monkeypatch.setattr(sim, "_draw_surface", no_draw)
        cfg = write(tmp_path, "grid.cfg", config)
        out = tmp_path / "x.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()


class TestOracleCommand:
    def test_qp_suite(self, capsys):
        assert cli.main(["oracle", "qp"]) == 0
        out = capsys.readouterr().out
        assert "qp-enumeration" in out and "PASS" in out


PINNED_RUN = MINIMAL + """p_t_db = 20.0

[sweep]
method = naive_blp, pw_msm, nc_slp, robust_slp
"""

# SHA-256 of (exit code, stdout, --out file) per command on the small configs
# above. Like bench/digests.json these are host-specific: they were recorded
# on x86-64 Linux with Python 3.11 and numpy 2.4 and may differ on another
# platform or BLAS build.
PINNED = {
    "run-csv": ("run", PINNED_RUN, ["--format", "csv"],
        "540a5b85054df42a5fd82f811503b0b9634f5b4fd7916ec0d0d5e8cdecb4245c"),
    "run-json": ("run", PINNED_RUN, ["--format", "json"],
        "287cbad776fde48c6af9de9372f8c7635fcd3bbd7f4b403cf7531c0504433eb7"),
    "run-stdout": ("run", PINNED_RUN, ["--out", "-"],
        "073de2ab165513709adb299dae2e97b518df7861201de96c29773b35f3b5f2e3"),
    "sweep-q-mse": ("sweep-q", LEMMA1_SMALL, [],
        "ac94f629dc72f2248994c273c0b93171878c7050ac3772b382d698b761281a7d"),
    "sweep-q-power": ("sweep-q", LEMMA2_SMALL, [],
        "7c6a10ce8993b80ed49c77311cd36726639637db82c013af5b4c9116b8821d63"),
    "verify-lemma1": ("verify-lemma1", LEMMA1_SMALL, [],
        "bf49600059e9ace3bd2a392b2be2d14a029b2ca247e5f53ad1189597b78e685b"),
    "verify-lemma2": ("verify-lemma2", LEMMA2_SMALL, [],
        "98a374361a6a532b3d1265edfeba72764a3d728b7596b21014106e0857ae2660"),
}


def _output_digest(tmp_path, capsys, command, config, extra):
    cfg = write(tmp_path, "pinned.cfg", config)
    out = tmp_path / "out"
    argv = [command, "--config", cfg] + extra
    if "--out" not in extra:
        argv += ["--out", str(out)]
    capsys.readouterr()
    code = cli.main(argv)
    stdout = capsys.readouterr().out.encode()
    written = out.read_bytes() if out.exists() else b""
    return hashlib.sha256(b"%d\n%s\n%s" % (code, stdout, written)).hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_output_bytes(self, tmp_path, capsys, case):
        command, config, extra, expected = PINNED[case]
        assert _output_digest(tmp_path, capsys, command, config, extra) == expected

    def test_sweep_q_without_out_writes_no_file(self, tmp_path, monkeypatch, capsys):
        cfg = write(tmp_path, "l1.cfg", LEMMA1_SMALL)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sweep-q", "--config", cfg]) == 0
        assert "argmax at" in capsys.readouterr().out
        assert not (tmp_path / "-").exists()
