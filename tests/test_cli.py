import hashlib
import json

import numpy as np
import pytest

from ncprecode import cli

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

    @pytest.mark.parametrize("q", ["elements:1.2,0.0", "elements:0.5,0.51", "elements:-0.01,0.0"])
    def test_covariance_outside_disk_fails_at_load(self, tmp_path, q):
        bad = MINIMAL.replace("q = random_rank_one", f"q = {q}")
        cfg = write(tmp_path, "bad.cfg", bad)
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

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
