import json

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


class TestOracleCommand:
    def test_qp_suite(self, capsys):
        assert cli.main(["oracle", "qp"]) == 0
        out = capsys.readouterr().out
        assert "qp-enumeration" in out and "PASS" in out
