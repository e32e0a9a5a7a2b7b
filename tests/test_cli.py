"""End-to-end tests of the command-line entry point (in-process)."""

import logging
import re

import numpy as np
import pytest

from compopt import baselines, cli, harness
from compopt.cli import cli_main
from compopt.problems import load_returns_csv, synthetic_returns, write_returns_csv
from compopt.trace import TRACE_HEADER


def run_cli(*argv):
    return cli_main(list(argv))


class TestRun:
    def test_toy_run_writes_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("run", "--problem", "toy", "--toy-kind", "identity",
                       "--d", "3", "--budget", "20", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert all(line.split(",")[0] == "scvrg" for line in lines[1:])

    def test_run_rejects_multiple_algorithms(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "toy", "--algo", "scvrg,agd",
                       "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "bench" in capsys.readouterr().err

    def test_run_with_data_file(self, tmp_path):
        data = tmp_path / "returns.csv"
        write_returns_csv(synthetic_returns(40, 3, seed=0), str(data))
        out = tmp_path / "trace.csv"
        code = run_cli("run", "--data", str(data), "--budget", "10",
                       "--algo", "scgd", "--out", str(out))
        assert code == 0

    def test_missing_data_file_is_input_error(self, tmp_path):
        code = run_cli("run", "--data", str(tmp_path / "absent.csv"),
                       "--out", str(tmp_path / "t.csv"))
        assert code == 1


class TestBench:
    def test_multiple_algorithms_and_seeds(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli("bench", "--problem", "toy", "--toy-kind", "affine",
                       "--d", "3", "--budget", "20", "--algo", "scvrg,scgd",
                       "--seed", "0,1", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert {(r[0], r[1]) for r in rows} == {("scvrg", "0"), ("scvrg", "1"),
                                                ("scgd", "0"), ("scgd", "1")}

    def test_unknown_algorithm(self, tmp_path, capsys):
        code = run_cli("bench", "--problem", "toy", "--algo", "sgd",
                       "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "unknown algorithms" in capsys.readouterr().err

    def test_bad_seed_list(self, tmp_path):
        assert run_cli("bench", "--problem", "toy", "--seed", "0,x",
                       "--out", str(tmp_path / "t.csv")) == 1

    def test_epochs_flag_honored(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli("bench", "--problem", "toy", "--toy-kind", "identity",
                       "--d", "2", "--budget", "500", "--algo", "scvrg",
                       "--epochs", "2", "--out", str(out))
        assert code == 0
        epochs = {line.split(",")[2]
                  for line in out.read_text().strip().split("\n")[1:]}
        assert max(int(e) for e in epochs) == 2

    def test_flags_go_to_every_algorithm_that_reads_them(self, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(cli, "run_benchmark", lambda spec: specs.append(spec) or spec.out)
        assert run_cli("bench", "--problem", "toy", "--algo", "scvrg,scgd", "--k0", "20",
                       "--eta", "0.05", "--out", str(tmp_path / "t.csv")) == 0
        assert specs[0].params == {"k0": 20, "eta": 0.05}
        assert specs[0].configs["scvrg"].k0 == 20
        assert specs[0].configs["scgd"].eta == 0.05

    def test_batch_flags_set_every_algorithms_trace_cadence(self, tmp_path):
        # scgd reads no field, but its rows come every ceil(N / (a + b)) steps
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--problem", "toy", "--algo", "scvrg,scgd", "--a", "2",
                       "--b", "3", "--budget", "5", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        iters = [int(r[3]) for r in rows if r[0] == "scgd"]
        every = -(-200 // 5)  # the default toy has N = m = 200
        assert iters[:-1] == list(range(0, iters[-1], every))
        assert iters[-1] == 5 * 200 // 2  # the last step, at 2 samples each

    def test_toy_defaults_pay_for_a_full_epoch(self, tmp_path, caplog):
        out = tmp_path / "bench.csv"
        with caplog.at_level(logging.WARNING, logger="compopt.harness"):
            code = run_cli("bench", "--problem", "toy", "--out", str(out))
        assert code == 0
        assert "first epoch" not in caplog.text
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert any(r[0] == "scvrg" and r[2] == "2" for r in rows)  # epoch 1 closed


class TestPhistar:
    def test_prints_float(self, capsys):
        code = run_cli("phistar", "--problem", "toy", "--toy-kind", "identity",
                       "--d", "2", "--budget", "500")
        assert code == 0
        float(capsys.readouterr().out.strip())  # parses

    def test_meanvar_defaults_converge_with_bound_on_stderr(self, capsys, caplog):
        with caplog.at_level(logging.WARNING, logger="compopt.harness"):
            code = run_cli("phistar", "--problem", "meanvar")
        assert code == 0
        assert "did not converge" not in caplog.text
        captured = capsys.readouterr()
        float(captured.out.strip())
        match = re.search(r"bound (\S+) after (\d+) full gradients", captured.err)
        assert match is not None
        bound = float(match.group(1))
        assert np.isfinite(bound) and bound >= 0.0
        assert int(match.group(2)) <= 100  # 200 units of N over m + n = 400


class TestCheck:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run_cli("check", "--trials", "5000", "--out", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "[PASS]" in printed and "[FAIL]" not in printed
        assert out.read_text().startswith("name,pass,measured,bound,trials,seed\n")


class TestToygen:
    def test_meanvar_csv_roundtrips(self, tmp_path):
        out = tmp_path / "returns.csv"
        code = run_cli("toygen", "--problem", "meanvar", "--n", "30", "--d", "4",
                       "--out", str(out))
        assert code == 0
        ds = load_returns_csv(str(out))
        assert (ds.N, ds.d) == (30, 4)

    def test_bellman_npz(self, tmp_path):
        out = tmp_path / "bellman.npz"
        code = run_cli("toygen", "--problem", "bellman", "--states", "4",
                       "--n", "6", "--out", str(out))
        assert code == 0
        data = np.load(str(out))
        assert data["P"].shape == (6, 4, 4)
        np.testing.assert_allclose(data["P"].sum(axis=2), 1.0, atol=1e-12)

    def test_toy_npz(self, tmp_path):
        for kind in ("identity", "affine", "mixed"):
            out = tmp_path / f"{kind}.npz"
            code = run_cli("toygen", "--problem", "toy", "--toy-kind", kind,
                           "--d", "3", "--out", str(out))
            assert code == 0
            data = np.load(str(out))
            assert {"A", "b", "centers", "scales"} <= set(data.files)
            assert data["A"].shape[1:] == (3, 3)
            assert data["scales"].shape == data["centers"].shape[:1]


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ("run", "--problem", "toy", "--eta", "nan"),
        ("run", "--problem", "toy", "--eta", "inf"),
        ("bench", "--problem", "toy", "--algo", "vrscpg", "--eta", "nan"),
        ("run", "--problem", "toy", "--budget", "nan"),
        ("run", "--problem", "toy", "--budget", "inf"),
        ("bench", "--problem", "toy", "--budget", "nan"),
        ("phistar", "--problem", "toy", "--budget", "nan"),
        ("phistar", "--problem", "toy", "--budget", "0"),
        ("phistar", "--problem", "toy", "--budget", "-5"),
        ("bench", "--problem", "toy", "--algo", "scgd", "--a", "0", "--b", "0"),
        ("run", "--problem", "toy", "--epochs", "0"),
        ("run", "--problem", "toy", "--d", "2", "--n", "4", "--epochs", "1100", "--budget", "5"),
        ("run", "--problem", "toy", "--algo", "scgd", "--eta", "nan"),
        ("bench", "--problem", "toy", "--algo", "scgd", "--k0", "0", "--epochs", "-3",
         "--schedule", "constant"),
        *[("run", "--problem", "toy", "--algo", algo, flag, value)
          for algo in ("scgd", "ascpg", "agd")
          for flag, value in (("--eta", "0.5"), ("--a", "2"), ("--b", "2"))],
        *[("run", "--problem", "toy", "--algo", "vrscpg", flag, value)
          for flag, value in (("--epochs", "2"), ("--k0", "3"), ("--schedule", "constant"))],
        ("bench", "--problem", "toy", "--algo", "scgd,scgd", "--seed", "0,0"),
        ("check", "--trials", "0"),
        ("check", "--trials", "-5"),
    ], ids=" ".join)
    def test_exits_one_with_error_line(self, argv, tmp_path, capsys):
        out = ["--out", str(tmp_path / "t.csv")] if argv[0] != "phistar" else []
        assert run_cli(*argv, *out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "[PASS]" not in captured.out
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (("run", "--algo", "vrscpg", "--epochs", "2", "--schedule", "constant"),
         "--epochs, --schedule not read by vrscpg"),
        (("bench", "--algo", "scgd,ascpg", "--k0", "3", "--eta", "0.5"),
         "--eta, --k0 not read by scgd or ascpg"),
    ], ids=["vrscpg", "scgd,ascpg"])
    def test_unread_setting_is_named_by_its_flag(self, argv, message, tmp_path, capsys):
        assert run_cli(*argv, "--problem", "toy", "--out", str(tmp_path / "t.csv")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("algo", ["scvrg", "scgd"])
    def test_budget_rounding_to_zero_samples(self, algo, tmp_path, capsys):
        # 1e-9 x N = 200 rounds to 0 samples, whichever algorithm is asked for
        assert run_cli("run", "--problem", "toy", "--budget", "1e-9", "--algo", algo,
                       "--out", str(tmp_path / "t.csv")) == 1
        assert capsys.readouterr().err == "error: sample budget 1e-09 x N = 200 rounds to 0 samples\n"
        assert not (tmp_path / "t.csv").exists()

    def test_bad_setting_for_a_later_algorithm_fails_before_any_run(self, tmp_path, capsys,
                                                                     monkeypatch):
        started = []
        for module, name in ((harness, "compute_phi_star"), (harness, "run_scvrg"),
                             (baselines, "run_scgd"), (baselines, "run_ascpg")):
            monkeypatch.setattr(module, name, lambda *a, name=name, **kw: started.append(name))
        out = tmp_path / "t.csv"
        assert run_cli("bench", "--problem", "meanvar", "--n", "2000", "--d", "25",
                       "--algo", "scgd,ascpg,scvrg", "--epochs", "0", "--out", str(out)) == 1
        assert "epoch count S must be >= 1" in capsys.readouterr().err
        assert started == []
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run_cli("run", "--bogus") == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    def test_console_script_installed(self):
        import shutil
        import subprocess
        exe = shutil.which("compopt-cli")
        assert exe is not None
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("run", "bench", "phistar", "check", "toygen"):
            assert sub in proc.stdout
