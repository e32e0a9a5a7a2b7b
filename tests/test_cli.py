"""End-to-end tests of the command-line entry point (in-process, apart from
the byte pins, which run in a new process)."""

import logging
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from compopt import baselines, harness, verify
from compopt.cli import cli_main
from compopt.problems import load_returns_csv, synthetic_returns, write_returns_csv
from compopt.solver import RunConfig
from compopt.trace import TRACE_HEADER


#: `check --check-seed 0` and `1` reports and two `bench` traces: the bytes
#: that any change to the draws, the estimators or the solver must reproduce
DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: the pinned files' float bits go through BLAS (`@`, `np.vecdot`, the 2-norm),
#: whose kernels differ per CPU, so they are written under OpenBLAS's Prescott
#: kernels, which every x86-64 host runs, on one thread
PINNED_BLAS = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"}


def run_cli(*argv):
    return cli_main(list(argv))


def pinned_output(tmp_path, *argv):
    """The bytes `compopt-cli *argv --out FILE` writes to FILE, run in a new
    process under PINNED_BLAS (OpenBLAS reads it when numpy loads)."""
    out = tmp_path / "pinned.csv"
    env = dict(os.environ, **PINNED_BLAS, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "compopt.cli", *argv, "--out", str(out)], env=env,
                   check=True, capture_output=True)
    return out.read_bytes()


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

    # 253 rows of every algorithm on two seeds, and 135 on Bellman, whose
    # n = 1 takes the bound-1 rule of the raw-word draws
    @pytest.mark.parametrize("name, flags", [
        ("meanvar", ("--problem", "meanvar", "--n", "200", "--d", "10", "--seed", "0,1")),
        ("bellman", ("--problem", "bellman", "--states", "5", "--n", "20", "--seed", "0"))],
        ids=["meanvar", "bellman"])
    def test_trace_is_byte_identical_to_the_committed_one(self, name, flags, tmp_path):
        trace = pinned_output(tmp_path, "bench", *flags, "--algo", ",".join(harness.ALGORITHMS))
        assert trace == (DATA / f"bench-{name}.csv").read_bytes()

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
        received = {}

        def runner(name):
            def run(problem, config, x0, recorder):
                received[name, config.seed] = config
                recorder.start(name, config.seed, x0)
                return x0
            return run

        for name in ("scvrg", "scgd"):
            monkeypatch.setitem(harness.RUNNERS, name, runner(name))
        assert run_cli("bench", "--problem", "toy", "--algo", "scvrg,scgd", "--k0", "20",
                       "--eta", "0.05", "--seed", "3,4", "--out", str(tmp_path / "t.csv")) == 0
        assert set(received) == {(a, seed) for a in ("scvrg", "scgd") for seed in (3, 4)}
        for seed in (3, 4):
            assert received["scvrg", seed].k0 == 20
            assert received["scvrg", seed].eta == 0.05
            assert received["scgd", seed].eta == RunConfig.eta  # scgd reads no field

    def test_batch_flags_leave_unread_algorithms_trace_cadence(self, tmp_path):
        # --a and --b go to scvrg only, and the cadence counts samples: scgd
        # keeps a row at the first step that reaches each multiple of N = 200
        # (the default toy has N = m = 200), at 2 samples a step
        scgd = []
        for flags in (["--a", "2", "--b", "3"], ["--a", "7", "--b", "1"]):
            out = tmp_path / "bench.csv"
            assert run_cli("bench", "--problem", "toy", "--algo", "scvrg,scgd", *flags,
                           "--budget", "5", "--out", str(out)) == 0
            rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
            scgd.append([(int(r[3]), int(r[4])) for r in rows if r[0] == "scgd"])
        assert scgd[0] == scgd[1] == [(100 * q, 200 * q) for q in range(6)]

    def test_bellman_problem(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--problem", "bellman", "--states", "4", "--n", "6",
                       "--algo", "scvrg,agd", "--budget", "20", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert {r[0] for r in rows} == {"scvrg", "agd"}

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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_report_is_byte_identical_to_the_committed_one(self, seed, tmp_path):
        # every draw, estimate and contraction run of the suite feeds its
        # report, so a speedup of any of them must leave it byte for byte
        report = pinned_output(tmp_path, "check", "--check-seed", str(seed))
        assert report == (DATA / f"check-seed-{seed}.csv").read_bytes()


class TestToygen:
    def test_meanvar_csv_roundtrips(self, tmp_path):
        out = tmp_path / "returns.csv"
        code = run_cli("toygen", "--problem", "meanvar", "--n", "30", "--d", "4",
                       "--out", str(out))
        assert code == 0
        assert load_returns_csv(str(out)).returns.shape == (30, 4)

    # only a returns file has a reader (--data), so the bellman and toy
    # routes, which wrote .npz files, are refused and write nothing
    def test_bellman_npz(self, tmp_path, capsys):
        out = tmp_path / "bellman.npz"
        code = run_cli("toygen", "--problem", "bellman", "--states", "4",
                       "--n", "6", "--out", str(out))
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.startswith("error: toygen writes synthetic returns")

    def test_toy_npz(self, tmp_path, capsys):
        for kind in ("identity", "affine", "mixed"):
            out = tmp_path / f"{kind}.npz"
            code = run_cli("toygen", "--problem", "toy", "--toy-kind", kind,
                           "--d", "3", "--out", str(out))
            assert code == 1 and not out.exists()
            assert capsys.readouterr().err.startswith("error: toygen writes synthetic returns")


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
        ("bench", "--problem", "toy", "--algo", "scvrg,scgd", "--seed", "0,99999999999999999999"),
        ("bench", "--problem", "toy", "--algo", ",", "--eta", "0.1"),
        ("check", "--trials", "0"),
        ("check", "--trials", "-5"),
        *[(sub, "--problem", problem, "--problem-seed", "-1")
          for sub in ("run", "bench", "phistar", "toygen")
          for problem in ("meanvar", "bellman", "toy")],
        # sizes that `run` refuses; returns data, like a returns file, needs 2 rows
        ("toygen", "--problem", "meanvar", "--n", "0"),
        *[(sub, "--problem", "meanvar", "--n", "1")
          for sub in ("run", "bench", "phistar", "toygen")],
        ("toygen", "--problem", "meanvar", "--d", "0"),
        ("toygen", "--problem", "bellman", "--states", "0"),
        ("toygen", "--problem", "bellman", "--n", "0"),
        # m and n of 2^32 or more, refused before any data is drawn
        *[("run", "--problem", problem, "--n", str(2**32))
          for problem in ("meanvar", "bellman", "toy")],
        # --data is a returns file, read only by meanvar and never by toygen
        *[(sub, "--problem", problem, "--data", "returns.csv")
          for sub in ("run", "bench", "phistar") for problem in ("bellman", "toy")],
        *[("toygen", "--problem", problem, "--data", "returns.csv")
          for problem in ("meanvar", "bellman", "toy")],
    ], ids=" ".join)
    def test_exits_one_with_error_line(self, argv, tmp_path, capsys):
        out = ["--out", str(tmp_path / "t.csv")] if argv[0] != "phistar" else []
        assert run_cli(*argv, *out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "[PASS]" not in captured.out
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_bad_trial_count_is_refused_before_any_check_runs(self, trials, monkeypatch,
                                                               capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a check ran before the trial count was validated")

        monkeypatch.setattr(verify, "check_gradient_fd", fail)
        assert run_cli("check", "--trials", trials) == 1
        assert (capsys.readouterr().err
                == f"error: Monte-Carlo trial count must be >= 1, got {trials}\n")

    def test_negative_check_seed_is_refused_before_any_check_runs(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a check ran before the check seed was validated")

        monkeypatch.setattr(verify, "check_gradient_fd", fail)
        assert run_cli("check", "--check-seed", "-2") == 1
        assert capsys.readouterr().err == "error: data seed must be non-negative, got -2\n"

    @pytest.mark.parametrize("argv, message", [
        (("run", "--algo", "vrscpg", "--epochs", "2", "--schedule", "constant"),
         "--epochs, --schedule not read by vrscpg"),
        (("bench", "--algo", "scgd,ascpg", "--k0", "3", "--eta", "0.5"),
         "--eta, --k0 not read by scgd or ascpg"),
    ], ids=["vrscpg", "scgd,ascpg"])
    def test_unread_setting_is_named_by_its_flag(self, argv, message, tmp_path, capsys):
        assert run_cli(*argv, "--problem", "toy", "--out", str(tmp_path / "t.csv")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_empty_roster_is_named_before_its_unread_flags(self, tmp_path, capsys):
        assert run_cli("bench", "--problem", "toy", "--algo", ",", "--eta", "0.1",
                       "--out", str(tmp_path / "t.csv")) == 1
        assert capsys.readouterr().err == "error: at least one algorithm is required\n"

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


class TestUnwritableOut:
    """An --out under a regular file exits 1 with an error line before any work."""

    @pytest.mark.parametrize("command", [("run",), ("bench", "--algo", "scvrg,scgd,agd")])
    def test_run_and_bench_fail_before_phi_star_or_any_run(self, command, tmp_path,
                                                           monkeypatch, capsys):
        started = []
        monkeypatch.setattr(harness, "compute_phi_star",
                            lambda *a: started.append("compute_phi_star"))
        for name in harness.ALGORITHMS:
            monkeypatch.setitem(harness.RUNNERS, name, lambda *a, name=name: started.append(name))
        (tmp_path / "afile").write_text("")
        assert run_cli(*command, "--problem", "toy", "--out", str(tmp_path / "afile" / "t.csv")) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")
        assert started == []

    def test_check_fails_before_the_first_check(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a check ran before --out was opened")

        monkeypatch.setattr(verify, "check_gradient_fd", fail)
        (tmp_path / "afile").write_text("")
        assert run_cli("check", "--out", str(tmp_path / "afile" / "report.csv")) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno 17] File exists")
        assert captured.out == ""


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run_cli("run", "--bogus") == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["bench", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.startswith("usage: compopt")

    def test_console_script_installed(self):
        import shutil
        import subprocess
        exe = shutil.which("compopt-cli")
        assert exe is not None
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("run", "bench", "phistar", "check", "toygen"):
            assert sub in proc.stdout
