"""The divergence path: a run whose iterate turns non-finite, or whose
objective exceeds its Recorder's limit, aborts with DivergenceError, and the
command line exits with code 2."""

import numpy as np
import pytest

from compopt import cli, harness
from compopt.errors import DivergenceError
from compopt.problems import AffineQuadraticProblem, build_toy
from compopt.solver import RunConfig, predicted_total_samples, run_scvrg
from conftest import run


class NanAfterProblem(AffineQuadraticProblem):
    """The identity toy whose outer gradients turn NaN after `good` calls;
    values stay finite, so trace rows and the start objective are unaffected."""

    def __init__(self, good=3):
        toy = build_toy("identity", d=3, m=4, n=4, seed=0)
        super().__init__(toy.A, toy.b, toy.centers, toy.scales, toy.regularizer)
        self.good = good

    def outer_grad(self, idx, y):
        self.good -= 1
        grad = super().outer_grad(idx, y)
        return grad if self.good >= 0 else np.full_like(grad, np.nan)


@pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
def test_nan_oracle_raises_divergence(algorithm):
    problem = NanAfterProblem()
    with pytest.raises(DivergenceError,
                       match=rf"^{algorithm}: non-finite iterate at epoch \d+, iteration \d+$"):
        run(harness.RUNNERS[algorithm], problem, RunConfig(S=3), np.zeros(3), 10_000)
    assert problem.good < 0  # the run reached the NaN oracle before it aborted


def test_nan_oracle_run_exits_two(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_build_problem", lambda args: NanAfterProblem())
    # phi* is irrelevant here; its polish would spend the good calls first
    monkeypatch.setattr(harness, "compute_phi_star", lambda problem, budget: 0.0)
    out = tmp_path / "t.csv"
    assert cli.cli_main(["run", "--problem", "toy", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("run aborted: 1 of 1 runs diverged")
    rows = out.read_text().strip().split("\n")
    assert rows[1].startswith("scvrg,0,-1,-1,")  # the abort marker is still written
    # at the samples the run had charged: its snapshot (m + n = 8) and three
    # steps of a + b = 10, the last of which turned the iterate non-finite
    assert rows[1].split(",")[4:6] == [str(8 + 3 * 10), repr((8 + 3 * 10) / 4)]


def test_objective_limit_raises_divergence():
    # eta = 10 on a box of radius 1e6 throws the iterate far from the optimum
    toy = build_toy("affine", d=3, m=4, seed=0, radius=1e6)
    with pytest.raises(DivergenceError,
                       match=r"^scvrg: objective \S+ exceeded the divergence limit at epoch 1, "
                             r"iteration 20$"):
        config = RunConfig(S=1, eta=10.0)
        run(run_scvrg, toy, config, np.zeros(3), predicted_total_samples(config, 4, toy.dims.n))


def test_objective_limit_run_exits_two(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert cli.cli_main(["run", "--problem", "toy", "--d", "3", "--n", "4", "--radius", "1e6",
                         "--eta", "10", "--budget", "50", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run aborted: 1 of 1 runs diverged")
    assert "exceeded the divergence limit" in err
    assert out.read_text().strip().split("\n")[1].startswith("scvrg,0,-1,-1,")
