"""The benchmark's three workloads, each a closed loop: one caller in one
process issues the workload's batch of jobs back to back through compopt's
public API.

A workload is built from the workload seed (`build`), then run as identical
passes (`run_pass`). Every pass returns its timings, the oracle samples it
charged, the outputs that must repeat bit-for-bit, and one `Op` per program
call with the gate verdict on that call's output. `checks` adds the gates that
span a whole pass.

- meanvar-roster: the paper's ordering experiment (N=2000, d=25, budget 30N):
  the harness reference optimum, then scvrg, vrscpg, scgd, ascpg and agd.
  Per-step Python, RNG and prox overhead and the phi* computation dominate;
  the snapshot's memory is trivial.
- meanvar-wide: N=2000, d=200, scvrg as one snapshot plus 1000 steps. The
  (m, k, d) Jacobian stack (643 MB) dominates time and memory; per-step
  overhead, phi* and the baselines are negligible, so an RNG or overhead
  change should not move it and a Jacobian-free oracle shows here first.
  At d=400 the stack is 2.5 GB and each step's 6.4 MB Jacobian batches are
  page-faulted in afresh, so the pass time follows the host's page-fault
  cost and varied by a fifth from run to run; d=200 keeps the same
  bottleneck without that extra noise.
- verify-check: `compopt-cli check` in-process over a block of check seeds.
  Monte-Carlo tables over (t, k, d) plus dozens of tiny contraction runs; no
  phi*, no baselines. The only workload that reaches `verify` and `cli`.
"""

import contextlib
import io
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from compopt import cli, harness, problems, solver, verify
from compopt.errors import DivergenceError

import reference
from hostclock import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
# sample totals per (workload, algorithm); they depend only on the budget and
# the problem sizes, so they hold for every workload and algorithm seed
with open(os.path.join(HERE, "expected_samples.json")) as _fh:
    EXPECTED_SAMPLES = json.load(_fh)

N_ROWS = 2000
LAM = 1e-2
BUDGET = 30 * N_ROWS
ALGO_SEEDS = (0,)
# harness phi* may exceed the reference by the reference's own bound plus this
PHI_STAR_TOL = 1e-9
CHECK_SEEDS_PER_PASS = 16
CHECK_TRIALS = 20_000


@dataclass
class Op:
    """One program call and whether its output passed its gates."""

    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self):
        self.ok = bool(self.ok)  # comparisons of numpy scalars give numpy bools


@dataclass
class PassResult:
    wall_s: float         # host-corrected time of the pass's program calls
    solve_s: float        # host-corrected time inside the workload's solver runs
    samples: int          # oracle samples those runs charged
    outputs: list         # must repeat bit-for-bit across passes
    ops: list
    extra: dict = field(default_factory=dict)
    raw_wall_s: float = 0.0                            # wall_s before correction
    kernel_parts: list = field(default_factory=list)   # calibration kernel times
    segment_raw_s: list = field(default_factory=list)  # raw time of each program call


def _counts(tracer, labels):
    """Calls of traced functions so far; None when the pass is untraced."""
    if tracer is None:
        return None
    return {label: tracer.count(label) for label in labels}


def _feasible(problem, x) -> bool:
    return bool(np.all(np.isfinite(x))) and problem.regularizer.contains(x)


def _ledger_ok(algo, samples, d_calls, m, n, a=5, b=5):
    """Span counts against the sample ledger of one run at run_one's default
    batch sizes: a snapshot costs m+n, a variance-reduced step a+b, an scgd
    step 2 and an ascpg step 3 plus 1 for its starting sample."""
    if algo in ("scvrg", "vrscpg"):
        snaps = d_calls["estimators.take_snapshot"]
        return (samples - snaps * (m + n)) == d_calls["estimators.estimate_gradient"] * (a + b)
    if algo == "scgd":
        return samples == 2 * d_calls["estimators.minibatch_rng"]
    if algo == "ascpg":
        return samples == 1 + 3 * (d_calls["estimators.minibatch_rng"] - 1)
    return True


LEDGER_LABELS = ("estimators.take_snapshot", "estimators.estimate_gradient",
                 "estimators.minibatch_rng")


class _PolishLog(logging.Handler):
    """Captures the harness warning that the phi* polish did not converge."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.unconverged = False

    def emit(self, record):
        if "did not converge" in record.getMessage():
            self.unconverged = True


# ---------------------------------------------------------------------------
# mean-variance workloads
# ---------------------------------------------------------------------------

class MeanVariance:
    algorithms: tuple = ()
    d: int = 0
    params: dict = {}
    phi_star: bool = False

    def __init__(self, name):
        self.name = name

    def build(self, seed):
        return problems.build_mean_variance(problems.synthetic_returns(N_ROWS, self.d, seed), lam=LAM)

    def prepare(self, problem):
        self.problem = problem
        self.ref = reference.reference_optimum(problem.returns, problem.regularizer.lam,
                                               problem.regularizer.radius)

    def _predicted(self, seed):
        p = self.problem
        if self.params:
            config = solver.RunConfig(seed=seed, **self.params)
        else:
            config = harness.scvrg_config_for_budget(p, BUDGET, seed)
        return solver.predicted_total_samples(config, p.dims.m, p.dims.n)

    def run_pass(self, tracer=None) -> PassResult:
        p = self.problem
        m, n = p.dims.m, p.dims.n
        ops, outputs, extra = [], [], {}
        clock = HostClock()
        phi = None
        if self.phi_star:
            phi_budget = max(10 * BUDGET, 200 * (m + n))
            log = logging.getLogger("compopt.harness")
            polish = _PolishLog()
            log.addHandler(polish)
            try:
                with clock.segment() as seg:
                    phi = harness.compute_phi_star(p, phi_budget)
            finally:
                log.removeHandler(polish)
            extra["phi_star_s"] = seg.seconds
            extra["phi_star_harness"] = phi
            extra["phi_star_polish_converged"] = not polish.unconverged
            err = abs(phi - self.ref.phi)
            ops.append(Op("compute_phi_star", err <= self.ref.bound + PHI_STAR_TOL,
                          f"|phi*_harness - phi*_ref| = {err:.3g}, bound {self.ref.bound:.3g}"))
            outputs.append(phi)
        solve_s, samples, gaps = 0.0, 0, {}
        for algo in self.algorithms:
            for seed in ALGO_SEEDS:
                label = f"run_one({algo}, seed {seed})"
                before = _counts(tracer, LEDGER_LABELS)
                seg = clock.segment()
                try:
                    with seg:
                        x, trace = harness.run_one(p, algo, seed, BUDGET, phi_star=phi,
                                                   params=dict(self.params) if algo == "scvrg" else None)
                except DivergenceError as exc:
                    solve_s += seg.seconds
                    ops.append(Op(label, False, f"aborted: {exc}"))
                    continue
                solve_s += seg.seconds
                used = trace[-1].samples
                samples += used
                gaps.setdefault(algo, []).append(trace[-1].objective - self.ref.phi)
                outputs.append((algo, seed, x.tobytes(), used, trace[-1].objective))
                problems_found = []
                if not _feasible(p, x):
                    problems_found.append("final iterate not finite and feasible")
                if used != EXPECTED_SAMPLES[self.name][algo]:
                    problems_found.append(f"samples {used} != expected {EXPECTED_SAMPLES[self.name][algo]}")
                if algo == "scvrg" and used != self._predicted(seed):
                    problems_found.append(f"samples {used} != ledger {self._predicted(seed)}")
                if before is not None:
                    after = _counts(tracer, LEDGER_LABELS)
                    delta = {k: after[k] - before[k] for k in LEDGER_LABELS}
                    if not _ledger_ok(algo, used, delta, m, n):
                        problems_found.append(f"span counts {delta} do not reconcile with {used} samples")
                ops.append(Op(label, not problems_found, "; ".join(problems_found)))
        mean_gap = {a: float(np.mean(g)) for a, g in gaps.items()}
        extra["final_gaps"] = mean_gap
        extra["final_gap"] = mean_gap.get("scvrg", math.nan)
        return PassResult(wall_s=clock.seconds, solve_s=solve_s, samples=samples,
                          outputs=outputs, ops=ops, extra=extra, raw_wall_s=clock.raw_s,
                          kernel_parts=clock.kernel_parts,
                          segment_raw_s=clock.segment_raw_s)

    def checks(self, result: PassResult) -> list:
        return []


class Roster(MeanVariance):
    algorithms = harness.ALGORITHMS
    d = 25
    phi_star = True

    def checks(self, result):
        g = result.extra["final_gaps"]
        if set(g) != set(self.algorithms):
            return [Op("ordering", False, "an algorithm aborted")]
        ok = (g["scvrg"] <= g["vrscpg"] <= min(g["scgd"], g["ascpg"])
              and g["agd"] == max(g.values()))
        return [Op("ordering", ok, "seed-mean final gaps " + json.dumps(g))]


class Wide(MeanVariance):
    algorithms = ("scvrg",)
    d = 200
    params = {"S": 1, "k0": 500}


# ---------------------------------------------------------------------------
# verification suite through the CLI entry point
# ---------------------------------------------------------------------------

class VerifyCheck:
    def __init__(self, name):
        self.name = name

    def build(self, seed):
        return [seed * CHECK_SEEDS_PER_PASS + i for i in range(CHECK_SEEDS_PER_PASS)]

    def prepare(self, check_seeds):
        self.check_seeds = check_seeds
        os.makedirs(OUT_DIR, exist_ok=True)

    @contextlib.contextmanager
    def _solver_runs(self):
        """Times the SCVRG runs the check suite makes; verify imports
        run_scvrg by name, so the timer is bound in verify's namespace."""
        runs = []
        inner = verify.run_scvrg

        def timed(problem, config, x0, **kwargs):
            t0 = time.perf_counter()
            result = inner(problem, config, x0, **kwargs)
            runs.append((time.perf_counter() - t0, problem, config, result))
            return result

        verify.run_scvrg = timed
        try:
            yield runs
        finally:
            verify.run_scvrg = inner

    def run_pass(self, tracer=None) -> PassResult:
        ops, outputs = [], []
        clock = HostClock()
        solve_s = 0.0
        samples = 0
        for cs in self.check_seeds:
            path = os.path.join(OUT_DIR, f"check-{cs}.csv")
            argv = ["check", "--check-seed", str(cs), "--trials", str(CHECK_TRIALS), "--out", path]
            before = _counts(tracer, ("estimators.estimate_gradient",))
            stdout = io.StringIO()
            with self._solver_runs() as runs, contextlib.redirect_stdout(stdout):
                with clock.segment() as seg:
                    code = cli.cli_main(argv)
            solve_s += seg.scale(sum(r[0] for r in runs))
            samples += sum(r[3].samples for r in runs)
            with open(path) as fh:
                report = fh.read()
            skipped = {line.split()[1].rstrip(":") for line in stdout.getvalue().splitlines()
                       if line.startswith("[SKIP]")}
            failed = [row.split(",")[0] for row in report.splitlines()[1:]
                      if row.split(",")[1] != "true" and row.split(",")[0] not in skipped]
            problems_found = []
            if code != 0 or failed:
                problems_found.append(f"exit code {code}, failed checks {failed}")
            if not all(_feasible(p, r.x) for _, p, _, r in runs):
                problems_found.append("a contraction run ended outside the box or non-finite")
            if before is not None:
                steps = sum((r.samples - len(r.epochs) * (p.dims.m + p.dims.n)) // (c.a + c.b)
                            for _, p, c, r in runs)
                calls = _counts(tracer, ("estimators.estimate_gradient",))
                made = calls["estimators.estimate_gradient"] - before["estimators.estimate_gradient"]
                if made != steps:
                    problems_found.append(f"{made} estimate_gradient spans for {steps} ledger steps")
            ops.append(Op(f"cli check --check-seed {cs}", not problems_found, "; ".join(problems_found)))
            outputs.append((cs, code, report, [(r.samples, r.x.tobytes()) for *_, r in runs]))
        return PassResult(wall_s=clock.seconds, solve_s=solve_s, samples=samples,
                          outputs=outputs, ops=ops, raw_wall_s=clock.raw_s,
                          kernel_parts=clock.kernel_parts,
                          segment_raw_s=clock.segment_raw_s)

    def checks(self, result):
        return []


WORKLOADS = {
    "meanvar-roster": Roster("meanvar-roster"),
    "meanvar-wide": Wide("meanvar-wide"),
    "verify-check": VerifyCheck("verify-check"),
}
