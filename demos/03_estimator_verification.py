"""Empirically audit the estimator contracts behind the solver.

Runs the full verification suite: finite-difference gradient checks for every
problem builder, exhaustive unbiasedness of the reference estimator,
Monte-Carlo domination of the two variance bounds (including the 1/a scaling
of the coupling term), and the per-epoch potential contraction proxy in both
stochastic and deterministic full-batch modes.

Run:  python3 demos/03_estimator_verification.py
"""

from compopt.verify import run_all_checks


def main():
    reports = run_all_checks(seed=0, trials=50_000)
    for report in reports:
        print(report.format_line())
    print()
    if all(report.passed for report in reports):
        print("all checks passed")
    else:
        failing = [r.name for r in reports if not r.passed]
        print(f"FAILURES: {failing}")
        raise SystemExit(1)


if __name__ == "__main__":
    main()
