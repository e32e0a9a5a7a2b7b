"""Benchmark the algorithm roster on a sparse mean-variance portfolio problem.

Builds a synthetic monthly-returns panel, computes a high-accuracy reference
optimum, then runs every algorithm at the same sample budget and prints the
seed-averaged final suboptimality gaps. A full trace CSV (one row per recorded
iterate) is written to portfolio_trace.csv in the current directory for
plotting.

Run:  python3 demos/01_portfolio_benchmark.py
"""

import numpy as np

from compopt.harness import run_benchmark
from compopt.problems import build_mean_variance, synthetic_returns

OUT = "portfolio_trace.csv"


def main():
    # 500 months of returns on 10 assets; l1 weight 1e-2 promotes sparse books
    dataset = synthetic_returns(500, 10, seed=7)
    problem = build_mean_variance(dataset, lam=1e-2)
    print(f"mean-variance instance: N={problem.N} observations, d={problem.dims.d} assets")

    run_benchmark(
        problem,
        algorithms=["scvrg", "vrscpg", "scgd", "ascpg", "agd"],
        budget=30.0,              # 30 N component evaluations per run
        seeds=[0, 1, 2],
        out=OUT,
    )
    print(f"wrote {OUT}")

    # seed-averaged final gap per algorithm, straight from the trace
    rows = [line.split(",") for line in open(OUT).read().strip().split("\n")[1:]]
    finals = {}
    for algo, seed in {(r[0], r[1]) for r in rows}:
        last = [r for r in rows if (r[0], r[1]) == (algo, seed)][-1]
        finals.setdefault(algo, []).append(float(last[7]))
    print("\nseed-averaged final gap at equal sample budget:")
    for algo, gaps in sorted(finals.items(), key=lambda kv: np.mean(kv[1])):
        print(f"  {algo:8s} {np.mean(gaps):.3e}")


if __name__ == "__main__":
    main()
