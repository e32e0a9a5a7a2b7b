"""Summarise run records (perfbench/out/*.json) into one baseline file.

    python3 perfbench/aggregate.py perfbench/out perfbench/BENCH_1.json

For each workload: every figure run.py measured (end-to-end metrics plus
phi_star_s, samples_per_s and final_gap where they exist) as the median and
quartiles over the untraced runs, the per-layer metrics as medians over the
traced runs, the samples charged per pass and the operation counts. The
environment of the first record is kept with the seeds of all runs.
"""

import glob
import json
import os
import statistics
import sys


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(out_dir, target):
    records = []
    for path in sorted(glob.glob(os.path.join(out_dir, "*-trace[01].json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        sys.exit(f"error: no run records in {out_dir}")
    result = {"environment": dict(records[0]["environment"], seed=None), "workloads": {}}
    for name in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == name and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == name and r["trace"] == 1]
        figures = {}
        for key in sorted({k for r in plain for k in r["figures"]}):
            figures[key] = dict(summary([r["figures"][key] for r in plain]),
                                unit=plain[0]["units"][key])
        layers = {}
        for key in (traced[0]["metrics"] if traced else {}):
            layers[key] = {"median": statistics.median(r["metrics"][key]["value"] for r in traced),
                           "unit": traced[0]["metrics"][key]["unit"]}
        ops = [op for r in plain + traced for op in r["ops"]]
        result["workloads"][name] = {
            "seeds": sorted(r["seed"] for r in plain),
            "traced_seeds": sorted(r["seed"] for r in traced),
            "samples_per_pass": {r["seed"]: r["samples_per_pass"] for r in plain + traced},
            "attempted": len(ops), "failed": sum(not op["ok"] for op in ops),
            "figures": figures, "per_layer": layers}
    with open(target, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(*sys.argv[1:3])
