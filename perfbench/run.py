"""compopt benchmark runner: stdlib plus numpy, run from the repository root.

    python3 perfbench/run.py --workload meanvar-roster --seed 7 --seconds 40 --trace 0

Runs one workload (see workloads.py) as identical passes for --seconds,
checks every output, and prints a table of every metric with its unit
followed, on the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full record, with the
environment, is written to perfbench/out/<workload>-seed<seed>-trace<t>.json.

Every pass runs in a fresh child process, one after another, so each pass
measures its own set-up and peak memory, and whatever one process's memory
layout does to the timings (which large arrays get transparent huge pages,
say) averages out over the passes.

--trace 0 reports the end-to-end metrics, medians over untraced passes:
  setup_s        `import compopt` plus the workload's input build, corrected
                 for host speed
  wall_s         time of the pass's program calls, corrected for host speed
  solve_s        time inside the solver runs (harness.run_one; for
                 verify-check the SCVRG runs the contraction checks make),
                 corrected for host speed
  peak_rss_mb    peak resident set of a process that ran one pass
  and, where they exist, phi_star_s, samples_per_s and final_gap in the table
  and the record, with raw_setup_s and raw_wall_s, before the correction.
Host-speed correction (hostclock.py): a fixed calibration kernel that uses no
compopt code runs before and after every program call, and after set-up, and
each one's time is scaled by the kernel's reference time over the kernel
times that bracket it, so the host's drift cancels and a change to compopt
shows in full. The raw time of every call and every kernel time are kept in
the record.
--trace 1 runs one untraced pass, then traced passes (tracer.py), requires the
traced outputs to equal the untraced ones bit-for-bit and the span counts to
reconcile with the sample ledger, and reports per-layer metrics
<module>.<function>.{calls,us_per_call,self_s} per pass, the snapshot's
tracemalloc peak and the tracing overhead (traced / untraced pass time).
Each traced pass writes its spans to perfbench/out/spans-<workload>-<pass>.npz.

`failed` counts program calls whose output failed a gate, plus failed
whole-pass checks; `attempted` counts both kinds. BLAS is pinned to one thread.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
PASS_TIMEOUT_S = 170

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

UNITS = {"setup_s": "s", "raw_setup_s": "s", "wall_s": "s", "raw_wall_s": "s", "solve_s": "s",
         "peak_rss_mb": "MB", "phi_star_s": "s", "samples_per_s": "1/s", "final_gap": "1"}


def _import_workloads():
    """Puts src/ and this directory on the path and imports the workloads,
    refusing any compopt that is not this checkout's."""
    sys.path[:0] = [SRC, HERE]
    import compopt
    if os.path.dirname(os.path.abspath(compopt.__file__)) != os.path.join(SRC, "compopt"):
        sys.exit(f"error: imported compopt from {compopt.__file__}, not from {SRC}")
    import workloads
    return workloads


def run_one_pass(workload, seed, traced, index):
    """Child-process body: set up, run one pass, print its summary as JSON."""
    from hostclock import HostClock  # this script's directory; imports neither numpy nor compopt
    with HostClock(lead_kernel=False).segment() as setup:
        workloads = _import_workloads()
        wl = workloads.WORKLOADS[workload]
        inputs = wl.build(seed)
    wl.prepare(inputs)
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        result = wl.run_pass(tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    ops = result.ops + wl.checks(result)
    summary = {"setup_s": setup.seconds, "raw_setup_s": setup.raw_s,
               "wall_s": result.wall_s, "solve_s": result.solve_s,
               "raw_wall_s": result.raw_wall_s, "kernel_parts": result.kernel_parts,
               "segment_raw_s": result.segment_raw_s,
               "samples": result.samples, "extra": result.extra,
               "digest": hashlib.sha256(repr(result.outputs).encode()).hexdigest(),
               "ops": [vars(op) for op in ops],
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        summary["layers"] = tracer.totals()
        summary["peak_bytes"] = tracer.peak_bytes
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{workload}-{index}.npz"))
    print(json.dumps(summary))


def spawn_pass(args, traced, index):
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                          "--seed", str(args.seed), "--pass-child", str(index),
                          "--trace", str(int(traced))],
                         capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"error: pass {index} exited with code {out.returncode}")
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    summary["elapsed_s"] = time.perf_counter() - t0
    return summary


def run_passes(args, traced, t_start, passes):
    """At least one more pass; another only while it is expected to end in time."""
    passes.append(spawn_pass(args, traced, len(passes)))
    while (time.perf_counter() - t_start
           + statistics.median(p["elapsed_s"] for p in passes) <= args.seconds):
        passes.append(spawn_pass(args, traced, len(passes)))
    return passes


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a plain checkout has no history
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src_dir = os.path.join(SRC, "compopt")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "blas_env": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "git_sha": sha, "src_sha256": digest.hexdigest(),
            "seed": seed}


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return int(getattr(lib, sym)())
    except OSError:
        pass
    return None


def per_layer_metrics(traced, overhead):
    n = len(traced)
    totals, peaks = {}, {}
    for p in traced:
        for label, (calls, incl, self_s) in p["layers"].items():
            c, i, s = totals.get(label, (0, 0.0, 0.0))
            totals[label] = (c + calls, i + incl, s + self_s)
        for label, peak in p["peak_bytes"].items():
            peaks[label] = max(peaks.get(label, 0), peak)
    metrics = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        if name == "bench.trace_overhead":
            value = overhead
        elif name.endswith(".peak_bytes"):
            value = peaks.get(name.rsplit(".", 1)[0], 0)
        else:
            label, stat = name.rsplit(".", 1)
            calls, incl, self_s = totals.get(label, (0, 0.0, 0.0))
            value = {"calls": calls // n, "us_per_call": 1e6 * incl / calls if calls else 0.0,
                     "self_s": self_s / n}[stat]
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-child", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pass_child is not None:
        run_one_pass(args.workload, args.seed, bool(args.trace), args.pass_child)
        return 0
    if not os.path.isfile(os.path.join(SRC, "compopt", "__init__.py")):
        sys.exit(f"error: no compopt package under {SRC}")

    t_start = time.perf_counter()
    if args.trace:
        reference_pass = spawn_pass(args, False, 0)
        traced = run_passes(args, True, t_start, [reference_pass])[1:]
        passes, checked = traced, [reference_pass] + traced
    else:
        passes = checked = run_passes(args, False, t_start, [])
    first = checked[0]

    ops = [op for p in checked for op in p["ops"]]
    same = all(p["digest"] == first["digest"] for p in checked)
    ops.append({"name": "traced outputs equal untraced" if args.trace
                else "passes repeat bit-for-bit", "ok": same, "detail": ""})
    failed = [op for op in ops if not op["ok"]]

    def median(key):
        return statistics.median(p[key] for p in passes)

    figures = {"setup_s": median("setup_s"), "raw_setup_s": median("raw_setup_s"),
               "wall_s": median("wall_s"), "raw_wall_s": median("raw_wall_s"),
               "solve_s": median("solve_s"), "peak_rss_mb": median("peak_rss_mb"),
               "samples_per_s": statistics.median(p["samples"] / p["solve_s"] for p in passes)}
    if "phi_star_s" in first["extra"]:
        figures["phi_star_s"] = statistics.median(p["extra"]["phi_star_s"] for p in passes)
    if "final_gap" in first["extra"]:
        figures["final_gap"] = first["extra"]["final_gap"]
    if args.trace:
        metrics = per_layer_metrics(traced, figures["wall_s"] / reference_pass["wall_s"])
    else:
        metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(passes),
              "pass_wall_s": [p["wall_s"] for p in checked],
              "pass_raw_wall_s": [p["raw_wall_s"] for p in checked],
              "pass_kernel_parts": [p["kernel_parts"] for p in checked],
              "pass_segment_raw_s": [p["segment_raw_s"] for p in checked],
              "pass_setup_s": [p["setup_s"] for p in checked], "figures": figures,
              "units": {name: UNITS[name] for name in figures},
              "samples_per_pass": first["samples"], "extra": first["extra"], "ops": ops,
              "metrics": metrics, "environment": environment(args.seed)}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for op in failed:
        print(f"FAILED {op['name']}: {op['detail']}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(ops) - len(failed)}/{len(ops)} operations passed")
    for name, value in dict(figures, failed_frac=len(failed) / len(ops)).items():
        print(f"  {name:<14} {value:.6g} {UNITS.get(name, '1')}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<62} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
