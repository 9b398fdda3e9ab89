"""bgb benchmark: one command, one workload, one single-threaded solver.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The run generates the workload's systems
from --seed, times `import bgb` in fresh interpreters (setup_s), solves the
systems in whole closed-loop passes in a worker process (the only process
that imports bgb) until --seconds have elapsed, at least MIN_PASSES times,
checks every emitted basis with the independent checker, and prints one
JSON object as the last line of standard output.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Per-system detail goes to bench_results/ and to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import check
import gen

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_PASSES = 2          # per measured mode, even when one pass outlasts --seconds
SETUP_SAMPLES = 3       # fresh interpreters timed before and again after solving
TIME_LIMIT_S = 175      # the whole run ends within this; checking takes < 20 s
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# per-layer time metrics: name -> (kind, wrapped functions summed)
LAYER_TIMES = {
    "oracle.buchberger_s": ("total", ["oracle.buchberger"]),
    "oracle.is_zero_dimensional_s": ("total", ["oracle.is_zero_dimensional"]),
    "coords.change_coordinates_groebner_self_s":
        ("self", ["coords.change_coordinates_groebner"]),
    "coords.apply_coords_s": ("total", ["coords.apply_coords"]),
    "lifting.init_lift_s": ("total", ["lifting.init_lift"]),
    "lifting.lift_step_s": ("total", ["lifting.lift_step"]),
    "lifting.reconstruct_basis_s": ("total", ["lifting.reconstruct_basis"]),
    "lifting.verify_with_witness_s": ("total", ["lifting.verify_with_witness"]),
    "sylvester.build_extended_sylvester_s":
        ("total", ["sylvester.build_extended_sylvester"]),
    "sylvester.squarify_s": ("total", ["sylvester.squarify"]),
    "normal_forms.hermite_form_s": ("total", ["normal_forms.hermite_form"]),
    "normal_forms.howell_form_s": ("total", ["normal_forms.howell_form"]),
    "groebner_engine.hermite_groebner_basis_self_s":
        ("self", ["groebner_engine.hermite_groebner_basis"]),
    "groebner_engine.groebner_basis_at_zero_self_s":
        ("self", ["groebner_engine.groebner_basis_at_zero",
                  "groebner_engine.howell_groebner_basis"]),
    "driver.parse_system_s": ("total", ["driver.parse_system"]),
    "driver.emit_report_s": ("total", ["driver.emit_report"]),
    "driver.self_s": ("self", ["driver.groebner_basis_main",
                               "driver.primary_component_main"]),
    "bounds.prime_interval_bounds_s": ("total", ["bounds.prime_interval_bounds"]),
    "primes.random_prime_in_s": ("total", ["primes.random_prime_in"]),
}
# per-layer counters: name -> counter recorded by the worker
LAYER_COUNTS = {
    "lifting.membership_cells": "lifting.membership_cells",
    "lifting.lift_steps": "lifting.lift_step.calls",
    "lifting.dixon_digits": "lifting.dixon_digits",
    "lifting.reconstruct_attempts": "lifting.reconstruct_basis.calls",
    "lifting.reconstruct_hits": "lifting.reconstruct_hits",
    "lifting.witness_rejections": "lifting.witness_rejections",
    "sylvester.squarify_calls": "sylvester.squarify.calls",
    "groebner_engine.howell_calls": "groebner_engine.howell_groebner_basis.calls",
    "primes.draws": "primes.random_prime_in.calls",
}


def _env(root):
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setups(root, env, count):
    """Wall times of `count` fresh interpreters that import bgb, each timed
    from its start to its exit.  No timeout: with one, subprocess polls
    for the exit on a 50 ms grid, and the samples snap to that grid."""
    cmd = [sys.executable, "-c", "import bgb"]
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def grouped_slope(points):
    """Least-squares slope of log y on log x with one intercept per group;
    points are (group, x, y) with x, y > 0."""
    groups = {}
    for g, x, y in points:
        groups.setdefault(g, []).append((math.log(x), math.log(y)))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = sum(p[0] for p in pts) / len(pts)
        my = sum(p[1] for p in pts) / len(pts)
        sxy += sum((p[0] - mx) * (p[1] - my) for p in pts)
        sxx += sum((p[0] - mx) ** 2 for p in pts)
    if sxx == 0:
        raise ValueError("no spread in the regressor within any group")
    return sxy / sxx


def _layer_value(snapshot, kind, keys):
    return sum(snapshot[kind].get(k, 0.0) for k in keys)


def per_layer_metrics(systems, results, solve_plain, solve_traced):
    metrics = {}
    for name, (kind, keys) in LAYER_TIMES.items():
        metrics[name] = (sum(statistics.median(_layer_value(s, kind, keys)
                                               for s in r["trace"])
                             for r in results), "s")
    for name, key in LAYER_COUNTS.items():
        metrics[name] = (sum(r["trace"][0]["counts"].get(key, 0)
                             for r in results), "count")
    metrics["driver.rounds"] = (sum(r["signature"][2] for r in results
                                    if r["signature"]), "count")
    metrics["trace.overhead_s"] = (solve_traced - solve_plain, "s")

    def layer_median(r, keys):
        return statistics.median(_layer_value(s, "total", keys) for s in r["trace"])

    def fit(by, value):
        pts = []
        for s, r in zip(systems, results):
            y = value(r)
            if y > 0 and r["height_nats"] is not None:
                if by == "delta":
                    pts.append(((s.t, s.digits), s.delta, y))
                else:  # output height, +1 nat so unit coefficients stay finite
                    pts.append(((s.t, s.delta), 1.0 + r["height_nats"], y))
        return grouped_slope(pts)

    def plain(r):
        return statistics.median(r["seconds"]["plain"])
    metrics["fit.solve_delta_exp"] = (fit("delta", plain), "1")
    metrics["fit.buchberger_delta_exp"] = (
        fit("delta", lambda r: layer_median(r, ["oracle.buchberger"])), "1")
    metrics["fit.init_lift_delta_exp"] = (
        fit("delta", lambda r: layer_median(r, ["lifting.init_lift"])), "1")
    metrics["fit.solve_height_exp"] = (fit("height", plain), "1")
    metrics["fit.lift_step_height_exp"] = (
        fit("height", lambda r: layer_median(r, ["lifting.lift_step"])), "1")
    return metrics


def check_outputs(systems, results):
    """Run the independent checker once per system (every pass must have
    emitted the same text); returns the number of problems found."""
    problems = 0
    for s, r in zip(systems, results):
        if not r["consistent"]:
            problems += 1
            print("%s: passes disagree on primes, rounds or output" % s.label,
                  file=sys.stderr)
        if r["failure"] is not None:
            continue
        try:
            check.check_basis(s.text, r["text"], s.task)
        except check.CheckError as e:
            problems += 1
            print("%s: wrong basis: %s" % (s.label, e), file=sys.stderr)
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "bgb", "__init__.py")):
        sys.exit("no bgb sources under %s" % os.path.join(root, "src"))
    env = _env(root)
    # an untimed import first, so a fresh checkout's byte-code compilation
    # is not counted; the host's speed drifts over seconds, so the samples
    # are taken at both ends of the run
    time_setups(root, env, 1)
    setups = time_setups(root, env, SETUP_SAMPLES)

    systems = gen.generate(args.workload, args.seed)
    request = {"root": root, "seconds": args.seconds, "trace": args.trace,
               "min_passes": MIN_PASSES,
               "systems": [{"task": s.task, "text": s.text, "seed": s.seed}
                           for s in systems]}
    budget = TIME_LIMIT_S - 20 - (time.perf_counter() - started)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(request), capture_output=True,
                          text=True, env=env, cwd=root, timeout=budget)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("the solving process failed with exit code %d" % proc.returncode)
    answer = json.loads(proc.stdout)
    results = answer["results"]
    setups += time_setups(root, env, SETUP_SAMPLES)

    problems = check_outputs(systems, results)
    medians = [statistics.median(r["seconds"]["plain"]) for r in results]
    attempted = sum(len(v) for r in results for v in r["seconds"].values())
    failed = sum(len(v) for r in results if r["failure"] is not None
                 for v in r["seconds"].values())
    for s, r, med in zip(systems, results, medians):
        print("%-16s delta=%-3d median=%.4fs passes=%d%s" % (
            s.label, s.delta, med, len(r["seconds"]["plain"]),
            "  FAILED " + r["failure"] if r["failure"] else ""), file=sys.stderr)

    if args.trace:
        solve_traced = sum(statistics.median(r["seconds"]["traced"]) for r in results)
        metrics = per_layer_metrics(systems, results, sum(medians), solve_traced)
    else:
        metrics = {"solve_s": (sum(medians), "s"),
                   "op_median_s": (statistics.median(medians), "s"),
                   "peak_rss_mb": (answer["peak_rss_kb"] / 1024.0, "MB"),
                   "setup_s": (statistics.median(setups), "s")}
    line = {"correct": problems == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    out_dir = os.path.join(root, "bench_results")
    os.makedirs(out_dir, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": answer["passes"], "elapsed_s": answer["elapsed_s"],
              "result": line,
              "systems": [{"label": s.label, "delta": s.delta, "digits": s.digits,
                           "t": s.t, "seed": s.seed, "median_s": med,
                           "seconds": r["seconds"], "signature": r["signature"],
                           "height_nats": r["height_nats"], "failure": r["failure"]}
                          for s, r, med in zip(systems, results, medians)]}
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(line))


if __name__ == "__main__":
    main()
