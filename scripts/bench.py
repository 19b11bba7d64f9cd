"""Before/after timings, counts and result checks of mfchain's numerical layers.

    python3 scripts/bench.py BEFORE_ROOT AFTER_ROOT [--rounds 10] [--studies]

Each root is a checkout of this repository with harness.master_cases.  Every
measurement runs in a fresh interpreter that imports mfchain from ROOT/src,
in ROOT, and each round alternates which root goes first.  Measurements:

  solve_slow_conv   solve_flow of example_slow_conv from (1, 0),
                    recorded every 0.25 over [0, 50] (no tangents);
  decay_<model>     estimate_decay at seed 0 of each model flow-certify
                    certifies: weak_interaction, example_slow_conv and
                    example_non_erg;
  master_scan       master_residual_scan over master-check's cases at seed 0
                    (configs/master_check.cfg, harness.master_cases);
  kernel            events / s of one gillespie_batch call at N = 8, 64, 256:
                    5000 rows of weak_interaction from (0.9, 0.1) on the
                    81-point grid [0, 20], one process;
  count_chain       wall time (ms) of one particles.count_chain build at
                    (d, N) = (2, 256) on weak_interaction, (3, 128) on a 3x3
                    constant chain and (4, 64) on example_chaos, and a digest
                    of the tables (lattice, inside, running, jump); a root
                    without count_chain reports neither;
  initial_counts    wall time (ms) and tracemalloc peak (MiB) of one
                    initial_counts call at N = 8, 64, 256: R = 20000 starts
                    from (0.9, 0.1), seed 12345; the peak is a separate,
                    traced call after the timed one;
  mc_grid_<w>       mc-grid's two `simulate` ops (configs/weak_error.cfg at
                    N = 8 and 64, R = 20000, seed 12345) at --threads w = 1
                    and 2; each mc.csv is compared with results/weak_error/;
  peak_rss          peak resident set (MB, ru_maxrss of the interpreter or
                    of its largest worker, whichever is larger) of a fresh
                    interpreter that imports only mfchain.cli, after one
                    `certify --model.name=example_slow_conv` and then after
                    one mc-grid `simulate` at N = 64 with --threads 2.

The first three kinds run once with Model.rates and Model.rate_derivative
wrapped by counters (also a warm-up), then once timed.  --studies adds, once
per root, the wall time of scripts/run_weak_error.sh and
run_stationary_gap.sh at --threads 2 and whether their artifacts equal the
committed results/.

Prints one JSON object: per root and measurement, each timing's (or
peak_rss's MB) runs with their quartiles and median, and the first round's
facts (rates and derivative calls, initial_counts peaks, result digest,
mc.csv equality, peak_rss's exit codes).
results_identical: per measurement with a digest, whether both roots give
equal digests;
counts_and_digests_repeat: every round gave the same facts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

# peak_rss runs alone in its interpreter: CHILD's own imports (hashlib for
# the digests) would add to the resident set it measures
RSS_CHILD = r"""
import json, os, resource, sys, tempfile
root = sys.argv[1]
sys.path.insert(0, root + "/src")
os.chdir(root)
from mfchain.cli import main

def peak_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0

with tempfile.TemporaryDirectory() as tmp:
    codes = [main(["certify", "--model.name=example_slow_conv", "--out", tmp + "/c"])]
    certify = peak_mb()
    codes.append(main(["simulate", "--config", "configs/weak_error.cfg", "--run.N=64",
                       "--seed", "12345", "--threads", "2", "--out", tmp + "/s"]))
print(json.dumps({"times": {"certify_mb": certify, "simulate_mb": peak_mb()},
                  "facts": {"exit_codes": codes}}))
"""

CHILD = r"""
import dataclasses, hashlib, json, os, sys, tempfile, time
import numpy as np
root, name = sys.argv[1], sys.argv[2]
sys.path.insert(0, root + "/src")
os.chdir(root)
from mfchain import harness, master, models, particles
from mfchain.kolmogorov import make_grid, solve_flow
from mfchain.linearized import estimate_decay

def digest(*blobs):
    h = hashlib.sha256()
    for b in blobs:
        h.update(b if isinstance(b, bytes) else np.ascontiguousarray(b))
    return h.hexdigest()[:16]

def flow(model):
    if name == "solve_slow_conv":
        return solve_flow(model, [[1.0, 0.0]], make_grid(50.0, 0.25))[0][0]
    if name == "master_scan":
        cfg = harness.load_config("configs/master_check.cfg")
        phi, step = harness.observable_from_config(cfg, model), harness.run_step(cfg)
        cases = harness.master_cases(cfg, model, 0)[0]
        return master.master_residual_scan(model, phi, cases, step=step)
    dec = estimate_decay(model, seed=0)
    return np.concatenate([[dec["lambda"], dec["c2"]], dec["per_sample_rates"]])

def measure_flow():
    model = getattr(models, name[6:] if name.startswith("decay_") else "example_slow_conv")()
    calls = {"rates_calls": 0, "derivative_calls": 0}
    def counter(fn, key):
        def counted(mu):
            calls[key] += 1
            return fn(mu)
        return counted
    deriv = model.rate_derivative and counter(model.rate_derivative, "derivative_calls")
    flow(dataclasses.replace(model, rates=counter(model.rates, "rates_calls"),
                             rate_derivative=deriv))
    t0 = time.perf_counter()
    out = flow(model)
    return {"wall_s": time.perf_counter() - t0}, {**calls, "digest": digest(out)}

def measure_kernel():
    model, times = models.weak_interaction(), 0.25 * np.arange(81)
    reps = np.arange(5000, dtype=np.uint64)
    particles.gillespie_batch(model, particles.sample_initial([0.9, 0.1], 8, 1, reps[:50]),
                              1, reps[:50], times=times)                  # warm-up
    rate, counts = {}, []
    for N in (8, 64, 256):
        counts0 = particles.sample_initial([0.9, 0.1], N, 12345, reps)
        t0 = time.perf_counter()
        res = particles.gillespie_batch(model, counts0, 12345, reps, times=times)
        rate[f"events_per_s_N{N}"] = int(res["events"].sum()) / (time.perf_counter() - t0)
        counts.append(res["lattice"][res["states"]])       # (R, T, d)
    return rate, {"digest": digest(*counts)}

def measure_chain():
    if not hasattr(particles, "count_chain"):        # a root from before count_chain
        return {}, {}
    Q3 = np.array([[-1.0, 0.7, 0.3], [0.2, -0.5, 0.3], [1.0, 1.0, -2.0]])
    particles.count_chain(models.weak_interaction(), 8)               # warm-up
    ms, tables = {}, []
    for model, N in ((models.weak_interaction(), 256), (models.constant(Q3), 128),
                     (models.example_chaos(), 64)):
        t0 = time.perf_counter()
        chain = particles.count_chain(model, N)
        ms[f"build_ms_d{model.d}_N{N}"] = 1e3 * (time.perf_counter() - t0)
        tables += [chain[k] for k in ("lattice", "inside", "running", "jump")]
    return ms, {"digest": digest(*tables)}

def measure_init():
    import tracemalloc
    particles.initial_counts([0.9, 0.1], 8, 50, 1)                   # warm-up
    ms, peak, counts = {}, {}, []
    for N in (8, 64, 256):
        t0 = time.perf_counter()
        counts.append(particles.initial_counts([0.9, 0.1], N, 20000, 12345))
        ms[f"wall_ms_N{N}"] = 1e3 * (time.perf_counter() - t0)
        tracemalloc.start()
        particles.initial_counts([0.9, 0.1], N, 20000, 12345)
        peak[f"peak_mib_N{N}"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
        tracemalloc.stop()
    return ms, {**peak, "digest": digest(*counts)}

def measure_mc_grid(threads):
    from mfchain.cli import main
    same, csvs = True, []
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        for N in (8, 64):
            out = os.path.join(tmp, str(N))
            rc = main(["simulate", "--config", "configs/weak_error.cfg", f"--run.N={N}",
                       "--seed", "12345", "--threads", threads, "--out", out])
            csvs.append(open(os.path.join(out, "mc.csv"), "rb").read())
            same &= rc == 0 and csvs[-1] == open(f"results/weak_error/mc_N{N}.csv", "rb").read()
        wall = time.perf_counter() - t0
    return {"wall_s": wall}, {"identical_to_results": same, "digest": digest(*csvs)}

times, facts = (measure_kernel() if name == "kernel" else
                measure_chain() if name == "count_chain" else
                measure_init() if name == "initial_counts" else
                measure_mc_grid(name[8:]) if name.startswith("mc_grid_") else measure_flow())
print(json.dumps({"times": times, "facts": facts}))
"""

MEASUREMENTS = ("solve_slow_conv", "decay_weak_interaction",
                "decay_example_slow_conv", "decay_example_non_erg", "master_scan",
                "kernel", "count_chain", "initial_counts", "mc_grid_1", "mc_grid_2", "peak_rss")
STUDIES = (("run_weak_error.sh", "weak_error"),
           ("run_stationary_gap.sh", "stationary_gap"))


def child(root: str, name: str) -> dict:
    """One measurement in a fresh interpreter: {"times": ..., "facts": ...},
    where "times" holds the measured values that vary from run to run."""
    code = RSS_CHILD if name == "peak_rss" else CHILD
    res = subprocess.run([sys.executable, "-c", code, root, name], check=True,
                         capture_output=True, text=True)
    return json.loads(res.stdout)


def study(root: str, script: str, name: str) -> dict:
    """Wall time of one study script and whether its artifacts match."""
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        subprocess.run([os.path.join(root, "scripts", script), "--threads", "2",
                        "--out", tmp], cwd=root, check=False, capture_output=True)
        wall = time.perf_counter() - t0
        ref = os.path.join(root, "results", name)
        same = all(open(os.path.join(ref, f), "rb").read()
                   == open(os.path.join(tmp, f), "rb").read() for f in os.listdir(ref))
    return {"wall_s": round(wall, 2), "identical": same}


def summary(xs: list) -> dict:
    q = np.percentile(xs, [25, 50, 75])
    return {"runs": [round(x, 4) for x in xs],
            "q25_med_q75": [round(float(v), 4) for v in q]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("roots", nargs=2, help="BEFORE_ROOT AFTER_ROOT")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--studies", action="store_true")
    args = ap.parse_args()
    roots = [os.path.abspath(r) for r in args.roots]
    sides = ("before", "after")
    runs = {s: {m: [] for m in MEASUREMENTS} for s in sides}
    for k in range(args.rounds):
        for i in ((0, 1) if k % 2 == 0 else (1, 0)):
            for m in MEASUREMENTS:
                runs[sides[i]][m].append(child(roots[i], m))
        print(f"round {k + 1}/{args.rounds} done", file=sys.stderr)
    out = {
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                 "numpy": np.__version__},
        "roots": dict(zip(sides, roots)),
        "rounds": args.rounds,
    }
    for s in sides:
        out[s] = {m: {**{t: summary([r["times"][t] for r in rs])
                         for t in rs[0]["times"]}, **rs[0]["facts"]}
                  for m, rs in runs[s].items()}
    out["results_identical"] = {m: out["before"][m]["digest"] == out["after"][m]["digest"]
                                for m in MEASUREMENTS if "digest" in out["before"][m]}
    out["counts_and_digests_repeat"] = all(r["facts"] == rs[0]["facts"]
                                           for s in sides for rs in runs[s].values()
                                           for r in rs)
    if args.studies:
        out["studies"] = {s: {name: study(roots[i], script, name)
                              for script, name in STUDIES}
                          for i, s in enumerate(sides)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
