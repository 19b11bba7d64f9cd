"""Before/after timings of the Gillespie kernel and the Monte Carlo runs on it.

    python3 scripts/bench_gillespie.py BEFORE_ROOT AFTER_ROOT [--rounds 10] [--studies]

Each root is a checkout of this repository.  Every measurement runs in a
fresh interpreter that imports mfchain from ROOT/src, and each round
alternates which root goes first.  Prints one JSON object with, per root:

  kernel_events_per_s  events / s of one gillespie_batch call at N = 8, 64
                       and 256: one 5000-row chunk of weak_interaction from
                       (0.9, 0.1) on the 81-point grid [0, 20], one process;
  mc_grid_wall_s       the two `simulate` ops of the benchmark's mc-grid
                       workload (configs/weak_error.cfg at N = 8 and 64,
                       R = 20000, seed 12345) in one interpreter, at
                       --threads 1 and 2; each mc.csv must equal the
                       committed results/weak_error/mc_N*.csv;
  studies_wall_s       with --studies, once per root: scripts/run_weak_error.sh
                       and scripts/run_stationary_gap.sh at --threads 2, and
                       whether every artifact equals the committed one.

Each timing list comes with its median and quartiles.
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

KERNEL = r"""
import json, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1] + "/src")
from mfchain import models, particles
model = models.weak_interaction()
times = 0.25 * np.arange(81)
reps = np.arange(5000, dtype=np.uint64)
particles.gillespie_batch(model, particles.sample_initial([0.9, 0.1], 8, 1, reps[:50]),
                          1, reps[:50], times=times)                  # warm-up
out = {}
for N in (8, 64, 256):
    counts0 = particles.sample_initial([0.9, 0.1], N, 12345, reps)
    t0 = time.perf_counter()
    res = particles.gillespie_batch(model, counts0, 12345, reps, times=times)
    out[N] = int(res["events"].sum()) / (time.perf_counter() - t0)
print(json.dumps(out))
"""

MC_GRID = r"""
import json, os, sys, tempfile, time
root, threads = sys.argv[1], sys.argv[2]
sys.path.insert(0, root + "/src")
os.chdir(root)
from mfchain.cli import main
same = True
with tempfile.TemporaryDirectory() as tmp:
    t0 = time.perf_counter()
    for N in (8, 64):
        out = os.path.join(tmp, str(N))
        rc = main(["simulate", "--config", "configs/weak_error.cfg", f"--run.N={N}",
                   "--seed", "12345", "--threads", threads, "--out", out])
        got = open(os.path.join(out, "mc.csv"), "rb").read()
        ref = open(f"results/weak_error/mc_N{N}.csv", "rb").read()
        same = same and rc == 0 and got == ref
    wall = time.perf_counter() - t0
print(json.dumps({"wall": wall, "identical": same}))
"""


def child(code: str, *args: str) -> dict:
    res = subprocess.run([sys.executable, "-c", code, *args], check=True,
                         capture_output=True, text=True)
    return json.loads(res.stdout)


def study(root: str, script: str, name: str) -> tuple:
    """Wall time of one study script and whether its artifacts match."""
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        subprocess.run([os.path.join(root, "scripts", script), "--threads", "2",
                        "--out", tmp], cwd=root, check=False,
                       capture_output=True)
        wall = time.perf_counter() - t0
        ref = os.path.join(root, "results", name)
        same = all(
            open(os.path.join(ref, f), "rb").read()
            == open(os.path.join(tmp, f), "rb").read()
            for f in sorted(os.listdir(ref)))
    return wall, same


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
    names = ("before", "after")
    kernel = {n: {N: [] for N in ("8", "64", "256")} for n in names}
    mc = {n: {"1": [], "2": []} for n in names}
    identical = {n: True for n in names}
    for k in range(args.rounds):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for i in order:
            for N, v in child(KERNEL, roots[i]).items():
                kernel[names[i]][N].append(v)
            for threads in ("1", "2"):
                r = child(MC_GRID, roots[i], threads)
                mc[names[i]][threads].append(r["wall"])
                identical[names[i]] &= r["identical"]
        print(f"round {k + 1}/{args.rounds} done", file=sys.stderr)
    out = {
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                 "numpy": np.__version__},
        "roots": dict(zip(names, roots)),
        "rounds": args.rounds,
        "kernel_events_per_s": {n: {N: summary(v) for N, v in kernel[n].items()}
                                for n in names},
        "mc_grid_wall_s": {n: {f"workers_{t}": summary(v) for t, v in mc[n].items()}
                           for n in names},
        "mc_grid_identical_to_results": identical,
    }
    if args.studies:
        out["studies_wall_s"] = {}
        for i, n in enumerate(names):
            rec = {}
            for script, name in (("run_weak_error.sh", "weak_error"),
                                 ("run_stationary_gap.sh", "stationary_gap")):
                wall, same = study(roots[i], script, name)
                rec[name] = {"wall_s": round(wall, 2), "identical": same}
            out["studies_wall_s"][n] = rec
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
