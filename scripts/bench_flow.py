"""Before/after timings and rate-evaluation counts of the flow and tangent solves.

    python3 scripts/bench_flow.py BEFORE_ROOT AFTER_ROOT [--rounds 10]

Each root is a checkout of this repository.  Every measurement runs in a
fresh interpreter that imports mfchain from ROOT/src, and each round
alternates which root goes first.  The measurements are the library calls
behind the benchmark's flow-certify workload, at the command defaults:

  solve_slow_conv   solve_kolmogorov of example_slow_conv from (1, 0),
                    recorded every 0.25 over [0, 50] (no tangents);
  decay_<model>     estimate_decay at seed 0 for each model `certify` runs in
                    that workload: weak_interaction, example_slow_conv and
                    example_non_erg (a full tangent frame from 11 probes);
  master_scan       master_residual_scan of sq_dist to (1/2, 1/2) along
                    example_slow_conv over master-check's 100 cases at
                    seed 0 (configs/master_check.cfg).

A child runs its measurement once with Model.rates wrapped by a counter
(this also warms numpy up), then once more timed without the wrapper.
Prints one JSON object with, per root and measurement, the wall times with
their median and quartiles, the rates-call count and a digest of the
result, so the two roots can be checked for bitwise-equal output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

CHILD = r"""
import dataclasses, hashlib, json, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1] + "/src")
from mfchain import models, rng
from mfchain.kolmogorov import make_grid, solve_kolmogorov
from mfchain.linearized import estimate_decay
from mfchain.master import PropagatedObservable, master_residual_scan
from mfchain.simplex import sq_dist_field

name = sys.argv[2]

def master_cases(n=100, seed=0, tmin=0.5, tmax=3.0, floor=0.05):
    mus = rng.random_measures(seed, n, 2, floor=floor)
    key = rng.domain_key(rng.stream_key(seed, 0), rng.DOMAIN_SCAN)
    ts = tmin + (tmax - tmin) * rng.uniforms(key, np.arange(n, dtype=np.uint64))
    return [(float(ts[i]), mus[i]) for i in range(n)]

def run(model):
    if name == "solve_slow_conv":
        return solve_kolmogorov(model, [1.0, 0.0], make_grid(50.0, 0.25)).states
    if name == "master_scan":
        obs = PropagatedObservable(model, sq_dist_field([0.5, 0.5]))
        return master_residual_scan(obs, master_cases())
    dec = estimate_decay(model, seed=0)
    return np.concatenate([[dec.rate, dec.c2], dec.per_sample_rates])

factory = {"solve_slow_conv": "example_slow_conv", "master_scan": "example_slow_conv",
           "decay_weak_interaction": "weak_interaction",
           "decay_example_slow_conv": "example_slow_conv",
           "decay_example_non_erg": "example_non_erg"}[name]
model = getattr(models, factory)()
calls = [0]
def counted(mu, rates=model.rates):
    calls[0] += 1
    return rates(mu)
run(dataclasses.replace(model, rates=counted))
t0 = time.perf_counter()
out = run(model)
wall = time.perf_counter() - t0
digest = hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:16]
print(json.dumps({"wall": wall, "rates_calls": calls[0], "digest": digest}))
"""

MEASUREMENTS = ("solve_slow_conv", "decay_weak_interaction",
                "decay_example_slow_conv", "decay_example_non_erg", "master_scan")


def child(root: str, name: str) -> dict:
    res = subprocess.run([sys.executable, "-c", CHILD, root, name], check=True,
                         capture_output=True, text=True)
    return json.loads(res.stdout)


def summary(xs: list) -> dict:
    q = np.percentile(xs, [25, 50, 75])
    return {"runs": [round(x, 4) for x in xs],
            "q25_med_q75": [round(float(v), 4) for v in q]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("roots", nargs=2, help="BEFORE_ROOT AFTER_ROOT")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args()
    roots = [os.path.abspath(r) for r in args.roots]
    names = ("before", "after")
    wall = {n: {m: [] for m in MEASUREMENTS} for n in names}
    seen = {n: {} for n in names}          # measurement -> (calls, digest)
    repeat = True
    for k in range(args.rounds):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for i in order:
            for m in MEASUREMENTS:
                r = child(roots[i], m)
                wall[names[i]][m].append(r["wall"])
                key = (r["rates_calls"], r["digest"])
                repeat &= seen[names[i]].setdefault(m, key) == key
        print(f"round {k + 1}/{args.rounds} done", file=sys.stderr)
    out = {
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                 "numpy": np.__version__},
        "roots": dict(zip(names, roots)),
        "rounds": args.rounds,
        "wall_s": {n: {m: summary(v) for m, v in wall[n].items()} for n in names},
        "rates_calls": {n: {m: seen[n][m][0] for m in MEASUREMENTS} for n in names},
        "result_digest": {n: {m: seen[n][m][1] for m in MEASUREMENTS} for n in names},
        "results_identical": all(seen["before"][m][1] == seen["after"][m][1]
                                 for m in MEASUREMENTS),
        "counts_and_digests_repeat": repeat,
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
