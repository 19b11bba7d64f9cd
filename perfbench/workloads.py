"""The benchmark's workloads: study commands, expected exit codes, checks.

Each workload is a list of ops; an op is one `mfchain` CLI invocation
plus a check of what it wrote.  Seed 0 reproduces the committed
`results/` configuration (weak-error seed 12345), and there the Monte
Carlo CSVs must match the committed bytes.  At every seed the outputs
must also pass exact oracles that do not depend on the seed: the exact
law of the N-particle count chain for the Monte Carlo means, the
closed-form slow-convergence flow, the affine drift's decay rate.

Flow outputs are never compared byte for byte: a better integrator may
move their last digits and still be right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

MC_SEED = 12345            # run.seed of configs/weak_error.cfg

# sha256 of the committed artifacts each Monte Carlo op must reproduce at
# seed 0 (results/weak_error/mc_N8.csv, mc_N64.csv).
REFERENCE = {
    "results/weak_error/mc_N8.csv":
        "8f7692638f38fe123cf1657d619a344510500cd935520b5918e3b5534ff95170",
    "results/weak_error/mc_N64.csv":
        "33f6866443b5fda9271cc4a2f64c9c51dbc468c543f9901ed731fff7d6688d90",
}

MC_Z = 6.0        # MC mean vs exact law, in stderrs, at each of 162 grid points


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple            # CLI arguments without --out
    rc: int                # expected exit code
    output: str            # file under --out whose bytes must repeat across passes
    check: Callable[[str], tuple]   # out dir -> (problems, facts)


@dataclass(frozen=True)
class Workload:
    threads: int                   # --threads of its Monte Carlo ops
    ops: Callable[[int], list]     # benchmark seed -> ops


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str) -> tuple:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def read_report(out: str) -> dict:
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# exact oracles


def exact_weak_interaction_mean(N: int, times, mu1=0.9, a=1.0, b=1.0, eps=0.25):
    """E[phi(mu^N_t)] for phi = |mu - (1/2, 1/2)|^2, exactly.

    The count k of particles in state 1 is a birth-death chain: k -> k-1 at
    rate k (a + eps (1 - k/N)), k -> k+1 at rate (N - k)(b + eps k/N), and
    k_0 ~ Binomial(N, mu1).  Its law is propagated across each grid step
    with uniformization (a sum of nonnegative terms, so no cancellation).
    """
    k = np.arange(N + 1, dtype=float)
    down = k * (a + eps * (1.0 - k / N))
    up = (N - k) * (b + eps * k / N)
    Q = np.diag(-(down + up)) + np.diag(down[1:], -1) + np.diag(up[:-1], 1)
    h = float(times[1] - times[0])
    lam = float(np.max(down + up))
    P = np.eye(N + 1) + Q / lam
    w = math.exp(-lam * h)
    M, term, n = w * np.eye(N + 1), np.eye(N + 1), 0
    while n < lam * h or w > 1e-18:
        n += 1
        term = term @ P
        w *= lam * h / n
        M += w * term
    p = np.array([math.comb(N, int(j)) * mu1**j * (1 - mu1) ** (N - j) for j in k])
    phi = 2.0 * (k / N - 0.5) ** 2
    out = np.empty(len(times))
    for i in range(len(times)):
        out[i] = p @ phi
        p = p @ M
    return out


def slow_conv_exact(t, mu1_0: float = 1.0):
    """First coordinate of example_slow_conv's flow from (mu1_0, 1 - mu1_0)."""
    return 0.5 + 1.0 / (2.0 * np.sqrt((1.0 - 2.0 * mu1_0) ** -2 + 16.0 * t))


# ---------------------------------------------------------------------------
# checks: each returns (problems, facts)


def check_mc(N: int, seed: int, committed: bool) -> Callable:
    times = 0.25 * np.arange(81)
    exact = exact_weak_interaction_mean(N, times)

    def check(out):
        path = os.path.join(out, "mc.csv")
        header, data = read_csv(path)
        if header != ["t", "mean", "stderr", "R", "N", "seed"] or data.shape != (81, 6):
            return [f"mc.csv layout {header} {data.shape}"], {}
        problems = []
        if not np.array_equal(data[:, 0], times):
            problems.append("mc.csv grid differs from 0, 0.25, ..., 20")
        if not (np.all(data[:, 3] == 20000) and np.all(data[:, 4] == N)
                and np.all(data[:, 5] == seed)):
            problems.append("mc.csv R/N/seed columns wrong")
        z = np.abs(data[:, 1] - exact) / data[:, 2]
        if not np.all(z <= MC_Z):
            problems.append(f"mean off the exact law by {np.max(z):.2f} stderr")
        ref = f"results/weak_error/mc_N{N}.csv"
        if committed and sha256(path) != REFERENCE[ref]:
            problems.append(f"mc.csv differs from committed {ref}")
        return problems, {"max_z": float(np.max(z))}

    return check


def check_solve(out):
    header, data = read_csv(os.path.join(out, "trajectory.csv"))
    if header != ["t", "m_1", "m_2"] or len(data) != 201 or data[-1, 0] != 50.0:
        return [f"trajectory.csv layout {header} {data.shape}"], {}
    err = float(np.max(np.abs(data[:, 1] - slow_conv_exact(data[:, 0]))))
    problems = [] if err <= 1e-9 else [f"max error vs closed form {err:.3e} > 1e-9"]
    return problems, {"max_err": err}


def check_certify(verdict: str, lam=None, witness=None) -> Callable:
    def check(out):
        rep = read_report(out)
        problems = []
        if rep.get("verdict") != verdict:
            problems.append(f"verdict {rep.get('verdict')!r}, expected {verdict!r}")
        got = rep.get("decay", {}).get("lambda")
        if lam is not None and not (isinstance(got, float) and abs(got - lam) <= 1e-6):
            problems.append(f"lambda {got}, expected {lam} within 1e-6")
        if witness is not None:
            w = rep.get("condition2", {}).get("witness") or {}
            if (w.get("x"), w.get("y"), w.get("mu")) != witness:
                problems.append(f"condition-2 witness {w}, expected {witness}")
        return problems, {}

    return check


def check_master(out):
    rep = read_report(out)
    _, data = read_csv(os.path.join(out, "residuals.csv"))
    worst = float(np.max(np.abs(data[:, -1]))) if len(data) == 100 else math.inf
    problems = []
    if not worst < 1e-5 or rep.get("max_residual") != worst:
        problems.append(f"max residual {worst:.3e} (report {rep.get('max_residual')})"
                        " not below 1e-5 over 100 cases")
    return problems, {"max_residual": worst}


def mc_grid(seed: int) -> list:
    s = MC_SEED + seed
    return [
        Op(f"simulate-N{N}",
           ("simulate", "--config", "configs/weak_error.cfg", f"--run.N={N}",
            "--seed", str(s), "--threads", "2"),
           0, "mc.csv", check_mc(N, s, seed == 0))
        for N in (8, 64)
    ]


def flow_certify(seed: int) -> list:
    s = str(seed)
    return [
        Op("solve-slow-conv",
           ("solve", "--model.name=example_slow_conv", "--init.mu=1,0",
            "--run.horizon=50"),
           0, "trajectory.csv", check_solve),
        Op("certify-weak-interaction",
           ("certify", "--model.name=weak_interaction", "--seed", s),
           0, "report.json", check_certify("pass", lam=2.0)),
        Op("certify-slow-conv",
           ("certify", "--model.name=example_slow_conv", "--seed", s),
           2, "report.json", check_certify("inconclusive")),
        Op("certify-non-erg",
           ("certify", "--model.name=example_non_erg", "--seed", s),
           3, "report.json",
           check_certify("fail", lam=-2.0, witness=(1, 2, [0.5, 0.5]))),
        Op("master-check",
           ("master-check", "--config", "configs/master_check.cfg", "--seed", s),
           0, "residuals.csv", check_master),
    ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "mc-grid": Workload(2, mc_grid),
    "flow-certify": Workload(1, flow_certify),
}
