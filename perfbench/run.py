"""mfchain benchmark: study workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mc-grid --seed 0 --seconds 55 --trace 0

Run from the root of a checkout.  A pass is one fresh interpreter that
runs the ops of the workload through `mfchain.cli.main` (perfbench/child.py).
The first pass runs every op.  Further passes run until `--seconds` after
the first began: an op that should not end by then (judged by its median
so far) is not started, so the last pass may stop early and a run
measures a little less than `--seconds` at op granularity.  Every op's
exit code and outputs are checked after its pass.

--trace 0 prints the end-to-end metrics: the wall time of the workload
(the sum over its ops of each op's median wall time, set-up excluded), the
median set-up time (spawn to first study call) and the median peak
resident memory of a complete pass.

--trace 1 runs rounds of one plain and one traced complete pass while a
round should end within `--seconds`, and prints the per-layer metrics of
the traced passes (perfbench/layers.py); the plain passes give the tracing
overhead and the wall time that events per second divide by.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 12         # extra set-up-only spawns per run, beside one per pass
PASS_TIMEOUT = 120.0
SELF_SUM_SLACK = 0.01     # traced layer self times must sum to cli.main within 1%


def spawn(ops: list, trace: bool, pdir: str, **limits) -> dict:
    """Run one pass; returns the child's result plus its set-up time.
    `limits` are the optional `deadline` and `expect` of child.py."""
    os.makedirs(pdir)
    spec = {"root": ROOT, "ops": ops, "trace": trace,
            "result": os.path.join(pdir, "result.json"), **limits}
    spec_path = os.path.join(pdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    with open(os.path.join(pdir, "stderr.txt"), "w+b") as err:
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, spec_path], cwd=ROOT,
                                  stdin=subprocess.DEVNULL, stdout=err, stderr=err,
                                  timeout=PASS_TIMEOUT)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        err.seek(0)
        tail = err.read().decode(errors="replace")[-2000:]
    if rc != 0:
        return {"error": f"pass process exited {rc}: {tail}"}
    with open(spec["result"], encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup"] = res["ready"] - t0
    return res


def run_pass(wl_ops: list, trace: bool, pdir: str, outputs: dict, **limits) -> tuple:
    """One pass with checks; returns (result, per-op records of the ops it ran)."""
    argv = [[op.label, list(op.argv) + ["--out", os.path.join(pdir, op.label)]]
            for op in wl_ops]
    res = spawn(argv, trace, pdir, **limits)
    if "error" in res:
        return res, [{"label": op.label, "problems": [res["error"]], "facts": {}}
                     for op in wl_ops]
    return res, [judge(op, got, os.path.join(pdir, op.label), outputs)
                 for op, got in zip(wl_ops, res["ops"])]


def judge(op, got: dict, out: str, outputs: dict) -> dict:
    """Check one op's exit code and outputs; `outputs` holds the digests of
    earlier passes, which a rerun must reproduce."""
    problems, facts = [], {}
    if got["rc"] != op.rc:
        problems.append(f"exit code {got['rc']}, expected {op.rc}")
    try:
        found, facts = op.check(out)
        problems += found
        digest = workloads.sha256(os.path.join(out, op.output))
        if outputs.setdefault(op.label, digest) != digest:
            problems.append(f"{op.output} differs from the first pass of this run")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return {"label": op.label, "wall": got["wall"], "problems": problems, "facts": facts}


def tail_percentile(values: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n} (a tail percentile needs 11)"
    v = sorted(values)
    return f"p{100.0 * (n - 10) / n:.0f}={v[n - 11]:.6g} n={n}"


def median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def op_walls(passes: list) -> dict:
    """Op label -> wall times over the passes that ran it."""
    walls: dict = {}
    for p in passes:
        for o in p["ops"]:
            walls.setdefault(o["label"], []).append(o["wall"])
    return walls


def op_medians(passes: list) -> dict:
    return {label: median(w) for label, w in op_walls(passes).items()}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass


def parallel_eff(spans: list, threads: int) -> float:
    """Worker busy time / (threads x mc_observable wall).

    Worker busy is time in top-level spans of other threads inside each
    mc_observable span (the chunk workers' sample_initial and
    gillespie_batch), plus its direct children when chunks ran inline.
    """
    busy = wall = 0.0
    for sid, _, tid, name, t0, t1 in spans:
        if name != "particles.mc_observable":
            continue
        wall += t1 - t0
        for _, parent, tid2, _, s0, s1 in spans:
            if (parent == sid) or (tid2 != tid and parent is None and t0 <= s0 and s1 <= t1):
                busy += s1 - s0
    return busy / (threads * wall) if wall > 0 else 0.0


def layer_counts(stats: dict) -> dict:
    """The deterministic counters of a traced pass."""
    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    return {
        "rng.uniforms.calls": get("rng.uniforms", "calls"),
        "rng.uniforms.draws": get("rng.uniforms", "work"),
        "particles.gillespie_batch.calls": get("particles.gillespie_batch", "calls"),
        "particles.gillespie_batch.events": get("particles.gillespie_batch", "work"),
        "particles.lockstep_work": get("particles.gillespie_batch", "work2"),
        "models.rates.calls": get("models.rates", "calls"),
        "models.rates.rows": get("models.rates", "work"),
        "models.rate_derivative.calls": get("models.rate_derivative", "calls"),
        "kolmogorov.solve_kolmogorov.rhs_evals":
            get("kolmogorov.solve_kolmogorov", "rhs_evals"),
        "linearized.estimate_decay.calls": get("linearized.estimate_decay", "calls"),
        "linearized.estimate_decay.rhs_evals":
            get("linearized.estimate_decay", "rhs_evals"),
        "master.master_residual_scan.rhs_evals":
            get("master.master_residual_scan", "rhs_evals"),
        "simplex.phi.calls": get("simplex.phi", "calls"),
        "harness.write.bytes": get("harness.write", "work"),
    }


def layer_times(tr: dict, threads: int) -> dict:
    stats = tr["stats"]

    def busy(name):
        return stats.get(name, {}).get("busy_s", 0.0)

    def own(name):
        return stats.get(name, {}).get("self_s", 0.0)

    gb = busy("particles.gillespie_batch")
    events = stats.get("particles.gillespie_batch", {}).get("work", 0)
    return {
        "rng.uniforms.busy_s": busy("rng.uniforms"),
        "particles.gillespie_batch.self_s": own("particles.gillespie_batch"),
        "particles.gillespie_batch.events_per_s": events / gb if gb > 0 else 0.0,
        "particles.sample_initial.busy_s": busy("particles.sample_initial"),
        "particles.mc_observable.busy_s": busy("particles.mc_observable"),
        "particles.parallel_eff": parallel_eff(tr["spans"], threads),
        "models.rates.busy_s": busy("models.rates"),
        "models.rate_derivative.busy_s": busy("models.rate_derivative"),
        "kolmogorov.solve_kolmogorov.busy_s": busy("kolmogorov.solve_kolmogorov"),
        "kolmogorov.stationary_distribution.busy_s":
            busy("kolmogorov.stationary_distribution"),
        "linearized.estimate_decay.busy_s": busy("linearized.estimate_decay"),
        "linearized.check_condition1.busy_s": busy("linearized.check_condition1"),
        "linearized.check_condition2.busy_s": busy("linearized.check_condition2"),
        "master.master_residual_scan.busy_s": busy("master.master_residual_scan"),
        "simplex.phi.busy_s": busy("simplex.phi"),
        "harness.certification_bundle.busy_s": busy("harness.certification_bundle"),
        "harness.write.busy_s": busy("harness.write"),
        "harness.driver.self_s": own("harness.driver"),
        "cli.main.busy_s": busy("cli.main"),
        "trace.self_sum_frac": self_sum_frac(tr),
    }


def self_sum_frac(tr: dict) -> float:
    main = tr["stats"].get("cli.main", {}).get("busy_s", 0.0)
    return tr["root_self_sum"] / main if main > 0 else 0.0


def trace_problems(tr: dict, counts: dict, first_counts: dict) -> list:
    problems = []
    if tr["patch_leaks"]:
        problems.append(f"tracing left patched names: {tr['patch_leaks'][:5]}")
    frac = self_sum_frac(tr)
    if abs(frac - 1.0) > SELF_SUM_SLACK:
        problems.append(f"layer self times sum to {frac:.4f} of cli.main")
    if counts != first_counts:
        moved = sorted(k for k in counts if counts[k] != first_counts.get(k))
        problems.append(f"layer counts differ between traced passes: {moved}")
    return problems


def declared(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mfchain", "cli.py")):
        print(f"perfbench: no mfchain sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    ops = wl.ops(args.seed)
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        return measure(args, wl, ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:             # another run is still using it
            pass


def measure(args, wl, ops, work) -> int:
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace}")
    print(f"env: nproc={os.cpu_count()} machine={platform.machine()}"
          f" python={platform.python_version()} numpy={np.__version__}"
          f" threads={wl.threads}")

    setups = []
    spawn([], False, os.path.join(work, "warm"))           # fill caches, untimed
    for i in range(SETUP_PROBES):
        res = spawn([], False, os.path.join(work, f"probe{i}"))
        if "error" in res:
            print(res["error"], file=sys.stderr)
            return 1
        setups.append(res["setup"])

    outputs: dict = {}
    plain, traced, records = [], [], []
    first_counts = None
    start = time.monotonic()
    deadline = start + args.seconds
    k = 0
    while True:
        if args.trace:
            kinds, limits = ([False, True] if k % 2 == 0 else [True, False]), {}
        else:
            kinds = [False]
            limits = {} if k == 0 else {"deadline": deadline, "expect": op_medians(plain)}
        for trace in kinds:
            res, recs = run_pass(ops, trace, os.path.join(work, f"pass{k}-{int(trace)}"),
                                 outputs, **limits)
            records += recs
            if "error" in res:
                break
            setups.append(res["setup"])
            (traced if trace else plain).append(res)
            if trace:
                counts = layer_counts(res["trace"]["stats"])
                first_counts = first_counts or counts
                found = trace_problems(res["trace"], counts, first_counts)
                records.append({"label": "trace-consistency", "wall": 0.0,
                                "problems": found, "facts": {}})
        k += 1
        now = time.monotonic()
        if "error" in res:
            break
        if args.trace:
            if now + (now - start) / k > deadline:     # the next round would end late
                break
        elif (len(res["ops"]) < len(ops)
              or now + op_medians(plain)[ops[0].label] > deadline):
            break

    failed = [r for r in records if r["problems"]]
    for r in failed:
        print(f"FAILED {r['label']}: {'; '.join(r['problems'])}")
    for label, w in op_walls(plain).items():
        print(f"op {label}: median {median(w):.4f} s, {tail_percentile(w)}")
    for label, facts in dict((r["label"], r["facts"]) for r in records if r["facts"]).items():
        print(f"op {label}: {facts}")

    wall = sum(op_medians(plain).values())
    complete = [p for p in plain if len(p["ops"]) == len(ops)]
    passes = [sum(o["wall"] for o in p["ops"]) for p in complete]
    rss = [p["peak_rss_mb"] for p in complete]
    print(f"wall_s: {wall:.6g} s (sum of op medians over {len(plain)} passes);"
          f" complete passes: median {median(passes):.6g} s, {tail_percentile(passes)}")
    print(f"setup_s: median {median(setups):.6g} s, {tail_percentile(setups)}")
    print(f"peak_rss_mb: median {median(rss):.6g} MB over {len(rss)}")
    print(f"failed_frac: {len(failed)}/{len(records)}")

    if not args.trace:
        metrics = {"wall_s": wall, "setup_s": median(setups),
                   "peak_rss_mb": median(rss)}
        units = declared("end_to_end")
    else:
        metrics = per_layer(wl, traced, records, wall)
        units = declared("per_layer")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer(wl, traced, records, plain_wall) -> dict:
    if traced and traced[0]["trace"]["absent"]:
        print(f"absent layers (reported as 0): {traced[0]['trace']['absent']}")
    out = layer_counts(traced[0]["trace"]["stats"]) if traced else {}
    work = out.pop("particles.lockstep_work", 0)
    events = out.get("particles.gillespie_batch.events", 0)
    times = [layer_times(t["trace"], wl.threads) for t in traced]
    for name in times[0] if times else ():
        out[name] = median([t[name] for t in times])
    out["particles.lockstep_eff"] = events / work if work else 0.0
    out["events_per_s"] = events / plain_wall if plain_wall else 0.0
    errs = [r["facts"]["max_err"] for r in records if "max_err" in r["facts"]]
    out["kolmogorov.solve_kolmogorov.max_err"] = max(errs, default=0.0)
    traced_wall = median([sum(o["wall"] for o in t["ops"]) for t in traced])
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
    for name, value in out.items():
        print(f"layer {name}: {value:.6g}")
    return out


if __name__ == "__main__":
    sys.exit(main())
