"""Experiment drivers and reporting.

Everything the CLI runs lives here: config parsing, the weak-error study,
stationary-gap measurement, ergodicity certification, the master-equation
residual scan, decay fitting, plain solves and simulations.

Config files are flat `section.key = value` lines ('#' starts a comment).
Dotted command-line overrides (--section.key=value) replace file entries.
Reports are JSON with a stable layout: a schema tag, the tool version, the
echoed scientific config and its content hash, and the master seed, so a
rerun of the same invocation reproduces the output byte for byte (thread
count and output directory are excluded from the echo for that reason).

Exit codes: 0 pass/conclusive, 1 error, 2 inconclusive (with an R estimate
to become conclusive), 3 certified failure (a definite counterexample).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Optional

import numpy as np

from . import __version__, rng
from .kolmogorov import (
    DEFAULT_STEP,
    make_grid,
    solve_flow,
    solve_kolmogorov,
    stationary_distribution,
)
from .linearized import check_condition1, check_condition2, estimate_decay
from .master import PropagatedObservable, master_residual_scan
from .models import Model, make_model
from .particles import (gillespie_batch, mc_moments, mc_observable, run_chunks,
                        sample_initial, simulate)
from .simplex import ScalarField, as_measure, barycenter, make_observable

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_FAIL = 3


class HarnessError(RuntimeError):
    """User-facing configuration or precondition error (exit code 1)."""


# ---------------------------------------------------------------------------
# config: flat `section.key = value`


def parse_config_text(text: str) -> dict:
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise HarnessError(f"config line {lineno}: expected key = value")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key or "." not in key:
            raise HarnessError(
                f"config line {lineno}: keys are dotted section.key names"
            )
        cfg[key] = val.strip()
    return cfg


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def cfg_float(cfg: dict, key: str, default: float) -> float:
    return float(cfg.get(key, default))


def cfg_int(cfg: dict, key: str, default: int) -> int:
    return int(str(cfg.get(key, default)))


def cfg_str(cfg: dict, key: str, default: str) -> str:
    return str(cfg.get(key, default))


def cfg_floats(cfg: dict, key: str, default: str) -> np.ndarray:
    raw = str(cfg.get(key, default))
    return np.array([float(v) for v in raw.split(",") if v.strip() != ""])


def cfg_ints(cfg: dict, key: str, default: str) -> list:
    raw = str(cfg.get(key, default))
    return [int(v) for v in raw.split(",") if v.strip() != ""]


def _auto_value(raw: str):
    """Best-effort typed parse for model parameters."""
    if ";" in raw:
        return np.array(
            [[float(v) for v in row.split(",")] for row in raw.split(";")]
        )
    if "," in raw:
        return np.array([float(v) for v in raw.split(",")])
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def model_from_config(cfg: dict) -> Model:
    name = cfg_str(cfg, "model.name", "")
    if not name:
        raise HarnessError("config needs model.name")
    params = {
        key.split(".", 1)[1]: _auto_value(val)
        for key, val in cfg.items()
        if key.startswith("model.") and key != "model.name"
    }
    try:
        return make_model(name, **params)
    except KeyError as exc:
        raise HarnessError(str(exc)) from None


def observable_from_config(cfg: dict, model: Model) -> ScalarField:
    name = cfg_str(cfg, "observable.name", "sq_dist")
    params: dict = {}
    if name == "sq_dist":
        if "observable.target" in cfg:
            params["target"] = cfg_floats(cfg, "observable.target", "")
        else:
            params["target"], _ = stationary_distribution(model)
    elif name == "linear":
        params["coeffs"] = cfg_floats(cfg, "observable.coeffs", "")
    elif name == "entropy":
        if "observable.shift" in cfg:
            params["shift"] = cfg_float(cfg, "observable.shift", 0.1)
    return make_observable(name, **params)


def initial_measure(cfg: dict, model: Model) -> np.ndarray:
    if "init.mu" in cfg:
        return as_measure(cfg_floats(cfg, "init.mu", ""))
    return barycenter(model.d)


# ---------------------------------------------------------------------------
# reports


def to_builtin(obj):
    """Recursively convert numpy containers for JSON serialization."""
    if isinstance(obj, dict):
        return {str(k): to_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_builtin(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_builtin(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def config_hash(payload: dict) -> str:
    """Content hash of the canonical JSON, git blob style."""
    blob = json.dumps(to_builtin(payload), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha1(b"blob %d\0" % len(blob) + blob).hexdigest()


def report_envelope(command: str, cfg: dict, seed: int) -> dict:
    semantic = {k: v for k, v in sorted(cfg.items())}
    payload = {"command": command, "config": semantic, "seed": seed}
    return {
        "schema": 1,
        "tool": {"name": "mfchain", "version": __version__},
        "command": command,
        "config": semantic,
        "config_hash": config_hash(payload),
        "seed": seed,
    }


def write_json(path: str, obj: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_builtin(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path: str, header: list, rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _ols_loglog(xs, ys):
    """Least squares of log(y) on log(x): slope, intercept, residual sd."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    dof = max(len(lx) - 2, 1)
    return float(coef[0]), float(coef[1]), float(np.sqrt(resid @ resid / dof))


# ---------------------------------------------------------------------------
# certification bundle (shared by certify and weak-error)


def certification_bundle(model: Model, cfg: dict, seed: int) -> dict:
    res = cfg.get("certify.resolution")
    c1 = check_condition1(model, n_pairs=cfg_int(cfg, "certify.pairs", 10_000),
                          seed=seed)
    c2 = check_condition2(model, resolution=None if res is None else int(res))
    dec = estimate_decay(
        model,
        horizon=cfg_float(cfg, "decay.horizon", 20.0),
        n_random=cfg_int(cfg, "decay.random", 8),
        seed=seed,
    )
    for rep in (c1, c2):
        rep.estimated_constants.setdefault("L", c1.estimated_constants.get("L"))
        rep.estimated_constants.setdefault("K", c1.estimated_constants.get("K"))
        rep.estimated_constants["lambda"] = dec.rate
        rep.estimated_constants["c2"] = dec.c2
    return {
        "condition1": c1.to_json_dict(),
        "condition2": c2.to_json_dict(),
        "decay": {
            "lambda": dec.rate,
            "c2": dec.c2,
            "per_sample_rates": dec.per_sample_rates,
            "flagged": dec.flagged,
            "horizon": dec.horizon,
            "note": dec.note,
        },
        "certified": c1.verdict == "pass" or c2.verdict == "pass",
    }


# ---------------------------------------------------------------------------
# weak-error study


def run_weak_error(cfg: dict, out: str, seed: int, threads: int = 1,
                   force: bool = False) -> int:
    model = model_from_config(cfg)
    phi = observable_from_config(cfg, model)
    mu0 = initial_measure(cfg, model)
    horizon = cfg_float(cfg, "run.horizon", 20.0)
    spacing = cfg_float(cfg, "run.spacing", 0.25)
    R = cfg_int(cfg, "run.R", 20_000)
    Ns = cfg_ints(cfg, "run.Ns", "8,16,32,64,128,256")
    step = cfg_float(cfg, "run.step", DEFAULT_STEP)
    times = make_grid(horizon, spacing)
    T = len(times)

    bundle = certification_bundle(model, cfg, seed)
    if not bundle["certified"] and not force:
        raise HarnessError(
            "no ergodicity certificate holds for this model; the uniform-in-N"
            " guarantee is unsupported.  Re-run with --force to proceed anyway."
        )
    bundle["forced"] = bool(not bundle["certified"] and force)

    # initial configurations for every N, and the distinct ones among them
    counts_by_N, uniq_by_N, inv_by_N = {}, {}, {}
    for N in Ns:
        counts0 = np.concatenate(run_chunks(
            lambda a, b, N=N: sample_initial(mu0, N, seed,
                                             np.arange(a, b, dtype=np.uint64)),
            R), axis=0)
        uniq, inv = np.unique(counts0, axis=0, return_inverse=True)
        counts_by_N[N], uniq_by_N[N], inv_by_N[N] = counts0, uniq, inv

    # one batched flow solve covers mu0 and every distinct empirical start
    starts = [mu0[None, :]]
    offsets, pos = {}, 1
    for N in Ns:
        starts.append(uniq_by_N[N] / N)
        offsets[N] = pos
        pos += len(uniq_by_N[N])
    flows, _ = solve_flow(model, np.concatenate(starts, axis=0), times, step)
    u_curve = phi(flows[0])                                    # U(t, mu0)

    per_N = []
    for N in Ns:
        lo = offsets[N]
        U_table = phi(flows[lo : lo + len(uniq_by_N[N])])      # (uq, T)
        U_all = U_table[inv_by_N[N]]                           # (R, T)
        counts0 = counts_by_N[N]

        def values(a, b, N=N, counts0=counts0, U_all=U_all):
            reps = np.arange(a, b, dtype=np.uint64)
            res = gillespie_batch(model, counts0[a:b], seed, reps, times=times)
            vals = phi(res["counts"] / N)                      # (r, T)
            return vals, vals - U_all[a:b], U_all[a:b]

        (mean, stderr), (t1, _), (u0, _) = mc_moments(values, R, threads)
        # t1 = E[phi - U(mu^N_0)], t2 = E[U(mu^N_0)] - U(mu0)
        t2 = u0 - u_curve
        err = mean - u_curve                                   # t1 + t2 exactly
        abs_err = np.abs(err)
        j = int(np.argmax(abs_err))
        sup_err = float(abs_err[j])
        half = float(1.96 * stderr[j])

        write_csv(
            os.path.join(out, f"mc_N{N}.csv"),
            ["t", "mean", "stderr", "R", "N", "seed"],
            [(times[i], mean[i], stderr[i], R, N, seed) for i in range(T)],
        )
        per_N.append({
            "N": N,
            "sup_error": sup_err,
            "argmax_t": float(times[j]),
            "half_width": half,
            "normalized": float(N * sup_err),
            "sup_T1": float(np.max(np.abs(t1))),
            "sup_T2": float(np.max(np.abs(t2))),
            "mean_curve": mean,
            "stderr_curve": stderr,
            "T1_curve": t1,
            "T2_curve": t2,
            "error_curve": err,
        })

    sups = np.array([rec["sup_error"] for rec in per_N])
    halves = np.array([rec["half_width"] for rec in per_N])
    slope, intercept, resid_sd = _ols_loglog(Ns, np.maximum(sups, 1e-300))

    # conclusive means every N resolves its own sup error: the confidence
    # half-width at the arg-max time must sit below half that sup
    noise = float(np.max(halves / np.maximum(sups, 1e-300)))
    inconclusive = noise > 0.5
    r_needed = int(np.ceil(R * (2.0 * noise) ** 2)) if inconclusive else None

    lam = bundle["decay"]["lambda"]
    tail = {
        "lambda": lam,
        "horizon": horizon,
        "decay_factor": float(np.exp(-max(lam, 0.0) * horizon)),
        "note": (
            "sup over t is the recording-grid maximum; beyond the horizon the"
            " flow and the particle system are both within their stationary"
            " neighbourhoods (linearized decay rate above), so the tail adds"
            " no new maximum up to the stated MC noise."
        ),
    }

    report = report_envelope("weak-error", cfg, seed)
    report.update({
        "certificates": bundle,
        "grid": times,
        "u_curve": u_curve,
        "per_N": per_N,
        "fit": {"slope": slope, "intercept": intercept,
                "residual_sd": resid_sd, "n_points": len(Ns)},
        "normalized_sup": float(np.max(sups * np.asarray(Ns, dtype=float))),
        "tail": tail,
        "verdict": "inconclusive" if inconclusive else "conclusive",
        "R_needed": r_needed,
        "exit_code": EXIT_INCONCLUSIVE if inconclusive else EXIT_PASS,
    })
    write_json(os.path.join(out, "report.json"), report)
    return report["exit_code"]


# ---------------------------------------------------------------------------
# stationary gap


def run_stationary_gap(cfg: dict, out: str, seed: int, threads: int = 1,
                       force: bool = False) -> int:
    model = model_from_config(cfg)
    nu, info = stationary_distribution(model,
                                       mu0=initial_measure(cfg, model)
                                       if "init.mu" in cfg else None)
    phi = observable_from_config(cfg, model)
    dec = estimate_decay(model, horizon=cfg_float(cfg, "decay.horizon", 20.0),
                         seed=seed)
    if dec.flagged and not force:
        raise HarnessError(
            "no linearized decay detected; burn-in calibration is undefined."
            "  Re-run with --force and an explicit gap.burn."
        )
    lam = dec.rate
    burn = cfg_float(cfg, "gap.burn", 10.0 / lam if lam > 0 else 5.0)
    window = cfg_float(cfg, "gap.window", 10.0)
    R = cfg_int(cfg, "gap.R", 400)
    Ns = cfg_ints(cfg, "gap.Ns", "10,100,1000")
    phi_ref = float(phi(nu))

    per_N = []
    for N in Ns:
        def values(a, b, N=N):
            reps = np.arange(a, b, dtype=np.uint64)
            counts0 = sample_initial(nu, N, seed, reps)
            res = gillespie_batch(model, counts0, seed, reps, phi=phi,
                                  burn=burn, end=burn + window)
            return (res["phi_avg"],)

        [(mean, stderr)] = mc_moments(values, R, threads)
        per_N.append({
            "N": N,
            "gap": float(mean - phi_ref),
            "stderr": float(stderr),
            "R": R,
        })

    gaps = np.array([abs(rec["gap"]) for rec in per_N])
    errs = np.array([rec["stderr"] for rec in per_N])
    slope, intercept, resid_sd = _ols_loglog(Ns, np.maximum(gaps, 1e-300))
    inconclusive = bool(np.any(1.96 * errs > gaps / 2.0))
    r_needed = None
    if inconclusive and np.all(gaps > 0):
        r_needed = int(np.ceil(R * float(np.max(2 * 1.96 * errs / gaps)) ** 2))

    report = report_envelope("stationary-gap", cfg, seed)
    report.update({
        "nu_infinity": nu,
        "phi_at_nu": phi_ref,
        "stationary_info": info,
        "lambda": lam,
        "burn": burn,
        "window": window,
        "per_N": per_N,
        "fit": {"slope": slope, "intercept": intercept,
                "residual_sd": resid_sd, "n_points": len(Ns)},
        "verdict": "inconclusive" if inconclusive else "conclusive",
        "R_needed": r_needed,
        "exit_code": EXIT_INCONCLUSIVE if inconclusive else EXIT_PASS,
    })
    write_json(os.path.join(out, "report.json"), report)
    write_csv(
        os.path.join(out, "gap.csv"),
        ["N", "gap", "stderr", "R", "window", "burn"],
        [(rec["N"], rec["gap"], rec["stderr"], rec["R"], window, burn)
         for rec in per_N],
    )
    return report["exit_code"]


# ---------------------------------------------------------------------------
# remaining commands


def run_certify(cfg: dict, out: str, seed: int, threads: int = 1,
                force: bool = False) -> int:
    model = model_from_config(cfg)
    bundle = certification_bundle(model, cfg, seed)
    if bundle["certified"]:
        code, verdict = EXIT_PASS, "pass"
    elif bundle["condition2"]["verdict"] == "fail":
        code, verdict = EXIT_FAIL, "fail"
    else:
        code, verdict = EXIT_INCONCLUSIVE, "inconclusive"
    report = report_envelope("certify", cfg, seed)
    report.update({
        "model": model.name,
        "condition1": bundle["condition1"],
        "condition2": bundle["condition2"],
        "decay": bundle["decay"],
        "verdict": verdict,
        "exit_code": code,
    })
    write_json(os.path.join(out, "report.json"), report)
    return code


def run_master_check(cfg: dict, out: str, seed: int, threads: int = 1,
                     force: bool = False) -> int:
    model = model_from_config(cfg)
    phi = observable_from_config(cfg, model)
    obs = PropagatedObservable(model, phi,
                               step=cfg_float(cfg, "run.step", DEFAULT_STEP))
    n = cfg_int(cfg, "master.cases", 100)
    tmin = cfg_float(cfg, "master.tmin", 0.5)
    tmax = cfg_float(cfg, "master.tmax", 3.0)
    tol = cfg_float(cfg, "master.tol", 1e-8)
    floor = max(cfg_float(cfg, "master.floor", 0.05),
                model.valid_region.min_mass + 0.01
                if model.valid_region.min_mass > 0 else 0.0)

    mus = rng.random_measures(seed, n, model.d, floor=floor)
    key = rng.domain_key(rng.stream_key(seed, 0), rng.DOMAIN_SCAN)
    ts = tmin + (tmax - tmin) * rng.uniforms(
        key, np.arange(n, dtype=np.uint64)
    )
    cases = [(float(ts[i]), mus[i]) for i in range(n)]
    residuals = master_residual_scan(obs, cases)
    max_abs = float(np.max(np.abs(residuals)))
    code = EXIT_PASS if max_abs < tol else EXIT_FAIL

    write_csv(
        os.path.join(out, "residuals.csv"),
        ["t"] + [f"mu_{z + 1}" for z in range(model.d)] + ["residual"],
        [tuple([cases[i][0]] + list(cases[i][1]) + [residuals[i]])
         for i in range(n)],
    )
    report = report_envelope("master-check", cfg, seed)
    report.update({
        "n_cases": n,
        "t_range": [tmin, tmax],
        "tol": tol,
        "max_residual": max_abs,
        "exit_code": code,
    })
    write_json(os.path.join(out, "report.json"), report)
    return code


def run_decay_fit(cfg: dict, out: str, seed: int, threads: int = 1,
                  force: bool = False) -> int:
    model = model_from_config(cfg)
    dec = estimate_decay(
        model,
        horizon=cfg_float(cfg, "decay.horizon", 20.0),
        spacing=cfg_float(cfg, "decay.spacing", 0.25),
        n_random=cfg_int(cfg, "decay.random", 8),
        seed=seed,
        step=cfg_float(cfg, "run.step", DEFAULT_STEP),
    )
    code = EXIT_INCONCLUSIVE if dec.flagged else EXIT_PASS
    report = report_envelope("decay-fit", cfg, seed)
    report.update({
        "lambda": dec.rate,
        "c2": dec.c2,
        "per_sample_rates": dec.per_sample_rates,
        "flagged": dec.flagged,
        "horizon": dec.horizon,
        "n_samples": dec.n_samples,
        "note": dec.note,
        "exit_code": code,
    })
    write_json(os.path.join(out, "report.json"), report)
    return code


def run_solve(cfg: dict, out: str, seed: int, threads: int = 1,
              force: bool = False) -> int:
    model = model_from_config(cfg)
    mu0 = initial_measure(cfg, model)
    times = make_grid(cfg_float(cfg, "run.horizon", 20.0),
                      cfg_float(cfg, "run.spacing", 0.25))
    traj = solve_kolmogorov(model, mu0, times,
                            step=cfg_float(cfg, "run.step", DEFAULT_STEP))
    write_csv(
        os.path.join(out, "trajectory.csv"),
        ["t"] + [f"m_{z + 1}" for z in range(model.d)],
        [tuple([traj.times[i]] + list(traj.states[i]))
         for i in range(len(traj.times))],
    )
    report = report_envelope("solve", cfg, seed)
    report.update({
        "model": model.name,
        "final_state": traj.states[-1],
        "n_times": len(traj.times),
        "exit_code": EXIT_PASS,
    })
    write_json(os.path.join(out, "report.json"), report)
    return EXIT_PASS


def run_simulate(cfg: dict, out: str, seed: int, threads: int = 1,
                 force: bool = False) -> int:
    model = model_from_config(cfg)
    mu0 = initial_measure(cfg, model)
    N = cfg_int(cfg, "run.N", 100)
    R = cfg_int(cfg, "run.R", 1)
    times = make_grid(cfg_float(cfg, "run.horizon", 20.0),
                      cfg_float(cfg, "run.spacing", 0.25))
    report = report_envelope("simulate", cfg, seed)
    if R == 1:
        path = simulate(model, mu0, N, times, seed, rep=0)
        write_csv(
            os.path.join(out, "path.csv"),
            ["t"] + [f"count_{z + 1}" for z in range(model.d)],
            [tuple([times[i]] + list(path.counts[i]))
             for i in range(len(times))],
        )
        report.update({"N": N, "R": 1, "n_events": path.n_events,
                       "exit_code": EXIT_PASS})
    else:
        phi = observable_from_config(cfg, model)
        est = mc_observable(model, phi, mu0, N, times, R, seed,
                            threads=threads)
        write_csv(
            os.path.join(out, "mc.csv"),
            ["t", "mean", "stderr", "R", "N", "seed"],
            [(times[i], est.mean[i], est.stderr[i], R, N, seed)
             for i in range(len(times))],
        )
        report.update({"N": N, "R": R, "phi": phi.name,
                       "exit_code": EXIT_PASS})
    write_json(os.path.join(out, "report.json"), report)
    return EXIT_PASS


COMMANDS: dict[str, Callable] = {
    "solve": run_solve,
    "simulate": run_simulate,
    "weak-error": run_weak_error,
    "stationary-gap": run_stationary_gap,
    "certify": run_certify,
    "master-check": run_master_check,
    "decay-fit": run_decay_fit,
}
