"""Experiment drivers and reporting.

Everything the CLI runs lives here: config parsing, the weak-error study,
stationary-gap measurement, ergodicity certification, the master-equation
residual scan, decay fitting, plain solves and simulations.

Config files are flat `section.key = value` lines ('#' starts a comment).
Dotted command-line overrides (--section.key=value) replace file entries.
cfg_value reads every key: a bad value is refused, by key, before any work.
Reports are JSON with a stable layout: a schema tag, the tool version, the
echoed scientific config and its content hash, and the master seed, so a
rerun of the same invocation reproduces the output byte for byte (worker
count and output directory are excluded from the echo for that reason).

Exit codes: 0 pass/conclusive, 1 error, 2 inconclusive (with an R estimate
to become conclusive), 3 a definite counterexample (from certify: a lattice
point where condition 2 fails, which refutes that sufficient condition, not
ergodicity).
"""

from __future__ import annotations

import json
import os
from typing import Callable, Optional

try:
    from _sha1 import sha1
except ImportError:                     # a CPython built without it
    from hashlib import sha1

import numpy as np

from . import __version__, rng
from .errors import DomainExitError, InputError, check_count
from .kolmogorov import (
    DEFAULT_STEP,
    make_grid,
    solve_flow,
    solve_kolmogorov,
    stationary_distribution,
)
from .linearized import (check_condition1, check_condition2,
                         default_resolution, estimate_decay)
from .master import DT_STENCIL, master_residual_scan
from .models import MAX_PAIRS, Model, make_model
from .particles import (gillespie_batch, initial_counts, mc_moments,
                        mc_observable, sample_initial, simulate)
from .simplex import (ScalarField, as_measure, barycenter, check_lattice,
                      make_observable)

EXIT_PASS = 0
EXIT_INCONCLUSIVE = 2
EXIT_FAIL = 3


# ---------------------------------------------------------------------------
# config: flat `section.key = value`


def parse_config_text(text: str) -> dict:
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected key = value")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key or "." not in key:
            raise InputError(
                f"config line {lineno}: keys are dotted section.key names"
            )
        cfg[key] = val.strip()
    return cfg


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def cfg_value(cfg: dict, key: str, default, parse: Callable):
    """parse(raw) of the key's raw string, else of str(default).  A refusal
    names the key: an InputError from parse keeps its message after `config
    key K:`, and any other ValueError says the raw string cannot be parsed."""
    raw = str(cfg.get(key, default))
    try:
        return parse(raw)
    except InputError as exc:
        raise InputError(f"config key {key}: {exc}") from None
    except ValueError:
        raise InputError(f"config key {key}: cannot parse {raw!r}") from None


def checked(cast: Callable, ok: Callable, need: str) -> Callable:
    """The parse cast(raw), refused unless ok holds for the value."""
    def parse(raw: str):
        v = cast(raw)
        if not ok(v):
            raise InputError(f"need {need}, got {v!r}")
        return v
    return parse


def integer(name: str, lo: int = 1, hi: Optional[int] = None) -> Callable:
    """The parse of an integer in [lo, hi]: int(raw), checked by
    errors.check_count under name, the library's name for the value."""
    return lambda raw: check_count(int(raw), name, lo, hi)


POSITIVE = checked(float, lambda v: 0 < v < np.inf, "a finite value > 0")
NONNEGATIVE = checked(float, lambda v: 0 <= v < np.inf, "a finite value >= 0")
REPLICATIONS = integer("R", 2)                  # a standard error needs two


def lattice_totals(d: int, single: bool = False) -> Callable:
    """The parse of lattice totals at dimension d, each passing check_lattice:
    one int (an N or a resolution) if single, else a comma list of them."""
    def parse(raw: str):
        Ns = [int(v) for v in ([raw] if single else raw.split(",")) if v.strip()]
        if not Ns:
            raise InputError("need at least one value")
        for N in Ns:
            check_lattice(N, d)
        return Ns[0] if single else Ns
    return parse


def state_entries(model: Model) -> Callable:
    """The parse of a comma list of finite floats, one per model state."""
    def parse(raw: str) -> np.ndarray:
        v = np.array([float(x) for x in raw.split(",") if x.strip()])
        if len(v) != model.d:
            raise InputError(f"{len(v)} entries, but model {model.name!r}"
                             f" has d = {model.d}")
        if not np.all(np.isfinite(v)):
            raise InputError(f"entries must be finite, got {raw!r}")
        return v
    return parse


def _auto_value(raw: str):
    """Best-effort typed parse for model parameters (ValueError if ragged)."""
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
    name = cfg_value(cfg, "model.name", "", checked(str, bool, "a model name"))
    params = {key.split(".", 1)[1]: cfg_value(cfg, key, None, _auto_value)
              for key in cfg if key.startswith("model.") and key != "model.name"}
    return make_model(name, **params)


def observable_params(cfg: dict, model: Model) -> tuple:
    """(observable.name, the parameters its keys set); sq_dist has a target
    among them only when observable.target is set."""
    name = cfg_value(cfg, "observable.name", "sq_dist", str)
    params: dict = {}
    if name == "sq_dist" and "observable.target" in cfg:
        params["target"] = cfg_value(cfg, "observable.target", "",
                                     state_entries(model))
    elif name == "linear":
        params["coeffs"] = cfg_value(cfg, "observable.coeffs", "",
                                     state_entries(model))
    elif name == "entropy":
        params["shift"] = cfg_value(cfg, "observable.shift", 0.1, POSITIVE)
    return name, params


def observable_from_config(cfg: dict, model: Model,
                           nu: Optional[np.ndarray] = None) -> ScalarField:
    """The configured observable.  sq_dist's default target is the
    stationary search's nu: pass it as nu if the search has already run."""
    name, params = observable_params(cfg, model)
    if name == "sq_dist" and "target" not in params:
        params["target"] = stationary_search(cfg, model)[0] if nu is None else nu
    return make_observable(name, **params)


def initial_measure(cfg: dict, model: Model) -> np.ndarray:
    if "init.mu" in cfg:
        return cfg_value(cfg, "init.mu", "",
                         lambda raw: as_measure(state_entries(model)(raw)))
    return barycenter(model.d)


# ---------------------------------------------------------------------------
# settings the commands share: each key is read here and nowhere else, and
# before the runner's first flow solve, search, certificate or Monte Carlo


def run_step(cfg: dict) -> float:
    """The fixed step of every flow a command solves."""
    return cfg_value(cfg, "run.step", DEFAULT_STEP, POSITIVE)


def stationary_search(cfg: dict, model: Model) -> tuple:
    """(nu, info): the stationary search of stationary-gap, and of sq_dist's
    default target, from init.mu (else the barycentre) at run.step."""
    return stationary_distribution(
        model, mu0=initial_measure(cfg, model) if "init.mu" in cfg else None,
        step=run_step(cfg))


def run_grid(cfg: dict) -> np.ndarray:
    """The recording grid of solve, simulate and weak-error: multiples of
    run.spacing up to run.horizon, so its last time may fall short of it."""
    return make_grid(cfg_value(cfg, "run.horizon", 20.0, NONNEGATIVE),
                     cfg_value(cfg, "run.spacing", 0.25, POSITIVE))


def master_cases(cfg: dict, model: Model, seed: int) -> tuple:
    """The (t, mu) cases of master-check and the range [tmin, tmax] of t.

    master.cases measures with every mass at least master.floor, or 0.01
    above the model's valid-region floor if that is higher, each paired
    with a time uniform on [master.tmin, master.tmax] from the seed's scan
    stream.  master.tmin must exceed the residual stencil's width.
    """
    n = cfg_value(cfg, "master.cases", 100, integer("cases"))
    tmin = cfg_value(cfg, "master.tmin", 0.5, checked(
        float, lambda t: DT_STENCIL < t < np.inf,
        f"a finite time > the residual stencil's width {DT_STENCIL}"))
    tmax = cfg_value(cfg, "master.tmax", 3.0,
                     checked(float, np.isfinite, "a finite time"))
    floor = cfg_value(cfg, "master.floor", 0.05, checked(
        float, lambda f: 0 <= f * model.d < 1,
        f"0 <= floor * d < 1 at d = {model.d}"))
    if not tmin <= tmax:
        raise InputError(f"need master.tmin <= master.tmax, got {tmin}, {tmax}")
    floor = max(floor, model.valid_region.min_mass + 0.01
                if model.valid_region.min_mass > 0 else 0.0)
    mus = rng.random_measures(seed, n, model.d, floor=floor)
    ts = tmin + (tmax - tmin) * rng.uniform_block(seed, 0, rng.DOMAIN_SCAN, 0, n)
    return [(float(ts[i]), mus[i]) for i in range(n)], [tmin, tmax]


def decay_settings(cfg: dict) -> dict:
    """estimate_decay's keyword arguments from decay.* and run.step."""
    return {
        "horizon": cfg_value(cfg, "decay.horizon", 20.0, POSITIVE),
        "spacing": cfg_value(cfg, "decay.spacing", 0.25, POSITIVE),
        "n_random": cfg_value(cfg, "decay.random", 8, integer("n_random", 0)),
        "step": run_step(cfg),
    }


def certify_settings(cfg: dict, model: Model) -> dict:
    """certification_bundle's keyword arguments from certify.* and decay."""
    return {
        "resolution": cfg_value(cfg, "certify.resolution",
                                default_resolution(model.d),
                                lattice_totals(model.d, single=True)),
        "n_pairs": cfg_value(cfg, "certify.pairs", 10_000,
                             integer("n_pairs", 1, MAX_PAIRS)),
        "decay": decay_settings(cfg),
    }


def decay_probe(model: Model, seed: int, decay: dict) -> dict:
    """The decay record of estimate_decay at decay, from decay_settings.

    A probe that leaves the model's valid region is evidence, not a crash:
    it is recorded with the same keys, flagged, with null lambda, c2 and
    per_sample_rates and the exit in note.  The horizon is the probe grid's
    last time.
    """
    try:
        return estimate_decay(model, seed=seed, **decay)
    except DomainExitError as exc:
        return {"lambda": None, "c2": None, "per_sample_rates": None,
                "flagged": True,
                "horizon": float(make_grid(decay["horizon"],
                                           decay["spacing"])[-1]),
                "note": f"decay probe: {exc}"}


# ---------------------------------------------------------------------------
# reports


def json_default(obj):
    """The default= hook of json.dump for numpy values: an array as its
    nested list, a numpy scalar as the Python number or bool it holds."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def config_hash(payload: dict) -> str:
    """Content hash of the canonical JSON, git blob style.

    The SHA-1 comes from CPython's built-in _sha1 module, the one hashlib
    falls back to: importing hashlib loads OpenSSL's libcrypto, about 3.5 MB
    of resident memory in every command for one 40-character digest.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=json_default).encode()
    return sha1(b"blob %d\0" % len(blob) + blob).hexdigest()


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
        json.dump(obj, fh, indent=2, sort_keys=True, default=json_default)
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


def write_mc_csv(path: str, times, mean, stderr, R: int, N: int,
                 seed: int) -> None:
    """The grid estimate of simulate and of each weak-error N."""
    write_csv(path, ["t", "mean", "stderr", "R", "N", "seed"],
              [(times[i], mean[i], stderr[i], R, N, seed)
               for i in range(len(times))])


def _ols_loglog(xs, ys):
    """Least squares of log(y) on log(x): slope, intercept, residual sd."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    dof = max(len(lx) - 2, 1)
    return float(coef[0]), float(coef[1]), float(np.sqrt(resid @ resid / dof))


def mc_verdict(Ns, effects, halves, R: int) -> dict:
    """Log-log fit of the effects |effect_N| and the Monte Carlo verdict.

    The fit is None when Ns hold fewer than two distinct sizes.  Conclusive
    when each half-width (1.96 stderr, from R replications) is
    below half its effect; else R_needed would get there, or is None when an
    effect is exactly 0 or a half-width is not finite.
    """
    effects, halves = np.asarray(effects, float), np.asarray(halves, float)
    fit = None
    if len(set(Ns)) >= 2:
        slope, intercept, resid_sd = _ols_loglog(Ns, np.maximum(effects, 1e-300))
        fit = {"slope": slope, "intercept": intercept,
               "residual_sd": resid_sd, "n_points": len(Ns)}
    inconclusive = bool(np.any(halves > effects / 2.0))
    r_needed = None
    if inconclusive and np.all(effects > 0):
        need = np.ceil(R * float(np.max(2.0 * halves / effects)) ** 2)
        r_needed = int(need) if np.isfinite(need) else None
    return {
        "fit": fit,
        "verdict": "inconclusive" if inconclusive else "conclusive",
        "R_needed": r_needed,
        "exit_code": EXIT_INCONCLUSIVE if inconclusive else EXIT_PASS,
    }


# ---------------------------------------------------------------------------
# certification bundle (shared by certify and weak-error)


def certification_bundle(model: Model, seed: int, resolution: int,
                         n_pairs: int, decay: dict) -> dict:
    c1 = check_condition1(model, n_pairs=n_pairs, seed=seed)
    c2 = check_condition2(model, resolution=resolution)
    return {
        "condition1": c1,
        "condition2": c2,
        "decay": decay_probe(model, seed, decay),
        "certified": c1["verdict"] == "pass" or c2["verdict"] == "pass",
    }


# ---------------------------------------------------------------------------
# weak-error study


def run_weak_error(cfg: dict, out: str, seed: int, threads: int = 1,
                   force: bool = False) -> dict:
    model = model_from_config(cfg)
    R = cfg_value(cfg, "run.R", 20_000, REPLICATIONS)
    Ns = cfg_value(cfg, "run.Ns", "8,16,32,64,128,256",
                   lattice_totals(model.d))
    mu0 = initial_measure(cfg, model)
    times = run_grid(cfg)
    certify = certify_settings(cfg, model)
    phi = observable_from_config(cfg, model)     # may run the search: last

    bundle = certification_bundle(model, seed, **certify)
    if not bundle["certified"] and not force:
        raise InputError(
            "no ergodicity certificate holds for this model; the uniform-in-N"
            " guarantee is unsupported.  Re-run with --force to proceed anyway."
        )
    bundle["forced"] = bool(not bundle["certified"] and force)

    # each N's starts, and the distinct ones (lexicographic) with their counts
    counts = [initial_counts(mu0, N, R, seed) for N in Ns]
    uniq = [np.unique(c, axis=0, return_counts=True) for c in counts]

    # one batched flow solve covers mu0 and every distinct empirical start
    starts = [mu0[None, :]] + [u / N for (u, _), N in zip(uniq, Ns)]
    flows, _ = solve_flow(model, np.concatenate(starts), times, run_step(cfg))
    U = np.split(phi(flows), np.cumsum([len(x) for x in starts])[:-1])
    u_curve = U[0][0]                                          # U(t, mu0)

    per_N = []
    for N, counts0, (_, mult), U_table in zip(Ns, counts, uniq, U[1:]):
        # E[U(t, mu^N_0)] over the R sampled starts, exactly
        u0 = mult @ U_table / R
        mean, stderr = mc_observable(model, phi, counts0, times, seed,
                                     threads)
        # t1 = E[phi(mu^N_t)] - E[U(mu^N_0)], t2 = E[U(mu^N_0)] - U(mu0)
        t1 = mean - u0
        t2 = u0 - u_curve
        err = mean - u_curve                                   # t1 + t2
        abs_err = np.abs(err)
        j = int(np.argmax(abs_err))
        sup_err = float(abs_err[j])
        half = float(1.96 * stderr[j])

        write_mc_csv(os.path.join(out, f"mc_N{N}.csv"), times, mean, stderr,
                     R, N, seed)
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

    # each N's sup error against the half-width at its arg-max time
    sups = np.array([rec["sup_error"] for rec in per_N])
    verdict = mc_verdict(Ns, sups, [rec["half_width"] for rec in per_N], R)

    lam = bundle["decay"]["lambda"]
    horizon = float(times[-1])
    tail = {
        "lambda": lam,
        "horizon": horizon,
        "decay_factor": None if lam is None
        else float(np.exp(-max(lam, 0.0) * horizon)),
        "note": (
            "sup over t is the recording-grid maximum; beyond the horizon the"
            " flow and the particle system are both within their stationary"
            " neighbourhoods (linearized decay rate above), so the tail adds"
            " no new maximum up to the stated MC noise."
        ),
    }

    return {
        "certificates": bundle,
        "grid": times,
        "u_curve": u_curve,
        "per_N": per_N,
        "normalized_sup": float(np.max(sups * np.asarray(Ns, dtype=float))),
        "tail": tail,
        **verdict,
    }


# ---------------------------------------------------------------------------
# stationary gap


def _check_gap_end(burn: float, window: float) -> None:
    """Refuse a window [burn, burn + window] empty in floating point."""
    if not burn + window > burn:
        raise InputError(f"gap.burn + gap.window must exceed gap.burn, but"
                         f" {burn} + {window} rounds to {burn + window}")


def run_stationary_gap(cfg: dict, out: str, seed: int, threads: int = 1,
                       force: bool = False) -> dict:
    model = model_from_config(cfg)
    window = cfg_value(cfg, "gap.window", 10.0, POSITIVE)
    burn = (cfg_value(cfg, "gap.burn", None, NONNEGATIVE)
            if "gap.burn" in cfg else None)
    if burn is not None:
        _check_gap_end(burn, window)
    R = cfg_value(cfg, "gap.R", 400, REPLICATIONS)
    Ns = cfg_value(cfg, "gap.Ns", "10,100,1000", lattice_totals(model.d))
    probe = decay_settings(cfg)
    observable_params(cfg, model)      # observable.* refused before the search
    nu, info = stationary_search(cfg, model)
    phi = observable_from_config(cfg, model, nu)
    decay = decay_probe(model, seed, probe)
    if decay["flagged"] and not force:
        raise InputError(
            "no linearized decay detected; burn-in calibration is undefined."
            "  Re-run with --force and an explicit gap.burn."
        )
    lam = decay["lambda"]
    if burn is None:
        burn = 10.0 / lam if lam is not None and lam > 0 else 5.0
        _check_gap_end(burn, window)
    phi_ref = float(phi(nu))

    per_N = []
    for N in Ns:
        def values(a, b, N=N):
            reps = np.arange(a, b, dtype=np.uint64)
            counts0 = sample_initial(nu, N, seed, reps)
            res = gillespie_batch(model, counts0, seed, reps, phi=phi,
                                  burn=burn, end=burn + window)
            return res["phi_avg"]

        mean, stderr = mc_moments(values, R, threads)
        per_N.append({
            "N": N,
            "gap": float(mean - phi_ref),
            "stderr": float(stderr),
            "R": R,
        })

    verdict = mc_verdict(Ns, [abs(rec["gap"]) for rec in per_N],
                         [1.96 * rec["stderr"] for rec in per_N], R)
    write_csv(
        os.path.join(out, "gap.csv"),
        ["N", "gap", "stderr", "R", "window", "burn"],
        [(rec["N"], rec["gap"], rec["stderr"], rec["R"], window, burn)
         for rec in per_N],
    )
    return {
        "nu_infinity": nu,
        "phi_at_nu": phi_ref,
        "stationary_info": info,
        "lambda": lam,
        "burn": burn,
        "window": window,
        "per_N": per_N,
        **verdict,
    }


# ---------------------------------------------------------------------------
# remaining commands


def run_certify(cfg: dict, out: str, seed: int, threads: int = 1,
                force: bool = False) -> dict:
    model = model_from_config(cfg)
    bundle = certification_bundle(model, seed, **certify_settings(cfg, model))
    if bundle["certified"]:
        code, verdict = EXIT_PASS, "pass"
    elif bundle["condition2"]["verdict"] == "fail":
        code, verdict = EXIT_FAIL, "fail"
    else:
        code, verdict = EXIT_INCONCLUSIVE, "inconclusive"
    return {
        "model": model.name,
        "condition1": bundle["condition1"],
        "condition2": bundle["condition2"],
        "decay": bundle["decay"],
        "verdict": verdict,
        "exit_code": code,
    }


def run_master_check(cfg: dict, out: str, seed: int, threads: int = 1,
                     force: bool = False) -> dict:
    model = model_from_config(cfg)
    tol = cfg_value(cfg, "master.tol", 1e-8, POSITIVE)
    cases, t_range = master_cases(cfg, model, seed)
    phi = observable_from_config(cfg, model)     # may run the search: last
    residuals = master_residual_scan(model, phi, cases, step=run_step(cfg))
    max_abs = float(np.max(np.abs(residuals)))
    code = EXIT_PASS if max_abs < tol else EXIT_FAIL

    write_csv(
        os.path.join(out, "residuals.csv"),
        ["t"] + [f"mu_{z + 1}" for z in range(model.d)] + ["residual"],
        [tuple([t] + list(mu) + [res])
         for (t, mu), res in zip(cases, residuals)],
    )
    return {
        "n_cases": len(cases),
        "t_range": t_range,
        "tol": tol,
        "max_residual": max_abs,
        "exit_code": code,
    }


def run_decay_fit(cfg: dict, out: str, seed: int, threads: int = 1,
                  force: bool = False) -> dict:
    decay = decay_probe(model_from_config(cfg), seed, decay_settings(cfg))
    return {**decay,
            "exit_code": EXIT_INCONCLUSIVE if decay["flagged"] else EXIT_PASS}


def run_solve(cfg: dict, out: str, seed: int, threads: int = 1,
              force: bool = False) -> dict:
    model = model_from_config(cfg)
    mu0 = initial_measure(cfg, model)
    times = run_grid(cfg)
    states = solve_kolmogorov(model, mu0, times, step=run_step(cfg))
    write_csv(
        os.path.join(out, "trajectory.csv"),
        ["t"] + [f"m_{z + 1}" for z in range(model.d)],
        [tuple([times[i]] + list(states[i])) for i in range(len(times))],
    )
    return {
        "model": model.name,
        "final_state": states[-1],
        "n_times": len(times),
        "exit_code": EXIT_PASS,
    }


def run_simulate(cfg: dict, out: str, seed: int, threads: int = 1,
                 force: bool = False) -> dict:
    model = model_from_config(cfg)
    N = cfg_value(cfg, "run.N", 100, lattice_totals(model.d, single=True))
    R = cfg_value(cfg, "run.R", 1, integer("R"))
    mu0 = initial_measure(cfg, model)
    times = run_grid(cfg)
    if R == 1:
        counts, n_events = simulate(model, mu0, N, times, seed, rep=0)
        write_csv(
            os.path.join(out, "path.csv"),
            ["t"] + [f"count_{z + 1}" for z in range(model.d)],
            [tuple([times[i]] + list(counts[i])) for i in range(len(times))],
        )
        return {"N": N, "R": 1, "n_events": n_events, "exit_code": EXIT_PASS}
    phi = observable_from_config(cfg, model)
    mean, stderr = mc_observable(model, phi, initial_counts(mu0, N, R, seed),
                                 times, seed, threads)
    write_mc_csv(os.path.join(out, "mc.csv"), times, mean, stderr, R, N, seed)
    return {"N": N, "R": R, "phi": phi.name, "exit_code": EXIT_PASS}


# Each runner returns its report's own fields, exit_code among them.
COMMANDS: dict[str, Callable] = {
    "solve": run_solve,
    "simulate": run_simulate,
    "weak-error": run_weak_error,
    "stationary-gap": run_stationary_gap,
    "certify": run_certify,
    "master-check": run_master_check,
    "decay-fit": run_decay_fit,
}


def run_command(command: str, cfg: dict, out: str, seed: int,
                threads: int = 1, force: bool = False) -> int:
    """Run a command, write its report.json and return its exit code.

    The runner is looked up in COMMANDS at call time, so a wrapper put into
    the table (the benchmark's layer tracer does this) still runs.
    """
    fields = COMMANDS[command](cfg, out, seed, threads=threads, force=force)
    write_json(os.path.join(out, "report.json"),
               {**report_envelope(command, cfg, seed), **fields})
    return fields["exit_code"]
