"""Linearization of the mean-field flow and exponential-ergodicity certificates.

Around a solution eta(t) of the nonlinear forward equation, a zero-sum
perturbation q(t) evolves by the linear equation

    d/dt q = L_eta q + r(t),
    (L_eta q)_y = sum_z q_z [ alpha_zy(eta) + sum_x eta_x d alpha_xy/dm(eta, z) ],

i.e. q -> q @ A(eta) with A = models.margin_matrix.  kolmogorov.solve_flow
integrates it along the flow (tangent rows Q0, source term r).  The
equation is linear, so each DOP853 substep is an affine map q -> q @ M + e:
solve_flow runs the measure flow alone, builds the step propagators (M, e)
from one rates_and_margin call per block of substeps, and then advances the
tangent rows by one matrix product per substep.  The flow derivative
dm/dmu (t, mu, z) is the solution with q0 = delta_z - mu and no source,
m1(model, t, mu, dirac(d, z)).

Two checkable sufficient conditions for uniform exponential decay of q (a
"pass" is a proof, so only declared constants pass; sampled constants or a
lattice scan can refute a condition, "fail", but never certify it):

  1. small interaction: K < L/d, where K is the L1 Lipschitz constant of
     alpha (max-row-sum norm) and L a uniform lower bound on off-diagonal
     rates;
  2. positivity of the off-diagonal entries of A(mu) for every mu.

The checks return their report records as plain dicts, which the harness
writes as they are: check_condition1 and check_condition2 the certificate
record {"condition", "verdict" ("pass" | "fail" | "inconclusive"),
"margin", "witness", "resolution", "estimated_constants",
"certification", "notes"}, and estimate_decay the decay record.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import rng
from .errors import InputError, check_count
from .kolmogorov import DEFAULT_STEP, make_grid, solve_flow
from .models import (MARGIN_ROWS, MAX_PAIRS, Model, estimate_lipschitz,
                     margin_matrix)
from .simplex import (as_measure, barycenter, check_lattice, dirac,
                      simplex_lattice)


def m1(model: Model, t: float, mu, nu, step: float = DEFAULT_STEP) -> np.ndarray:
    """First-order flow response: d/de m(t; mu + e (nu - mu)) at e = 0."""
    mu = as_measure(mu)
    nu = as_measure(nu)
    _, tangents = solve_flow(
        model, mu[None, :], np.array([0.0, t]), step, Q0=(nu - mu)[None, None, :]
    )
    return tangents[0, -1, 0]


# ---------------------------------------------------------------------------
# decay-rate estimation


def _fit_window(horizon: float, spacing: float) -> tuple:
    """(grid, tail mask) of a decay fit: the grid 0, spacing, ... <= horizon
    and its last half in time, widened to the last two points when the half
    holds fewer.  A fit needs two points, so horizon < spacing is refused."""
    times = make_grid(horizon, spacing)
    if len(times) < 2:
        raise InputError(
            f"decay fit needs horizon >= spacing, got {horizon} < {spacing}"
        )
    tail = times >= times[-1] / 2.0
    if tail.sum() < 2:
        tail[-2:] = True
    return times, tail


def _decay_rate(times, curve) -> float:
    """Minus the least-squares slope of log(curve) on times."""
    return -np.polyfit(times, np.log(np.maximum(curve, 1e-300)), 1)[0]


def _probe_floor(model: Model) -> float:
    """Smallest mass of a random probe measure, inside the valid region."""
    return max(0.01, model.valid_region.min_mass + 0.005)


def estimate_decay(
    model: Model,
    horizon: float = 20.0,
    spacing: float = 0.25,
    n_random: int = 8,
    seed: int = 0,
    step: float = DEFAULT_STEP,
) -> dict:
    """Empirical exponential decay rate of the linearized flow, as the
    decay record of a report.

    Integrates a full tangent frame (q0 = delta_z - mu for every z) from the
    barycenter, small perturbations of it toward each vertex, and random
    interior measures; fits log |q(t)|_1 over the last half of the recording
    grid by least squares.  Returns {"lambda": the smallest per-sample rate,
    "c2": max |q(t)|_1 exp(lambda t) over everything, "per_sample_rates",
    "flagged": True when lambda <= 0 (no exponential decay observed),
    "horizon", "note"}.  The horizon is the grid's last time, which may fall
    short of the horizon argument by less than one spacing.
    """
    n_random = check_count(n_random, "n_random", 0)
    d = model.d
    floor = _probe_floor(model)
    samples = [barycenter(d)]
    for z in range(d):
        samples.append(barycenter(d) + 0.02 * (dirac(d, z) - barycenter(d)))
    if n_random > 0:
        samples.extend(rng.random_measures(seed, n_random, d, floor=floor))
    mus = np.asarray(samples)
    B = len(mus)
    times, tail = _fit_window(horizon, spacing)
    _, tangents = solve_flow(
        model, mus, times, step, Q0=np.eye(d) - mus[:, None, :]
    )
    norms = np.abs(tangents).sum(axis=-1)          # (B, T, d) row L1 norms
    agg = norms.max(axis=-1)                       # worst direction per time

    # once a curve has fallen ~12 digits below its start it is roundoff, not
    # dynamics (integration noise in invariant directions plateaus there);
    # keep such points out of the fit window and the c2 scan
    valid = agg > agg[:, :1] * 1e-12
    rates = np.empty(B)
    c2 = 0.0
    for b in range(B):
        sel = tail & valid[b]
        if sel.sum() < 3:
            vt = times[valid[b]]
            sel = valid[b] & (times >= vt[-1] / 2.0)
        if sel.sum() < 2:
            sel = np.arange(len(times)) < 2
        rates[b] = _decay_rate(times[sel], agg[b, sel])
    rate = float(rates.min())
    for b in range(B):
        grow = norms[b, valid[b]] * np.exp(rate * times[valid[b]])[:, None]
        c2 = max(c2, float(grow.max()))
    flagged = not rate > 0.0
    note = "" if not flagged else "no exponential decay on the probe set"
    return {"lambda": rate, "c2": c2, "per_sample_rates": rates,
            "flagged": flagged, "horizon": float(times[-1]), "note": note}


def nonlinear_contraction_rate(
    model: Model,
    horizon: float = 10.0,
    spacing: float = 0.25,
    n_pairs: int = 6,
    seed: int = 0,
    step: float = DEFAULT_STEP,
) -> float:
    """Decay rate of |m(t; mu) - m(t; nu)|_1 fitted over random pairs.

    The nonlinear counterpart of estimate_decay: the slowest tail-fit rate
    over sampled initial pairs, fitted over the same window (the last half
    of the recording grid, at least two points).  Under exponential
    ergodicity the two agree.
    """
    n_pairs = check_count(n_pairs, "n_pairs")
    floor = _probe_floor(model)
    mus = rng.random_measures(seed, n_pairs, model.d, floor=floor)
    nus = rng.random_measures(seed, n_pairs, model.d, floor=floor, rep=1)
    times, tail = _fit_window(horizon, spacing)
    a = solve_flow(model, mus, times, step)[0]
    b = solve_flow(model, nus, times, step)[0]
    dist = np.abs(a - b).sum(axis=2)
    return float(np.min([_decay_rate(times[tail], dist[i, tail])
                         for i in range(n_pairs)]))


# ---------------------------------------------------------------------------
# certificates


def check_condition1(
    model: Model, n_pairs: int = 10_000, seed: int = 0
) -> dict:
    """Small-interaction certificate: K < L / d, as a certificate record
    (see the module docstring) with null witness and resolution.

    A K or L the model does not declare is sampled from n_pairs pairs or
    measures (an integer, 1..MAX_PAIRS), MARGIN_ROWS at a time.  A sampled K
    is a maximum over pairs and a sampled L a minimum over measures, so the
    sampled margin L/d - K can only be too large: <= 0 is a sound "fail",
    > 0 only "inconclusive".  Only declared K and L can "pass"."""
    n_pairs = check_count(n_pairs, "n_pairs", 1, MAX_PAIRS)
    notes = []
    K = model.K
    if K is None:
        K = estimate_lipschitz(model, n_pairs=n_pairs, seed=seed)
        notes.append(f"K estimated from {n_pairs} sampled pairs")
    L = model.L
    if L is None:
        floor = max(0.0, model.valid_region.min_mass)
        offmask = ~np.eye(model.d, dtype=bool)
        minima = []
        for lo in range(0, n_pairs, MARGIN_ROWS):
            mus = rng.random_measures(seed, min(MARGIN_ROWS, n_pairs - lo),
                                      model.d, floor=floor, start=lo)
            minima.append(model.rates(mus)[:, offmask].min())
        L = float(np.min(minima))           # the minimum over blocks is exact
        notes.append(f"L estimated from {n_pairs} sampled measures")
    margin = L / model.d - K
    verdict = "fail" if margin <= 0 else "inconclusive" if notes else "pass"
    return {
        "condition": 1,
        "verdict": verdict,
        "margin": float(margin),
        "witness": None,
        "resolution": None,
        "estimated_constants": {"L": float(L), "K": float(K)},
        "certification": "sampled" if notes else "declared-constants",
        "notes": "; ".join(notes),
    }


def default_resolution(d: int) -> int:
    """Condition 2's lattice resolution unless one is given: 50 for d <= 3,
    else 15."""
    return 50 if d <= 3 else 15


def check_condition2(model: Model, resolution: Optional[int] = None) -> dict:
    """Positivity of the linearization's off-diagonal entries on a lattice.

    Scans the simplex lattice (default_resolution(d) unless given; refused
    when non-integral or above MAX_LATTICE points) in lexicographic order
    and keeps the first strictly-smallest margin as witness.  A negative
    minimum is a counterexample to condition 2: "fail".  Nothing bounds A
    between lattice points, so any other minimum is "inconclusive".  The
    notes name the lattice minimum and the number of points it is over.
    """
    d = model.d
    res = default_resolution(d) if resolution is None else resolution
    check_lattice(res, d)
    lattice = simplex_lattice(d, res)
    inside = model.valid_region.contains(lattice)
    lattice = lattice[inside]
    if len(lattice) == 0:
        raise InputError("no lattice points inside the model's valid region")

    offmask = ~np.eye(d, dtype=bool)
    offs_all = np.concatenate([                         # (n, d*(d-1)) row-major
        margin_matrix(model, lattice[lo : lo + MARGIN_ROWS])[:, offmask]
        for lo in range(0, len(lattice), MARGIN_ROWS)
    ])
    # the first minimum in row-major order: the first point in lattice order
    # with the smallest margin, and its first (x, y) pair
    i, j = divmod(int(np.argmin(offs_all)), offs_all.shape[1])
    best = float(offs_all[i, j])
    best_mu = lattice[i]
    xs, ys = np.nonzero(offmask)
    x, y = int(xs[j]), int(ys[j])
    return {
        "condition": 2,
        "verdict": "fail" if best < 0 else "inconclusive",
        "margin": float(best),
        "witness": {"mu": [float(v) for v in best_mu], "x": x + 1, "y": y + 1},
        "resolution": int(res),
        "estimated_constants": {},
        "certification": "grid-scan",
        "notes": f"lattice minimum over {len(lattice)} points",
    }
