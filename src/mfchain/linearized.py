"""Linearization of the mean-field flow and exponential-ergodicity certificates.

Around a solution eta(t) of the nonlinear forward equation, a zero-sum
perturbation q(t) evolves by the linear equation

    d/dt q = L_eta q + r(t),
    (L_eta q)_y = sum_z q_z [ alpha_zy(eta) + sum_x eta_x d alpha_xy/dm(eta, z) ],

i.e. q -> q @ A(eta) with the matrix A below.  The flow derivative
dm/dmu (t, mu, z) is the solution with q0 = delta_z - mu and no source.

Two checkable sufficient conditions for uniform exponential decay of q:

  1. small interaction: K < L/d, where K is the L1 Lipschitz constant of
     alpha (max-row-sum norm) and L a uniform lower bound on off-diagonal
     rates;
  2. positivity of the off-diagonal entries of A(mu) for every mu, checked
     on a simplex lattice ("grid-certified").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import InputError
from .kolmogorov import DEFAULT_STEP, make_grid, solve_flow
from .models import Model, estimate_lipschitz, margin_matrix
from .simplex import as_measure, as_tangent, barycenter, dirac, simplex_lattice


def apply_L(model: Model, eta, q) -> np.ndarray:
    """Linearized generator at the frozen measure eta applied to tangent q."""
    eta = np.asarray(eta, dtype=float)
    q = np.asarray(q, dtype=float)
    return q @ margin_matrix(model, eta)


@dataclass
class TangentPath:
    """Co-integrated base flow and tangent block on a recording grid.

    states[j] is the base measure at times[j]; tangents[j] has shape (k, d)
    (or (d,) when a single tangent was requested).
    """

    times: np.ndarray
    states: np.ndarray
    tangents: np.ndarray
    model_name: str = ""


def solve_linear_cauchy(
    model: Model,
    mu0,
    q0,
    times,
    step: float = DEFAULT_STEP,
    source: Optional[Callable[[float], np.ndarray]] = None,
) -> TangentPath:
    """Solve dq/dt = L_{m(t)} q + r(t) along the flow started at mu0.

    q0 may be a single zero-sum row (d,) or a stack (k, d); `source`, if
    given, is a callable t -> matching zero-sum shape.
    """
    mu0 = as_measure(mu0)
    q0 = np.asarray(q0, dtype=float)
    single = q0.ndim == 1
    Q0 = q0[None, :] if single else q0
    for row in Q0:
        as_tangent(row)
    states, tangents = solve_flow(
        model, mu0[None, :], times, step, Q0=Q0[None, :, :], source=source
    )
    tang = tangents[0, :, 0, :] if single else tangents[0]
    return TangentPath(
        times=np.asarray(times, dtype=float),
        states=states[0],
        tangents=tang,
        model_name=model.name,
    )


def m1(model: Model, t: float, mu, nu, step: float = DEFAULT_STEP) -> np.ndarray:
    """First-order flow response: d/de m(t; mu + e (nu - mu)) at e = 0."""
    mu = as_measure(mu)
    nu = as_measure(nu)
    path = solve_linear_cauchy(model, mu, nu - mu, np.array([0.0, t]), step)
    return path.tangents[-1]


def dm_dmeasure(
    model: Model, t: float, mu, z: int, step: float = DEFAULT_STEP
) -> np.ndarray:
    """Measure derivative of the flow toward delta_z (one direction)."""
    return m1(model, t, mu, dirac(len(np.asarray(mu)), z), step)


def dm_dmeasure_all(
    model: Model, t: float, mu, step: float = DEFAULT_STEP
) -> np.ndarray:
    """All directions at once: rows J[z] = dm/dmu (t, mu, z)."""
    mu = as_measure(mu)
    Q0 = np.eye(len(mu)) - mu[None, :]
    _, tangents = solve_flow(
        model, mu[None, :], np.array([0.0, t]), step, Q0=Q0[None, :, :]
    )
    return tangents[0, -1]


# ---------------------------------------------------------------------------
# decay-rate estimation


@dataclass
class DecayEstimate:
    rate: float                 # lambda-hat: smallest per-sample decay rate
    c2: float                   # max |q(t)|_1 * exp(rate * t) over everything
    per_sample_rates: np.ndarray
    flagged: bool               # True when no exponential decay was observed
    horizon: float              # last time of the fit grid
    n_samples: int
    note: str = ""


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


def estimate_decay(
    model: Model,
    horizon: float = 20.0,
    spacing: float = 0.25,
    n_random: int = 8,
    seed: int = 0,
    step: float = DEFAULT_STEP,
) -> DecayEstimate:
    """Empirical exponential decay rate of the linearized flow.

    Integrates a full tangent frame (q0 = delta_z - mu for every z) from the
    barycenter, small perturbations of it toward each vertex, and random
    interior measures; fits log |q(t)|_1 over the last half of the recording
    grid by least squares.  rate <= 0 is reported with flagged=True.  The
    reported horizon is the grid's last time, which may fall short of the
    horizon argument by less than one spacing.
    """
    if n_random < 0:
        raise InputError(f"need n_random >= 0 random probes, got {n_random}")
    d = model.d
    floor = max(0.01, model.valid_region.min_mass + 0.005)
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
        y = np.log(np.maximum(agg[b, sel], 1e-300))
        slope = np.polyfit(times[sel], y, 1)[0]
        rates[b] = -slope
    rate = float(rates.min())
    for b in range(B):
        grow = norms[b, valid[b]] * np.exp(rate * times[valid[b]])[:, None]
        c2 = max(c2, float(grow.max()))
    flagged = not rate > 0.0
    note = "" if not flagged else "no exponential decay on the probe set"
    return DecayEstimate(
        rate=rate,
        c2=c2,
        per_sample_rates=rates,
        flagged=flagged,
        horizon=float(times[-1]),
        n_samples=B,
        note=note,
    )


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
    floor = max(0.01, model.valid_region.min_mass + 0.005)
    mus = rng.random_measures(seed, n_pairs, model.d, floor=floor)
    nus = rng.random_measures(seed, n_pairs, model.d, floor=floor, rep=1)
    times, tail = _fit_window(horizon, spacing)
    a = solve_flow(model, mus, times, step)[0]
    b = solve_flow(model, nus, times, step)[0]
    dist = np.abs(a - b).sum(axis=2)
    tt = times[tail]
    rates = [
        -np.polyfit(tt, np.log(np.maximum(dist[i, tail], 1e-300)), 1)[0]
        for i in range(n_pairs)
    ]
    return float(np.min(rates))


# ---------------------------------------------------------------------------
# certificates


@dataclass
class ErgodicityReport:
    condition: int
    verdict: str                # "pass" | "fail" | "inconclusive"
    margin: float
    witness: Optional[dict] = None
    resolution: Optional[int] = None
    estimated_constants: dict = field(default_factory=dict)
    certification: str = ""
    notes: str = ""

    def to_json_dict(self) -> dict:
        ec = {
            k: (None if self.estimated_constants.get(k) is None
                else float(self.estimated_constants[k]))
            for k in ("L", "K", "lambda", "c2")
        }
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "margin": float(self.margin),
            "witness": self.witness,
            "resolution": self.resolution,
            "estimated_constants": ec,
            "certification": self.certification,
            "notes": self.notes,
        }


def check_condition1(
    model: Model, n_pairs: int = 10_000, seed: int = 0
) -> ErgodicityReport:
    """Small-interaction certificate: K < L / d."""
    if n_pairs < 1:
        raise InputError(f"need n_pairs >= 1, got {n_pairs}")
    notes = []
    K = model.K
    if K is None:
        K = estimate_lipschitz(model, n_pairs=n_pairs, seed=seed)
        notes.append(f"K estimated from {n_pairs} sampled pairs")
    L = model.L
    if L is None:
        floor = max(0.0, model.valid_region.min_mass)
        mus = rng.random_measures(seed, n_pairs, model.d, floor=floor)
        A = model.rates(mus)
        off = A[:, ~np.eye(model.d, dtype=bool)]
        L = float(off.min())
        notes.append(f"L estimated from {n_pairs} sampled measures")
    margin = L / model.d - K
    verdict = "pass" if margin > 0 else "fail"
    return ErgodicityReport(
        condition=1,
        verdict=verdict,
        margin=float(margin),
        estimated_constants={"L": float(L), "K": float(K)},
        certification="sampled" if notes else "declared-constants",
        notes="; ".join(notes),
    )


MARGIN_BATCH = 4096       # lattice points per margin_matrix call


def default_resolution(d: int) -> int:
    return 50 if d <= 3 else 15


def check_condition2(
    model: Model, resolution: Optional[int] = None
) -> ErgodicityReport:
    """Positivity of the linearization's off-diagonal entries on a lattice.

    Scans the simplex lattice in lexicographic order and keeps the first
    strictly-smallest margin as witness.  verdict: "pass" (grid-certified)
    when the minimum is > 0, "fail" when < 0, "inconclusive" at exactly 0.
    """
    d = model.d
    res = default_resolution(d) if resolution is None else int(resolution)
    lattice = simplex_lattice(d, res)
    inside = model.valid_region.contains(lattice)
    lattice = lattice[inside]
    if len(lattice) == 0:
        raise InputError("no lattice points inside the model's valid region")

    offmask = ~np.eye(d, dtype=bool)
    offs_all = np.concatenate([                         # (n, d*(d-1)) row-major
        margin_matrix(model, lattice[lo : lo + MARGIN_BATCH])[:, offmask]
        for lo in range(0, len(lattice), MARGIN_BATCH)
    ])
    # the first minimum in row-major order: the first point in lattice order
    # with the smallest margin, and its first (x, y) pair
    i, j = divmod(int(np.argmin(offs_all)), offs_all.shape[1])
    best = float(offs_all[i, j])
    best_mu = lattice[i]
    xs, ys = np.nonzero(offmask)
    x, y = int(xs[j]), int(ys[j])
    if best > 0:
        verdict = "pass"
    elif best < 0:
        verdict = "fail"
    else:
        verdict = "inconclusive"

    # crude continuity slack: worst margin change between lattice neighbours
    key = {tuple(np.round(mu * res).astype(int)): i for i, mu in enumerate(lattice)}
    mod = 0.0
    for cnt, i in key.items():
        for a in range(d):
            arr = list(cnt)
            if arr[a] == 0:
                continue
            arr[a] -= 1
            arr[(a + 1) % d] += 1
            j = key.get(tuple(arr))
            if j is not None:
                diff = float(np.max(np.abs(offs_all[i] - offs_all[j])))
                mod = max(mod, diff * res / 2.0)        # per unit L1 distance
    notes = (
        f"lattice minimum over {len(lattice)} points;"
        f" sampled margin modulus ~ {mod:.4g} per unit L1 step"
    )
    return ErgodicityReport(
        condition=2,
        verdict=verdict,
        margin=float(best),
        witness={
            "mu": [float(v) for v in best_mu],
            "x": x + 1,
            "y": y + 1,
        },
        resolution=res,
        estimated_constants={},
        certification="grid-certified" if verdict == "pass" else "grid-scan",
        notes=notes,
    )
