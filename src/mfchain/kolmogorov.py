"""Deterministic mean-field flow: the nonlinear forward equation on the simplex.

The law of the limiting process evolves as the ODE

    d/dt m(t) = m(t) @ alpha(m(t)),        m(0) = mu,

integrated here with the 12-stage 8th-order Runge-Kutta solution of Prince
and Dormand (DOP853 in Hairer-Norsett-Wanner, Solving ODEs I, II.5) at a
fixed step (default 0.02, shortened per recording interval so grid points
are hit exactly).  The step does not depend on the state, so every row of a
batch is integrated on its own and an affine flow is mapped affinely.  Tiny
negative components caused by roundoff are clipped and renormalized under a
strict cumulative budget; anything larger aborts the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainExitError, InputError, SolverError
from .models import Model, rates_and_margin
from .simplex import as_measure, barycenter

DEFAULT_STEP = 0.02
CLIP_FLOOR = -1e-10       # single-component clip tolerance
CLIP_BUDGET = 1e-8        # cumulative clipped mass per trajectory


def make_grid(horizon: float, spacing: float) -> np.ndarray:
    """Uniform recording grid 0, spacing, 2*spacing, ..., <= horizon."""
    if not (0 <= horizon < np.inf and 0 < spacing < np.inf):
        raise InputError(
            f"need a finite horizon >= 0 and spacing > 0, got {horizon}, {spacing}"
        )
    n = int(np.floor(horizon / spacing + 1e-9))
    return spacing * np.arange(n + 1)


@dataclass
class Trajectory:
    """Solution recorded on a grid: states[j] is the measure at times[j]."""

    times: np.ndarray
    states: np.ndarray
    model_name: str = ""


# DOP853 (Prince & Dormand 1981, J. Comput. Appl. Math. 7:67-75): nodes,
# the stage matrix (its strict lower triangle, row by row) and the
# 8th-order weights
_C = [
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0]
_A = np.zeros((12, 12))
_A[np.tril_indices(12, -1)] = [
    0.05260015195876773,
    0.0197250569845379, 0.0591751709536137,
    0.02958758547680685, 0.0, 0.08876275643042054,
    0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
    0.12546768756682242,
    0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
    -0.017578125,
    0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
    0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996,
    0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627,
    -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196,
    2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636,
]
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])


def _terms(weights):
    """(indices, coefficients shaped for a (m, B, n) stage stack) of the
    nonzero weights; a stage input is then one elementwise product and one
    sum over the stack's first axis, row by row and in stage order."""
    idx = np.flatnonzero(weights)
    return idx, weights[idx][:, None, None]


_STAGE_TERMS = [_terms(_A[s]) for s in range(1, len(_C))]
_STEP_TERMS = _terms(_B)


def rk_segments(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    times: np.ndarray,
    step: float,
    postproc: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Batched fixed-step DOP853 recording at every grid time.

    y0: (B, n) flat state rows; returns (B, T, n).  Each recording interval
    is cut into equal substeps of length <= step so grid times are exact.
    A zero-length interval records its start state unchanged.  Times, nodes
    and step lengths are Python floats (IEEE doubles, like numpy's float64,
    but cheaper to combine than numpy scalars).
    """
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise InputError("rk_segments expects a (B, n) state block")
    times = [float(t) for t in times]
    step = float(step)
    T = len(times)
    out = np.empty((y.shape[0], T, y.shape[1]))
    out[:, 0] = y
    K = np.empty((len(_C),) + y.shape)             # the stage derivatives
    for j in range(T - 1):
        t0, span = times[j], times[j + 1] - times[j]
        if span == 0:
            out[:, j + 1] = y
            continue
        nsub = max(1, math.ceil(span / step - 1e-12))
        h = span / nsub
        for i in range(nsub):
            t = t0 + i * h
            K[0] = f(t, y)
            for s, (idx, a) in enumerate(_STAGE_TERMS, start=1):
                K[s] = f(t + _C[s] * h, y + h * (a * K[idx]).sum(axis=0))
            idx, b = _STEP_TERMS
            y = y + h * (b * K[idx]).sum(axis=0)
            if postproc is not None:
                y = postproc(t + h, y)
        out[:, j + 1] = y
    return out


def _make_measure_postproc(model: Model):
    """Clip-and-renormalize with a cumulative budget + region watchdog."""
    clipped = None
    region = model.valid_region

    def watch_region(t, y):
        if not region.contains(y).all():
            raise DomainExitError(
                f"trajectory left the valid region of {model.name!r}"
                f" ({region.description}) at t={t:.6g}",
                time=t,
            )

    def postproc(t, y):
        nonlocal clipped
        if clipped is None:
            clipped = np.zeros(y.shape[0])
        # with every component >= 0 there is nothing to clip and the budget
        # is unchanged, so the checks run only on a negative or NaN entry
        if not y.min() >= 0.0:
            # a region bounded away from the boundary is left before any
            # component turns negative: that is the verdict, not the step
            if region.min_mass > 0:
                watch_region(t, y)
            if (y < CLIP_FLOOR).any():
                raise SolverError(
                    f"component below {CLIP_FLOOR} at t={t:.6g}; reduce the step"
                )
            neg = np.minimum(y, 0.0)
            clipped += -neg.sum(axis=1)
            if (clipped > CLIP_BUDGET).any():
                raise SolverError(
                    f"cumulative clipped mass exceeded {CLIP_BUDGET} at t={t:.6g}"
                )
        y = np.maximum(y, 0.0)
        y /= y.sum(axis=1, keepdims=True)
        watch_region(t, y)
        return y

    return postproc


def solve_flow(
    model: Model,
    mu0s,
    times,
    step: float = DEFAULT_STEP,
    Q0=None,
    source: Optional[Callable[[float], np.ndarray]] = None,
):
    """Batched fixed-step flow solve, optionally co-integrating tangent rows.

    mu0s: (B, d) initial measures; Q0: (B, k, d) initial zero-sum tangent
    rows, or None for k = 0; source: t -> array broadcastable to (B, k, d),
    added to the tangent equation.  Returns (states (B, T, d), tangents
    (B, T, k, d)).  The tangents follow q -> q @ A(m) with the linearization
    matrix rebuilt from the in-stage measure, so they see the same order of
    accuracy as the base flow.  `times` must be non-decreasing; equal
    neighbours record the same state twice.
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times))
            or times[0] < 0 or np.any(np.diff(times) < 0)):
        raise InputError(
            "recording grid must be a non-empty finite non-decreasing 1-d"
            " array of times >= 0"
        )
    if not 0 < step < np.inf:
        raise InputError(f"need a finite step > 0, got {step}")
    mu0s = np.atleast_2d(np.asarray(mu0s, dtype=float))
    B, d = mu0s.shape
    Q0 = np.zeros((B, 0, d)) if Q0 is None else np.asarray(Q0, dtype=float)
    k = Q0.shape[-2]
    model.require_valid(mu0s)
    measure_post = _make_measure_postproc(model)

    def drift(t, m):
        return np.einsum("bx,bxy->by", m, model.rates(m))

    if k == 0:
        states = rk_segments(drift, mu0s, times, step, measure_post)
        return states, np.zeros((B, len(times), 0, d))

    # the RHS block: drift in the first d columns, the k tangent rows after;
    # rk_segments copies it into its stage stack, so one buffer serves all
    dY = np.empty((B, d + k * d))
    dQ = dY[:, d:].reshape(B, k, d)

    def f(t, Y):
        m = Y[:, :d]
        R, A = rates_and_margin(model, m)       # one rates call per stage
        # the drift is the same einsum as without tangents, so the states do
        # not depend on the tangent rows; the product is one matmul per row
        dY[:, :d] = np.einsum("bx,bxy->by", m, R)
        np.matmul(Y[:, d:].reshape(B, k, d), A, out=dQ)
        if source is not None:
            np.add(dQ, source(t), out=dQ)
        return dY

    def postproc(t, Y):
        Y[:, :d] = measure_post(t, Y[:, :d])
        # tangent rows stay zero-sum under the exact dynamics (the
        # linearization matrix has zero row sums); re-project so roundoff
        # cannot accumulate in that invariant direction
        Q = Y[:, d:].reshape(B, k, d)
        Q -= Q.mean(axis=-1, keepdims=True)
        return Y

    Y0 = np.concatenate([mu0s, Q0.reshape(B, k * d)], axis=1)
    out = rk_segments(f, Y0, times, step, postproc)
    return out[:, :, :d], out[:, :, d:].reshape(B, len(times), k, d)


def solve_kolmogorov(
    model: Model, mu0, times, step: float = DEFAULT_STEP
) -> Trajectory:
    """Solve the nonlinear forward equation, recording on `times`."""
    times = np.asarray(times, dtype=float)
    mu0 = as_measure(mu0)
    states = solve_flow(model, mu0[None, :], times, step)[0][0]
    return Trajectory(times=times, states=states, model_name=model.name)


def flow_map(model: Model, t: float, mu0, step: float = DEFAULT_STEP) -> np.ndarray:
    """The time-t flow m(t; mu0) as a single measure."""
    mu0 = as_measure(mu0)
    return solve_flow(model, mu0[None, :], np.array([0.0, t]), step)[0][0, -1]


# ---------------------------------------------------------------------------
# stationary search: integrate until the drift is small, then Newton-polish


def stationary_distribution(
    model: Model,
    mu0=None,
    tol: float = 1e-10,
    step: float = DEFAULT_STEP,
    max_time: float = 200.0,
    max_newton: int = 200,
):
    """Find nu with |nu @ alpha(nu)|_1 <= 10 * tol near the flow from mu0.

    Phase 1 marches the flow in spans of one time unit until the drift norm
    drops below max(1e-3, tol) or max_time is exhausted.  Phase 2 runs a
    damped Newton iteration on G(nu) = nu @ alpha(nu) restricted to the
    zero-sum subspace (the plain damped fixed-point update stalls when the
    linearization is neutral, e.g. at a cubic-degenerate rest point, while
    Newton still contracts with factor 2/3 there).

    Returns (nu, info) where info records march/polish diagnostics.
    Raises SolverError if the final residual exceeds 10 * tol.
    """
    nu = barycenter(model.d) if mu0 is None else as_measure(mu0)
    model.require_valid(nu)

    def resid(v):
        return float(np.abs(v @ model.rates(v)).sum())

    info: dict = {"march_time": 0.0, "note": ""}
    trigger = max(1e-3, tol)
    t = 0.0
    r = resid(nu)
    while r > trigger and t < max_time:
        span = min(1.0, max_time - t)
        nu = solve_flow(model, nu[None, :], np.array([0.0, span]), step)[0][0, -1]
        t += span
        r = resid(nu)
    info["march_time"] = t
    info["march_residual"] = r
    if r > trigger:
        info["note"] = (
            "march hit max_time before the residual trigger; polishing anyway"
        )

    iters = 0
    while r > tol and iters < max_newton:
        R, A = rates_and_margin(model, nu)
        G = nu @ R
        q = -G @ np.linalg.pinv(A)
        q = q - q.mean()                    # keep the update zero-sum
        gamma, accepted = 1.0, False
        while gamma > 1e-12:
            cand = nu + gamma * q
            if np.all(cand >= 0) and np.all(model.valid_region.contains(cand)):
                cand = cand / cand.sum()
                r_cand = resid(cand)
                if r_cand <= (1.0 - gamma / 4.0) * r:
                    nu, r, accepted = cand, r_cand, True
                    break
            gamma *= 0.5
        iters += 1
        if not accepted:
            break

    info["newton_iterations"] = iters
    info["residual"] = r
    info["converged"] = bool(r <= 10.0 * tol)
    if not info["converged"]:
        raise SolverError(
            f"stationary search stalled at residual {r:.3e} (target {10 * tol:.1e})"
            f" for model {model.name!r}"
        )
    return nu, info
