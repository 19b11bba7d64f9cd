"""Deterministic mean-field flow: the nonlinear forward equation on the simplex.

The law of the limiting process evolves as the ODE

    d/dt m(t) = m(t) @ alpha(m(t)),        m(0) = mu,

integrated here with a fixed-step classical RK4 scheme (default step 1e-3,
shortened per recording interval so grid points are hit exactly).  Tiny
negative components caused by roundoff are clipped and renormalized under a
strict cumulative budget; anything larger aborts the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .models import Model, margin_matrix
from .simplex import as_measure, barycenter

DEFAULT_STEP = 1e-3
CLIP_FLOOR = -1e-10       # single-component clip tolerance
CLIP_BUDGET = 1e-8        # cumulative clipped mass per trajectory


class IntegrationError(RuntimeError):
    """The integrator's accuracy safeguards were violated."""


class DomainExitError(RuntimeError):
    """A trajectory left the model's validity region."""

    def __init__(self, msg: str, time: float):
        super().__init__(msg)
        self.time = time


class StationaryNotFound(RuntimeError):
    """The stationary search did not reach the requested residual."""


def make_grid(horizon: float, spacing: float) -> np.ndarray:
    """Uniform recording grid 0, spacing, 2*spacing, ..., <= horizon."""
    if horizon < 0 or spacing <= 0:
        raise ValueError("need horizon >= 0 and spacing > 0")
    n = int(np.floor(horizon / spacing + 1e-9))
    return spacing * np.arange(n + 1)


def validate_grid(times, require_zero_start: bool = True) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("recording grid must be a non-empty finite 1-d array")
    if np.any(np.diff(times) <= 0):
        raise ValueError("recording grid must be strictly increasing")
    if times[0] < 0 or (require_zero_start and times[0] != 0.0):
        raise ValueError("recording grid must start at t = 0")
    return times


@dataclass
class Trajectory:
    """Solution recorded on a grid: states[j] is the measure at times[j]."""

    times: np.ndarray
    states: np.ndarray
    model_name: str = ""


def rk4_segments(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    times: np.ndarray,
    step: float,
    postproc: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Batched fixed-step RK4 recording at every grid time.

    y0: (B, n) flat state rows; returns (B, T, n).  Each recording interval
    is cut into equal substeps of length <= step so grid times are exact.
    A zero-length interval records its start state unchanged.
    """
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise ValueError("rk4_segments expects a (B, n) state block")
    T = len(times)
    out = np.empty((y.shape[0], T, y.shape[1]))
    out[:, 0] = y
    for j in range(T - 1):
        t0, span = times[j], times[j + 1] - times[j]
        if span == 0:
            out[:, j + 1] = y
            continue
        nsub = max(1, int(np.ceil(span / step - 1e-12)))
        h = span / nsub
        for i in range(nsub):
            t = t0 + i * h
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
            k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if postproc is not None:
                y = postproc(t + h, y)
        out[:, j + 1] = y
    return out


def _make_measure_postproc(model: Model):
    """Clip-and-renormalize with a cumulative budget + region watchdog."""
    clipped = None

    def postproc(t, y):
        nonlocal clipped
        if clipped is None:
            clipped = np.zeros(y.shape[0])
        if np.any(y < CLIP_FLOOR):
            raise IntegrationError(
                f"component below {CLIP_FLOOR} at t={t:.6g}; reduce the step"
            )
        neg = np.minimum(y, 0.0)
        clipped += -neg.sum(axis=1)
        if np.any(clipped > CLIP_BUDGET):
            raise IntegrationError(
                f"cumulative clipped mass exceeded {CLIP_BUDGET} at t={t:.6g}"
            )
        y = np.maximum(y, 0.0)
        y /= y.sum(axis=1, keepdims=True)
        if not np.all(model.valid_region.contains(y)):
            raise DomainExitError(
                f"trajectory left the valid region of {model.name!r}"
                f" at t={t:.6g}",
                time=t,
            )
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
    """Batched RK4 on the flow, optionally co-integrating tangent rows.

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
            or np.any(np.diff(times) < 0)):
        raise ValueError(
            "recording grid must be a non-empty finite non-decreasing 1-d array"
        )
    mu0s = np.atleast_2d(np.asarray(mu0s, dtype=float))
    B, d = mu0s.shape
    Q0 = np.zeros((B, 0, d)) if Q0 is None else np.asarray(Q0, dtype=float)
    k = Q0.shape[-2]
    model.require_valid(mu0s)
    measure_post = _make_measure_postproc(model)

    def f(t, Y):
        m = Y[:, :d]
        dm = np.einsum("bx,bxy->by", m, model.rates(m))
        if k == 0:
            return dm
        Q = Y[:, d:].reshape(B, k, d)
        dQ = np.einsum("bkz,bzy->bky", Q, margin_matrix(model, m))
        if source is not None:
            dQ = dQ + source(t)
        return np.concatenate([dm, dQ.reshape(B, k * d)], axis=1)

    def postproc(t, Y):
        m = measure_post(t, Y[:, :d])
        if k == 0:
            return m
        # tangent rows stay zero-sum under the exact dynamics (the
        # linearization matrix has zero row sums); re-project so roundoff
        # cannot accumulate in that invariant direction
        Q = Y[:, d:].reshape(B, k, d)
        Q = Q - Q.mean(axis=-1, keepdims=True)
        return np.concatenate([m, Q.reshape(B, k * d)], axis=1)

    Y0 = np.concatenate([mu0s, Q0.reshape(B, k * d)], axis=1)
    out = rk4_segments(f, Y0, times, step, postproc)
    return out[:, :, :d], out[:, :, d:].reshape(B, len(times), k, d)


def solve_kolmogorov(
    model: Model, mu0, times, step: float = DEFAULT_STEP
) -> Trajectory:
    """Solve the nonlinear forward equation, recording on `times`."""
    times = validate_grid(times, require_zero_start=False)
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
    Raises StationaryNotFound if the final residual exceeds 10 * tol.
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
        G = nu @ model.rates(nu)
        A = margin_matrix(model, nu)
        q = -G @ np.linalg.pinv(A)
        q = q - q.mean()                    # keep the update zero-sum
        gamma, accepted = 1.0, False
        while gamma > 1e-12:
            cand = nu + gamma * q
            if np.all(cand >= 0) and np.all(model.valid_region.contains(cand)):
                cand = cand / cand.sum()
                if resid(cand) <= (1.0 - gamma / 4.0) * r:
                    nu, r, accepted = cand, resid(cand), True
                    break
            gamma *= 0.5
        iters += 1
        if not accepted:
            break

    info["newton_iterations"] = iters
    info["residual"] = r
    info["converged"] = bool(r <= 10.0 * tol)
    if not info["converged"]:
        raise StationaryNotFound(
            f"stationary search stalled at residual {r:.3e} (target {10 * tol:.1e})"
            f" for model {model.name!r}"
        )
    return nu, info
