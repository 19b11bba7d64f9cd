"""Propagated observables U(t, mu) = phi(m(t; mu)) and their calculus.

U solves the backward transport equation

    d/dt U(t, mu) = sum_z  dU/dm(t, mu, z) * (mu @ alpha(mu))_z

whose right side only involves the measure derivative of U in the drift
direction.  This module evaluates U, its measure derivative (via the
co-integrated tangent flow), the defect of the equation above under finite
differencing in t (the "master residual"), and the second-order remainder
tau of a single-particle jump expansion of U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainExitError, InputError
from .kolmogorov import DEFAULT_STEP, solve_flow
from .models import Model
from .simplex import (
    ScalarField,
    as_measure,
    functional_derivative_all,
    simpson_weights,
)

DT_STENCIL = 1e-4


@dataclass(frozen=True)
class PropagatedObservable:
    """phi evaluated along the mean-field flow: U(t, mu) = phi(m(t; mu))."""

    model: Model
    phi: ScalarField
    step: float = DEFAULT_STEP


def eval_U(obs: PropagatedObservable, t: float, mu) -> float:
    return float(eval_U_many(obs, t, as_measure(mu)[None, :])[0])


def eval_U_many(obs: PropagatedObservable, t: float, mus) -> np.ndarray:
    """U(t, mu_b) for a batch of initial measures (one batched flow solve)."""
    states, _ = solve_flow(obs.model, mus, np.array([0.0, t]), obs.step)
    return obs.phi(states[:, -1])


def dU_dmeasure_all(obs: PropagatedObservable, t: float, mu) -> np.ndarray:
    """Vector of measure derivatives dU/dm(t, mu, z) for all z.

    Chain rule through the flow: the z-th component is the inner product of
    the functional derivative of phi at m(t; mu) with the flow derivative
    dm/dmu(t, mu, z).  Rows of the flow derivative are zero-sum, so the
    normalization constant of phi's derivative drops out automatically.
    """
    mu = as_measure(mu)
    states, tangents = solve_flow(
        obs.model, mu[None, :], np.array([0.0, t]), obs.step,
        Q0=(np.eye(len(mu)) - mu[None, :])[None, :, :],
    )
    return tangents[0, -1] @ functional_derivative_all(obs.phi, states[0, -1])


def dU_dmeasure(obs: PropagatedObservable, t: float, mu, z: int) -> float:
    return float(dU_dmeasure_all(obs, t, mu)[z])


def master_residual(
    obs: PropagatedObservable, t: float, mu, dt: float = DT_STENCIL
) -> float:
    """Defect d/dt U - dU/dm . drift at (t, mu), with Richardson-extrapolated
    central differencing of width dt in the time argument.  Needs t > dt."""
    return master_residual_scan(obs, [(t, mu)], dt=dt)[0]


def master_residual_scan(
    obs: PropagatedObservable, cases, dt: float = DT_STENCIL
) -> np.ndarray:
    """Residuals for many (t, mu) cases with two batched solves in total.

    Phase 1 solves every case from its mu, with the tangent frame
    Q0 = I - mu, on the grid {0} and each case's t - dt, and keeps row b's
    state and frame at its own t_b - dt.  Phase 2 continues every row from
    that state, with that frame as Q0, over the shared grid dt/2 * (0..4):
    four steps that give m(t_b + o; mu_b) at the stencil offsets
    o = -dt, -dt/2, 0, dt/2, dt, and the flow derivative at t_b.  The
    restart is exact: the flow is autonomous, so restarting from
    m(t_b - dt; mu_b) follows the same flow, and the tangent equation is
    linear in its rows, so carrying the frame at t_b - dt along gives its
    product with the derivative of the continued flow (the chain rule).
    No row steps through another case's stencil.
    """
    if len(cases) == 0:
        raise InputError("master residual scan needs at least one case")
    if not 0 < dt < np.inf:
        raise InputError(
            f"master residual stencil width dt must be finite and > 0, got {dt}"
        )
    ts = np.array([float(c[0]) for c in cases])
    mus = np.array([as_measure(c[1]) for c in cases])
    if np.any(ts <= dt):
        raise InputError(f"master residual stencil needs t > {dt}")
    B, d = mus.shape
    rows = np.arange(B)

    starts = np.unique(np.concatenate([[0.0], ts - dt]))
    states, tangents = solve_flow(
        obs.model, mus, starts, obs.step, Q0=np.eye(d) - mus[:, None, :]
    )
    col = np.searchsorted(starts, ts - dt)
    try:
        states, tangents = solve_flow(
            obs.model, states[rows, col], dt / 2.0 * np.arange(5), obs.step,
            Q0=tangents[rows, col],
        )
    except DomainExitError as exc:
        raise DomainExitError(
            f"{exc}, counted from t - dt of the case whose stencil it is in",
            time=exc.time,
        ) from None
    u_m1, u_mh, _, u_ph, u_p1 = obs.phi(states).T              # (5, B)
    D_full = (u_p1 - u_m1) / (2.0 * dt)
    D_half = (u_ph - u_mh) / dt
    dUdt = (4.0 * D_half - D_full) / 3.0
    dphi = functional_derivative_all(obs.phi, states[:, 2])     # (B, d)
    dU = np.einsum("bzy,by->bz", tangents[:, 2], dphi)          # (B, d)
    drift = np.einsum("bx,bxy->by", mus, obs.model.rates(mus))
    return dUdt - np.einsum("bz,bz->b", dU, drift)


def tau_remainder(
    obs: PropagatedObservable,
    s: float,
    config,
    i: int,
    z: int,
    quad_points: int = 9,
) -> float:
    """Second-order remainder of a one-particle jump, via the chord integral.

    For the N-particle configuration `config` (list of 0-based states),
    moving particle i to state z shifts the empirical measure by
    (delta_z - delta_x) / N with x = config[i].  The remainder

        tau = U(s, mu') - U(s, mu) - (1/N) * [dU(s,mu,z) - dU(s,mu,x)]

    equals (1/N) * int_0^1 [ D(mu_theta) - D(mu) ] dtheta with
    D(m) = dU/dm(s, m, z) - dU/dm(s, m, x), integrated here by Simpson's
    rule on `quad_points` nodes along the straight chord mu -> mu'.
    """
    config = np.asarray(config, dtype=int)
    N = len(config)
    d = obs.model.d
    x = int(config[i])
    if not (0 <= z < d and 0 <= x < d):
        raise InputError("state index out of range")
    if x == z:
        return 0.0
    counts = np.bincount(config, minlength=d).astype(float)
    mu = counts / N
    shift = np.zeros(d)
    shift[z] += 1.0 / N
    shift[x] -= 1.0 / N

    if quad_points % 2 == 0:
        quad_points += 1
    thetas = np.linspace(0.0, 1.0, quad_points)
    w = simpson_weights(quad_points)
    nodes = mu[None, :] + thetas[:, None] * shift[None, :]

    states, tangents = solve_flow(
        obs.model, nodes, np.array([0.0, s]), obs.step,
        Q0=np.eye(d) - nodes[:, None, :],
    )
    dphi = functional_derivative_all(obs.phi, states[:, -1])    # (n, d)
    dU = np.einsum("nzd,nd->nz", tangents[:, -1], dphi)         # (n, d)
    D = dU[:, z] - dU[:, x]
    integral = float(w @ D)
    return (integral - D[0]) / N
