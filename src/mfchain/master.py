"""Propagated observables U(t, mu) = phi(m(t; mu)) and their calculus.

U solves the backward transport equation

    d/dt U(t, mu) = sum_z  dU/dm(t, mu, z) * (mu @ alpha(mu))_z

whose right side only involves the measure derivative of U in the drift
direction.  This module evaluates U (eval_U), its measure derivative via the
tangent rows of the flow solve (dU_dmeasure_all), the defect of the equation
above under finite differencing in t (master_residual_scan, the "master
residual"), and the second-order remainder tau of a single-particle jump
expansion of U (tau_remainder).  Like every flow solve, each takes
(model, phi, ..., step=DEFAULT_STEP).
"""

from __future__ import annotations

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
QUAD_POINTS = 9           # Simpson nodes on tau's chord (odd)


def _measures(mus) -> np.ndarray:
    """One measure (d,) or a batch (..., d) as checked (B, d) rows."""
    mus = np.asarray(mus, dtype=float)
    rows = mus.reshape(-1, mus.shape[-1]) if mus.ndim else [mus]
    return np.array([as_measure(mu) for mu in rows])


def eval_U(model: Model, phi: ScalarField, t: float, mus,
           step: float = DEFAULT_STEP):
    """U(t, mu) = phi(m(t; mu)), shaped like mus without its last axis.

    mus is one measure (d,), which gives a float, or a batch (..., d),
    solved in one batched flow.
    """
    flat = _measures(mus)
    states, _ = solve_flow(model, flat, np.array([0.0, t]), step)
    U = phi(states[:, -1])
    return float(U[0]) if np.ndim(mus) == 1 else U.reshape(np.shape(mus)[:-1])


def dU_dmeasure_all(model: Model, phi: ScalarField, t: float, mus,
                    step: float = DEFAULT_STEP) -> np.ndarray:
    """Measure derivatives dU/dm(t, mu, z) for all z, shaped like mus.

    mus is one measure (d,) or a batch (..., d), solved in one batched flow.
    Chain rule through the flow: the z-th component is the inner product of
    the functional derivative of phi at m(t; mu) with the flow derivative
    dm/dmu(t, mu, z), the tangent row started from delta_z - mu.  Rows of the
    flow derivative are zero-sum, so the normalization constant of phi's
    derivative drops out automatically.
    """
    flat = _measures(mus)
    states, tangents = solve_flow(
        model, flat, np.array([0.0, t]), step,
        Q0=np.eye(flat.shape[1]) - flat[:, None, :],
    )
    return _chain_rule(phi, states[:, -1], tangents[:, -1]).reshape(
        np.shape(mus))


def _chain_rule(phi: ScalarField, states, frames) -> np.ndarray:
    """dU/dm (B, z) from flow states m (B, d) and frames dm/dmu (B, z, d)."""
    dphi = functional_derivative_all(phi, states)           # (B, d)
    return np.einsum("bzy,by->bz", frames, dphi)


def master_residual_scan(model: Model, phi: ScalarField, cases,
                         dt: float = DT_STENCIL,
                         step: float = DEFAULT_STEP) -> np.ndarray:
    """Residuals for many (t, mu) cases with two batched solves in total.

    Each residual is the defect d/dt U - dU/dm . drift at (t, mu), with
    Richardson-extrapolated central differencing of width dt in the time
    argument, so each case needs t > dt.

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

    A case's residual still depends, in its last bits, on the other cases
    in the scan: phase 1 records on the union of every case's t - dt, so
    another case's time changes how the shared grid splits into steps.
    For example, weak_interaction with sq_dist to (1/2, 1/2) at
    (1.2, (0.3, 0.7)) gives -6.9823e-15 alone and -6.6275e-15 beside the
    case (0.8, (0.6, 0.4)).
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
        model, mus, starts, step, Q0=np.eye(d) - mus[:, None, :]
    )
    col = np.searchsorted(starts, ts - dt)
    try:
        states, tangents = solve_flow(
            model, states[rows, col], dt / 2.0 * np.arange(5), step,
            Q0=tangents[rows, col],
        )
    except DomainExitError as exc:
        raise DomainExitError(
            f"{exc}, counted from t - dt of the case whose stencil it is in",
            time=exc.time,
        ) from None
    u_m1, u_mh, _, u_ph, u_p1 = phi(states).T              # (5, B)
    D_full = (u_p1 - u_m1) / (2.0 * dt)
    D_half = (u_ph - u_mh) / dt
    dUdt = (4.0 * D_half - D_full) / 3.0
    dU = _chain_rule(phi, states[:, 2], tangents[:, 2])          # (B, d)
    drift = np.einsum("bx,bxy->by", mus, model.rates(mus))
    return dUdt - np.einsum("bz,bz->b", dU, drift)


def tau_remainder(model: Model, phi: ScalarField, s: float, config, i: int,
                  z: int, step: float = DEFAULT_STEP) -> float:
    """Second-order remainder of a one-particle jump, via the chord integral.

    For the N-particle configuration `config` (list of 0-based states),
    moving particle i to state z shifts the empirical measure by
    (delta_z - delta_x) / N with x = config[i].  The remainder

        tau = U(s, mu') - U(s, mu) - (1/N) * [dU(s,mu,z) - dU(s,mu,x)]

    equals (1/N) * int_0^1 [ D(mu_theta) - D(mu) ] dtheta with
    D(m) = dU/dm(s, m, z) - dU/dm(s, m, x), integrated here by Simpson's
    rule on QUAD_POINTS nodes along the straight chord mu -> mu'.
    """
    config = np.asarray(config, dtype=int)
    N = len(config)
    d = model.d
    if config.ndim != 1 or N == 0 or not np.all((0 <= config) & (config < d)):
        raise InputError(f"configuration must be a non-empty list of states"
                         f" in [0, {d}), got {config.tolist()}")
    if not 0 <= i < N:
        raise InputError(f"particle index {i} out of range for N={N}")
    if not 0 <= z < d:
        raise InputError(f"state index {z} out of range for d={d}")
    x = int(config[i])
    if x == z:
        return 0.0
    counts = np.bincount(config, minlength=d).astype(float)
    mu = counts / N
    shift = np.zeros(d)
    shift[z] += 1.0 / N
    shift[x] -= 1.0 / N

    thetas = np.linspace(0.0, 1.0, QUAD_POINTS)
    w = simpson_weights(QUAD_POINTS)
    nodes = mu[None, :] + thetas[:, None] * shift[None, :]

    dU = dU_dmeasure_all(model, phi, s, nodes, step)                          # (n, d)
    D = dU[:, z] - dU[:, x]
    integral = float(w @ D)
    return (integral - D[0]) / N
