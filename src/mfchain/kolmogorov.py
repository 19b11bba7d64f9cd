"""Deterministic mean-field flow: the nonlinear forward equation on the simplex.

The law of the limiting process evolves as the ODE

    d/dt m(t) = m(t) @ alpha(m(t)),        m(0) = mu,

integrated here with the 12-stage 8th-order Runge-Kutta solution of Prince
and Dormand (DOP853 in Hairer-Norsett-Wanner, Solving ODEs I, II.5) at a
fixed step (default 0.02, shortened per recording interval so grid points
are hit exactly).  The step does not depend on the state, so every row of a
batch is integrated on its own and an affine flow is mapped affinely.  Tiny
negative components caused by roundoff are clipped and renormalized under a
strict cumulative budget; anything larger aborts the run.  Every flow, with
or without tangent rows, and the stationary search's march run one substep
loop (_march, driven only by _flow), capped at MAX_SUBSTEPS substeps.

Tangent rows of the linearized equation q' = q A(m(t)) + r(t) (see
linearized) are not stepped beside the measure.  The measure flow runs as it
does without them, keeping its stage measures; the equation is linear, so
once a step's stage measures are known the step is an affine map
q -> q @ M + e.  The step propagators (M, e) of a block of substeps come
from one rates_and_margin call on all of the block's stage measures and the
same stage loop on the rows of the identity, and the tangent rows then
advance by one matrix product per substep.  A block holds at most
models.MARGIN_ROWS stage measures (but at least one substep), so its memory
does not grow with the interval length; a block of one substep with more
stage measures than that is linearized MARGIN_ROWS measures at a time, so
no rates_and_margin call exceeds the cap at any batch size.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import DomainExitError, InputError, SolverError
from .models import MARGIN_ROWS, Model, rates_and_margin
from .simplex import as_measure, as_tangent, barycenter

DEFAULT_STEP = 0.02
CLIP_FLOOR = -1e-10       # single-component clip tolerance
CLIP_BUDGET = 1e-8        # cumulative clipped mass per trajectory
MAX_SUBSTEPS = 10**8      # substeps one march may take in all
MAX_NEWTON = 200          # Newton iterations of the stationary polish


def make_grid(horizon: float, spacing: float) -> np.ndarray:
    """Uniform recording grid 0, spacing, 2*spacing, ..., <= horizon."""
    if not (0 <= horizon < np.inf and 0 < spacing < np.inf):
        raise InputError(
            f"need a finite horizon >= 0 and spacing > 0, got {horizon}, {spacing}"
        )
    n = np.floor(horizon / spacing + 1e-9)
    try:
        return spacing * np.arange(int(n) + 1)
    except (OverflowError, ValueError, MemoryError):    # inf, unsizable, too big
        raise InputError(f"cannot build a grid of spacing {spacing} up to"
                         f" {horizon}: {n:.3g} points") from None


def as_grid(times) -> np.ndarray:
    """Validate a recording grid: a non-empty finite non-decreasing 1-d
    array of times >= 0, returned as floats.  The flow solver and the
    particle simulator both check their grids with it."""
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times))
            or times[0] < 0 or np.any(np.diff(times) < 0)):
        raise InputError(
            "recording grid must be a non-empty finite non-decreasing 1-d"
            " array of times >= 0"
        )
    return times


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


def _rk_step(f, y, h: float, K: np.ndarray) -> np.ndarray:
    """One DOP853 step of length h from the (B, n) rows y: the stage loop.

    f(s, y_s) is the derivative at stage s, called once per stage in stage
    order; K, a (12, B, n) buffer, receives the stage derivatives.
    """
    K[0] = f(0, y)
    for s, (idx, a) in enumerate(_STAGE_TERMS, start=1):
        K[s] = f(s, y + h * (a * K[idx]).sum(axis=0))
    idx, b = _STEP_TERMS
    return y + h * (b * K[idx]).sum(axis=0)


def _march(f, y, times, step: float, postproc, block: int):
    """Step the (B, n) rows y across the grid; yields (ts, h, y, end).

    Each recording interval is cut into equal substeps of length h <= step
    so grid times are exact; postproc(t, y) follows each.  A yield follows
    every run of at most `block` substeps, started at the times ts, with y
    the state after them; `end` marks an interval's last yield, and a
    zero-length interval yields once, with no substeps.  A bad step, or one
    that needs more than MAX_SUBSTEPS substeps in all, is refused before the
    first step.  Times, nodes and step lengths are Python floats (IEEE
    doubles, like numpy's float64, but cheaper to combine than numpy scalars).
    """
    step = float(step)
    if not 0 < step < math.inf:
        raise InputError(f"need a finite step > 0, got {step}")
    times = [float(t) for t in times]
    # substeps per interval, none in a zero-length one; the cap keeps the
    # count finite when span / step overflows
    nsubs = [0 if t1 == t0 else
             max(1, math.ceil(min((t1 - t0) / step, MAX_SUBSTEPS + 1) - 1e-12))
             for t0, t1 in zip(times, times[1:])]
    if sum(nsubs) > MAX_SUBSTEPS:
        raise InputError(f"step {step:g} needs more than {MAX_SUBSTEPS:,}"
                         f" substeps to reach t = {times[-1]:g}; take a"
                         f" larger step")
    K = np.empty((len(_C),) + y.shape)             # the stage derivatives
    for j, nsub in enumerate(nsubs):
        t0, h = times[j], (times[j + 1] - times[j]) / max(nsub, 1)
        for i0 in range(0, max(nsub, 1), block):
            ts = [t0 + i * h for i in range(i0, min(i0 + block, nsub))]
            for t in ts:
                y = _rk_step(lambda s, ys: f(t + _C[s] * h, ys), y, h, K)
                y = postproc(t + h, y)
            yield ts, h, y, i0 + block >= nsub


def _step_propagators(model: Model, S, ts, h: float, source, k: int):
    """(M, e) of each substep of a block, so that its DOP853 step of the
    tangent equation q' = q A(m) + r maps q to q @ M + e.

    S: (12, n, B, d) stage measures of n substeps of length h, started at
    the times ts.  The linearizations A_s come from rates_and_margin calls
    on at most MARGIN_ROWS of them each, one call unless a single substep of
    a large batch holds more (each measure's A depends on it alone, so the
    chunks move no bit).  The tangent equation is linear, so the step is
    the stage loop run on the rows of the identity, G_s = (I + h sum_j
    a_sj G_j) A_s and M = I + h sum_s b_s G_s, and e is the same step
    started from 0 with r at each stage time.  Returns M (n, B, d, d) and,
    with a source, e (n, B, k, d); else None.
    """
    nst, n, B, d = S.shape
    S = S.reshape(-1, d)
    A = np.concatenate([rates_and_margin(model, S[lo : lo + MARGIN_ROWS])[1]
                        for lo in range(0, len(S), MARGIN_ROWS)]
                       ).reshape(nst, n * B, d, d)
    rows = d if source is None else d + k          # identity, then k zero rows
    y = np.zeros((n * B, rows, d))
    y[:, range(d), range(d)] = 1.0
    if source is not None:
        r = np.array([[np.broadcast_to(source(t + c * h), (B, k, d)) for t in ts]
                      for c in _C]).reshape(nst, n * B, k, d)

    def f(s, Y):
        G = Y.reshape(n * B, rows, d) @ A[s]
        if source is not None:
            G[:, d:] += r[s]
        return G.reshape(n * B, rows * d)

    K = np.empty((nst, n * B, rows * d))
    P = _rk_step(f, y.reshape(n * B, rows * d), h, K).reshape(n, B, rows, d)
    return P[:, :, :d], (None if source is None else P[:, :, d:])


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


def _flow(model: Model, mu0s, times, step: float, Q0, source):
    """solve_flow on checked inputs, one grid time at a time: yields (states
    (B, d), tangents (B, k, d)), first (mu0s, Q0).  The march starts when
    the second time is asked for, so a caller may stop it at any time."""
    B, k, d = Q0.shape
    post = _make_measure_postproc(model)

    def drift(t, m):
        return np.einsum("bx,bxy->by", m, model.rates(m))

    # the measure flow is the same march with or without tangent rows; with
    # them it keeps each block's stage measures, and the rows then advance
    # one step propagator at a time.  Without them a block is a whole
    # interval and nothing is recorded.
    nst = len(_C)
    per = max(1, MARGIN_ROWS // (nst * B)) if k else MAX_SUBSTEPS
    S = np.empty((nst, per, B, d)) if k else None
    recorded = 0                                   # stages of the block so far

    def record(t, m):
        nonlocal recorded
        S[recorded % nst, recorded // nst] = m    # stage, substep of the block
        recorded += 1
        return drift(t, m)

    Q = Q0
    yield mu0s, Q
    for ts, h, y, end in _march(record if k else drift, mu0s, times, step,
                                post, per):
        if k and ts:
            M, e = _step_propagators(model, S[:, :len(ts)], ts, h, source, k)
            for i in range(len(ts)):
                Q = Q @ M[i]
                if e is not None:
                    Q += e[i]
                # tangent rows stay zero-sum under the exact dynamics (the
                # linearization matrix has zero row sums); re-project so
                # roundoff cannot accumulate in that invariant direction
                Q -= Q.mean(axis=-1, keepdims=True)
            recorded = 0
        if end:
            yield y, Q


def solve_flow(
    model: Model,
    mu0s,
    times,
    step: float = DEFAULT_STEP,
    Q0=None,
    source: Optional[Callable[[float], np.ndarray]] = None,
):
    """Batched fixed-step flow solve, optionally with tangent rows.

    mu0s: (B, d) initial measures with B >= 1 and d = model.d; Q0: (B, k, d)
    initial zero-sum tangent rows (checked by simplex.as_tangent), or None
    for k = 0; source: t -> array broadcastable to (B, k, d), added to the
    tangent equation.  Returns (states (B, T, d), tangents
    (B, T, k, d)).  `times` must be non-decreasing; equal neighbours record
    the same state twice.

    The states are those of the solve without tangents, bit for bit.  The
    tangents follow q' = q @ A(m) + r with the linearization matrix taken at
    each stage measure, so they see the same order of accuracy as the base
    flow: each substep applies its DOP853 step propagator (M, e), built for a
    block of substeps at a time (see _step_propagators), and re-projects the
    rows onto zero sum.
    """
    times = as_grid(times)
    mu0s = np.asarray(mu0s, dtype=float)
    if mu0s.ndim != 2 or len(mu0s) == 0 or mu0s.shape[1] != model.d:
        raise InputError(f"initial measures must be a (B, {model.d}) array"
                         f" with B >= 1 for {model.name!r}, got shape"
                         f" {mu0s.shape}")
    B, d = mu0s.shape
    if Q0 is None:
        Q0 = np.zeros((B, 0, d))
    else:
        Q0 = np.asarray(Q0, dtype=float)
        if Q0.ndim != 3 or Q0.shape[0] != B or Q0.shape[2] != d:
            raise InputError(f"tangent rows Q0 must be a (B, k, d) = ({B}, k,"
                             f" {d}) array, got shape {Q0.shape}")
        as_tangent(Q0)
    model.require_valid(mu0s)
    states = np.empty((B, len(times), d))
    tangents = np.empty((B, len(times), Q0.shape[1], d))
    for j, (y, Q) in enumerate(_flow(model, mu0s, times, step, Q0, source)):
        states[:, j], tangents[:, j] = y, Q
    return states, tangents


def solve_kolmogorov(
    model: Model, mu0, times, step: float = DEFAULT_STEP
) -> np.ndarray:
    """Solve the nonlinear forward equation: the (T, d) measures on `times`."""
    return solve_flow(model, as_measure(mu0)[None, :], times, step)[0][0]


# ---------------------------------------------------------------------------
# stationary search: integrate until the drift is small, then Newton-polish


def stationary_distribution(
    model: Model,
    mu0=None,
    tol: float = 1e-10,
    step: float = DEFAULT_STEP,
    max_time: float = 200.0,
):
    """Find nu with |nu @ alpha(nu)|_1 <= 10 * tol near the flow from mu0.

    Phase 1 is one march of the flow over spans of one time unit (the last
    may be shorter), stopped at the first span end where the drift norm is
    at most max(1e-3, tol), or at max_time.  Phase 2 runs a
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

    if not 0 <= max_time < np.inf:
        raise InputError(f"need a finite max_time >= 0, got {max_time}")
    trigger = max(1e-3, tol)
    grid = np.append(np.arange(math.ceil(max_time)), max_time)
    for t, (m, _) in zip(grid, _flow(model, nu[None, :], grid, step,
                                     np.zeros((1, 0, model.d)), None)):
        nu, r = m[0], resid(m[0])
        if r <= trigger:
            break
    info: dict = {"march_time": float(t), "note": "", "march_residual": r}
    if r > trigger:
        info["note"] = ("march hit max_time before the residual trigger;"
                        " polishing anyway")

    iters = 0
    while r > tol and iters < MAX_NEWTON:
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
