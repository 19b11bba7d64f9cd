"""Rate-function models: conservative generators depending on the current law.

A :class:`Model` bundles a map ``mu -> alpha(mu)`` into d x d conservative
rate matrices (off-diagonal >= 0, zero row sums), an optional analytic
measure-derivative, and declared regularity metadata (M = sup |alpha_xy|,
L = inf off-diagonal rate, K = L1 Lipschitz constant when known).

All rate callables are vectorized: ``rates`` maps (..., d) measure arrays
to (..., d, d) matrices, and ``rate_derivative`` maps (..., d) to the
(..., d, d, d) tensor ``T[..., z, x, y] = d alpha_xy / dm (mu, z)`` (the
chord derivative toward delta_z, entrywise).

Measures multiply generators from the left: the mean-field drift is the
row vector ``mu @ alpha(mu)``.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import InputError, check_count
from .simplex import chord_derivative, simplex_lattice

ROW_SUM_TOL = 1e-12       # |row sum| allowed per unit of the row's largest |rate|
PROBE_RESOLUTION = 3      # lattice of the valid region that make_model checks


def check_rate_matrix(A) -> np.ndarray:
    """Validate finite entries, off-diagonal positivity and zero row sums
    (within ROW_SUM_TOL times the row's largest |entry|); returns A as floats."""
    A = np.asarray(A)
    if (A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 2
            or not np.issubdtype(A.dtype, np.number)):
        raise InputError("rate matrix must be numeric, square and at least"
                         f" 2 x 2, got shape {A.shape} of {A.dtype}")
    A = A.astype(float)
    if not np.all(np.isfinite(A)):
        raise InputError("rate matrix has non-finite entries")
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        raise InputError("negative off-diagonal rate")
    rowsum = A.sum(axis=1)
    if np.any(np.abs(rowsum) > ROW_SUM_TOL * np.abs(A).max(axis=1)):
        raise InputError(f"row sums not zero: {rowsum.tolist()}")
    return A


@dataclass(frozen=True)
class ValidRegion:
    """Subset of the simplex on which a model's rates are defined."""

    description: str = "entire simplex"
    min_mass: float = 0.0

    def contains(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        return mu.min(axis=-1) >= self.min_mass - 1e-12


@dataclass(frozen=True)
class Model:
    name: str
    d: int
    rates: Callable[[np.ndarray], np.ndarray]
    rate_derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    M: Optional[float] = None
    L: Optional[float] = None
    K: Optional[float] = None
    valid_region: ValidRegion = field(default_factory=ValidRegion)

    def require_valid(self, mu) -> None:
        ok = self.valid_region.contains(mu)
        if not np.all(ok):
            raise InputError(
                f"measure outside valid region of model {self.name!r}"
                f" ({self.valid_region.description})"
            )


def rate_derivative_tensor(model: Model, mus) -> np.ndarray:
    """Full derivative tensor T[..., z, x, y]; analytic or chord FD."""
    mus = np.asarray(mus, dtype=float)
    if model.rate_derivative is not None:
        return model.rate_derivative(mus)
    return chord_derivative(model.rates, mus)


# measures per rates_and_margin call where many are batched: condition 2's
# lattice chunks and the step-propagator blocks of kolmogorov.solve_flow
MARGIN_ROWS = 1024
# sampled pairs (or measures) a certificate may ask for: at 10**8, a sampled K
# of a two-state model takes about 30 s on one core
MAX_PAIRS = 10**8


def rates_and_margin(model: Model, mus) -> tuple:
    """(alpha(mu), A(mu)) from one rates evaluation; see margin_matrix.

    The chord FD derivative of a model without an analytic one reuses the
    same alpha(mu) as its base point.
    """
    mus = np.asarray(mus, dtype=float)
    R = model.rates(mus)
    if model.rate_derivative is not None:
        D = model.rate_derivative(mus)                  # (..., z, x, y)
    else:
        D = chord_derivative(model.rates, mus, base=R)
    return R, R + np.einsum("...x,...zxy->...zy", mus, D)


def margin_matrix(model: Model, mus) -> np.ndarray:
    """A[..., x, y] = alpha_xy(mu) + sum_z mu_z * d alpha_zy / dm (mu, x).

    Row vectors act from the left: (L_mu q) = q @ A.  Positive off-diagonal
    entries of A for all mu certify exponential L1 contraction of the
    linearized flow (and the entries themselves are the condition-2 margins).
    A is also the derivative of the drift G(mu) = mu @ alpha(mu) along
    zero-sum directions, G'(mu) q = q @ A, which the stationary search's
    Newton step uses.
    """
    return rates_and_margin(model, mus)[1]


def estimate_lipschitz(model: Model, n_pairs: int = 10_000, seed: int = 0) -> float:
    """Sampled L1 Lipschitz constant of alpha.

    max over random pairs of |alpha(mu) - alpha(nu)|_rsa / |mu - nu|_1 where
    |.|_rsa is the maximum absolute row sum.  A maximum over samples can
    only under-estimate the true constant, the lenient direction for the
    K < L/d certificate, so check_condition1 lets a sampled K refute it
    (L/d - K <= 0 is a sound fail) but never pass it.
    The pairs are drawn and compared MARGIN_ROWS at a time, so memory does
    not grow with n_pairs (an integer, 1..MAX_PAIRS); a maximum over blocks
    is the maximum over all.
    """
    n_pairs = check_count(n_pairs, "n_pairs", 1, MAX_PAIRS)
    floor = model.valid_region.min_mass
    floor = floor + 0.005 if floor > 0 else 0.0
    maxima = []
    for lo in range(0, n_pairs, MARGIN_ROWS):
        n = min(MARGIN_ROWS, n_pairs - lo)
        mus = rng.random_measures(seed, n, model.d, floor=floor, start=lo)
        nus = rng.random_measures(seed, n, model.d, floor=floor, rep=1, start=lo)
        dA = model.rates(mus) - model.rates(nus)
        num = np.abs(dA).sum(axis=-1).max(axis=-1)
        den = np.abs(mus - nus).sum(axis=-1)
        keep = den > 1e-9
        if keep.any():
            maxima.append(np.max(num[keep] / den[keep]))
    return float(np.max(maxima))


# ---------------------------------------------------------------------------
# built-in models


# indicator (z == 0), (z == 1) over a trailing direction axis z: a
# derivative built on it is _two_state over (..., z), i.e. T[..., z, x, y]
_TOWARD_0 = np.array([1.0, 0.0])
_TOWARD_1 = np.array([0.0, 1.0])


def _two_state(a12, a21) -> np.ndarray:
    a12 = np.asarray(a12, dtype=float)
    out = np.empty(a12.shape + (2, 2))
    out[..., 0, 0] = -a12
    out[..., 0, 1] = a12
    out[..., 1, 0] = a21
    out[..., 1, 1] = -a21
    return out


def _two_state_poly(name: str, p, dp, s, ds, M: float, L: float) -> Model:
    """2-state model with rates alpha_12 = p(mu_1), alpha_21 = s(mu_1).

    The chord derivative of any f(mu_1) is f'(mu_1) * ((z == 1) - mu_1)
    in 1-based state labels, i.e. direction weight (z == 0) - mu[0] here.
    """

    def rates(mu):
        u = np.asarray(mu, dtype=float)[..., 0]
        return _two_state(p(u), s(u))

    def deriv(mu):
        u = np.asarray(mu, dtype=float)[..., 0:1]
        w = _TOWARD_0 - u                       # (..., z): (z == 0) - mu_1
        return _two_state(dp(u) * w, ds(u) * w)

    return Model(name=name, d=2, rates=rates, rate_derivative=deriv, M=M, L=L)


def example_non_erg() -> Model:
    """2-state system with three invariant measures; not exponentially ergodic.

    alpha_12 = mu_1^2 + mu_1 + 1, alpha_21 = 31 mu_1^2 - 18 mu_1 + 3.
    The mean-field drift factors as -32 (mu_1 - 1/4)(mu_1 - 1/2)(mu_1 - 3/4),
    so (0.25, 0.75), (0.5, 0.5) and (0.75, 0.25) are all stationary.
    Off-diagonal rates range over [12/31, 16] on the simplex (the minimum of
    alpha_21 sits at mu_1 = 9/31).
    """
    return _two_state_poly(
        "example_non_erg",
        p=lambda u: u * u + u + 1.0,
        dp=lambda u: 2.0 * u + 1.0,
        s=lambda u: 31.0 * u * u - 18.0 * u + 3.0,
        ds=lambda u: 62.0 * u - 18.0,
        M=16.0,
        L=12.0 / 31.0,
    )


def example_slow_conv() -> Model:
    """2-state system converging to (0.5, 0.5) at rate 1/sqrt(t) only.

    alpha_12 = 2 mu_1^2 + mu_1 + 1, alpha_21 = 30 mu_1^2 - 19 mu_1 + 4.
    The drift is -32 (mu_1 - 1/2)^3, giving the closed-form solution
    m_1(t) = 1/2 + sgn(mu_1 - 1/2) / (2 sqrt((1 - 2 mu_1)^{-2} + 16 t)).
    """
    return _two_state_poly(
        "example_slow_conv",
        p=lambda u: 2.0 * u * u + u + 1.0,
        dp=lambda u: 4.0 * u + 1.0,
        s=lambda u: 30.0 * u * u - 19.0 * u + 4.0,
        ds=lambda u: 60.0 * u - 19.0,
        M=15.0,
        L=119.0 / 120.0,
    )


def slow_conv_exact(t, mu1_0: float) -> np.ndarray:
    """Closed-form first coordinate of the slow-convergence model's flow."""
    t = np.asarray(t, dtype=float)
    if mu1_0 == 0.5:
        return np.full_like(t, 0.5)
    sgn = 1.0 if mu1_0 > 0.5 else -1.0
    return 0.5 + sgn / (2.0 * np.sqrt((1.0 - 2.0 * mu1_0) ** -2 + 16.0 * t))


def weak_interaction(a: float = 1.0, b: float = 1.0, eps: float = 0.25) -> Model:
    """2-state chain with weakly law-dependent rates.

    alpha_12 = a + eps mu_2, alpha_21 = b + eps mu_1.  The L1 Lipschitz
    constant is exactly eps, so the K < L/d certificate passes whenever
    eps < min(a, b)/2.  (The interaction terms cancel in the drift, which
    makes the mean-field flow affine with contraction rate a + b.)
    """
    if (not all(isinstance(v, numbers.Real) and np.isfinite(v)
                for v in (a, b, eps)) or a <= 0 or b <= 0 or eps < 0):
        raise InputError("need real numbers a, b > 0 and eps >= 0")

    def rates(mu):
        mu = np.asarray(mu, dtype=float)
        return _two_state(a + eps * mu[..., 1], b + eps * mu[..., 0])

    def deriv(mu):
        mu = np.asarray(mu, dtype=float)
        return _two_state(eps * (_TOWARD_1 - mu[..., 1:2]),
                          eps * (_TOWARD_0 - mu[..., 0:1]))

    return Model(
        name=f"weak_interaction(a={a},b={b},eps={eps})",
        d=2,
        rates=rates,
        rate_derivative=deriv,
        M=max(a, b) + eps,
        L=min(a, b),
        K=eps,
    )


def example_chaos() -> Model:
    """4-state system whose first three mean-field coordinates follow a
    shifted/scaled Lorenz system (x = b mu_1 - a, etc.) up to O(l) coupling.

    Rates contain mu-components in denominators, so the model is only
    defined on {mu : min_x mu_x >= 0.01}; evaluation outside raises a
    domain error and simulations abort if the state exits the region.
    """
    sg, beta, rho, a, b, ell = 10.0, 8.0 / 3.0, 28.0, 35.0, 200.0, 0.1

    def rates(mu):
        mu = np.asarray(mu, dtype=float)
        m0, m1, m2, m3 = mu[..., 0], mu[..., 1], mu[..., 2], mu[..., 3]
        shape = mu.shape[:-1]
        A = np.zeros(shape + (4, 4))
        A[..., 0, 1] = a + rho + a / (b * m0)
        A[..., 0, 2] = b * m1 + a * (beta + a) / (b * m0)
        A[..., 0, 3] = sg
        A[..., 1, 0] = sg
        A[..., 1, 2] = ell
        A[..., 1, 3] = 1.0 + (a * (rho + a) + b * b * m0 * m2) / (b * m1)
        A[..., 2, 0] = ell
        A[..., 2, 1] = a
        A[..., 2, 3] = beta + a * (m0 + m1) / m2
        A[..., 3, 0] = (m0 * (a + rho + b * m1) + a * (1.0 + beta + a) / b) / m3
        A[..., 3, 1] = sg * m1 / m3
        A[..., 3, 2] = a * m2 / m3
        diag = -A.sum(axis=-1)
        idx = np.arange(4)
        A[..., idx, idx] = diag
        return A

    return Model(
        name="example_chaos",
        d=4,
        rates=rates,
        rate_derivative=None,  # rational entries; chord FD is accurate here
        M=None,
        L=0.1,
        K=None,
        valid_region=ValidRegion("min_x mu_x >= 0.01", min_mass=0.01),
    )


def constant(Q) -> Model:
    """Ordinary (law-independent) Markov chain with generator Q."""
    Q = check_rate_matrix(Q)
    d = Q.shape[0]
    off = Q.copy()
    np.fill_diagonal(off, 0.0)

    def rates(mu):
        mu = np.asarray(mu, dtype=float)
        return np.broadcast_to(Q, mu.shape[:-1] + (d, d)).copy()

    def deriv(mu):
        mu = np.asarray(mu, dtype=float)
        return np.zeros(mu.shape[:-1] + (d, d, d))

    return Model(
        name="constant",
        d=d,
        rates=rates,
        rate_derivative=deriv,
        M=float(np.abs(Q).max()),
        L=float(off[~np.eye(d, dtype=bool)].min()) if d > 1 else 0.0,
        K=0.0,
    )


def zero(d: int = 2) -> Model:
    """Frozen dynamics: all rates identically zero."""
    d = check_count(d, "d", 2)
    m = constant(np.zeros((d, d)))
    return Model(
        name="zero",
        d=d,
        rates=m.rates,
        rate_derivative=m.rate_derivative,
        M=0.0,
        L=0.0,
        K=0.0,
    )


# ---------------------------------------------------------------------------
# registry (CLI model selection + custom registration hook)

_REGISTRY: dict[str, Callable[..., Model]] = {}


def register_model(name: str, factory: Callable[..., Model]) -> None:
    """Register a model factory under a config-selectable name."""
    _REGISTRY[name] = factory


def make_model(name: str, **params) -> Model:
    if name not in _REGISTRY:
        raise InputError(
            f"unknown model {name!r} (known: {', '.join(sorted(_REGISTRY))})"
        )
    factory = _REGISTRY[name]
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise InputError(f"model {name!r}: {exc}") from None
    model = factory(**params)
    _probe_rates(model)
    return model


def _probe_rates(model: Model) -> None:
    """Evaluate model.rates once, on the points min_mass + (1 - d min_mass) k
    / PROBE_RESOLUTION of the valid region, and check each matrix with
    check_rate_matrix.

    The flow renormalizes its state after every step, so rates whose rows do
    not sum to zero would otherwise go unnoticed.
    """
    d, floor = model.d, model.valid_region.min_mass
    mus = floor + (1.0 - d * floor) * simplex_lattice(d, PROBE_RESOLUTION)
    mus = mus[model.valid_region.contains(mus)]
    A = np.asarray(model.rates(mus))
    if A.shape != mus.shape + (d,):
        raise InputError(f"model {model.name!r}: rates map {mus.shape} measures"
                         f" to shape {A.shape}, expected {mus.shape + (d,)}")
    for mu, Amu in zip(mus, A):
        try:
            check_rate_matrix(Amu)
        except InputError as exc:
            raise InputError(
                f"model {model.name!r} at {mu.tolist()}: {exc}") from None


register_model("weak_interaction", weak_interaction)
register_model("example_non_erg", example_non_erg)
register_model("example_slow_conv", example_slow_conv)
register_model("example_chaos", example_chaos)
register_model("constant", constant)
register_model("zero", zero)
