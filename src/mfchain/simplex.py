"""Simplex geometry, tangent space, and functional-derivative calculus.

Conventions used throughout the package:

* a *measure* is a length-d numpy row vector on the probability simplex
  S_d (componentwise >= 0, summing to 1);
* a *tangent vector* lives in R^d_0, the hyperplane of zero-sum vectors;
* states are 0-based integer indices (serialized output uses 1-based
  labels, see the CSV/JSON writers in the harness);
* the linear functional derivative of a scalar field F at (mu, z) is the
  one-sided derivative of eps -> F((1-eps) mu + eps delta_z) at eps = 0+,
  normalized so that sum_z mu_z dF(mu, z) = 0.

For a field given by a smooth extension with gradient g(mu) the derivative
has the closed form dF(mu, z) = g_z(mu) - g(mu).mu, which is what the
analytic fields below use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, check_count

SUM_TOL = 1e-12

#: default one-sided finite-difference step for the chord derivative
FD_EPS = 1e-6

#: points of the largest count lattice that is built (see check_lattice)
MAX_LATTICE = 2**18


def as_measure(weights) -> np.ndarray:
    """Validate and return a probability vector (renormalized exactly).

    Negative entries are rejected outright -- only the ODE integrators are
    allowed to clip, and they do so explicitly (see the flow module).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise InputError(f"measure must be a 1-d vector of length >= 2, got shape {w.shape}")
    if not np.all(w >= 0.0):
        raise InputError(f"measure has negative or NaN entries: {w.tolist()}")
    s = w.sum()
    if abs(s - 1.0) > SUM_TOL:
        raise InputError(f"measure weights sum to {float(s)!r}, not 1"
                         f" (tol {SUM_TOL})")
    return w / s


def as_tangent(v) -> np.ndarray:
    """Validate zero-sum rows: v is (..., d) with d >= 2, and each row sums to
    0 within SUM_TOL times max(1, the row's L1 norm), so grown rows keep the
    same relative tolerance."""
    q = np.asarray(v, dtype=float)
    if q.ndim < 1 or q.shape[-1] < 2:
        raise InputError(f"tangent rows must have length >= 2, got shape {q.shape}")
    sums = q.sum(axis=-1)
    ok = np.abs(sums) <= SUM_TOL * np.maximum(1.0, np.abs(q).sum(axis=-1))
    if not np.all(ok):
        bad = float(sums[~ok].flat[0])
        raise InputError(f"tangent row sums to {bad!r}, not 0 (tol {SUM_TOL}"
                         " times max(1, its L1 norm))")
    return q


def dirac(d: int, z: int) -> np.ndarray:
    e = np.zeros(d)
    e[z] = 1.0
    return e


def barycenter(d: int) -> np.ndarray:
    return np.full(d, 1.0 / d)


# ---------------------------------------------------------------------------
# scalar fields


@dataclass(frozen=True)
class ScalarField:
    """A scalar observable on the simplex.

    ``fn`` must accept arrays of shape (..., d) and return shape (...,).
    ``grad`` (optional) is the gradient of a smooth extension to R^d, same
    batching convention; when present the functional derivative is taken
    analytically as grad_z - grad.mu, otherwise a one-sided finite
    difference with Richardson extrapolation is used.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, mu) -> np.ndarray:
        return self.fn(np.asarray(mu, dtype=float))


def functional_derivative_all(field: ScalarField, mu) -> np.ndarray:
    """delta F / delta m (mu, z) for every z, as a zero-mean-under-mu vector.

    Batched: ``mu`` may be (..., d); the result matches that shape.
    """
    mu = np.asarray(mu, dtype=float)
    if field.grad is not None:
        g = field.grad(mu)
        return g - np.sum(g * mu, axis=-1, keepdims=True)
    return chord_derivative(field.fn, mu)


def chord_derivative(f, mus, base=None) -> np.ndarray:
    """Chord FD derivative T[..., z, ...] of f toward each delta_z.

    f maps measures (..., d) to values (...,) + S, such as a field's fn or
    a model's rates; T is (..., d) + S.  base is f(mus) if the caller has
    it.  One-sided with one Richardson level (O(eps^2) accurate): the chord
    toward delta_z stays inside the simplex for any eps in (0, 1].
    """
    mus = np.asarray(mus, dtype=float)
    base = f(mus) if base is None else base
    deltas = np.eye(mus.shape[-1])

    def probe(z, e):
        return (f((1.0 - e) * mus + e * deltas[z]) - base) / e

    return np.stack([2.0 * probe(z, FD_EPS / 2.0) - probe(z, FD_EPS)
                     for z in range(len(deltas))], axis=mus.ndim - 1)


def simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights for n (odd, >= 3) equispaced nodes on [0, 1]."""
    if n < 3 or n % 2 == 0:
        raise InputError(f"composite Simpson needs an odd node count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * (n - 1))


# ---------------------------------------------------------------------------
# lattice


def check_lattice(n: int, d: int) -> int:
    """The number of points of count_lattice(d, n), C(n + d - 1, d - 1);
    refuses a non-integral n (numpy integers pass), n < 1 and lattices of
    more than MAX_LATTICE points, before anything is allocated.  The
    particle kernel (n particles) and the condition-2 scan (resolution n)
    call it."""
    n = check_count(n, "lattice total n")
    size = math.comb(n + d - 1, d - 1)
    if size > MAX_LATTICE:
        raise InputError(f"count_lattice(d = {d}, n = {n}) has {size} states,"
                         f" more than MAX_LATTICE = {MAX_LATTICE}")
    return size


def count_lattice(d: int, n: int) -> np.ndarray:
    """Every count vector k in N^d with k_1 + ... + k_d = n, in lexicographic
    order: a (C(n + d - 1, d - 1), d) int32 array whose row lattice_index(k)
    is k.  The empirical measures of n particles on d states are its rows / n.
    """
    rows, left = np.zeros((1, 0), dtype=np.int32), np.array([n])
    for _ in range(d - 1):
        width = left + 1                       # the next entry runs 0..left
        k = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        rows = np.column_stack([np.repeat(rows, width, axis=0), k])
        left = np.repeat(left, width) - k
    return np.column_stack([rows, left]).astype(np.int32)


def lattice_index(counts) -> np.ndarray:
    """Row of each count vector of counts (..., d) in count_lattice(d, n),
    n being the vector's total: the number of lattice points before it.

    Entry i contributes the points that share k's first i entries and have
    a smaller entry i.  With `left` the mass still to place and m = d - 1 - i
    entries after i, they number C(left + m, m) - C(left - k_i + m, m).
    """
    k = np.asarray(counts, dtype=np.int64)
    d = k.shape[-1]
    left = k.sum(axis=-1)
    index = np.zeros_like(left)
    for i in range(d - 1):
        m = d - 1 - i
        index += _choose(left + m, m) - _choose(left - k[..., i] + m, m)
        left = left - k[..., i]
    return index


def _choose(a: np.ndarray, m: int) -> np.ndarray:
    """C(a, m) elementwise for integers a >= m, exactly: after step j the
    product is C(a - m + j, j)."""
    c = np.ones_like(a)
    for j in range(1, m + 1):
        c = c * (a - m + j) // j
    return c


def simplex_lattice(d: int, resolution: int) -> np.ndarray:
    """All points of S_d with coordinates k/resolution, in lexicographic order."""
    resolution = check_count(resolution, "resolution")
    return count_lattice(d, resolution) / resolution


# ---------------------------------------------------------------------------
# shipped observable library


def sq_dist_field(target) -> ScalarField:
    """Squared Euclidean distance to a target measure: |mu - target|_2^2."""
    t = np.asarray(target, dtype=float)

    def fn(mu):
        return np.sum((mu - t) ** 2, axis=-1)

    def grad(mu):
        return 2.0 * (mu - t)

    return ScalarField(f"sq_dist({np.array2string(t, separator=',')})", fn, grad)


def linear_field(coeffs) -> ScalarField:
    c = np.asarray(coeffs, dtype=float)

    def fn(mu):
        return np.sum(mu * c, axis=-1)

    def grad(mu):
        return np.broadcast_to(c, np.shape(mu)).copy()

    return ScalarField(f"linear({np.array2string(c, separator=',')})", fn, grad)


def entropy_field(shift: float = 0.1) -> ScalarField:
    """Smooth negative-entropy-like functional sum (mu_x + s) log(mu_x + s).

    The shift keeps the field smooth on the closed simplex.
    """
    if not 0 < shift < np.inf:
        raise InputError(f"shift must be finite and positive, got {shift}")

    def fn(mu):
        return np.sum((mu + shift) * np.log(mu + shift), axis=-1)

    def grad(mu):
        return np.log(mu + shift) + 1.0

    return ScalarField(f"entropy(shift={shift})", fn, grad)


def quadratic_field(A, c=None) -> ScalarField:
    """General quadratic mu A mu^T + c.mu with analytic gradient (test aid)."""
    A = np.asarray(A, dtype=float)
    sym = A + A.T
    c = np.zeros(A.shape[0]) if c is None else np.asarray(c, dtype=float)

    def fn(mu):
        return np.einsum("...x,xy,...y->...", mu, A, mu) + np.sum(mu * c, axis=-1)

    def grad(mu):
        return np.einsum("...x,xy->...y", mu, sym) + c

    return ScalarField("quadratic", fn, grad)


def make_observable(name: str, **params) -> ScalarField:
    """Observable factory used by the CLI config layer."""
    if name == "sq_dist":
        return sq_dist_field(params["target"])
    if name == "linear":
        return linear_field(params["coeffs"])
    if name == "entropy":
        return entropy_field(params.get("shift", 0.1))
    raise InputError(f"unknown observable {name!r} (known: sq_dist, linear, entropy)")
