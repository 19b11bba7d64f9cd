from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfchain import simplex
from mfchain.errors import InputError
from mfchain.simplex import (
    ScalarField,
    as_measure,
    as_tangent,
    barycenter,
    count_lattice,
    dirac,
    entropy_field,
    functional_derivative_all,
    lattice_index,
    linear_field,
    make_observable,
    quadratic_field,
    simplex_lattice,
    simpson_weights,
    sq_dist_field,
)
from conftest import measure_strategy


def test_as_measure_validation():
    assert np.allclose(as_measure([0.25, 0.75]), [0.25, 0.75])
    with pytest.raises(ValueError, match=r"measure weights sum to 1\.1, not 1"):
        as_measure([0.5, 0.6])
    with pytest.raises(ValueError):
        as_measure([-0.1, 1.1])
    with pytest.raises(ValueError):
        as_measure([1.0])  # too short


def test_as_tangent_validation():
    as_tangent([0.5, -0.5])
    with pytest.raises(ValueError):
        as_tangent([0.5, -0.4])
    # rows of a (..., d) stack; the tolerance grows with a row's L1 norm
    as_tangent([[[1e6, -1e6 + 1e-7]], [[0.0, 0.0]]])
    with pytest.raises(InputError, match=r"sums to 9\.99\d*e-08, not 0"):
        as_tangent([[1.0, -1.0 + 1e-7]])
    with pytest.raises(InputError, match="sums to nan"):
        as_tangent([[0.5, -0.5], [np.nan, 0.0]])


def test_dirac_and_barycenter():
    assert np.array_equal(dirac(3, 1), [0.0, 1.0, 0.0])
    assert np.allclose(barycenter(4), 0.25)


# --- functional derivative ------------------------------------------------

SQUARE_FIRST = ScalarField(
    name="mu1_squared",
    fn=lambda m: m[..., 0] ** 2,
    grad=lambda m: np.stack([2.0 * m[..., 0], np.zeros_like(m[..., 0])], axis=-1),
)
SQUARE_FIRST_FD = ScalarField(name="mu1_squared_fd", fn=SQUARE_FIRST.fn)


def test_linear_functional_derivative_oracle():
    # F = mu_1^2 at (0.3, 0.7): gradient (0.6, 0), mean 0.18
    df = functional_derivative_all(SQUARE_FIRST, np.array([0.3, 0.7]))
    assert df[0] == pytest.approx(0.42)
    assert df[1] == pytest.approx(-0.18)
    assert df[1] - df[0] == pytest.approx(-0.60)     # D^m_{yz} F, y=0, z=1


def test_fd_path_matches_analytic():
    # the field without a gradient takes the chord finite-difference path
    mu = np.array([0.3, 0.7])
    fd = functional_derivative_all(SQUARE_FIRST_FD, mu)
    an = functional_derivative_all(SQUARE_FIRST, mu)
    assert np.abs(fd - an).max() < 1e-9


def test_fd_path_batch_equals_rows():
    # one batched chord difference over (B, d) gives each row's bytes
    field = ScalarField("entropy_fd", entropy_field().fn)
    mus = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0], [0.1, 0.1, 0.8],
                    [1 / 3, 1 / 3, 1 / 3], [0.6, 0.0, 0.4]])
    batch = functional_derivative_all(field, mus)
    rows = np.array([functional_derivative_all(field, mu) for mu in mus])
    assert batch.shape == mus.shape
    assert np.array_equal(batch, rows)
    assert np.array_equal(functional_derivative_all(field, mus.reshape(5, 1, 3)),
                          batch.reshape(5, 1, 3))


LIB_FIELDS = [
    sq_dist_field(np.array([0.2, 0.5, 0.3])),
    linear_field(np.array([1.0, -2.0, 0.5])),
    entropy_field(),
    quadratic_field(np.array([[1.0, 0.3, 0.0], [0.3, 2.0, -1.0], [0.0, -1.0, 0.5]])),
]


@given(measure_strategy(3))
def test_normalization_invariant(mu):
    # the mu-average of the derivative vanishes by construction
    for field in LIB_FIELDS:
        df = functional_derivative_all(field, mu)
        assert abs(float(mu @ df)) < 1e-8


@given(measure_strategy(3))
def test_representation_via_gradient(mu):
    for field in LIB_FIELDS:
        g = field.grad(mu)
        expect = g - float(g @ mu)
        assert np.allclose(functional_derivative_all(field, mu), expect, atol=1e-12)


@given(measure_strategy(3), st.integers(0, 2), st.integers(0, 2))
def test_aggregation_identity(mu, y, z):
    # sum_y mu_y [dF(z) - dF(y)] = dF(z): the pairwise differences
    # D[y, z] = dF(z) - dF(y) aggregate back, and D is antisymmetric
    for field in LIB_FIELDS[:2]:
        df = functional_derivative_all(field, mu)
        D = df[None, :] - df[:, None]
        assert float(np.asarray(mu) @ D[:, z]) == pytest.approx(df[z], abs=1e-8)
        assert D[y, z] == -D[z, y]


def test_simpson_weights():
    w = simpson_weights(9)
    xs = np.linspace(0.0, 1.0, 9)
    assert w.sum() == pytest.approx(1.0)
    assert float(w @ xs**3) == pytest.approx(0.25, abs=1e-14)  # exact for cubics
    with pytest.raises(ValueError):
        simpson_weights(4)


def chord_integral(field, mu0, mu1, n):
    """Simpson rule on n nodes for int_0^1 dF(mu_zeta) . (mu1 - mu0) dzeta
    along the chord mu_zeta = (1 - zeta) mu0 + zeta mu1."""
    mu0, mu1 = np.asarray(mu0), np.asarray(mu1)
    zetas = np.linspace(0.0, 1.0, n)[:, None]
    dvals = functional_derivative_all(field, (1.0 - zetas) * mu0 + zetas * mu1)
    return float(simpson_weights(n) @ (dvals @ (mu1 - mu0)))


@given(measure_strategy(3), measure_strategy(3))
def test_ftc_chord_integral(mu0, mu1):
    for field in LIB_FIELDS:
        lhs = float(field(np.asarray(mu1)) - field(np.asarray(mu0)))
        # entropy's integrand has a large 4th derivative near the boundary,
        # so give Simpson enough nodes for a uniform tolerance
        rhs = chord_integral(field, mu0, mu1, 201)
        assert lhs == pytest.approx(rhs, abs=1e-7)


def test_ftc_exact_for_quadratic():
    # Simpson integrates the linear-in-theta integrand exactly
    f = quadratic_field(np.array([[1.0, -0.5], [-0.5, 2.0]]), c=np.array([0.3, 0.0]))
    mu0, mu1 = np.array([0.9, 0.1]), np.array([0.2, 0.8])
    lhs = float(f(mu1) - f(mu0))
    assert chord_integral(f, mu0, mu1, 5) == pytest.approx(lhs, abs=1e-14)


def test_time_chain_rule_along_synthetic_curve():
    # phi(t) = (1 - s) mu0 + s mu1 with s = sin^2 t; d/dt F(phi) = dF . phi'
    mu0, mu1 = np.array([0.8, 0.15, 0.05]), np.array([0.2, 0.3, 0.5])
    for field in LIB_FIELDS:
        for t in (0.3, 0.7, 1.2):
            s = np.sin(t) ** 2
            phi = (1 - s) * mu0 + s * mu1
            dphi = np.sin(2 * t) * (mu1 - mu0)
            h = 1e-5

            def F_of_t(tt):
                ss = np.sin(tt) ** 2
                return float(field((1 - ss) * mu0 + ss * mu1))

            fd = (8 * (F_of_t(t + h / 2) - F_of_t(t - h / 2))
                  - (F_of_t(t + h) - F_of_t(t - h))) / (6 * h)
            chain = float(functional_derivative_all(field, phi) @ dphi)
            assert fd == pytest.approx(chain, abs=1e-6)


def test_simplex_lattice():
    lat = simplex_lattice(3, 4)
    assert lat.shape == (15, 3)                       # C(4+2, 2)
    assert np.allclose(lat.sum(axis=1), 1.0)
    # lexicographic ordering of the underlying count vectors
    counts = np.round(lat * 4).astype(int)
    order = [tuple(c) for c in counts]
    assert order == sorted(order)
    assert np.array_equal(lat[0], [0.0, 0.0, 1.0])
    assert np.array_equal(lat[-1], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("d, n", [(2, 1), (2, 9), (3, 12), (4, 8), (5, 4)])
def test_count_lattice_and_its_index(d, n):
    # every count vector once, in lexicographic order, each at its index
    lat = count_lattice(d, n)
    brute = [k for k in product(range(n + 1), repeat=d) if sum(k) == n]
    assert lat.dtype == np.int32 and len(lat) == comb(n + d - 1, d - 1)
    assert [tuple(k) for k in lat] == brute             # product is lex order
    assert np.array_equal(lattice_index(lat), np.arange(len(lat)))
    # any leading shape; a one-step move lands on its own row
    assert np.array_equal(lattice_index(lat[::-1].reshape(-1, 1, d)),
                          np.arange(len(lat))[::-1, None])
    if n > 0:
        k = lat[-1].copy()
        k[0], k[-1] = k[0] - 1, k[-1] + 1
        assert np.array_equal(lat[lattice_index(k)], k)
    assert np.array_equal(simplex_lattice(d, n), lat / n)


def test_make_observable():
    f = make_observable("sq_dist", target=np.array([0.5, 0.5]))
    assert float(f(np.array([0.9, 0.1]))) == pytest.approx(0.32)
    g = make_observable("linear", coeffs=np.array([2.0, 0.0]))
    assert float(g(np.array([0.25, 0.75]))) == pytest.approx(0.5)
    ent = make_observable("entropy")
    assert np.isfinite(float(ent(np.array([1.0, 0.0]))))
    with pytest.raises(InputError, match="unknown observable"):
        make_observable("nope")


def test_batched_field_eval():
    f = sq_dist_field(np.array([0.5, 0.5]))
    mus = np.array([[0.9, 0.1], [0.5, 0.5]])
    assert np.allclose(f(mus), [0.32, 0.0])
    d = functional_derivative_all(f, mus)
    assert d.shape == (2, 2)
