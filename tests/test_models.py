import numpy as np
import pytest
from hypothesis import given

from mfchain import models
from mfchain.cli import main
from mfchain.errors import InputError
from mfchain.models import (
    Model,
    ValidRegion,
    check_rate_matrix,
    constant,
    estimate_lipschitz,
    eval_rates,
    example_chaos,
    example_non_erg,
    example_slow_conv,
    make_model,
    rate_derivative,
    rate_derivative_tensor,
    register_model,
    slow_conv_exact,
    weak_interaction,
    zero,
)
from conftest import measure_strategy


def test_check_rate_matrix():
    check_rate_matrix([[-1.0, 1.0], [2.0, -2.0]])
    with pytest.raises(InputError):
        check_rate_matrix([[-1.0, 1.0], [-2.0, 2.0]])     # negative off-diag
    with pytest.raises(InputError):
        check_rate_matrix([[-1.0, 2.0], [1.0, -1.0]])     # bad row sum


# --- frozen oracle values ---------------------------------------------------


def test_non_erg_rates_oracle():
    A = eval_rates(example_non_erg(), np.array([0.25, 0.75]))
    assert A[0, 1] == pytest.approx(0.25**2 + 0.25 + 1.0)          # 1.3125
    assert A[1, 0] == pytest.approx(31 * 0.25**2 - 18 * 0.25 + 3)  # 0.4375
    assert np.allclose(A.sum(axis=1), 0.0, atol=1e-14)


def test_weak_rates_oracle():
    A = eval_rates(weak_interaction(), np.array([0.5, 0.5]))
    assert A[0, 1] == pytest.approx(1.125)
    assert A[1, 0] == pytest.approx(1.125)


def test_non_erg_drift_roots():
    # three rest points of the cubic drift
    m = example_non_erg()
    for u in (0.25, 0.5, 0.75):
        mu = np.array([u, 1.0 - u])
        assert np.abs(mu @ m.rates(mu)).sum() < 1e-12
    # drift factors as -32 (u - 1/4)(u - 1/2)(u - 3/4)
    for u in (0.1, 0.35, 0.6, 0.9):
        mu = np.array([u, 1.0 - u])
        drift1 = float((mu @ m.rates(mu))[0])
        assert drift1 == pytest.approx(
            -32 * (u - 0.25) * (u - 0.5) * (u - 0.75), abs=1e-12
        )


def test_non_erg_rate_range():
    # off-diagonal rates stay in [12/31, 16] over the simplex
    u = np.linspace(0.0, 1.0, 101)
    mus = np.stack([u, 1.0 - u], axis=1)
    A = example_non_erg().rates(mus)
    off = np.stack([A[:, 0, 1], A[:, 1, 0]], axis=1)
    assert off.min() >= 12.0 / 31.0 - 1e-12
    assert off.max() == pytest.approx(16.0)
    fine = np.linspace(0.28, 0.30, 2001)
    s = 31 * fine**2 - 18 * fine + 3
    assert s.min() == pytest.approx(12.0 / 31.0, abs=1e-6)
    m = example_non_erg()
    assert m.L == pytest.approx(12.0 / 31.0)
    assert m.M == 16.0


def test_slow_conv_drift_and_exact_solution():
    m = example_slow_conv()
    for u in (0.1, 0.45, 0.8):
        mu = np.array([u, 1.0 - u])
        drift1 = float((mu @ m.rates(mu))[0])
        assert drift1 == pytest.approx(-32 * (u - 0.5) ** 3, abs=1e-12)
    assert slow_conv_exact(0.5, 1.0) == pytest.approx(2.0 / 3.0)
    assert slow_conv_exact(3.0, 0.5) == 0.5
    # declared lower bound: alpha_21 minimum is at u = 19/60
    assert m.L == pytest.approx(119.0 / 120.0)
    u = np.linspace(0, 1, 101)
    assert (30 * u**2 - 19 * u + 4).min() >= m.L - 1e-9


@given(measure_strategy(2))
def test_declared_bounds_hold_sampled(mu):
    for m in (example_non_erg(), example_slow_conv(), weak_interaction()):
        A = m.rates(np.asarray(mu))
        off = A[~np.eye(2, dtype=bool)]
        assert off.min() >= m.L - 1e-9
        assert np.abs(A).max() <= m.M + 1e-9


@given(measure_strategy(2))
def test_analytic_derivative_matches_fd(mu):
    mu = np.asarray(mu)
    for m in (example_non_erg(), example_slow_conv(), weak_interaction()):
        analytic = m.rate_derivative(mu)
        fd_model = Model(name="fd", d=2, rates=m.rates)   # force the FD path
        fd = rate_derivative_tensor(fd_model, mu)
        assert np.allclose(analytic, fd, atol=1e-7)
        # every derivative matrix has zero row sums
        assert np.abs(analytic.sum(axis=-1)).max() < 1e-12


def _two_state_ref(a12, a21):
    out = np.empty(np.shape(a12) + (2, 2))
    out[..., 0, 0] = -a12
    out[..., 0, 1] = a12
    out[..., 1, 0] = a21
    out[..., 1, 1] = -a21
    return out


def _poly_deriv_ref(dp, ds):
    """The per-direction loop the analytic derivatives once were."""
    def deriv(mu):
        u = mu[..., 0]
        out = np.empty(mu.shape[:-1] + (2, 2, 2))
        for z in range(2):
            w = (1.0 if z == 0 else 0.0) - u
            out[..., z, :, :] = _two_state_ref(dp(u) * w, ds(u) * w)
        return out
    return deriv


def _weak_deriv_ref(mu, eps=0.25):
    out = np.empty(mu.shape[:-1] + (2, 2, 2))
    for z in range(2):
        g12 = eps * ((1.0 if z == 1 else 0.0) - mu[..., 1])
        g21 = eps * ((1.0 if z == 0 else 0.0) - mu[..., 0])
        out[..., z, :, :] = _two_state_ref(g12, g21)
    return out


DERIV_REFS = [
    (weak_interaction(), _weak_deriv_ref),
    (example_non_erg(),
     _poly_deriv_ref(lambda u: 2.0 * u + 1.0, lambda u: 62.0 * u - 18.0)),
    (example_slow_conv(),
     _poly_deriv_ref(lambda u: 4.0 * u + 1.0, lambda u: 60.0 * u - 19.0)),
]


@pytest.mark.parametrize("model, ref", DERIV_REFS,
                         ids=["weak_interaction", "non_erg", "slow_conv"])
@pytest.mark.parametrize("shape", [(), (5,), (3, 4)], ids=str)
def test_analytic_derivatives_bitwise_equal_loop_reference(model, ref, shape):
    # bytes, not values: 0.0 - u and -u differ in the sign of a zero
    u = np.linspace(0.0, 1.0, int(np.prod(shape, dtype=int)))
    mus = np.stack([u, 1.0 - u], axis=-1).reshape(shape + (2,))
    want = ref(mus)
    got = model.rate_derivative(mus)
    assert got.shape == want.shape == shape + (2, 2, 2)
    assert got.tobytes() == want.tobytes()
    for z in range(2):
        assert rate_derivative(model, mus, z).tobytes() == want[..., z, :, :].tobytes()


def test_weak_interaction_metadata():
    m = weak_interaction(a=1.0, b=2.0, eps=0.25)
    assert (m.L, m.M, m.K) == (1.0, 2.25, 0.25)
    with pytest.raises(ValueError):
        weak_interaction(a=-1.0)


def test_estimate_lipschitz_weak_is_exact():
    # |alpha(mu)-alpha(nu)|_rsa = eps |mu-nu|_1 identically for this family
    k = estimate_lipschitz(weak_interaction(), n_pairs=500, seed=1)
    assert k == pytest.approx(0.25, abs=1e-12)


# --- 4-state model ----------------------------------------------------------


def test_chaos_conservative_and_drift():
    ch = example_chaos()
    sg, beta, rho, a, b, ell = 10.0, 8.0 / 3.0, 28.0, 35.0, 200.0, 0.1
    rs = np.random.default_rng(0)
    w = rs.dirichlet(np.ones(4), size=20) * 0.8 + 0.05   # interior points
    w /= w.sum(axis=1, keepdims=True)
    A = ch.rates(w)
    off = A.copy()
    off[:, np.arange(4), np.arange(4)] = 0.0
    assert off.min() >= 0.0
    assert np.abs(A.sum(axis=-1)).max() < 1e-8
    drift = np.einsum("bx,bxy->by", w, A)
    d1 = -sg * w[:, 0] + sg * w[:, 1] + ell * w[:, 2]
    d2 = ((a + rho) * w[:, 0] - (1 + ell) * w[:, 1] + a * w[:, 2]
          - b * w[:, 0] * w[:, 2] + (a - a * rho - a * a) / b)
    d3 = (b * w[:, 0] * w[:, 1] - a * w[:, 0] - a * w[:, 1]
          - (beta + ell) * w[:, 2] + ell * w[:, 1] + a * (beta + a) / b)
    assert np.abs(drift[:, 0] - d1).max() < 1e-10
    assert np.abs(drift[:, 1] - d2).max() < 1e-10
    assert np.abs(drift[:, 2] - d3).max() < 1e-10
    assert np.abs(drift.sum(axis=1)).max() < 1e-10


def test_chaos_valid_region():
    ch = example_chaos()
    assert ch.valid_region.min_mass == 0.01
    with pytest.raises(InputError):
        eval_rates(ch, np.array([0.005, 0.395, 0.3, 0.3]))
    eval_rates(ch, np.array([0.25, 0.25, 0.25, 0.25]))
    # FD derivative tensor is still conservative row-wise
    D = rate_derivative_tensor(ch, np.array([0.25, 0.25, 0.25, 0.25]))
    assert D.shape == (4, 4, 4)
    assert np.abs(D.sum(axis=-1)).max() < 1e-5


# --- constant / zero / registry --------------------------------------------


def test_constant_and_zero():
    Q = np.array([[-1.0, 1.0], [2.0, -2.0]])
    m = constant(Q)
    assert np.array_equal(m.rates(np.array([0.3, 0.7])), Q)
    assert np.all(m.rate_derivative(np.array([0.3, 0.7])) == 0.0)
    assert (m.K, m.L, m.M) == (0.0, 1.0, 2.0)
    z = zero(3)
    assert np.all(z.rates(np.array([0.2, 0.3, 0.5])) == 0.0)
    with pytest.raises(InputError):
        constant(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_registry(monkeypatch):
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    m = make_model("weak_interaction", a=2.0, b=1.0, eps=0.1)
    assert m.L == 1.0
    assert make_model("non_erg").name == "example_non_erg"
    assert make_model("chaos").d == 4
    with pytest.raises(InputError, match="unknown model"):
        make_model("missing_model")
    register_model("tiny", lambda: zero(2))
    assert make_model("tiny").name == "zero"


def test_zoo_models_pass_the_rates_probe():
    for name in ("weak_interaction", "example_non_erg", "example_slow_conv",
                 "example_chaos", "zero"):
        make_model(name)
    make_model("constant", Q=[[-1.0, 1.0], [2.0, -2.0]])


def _leaky(what):
    def factory():
        base = weak_interaction()

        def rates(mu):
            A = base.rates(mu).copy()
            if what == "row sum":
                A[..., 0, 1] += 1e-6
            elif what == "negative":
                A[..., 1, 0] = -A[..., 1, 0]
                A[..., 1, 1] = -A[..., 1, 1]
            else:
                A[..., 0, :] = np.nan
            return A

        return Model(name="leaky", d=2, rates=rates)

    return factory


@pytest.mark.parametrize("what, words", [("row sum", "row sums not zero"),
                                         ("negative", "negative off-diagonal"),
                                         ("nan", "non-finite")])
def test_make_model_rejects_non_conservative_rates(monkeypatch, tmp_path,
                                                   capsys, what, words):
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    register_model("leaky", _leaky(what))
    with pytest.raises(InputError, match=words):
        make_model("leaky")
    # the flow alone would renormalize the leak away; the CLI refuses
    assert main(["solve", "--model.name=leaky", "--run.horizon=1",
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mfchain: error:") and err.count("\n") == 1
    assert words in err
    assert not (tmp_path / "x" / "report.json").exists()


def test_valid_region_contains_batched():
    r = ValidRegion("test", min_mass=0.1)
    mus = np.array([[0.5, 0.5], [0.05, 0.95]])
    assert np.array_equal(r.contains(mus), [True, False])


def test_rate_derivative_single_direction():
    m = weak_interaction()
    D0 = rate_derivative(m, np.array([0.5, 0.5]), 0)
    # direction toward state 1 (0-based 0): d alpha_21 / dm = eps (1 - mu_1)
    assert D0[1, 0] == pytest.approx(0.25 * 0.5)
    assert D0[0, 1] == pytest.approx(-0.25 * 0.5)
    with pytest.raises(InputError):
        rate_derivative(m, np.array([0.5, 0.5]), 5)
