import warnings

import numpy as np
import pytest
from hypothesis import given

from mfchain.errors import InputError
from mfchain.linearized import (
    apply_L,
    check_condition1,
    check_condition2,
    dm_dmeasure,
    dm_dmeasure_all,
    estimate_decay,
    m1,
    margin_matrix,
    nonlinear_contraction_rate,
    solve_linear_cauchy,
)
from mfchain.kolmogorov import flow_map, make_grid
from mfchain.models import (
    constant,
    example_chaos,
    example_non_erg,
    example_slow_conv,
    weak_interaction,
)
from conftest import measure_strategy

SYM2 = np.array([[-1.0, 1.0], [1.0, -1.0]])


def test_margin_matrix_constant_chain():
    # no measure dependence: the linearization is the generator itself
    m = constant(SYM2)
    mus = np.array([[0.3, 0.7], [0.5, 0.5]])
    A = margin_matrix(m, mus)
    assert np.array_equal(A[0], SYM2)
    assert np.array_equal(A[1], SYM2)


@given(measure_strategy(2), measure_strategy(2))
def test_apply_L_weak_interaction_is_affine_rate(eta, q_raw):
    # the weak-interaction drift is affine with Jacobian action -(a+b) q,
    # uniformly in the frozen measure eta
    model = weak_interaction(a=1.0, b=2.0, eps=0.25)
    q = np.array([1.0, -1.0]) * (q_raw[0] - 0.5)
    out = apply_L(model, np.asarray(eta), q)
    assert np.abs(out - (-(3.0) * q)).max() < 1e-12


def test_solve_linear_cauchy_constant_chain():
    model = constant(SYM2)
    times = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    q0 = np.array([0.5, -0.5])
    path = solve_linear_cauchy(model, np.array([0.3, 0.7]), q0, times)
    exact = q0[None, :] * np.exp(-2.0 * times)[:, None]
    assert np.abs(path.tangents - exact).max() < 1e-10
    assert path.states.shape == (5, 2)
    assert path.model_name == "constant"


def test_solve_linear_cauchy_with_source():
    # dq/dt = -2 q + c  =>  q(t) = q0 e^{-2t} + c (1 - e^{-2t}) / 2
    model = constant(SYM2)
    times = np.array([0.0, 0.5, 1.0])
    q0 = np.array([0.5, -0.5])
    c = np.array([0.3, -0.3])
    path = solve_linear_cauchy(
        model, np.array([0.5, 0.5]), q0, times, source=lambda t: c
    )
    decay = np.exp(-2.0 * times)[:, None]
    exact = q0[None, :] * decay + c[None, :] * (1.0 - decay) / 2.0
    assert np.abs(path.tangents - exact).max() < 1e-10


def test_solve_linear_cauchy_rejects_non_tangent():
    with pytest.raises(ValueError):
        solve_linear_cauchy(
            constant(SYM2), np.array([0.5, 0.5]), np.array([0.5, 0.2]),
            np.array([0.0, 1.0]),
        )


def test_m1_weak_interaction_closed_form():
    model = weak_interaction()
    mu = np.array([0.9, 0.1])
    nu = np.array([0.2, 0.8])
    assert np.array_equal(m1(model, 0.0, mu, nu), nu - mu)
    chaos_mu = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(dm_dmeasure_all(example_chaos(), 0.0, chaos_mu),
                          np.eye(4) - chaos_mu)
    for t in (0.5, 1.0, 2.0):
        got = m1(model, t, mu, nu)
        exact = (nu - mu) * np.exp(-2.0 * t)
        assert np.abs(got - exact).max() < 1e-10


@given(measure_strategy(2, floor=0.05))
def test_dm_dmeasure_rows_are_tangents(mu):
    J = dm_dmeasure_all(example_non_erg(), 0.7, np.asarray(mu), step=5e-3)
    assert J.shape == (2, 2)
    assert np.abs(J.sum(axis=1)).max() < 1e-9


def test_dm_dmeasure_single_matches_frame():
    model = example_slow_conv()
    mu = np.array([0.7, 0.3])
    J = dm_dmeasure_all(model, 1.2, mu)
    for z in range(2):
        row = dm_dmeasure(model, 1.2, mu, z)
        assert np.abs(row - J[z]).max() < 1e-13
    assert np.array_equal(dm_dmeasure_all(model, 0.0, mu), np.eye(2) - mu)


def test_m1_matches_chord_finite_difference():
    # Richardson chord FD of the nonlinear flow vs the linearized solution
    cases = [
        (example_non_erg(), [0.6, 0.4], [0.3, 0.7], 1.0),
        (example_slow_conv(), [0.8, 0.2], [0.4, 0.6], 1.5),
        (weak_interaction(1.0, 2.0, 0.2), [0.1, 0.9], [0.7, 0.3], 0.7),
    ]
    for model, mu, nu, t in cases:
        mu, nu = np.array(mu), np.array(nu)
        lin = m1(model, t, mu, nu)

        def chord(e):
            return (flow_map(model, t, mu + e * (nu - mu)) - flow_map(model, t, mu)) / e

        e = 1e-5
        fd = 2.0 * chord(e / 2.0) - chord(e)
        assert np.abs(lin - fd).max() < 1e-7


# --- decay estimation --------------------------------------------------------


def test_estimate_decay_weak_interaction():
    est = estimate_decay(weak_interaction(), horizon=6.0)
    assert not est.flagged
    assert est.rate == pytest.approx(2.0, abs=0.05)
    assert est.c2 >= 1.0
    assert est.n_samples == 1 + 2 + 8
    assert len(est.per_sample_rates) == est.n_samples


def test_estimate_decay_horizon_is_the_last_grid_time():
    # the grid 0, 0.3, 0.6, 0.9 stops short of horizon 1; the fit window is
    # the last half of that grid
    est = estimate_decay(weak_interaction(), horizon=1, spacing=0.3)
    times = make_grid(1, 0.3)
    assert times[-1] == pytest.approx(0.9)
    assert est.horizon == times[-1]


def test_estimate_decay_constant_chain():
    est = estimate_decay(constant(SYM2), horizon=6.0)
    assert not est.flagged
    assert est.rate == pytest.approx(2.0, abs=0.02)


def test_estimate_decay_flags_unstable_rest_point():
    # the barycenter is an unstable rest point with outward rate 2, so the
    # tangent frame grows and the fitted decay rate is -2
    est = estimate_decay(example_non_erg(), horizon=6.0)
    assert est.flagged
    assert est.rate == pytest.approx(-2.0, abs=0.1)
    assert est.note != ""


def test_estimate_decay_slow_conv_no_exponential_rate():
    # polynomial convergence: the fitted exponential rate collapses to ~0
    est = estimate_decay(example_slow_conv(), horizon=20.0, n_random=4)
    assert est.rate == pytest.approx(0.0, abs=0.05)


def test_nonlinear_contraction_rate_weak():
    rate = nonlinear_contraction_rate(weak_interaction(), horizon=6.0)
    assert rate == pytest.approx(2.0, abs=0.05)


def test_nonlinear_contraction_rate_short_grid():
    # grid 0, 0.6: the fit window is both points (the last half alone holds
    # one), and the affine flow's distances decay exactly at rate a + b = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate = nonlinear_contraction_rate(weak_interaction(), horizon=1.0,
                                          spacing=0.6)
    assert rate == pytest.approx(2.0, abs=1e-8)
    with pytest.raises(InputError, match="horizon >= spacing"):
        nonlinear_contraction_rate(weak_interaction(), horizon=0.4, spacing=0.5)


# --- certificates ------------------------------------------------------------


def test_condition1_weak_interaction():
    rep = check_condition1(weak_interaction())
    assert rep.verdict == "pass"
    assert rep.margin == pytest.approx(0.25)      # L/d - K = 1/2 - 1/4
    assert rep.certification == "declared-constants"
    assert rep.estimated_constants == {"L": 1.0, "K": 0.25}


def test_condition1_non_erg_fails():
    rep = check_condition1(example_non_erg())
    assert rep.verdict == "fail"
    assert rep.margin < 0
    assert "estimated" in rep.notes


def test_condition2_weak_interaction_certified():
    rep = check_condition2(weak_interaction())
    assert rep.verdict == "pass"
    assert rep.certification == "grid-certified"
    assert rep.margin == pytest.approx(1.0, abs=1e-9)
    assert rep.resolution == 50


def test_condition2_non_erg_witness():
    rep = check_condition2(example_non_erg())
    assert rep.verdict == "fail"
    assert rep.margin <= -0.9
    assert rep.margin == pytest.approx(-1.0, abs=1e-9)
    assert rep.witness["mu"] == [0.5, 0.5]
    assert (rep.witness["x"], rep.witness["y"]) == (1, 2)   # 1-based labels
    assert rep.certification == "grid-scan"


def test_condition2_slow_conv_inconclusive():
    rep = check_condition2(example_slow_conv())
    assert rep.verdict == "inconclusive"
    assert rep.margin == 0.0


def test_report_json_schema():
    rep = check_condition2(weak_interaction())
    d = rep.to_json_dict()
    assert set(d) == {
        "condition", "verdict", "margin", "witness", "resolution",
        "estimated_constants", "certification", "notes",
    }
    assert set(d["estimated_constants"]) == {"L", "K", "lambda", "c2"}
    assert set(d["witness"]) == {"mu", "x", "y"}


def test_weak_interaction_remainder_is_float_noise():
    # the weak-interaction drift is affine (the bilinear terms of
    # -mu_1(a + eps mu_2) + mu_2(b + eps mu_1) cancel), so the tangent
    # response reproduces the nonlinear chord difference exactly and the
    # second-order remainder sits at roundoff level: the tangency bound
    # holds with a zero quadratic constant
    model = weak_interaction(a=1.3, b=0.7, eps=0.4)
    mu = np.array([0.6, 0.4])
    nu = np.array([0.15, 0.85])
    for t in (0.5, 1.0, 2.0):
        rem = np.abs(
            flow_map(model, t, nu) - flow_map(model, t, mu) - m1(model, t, mu, nu)
        ).sum()
        assert rem <= 1e-12


def test_remainder_halving_ratio_on_nonlinear_model():
    # on a genuinely nonlinear flow the remainder is quadratic in the chord:
    # halving the chord shrinks it by ~4 (chords small enough that the cubic
    # term of this cubic-drift model does not pollute the ratio)
    model = example_slow_conv()
    cases = [
        (np.array([0.35, 0.65]), np.array([0.6, 0.4]), 0.5),
        (np.array([0.2, 0.8]), np.array([0.45, 0.55]), 1.0),
        (np.array([0.7, 0.3]), np.array([0.5, 0.5]), 2.0),
    ]
    for mu, nu, t in cases:
        q = nu - mu
        base = flow_map(model, t, mu)
        lin = m1(model, t, mu, nu)

        def rem(c):
            return float(
                np.abs(flow_map(model, t, mu + c * q) - base - c * lin).sum()
            )

        ratio = rem(0.125) / rem(0.0625)
        assert 3.5 <= ratio <= 4.5
