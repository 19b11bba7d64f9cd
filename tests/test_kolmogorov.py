import dataclasses

import numpy as np
import pytest
from hypothesis import given

from mfchain.errors import DomainExitError, InputError, SolverError
from mfchain.kolmogorov import (
    CLIP_BUDGET,
    Trajectory,
    _A,
    _B,
    _C,
    _make_measure_postproc,
    flow_map,
    make_grid,
    rk_segments,
    solve_flow,
    solve_kolmogorov,
    stationary_distribution,
)
from mfchain.models import (
    Model,
    ValidRegion,
    constant,
    example_chaos,
    example_non_erg,
    example_slow_conv,
    slow_conv_exact,
    weak_interaction,
    zero,
)
from mfchain.rng import random_measures
from conftest import measure_strategy


def test_make_grid_exact():
    g = make_grid(5.0, 0.25)
    assert np.array_equal(g, 0.25 * np.arange(21))   # binary-exact spacing
    assert g[-1] == 5.0
    assert np.array_equal(make_grid(1.0, 0.3), 0.3 * np.arange(4))
    with pytest.raises(ValueError):
        make_grid(-1.0, 0.1)
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0)


def test_solve_matches_closed_form_slow_conv():
    model = example_slow_conv()
    times = make_grid(5.0, 0.25)
    traj = solve_kolmogorov(model, np.array([1.0, 0.0]), times)
    assert isinstance(traj, Trajectory)
    assert traj.model_name == model.name
    assert traj.states.shape == (len(times), 2)
    exact = slow_conv_exact(times, 1.0)
    assert np.abs(traj.states[:, 0] - exact).max() < 1e-9


def test_rk_is_eighth_order_on_affine_flow():
    # weak_interaction has closed-form m_1(t) = nu_1 + (mu_1 - nu_1) e^{-(a+b)t};
    # halving the step should shrink the error by roughly 2^8
    model = weak_interaction()
    mu0 = np.array([[0.9, 0.1]])
    times = np.array([0.0, 2.0])
    exact = 0.5 + 0.4 * np.exp(-2.0 * 2.0)

    def err(h):
        m = rk_segments(_drift_of(model), mu0, times, h)[0, -1, 0]
        return abs(m - exact)

    ratio = err(0.5) / err(0.25)
    assert 200.0 < ratio < 360.0


def test_rk_tableau_is_dop853():
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert np.array_equal(_C, ref.C[:12])
    assert np.array_equal(_A, ref.A[:12, :12])
    assert np.array_equal(_B, ref.B)
    assert np.abs(_A.sum(axis=1) - _C).max() <= 1e-14


def _drift_of(model):
    def f(t, m):
        return np.einsum("bx,bxy->by", m, model.rates(m))

    return f


@given(measure_strategy(2))
def test_flow_stays_on_simplex(mu0):
    model = example_non_erg()
    states = solve_flow(model, [mu0], make_grid(2.0, 0.5), step=1e-2)[0]
    assert np.abs(states.sum(axis=-1) - 1.0).max() < 1e-12
    assert states.min() >= 0.0


def test_chaos_flow_stays_valid():
    model = example_chaos()
    states = solve_flow(model, [np.full(4, 0.25)], make_grid(1.0, 0.25))[0]
    assert np.abs(states.sum(axis=-1) - 1.0).max() < 1e-12
    assert states.min() >= model.valid_region.min_mass - 1e-12


# --- the flow-and-tangent core ------------------------------------------------


@pytest.mark.parametrize("model", [example_non_erg(), example_chaos()],
                         ids=lambda m: m.name)
def test_flow_states_do_not_depend_on_tangent_rows(model):
    d = model.d
    mus = np.array([np.full(d, 1.0 / d), np.linspace(1.0, 2.0, d) / (1.5 * d)])
    times = make_grid(1.0, 0.25)
    alone, none = solve_flow(model, mus, times)
    assert none.shape == (2, len(times), 0, d)
    states, tangents = solve_flow(model, mus, times,
                                  Q0=np.eye(d) - mus[:, None, :])
    assert tangents.shape == (2, len(times), d, d)
    assert np.array_equal(states, alone)


@pytest.mark.parametrize("model", [example_non_erg(), example_chaos()],
                         ids=lambda m: m.name)
def test_rows_do_not_depend_on_batch_size_or_tangent_rows(model):
    # each row is integrated on its own: at every batch size its states and
    # tangents equal its single-row solve bitwise, and the states equal those
    # of a solve without tangents (near the barycentre, so that the chaos
    # flow stays in its region)
    d = model.d
    mus = 0.8 / d + 0.2 * random_measures(3, 7, d)
    times = make_grid(1.0, 0.25)
    frames = np.eye(d) - mus[:, None, :]
    singles = [solve_flow(model, mus[i:i + 1], times, Q0=frames[i:i + 1])
               for i in range(len(mus))]
    for B in range(1, len(mus) + 1):
        alone = solve_flow(model, mus[:B], times)[0]
        states, tangents = solve_flow(model, mus[:B], times, Q0=frames[:B])
        assert np.array_equal(states, alone), B
        for i in range(B):
            assert np.array_equal(states[i], singles[i][0][0]), (B, i)
            assert np.array_equal(tangents[i], singles[i][1][0]), (B, i)


def _counting(model):
    calls = []

    def rates(m):
        calls.append(len(m))
        return model.rates(m)

    return dataclasses.replace(model, rates=rates), calls


def test_zero_length_interval_records_start_without_rhs():
    model, calls = _counting(example_non_erg())
    mu = np.array([[0.3, 0.7]])
    Q0 = np.array([[[0.7, -0.7], [-0.3, 0.3]]])
    states, tangents = solve_flow(model, mu, [0.0, 0.0], Q0=Q0)
    assert calls == []
    assert np.array_equal(states[0], [mu[0], mu[0]])
    assert np.array_equal(tangents[0], [Q0[0], Q0[0]])
    # a repeated grid time costs nothing and records the same state twice
    plain = solve_flow(model, mu, [0.0, 0.5, 1.0], step=0.1)[0]
    n_plain = len(calls)
    repeated = solve_flow(model, mu, [0.0, 0.5, 0.5, 1.0], step=0.1)[0]
    assert len(calls) == 2 * n_plain
    assert np.array_equal(repeated[0], plain[0][[0, 1, 1, 2]])


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "chord-fd"])
def test_one_rates_call_per_tangent_stage(analytic):
    # a 0.25-long solve at the default step is 13 substeps x 12 stages; each
    # tangent RHS evaluates the rates once, plus 2 chord probes per direction
    # when the model has no analytic derivative
    base = weak_interaction()
    if not analytic:
        base = dataclasses.replace(base, rate_derivative=None)
    model, calls = _counting(base)
    mu = np.array([[0.3, 0.7]])
    solve_flow(model, mu, [0.0, 0.25], Q0=np.eye(2) - mu[:, None, :])
    assert len(calls) == 13 * 12 * (1 if analytic else 1 + 2 * model.d)


BAD_GRIDS = ([0.0, 1.0, 0.5], [[0.0, 1.0]], [0.0, np.nan], [0.0, np.inf], [],
             [-1.0, 1.0])


def test_solve_flow_rejects_bad_grids():
    model = weak_interaction()
    for times in BAD_GRIDS:
        with pytest.raises(InputError, match="recording grid"):
            solve_flow(model, [[0.9, 0.1]], times)


def test_validate_grid():
    # solve_kolmogorov has no grid check of its own: it relies on solve_flow's
    model = weak_interaction()
    for times in BAD_GRIDS:
        with pytest.raises(InputError, match="recording grid"):
            solve_kolmogorov(model, [0.9, 0.1], times)
    # a grid may start after t = 0 and may repeat a time
    for times in ([0.0, 0.5, 1.0], [0.5, 1.0], [0.0, 1.0, 1.0]):
        traj = solve_kolmogorov(model, [0.9, 0.1], times)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states[0], [0.9, 0.1])


# --- postprocessor safeguards ------------------------------------------------


def test_postproc_clips_tiny_negative():
    pp = _make_measure_postproc(zero(2))
    y = pp(0.0, np.array([[-5e-11, 1.0 + 5e-11]]))
    assert np.array_equal(y, [[0.0, 1.0]])


def test_postproc_rejects_large_negative():
    pp = _make_measure_postproc(zero(2))
    with pytest.raises(SolverError, match="reduce the step"):
        pp(0.0, np.array([[-5e-10, 1.0 + 5e-10]]))


def test_postproc_cumulative_budget():
    pp = _make_measure_postproc(zero(2))
    n_ok = int(CLIP_BUDGET / 9e-11)  # per-call clip below the floor trigger
    with pytest.raises(SolverError, match="cumulative"):
        for _ in range(n_ok + 5):
            pp(0.0, np.array([[-9e-11, 1.0 + 9e-11]]))


def test_postproc_region_watchdog():
    m = zero(2)
    guarded = Model(
        name="guarded",
        d=2,
        rates=m.rates,
        rate_derivative=m.rate_derivative,
        valid_region=ValidRegion("min 0.2", min_mass=0.2),
    )
    pp = _make_measure_postproc(guarded)
    with pytest.raises(DomainExitError) as exc:
        pp(1.5, np.array([[0.1, 0.9]]))
    assert exc.value.time == 1.5


def test_domain_exit_reports_time():
    # mass drains from state 2 into state 1; m_2(t) = 0.5 e^{-t} crosses the
    # 0.2 floor at t = ln(2.5) ~ 0.916
    base = constant(np.array([[0.0, 0.0], [1.0, -1.0]]))
    leaky = Model(
        name="leaky",
        d=2,
        rates=base.rates,
        rate_derivative=base.rate_derivative,
        valid_region=ValidRegion("min 0.2", min_mass=0.2),
    )
    with pytest.raises(DomainExitError) as exc:
        solve_kolmogorov(leaky, np.array([0.5, 0.5]), make_grid(2.0, 0.05))
    assert exc.value.time == pytest.approx(np.log(2.5), abs=0.06)


def test_flow_map_identity_and_validation():
    mu0 = np.array([0.3, 0.7])
    assert np.array_equal(flow_map(weak_interaction(), 0.0, mu0), mu0)
    with pytest.raises(ValueError):
        flow_map(weak_interaction(), -1.0, mu0)


# --- stationary search -------------------------------------------------------


def test_stationary_weak_interaction():
    nu, info = stationary_distribution(weak_interaction(1.5, 0.5, 0.25))
    assert np.abs(nu - [0.25, 0.75]).max() < 1e-9
    assert info["converged"]


def test_stationary_slow_conv_degenerate_root():
    # the linearization vanishes at the rest point, so this exercises the
    # damped-Newton path at a cubic-degenerate zero
    nu, info = stationary_distribution(
        example_slow_conv(), np.array([0.9, 0.1]), tol=1e-10
    )
    assert np.abs(nu - 0.5).max() < 2e-4
    assert info["residual"] <= 1e-9
    assert info["converged"]
    assert info["newton_iterations"] > 0


def test_stationary_non_erg_basin():
    # from mu_1 = 0.2 the flow selects the stable rest point at 1/4
    nu, _ = stationary_distribution(example_non_erg(), np.array([0.2, 0.8]))
    assert np.abs(nu - [0.25, 0.75]).max() < 1e-9


def test_stationary_zero_model():
    nu, info = stationary_distribution(zero(3))
    assert np.array_equal(nu, np.ones(3) / 3)
    assert info["march_time"] == 0.0
    assert info["newton_iterations"] == 0


def test_slow_conv_polynomial_decay_band():
    # t |m(t) - nu|_1^2 = t/(1 + 16 t) from (1, 0): bounded in [1/64, 1/16]
    # past t = 1/48 — the witness that convergence is not exponential
    model = example_slow_conv()
    times = np.arange(1, 401) * 0.05
    states = solve_flow(
        model, [np.array([1.0, 0.0])], np.concatenate([[0.0], times])
    )[0][0, 1:]
    vals = times * (np.abs(states - 0.5).sum(axis=1) ** 2)
    assert vals.min() >= 1.0 / 64.0 - 1e-3
    assert vals.max() <= 1.0 / 16.0 + 1e-3
