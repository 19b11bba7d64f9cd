import dataclasses

import numpy as np
import pytest
from hypothesis import given

from mfchain import kolmogorov
from mfchain.errors import DomainExitError, InputError, SolverError
from mfchain.kolmogorov import (
    CLIP_BUDGET,
    DEFAULT_STEP,
    MAX_SUBSTEPS,
    _A,
    _B,
    _C,
    _make_measure_postproc,
    _march,
    make_grid,
    solve_flow,
    solve_kolmogorov,
    stationary_distribution,
)
from mfchain.models import (
    MARGIN_ROWS,
    Model,
    ValidRegion,
    constant,
    example_chaos,
    example_non_erg,
    example_slow_conv,
    rates_and_margin,
    slow_conv_exact,
    weak_interaction,
    zero,
)
from mfchain.rng import random_measures
from conftest import BAD_GRIDS, measure_strategy


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
    states = solve_kolmogorov(model, np.array([1.0, 0.0]), times)
    assert isinstance(states, np.ndarray)
    assert states.shape == (len(times), 2)
    exact = slow_conv_exact(times, 1.0)
    assert np.abs(states[:, 0] - exact).max() < 1e-9


def test_rk_is_eighth_order_on_affine_flow():
    # weak_interaction has closed-form m_1(t) = nu_1 + (mu_1 - nu_1) e^{-(a+b)t};
    # halving the step should shrink the error by roughly 2^8
    model = weak_interaction()
    mu0 = np.array([[0.9, 0.1]])
    times = np.array([0.0, 2.0])
    exact = 0.5 + 0.4 * np.exp(-2.0 * 2.0)

    def err(h):
        m = solve_flow(model, mu0, times, step=h)[0][0, -1, 0]
        return abs(m - exact)

    ratio = err(0.5) / err(0.25)
    assert 200.0 < ratio < 360.0


def test_rk_tableau_is_dop853():
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert np.array_equal(_C, ref.C[:12])
    assert np.array_equal(_A, ref.A[:12, :12])
    assert np.array_equal(_B, ref.B)
    assert np.abs(_A.sum(axis=1) - _C).max() <= 1e-14


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
    # a 0.25-long solve at the default step is 13 substeps x 12 stages, each
    # one rates call of the measure flow; the tangent rows add one
    # rates_and_margin call per block of substeps (one block here: 13 x 12
    # stage measures fit in MARGIN_ROWS), which makes 2 more chord probes
    # per direction when the model has no analytic derivative
    base = weak_interaction()
    if not analytic:
        base = dataclasses.replace(base, rate_derivative=None)
    model, calls = _counting(base)
    mu = np.array([[0.3, 0.7]])
    solve_flow(model, mu, [0.0, 0.25], Q0=np.eye(2) - mu[:, None, :])
    assert len(calls) == 13 * 12 + (1 if analytic else 1 + 2 * model.d)


def test_tangents_of_a_constant_chain_are_the_matrix_exponential():
    from scipy.linalg import expm

    Q = np.array([[-1.0, 0.7, 0.3], [0.2, -0.5, 0.3], [1.1, 0.4, -1.5]])
    mus = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    Q0 = np.eye(3) - mus[:, None, :]
    times = make_grid(3.0, 0.25)
    _, tangents = solve_flow(constant(Q), mus, times, Q0=Q0)
    exact = np.array([[q0 @ expm(t * Q) for t in times] for q0 in Q0])
    assert np.abs(tangents - exact).max() < 1e-13


def _co_integrated(model, mus, times, Q0, source=None):
    """The tangent rows stepped beside the measure, as one augmented RHS
    with a linearization per stage: the reference of the propagators."""
    B, k, d = Q0.shape
    measure_post = _make_measure_postproc(model)

    def f(t, Y):
        m = Y[:, :d]
        R, A = rates_and_margin(model, m)
        dQ = Y[:, d:].reshape(B, k, d) @ A
        if source is not None:
            dQ = dQ + source(t)
        return np.concatenate([np.einsum("bx,bxy->by", m, R),
                               dQ.reshape(B, k * d)], axis=1)

    def postproc(t, Y):
        Y[:, :d] = measure_post(t, Y[:, :d])
        Q = Y[:, d:].reshape(B, k, d)
        Q -= Q.mean(axis=-1, keepdims=True)
        return Y

    Y0 = np.concatenate([mus, Q0.reshape(B, k * d)], axis=1)
    out = np.stack([Y0] + [Y for _, _, Y, end in _march(
        f, Y0, times, DEFAULT_STEP, postproc, MAX_SUBSTEPS) if end], axis=1)
    return out[:, :, :d], out[:, :, d:].reshape(B, len(times), k, d)


def _sine_source(t):
    return np.sin(3.0 * t) * np.array([0.4, -0.4])


@pytest.mark.parametrize("source", [None, _sine_source], ids=["free", "source"])
def test_propagators_match_co_integrated_tangents(source):
    # the barycentre of example_non_erg is an unstable rest point, so its
    # tangents grow like e^{2t}; the error is relative to each time's size
    model = example_non_erg()
    mus = np.array([[0.5, 0.5], [0.3, 0.7], [0.8, 0.2]])
    Q0 = np.eye(2) - mus[:, None, :]
    times = make_grid(5.0, 0.25)
    ref_states, ref = _co_integrated(model, mus, times, Q0, source)
    states, tangents = solve_flow(model, mus, times, Q0=Q0, source=source)
    assert np.array_equal(states, ref_states)
    scale = np.abs(ref).max(axis=(2, 3), keepdims=True)
    assert (np.abs(tangents - ref) / scale).max() < 1e-12


@pytest.mark.parametrize("model", [example_non_erg(), example_chaos()],
                         ids=lambda m: m.name)
def test_rows_do_not_depend_on_how_blocks_split_an_interval(model):
    # MARGIN_ROWS // 12 rows make blocks of one substep each, while one row
    # alone steps a whole interval in one block: each row's states and
    # tangents are bitwise those of its own solve, with a source too
    d = model.d
    B = MARGIN_ROWS // 12
    mus = 0.9 / d + 0.1 * random_measures(5, B, d)      # chaos stays valid
    frames = np.eye(d) - mus[:, None, :]
    times = [0.0, 0.1, 0.16]

    def source(t):
        return np.cos(t) * (np.eye(d) - 1.0 / d)

    states, tangents = solve_flow(model, mus, times, Q0=frames, source=source)
    for i in range(0, B, 7):
        alone = solve_flow(model, mus[i:i + 1], times, Q0=frames[i:i + 1],
                           source=source)
        assert np.array_equal(states[i], alone[0][0]), i
        assert np.array_equal(tangents[i], alone[1][0]), i


@pytest.mark.parametrize("model", [example_non_erg(), example_chaos()],
                         ids=lambda m: m.name)
def test_propagator_blocks_stay_under_the_cap_at_any_batch(model, monkeypatch):
    # 100 rows make a block of one substep with 1 200 stage measures; they
    # are linearized MARGIN_ROWS at a time, and every row's states and
    # tangents are bitwise those of its own solve
    d, B = model.d, 100
    mus = 0.9 / d + 0.1 * random_measures(6, B, d)
    frames = np.eye(d) - mus[:, None, :]
    times = [0.0, 0.1, 0.16]
    sizes = []

    def counted(model, mus):
        sizes.append(len(mus))
        return rates_and_margin(model, mus)

    def source(t):
        return np.cos(t) * (np.eye(d) - 1.0 / d)

    monkeypatch.setattr(kolmogorov, "rates_and_margin", counted)
    states, tangents = solve_flow(model, mus, times, Q0=frames, source=source)
    assert max(sizes) <= MARGIN_ROWS
    assert sorted(set(sizes)) == [12 * B - MARGIN_ROWS, MARGIN_ROWS]
    for i in range(B):
        alone = solve_flow(model, mus[i:i + 1], times, Q0=frames[i:i + 1],
                           source=source)
        assert np.array_equal(states[i], alone[0][0]), i
        assert np.array_equal(tangents[i], alone[1][0]), i


def test_solve_flow_rejects_bad_grids():
    model = weak_interaction()
    for times in BAD_GRIDS:
        with pytest.raises(InputError, match="recording grid"):
            solve_flow(model, [[0.9, 0.1]], times)


def test_solve_flow_rejects_bad_measures_and_tangent_rows():
    model = weak_interaction()
    # a 3-entry measure on a d = 2 model used to be a raw broadcast error
    for mus in ([[0.2, 0.3, 0.5]], [0.9, 0.1], np.zeros((0, 2))):
        with pytest.raises(InputError, match=r"initial measures must be a \(B, 2\)"):
            solve_flow(model, mus, [0.0, 1.0])
    with pytest.raises(InputError, match="initial measures"):
        solve_kolmogorov(model, [0.2, 0.3, 0.5], [0.0, 1.0])
    # Q0 of the wrong shape used to be a raw "cannot reshape" error
    for Q0 in (np.zeros((1, 2)), np.zeros((2, 1, 2)), np.zeros((1, 1, 3))):
        with pytest.raises(InputError, match=r"Q0 must be a \(B, k, d\)"):
            solve_flow(model, [[0.9, 0.1]], [0.0, 1.0], Q0=Q0)
    # a non-zero-sum row is refused (see test_linearized.py), NaN included
    with pytest.raises(InputError, match="tangent row sums to nan"):
        solve_flow(model, [[0.9, 0.1]], [0.0, 1.0], Q0=[[[np.nan, 0.0]]])
    # a grown frame with roundoff far above 1e-12 absolute still passes
    mu = np.array([0.3, 0.7])
    Q0 = 1e8 * (np.eye(2) - mu)
    Q0[0, 0] += 1e-6
    _, tangents = solve_flow(model, mu[None], [0.0, 0.5], Q0=Q0[None])
    assert np.abs(tangents[0, -1].sum(axis=-1)).max() < 1e-4


def test_march_refuses_more_than_max_substeps_before_stepping():
    # a 5e-324 step used to end in math.ceil's OverflowError, and a 1e-9
    # step marched until killed; the count is over the whole grid
    model, calls = _counting(weak_interaction())
    mu = np.array([[0.9, 0.1]])
    for times, step in (([0.0, 1.0], 5e-324), ([0.0, 1.0], 1e-9),
                        ([0.0, 1.0, 2.0], 1.5 / MAX_SUBSTEPS)):
        for Q0 in (None, np.eye(2) - mu[:, None, :]):
            with pytest.raises(InputError, match="substeps to reach t = "):
                solve_flow(model, mu, times, step, Q0=Q0)
    with pytest.raises(InputError, match="substeps"):
        stationary_distribution(model, mu[0], step=1e-9)
    assert len(calls) == 1          # the stationary search's first residual
    # a start that needs no march takes no step, whatever the step
    assert stationary_distribution(zero(2), step=1e-9)[1]["march_time"] == 0.0


def test_validate_grid():
    # solve_kolmogorov has no grid check of its own: it relies on solve_flow's
    model = weak_interaction()
    for times in BAD_GRIDS:
        with pytest.raises(InputError, match="recording grid"):
            solve_kolmogorov(model, [0.9, 0.1], times)
    # a grid may start after t = 0 and may repeat a time
    for times in ([0.0, 0.5, 1.0], [0.5, 1.0], [0.0, 1.0, 1.0]):
        states = solve_kolmogorov(model, [0.9, 0.1], times)
        assert states.shape == (len(times), 2)
        assert np.array_equal(states[0], [0.9, 0.1])


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
    # the time-t flow map m(t; mu0) is the last row of a solve on [0, t]
    mu0 = np.array([0.3, 0.7])
    assert np.array_equal(solve_kolmogorov(weak_interaction(), mu0, [0.0, 0.0])[-1],
                          mu0)
    with pytest.raises(ValueError):
        solve_kolmogorov(weak_interaction(), mu0, [0.0, -1.0])


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


def test_stationary_march_is_one_pass(monkeypatch):
    # phase 1 used to call solve_flow once per time unit, each call with a
    # fresh clip budget; it is now one march over the grid 0, 1, 2, 3, 3.5,
    # with the states of that span-by-span march bit for bit
    model = example_slow_conv()
    mu = [np.array([0.9, 0.1])]
    for span in (1.0, 1.0, 1.0, 0.5):
        mu.append(solve_kolmogorov(model, mu[-1], [0.0, span])[-1])
    monkeypatch.setattr(kolmogorov, "solve_flow", None)
    _, info = stationary_distribution(model, mu[0], max_time=3.5)
    assert info["march_time"] == 3.5
    assert info["march_residual"] == np.abs(mu[-1] @ model.rates(mu[-1])).sum()
    assert info["note"].startswith("march hit max_time")


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
