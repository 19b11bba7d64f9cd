import dataclasses

import numpy as np
import pytest

from mfchain.errors import DomainExitError, InputError
from mfchain.master import (
    DT_STENCIL,
    PropagatedObservable,
    dU_dmeasure,
    dU_dmeasure_all,
    eval_U,
    eval_U_many,
    master_residual,
    master_residual_scan,
    tau_remainder,
)
from mfchain.models import (
    ValidRegion,
    constant,
    example_non_erg,
    example_slow_conv,
    weak_interaction,
)
from mfchain.rng import random_measures
from mfchain.simplex import quadratic_field, sq_dist_field

SQD = sq_dist_field(np.array([0.5, 0.5]))
QUAD = quadratic_field(np.array([[1.0, 0.2], [0.2, 0.5]]), c=np.array([0.3, -0.1]))


def test_eval_U_closed_form():
    # slow-convergence flow from (1, 0) passes through (2/3, 1/3) at t = 1/2,
    # so U(1/2, delta_1) = |(2/3, 1/3) - (1/2, 1/2)|_2^2 = 1/18
    obs = PropagatedObservable(example_slow_conv(), SQD)
    assert eval_U(obs, 0.5, np.array([1.0, 0.0])) == pytest.approx(
        1.0 / 18.0, abs=1e-10
    )
    assert eval_U(obs, 0.0, np.array([0.9, 0.1])) == pytest.approx(0.32)


def test_eval_U_many_matches_loop():
    obs = PropagatedObservable(weak_interaction(), QUAD)
    mus = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    batched = eval_U_many(obs, 1.3, mus)
    singles = [eval_U(obs, 1.3, mu) for mu in mus]
    assert np.abs(batched - singles).max() < 1e-14
    assert np.array_equal(eval_U_many(obs, 0.0, mus), QUAD(mus))
    # at s = 0 the remainder of a quadratic phi is the curvature of phi along
    # the shift (delta_z - delta_x) / N: (A_zz - 2 A_xz + A_xx) / N^2
    tau = tau_remainder(obs, 0.0, [0] * 3 + [1] * 7, i=0, z=1)
    assert tau == pytest.approx((0.5 - 0.4 + 1.0) / 100.0, rel=1e-12)


def test_observable_is_frozen():
    obs = PropagatedObservable(weak_interaction(), SQD)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obs.step = 1e-2


def test_dU_dmeasure_matches_chord_fd():
    cases = [
        (PropagatedObservable(weak_interaction(), QUAD), 1.0, [0.3, 0.7]),
        (PropagatedObservable(example_slow_conv(), SQD), 0.8, [0.75, 0.25]),
        (PropagatedObservable(example_non_erg(), QUAD), 0.6, [0.4, 0.6]),
    ]
    for obs, t, mu in cases:
        mu = np.array(mu)
        dU = dU_dmeasure_all(obs, t, mu)
        base = eval_U(obs, t, mu)
        for z in range(2):
            ez = np.zeros(2)
            ez[z] = 1.0

            def probe(e):
                return (eval_U(obs, t, (1.0 - e) * mu + e * ez) - base) / e

            fd = 2.0 * probe(5e-7) - probe(1e-6)
            assert dU[z] == pytest.approx(fd, abs=1e-7)
            assert dU_dmeasure(obs, t, mu, z) == dU[z]


def test_dU_dmeasure_at_time_zero_is_phi_derivative():
    obs = PropagatedObservable(weak_interaction(), QUAD)
    mu = np.array([0.6, 0.4])
    dU = dU_dmeasure_all(obs, 0.0, mu)
    g = QUAD.grad(mu)
    expected = g - float(g @ mu)
    assert np.abs(dU - expected).max() < 1e-12


def test_master_residual_small_across_models():
    rs = random_measures(7, 10, 2, floor=0.05)
    ts = 0.5 + 2.5 * np.linspace(0.0, 1.0, 10)
    for model in (weak_interaction(), example_non_erg(), example_slow_conv()):
        for phi in (SQD, QUAD):
            obs = PropagatedObservable(model, phi)
            res = master_residual_scan(obs, list(zip(ts, rs)))
            assert np.abs(res).max() < 1e-8


def test_master_residual_single_matches_scan():
    obs = PropagatedObservable(weak_interaction(), SQD)
    r1 = master_residual(obs, 1.2, np.array([0.3, 0.7]))
    r2 = master_residual_scan(obs, [(1.2, np.array([0.3, 0.7]))])[0]
    assert r1 == r2
    assert abs(r1) < 1e-10


def test_master_residual_needs_room_for_stencil():
    obs = PropagatedObservable(weak_interaction(), SQD)
    with pytest.raises(ValueError, match="stencil"):
        master_residual(obs, 5e-5, np.array([0.5, 0.5]))


@pytest.mark.parametrize("dt", [0.0, np.nan, -1e-4])
def test_master_residual_rejects_bad_stencil_width(dt):
    obs = PropagatedObservable(weak_interaction(), SQD)
    with pytest.raises(InputError, match="stencil width dt"):
        master_residual_scan(obs, [(1.2, np.array([0.3, 0.7]))], dt=dt)


def test_master_scan_steps_only_to_each_stencil():
    # phase 1 records at {0} and each t - dt: 0.2, 0.3 and 0.5 long intervals
    # at the default step 0.02 are 10 + 15 + 25 substeps; phase 2 is 4 steps
    # of dt/2.  Each step is 12 stages of one rates call, plus one call for
    # the drift at the initial measures.  No row steps through another
    # case's stencil.
    base = weak_interaction()
    calls = []

    def rates(m):
        calls.append(len(m))
        return base.rates(m)

    obs = PropagatedObservable(dataclasses.replace(base, rates=rates), SQD)
    dt = DT_STENCIL
    cases = [(t + dt, np.array([0.3, 0.7])) for t in (0.2, 0.5, 1.0)]
    res = master_residual_scan(obs, cases)
    assert len(calls) == 12 * (10 + 15 + 25 + 4) + 1
    assert np.abs(res).max() < 1e-10


def test_master_scan_region_exit_inside_a_stencil():
    # mu_2 = 0.5 exp(-t) leaves the region mu_2 >= 0.1 at t* = ln 5; the case
    # t = t* + dt/2 reaches t - dt in phase 1 and leaves dt after it, in the
    # second phase-2 step, and the message says what that time counts from
    model = dataclasses.replace(
        constant([[0.0, 0.0], [1.0, -1.0]]),
        valid_region=ValidRegion("mu_2 >= 0.1", min_mass=0.1))
    obs = PropagatedObservable(model, SQD)
    t = np.log(5.0) + DT_STENCIL / 2.0
    with pytest.raises(DomainExitError,
                       match=r"at t=0\.0001, counted from t - dt of the case"):
        master_residual_scan(obs, [(t, np.array([0.5, 0.5]))])


def test_tau_remainder_zero_when_no_move():
    obs = PropagatedObservable(weak_interaction(), SQD)
    assert tau_remainder(obs, 0.7, [0, 0, 1, 1], i=0, z=0) == 0.0


def test_tau_remainder_matches_direct_difference():
    # tau = U(s, mu') - U(s, mu) - (1/N)[dU_z - dU_x] computed directly
    obs = PropagatedObservable(example_slow_conv(), SQD)
    config = [0] * 3 + [1] * 7
    N = len(config)
    tau = tau_remainder(obs, 0.7, config, i=0, z=1)
    mu = np.array([0.3, 0.7])
    mu_after = np.array([0.2, 0.8])
    dU = dU_dmeasure_all(obs, 0.7, mu)
    direct = (
        eval_U(obs, 0.7, mu_after)
        - eval_U(obs, 0.7, mu)
        - (dU[1] - dU[0]) / N
    )
    assert tau == pytest.approx(direct, abs=1e-7)
    assert tau == pytest.approx(-0.0031449, abs=1e-5)


def test_tau_remainder_quadratic_scaling_in_N():
    # for a quadratic observable the remainder is exactly c / N^2, so doubling
    # N at a fixed empirical measure scales tau by 1/4
    obs = PropagatedObservable(weak_interaction(), QUAD)
    tau10 = tau_remainder(obs, 1.0, [0] * 3 + [1] * 7, i=0, z=1)
    tau20 = tau_remainder(obs, 1.0, [0] * 6 + [1] * 14, i=0, z=1)
    assert tau10 != 0.0
    assert tau10 / tau20 == pytest.approx(4.0, rel=1e-5)


def test_tau_remainder_validates_indices():
    obs = PropagatedObservable(weak_interaction(), SQD)
    with pytest.raises(ValueError):
        tau_remainder(obs, 0.5, [0, 1], i=0, z=7)
