import dataclasses

import numpy as np
import pytest

from mfchain.errors import DomainExitError, InputError
from mfchain.master import (
    DT_STENCIL,
    dU_dmeasure_all,
    eval_U,
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
    model = example_slow_conv()
    assert eval_U(model, SQD, 0.5, np.array([1.0, 0.0])) == pytest.approx(
        1.0 / 18.0, abs=1e-10
    )
    assert eval_U(model, SQD, 0.0, np.array([0.9, 0.1])) == pytest.approx(0.32)


def test_eval_U_rejects_a_measure_of_the_wrong_dimension():
    # a 3-entry measure on a d = 2 model used to be a raw broadcast error
    with pytest.raises(InputError, match=r"initial measures must be a \(B, 2\)"):
        eval_U(weak_interaction(), SQD, 1.0, [0.2, 0.3, 0.5])


def test_eval_U_batch_matches_loop():
    model = weak_interaction()
    mus = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    batched = eval_U(model, QUAD, 1.3, mus)
    singles = [eval_U(model, QUAD, 1.3, mu) for mu in mus]
    assert batched.shape == (3,)
    assert all(type(u) is float for u in singles)
    assert np.abs(batched - singles).max() < 1e-14
    assert np.array_equal(eval_U(model, QUAD, 0.0, mus), QUAD(mus))
    # a (2, 3, d) batch is one flow solve, shaped (2, 3)
    grid = np.array([mus, mus[::-1]])
    U = eval_U(model, QUAD, 1.3, grid)
    assert U.shape == (2, 3)
    assert np.array_equal(U, np.array([batched, batched[::-1]]))
    # at s = 0 the remainder of a quadratic phi is the curvature of phi along
    # the shift (delta_z - delta_x) / N: (A_zz - 2 A_xz + A_xx) / N^2
    tau = tau_remainder(model, QUAD, 0.0, [0] * 3 + [1] * 7, i=0, z=1)
    assert tau == pytest.approx((0.5 - 0.4 + 1.0) / 100.0, rel=1e-12)


def test_dU_dmeasure_matches_chord_fd():
    cases = [
        (weak_interaction(), QUAD, 1.0, [0.3, 0.7]),
        (example_slow_conv(), SQD, 0.8, [0.75, 0.25]),
        (example_non_erg(), QUAD, 0.6, [0.4, 0.6]),
    ]
    for model, phi, t, mu in cases:
        mu = np.array(mu)
        dU = dU_dmeasure_all(model, phi, t, mu)
        base = eval_U(model, phi, t, mu)
        for z in range(2):
            ez = np.zeros(2)
            ez[z] = 1.0

            def probe(e):
                return (eval_U(model, phi, t, (1.0 - e) * mu + e * ez) - base) / e

            fd = 2.0 * probe(5e-7) - probe(1e-6)
            assert dU[z] == pytest.approx(fd, abs=1e-7)


def test_dU_dmeasure_at_time_zero_is_phi_derivative():
    mu = np.array([0.6, 0.4])
    dU = dU_dmeasure_all(weak_interaction(), QUAD, 0.0, mu)
    g = QUAD.grad(mu)
    expected = g - float(g @ mu)
    assert np.abs(dU - expected).max() < 1e-12


def test_dU_dmeasure_batch_matches_single_measures():
    # a (..., d) batch is one flow solve; each row agrees with its own solve
    model = example_slow_conv()
    mus = np.array([[[0.3, 0.7], [0.8, 0.2]], [[0.5, 0.5], [0.1, 0.9]]])
    batched = dU_dmeasure_all(model, QUAD, 0.9, mus)
    assert batched.shape == mus.shape
    singles = np.array([[dU_dmeasure_all(model, QUAD, 0.9, mu) for mu in row]
                        for row in mus])
    assert np.abs(batched - singles).max() < 1e-14
    for bad in (0.5, [[0.5, 0.6]]):
        with pytest.raises(InputError, match="measure"):
            dU_dmeasure_all(model, QUAD, 0.9, bad)
        with pytest.raises(InputError, match="measure"):
            eval_U(model, QUAD, 0.9, bad)


def test_master_residual_small_across_models():
    rs = random_measures(7, 10, 2, floor=0.05)
    ts = 0.5 + 2.5 * np.linspace(0.0, 1.0, 10)
    for model in (weak_interaction(), example_non_erg(), example_slow_conv()):
        for phi in (SQD, QUAD):
            res = master_residual_scan(model, phi, list(zip(ts, rs)))
            assert np.abs(res).max() < 1e-8


def test_master_residual_single_matches_scan():
    # a single (t, mu) is a one-case scan
    r = master_residual_scan(weak_interaction(), SQD, [(1.2, np.array([0.3, 0.7]))])
    assert r.shape == (1,)
    assert abs(r[0]) < 1e-10


def test_master_residual_needs_room_for_stencil():
    with pytest.raises(InputError, match="stencil"):
        master_residual_scan(weak_interaction(), SQD, [(5e-5, np.array([0.5, 0.5]))])


@pytest.mark.parametrize("dt", [0.0, np.nan, -1e-4])
def test_master_residual_rejects_bad_stencil_width(dt):
    with pytest.raises(InputError, match="stencil width dt"):
        master_residual_scan(weak_interaction(), SQD,
                             [(1.2, np.array([0.3, 0.7]))], dt=dt)


def test_master_scan_steps_only_to_each_stencil():
    # phase 1 records at {0} and each t - dt: 0.2, 0.3 and 0.5 long intervals
    # at the default step 0.02 are 10 + 15 + 25 substeps; phase 2 is 4 steps
    # of dt/2.  Each step is 12 stages of one rates call, plus one call for
    # the drift at the initial measures.  The tangent frames add one
    # rates_and_margin call per block of substeps: 3 cases make blocks of up
    # to MARGIN_ROWS // 36 = 28 substeps, one per interval, so 3 blocks in
    # phase 1 and 4 in phase 2.  No row steps through another case's
    # stencil.
    base = weak_interaction()
    calls = []

    def rates(m):
        calls.append(len(m))
        return base.rates(m)

    model = dataclasses.replace(base, rates=rates)
    dt = DT_STENCIL
    cases = [(t + dt, np.array([0.3, 0.7])) for t in (0.2, 0.5, 1.0)]
    res = master_residual_scan(model, SQD, cases)
    assert len(calls) == 12 * (10 + 15 + 25 + 4) + 1 + 3 + 4
    assert np.abs(res).max() < 1e-10


def test_master_scan_region_exit_inside_a_stencil():
    # mu_2 = 0.5 exp(-t) leaves the region mu_2 >= 0.1 at t* = ln 5; the case
    # t = t* + dt/2 reaches t - dt in phase 1 and leaves dt after it, in the
    # second phase-2 step, and the message says what that time counts from
    model = dataclasses.replace(
        constant([[0.0, 0.0], [1.0, -1.0]]),
        valid_region=ValidRegion("mu_2 >= 0.1", min_mass=0.1))
    t = np.log(5.0) + DT_STENCIL / 2.0
    with pytest.raises(DomainExitError,
                       match=r"at t=0\.0001, counted from t - dt of the case"):
        master_residual_scan(model, SQD, [(t, np.array([0.5, 0.5]))])


def test_tau_remainder_zero_when_no_move():
    assert tau_remainder(weak_interaction(), SQD, 0.7, [0, 0, 1, 1], i=0, z=0) == 0.0


def test_tau_remainder_matches_direct_difference():
    # tau = U(s, mu') - U(s, mu) - (1/N)[dU_z - dU_x] computed directly
    model = example_slow_conv()
    config = [0] * 3 + [1] * 7
    N = len(config)
    tau = tau_remainder(model, SQD, 0.7, config, i=0, z=1)
    mu = np.array([0.3, 0.7])
    mu_after = np.array([0.2, 0.8])
    dU = dU_dmeasure_all(model, SQD, 0.7, mu)
    direct = (
        eval_U(model, SQD, 0.7, mu_after)
        - eval_U(model, SQD, 0.7, mu)
        - (dU[1] - dU[0]) / N
    )
    assert tau == pytest.approx(direct, abs=1e-7)
    assert tau == pytest.approx(-0.0031449, abs=1e-5)


def test_tau_remainder_quadratic_scaling_in_N():
    # for a quadratic observable the remainder is exactly c / N^2, so doubling
    # N at a fixed empirical measure scales tau by 1/4
    model = weak_interaction()
    tau10 = tau_remainder(model, QUAD, 1.0, [0] * 3 + [1] * 7, i=0, z=1)
    tau20 = tau_remainder(model, QUAD, 1.0, [0] * 6 + [1] * 14, i=0, z=1)
    assert tau10 != 0.0
    assert tau10 / tau20 == pytest.approx(4.0, rel=1e-5)


def test_tau_remainder_validates_indices():
    model = weak_interaction()
    with pytest.raises(InputError, match="state index 7"):
        tau_remainder(model, SQD, 0.5, [0, 1], i=0, z=7)
    # a configuration entry outside [0, d) used to be a raw broadcast error,
    # an i outside the configuration a raw IndexError
    for config in ([0, 2], [-1, 1], [], [[0, 1]]):
        with pytest.raises(InputError, match="configuration"):
            tau_remainder(model, SQD, 0.5, config, i=0, z=1)
    for i in (2, -1):
        with pytest.raises(InputError, match="particle index"):
            tau_remainder(model, SQD, 0.5, [0, 1], i=i, z=1)
