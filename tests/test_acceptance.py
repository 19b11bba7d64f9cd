"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE n: PASS/FAIL — detail` line (run pytest with
-s to see them all) and then asserts the stated bound.  The weak-error study
(criteria 3, 4, 11) runs once per session through the CLI entry point, twice —
with 1 and with 8 threads — to check byte-level reproducibility.
"""

import json
import os
import time

import numpy as np
import pytest

from mfchain.cli import main
from mfchain.kolmogorov import solve_kolmogorov
from mfchain.linearized import (
    check_condition2,
    estimate_decay,
    m1,
    nonlinear_contraction_rate,
)
from mfchain.master import dU_dmeasure_all, eval_U, master_residual_scan
from mfchain.models import (
    Model,
    constant,
    example_non_erg,
    example_slow_conv,
    slow_conv_exact,
    weak_interaction,
)
from mfchain.rng import DOMAIN_SCAN, domain_key, random_measures, stream_key, uniforms
from mfchain.simplex import functional_derivative_all, quadratic_field, sq_dist_field

SYM2 = np.array([[-1.0, 1.0], [1.0, -1.0]])
Q3 = np.array([[-1.0, 0.7, 0.3], [0.2, -0.5, 0.3], [1.0, 1.0, -2.0]])


def announce(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def _report(out):
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def weak_error_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("weak_error")
    out1, out8 = str(base / "threads1"), str(base / "threads8")
    args = [
        "weak-error",
        "--model.name=weak_interaction",
        "--observable.target=0.5,0.5",
        "--init.mu=0.9,0.1",
        "--run.horizon=20", "--run.spacing=0.25",
        "--run.R=20000", "--run.Ns=8,16,32,64,128,256",
        "--seed", "12345",
    ]
    t0 = time.perf_counter()
    rc1 = main(args + ["--threads", "1", "--out", out1])
    seconds = time.perf_counter() - t0
    rc8 = main(args + ["--threads", "8", "--out", out8])
    return {"out1": out1, "out8": out8, "rc1": rc1, "rc8": rc8,
            "seconds": seconds}


def test_criterion_01_flow_matches_closed_form():
    t0 = time.perf_counter()
    times = np.linspace(0.0, 50.0, 200)
    states = solve_kolmogorov(example_slow_conv(), np.array([1.0, 0.0]), times)
    seconds = time.perf_counter() - t0
    err = float(np.abs(states[:, 0] - slow_conv_exact(times, 1.0)).max())
    ok = err < 1e-6 and seconds < 5.0
    announce(1, ok, f"max error {err:.2e} over 200 points, {seconds:.2f}s")
    assert err < 1e-6
    assert seconds < 5.0


def test_criterion_02_rest_points_and_failure_witness():
    model = example_non_erg()
    worst = 0.0
    for u in (0.25, 0.5, 0.75):
        mu = np.array([u, 1.0 - u])
        worst = max(worst, float(np.abs(mu @ model.rates(mu)).sum()))
    rep = check_condition2(model)
    witness_ok = (
        rep["verdict"] == "fail"
        and rep["margin"] <= -0.9
        and rep["witness"]["mu"] == [0.5, 0.5]
        and (rep["witness"]["x"], rep["witness"]["y"]) == (1, 2)
    )
    ok = worst < 1e-12 and witness_ok
    announce(2, ok, f"max |drift|_1 at rest points {worst:.1e}; "
                    f"condition-2 {rep['verdict']}, margin {rep['margin']:.3f} at "
                    f"mu={rep['witness']['mu']}, (x,y)=({rep['witness']['x']},{rep['witness']['y']})")
    assert worst < 1e-12
    assert witness_ok


def test_criterion_03_weak_error_rate(weak_error_runs):
    rep = _report(weak_error_runs["out1"])
    slope = rep["fit"]["slope"]
    sups = {rec["N"]: rec["sup_error"] for rec in rep["per_N"]}
    ratio = sups[8] / sups[256]
    seconds = weak_error_runs["seconds"]
    ok = (-1.3 <= slope <= -0.7) and ratio >= 16.0 and seconds < 600.0
    announce(3, ok, f"slope {slope:.3f}, sup(N=8)/sup(N=256) = {ratio:.1f}, "
                    f"runtime {seconds:.0f}s, exit code {weak_error_runs['rc1']}")
    assert -1.3 <= slope <= -0.7
    assert ratio >= 16.0
    assert seconds < 600.0


def test_criterion_04_error_decomposition(weak_error_runs):
    rep = _report(weak_error_runs["out1"])
    worst = 0.0
    for rec in rep["per_N"]:
        t1 = np.array(rec["T1_curve"])
        t2 = np.array(rec["T2_curve"])
        err = np.array(rec["error_curve"])
        se = np.array(rec["stderr_curve"])
        gap = np.abs(t1 + t2 - err)
        assert np.all(gap <= 3.0 * se + 1e-15), f"N={rec['N']}"
        worst = max(worst, float(gap.max()))
    announce(4, True, f"max |T1+T2-total| {worst:.1e} (decomposition is exact)")


def test_criterion_05_stationary_gap(tmp_path):
    outc = str(tmp_path / "const")
    rc = main(["stationary-gap", "--model.name=constant",
               "--model.Q=-1,1;1,-1", "--gap.R=800", "--gap.Ns=10,100,1000",
               "--gap.window=10", "--decay.horizon=6", "--seed", "7",
               "--out", outc])
    assert rc in (0, 2)
    repc = _report(outc)
    zs = {}
    for rec in repc["per_N"]:
        zs[rec["N"]] = (rec["gap"] - 0.5 / rec["N"]) / max(rec["stderr"], 1e-300)
    z_ok = all(abs(z) < 4.0 for z in zs.values())

    outw = str(tmp_path / "weak")
    rc = main(["stationary-gap", "--model.name=weak_interaction",
               "--gap.R=800", "--gap.Ns=10,100,1000", "--gap.window=10",
               "--decay.horizon=6", "--seed", "7", "--out", outw])
    assert rc in (0, 2)
    slope = _report(outw)["fit"]["slope"]
    slope_ok = -1.3 <= slope <= -0.7
    ok = z_ok and slope_ok
    announce(5, ok, "constant-chain z-scores "
             + ", ".join(f"N={n}: {z:+.2f}" for n, z in sorted(zs.items()))
             + f"; weak-interaction gap slope {slope:.3f}")
    assert z_ok
    assert slope_ok


def quadratic_drift(a, b, eps):
    """Two-state family alpha_12 = a + eps mu_1, alpha_21 = b + eps mu_1.

    It differs from weak_interaction only in the first rate.  The drift
    mu_1' = b - (a + b) mu_1 + eps mu_1 (1 - 2 mu_1) has second derivative
    -4 eps, which never changes sign, so for eps > 0 the flow is not affine
    in the measure.  The derivative is analytic: a chord finite difference
    would add error as large as the smallest remainders checked below.
    """

    def generator(g, h):
        out = np.empty(np.shape(g) + (2, 2))
        out[..., 0, 0], out[..., 0, 1] = -g, g
        out[..., 1, 0], out[..., 1, 1] = h, -h
        return out

    def rates(mu):
        u = np.asarray(mu, dtype=float)[..., 0]
        return generator(a + eps * u, b + eps * u)

    def deriv(mu):
        mu = np.asarray(mu, dtype=float)
        out = np.empty(mu.shape[:-1] + (2, 2, 2))
        for z in range(2):
            g = eps * ((1.0 if z == 0 else 0.0) - mu[..., 0])
            out[..., z, :, :] = generator(g, g)
        return out

    return Model(name=f"quadratic_drift(a={a},b={b},eps={eps})", d=2,
                 rates=rates, rate_derivative=deriv)


def test_criterion_06_second_order_remainder_ratio():
    # The flow is twice differentiable in the measure: the remainder
    # m(t; mu + c q) - m(t; mu) - c m1(t) is quadratic in the chord c, so
    # halving c shrinks it by ~4.  This is checked on quadratic_drift, whose
    # flow is not affine.  On weak_interaction, drawn with the same
    # parameters, the interaction terms cancel in the drift, the flow is
    # affine and the linearization is exact: there the remainder must sit at
    # roundoff.  A half-chord remainder at roundoff would make the ratio
    # noise, so it fails the check instead of passing as a ratio.
    key = domain_key(stream_key(777, 0), DOMAIN_SCAN)
    u = uniforms(key, np.arange(120, dtype=np.uint64))
    ratios, half_rems, affine_rems = [], [], []
    for i in range(20):
        a = float(0.5 + 1.5 * u[6 * i])
        b = float(0.5 + 1.5 * u[6 * i + 1])
        eps = float(0.5 * u[6 * i + 2])
        mu = np.array([0.2 + 0.6 * u[6 * i + 3], 0.0])
        mu[1] = 1.0 - mu[0]
        nu = np.array([0.2 + 0.6 * u[6 * i + 4], 0.0])
        nu[1] = 1.0 - nu[0]
        t = (0.5, 1.0, 2.0)[i % 3]
        q = nu - mu

        def remainders(model, chords):
            lin = m1(model, t, mu, nu)
            base = solve_kolmogorov(model, mu, [0.0, t])[-1]
            return [float(np.abs(solve_kolmogorov(model, mu + c * q, [0.0, t])[-1]
                                 - base - c * lin).sum()) for c in chords]

        r_full, r_half = remainders(quadratic_drift(a, b, eps), (1.0, 0.5))
        ratios.append(r_full / r_half if r_half > 0 else np.nan)
        half_rems.append(r_half)
        affine_rems += remainders(weak_interaction(a=a, b=b, eps=eps), (1.0,))
    ratios = np.array(ratios)
    in_band = (ratios >= 3.5) & (ratios <= 4.5)
    smallest, affine_max = min(half_rems), max(affine_rems)
    ok = bool(in_band.all()) and smallest >= 1e-12 and affine_max <= 1e-12
    announce(6, ok, f"quadratic_drift: {int(in_band.sum())}/20 halving ratios "
                    f"in [3.5, 4.5] (min {ratios.min():.2f}, max "
                    f"{ratios.max():.2f}), smallest half-chord remainder "
                    f"{smallest:.1e}; weak_interaction: max remainder at "
                    f"c = 1 {affine_max:.1e}")
    assert smallest >= 1e-12, (
        f"quadratic_drift half-chord remainder {smallest:.1e} is at roundoff "
        "level, so its halving ratio is noise")
    assert in_band.all(), (
        f"halving ratios {np.round(ratios[~in_band], 2)} outside [3.5, 4.5]: "
        "the remainder of the linearization is not quadratic in the chord")
    assert affine_max <= 1e-12, (
        f"weak_interaction remainder {affine_max:.1e} above roundoff: its "
        "flow is affine, so the linearization should be exact")


def test_criterion_07_flow_derivative_vs_mixture_fd():
    models = [weak_interaction(), example_non_erg(), example_slow_conv(),
              constant(Q3)]
    key = domain_key(stream_key(555, 0), DOMAIN_SCAN)
    u = uniforms(key, np.arange(50, dtype=np.uint64))
    worst = 0.0
    for i in range(50):
        model = models[i % 4]
        d = model.d
        mu = random_measures(555, 1, d, floor=0.05, rep=i)[0]
        z = i % d
        t = 0.2 + 1.8 * float(u[i])
        ez = np.zeros(d)
        ez[z] = 1.0
        got = m1(model, t, mu, ez)
        base = solve_kolmogorov(model, mu, [0.0, t])[-1]

        def probe(e):
            mixed = (1.0 - e) * mu + e * ez
            return (solve_kolmogorov(model, mixed, [0.0, t])[-1] - base) / e

        fd = 2.0 * probe(5e-6) - probe(1e-5)
        worst = max(worst, float(np.abs(got - fd).max()))
    ok = worst < 1e-5
    announce(7, ok, f"max |dm/dmu - mixture FD| {worst:.2e} over 50 cases")
    assert worst < 1e-5


def test_criterion_08_master_equation_residuals():
    phi = quadratic_field(np.array([[1.0, 0.2], [0.2, 0.5]]),
                          c=np.array([0.3, -0.1]))
    worst = {}
    for model in (weak_interaction(), example_slow_conv()):
        mus = random_measures(901, 100, 2, floor=0.05)
        key = domain_key(stream_key(901, 1), DOMAIN_SCAN)
        ts = 0.5 + 2.5 * uniforms(key, np.arange(100, dtype=np.uint64))
        res = master_residual_scan(model, phi, [(float(ts[i]), mus[i])
                                                for i in range(100)])
        worst[model.name] = float(np.abs(res).max())
    ok = all(v < 1e-5 for v in worst.values())
    announce(8, ok, "; ".join(f"{k}: max residual {v:.1e}"
                              for k, v in worst.items()))
    for v in worst.values():
        assert v < 1e-5


def test_criterion_09_decay_rates_agree():
    est = estimate_decay(weak_interaction())
    nl = nonlinear_contraction_rate(weak_interaction())
    rel = abs(est["lambda"] - nl) / abs(nl)
    const_rate = estimate_decay(constant(SYM2))["lambda"]
    ok = rel <= 0.2 and abs(const_rate - 2.0) <= 0.1
    announce(9, ok, f"linearized {est['lambda']:.4f} vs nonlinear {nl:.4f} "
                    f"(rel diff {rel:.1%}); constant-chain rate {const_rate:.4f}")
    assert rel <= 0.2
    assert abs(const_rate - 2.0) <= 0.1


def test_criterion_10_chain_rules():
    phis = [quadratic_field(np.array([[1.0, 0.3], [0.3, 2.0]]),
                            c=np.array([0.5, -0.2])),
            sq_dist_field(np.array([0.4, 0.6]))]
    models = [weak_interaction(), example_slow_conv(), example_non_erg()]
    key = domain_key(stream_key(321, 0), DOMAIN_SCAN)
    u = uniforms(key, np.arange(100, dtype=np.uint64))
    worst_t, worst_c = 0.0, 0.0

    # time form: d/dt F(m(t)) = sum_z dF/dm(m(t), z) * drift_z(m(t))
    for i in range(25):
        model = models[i % 3]
        phi = phis[i % 2]
        mu = random_measures(321, 1, 2, floor=0.05, rep=i)[0]
        t = 0.3 + 2.2 * float(u[i])
        h = 1e-4
        grid = np.array([0.0, t - h, t - h / 2, t, t + h / 2, t + h])
        states = solve_kolmogorov(model, mu, grid)
        vals = phi(states)
        D_full = (vals[5] - vals[1]) / (2 * h)
        D_half = (vals[4] - vals[2]) / h
        lhs = (4.0 * D_half - D_full) / 3.0
        m_t = states[3]
        drift = m_t @ model.rates(m_t)
        rhs = float(functional_derivative_all(phi, m_t) @ drift)
        worst_t = max(worst_t, abs(lhs - rhs))

    # composition form: dU/dm(t, mu, z) equals the mixture derivative of
    # U(t, .) = phi(m(t; .)) toward delta_z
    for i in range(25):
        model = models[i % 3]
        phi = phis[(i + 1) % 2]
        mu = random_measures(322, 1, 2, floor=0.05, rep=i)[0]
        t = 0.3 + 2.2 * float(u[25 + i])
        dU = dU_dmeasure_all(model, phi, t, mu)
        base = eval_U(model, phi, t, mu)
        for z in range(2):
            ez = np.zeros(2)
            ez[z] = 1.0

            def probe(e):
                return (eval_U(model, phi, t, (1.0 - e) * mu + e * ez) - base) / e

            fd = 2.0 * probe(5e-7) - probe(1e-6)
            worst_c = max(worst_c, abs(dU[z] - fd))

    ok = worst_t < 1e-6 and worst_c < 1e-6
    announce(10, ok, f"time chain rule max defect {worst_t:.1e}; "
                     f"composition chain rule max defect {worst_c:.1e}")
    assert worst_t < 1e-6
    assert worst_c < 1e-6


def test_criterion_11_thread_count_reproducibility(weak_error_runs):
    out1, out8 = weak_error_runs["out1"], weak_error_runs["out8"]
    assert weak_error_runs["rc1"] == weak_error_runs["rc8"]
    names = ["report.json"] + [f"mc_N{n}.csv" for n in (8, 16, 32, 64, 128, 256)]
    same = []
    for fname in names:
        b1 = open(os.path.join(out1, fname), "rb").read()
        b8 = open(os.path.join(out8, fname), "rb").read()
        same.append(b1 == b8)
    ok = all(same)
    announce(11, ok, f"{sum(same)}/{len(names)} artifacts byte-identical "
                     f"between --threads 1 and --threads 8")
    assert ok
