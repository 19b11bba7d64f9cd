import hashlib
import multiprocessing
from itertools import accumulate
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from mfchain import rng
from mfchain.errors import DomainExitError, InputError
from mfchain.models import (Model, ValidRegion, constant, example_chaos,
                            weak_interaction, zero)
from mfchain.particles import (
    CHUNK,
    INIT_BLOCK,
    count_chain,
    gillespie_batch,
    initial_counts,
    mc_moments,
    mc_observable,
    run_chunks,
    sample_initial,
    simulate,
)
from mfchain.simplex import MAX_LATTICE, count_lattice, lattice_index
from conftest import BAD_GRIDS

SYM2 = np.array([[-1.0, 1.0], [1.0, -1.0]])


def recorded(res):
    """The (R, T, d) counts of a grid-mode gillespie_batch result."""
    return res["lattice"][res["states"]]


def test_sample_initial_deterministic():
    mu0 = np.array([0.3, 0.7])
    a = sample_initial(mu0, 50, seed=9, reps=np.arange(4))
    b = sample_initial(mu0, 50, seed=9, reps=np.arange(4))
    assert np.array_equal(a, b)
    assert a.shape == (4, 2)
    assert np.all(a.sum(axis=1) == 50)
    # a replication's counts do not depend on the batch around it
    assert np.array_equal(sample_initial(mu0, 50, 9, np.array([3]))[0], a[3])
    with pytest.raises(InputError, match="1-d array"):
        sample_initial(mu0, 50, 9, 3)
    # different replications give different draws
    assert not np.array_equal(a[0], a[1]) or not np.array_equal(a[1], a[2])


def test_sample_initial_distribution():
    # N = 1: the single particle is Bernoulli(0.7) on state 2
    counts = sample_initial(np.array([0.3, 0.7]), 1, seed=2, reps=np.arange(10_000))
    x = int(counts[:, 0].sum())
    chi2 = (x - 3000.0) ** 2 / 2100.0    # (1/3000 + 1/7000)^-1 = 2100
    assert chi2 < 10.83                  # chi^2_1 at 99.9%


@pytest.mark.parametrize("mu0, N, R", [
    ([0.2, 0.5, 0.3], 6, CHUNK + 3),
    ([0.25, 0.75], 3, INIT_BLOCK + 5),
    ([0.125, 0.25, 0.5, 0.125], 5000, 7),
    ([0.25, 0.75], 1, 10),
    ([0.125, 0.25, 0.5, 0.125], 257, 70),
], ids=["rows-past-one-chunk", "one-particle-a-block", "ragged-last-block",
        "one-particle", "d4"])
def test_initial_counts_match_one_batch_across_chunks(mu0, N, R):
    # each row is the count vector of its own draws, however they are blocked
    seed, d = 4, len(mu0)
    counts = initial_counts(mu0, N, R, seed)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, sample_initial(mu0, N, seed, np.arange(R)))
    assert counts.shape == (R, d) and np.all(counts.sum(axis=1) == N)
    rows = np.array([R - 1, 2, R // 2])
    assert np.array_equal(sample_initial(mu0, N, seed, rows), counts[rows])
    # reference: each row's states from its own init draws, counted row by row
    keys = rng.domain_key(rng.stream_key(seed, rows.astype(np.uint64)),
                          rng.DOMAIN_INIT)
    u = rng.uniforms(keys[:, None], np.arange(N, dtype=np.uint64)[None, :])
    states = np.searchsorted(np.cumsum(mu0), u, side="left")
    assert np.array_equal(counts[rows],
                          [np.bincount(s, minlength=d) for s in states])
    with pytest.raises(InputError, match="at least one replication"):
        initial_counts(mu0, N, 0, seed)


def test_sample_initial_memory_does_not_grow_with_n():
    # the (rows, N) draws are never all live: a whole-array sampler peaks at
    # about 47 MiB here
    mu0, reps = [0.2, 0.5, 0.3], np.arange(2000)
    peaks = []
    for N in (64, 1024):
        tracemalloc.start()
        try:
            sample_initial(mu0, N, 1, reps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * 2**20
    assert peaks[1] <= peaks[0] + 2**16


def test_constant_chain_matches_marginal_law():
    # for law-independent rates the particles are iid 2-state chains, so
    # E mu^N_1(t) = 0.5 + 0.4 exp(-2 t) exactly
    times = np.array([0.0, 0.5, 1.0, 2.0])
    mean, stderr = mc_observable(
        constant(SYM2), lambda m: m[..., 0],
        initial_counts(np.array([0.9, 0.1]), 200, 500, 11), times, seed=11,
    )
    exact = 0.5 + 0.4 * np.exp(-2.0 * times)
    z = (mean - exact) / stderr
    assert np.abs(z).max() < 4.0
    assert np.all(stderr > 0)


def test_event_count_is_poisson_rate_N():
    # symmetric rates: every particle jumps at unit rate, so the event count
    # on [0, T] is Poisson(N T)
    N, T, R = 40, 2.0, 400
    counts0 = np.tile([N // 2, N // 2], (R, 1))
    res = gillespie_batch(
        constant(SYM2), counts0, seed=5, reps=np.arange(R),
        times=np.array([0.0, T]),
    )
    ev = res["events"].astype(float)
    z = (ev.mean() - N * T) / np.sqrt(ev.var(ddof=1) / R)
    assert abs(z) < 4.0


def test_three_state_chain_against_matrix_exponential():
    Q = np.array([[-1.0, 0.7, 0.3], [0.2, -0.5, 0.3], [1.0, 1.0, -2.0]])
    mu0 = np.array([0.5, 0.3, 0.2])
    t = 1.0
    exact = mu0 @ expm(Q * t)
    R = 400
    counts0 = sample_initial(mu0, 50, seed=3, reps=np.arange(R))
    res = gillespie_batch(
        constant(Q), counts0, seed=3, reps=np.arange(R),
        times=np.array([0.0, t]),
    )
    m = recorded(res)[:, -1, :] / 50.0
    z = (m.mean(axis=0) - exact) / np.sqrt(m.var(axis=0, ddof=1) / R)
    assert np.abs(z).max() < 4.0


def test_batch_composition_invariance():
    # each replication's path depends only on (seed, rep), never on which
    # rows it shares a batch with
    model = weak_interaction()
    times = np.array([0.0, 0.5, 1.0])
    mu0 = np.array([0.6, 0.4])
    reps = np.arange(10)
    counts0 = sample_initial(mu0, 30, seed=7, reps=reps)
    full = gillespie_batch(model, counts0, 7, reps, times=times)
    lo = gillespie_batch(model, counts0[:4], 7, reps[:4], times=times)
    hi = gillespie_batch(model, counts0[4:], 7, reps[4:], times=times)
    assert np.array_equal(recorded(full),
                          np.concatenate([recorded(lo), recorded(hi)]))
    assert np.array_equal(full["events"], np.concatenate([lo["events"], hi["events"]]))


def mean_field_three_state() -> Model:
    """alpha_xy = 1 + 2 mu_y + x / 2 off the diagonal: a d = 3 chain whose
    rates depend on the law, so rows only stay apart if the kernel keeps
    them apart."""
    def rates(mu):
        A = 1.0 + 2.0 * mu[..., None, :] + 0.5 * np.arange(3.0)[:, None]
        A = A * (1.0 - np.eye(3))
        return A - np.eye(3) * A.sum(axis=-1, keepdims=True)

    return Model(name="mean_field_3", d=3, rates=rates)


def test_batch_composition_invariance_three_states():
    # the compacted kernel drops rows as they finish; a row's path must not
    # depend on which rows share its batch, in grid and time-average mode
    model = mean_field_three_state()
    reps = np.arange(12)
    counts0 = sample_initial([0.5, 0.3, 0.2], 15, seed=8, reps=reps)
    grid = dict(times=np.array([0.0, 0.25, 0.5, 1.5]))
    avg = dict(phi=lambda m: m[..., 0] - m[..., 2] ** 2, burn=0.5, end=1.5)
    for mode in (grid, avg):
        full = gillespie_batch(model, counts0, 8, reps, **mode)
        lo = gillespie_batch(model, counts0[:5], 8, reps[:5], **mode)
        hi = gillespie_batch(model, counts0[5:], 8, reps[5:], **mode)
        for key in ("states", "phi_avg", "events"):
            if full[key] is not None:
                assert np.array_equal(full[key],
                                      np.concatenate([lo[key], hi[key]])), key
    assert full["events"].min() > 0


def test_run_chunks_order_and_threads():
    def worker(lo, hi):
        return np.arange(lo, hi)

    a = run_chunks(worker, 23, threads=1, chunk=7)
    b = run_chunks(worker, 23, threads=4, chunk=7)
    assert [r.tolist() for r in a] == [r.tolist() for r in b]
    assert np.array_equal(np.concatenate(a), np.arange(23))
    assert multiprocessing.active_children() == []


def test_run_chunks_raises_the_first_chunk_error():
    # a failing chunk comes back as its own typed error, the earliest chunk
    # in chunk order wins, and no worker outlives the call
    def worker(lo, hi):
        if lo >= 7:
            raise InputError(f"chunk at {lo}")
        return lo

    with pytest.raises(InputError, match="chunk at 7$"):
        run_chunks(worker, 30, threads=2, chunk=7)
    assert multiprocessing.active_children() == []



def test_mc_moments_chunked_matches_direct():
    # 12001 replications span three chunks; the result keeps the shape of
    # one replication's value
    gen = np.random.default_rng(3)
    x, y = gen.normal(size=(12001, 4)), gen.exponential(size=12001)
    for v, shape in ((x, (4,)), (y, ())):
        def values(lo, hi, v=v):
            return v[lo:hi]

        m1, s1 = mc_moments(values, 12001, threads=1)
        m2, s2 = mc_moments(values, 12001, threads=2)
        assert np.array_equal(m1, m2) and np.array_equal(s1, s2)
        assert np.allclose(m1, v.mean(axis=0), rtol=0, atol=1e-14)
        assert np.allclose(s1, v.std(axis=0, ddof=1) / np.sqrt(12001),
                           rtol=1e-10, atol=0)
        assert np.shape(m1) == shape and np.shape(s1) == shape
    with pytest.raises(ValueError, match="replication"):
        mc_moments(values, 0)


def test_mc_moments_squares_only_chunks_it_owns():
    # a view of the caller's array is never written; a fresh chunk is
    # squared in place, with the same bits, so one chunk-sized array is live
    v = np.random.default_rng(5).normal(size=(12001, 3))
    keep = v.copy()
    by_view = mc_moments(lambda lo, hi: v[lo:hi], 12001)    # in this process
    assert np.array_equal(v, keep)
    by_copy = mc_moments(lambda lo, hi: v[lo:hi].copy(), 12001)
    assert all(np.array_equal(a, b) for a, b in zip(by_view, by_copy))
    frozen = v[:100].copy()
    frozen.flags.writeable = False                # owned, but read-only
    assert all(np.array_equal(a, b) for a, b in
               zip(mc_moments(lambda lo, hi: frozen, 100),
                   mc_moments(lambda lo, hi: v[lo:hi], 100)))
    assert np.array_equal(frozen, keep[:100])

    chunk_bytes = 5000 * 81 * 8
    tracemalloc.start()
    try:
        mc_moments(lambda lo, hi: np.ones((hi - lo, 81)), 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunk_bytes <= peak < 1.5 * chunk_bytes


def test_mc_moments_needs_two_replications():
    # one replication has no standard error; it used to report 0
    def values(lo, hi):
        return np.array([1.0, 3.0])[lo:hi]

    with pytest.raises(InputError, match="at least two replications"):
        mc_moments(values, 1)
    # sample variance over R - 1 = 1: (1 + 9 - 2 * 2^2) / 1 = 2
    assert mc_moments(values, 2) == (2.0, 1.0)

def test_mc_observable_thread_invariance():
    counts0 = initial_counts([0.9, 0.1], 20, 60, 13)
    mean1, stderr1 = mc_observable(
        weak_interaction(), lambda m: m[..., 0], counts0,
        times=np.array([0.0, 1.0]), seed=13, threads=1,
    )
    mean8, stderr8 = mc_observable(
        weak_interaction(), lambda m: m[..., 0], counts0,
        times=np.array([0.0, 1.0]), seed=13, threads=8,
    )
    assert np.array_equal(mean1, mean8)
    assert np.array_equal(stderr1, stderr8)


def test_grid_refinement_consistency():
    # the recorded values are exact path samples: refining the grid must not
    # change the values at shared times
    model = weak_interaction()
    coarse, coarse_events = simulate(
        model, [0.7, 0.3], N=25, times=np.array([0.0, 1.0, 2.0]), seed=21,
        rep=5)
    fine, fine_events = simulate(model, [0.7, 0.3], N=25,
                                 times=np.arange(0.0, 2.01, 0.25), seed=21,
                                 rep=5)
    assert coarse.shape == (3, 2) and np.all(coarse.sum(axis=1) == 25)
    assert np.array_equal(coarse, fine[::4])
    assert coarse_events == fine_events


def test_zero_model_freezes():
    counts0 = np.array([[3, 7], [5, 5]])
    res = gillespie_batch(zero(2), counts0, seed=1, reps=np.arange(2),
                          times=np.array([0.0, 1.0, 5.0]))
    assert np.array_equal(recorded(res)[0], [[3, 7]] * 3)
    assert np.array_equal(recorded(res)[1], [[5, 5]] * 3)
    assert np.array_equal(res["events"], [0, 0])
    res = gillespie_batch(zero(2), counts0, seed=1, reps=np.arange(2),
                          phi=lambda m: m[..., 0], end=5.0)
    assert np.array_equal(res["events"], [0, 0])
    assert np.allclose(res["phi_avg"], [0.3, 0.5])


def test_domain_error_on_region_exit():
    base = constant(np.array([[0.0, 0.0], [1.0, -1.0]]))
    guarded = Model(
        name="guarded", d=2, rates=base.rates,
        rate_derivative=base.rate_derivative,
        valid_region=ValidRegion("min 0.3", min_mass=0.3),
    )
    with pytest.raises(DomainExitError, match="left the valid region"):
        gillespie_batch(
            guarded, np.array([[10, 10]]), seed=0, reps=np.arange(1),
            times=np.array([0.0, 50.0]),
        )


def test_domain_exit_error_pickles():
    exc = pickle.loads(pickle.dumps(DomainExitError("left at t=1.5", time=1.5)))
    assert isinstance(exc, DomainExitError)
    assert str(exc) == "left at t=1.5" and exc.time == 1.5


def test_region_exit_same_for_any_worker_count():
    # R = 6000 is two chunks; at two workers the exit crosses a process
    # boundary and must arrive as the same typed error as in one process
    base = constant(np.array([[0.0, 0.0], [1.0, -1.0]]))
    guarded = Model(
        name="guarded", d=2, rates=base.rates,
        rate_derivative=base.rate_derivative,
        valid_region=ValidRegion("min 0.3", min_mass=0.3),
    )
    messages = []
    for threads in (1, 2):
        with pytest.raises(DomainExitError, match="left the valid region") as exc:
            mc_observable(guarded, lambda m: m[..., 0],
                          initial_counts([0.5, 0.5], 10, 6000, 3),
                          times=np.array([0.0, 5.0]), seed=3, threads=threads)
        messages.append((str(exc.value), exc.value.time))
        assert multiprocessing.active_children() == []
    assert messages[0] == messages[1]


def test_input_validation():
    # an empty batch used to fail with a raw IndexError at its first row
    with pytest.raises(InputError, match="at least one replication"):
        gillespie_batch(zero(2), np.zeros((0, 2), int), 0, np.arange(0),
                        times=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="same particle count"):
        gillespie_batch(zero(2), np.array([[3, 7], [4, 7]]), 0, np.arange(2),
                        times=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="recording grid"):
        gillespie_batch(zero(2), np.array([[3, 7]]), 0, np.arange(1))
    # a negative count is no lattice point
    with pytest.raises(InputError, match="nonnegative"):
        gillespie_batch(constant(SYM2), np.array([[-1, 11]]), 0, np.arange(1),
                        times=np.array([0.0, 1.0]))
    # a fractional count used to be truncated: [[2.5, 5.5]] ran as N = 7 with
    # counts [2, 5]; integral floats are counts
    with pytest.raises(InputError, match="integer counts"):
        gillespie_batch(weak_interaction(), [[2.5, 5.5]], 1, [0], times=[0, 1])
    as_floats = gillespie_batch(weak_interaction(), [[2.0, 5.0]], 1, [0],
                                times=[0, 1])
    as_ints = gillespie_batch(weak_interaction(), [[2, 5]], 1, [0],
                              times=[0, 1])
    assert np.array_equal(recorded(as_floats), recorded(as_ints))
    # a row of the wrong width used to fail inside numpy ("shape mismatch:
    # value array of shape (45,2,2) ..."); the refusal names both numbers
    for bad, shape in (([[2, 5, 1]], r"\(1, 3\)"), ([2, 5], r"\(2,\)")):
        with pytest.raises(InputError, match=r"needs d = 2 counts a row for"
                                             r" model 'weak_interaction.*',"
                                             r" got shape " + shape):
            gillespie_batch(weak_interaction(), bad, 1, [0], times=[0, 1])
    with pytest.raises(ValueError, match="reps must match"):
        gillespie_batch(zero(2), np.array([[3, 7]]), 0, np.arange(2),
                        times=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="burn"):
        gillespie_batch(zero(2), np.array([[3, 7]]), 0, np.arange(1),
                        phi=lambda m: m[..., 0], burn=2.0, end=1.0)
    # about N * 1e12 = 1e14 expected events, to the grid's end or to end;
    # a grid and phi in one call, or a grid with burn and end, are refused
    # before any event
    for kw, match in (
        ({"times": np.array([0.0, 1e12])}, "1e\\+14 events"),
        ({"phi": lambda m: m[..., 0], "end": 1e12}, "1e\\+14 events"),
        ({"times": np.array([0.0, 1.0]), "phi": lambda m: m[..., 0],
          "end": 1e12}, "not both"),
        # burn and end used to be ignored in grid mode
        ({"times": np.array([0.0, 1.0]), "burn": 7.0, "end": 0.5},
         "a grid run takes neither"),
    ):
        with pytest.raises(InputError, match=match):
            gillespie_batch(constant(SYM2), np.array([[50, 50]]), 0,
                            np.arange(1), **kw)
    # the flow solver's grid check: an empty grid used to be a raw IndexError,
    # and a decreasing one recorded its counts out of order
    for times in BAD_GRIDS:
        for call in (
            lambda: gillespie_batch(zero(2), np.array([[3, 7]]), 0,
                                    np.arange(1), times=times),
            lambda: simulate(zero(2), [0.3, 0.7], 10, times, seed=0),
            lambda: mc_observable(zero(2), lambda m: m[..., 0],
                                  initial_counts([0.3, 0.7], 10, 2, 0), times,
                                  seed=0),
        ):
            with pytest.raises(InputError, match="recording grid must be"):
                call()


def test_time_average_exact_between_jumps():
    # one particle, rate-1 symmetric chain: the time average of mu_1 over
    # [0, end] computed by the simulator equals the manual integral of the
    # recorded path
    model = constant(SYM2)
    counts0 = np.array([[1, 0]])
    fine = np.arange(0.0, 4.0 + 1e-9, 1e-3)
    res_grid = gillespie_batch(model, counts0, seed=17, reps=np.arange(1),
                               times=fine)
    res_avg = gillespie_batch(model, counts0, seed=17, reps=np.arange(1),
                              phi=lambda m: m[..., 0], end=4.0)
    manual = recorded(res_grid)[0, :-1, 0].sum() * 1e-3 / 4.0
    assert res_avg["phi_avg"][0] == pytest.approx(manual, abs=2e-3)


def test_dead_rows_finish_in_the_main_step():
    # the absorbing chain: state 1 -> 2 at rate 1, state 2 never leaves, so
    # each row dies when its last particle reaches state 2, at its own time
    model = constant(np.array([[-1.0, 1.0], [0.0, 0.0]]))
    N, R, seed = 3, 40, 5
    reps = np.arange(R)
    counts0 = sample_initial([0.7, 0.3], N, seed, reps)
    final = np.array([0, N])

    def both_halves(**kw):
        full = gillespie_batch(model, counts0, seed, reps, **kw)
        halves = [gillespie_batch(model, counts0[s], seed, reps[s], **kw)
                  for s in (slice(0, R // 2), slice(R // 2, R))]
        for k in ("states", "phi_avg", "events"):
            if full[k] is not None:
                assert np.array_equal(
                    full[k], np.concatenate([h[k] for h in halves]))
        return full

    res = both_halves(times=np.linspace(0.0, 2.0, 9))
    dead = np.all(recorded(res)[:, -1] == final, axis=1)
    assert 0 < dead.sum() < R                 # rows die and rows live on
    for r in np.flatnonzero(dead):
        first = np.argmax(np.all(recorded(res)[r] == final, axis=1))
        assert np.all(recorded(res)[r, first:] == final)
    assert np.array_equal(res["events"][dead], counts0[dead, 0])

    # phi mode, some rows dying inside [burn, end] ...
    both_halves(phi=lambda m: m[..., 1], burn=0.5, end=3.0)
    # ... and every row dead before burn: the average is its final value
    res = both_halves(phi=lambda m: m[..., 1], burn=40.0, end=41.0)
    assert np.array_equal(res["phi_avg"], np.ones(R))
    assert np.array_equal(res["events"], counts0[:, 0])


# SHA-256 of each case's recorded counts (int32) or phi averages, then its
# event counts (int64), or of "message|repr(time)" for a region exit, as the
# kernel that recomputed rates per row and event gave them
PINNED = {
    ("weak_interaction", "grid"):
        "5452068a1697a13ae6576bdf6aff42fc5d6b5fd2ad41c6f1e42b80b68c4cc25a",
    ("weak_interaction", "phi"):
        "e9cd1a9a9ff43e20c207d4d56e60eec0aa2bf1e882f33f84ac51b002d1a41829",
    ("constant_3", "grid"):
        "3326061033050ef7c9baa4280380b12078b7254867d2d7e0748b8b7f87bf14f6",
    ("constant_3", "phi"):
        "2e01c0c4ae632a930d7eb7f3819225795b2f1c050150e9350162310a38946b10",
    ("mean_field_3", "grid"):
        "3c0969f614041f36370a31d3794a8a8d481f6277fae768029bceb8f3a7aedb55",
    ("mean_field_3", "phi"):
        "cfb03c5d90a1269eb13c5c6e2ac8c942ab2d444d95e7a4bb33dbf4157583c0e1",
    ("absorbing", "grid"):
        "317cefc4dd7130eaac0ee2c07d12011184dce7ba790f712a6b181db76752a70e",
    ("absorbing", "phi"):
        "84c85a12c6eedecda52acb0af332570d65a038da1f568169dd282ce45add635a",
    # "empirical measure of replication 28 left the valid region of
    # 'example_chaos' at t=0.00281119", in both modes
    ("chaos", "grid"):
        "493d756d1f7e5a56a77a13beafbd9f30bda14ff994a4b8f0f6f1a2d9a6d2ff72",
    ("chaos", "phi"):
        "493d756d1f7e5a56a77a13beafbd9f30bda14ff994a4b8f0f6f1a2d9a6d2ff72",
}


def counted_rates(model):
    """The model with a rates function that counts its calls in calls[0]."""
    calls = [0]

    def rates(mu):
        calls[0] += 1
        return model.rates(mu)

    return Model(name=model.name, d=model.d, rates=rates,
                 valid_region=model.valid_region), calls


@pytest.mark.parametrize("case, mode", sorted(PINNED))
def test_kernel_bits_pinned_beyond_two_states(case, mode):
    # d = 2, 3 and 4, a chain with dead rows and a region exit, in grid mode
    # (with a repeated grid time) and phi mode; one rates call per run
    model, mu0, N, R = {
        "weak_interaction": (weak_interaction(), [0.9, 0.1], 20, 60),
        "constant_3": (constant(np.array([[-1.0, 0.7, 0.3], [0.2, -0.5, 0.3],
                                          [1.0, 1.0, -2.0]])),
                       [0.5, 0.3, 0.2], 12, 40),
        "mean_field_3": (mean_field_three_state(), [0.5, 0.3, 0.2], 15, 40),
        "absorbing": (constant(np.array([[-1.0, 1.0], [0.0, 0.0]])),
                      [0.7, 0.3], 3, 40),
        "chaos": (example_chaos(), [0.25] * 4, 40, 30),
    }[case]
    kw = {"grid": dict(times=np.sort(np.r_[np.linspace(0.0, 3.0, 13), 1.25])),
          "phi": dict(phi=lambda m: m[..., 0] ** 2 - m[..., -1], burn=0.5,
                      end=3.0)}[mode]
    model, calls = counted_rates(model)
    seed, reps = 5, np.arange(7, 7 + R)
    counts0 = sample_initial(mu0, N, seed, reps)
    h = hashlib.sha256()
    try:
        res = gillespie_batch(model, counts0, seed, reps, **kw)
    except DomainExitError as exc:
        h.update(f"{exc}|{exc.time!r}".encode())
    else:
        h.update(np.ascontiguousarray(
            recorded(res) if mode == "grid" else res["phi_avg"],
            dtype=np.int32 if mode == "grid" else np.float64))
        h.update(np.ascontiguousarray(res["events"], dtype=np.int64))
        assert res["events"].sum() > 0
    assert h.hexdigest() == PINNED[case, mode]
    assert calls[0] == 1


# the two table-building entry points: the kernel in either mode (one
# replication from counts0) and count_chain at counts0's total
BUILDS = {
    "grid": lambda model, counts0: gillespie_batch(
        model, counts0, 0, np.arange(1), times=np.array([0.0, 1.0])),
    "phi": lambda model, counts0: gillespie_batch(
        model, counts0, 0, np.arange(1), phi=lambda m: m[..., 0], end=1.0),
    "count_chain": lambda model, counts0: count_chain(
        model, int(np.sum(counts0))),
}


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_lattice_above_max_refused_before_any_rates_call(build):
    # d = 4 and N = 200: C(203, 3) = 1 373 701 states
    model, calls = counted_rates(constant(np.ones((4, 4)) - 4 * np.eye(4)))
    assert 1_373_701 > MAX_LATTICE
    with pytest.raises(InputError, match="1373701 states, more than"
                                         " MAX_LATTICE"):
        BUILDS[build](model, np.array([[50, 50, 50, 50]]))
    assert calls[0] == 0


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nan_or_infinite_rate_refused_before_any_event(bad, build):
    # alpha_12 is bad for mu_1 > 0.7, a state the chain starting from (8, 2)
    # is already in; a NaN total rate used to keep the row from ever
    # crossing a grid time, so the kernel ran until killed
    def rates(mu):
        A = SYM2 * np.ones(mu.shape[:-1] + (1, 1))
        A[..., 0, 1] = np.where(mu[..., 0] > 0.7, bad, 1.0)
        return A

    model = Model(name="bad_rate", d=2, rates=rates)
    with pytest.raises(InputError, match=r"model 'bad_rate' at \[0\.8,"
                                         r" 0\.2\]: need finite"
                                         r" off-diagonal rates >= 0"):
        BUILDS[build](model, np.array([[8, 2]]))


def reference_chain(model, N):
    """count_chain's tables as gillespie_batch built them inline, one pair
    at a time: the running totals by itertools.accumulate over the pairs."""
    d = model.d
    lattice = count_lattice(d, N)
    S = len(lattice)
    mu = lattice / N
    inside = model.valid_region.contains(mu)
    A = np.zeros((S, d, d))
    A[inside] = model.rates(mu[inside])
    pairs = [(x, y) for x in range(d) for y in range(d) if x != y]
    running = list(accumulate(lattice[:, x] * A[:, x, y] for x, y in pairs))
    jump = np.repeat(np.arange(S), len(pairs)).reshape(S, len(pairs))
    for p, (x, y) in enumerate(pairs):
        can = lattice[:, x] > 0
        k = lattice[can]
        k[:, x] -= 1
        k[:, y] += 1
        jump[can, p] = lattice_index(k)
    return {"lattice": lattice, "inside": inside,
            "running": np.column_stack(running), "jump": jump}


CHAINS = {
    "weak_interaction": (weak_interaction(), 8),
    "constant_3": (constant(np.array([[-1.0, 0.7, 0.3], [0.2, -0.5, 0.3],
                                      [1.0, 1.0, -2.0]])), 12),
    "chaos": (example_chaos(), 20),
}


@pytest.mark.parametrize("case", sorted(CHAINS))
def test_count_chain_equals_the_pairwise_reference(case):
    model, N = CHAINS[case]
    chain, ref = count_chain(model, N), reference_chain(model, N)
    assert sorted(chain) == sorted(ref)
    for key in ref:
        assert chain[key].dtype == ref[key].dtype and \
            chain[key].shape == ref[key].shape, key
        assert (np.ascontiguousarray(chain[key]).tobytes()
                == ref[key].tobytes()), key
    S, P = chain["jump"].shape
    assert P == model.d * (model.d - 1) and S == len(chain["lattice"])
    if case == "chaos":
        # the region flag holds at some points only; outside it no rate
        # was evaluated and every total is 0
        inside = chain["inside"]
        assert 0 < inside.sum() < S
        assert np.all(chain["running"][~inside] == 0.0)
        assert np.all(chain["running"][inside, -1] > 0.0)


def generator(chain):
    """The dense (S, S) generator of a count_chain: pair p's rate is the
    step of the running totals at p, moved to its jump target, and each
    diagonal entry is minus lambda."""
    running = chain["running"]
    S, P = running.shape
    w = np.diff(running, axis=1, prepend=0.0)
    Q = np.zeros((S, S))
    np.add.at(Q, (np.repeat(np.arange(S), P), chain["jump"].ravel()),
              w.ravel())
    return Q - np.diag(running[:, -1]), w


@pytest.mark.parametrize("case", sorted(CHAINS))
def test_count_chain_generator_rows_sum_to_zero(case):
    model, N = CHAINS[case]
    chain = count_chain(model, N)
    Q, w = generator(chain)
    lam = chain["running"][:, -1]
    S = len(lam)
    # a pair that leads back to its own point has rate exactly 0, so the
    # off-diagonal entries carry every rate: the exit rates are lambda
    own = chain["jump"] == np.arange(S)[:, None]
    assert np.all(w[own] == 0.0) and np.all(w >= 0.0)
    off = Q - np.diag(np.diag(Q))
    assert np.allclose(off.sum(axis=1), lam, rtol=1e-13, atol=0.0)
    assert np.all(np.abs(Q.sum(axis=1)) <= 1e-13 * np.maximum(lam, 1.0))
    assert np.array_equal(-np.diag(Q), lam)


def test_count_chain_generator_carries_the_marginal_law():
    # N independent particles of a constant chain: the mean empirical
    # measure of the count chain's law at t is mu0 expm(A t) exactly
    model, N = CHAINS["constant_3"]
    chain = count_chain(model, N)
    Q, _ = generator(chain)
    mu0, t = np.array([0.5, 0.25, 0.25]), 0.7
    start = lattice_index((mu0 * N).astype(int))
    law = expm(Q * t)[start]
    A = model.rates(mu0)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(law @ chain["lattice"] / N, mu0 @ expm(A * t),
                       rtol=0.0, atol=1e-12)


def test_count_chain_points_without_x_jump_to_themselves():
    model, N = CHAINS["chaos"]
    chain = count_chain(model, N)
    lattice, jump = chain["lattice"], chain["jump"]
    S, P = jump.shape
    xs, ys = np.nonzero(~np.eye(model.d, dtype=bool))
    empty = lattice[:, xs] == 0                     # (S, P): k_x = 0
    assert empty.any() and not empty.all()
    stay = np.broadcast_to(np.arange(S)[:, None], (S, P))
    assert np.array_equal(jump[empty], stay[empty])
    # elsewhere pair (x, y) moves one particle from x to y
    moved = lattice[jump] - lattice[:, None, :]     # (S, P, d)
    step = np.eye(model.d, dtype=int)[ys] - np.eye(model.d, dtype=int)[xs]
    assert np.array_equal(moved[~empty],
                          np.broadcast_to(step, (S, P, model.d))[~empty])
