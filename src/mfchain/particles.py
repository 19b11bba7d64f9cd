"""Interacting particle system: exact event-driven simulation.

N particles on [d] jump with rates alpha_{x y}(mu^N_t) read off the current
empirical measure.  The state is an occupancy-count vector, one point of the
count lattice {k : k_1 + ... + k_d = N} (simplex.count_lattice, with
C(N + d - 1, d - 1) points); the system's next transition is sampled by the
direct (Gillespie) method:

  * pair weights       w_p = counts_x * alpha_{x y}(mu) for the d(d-1)
                       off-diagonal pairs p = (x, y) in row-major order,
  * total event rate   Lambda = the running total w_0 + w_1 + ... summed
                       left to right, the same sum the jump search uses,
  * waiting time       Exp(1) / Lambda,
  * transition         the first pair whose running total reaches u Lambda.

These depend only on the lattice point; count_chain, the one source of the
chain's tables, tabulates them: one model.rates call on the points inside
the valid region gives each point's running totals and Lambda, region flag
and jump targets, and it refuses lattices above MAX_LATTICE points and NaN,
infinite or negative rates.  gillespie_batch builds the tables once a call
(and phi on them in phi mode), so an event is a few table lookups.
Replications run in lockstep as batched array rows, each driven by its own
counter-based random stream, so results are independent of batching,
chunking, and worker count.

State layout in gillespie_batch: each per-row quantity (row id, event key,
lattice point, time, grid pointer, next grid time, time average) is a
compact array over the active rows only, in row order.  The arrays shrink
when rows finish, dead ones (no outgoing rate) at their next step; a
finished row's totals are written back to the full-size outputs.  Active
rows have all made one event per lockstep step, so they share one draw
counter, and a finished row's event count follows from the step count.
Grid mode writes a row's lattice point only at the first grid time that a
waiting time crosses, and fills the times it skipped forward at the end.

Randomness layout per replication (see rng module): the init domain uses
draw i for particle i's initial state; the event domain uses draws 2k and
2k+1 for the waiting time and transition choice of event k.  sample_initial
takes the init draws in blocks of particles across every row, at most
INIT_BLOCK draws (or one particle a row) at a time: the same counters, so
the same counts, and memory that does not grow with N.

Monte Carlo on a grid has one estimator, mc_observable: replication r runs
from counts0[r], usually initial_counts (every start, sampled in the calling
process); each chunk evaluates phi once per lattice point, reads it at the
recorded points, and the chunks reduce through mc_moments.  simulate and
weak-error both call it.  Results are plain arrays: simulate returns
(counts, n_events), mc_observable and mc_moments return (mean, stderr).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import DomainExitError, InputError, SolverError, check_count
from .kolmogorov import as_grid
from .models import Model
from .simplex import as_measure, check_lattice, count_lattice, lattice_index

CHUNK = 5000
INIT_BLOCK = 2**14         # most init draws live at once in sample_initial
MAX_EVENTS = 10**9         # per replication; more means a runaway simulation
_WAIT_CAT = np.array([[0], [1]], dtype=np.uint64)    # draw offsets 2k, 2k + 1


def sample_initial(mu0, N: int, seed: int, reps) -> np.ndarray:
    """Occupancy counts (len(reps), d) of iid mu0-distributed initial states.

    reps is a 1-d integer array of replication indices.  Particle i of
    replication r consumes draw i of the init domain of stream (seed, r), so
    the same (seed, r, N) always yields the same configuration.  The draws are taken
    in blocks of particles across every row, at most INIT_BLOCK draws per
    block (one particle per block beyond INIT_BLOCK rows), so memory stays
    O(len(reps) * d + INIT_BLOCK) for any N.
    """
    mu0 = as_measure(mu0)
    N = check_count(N, "N")
    d = len(mu0)
    keys = rng.stream_key(seed, reps)
    if keys.ndim != 1:
        raise InputError(f"reps must be a 1-d array of replication indices,"
                         f" got shape {np.shape(reps)}")
    R = len(keys)
    keys = rng.domain_key(keys, rng.DOMAIN_INIT)[:, None]
    cdf = np.cumsum(mu0)
    cdf[-1] = 1.0
    offset = d * np.arange(R)[:, None]                  # row r's states
    counts = np.zeros(R * d, dtype=np.int64)
    step = max(1, INIT_BLOCK // max(R, 1))              # particles per block
    for lo in range(0, N, step):
        u = rng.uniforms(keys, np.arange(lo, min(lo + step, N),
                                         dtype=np.uint64)[None, :])
        states = np.searchsorted(cdf, u, side="left")   # (R, block)
        states += offset
        counts += np.bincount(states.ravel(), minlength=R * d)
    return counts.reshape(-1, d)


def initial_counts(mu0, N: int, R: int, seed: int) -> np.ndarray:
    """sample_initial of replications 0..R-1: (R, d)."""
    R = check_count(R, "R (replications)")
    return sample_initial(mu0, N, seed, np.arange(R, dtype=np.uint64))


def count_chain(model: Model, N: int) -> dict:
    """The N-particle chain of model on the count lattice, as tables.

    The off-diagonal pairs p = (x, y) run in row-major order, P = d(d-1) of
    them; pair p moves one particle from x to y at rate k_x * alpha_xy(k/N).
    Returns a dict of arrays over the S = C(N + d - 1, d - 1) points k of
    count_lattice(model.d, N):

      lattice  (S, d) int32, the points;
      inside   (S,) bool, k/N within model.valid_region;
      running  (S, P) float, stored column by column: the pair rates'
               running totals summed left to right, so its last column is
               the total rate lambda; 0 outside the region (no rates there);
      jump     (S, P) int64, the point that pair p leads to (the point itself
               where k_x = 0, whose rate is 0).

    One model.rates call on the points inside the region gives every rate.
    Lattices above simplex.MAX_LATTICE points are refused before that call,
    and NaN, infinite or negative off-diagonal rates after it.
    """
    d = model.d
    S = check_lattice(N, d)
    lattice = count_lattice(d, N)
    mu = lattice / N
    inside = model.valid_region.contains(mu)
    A = np.zeros((S, d, d))
    A[inside] = model.rates(mu[inside])
    # a NaN or infinite rate would keep a row from ever crossing a grid time
    ok = ((A >= 0.0) & (A < np.inf)) | np.eye(d, dtype=bool)
    if not ok.all():
        bad = int(np.argmin(ok.all(axis=(1, 2))))
        raise InputError(f"model {model.name!r} at {mu[bad].tolist()}: need"
                         f" finite off-diagonal rates >= 0, got"
                         f" {A[bad].tolist()}")
    xs, ys = np.nonzero(~np.eye(d, dtype=bool))
    running = np.cumsum(lattice.T[xs] * A[:, xs, ys].T, axis=0).T
    jump = np.repeat(np.arange(S), len(xs)).reshape(S, -1)
    for p, (x, y) in enumerate(zip(xs, ys)):
        can = lattice[:, x] > 0
        k = lattice[can]
        k[:, x] -= 1
        k[:, y] += 1
        jump[can, p] = lattice_index(k)
    return dict(lattice=lattice, inside=inside, running=running, jump=jump)


@np.errstate(divide="ignore", invalid="ignore")     # dead rows, see below
def gillespie_batch(
    model: Model,
    counts0: np.ndarray,
    seed: int,
    reps,
    times: Optional[np.ndarray] = None,
    phi: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    burn: float = 0.0,
    end: Optional[float] = None,
) -> dict:
    """Lockstep direct-method simulation of many replications.

    counts0: (R, d) initial occupancy counts (constant total N per row).
    Each call runs one of two modes, and refuses both at once:
    times:   recording grid (checked by kolmogorov.as_grid); states are
             right-continuous, so grid time g gets the pre-jump state of
             the first jump strictly after g.
    phi:     accumulate the exact time average of phi(mu^N) over [burn, end]
             (piecewise-constant between jumps, no grid bias).

    Returns {"lattice": count_lattice(d, N), "states": (R, T) int32 rows of
    the lattice or None, "phi_avg": (R,) or None, "events": (R,) int64 event
    counts within the horizon}; lattice[states] are the recorded counts.
    """
    raw = np.asarray(counts0)
    if raw.ndim != 2 or raw.shape[1] != model.d:
        raise InputError(f"counts0 needs d = {model.d} counts a row for model"
                         f" {model.name!r}, got shape {raw.shape}")
    counts = raw.astype(np.int64)
    if not np.array_equal(counts, raw):
        raise InputError("counts0 must hold integer counts")
    R = len(counts)
    if R == 0:
        raise InputError("need at least one replication in counts0")
    Ns = counts.sum(axis=1)
    N = int(Ns[0])
    if not np.all(Ns == N):
        raise InputError("all replications must have the same particle count")
    if np.any(counts < 0):
        raise InputError("counts0 must be nonnegative")
    if times is not None and phi is not None:
        raise InputError("record on a grid or average phi, not both in one call")
    if times is None and (phi is None or end is None):
        raise InputError("need a recording grid, or phi with an end time")
    if phi is None:
        if burn != 0.0 or end is not None:
            raise InputError("burn and end bound phi's time average; a grid"
                             " run takes neither")
        times = as_grid(times)
        horizon = float(times[-1])
    else:
        horizon = end = float(end)                 # rows run until then
        if not 0.0 <= burn < end:
            raise InputError("need 0 <= burn < end")

    reps = np.atleast_1d(reps)
    key = rng.stream_key(seed, reps)
    if len(key) != R:
        raise InputError("reps must match the number of rows in counts0")
    chain = count_chain(model, N)
    lattice, inside, jump = chain["lattice"], chain["inside"], chain["jump"]
    check_region = not inside.all()
    lam, below = chain["running"][:, -1], list(chain["running"].T[:-1])
    any_dead = bool(np.any(lam[inside] <= 0.0))
    phi_at = phi(lattice / N) if phi is not None else None
    P, jump = jump.shape[1], jump.ravel()       # state s, pair j: s * P + j

    T = len(times) if times is not None else 0
    times_ext = (
        np.append(times, np.inf) if times is not None else np.array([np.inf])
    )
    # grid mode writes the first grid index that each waiting time crosses;
    # the indices it skips (-1) take the state written before them
    grid = np.full((R, T), -1, dtype=np.int32) if times is not None else None
    flat = grid.ravel() if grid is not None else None
    events_out = np.zeros(R, dtype=np.int64)
    acc_out = np.zeros(R) if phi is not None else None

    # compact state of the active rows, in row order; every active row has
    # made `steps` events so far, so they share the draw counter 2 * steps
    row = np.arange(R)
    key = rng.domain_key(key, rng.DOMAIN_EVENTS)
    s = lattice_index(counts)                   # lattice state
    t = np.zeros(R)
    ptr = np.zeros(R, dtype=np.int64)           # next grid index to write
    nxt = np.full(R, times_ext[0])              # times_ext[ptr]
    acc = np.zeros(R) if phi is not None else None

    def retire(gone):
        """Write back the totals of rows gone and drop them from the state."""
        nonlocal row, key, s, t, ptr, nxt, acc
        # their events: every step but this one, and this one if in time
        events_out[row[gone]] = steps - 1 + (t_new[gone] <= horizon)
        if acc is not None:
            acc_out[row[gone]] = acc[gone]
            acc = acc[~gone]
        row, key, s, t, ptr, nxt = (
            a[~gone] for a in (row, key, s, t, ptr, nxt))

    steps = 0
    while len(row):
        if check_region and not inside[s].all():
            bad = int(np.argmin(inside[s]))
            raise DomainExitError(
                f"empirical measure of replication {int(reps[row[bad]])}"
                f" left the valid region of {model.name!r} at t={t[bad]:.6g}",
                time=float(t[bad]),
            )
        lam_s = lam[s]
        if not steps and float(lam_s.max()) * horizon > MAX_EVENTS:
            raise InputError(f"expected about {float(lam_s.max()) * horizon:.3g}"
                             f" events in a replication up to t={horizon:.6g},"
                             f" more than MAX_EVENTS = {MAX_EVENTS}")

        # a dead row (no outgoing rate) never jumps: its next event is at
        # +inf (explicitly, as u = 1 gives 0/0), so this step records the
        # rest of its grid and its phi tail, and retires it
        u = rng.uniforms(key, _WAIT_CAT + np.uint64(2 * steps))     # (2, n)
        t_new = t - np.log(u[0]) / lam_s
        if any_dead:
            t_new[lam_s <= 0.0] = np.inf

        if grid is not None:
            sel = np.flatnonzero(nxt < t_new)
            if len(sel):
                at = ptr[sel]
                flat[row[sel] * T + at] = s[sel]
                # past the next grid time, or past every one t_new passed
                at += 1
                ts = t_new[sel]
                far = times_ext[at] < ts
                if far.any():
                    at[far] = np.searchsorted(times, ts[far])
                ptr[sel] = at
                nxt[sel] = times_ext[at]
        if acc is not None:
            span = np.minimum(t_new, end) - np.maximum(t, burn)
            nz = span > 0
            if nz.all():
                acc += phi_at[s] * span
            elif nz.any():
                acc[nz] += phi_at[s[nz]] * span[nz]

        # the jump: the first pair whose running total reaches u * lambda
        # (a dead row takes pair 0's jump; it retires below, unread)
        v = u[1] * lam_s
        to = s * P                              # + the pair's number
        for b in below:
            to += b[s] < v
        s = jump[to]
        t = t_new
        steps += 1
        done = t_new > horizon if grid is not None else t_new >= end
        # a row that goes on has made `steps` events
        if steps > MAX_EVENTS and not done.all():
            raise SolverError(f"a replication exceeded {MAX_EVENTS} events")
        if done.any():
            retire(done)

    out: dict = {"lattice": lattice, "states": None, "phi_avg": None,
                 "events": events_out}
    if grid is not None:
        skipped = np.flatnonzero(flat < 0)
        while len(skipped):                     # a run of k fills in k passes
            flat[skipped] = flat[skipped - 1]
            skipped = skipped[flat[skipped] < 0]
        out["states"] = grid
    if acc_out is not None:
        out["phi_avg"] = acc_out / (end - burn)
    return out


def simulate(model: Model, mu0, N: int, times, seed: int,
             rep: int = 0) -> tuple:
    """Replication rep recorded on a grid: its (T, d) counts and its number
    of events within the horizon."""
    reps = np.array([rep])
    res = gillespie_batch(model, sample_initial(mu0, N, seed, reps), seed,
                          reps, times=times)
    return res["lattice"][res["states"][0]], int(res["events"][0])


_WORKER: Optional[Callable[[int, int], object]] = None   # see run_chunks


def _run_worker(lo: int, hi: int):
    """Chunk entry point in a forked worker: calls the inherited _WORKER."""
    return _WORKER(lo, hi)


def run_chunks(worker: Callable[[int, int], object], R: int, threads: int = 1,
               chunk: int = CHUNK) -> list:
    """Apply worker(lo, hi) to [0, R) in fixed chunks; ordered results.

    With threads > 1 the chunks run in min(threads, chunks) forked worker
    processes.  The worker is never pickled: it sits in the module slot
    _WORKER while the pool forks, so each process inherits it and receives
    only (lo, hi); the chunk results come back pickled.  The reduction order
    is the chunk order, not the completion order, so outputs are
    bit-identical for any worker count.  A chunk's exception is raised here,
    after the pending chunks are cancelled and every worker has exited.

    Fork, not spawn: workers are closures over the caller's arrays, which
    spawn would have to pickle, and spawn re-imports numpy in every worker.
    A fork copies only the calling thread, so call this from a process with
    no other threads at work (the CLI has none), one call at a time.
    """
    global _WORKER
    spans = [(lo, min(lo + chunk, R)) for lo in range(0, R, chunk)]
    if threads <= 1 or len(spans) == 1:
        return [worker(lo, hi) for lo, hi in spans]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _WORKER = worker
    pool = ProcessPoolExecutor(max_workers=min(threads, len(spans)),
                               mp_context=multiprocessing.get_context("fork"))
    try:
        futs = [pool.submit(_run_worker, lo, hi) for lo, hi in spans]
        return [fut.result() for fut in futs]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _WORKER = None


def mc_moments(values: Callable[[int, int], np.ndarray], R: int,
               threads: int = 1) -> tuple:
    """Monte Carlo mean and standard error over replications [0, R).

    values(lo, hi) returns an array whose leading axis runs over
    replications lo..hi-1.  Each chunk's sums of x and x^2 over that axis
    are added in chunk order (see run_chunks), so the result is
    bit-identical for any worker count.  Returns (mean, stderr), each
    shaped like one replication's value.

    A chunk array that owns its data (x.flags.owndata: values built it) is
    squared in place once its sum is taken, so a worker holds one chunk-sized
    array, not two.  A view, such as a slice of the caller's array, is
    squared into a new array and never written; values must not return an
    array of its own that it keeps and reads again.
    """
    R = check_count(R, "R (replications)", 2)      # for a standard error

    def sums(lo, hi):
        x = values(lo, hi)
        s1 = x.sum(axis=0)
        own = x.flags.owndata and x.flags.writeable
        return s1, np.multiply(x, x, out=x if own else None).sum(axis=0)

    per_chunk = run_chunks(sums, R, threads)
    s1 = sum(s for s, _ in per_chunk)
    s2 = sum(q for _, q in per_chunk)
    mean = s1 / R
    var = np.maximum(s2 - R * mean * mean, 0.0) / (R - 1)
    return mean, np.sqrt(var / R)


def mc_observable(
    model: Model,
    phi: Callable[[np.ndarray], np.ndarray],
    counts0,
    times,
    seed: int,
    threads: int = 1,
) -> tuple:
    """Monte Carlo mean of phi(mu^N_t) on a grid, and its standard error.

    Replication r starts from counts0[r] (see initial_counts) and runs
    stream (seed, r).  Returns (mean, stderr), each (T,), as mc_moments does.
    """
    times = as_grid(times)
    counts0 = np.asarray(counts0)

    def values(lo, hi):
        res = gillespie_batch(model, counts0[lo:hi], seed,
                              np.arange(lo, hi, dtype=np.uint64), times=times)
        return phi(res["lattice"] / int(counts0[lo].sum()))[res["states"]]

    return mc_moments(values, len(counts0), threads)
