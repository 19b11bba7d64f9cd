"""Interacting particle system: exact event-driven simulation.

N particles on [d] jump with rates alpha_{x y}(mu^N_t) read off the current
empirical measure.  The state is kept as an occupancy-count vector; the
system's next transition is sampled by the direct (Gillespie) method:

  * total event rate   Lambda = sum_{x, y != x} counts_x * alpha_{x y}(mu),
  * waiting time       Exp(1) / Lambda,
  * transition (x, y)  chosen proportionally to counts_x * alpha_{x y}(mu),

with rates re-evaluated after every event.  Replications run in lockstep as
batched array rows, each driven by its own counter-based random stream, so
results are independent of batching, chunking, and thread count.

Randomness layout per replication (see rng module): the init domain uses
draw i for particle i's initial state; the event domain uses draws 2k and
2k+1 for the waiting time and transition choice of event k.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import DomainExitError, InputError, SolverError
from .models import Model
from .simplex import as_measure

CHUNK = 5000
MAX_EVENTS = 10**9         # per replication; more means a runaway simulation


@dataclass
class EmpiricalPath:
    """One replication's occupancy counts on a recording grid."""

    times: np.ndarray
    counts: np.ndarray          # (T, d) int
    N: int
    seed: int
    rep: int
    n_events: int
    model_name: str = ""

    @property
    def measures(self) -> np.ndarray:
        return self.counts / self.N


@dataclass
class MCEstimate:
    """Monte Carlo estimate of E[phi(mu^N_t)] on a grid."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    R: int
    N: int
    seed: int
    model_name: str = ""
    phi_name: str = ""


def sample_initial(mu0, N: int, seed: int, reps) -> np.ndarray:
    """Occupancy counts of iid mu0-distributed initial states.

    reps may be an int (single replication; returns (d,)) or an array of
    replication indices (returns (len(reps), d)).  Particle i of replication
    r consumes draw i of the init domain of stream (seed, r), so the same
    (seed, r, N) always yields the same configuration.
    """
    mu0 = as_measure(mu0)
    if N < 1:
        raise InputError(f"need N >= 1 particles, got {N}")
    d = len(mu0)
    scalar = np.isscalar(reps)
    reps_arr = np.atleast_1d(np.asarray(reps, dtype=np.uint64))
    keys = rng.domain_key(rng.stream_key(seed, reps_arr), rng.DOMAIN_INIT)
    u = rng.uniforms(keys[:, None], np.arange(N, dtype=np.uint64)[None, :])
    cdf = np.cumsum(mu0)
    cdf[-1] = 1.0
    states = np.searchsorted(cdf, u, side="left")       # (R, N)
    counts = np.zeros((len(reps_arr), d), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(len(reps_arr)), N), states.ravel()), 1)
    return counts[0] if scalar else counts


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
    times:   recording grid; states are right-continuous, so grid time g
             gets the pre-jump counts of the first jump strictly after g.
    phi:     if given, accumulate the exact time average of phi(mu^N) over
             [burn, end] (piecewise-constant between jumps, no grid bias).

    Returns {"counts": (R, T, d) int32 or None, "phi_avg": (R,) or None,
    "events": (R,) int64 event counts within the horizon}.
    """
    counts = np.array(counts0, dtype=np.int64)
    R, d = counts.shape
    if R == 0:
        raise InputError("need at least one replication in counts0")
    Ns = counts.sum(axis=1)
    N = int(Ns[0])
    if not np.all(Ns == N):
        raise InputError("all replications must have the same particle count")
    if N < 1:
        raise InputError(f"need N >= 1 particles, got {N}")
    if times is None and (phi is None or end is None):
        raise InputError("need a recording grid, or phi with an end time")
    if times is not None:
        times = np.asarray(times, dtype=float)
    horizon = float(times[-1]) if times is not None else float(end)
    if phi is not None:
        end = horizon if end is None else float(end)
        if not 0.0 <= burn < end:
            raise InputError("need 0 <= burn < end")

    reps_arr = np.atleast_1d(np.asarray(reps, dtype=np.uint64))
    if len(reps_arr) != R:
        raise InputError("reps must match the number of rows in counts0")
    ekeys = rng.domain_key(rng.stream_key(seed, reps_arr), rng.DOMAIN_EVENTS)

    T = len(times) if times is not None else 0
    times_ext = (
        np.append(times, np.inf) if times is not None else np.array([np.inf])
    )
    grid = (
        np.zeros((R, T, d), dtype=np.int32) if times is not None else None
    )
    ptr = np.zeros(R, dtype=np.int64)
    acc = np.zeros(R) if phi is not None else None
    t = np.zeros(R)
    k = np.zeros(R, dtype=np.uint64)
    events = np.zeros(R, dtype=np.int64)
    active = np.ones(R, dtype=bool)
    check_region = model.valid_region.min_mass > 0.0

    def flush(rows):
        """Record the rest of the grid / phi tail for frozen rows."""
        if grid is not None:
            while True:
                m = ptr[rows] < T
                if not m.any():
                    break
                rr = rows[m]
                grid[rr, ptr[rr]] = counts[rr]
                ptr[rr] += 1
        if acc is not None:
            lo = np.maximum(t[rows], burn)
            span = np.maximum(end - lo, 0.0)
            acc[rows] += phi(counts[rows] / N) * span

    while active.any():
        idx = np.nonzero(active)[0]
        mu = counts[idx] / N
        if check_region and not np.all(model.valid_region.contains(mu)):
            bad = idx[~model.valid_region.contains(mu)][0]
            raise DomainExitError(
                f"empirical measure of replication {int(reps_arr[bad])} left"
                f" the valid region of {model.name!r} at t={t[bad]:.6g}",
                time=float(t[bad]),
            )
        A = model.rates(mu)
        W = counts[idx][:, :, None] * A
        W[:, np.arange(d), np.arange(d)] = 0.0
        lam = W.sum(axis=(1, 2))

        dead = lam <= 0.0
        if dead.any():
            rows = idx[dead]
            flush(rows)
            active[rows] = False
            if dead.all():
                continue
            keep = ~dead
            idx, W, lam = idx[keep], W[keep], lam[keep]

        u_wait = rng.uniforms(ekeys[idx], 2 * k[idx])
        u_cat = rng.uniforms(ekeys[idx], 2 * k[idx] + np.uint64(1))
        t_new = t[idx] - np.log(u_wait) / lam

        if grid is not None:
            while True:
                m = times_ext[ptr[idx]] < t_new
                if not m.any():
                    break
                rr = idx[m]
                grid[rr, ptr[rr]] = counts[rr]
                ptr[rr] += 1
        if acc is not None:
            lo = np.maximum(t[idx], burn)
            hi = np.minimum(t_new, end)
            span = np.maximum(hi - lo, 0.0)
            nz = span > 0
            if nz.any():
                acc[idx[nz]] += phi(counts[idx[nz]] / N) * span[nz]

        cs = np.cumsum(W.reshape(len(idx), d * d), axis=1)
        v = u_cat * lam
        j = np.minimum((cs < v[:, None]).sum(axis=1), d * d - 1)
        x, y = j // d, j % d
        counts[idx, x] -= 1
        counts[idx, y] += 1
        events[idx] += t_new <= horizon
        t[idx] = t_new
        k[idx] += np.uint64(1)
        if np.any(events[idx] > MAX_EVENTS):
            raise SolverError(f"a replication exceeded {MAX_EVENTS} events")

        done = np.ones(len(idx), dtype=bool)
        if grid is not None:
            done &= ptr[idx] >= T
        if acc is not None:
            done &= t_new >= end
        if done.any():
            active[idx[done]] = False

    out: dict = {"events": events, "counts": None, "phi_avg": None}
    if grid is not None:
        out["counts"] = grid
    if acc is not None:
        out["phi_avg"] = acc / (end - burn)
    return out


def simulate(
    model: Model,
    mu0,
    N: int,
    times,
    seed: int,
    rep: int = 0,
) -> EmpiricalPath:
    """One replication recorded on a grid."""
    times = np.asarray(times, dtype=float)
    counts0 = sample_initial(mu0, N, seed, np.array([rep]))
    res = gillespie_batch(model, counts0, seed, np.array([rep]), times=times)
    return EmpiricalPath(
        times=times,
        counts=res["counts"][0],
        N=N,
        seed=seed,
        rep=rep,
        n_events=int(res["events"][0]),
        model_name=model.name,
    )


def run_chunks(worker: Callable[[int, int], object], R: int, threads: int = 1,
               chunk: int = CHUNK) -> list:
    """Apply worker(lo, hi) to [0, R) in fixed chunks; ordered results.

    The reduction order is the chunk order, not the completion order, so
    outputs are bit-identical for any thread count.
    """
    spans = [(lo, min(lo + chunk, R)) for lo in range(0, R, chunk)]
    if threads <= 1 or len(spans) == 1:
        return [worker(lo, hi) for lo, hi in spans]
    results: list = [None] * len(spans)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futs = {ex.submit(worker, lo, hi): i for i, (lo, hi) in enumerate(spans)}
        for fut, i in futs.items():
            results[i] = fut.result()
    return results


def mc_moments(values: Callable[[int, int], tuple], R: int,
               threads: int = 1) -> list:
    """Monte Carlo means and standard errors over replications [0, R).

    values(lo, hi) returns a tuple of arrays whose leading axis runs over
    replications lo..hi-1.  Each chunk's sums of x and x^2 over that axis
    are added in chunk order (see run_chunks), so the result is
    bit-identical for any thread count.  Returns one (mean, stderr) pair
    per array, each shaped like one replication's value.

    The arrays are summed one by one on purpose: summing them stacked as
    one (r, k, T) array can differ in the last bits (seen at T = 1).
    """
    if R < 1:
        raise InputError(f"need at least one replication, got R = {R}")

    def sums(lo, hi):
        return [(x.sum(axis=0), (x * x).sum(axis=0)) for x in values(lo, hi)]

    out = []
    for per_chunk in zip(*run_chunks(sums, R, threads)):
        s1 = sum(s for s, _ in per_chunk)
        s2 = sum(q for _, q in per_chunk)
        mean = s1 / R
        var = np.maximum(s2 - R * mean * mean, 0.0) / max(R - 1, 1)
        out.append((mean, np.sqrt(var / R)))
    return out


def mc_observable(
    model: Model,
    phi: Callable[[np.ndarray], np.ndarray],
    mu0,
    N: int,
    times,
    R: int,
    seed: int,
    threads: int = 1,
) -> MCEstimate:
    """Monte Carlo mean of phi(mu^N_t) over R replications on a grid."""
    times = np.asarray(times, dtype=float)

    def values(lo, hi):
        reps = np.arange(lo, hi, dtype=np.uint64)
        counts0 = sample_initial(mu0, N, seed, reps)
        res = gillespie_batch(model, counts0, seed, reps, times=times)
        return (phi(res["counts"] / N),)                    # (r, T)

    [(mean, stderr)] = mc_moments(values, R, threads)
    return MCEstimate(
        times=times,
        mean=mean,
        stderr=stderr,
        R=R,
        N=N,
        seed=seed,
        model_name=model.name,
        phi_name=getattr(phi, "name", ""),
    )
