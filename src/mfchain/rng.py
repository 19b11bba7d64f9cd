"""Counter-based random streams for reproducible parallel Monte Carlo.

Every random quantity consumed by the simulators is a pure function of
(master seed, replication index, domain, draw index).  That makes results
bit-identical for a fixed master seed no matter how replications are
chunked or scheduled across workers, and lets any single replication be
replayed in isolation.

The construction is a SplitMix64-style hash chain on 64-bit counters::

    stream_key(seed, r)  = mix64((seed + 1) * PHI + (r + 1) * GAMMA)
    domain_key(key, dom) = mix64(key ^ (dom + 1) * GAMMA)
    raw(subkey, k)       = mix64(subkey + k * PHI)
    uniform              = ((raw >> 11) + 1) * 2**-53        # in (0, 1]

``mix64`` is the SplitMix64 finalizer; PHI and GAMMA are odd 64-bit
constants (fractional parts of the golden and plastic ratios) so the
counter sequences have full period.  All arithmetic wraps mod 2**64.

Uniforms are strictly positive so ``-log(u)`` is always finite, which the
event-driven simulator relies on for exponential waiting times.

Domains used by this package:

* ``DOMAIN_EVENTS`` -- jump-time / jump-category draws; event k consumes
  draw indices 2k (waiting time) and 2k+1 (category).
* ``DOMAIN_INIT``   -- initial-condition sampling; particle i consumes
  draw index i.
* ``DOMAIN_SCAN``   -- generic deterministic sampling (random measures,
  random test points) used by the analysis routines.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

MASK64 = 0xFFFFFFFFFFFFFFFF

PHI = np.uint64(0x9E3779B97F4A7C15)
GAMMA = np.uint64(0xD1B54A32D192ED03)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE = np.uint64(1)
_INV53 = 2.0 ** -53

DOMAIN_EVENTS = 0
DOMAIN_INIT = 1
DOMAIN_SCAN = 2


def mix64(x):
    """SplitMix64 finalizer, elementwise on uint64 scalars or arrays."""
    x = np.array(x, dtype=np.uint64, copy=True)
    with np.errstate(over="ignore"):            # wraparound is the algorithm
        x ^= x >> _S30
        x *= _MUL1
        x ^= x >> _S27
        x *= _MUL2
        x ^= x >> _S31
    return x if x.ndim else np.uint64(x)


def stream_key(seed: int, rep):
    """Per-replication key.  ``rep`` may be an int or an integer array."""
    s = np.uint64((int(seed) + 1) & MASK64)
    r = np.asarray(rep, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = s * PHI + (r + _ONE) * GAMMA
    out = mix64(mixed)
    return out if np.ndim(rep) else np.uint64(out)


def domain_key(key, domain: int):
    """Sub-key for an independent draw domain within a stream."""
    d = np.uint64((int(domain) + 1) & MASK64)
    with np.errstate(over="ignore"):
        mixed = np.asarray(key, dtype=np.uint64) ^ (d * GAMMA)
    return mix64(mixed)


def raw_draws(subkey, index):
    """Raw 64-bit outputs for draw counters ``index`` (broadcasts)."""
    k = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = np.asarray(subkey, dtype=np.uint64) + k * PHI
    return mix64(mixed)


def uniforms(subkey, index):
    """Uniform draws in (0, 1] for the given counters (broadcasts)."""
    r = raw_draws(subkey, index)                # a new array: work in place
    r >>= _S11
    r += _ONE                                   # at most 2**53: fits int64
    return r.view(np.int64) * _INV53            # int64 -> float64 is fast


def uniform_block(seed: int, rep: int, domain: int, start: int, n: int):
    """Convenience: ``n`` consecutive uniforms of one stream/domain."""
    key = domain_key(stream_key(seed, rep), domain)
    return uniforms(key, np.arange(start, start + n, dtype=np.uint64))


def random_measures(seed: int, n: int, d: int, floor: float = 0.0, rep: int = 0):
    """``n`` deterministic pseudo-random points of the d-simplex.

    Uniform on the simplex via normalized exponential spacings; with
    ``floor`` > 0 the points are squeezed into the region where every
    coordinate is at least ``floor``.
    """
    if not 0.0 <= floor * d < 1.0:
        raise InputError("floor must satisfy 0 <= floor*d < 1")
    u = uniform_block(seed, rep, DOMAIN_SCAN, 0, n * d).reshape(n, d)
    e = -np.log(u)
    w = e / e.sum(axis=1, keepdims=True)
    return floor + (1.0 - d * floor) * w
