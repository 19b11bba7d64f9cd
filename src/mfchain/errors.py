"""The failures mfchain raises on purpose, and the one rule for integers.

The CLI prints a failure as a single `mfchain: error:` line and exits 1;
any other exception is a bug and keeps its traceback.  Exit codes 2 and 3
are verdicts written into reports.

Every size, count, seed and replication index enters the library through
check_count, or check_indices for an array of indices, once per call: a
fractional, out-of-range or non-numeric value is refused by name, never
truncated, wrapped or left to a raw TypeError further in.
"""

from numbers import Integral

import numpy as np


class MfchainError(Exception):
    """Base class of every failure mfchain raises on purpose."""


class InputError(MfchainError, ValueError):
    """Bad input: a config value, measure, grid, model or model parameter."""


class SolverError(MfchainError, RuntimeError):
    """A numerical routine tripped a safeguard or did not converge."""


class DomainExitError(SolverError):
    """A flow or an empirical measure left the model's valid region."""

    def __init__(self, msg: str, time: float):
        super().__init__(msg)
        self.time = time

    def __reduce__(self):
        # rebuilt with its time when it crosses from a worker process
        return type(self), (self.args[0], self.time)


def check_count(value, name: str, lo: int = 1, hi=None) -> int:
    """int(value) for an integer (numpy integers pass) in [lo, hi], hi None
    being no cap; otherwise an InputError that names the argument."""
    if isinstance(value, Integral) and lo <= value and (hi is None or value <= hi):
        return int(value)
    got = " ".join(repr(value).split())         # one line, even for an array
    if hi is None:
        raise InputError(f"need an integer {name} >= {lo}, got {got}")
    raise InputError(f"need an integer {lo} <= {name} <= {hi:,}, got {got}")


def check_indices(values, name: str) -> np.ndarray:
    """values as uint64, for an integer dtype with every entry in [0, 2**64);
    otherwise an InputError that names the argument.  The check comes before
    the cast, which would wrap -1 to 2**64 - 1 and truncate 0.5 to 0."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        raise InputError(f"need integer {name} in [0, 2**64), got dtype"
                         f" {a.dtype}")
    if a.dtype.kind == "i" and a.size and a.min() < 0:
        raise InputError(f"need integer {name} in [0, 2**64), got"
                         f" {int(a.min())}")
    return a.astype(np.uint64, copy=False)
