"""The failures mfchain raises on purpose.  The CLI prints one as a single
`mfchain: error:` line and exits 1; any other exception is a bug and keeps
its traceback.  Exit codes 2 and 3 are verdicts written into reports."""


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
