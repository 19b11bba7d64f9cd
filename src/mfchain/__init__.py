"""mfchain: finite-state mean-field jump systems.

Simulation of N interacting particles whose jump rates depend on the
empirical measure, the limiting nonlinear flow on the simplex, the
linearized (tangent) dynamics and measure derivatives, checkable
exponential-ergodicity certificates, and a CLI harness that measures the
uniform-in-time O(1/N) weak error empirically.
"""

__version__ = "0.1.0"

from .errors import DomainExitError, InputError, MfchainError, SolverError  # noqa
from .simplex import (                                        # noqa: E402
    ScalarField,
    as_measure,
    as_tangent,
    barycenter,
    dirac,
    functional_derivative_all,
    make_observable,
    simplex_lattice,
)
from .models import (                                         # noqa: E402
    Model,
    ValidRegion,
    constant,
    example_chaos,
    example_non_erg,
    example_slow_conv,
    make_model,
    register_model,
    weak_interaction,
    zero,
)
from .kolmogorov import (                                     # noqa: E402
    make_grid,
    solve_flow,
    solve_kolmogorov,
    stationary_distribution,
)
from .linearized import (                                     # noqa: E402
    check_condition1,
    check_condition2,
    estimate_decay,
    m1,
    margin_matrix,
    nonlinear_contraction_rate,
)
from .master import (                                         # noqa: E402
    dU_dmeasure_all,
    eval_U,
    master_residual_scan,
    tau_remainder,
)
from .particles import (                                      # noqa: E402
    gillespie_batch,
    initial_counts,
    mc_observable,
    sample_initial,
    simulate,
)

__all__ = [
    "__version__",
    "DomainExitError", "InputError", "MfchainError", "SolverError",
    "ScalarField", "as_measure", "as_tangent", "barycenter", "dirac",
    "functional_derivative_all", "make_observable", "simplex_lattice",
    "Model", "ValidRegion", "constant", "example_chaos", "example_non_erg",
    "example_slow_conv", "make_model", "register_model", "weak_interaction",
    "zero",
    "make_grid", "solve_flow", "solve_kolmogorov", "stationary_distribution",
    "check_condition1", "check_condition2", "estimate_decay", "m1",
    "margin_matrix", "nonlinear_contraction_rate",
    "dU_dmeasure_all", "eval_U", "master_residual_scan", "tau_remainder",
    "gillespie_batch", "initial_counts", "mc_observable", "sample_initial",
    "simulate",
]
