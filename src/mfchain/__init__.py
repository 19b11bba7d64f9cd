"""mfchain: finite-state mean-field jump systems.

Simulation of N interacting particles whose jump rates depend on the
empirical measure, the limiting nonlinear flow on the simplex, the
linearized (tangent) dynamics and measure derivatives, checkable
exponential-ergodicity certificates, and a CLI harness that measures the
uniform-in-time O(1/N) weak error empirically.
"""

__version__ = "0.1.0"

from .simplex import (                                        # noqa: E402
    ScalarField,
    as_measure,
    as_tangent,
    barycenter,
    dirac,
    directional_derivative,
    ftc_difference,
    functional_derivative_all,
    l1_distance,
    linear_functional_derivative,
    make_observable,
    mix,
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
    Trajectory,
    flow_map,
    make_grid,
    solve_flow,
    solve_kolmogorov,
    stationary_distribution,
)
from .linearized import (                                     # noqa: E402
    DecayEstimate,
    ErgodicityReport,
    apply_L,
    check_condition1,
    check_condition2,
    dm_dmeasure,
    dm_dmeasure_all,
    estimate_decay,
    m1,
    margin_matrix,
    nonlinear_contraction_rate,
    solve_linear_cauchy,
)
from .master import (                                         # noqa: E402
    PropagatedObservable,
    dU_dmeasure,
    dU_dmeasure_all,
    eval_U,
    master_residual,
    master_residual_scan,
    tau_remainder,
)
from .particles import (                                      # noqa: E402
    EmpiricalPath,
    MCEstimate,
    gillespie_batch,
    mc_observable,
    sample_initial,
    simulate,
)

__all__ = [
    "__version__",
    "ScalarField", "as_measure", "as_tangent", "barycenter", "dirac",
    "directional_derivative", "ftc_difference", "functional_derivative_all",
    "l1_distance", "linear_functional_derivative", "make_observable", "mix",
    "simplex_lattice",
    "Model", "ValidRegion", "constant", "example_chaos", "example_non_erg",
    "example_slow_conv", "make_model", "register_model", "weak_interaction",
    "zero",
    "Trajectory", "flow_map", "make_grid", "solve_flow", "solve_kolmogorov",
    "stationary_distribution",
    "DecayEstimate", "ErgodicityReport", "apply_L", "check_condition1",
    "check_condition2", "dm_dmeasure", "dm_dmeasure_all", "estimate_decay",
    "m1", "margin_matrix", "nonlinear_contraction_rate",
    "solve_linear_cauchy",
    "PropagatedObservable", "dU_dmeasure", "dU_dmeasure_all", "eval_U",
    "master_residual", "master_residual_scan", "tau_remainder",
    "EmpiricalPath", "MCEstimate", "gillespie_batch", "mc_observable",
    "sample_initial", "simulate",
]
