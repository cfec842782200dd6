"""Nonlinear response of driven many-body quantum systems.

The package solves the nonlinear Volterra equation for the response function
gamma(t, t'), provides its strong-driving (Bessel) and fast-driving
(exponential-sum) limits plus a self-consistent resolvent route, and
validates everything against numerically exact random-matrix dynamics under
H(t) = H0 + f(t) V.
"""

# the one place the version is kept: pyproject.toml and the harness read it
__version__ = "0.1.0"

from .approximations import (
    FastDrivingRates,
    ResolventGrid,
    StrongDrivingScale,
    bessel_j1,
    crossover_amplitude,
    fast_driving_gamma,
    fast_rates,
    gamma_from_resolvent,
    r_scale,
    r_scale_array,
    resolvent_closed_form,
    resolvent_solve,
    strong_driving_gamma,
    weak_fast_gamma,
)
from .errors import (
    ConfigError,
    EmptyWindowError,
    GridMismatchError,
    NormDriftError,
    ResolventConvergenceError,
    SolverBlowUpError,
)
from .harness import ComparisonMetrics, compare, load_config, parse_config, render_config, run
from .profiles import PerturbationProfile, moment, v_of_t, v_second_deriv
from .protocols import DrivingProtocol, ProtocolIntegrals, eval_f, f1_f2, integrals, phi_arrays
from .response import (
    PredictionSeries,
    ResponseSolution,
    default_step,
    gamma_diagonal,
    gamma_diagonal_values,
    predict_observable,
    solve_gamma,
)
from .rmt import (
    RandomMatrixModel,
    SpectrumSpec,
    TrajectoryResult,
    auxiliary_hamiltonian,
    auxiliary_magnus_check,
    build_eth_observable,
    build_initial_state,
    eth_diagonal,
    fidelity_observable,
    propagate,
    reference_constants,
    sample_v,
    undriven_series,
)
