"""Desk-scale numerical laboratory for sublinear expectations: semigroup
solvers, scenario Monte Carlo, coupling by change of measure, and
Harnack-inequality certificates for state equations with volatility
uncertainty."""

from .model import (
    ModelCoefficients,
    ModelError,
    Payoff,
    TimeGrid,
    ValidationReport,
    VolatilityBand,
    Z,
    default_state_domain,
    g_function,
    make_coefficient,
    make_payoff,
    validate_coefficients,
    within_band,
)
from .gheat import (
    GridFunction,
    PdeConfig,
    PdeError,
    PolicyTable,
    Semigroups,
    solve_g_heat,
    solve_semigroups,
    solve_stack,
)
from .scenario import (
    EstimateWithError,
    FeedbackControl,
    PathIncrements,
    ScenarioControl,
    ScenarioError,
    YoungReport,
    random_young_trial,
    sample_controls,
    upper_semigroup_mc,
    young_check,
)
from .coupling import (
    CouplingError,
    CouplingSchedule,
    ClipSample,
    CoupledRun,
    PathBundle,
    SlackReport,
    coupling_success_check,
    entropy_bound_check,
    entropy_bound_value,
    make_schedule,
    moment_bound_check,
    moment_bound_value,
    moment_exponent_a,
    simulate_bundle,
    simulate_coupled,
)
from .harnack import (
    HarnackError,
    HarnackReport,
    check_gradient_estimate,
    check_log_harnack,
    check_log_harnack_grid,
    check_power_harnack,
    gradient_bound,
    lipschitz_transport_check,
    log_harnack_constant,
    power_harnack_exponent,
    power_threshold,
)
from .config import ConfigError, RunConfig, parse_run_config

__version__ = "0.1.0"
