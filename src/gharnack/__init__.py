"""Desk-scale numerical laboratory for sublinear expectations: semigroup
solvers, scenario Monte Carlo, coupling by change of measure, and
Harnack-inequality certificates for state equations with volatility
uncertainty.

Every public name loads its module on first use (PEP 562), so a process
loads only the layers its work reads: parsing a config loads `config`,
`plan` and `model` alone.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_PUBLIC = {
    "model": (
        "ModelCoefficients", "ModelError", "Payoff", "TimeGrid",
        "ValidationReport", "VolatilityBand", "Z", "default_state_domain",
        "g_function", "make_coefficient", "make_payoff",
        "validate_coefficients", "within_band", "PdeError", "ScenarioError",
        "CouplingError", "HarnackError",
    ),
    "plan": ("PdeConfig", "CouplingSchedule", "make_schedule",
             "power_threshold"),
    "gheat": (
        "GridFunction", "PolicyTable", "Semigroups", "solve_g_heat",
        "solve_semigroups", "solve_stack",
    ),
    "scenario": (
        "EstimateWithError", "PathIncrements", "ScenarioControl",
        "YoungReport", "random_young_trials", "sample_controls",
        "upper_semigroup_mc", "young_check",
    ),
    "coupling": (
        "ClipSample", "CoupledRun", "PathBundle", "SlackReport",
        "coupling_success_check", "entropy_bound_check",
        "entropy_bound_value", "moment_bound_check", "moment_bound_value",
        "moment_exponent_a", "simulate_bundle", "simulate_coupled",
    ),
    "harnack": (
        "HarnackReport", "check_gradient_estimate", "check_log_harnack",
        "check_power_harnack", "gradient_bound", "lipschitz_transport_check",
        "log_harnack_constant", "power_harnack_exponent",
    ),
    "config": ("ConfigError", "RunConfig", "parse_run_config"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
