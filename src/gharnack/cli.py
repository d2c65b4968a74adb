"""Command-line entry point: parse a run config, dispatch solvers and
checkers, and emit deterministic CSV/JSON reports. This module formats and
writes every output file; the solvers and checkers write none.

Exit codes: 0 all checks pass, 1 at least one inequality violated beyond
tolerance, 2 configuration or validation error, 3 internal error (any other
exception, reported on one line). Outputs are a pure function of
(config bytes, seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

from .config import ConfigError, RunConfig, _in_range, parse_run_config
# Every subcommand solves a PDE or reads its policy type, so gheat loads
# with the command line; each runner loads the other layers it uses.
from .gheat import Semigroups, solve_semigroups
from .model import (CouplingError, HarnackError, ModelError, PdeError,
                    ScenarioError, within_band)
from .plan import _UNIT_COEFFS, SWEEP_FRACTIONS


def run_gheat(cfg: RunConfig):
    heat = solve_semigroups(_UNIT_COEFFS, cfg.band, cfg.grid.horizon, cfg.pde,
                            [cfg.payoff])
    u = heat.fine[cfg.payoff]
    entry = {"kind": "gheat", "payoff": cfg.payoff.name, "x": cfg.check_x,
             "value": float(u(cfg.check_x)),
             "tolerance": heat.tolerance(cfg.payoff, cfg.check_x)}
    return [entry], {"grid_u": u}, []


def solve_model(cfg: RunConfig, harnack: bool = False):
    """The model semigroup of one run: P_T f, and for the Harnack checks
    P_T log f and (when kappa2 > kappa1) P_T f^p, in one stacked pass on
    each of the two grids.

    Returns the Semigroups and the (log f, f^p) Payoff keys of its rows, None
    where not solved.
    """
    log_f = f_p = None
    if harnack:
        log_f = cfg.payoff.log()
        if cfg.coeffs.kappa2 > cfg.coeffs.kappa1:
            f_p = cfg.payoff.power(cfg.check_p)
    payoffs = [q for q in (cfg.payoff, log_f, f_p) if q is not None]
    semigroups = solve_semigroups(cfg.coeffs, cfg.band, cfg.grid.horizon,
                                  cfg.pde, payoffs)
    return semigroups, log_f, f_p


def run_semigroup(cfg: RunConfig, semigroups: Semigroups):
    u = semigroups.fine[cfg.payoff]
    entries = [
        {"kind": "semigroup", "payoff": cfg.payoff.name, "x": pt,
         "value": float(u(pt)), "tolerance": semigroups.tolerance(cfg.payoff, pt)}
        for pt in (cfg.check_x, cfg.check_y)
    ]
    return entries, {"grid_u": u}, []


def run_scenario(cfg: RunConfig):
    """Sup-over-controls MC against the PDE oracle, plus Young trials."""
    from . import scenario as sc

    # The fine G-heat pass records the feedback policy the controls follow.
    heat = solve_semigroups(_UNIT_COEFFS, cfg.band, cfg.grid.horizon, cfg.pde,
                            [cfg.payoff], policy_grid=cfg.grid)
    pde_value = float(heat.fine[cfg.payoff](cfg.check_x))
    pde_tol = heat.tolerance(cfg.payoff, cfg.check_x)
    controls = sc.sample_controls("feedback", cfg.band, cfg.grid,
                                  cfg.n_controls, cfg.seed,
                                  policy=heat.policy[cfg.payoff])
    est = sc.upper_semigroup_mc(_UNIT_COEFFS, cfg.payoff, cfg.check_x,
                                controls, cfg.n_paths, cfg.seed)
    entry = {
        "kind": "scenario_oracle", "payoff": cfg.payoff.name,
        "mc_value": est.value, "std_error": est.std_error,
        "pde_value": pde_value, "pde_tolerance": pde_tol,
        "passed": within_band(est.value, pde_value, pde_tol, est.std_error),
    }

    # The trial of least slack, the first of them on a tie.
    trials = zip(*sc.random_young_trials(cfg.seed, 200))
    worst = min((sc.young_check(*trial) for trial in trials),
                key=lambda report: report.slack)
    young_entry = {"kind": "young", "trials": 200, "worst_slack": worst.slack,
                   "passed": worst.passed}
    return [entry, young_entry], {}, [("upper_expectation", est)]


def run_coupling(cfg: RunConfig):
    from . import coupling as cpl, scenario as sc

    T = cfg.grid.horizon
    schedule = cfg.schedule
    controls = sc.sample_controls(cfg.strategy, cfg.band, cfg.grid,
                                  cfg.n_controls, cfg.seed)
    x0, y0 = cfg.check_x, cfg.check_y
    sweep = [frac * T for frac in SWEEP_FRACTIONS]
    # One pass at the smallest clip serves every control and clip node; it
    # draws w one block of paths at a time, and the export paths (its first
    # rows) keep their own.
    run = cpl.simulate_coupled(
        cfg.coeffs, schedule, x0, y0, controls, [cfg.clip_epsilon, *sweep],
        sc.PathIncrements(cfg.seed, cfg.n_paths, cfg.grid))
    at_clip = run.at_clip(cfg.clip_epsilon)
    entropy = cpl.entropy_bound_check(cfg.coeffs, schedule, x0, y0, at_clip)
    entries = [dataclasses.asdict(entropy)]
    if cfg.coeffs.kappa2 > cfg.coeffs.kappa1:
        moment = cpl.moment_bound_check(cfg.coeffs, schedule, x0, y0, at_clip)
        entries.append(dataclasses.asdict(moment))

    trend = cpl.coupling_success_check(
        schedule, x0, y0, {eps: run.at_clip(eps) for eps in sweep})
    entries.append(dataclasses.asdict(trend))

    # The Euler cross term scales with dt times the larger of T and the
    # shift's energy.
    discrepancy, energy = map(max, zip(*(
        cpl.shifted_qv_discrepancy(b, cfg.clip_epsilon) for b in run.heads)))
    tolerance = 10.0 * cfg.grid.dt * max(T, energy)
    entries.append({"kind": "shifted_qv",
                    "passed": within_band(discrepancy, 0.0, tolerance, 0.0),
                    "discrepancy": discrepancy, "tolerance": tolerance})
    return entries, {"paths": run.heads}, []


def run_harnack(cfg: RunConfig, semigroups: Semigroups, log_f, f_p):
    """Log-Harnack, power-Harnack (when f_p is solved) and Lipschitz
    certificates, read from the rows of f, log f and f^p in `semigroups`."""
    from . import harnack as hk

    x, y = cfg.check_x, cfg.check_y
    reports = [hk.check_log_harnack(semigroups, cfg.payoff, log_f, x, y)]
    if f_p is not None:
        reports.append(hk.check_power_harnack(semigroups, cfg.payoff, f_p, x,
                                              y, cfg.check_p))
    reports.append(hk.lipschitz_transport_check(semigroups, cfg.payoff, x, y))
    return [dataclasses.asdict(r) for r in reports], {}, []


def run_gradient(cfg: RunConfig, semigroups: Semigroups):
    from . import harnack as hk

    report = hk.check_gradient_estimate(semigroups, cfg.payoff,
                                        cfg.alpha_grid_size)
    return [dataclasses.asdict(report)], {}, []


def run_suite(cfg: RunConfig):
    semigroups, log_f, f_p = solve_model(cfg, harnack=True)
    results = [run_semigroup(cfg, semigroups), run_scenario(cfg),
               run_coupling(cfg), run_harnack(cfg, semigroups, log_f, f_p),
               run_gradient(cfg, semigroups)]
    entries, artifacts, estimates = [], {}, []
    for sub_entries, sub_art, sub_est in results:
        entries.extend(sub_entries)
        artifacts.update(sub_art)
        estimates.extend(sub_est)
    return entries, artifacts, estimates


_RUNNERS = {
    "gheat": run_gheat,
    "semigroup": lambda cfg: run_semigroup(cfg, solve_model(cfg)[0]),
    "scenario": run_scenario,
    "coupling": run_coupling,
    "harnack": lambda cfg: run_harnack(cfg, *solve_model(cfg, harnack=True)),
    "gradient": lambda cfg: run_gradient(cfg, solve_model(cfg)[0]),
    "suite": run_suite,
}


# Subcommands that build the coupling schedule or a Harnack constant, both
# 0/0 at K = 0.
_NEED_POSITIVE_K = ("coupling", "harnack", "gradient", "suite")
# Subcommands that compute the moment bound, exp(c |x - y|^2) when
# kappa2 > kappa1, and those that solve log f, and f^p when kappa2 > kappa1
# with its power-Harnack factor exp(c_p |x - y|^2).
_NEED_MOMENT_BOUND = ("coupling", "suite")
_SOLVE_LOG_AND_POWER = ("harnack", "suite")


def _check_log_and_exp_bounds(cfg: RunConfig, command: str) -> None:
    """Refuse, naming check.payoff, a payoff without a positive floor where
    the run solves log f, and, naming check.y, a separation whose moment
    bound or power-Harnack factor the run would compute beyond the double
    range."""
    if command in _SOLVE_LOG_AND_POWER and not cfg.payoff.strictly_positive:
        raise ConfigError("check.payoff", f"{command} solves log f, but "
                          f"payoff {cfg.payoff.name!r} has no positive lower "
                          "bound")
    k1, k2 = cfg.coeffs.kappa1, cfg.coeffs.kappa2
    if k2 <= k1:
        return
    x, y = cfg.check_x, cfg.check_y
    at = f"|x - y| = {abs(x - y):g}"
    if command in _NEED_MOMENT_BOUND:
        from .coupling import moment_bound_value

        _in_range("check.y", f"{at}: the moment bound exp(c |x - y|^2)",
                  lambda: moment_bound_value(cfg.schedule, k1, k2, x, y))
    if command in _SOLVE_LOG_AND_POWER:
        from .harnack import power_harnack_factor

        _in_range("check.y", f"{at}: the power-Harnack factor "
                  "exp(c_p |x - y|^2)",
                  lambda: power_harnack_factor(cfg.check_p, cfg.coeffs,
                                               cfg.band, cfg.grid.horizon,
                                               x, y))


_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
# The report.json keys of the certificates, in the columns of reports.csv.
_CERTIFICATE_KEYS = ("kind", "x", "y", "T", "p", "lhs", "rhs", "slack",
                     "tolerance", "passed")


def _cell(value) -> str:
    """A CSV cell: empty for None, 1 or 0 for a bool, repr for a float."""
    if value is None or isinstance(value, bool):
        return "" if value is None else str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def _atomic_write(path: Path, chunks) -> None:
    """Write the text of `chunks`, formatted as they are taken, to a
    temporary file and rename it to `path`: a run that fails partway, also
    while formatting, leaves no truncated file under the final name."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("".join(chunks), encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def _csv(header: str, rows):
    """The lines of `header`, then of each of `rows` as `_cell`s."""
    yield header + "\n"
    for row in rows:
        yield ",".join(map(_cell, row)) + "\n"


def _path_rows(heads, clip_epsilon: float | None):
    """The rows of paths.csv: each export path of each control at the clip
    node of `clip_epsilon`."""
    for cid, bundle in enumerate(heads):
        t, *at = bundle.at_node(clip_epsilon)
        for p, (x, y, log_m) in enumerate(zip(*(a.tolist() for a in at))):
            yield cid, p, t, x, y, abs(x - y), math.exp(log_m), log_m


def write_outputs(out: Path, entries, artifacts, estimates,
                  clip_epsilon: float | None) -> None:
    """Write report.json and each CSV file the run has rows for into `out`.
    The rows of reports.csv are the certificates of `entries`, those that
    carry lhs and rhs."""
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "report.json",
                  itertools.chain(_JSON.iterencode(entries), ["\n"]))
    if estimates:
        _atomic_write(out / "estimates.csv", _csv(
            "quantity,value,std_error,n_paths,n_controls,best_control_id",
            ((name, e.value, e.std_error, e.n_paths, e.n_controls,
              e.best_control_id) for name, e in estimates)))
    if "grid_u" in artifacts:
        u = artifacts["grid_u"]
        _atomic_write(out / "grid_u.csv",
                      _csv("x,u", zip(u.x_nodes, u.values)))
    if "paths" in artifacts:
        _atomic_write(out / "paths.csv", _csv(
            "control_id,path_id,clip_time,x,y,abs_gap,m,log_m",
            _path_rows(artifacts["paths"], clip_epsilon)))
    certificates = [e for e in entries if "lhs" in e and "rhs" in e]
    if certificates:
        _atomic_write(out / "reports.csv", _csv(
            "kind,x,y,T,p,lhs,rhs,slack,tolerance,pass",
            ([e[key] for key in _CERTIFICATE_KEYS] for e in certificates)))


def bundled_config_path() -> Path:
    return Path(resources.files("gharnack").joinpath("data/acceptance.cfg"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gharnack",
        description="Numerical laboratory for sublinear expectations: "
                    "semigroup solvers, scenario Monte Carlo, coupling "
                    "checks, and Harnack-inequality certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="run configuration (defaults to the bundled "
                            "acceptance config)")
        p.add_argument("--out", type=str, default="out",
                       help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _run(args) -> int:
    config_path = args.config or bundled_config_path()
    try:
        cfg = parse_run_config(config_path, seed_override=args.seed)
        if cfg.coeffs.K == 0.0 and args.command in _NEED_POSITIVE_K:
            raise ConfigError("model.K", f"{args.command} needs K > 0: the "
                              "coupling schedule and the Harnack constants "
                              "are 0/0 at K = 0")
        _check_log_and_exp_bounds(cfg, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot read {config_path}: {exc}", file=sys.stderr)
        return 2

    try:
        entries, artifacts, estimates = _RUNNERS[args.command](cfg)
    except (ModelError, PdeError, ScenarioError, CouplingError,
            HarnackError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2

    write_outputs(Path(args.out), entries, artifacts, estimates,
                  cfg.clip_epsilon)
    failed = [e for e in entries if e.get("passed") is False]
    for e in entries:
        status = {True: "pass", False: "FAIL", None: "info"}[e.get("passed")]
        print(f"{e['kind']}: {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
