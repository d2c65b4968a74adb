"""Run configuration: line-oriented `key = value` entries under bracketed
section headers (configparser grammar, no interpolation). Cross-field
constraints of the owning modules are re-validated at parse time so a bad
config dies with a field-level diagnostic before any work starts.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    ModelCoefficients,
    ModelError,
    Payoff,
    TimeGrid,
    VolatilityBand,
    coefficient_lipschitz,
    default_state_domain,
    make_coefficient,
    make_payoff,
    validate_coefficients,
)
from .gheat import _UNIT_COEFFS, PdeConfig, PdeError, _cfl_time_step, solve_nbytes
from .coupling import (SWEEP_FRACTIONS, make_schedule, run_nbytes,
                       stability_ratio)
from .harnack import power_threshold


class ConfigError(ValueError):
    """Malformed configuration; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"[{field}] {message}")


@dataclass(frozen=True)
class RunConfig:
    coeffs: ModelCoefficients
    band: VolatilityBand
    grid: TimeGrid
    pde: PdeConfig
    alpha: float
    clip_epsilon: float
    n_paths: int
    n_controls: int
    strategy: str
    check_x: float
    check_y: float
    check_p: float
    alpha_grid_size: int
    payoff: Payoff
    seed: int


# Rows of the largest stacked PDE solve a run makes: f, log f and f^p.
_STACK_ROWS = 3

# Node-steps (explicit time steps x space intervals) one stepping pass may
# take. The CFL step shrinks with dx^2, so n_t grows with n_space^2; at the
# 75-100 ns a node-step of a 3-row pass (2-vCPU x86 VM, numpy 2.4), 10^10
# node-steps is about a quarter of an hour, reached near n_space = 11000 on
# the bundled model.
_MAX_NODE_STEPS = 10 ** 10


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _section(cp: configparser.ConfigParser, name: str) -> configparser.SectionProxy:
    if not cp.has_section(name):
        raise ConfigError(name, "missing section")
    return cp[name]


def _get(sec, key: str, cast, default=None):
    field = f"{sec.name}.{key}"
    if key not in sec:
        if default is not None:
            return default
        raise ConfigError(field, "missing entry")
    raw = sec[key].strip()
    try:
        value = cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, f"cannot parse {raw!r}: {exc}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(field, f"must be finite, got {raw!r}")
    return value


def _floats(raw: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in raw.replace(",", " ").split())
    if not all(math.isfinite(v) for v in values):
        raise ValueError("every value must be finite")
    return values


def _in_range(field: str, what: str, compute) -> float:
    """compute(), refused with a ConfigError naming `field` when it leaves
    the double range: Python float `**` raises OverflowError on a huge
    finite value where numpy would give inf."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(field, f"{what} leaves the double range")
    return value


def _coefficient(sec, role: str):
    name = _get(sec, role, str)
    params = _get(sec, f"{role}_params", _floats, default=())
    field = f"{sec.name}.{role}"
    try:
        fn = make_coefficient(name, params)
        lip = coefficient_lipschitz(name, params)
    except ModelError as exc:
        raise ConfigError(field, str(exc)) from exc
    return fn, lip


def parse_run_config(path, seed_override: int | None = None) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    text = Path(path).read_text(encoding="utf-8")
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError("syntax", str(exc)) from exc

    model = _section(cp, "model")
    b_fn, b_lip = _coefficient(model, "b")
    h_fn, h_lip = _coefficient(model, "h")
    s_fn, s_lip = _coefficient(model, "sigma")
    K = _get(model, "K", float)
    kappa1 = _get(model, "kappa1", float)
    kappa2 = _get(model, "kappa2", float)
    if not 0.0 < kappa1 <= kappa2:
        raise ConfigError("model.kappa1",
                          f"need 0 < kappa1 <= kappa2, got ({kappa1}, {kappa2})")
    if K < 0.0:
        raise ConfigError("model.K", f"K must be nonnegative, got {K}")
    # Constants of kappa2/kappa1 that the coupling and power-Harnack use.
    kappas = f"kappa1 = {kappa1:g}, kappa2 = {kappa2:g}"
    cap = _in_range("model.kappa2", f"{kappas}: the alpha cap",
                    lambda: 2.0 * kappa1 ** 2 / kappa2 ** 2)
    threshold = None
    if kappa2 > kappa1:
        threshold = _in_range("model.kappa2",
                              f"{kappas}: the power-Harnack threshold",
                              lambda: power_threshold(kappa1, kappa2))
    if b_lip + h_lip + s_lip > K * (1.0 + 1e-9) + 1e-12:
        raise ConfigError(
            "model.K",
            f"catalog Lipschitz sum {b_lip + h_lip + s_lip:g} exceeds "
            f"declared K = {K:g}")
    coeffs = ModelCoefficients(b=b_fn, h=h_fn, sigma=s_fn, K=K,
                               kappa1=kappa1, kappa2=kappa2)

    band_sec = _section(cp, "band")
    lo = _get(band_sec, "sigma_lower", float)
    hi = _get(band_sec, "sigma_upper", float)
    try:
        band = VolatilityBand(lo, hi)
    except ModelError as exc:
        raise ConfigError("band.sigma_lower", str(exc)) from exc
    # The schedule divides by sigma_lower^2, the PDE multiplies sigma_upper^2.
    _in_range("band.sigma_lower", f"1/sigma_lower^2 = 1/{lo:g}^2",
              lambda: 1.0 / lo ** 2)
    _in_range("band.sigma_upper", f"sigma_upper^2 = {hi:g}^2", lambda: hi ** 2)

    grid_sec = _section(cp, "grid")
    T = _get(grid_sec, "horizon", float)
    n_steps = _get(grid_sec, "n_steps", int)
    try:
        grid = TimeGrid(T, n_steps)
    except ModelError as exc:
        raise ConfigError("grid.horizon", str(exc)) from exc
    try:
        pde = PdeConfig(
            x_min=_get(grid_sec, "x_min", float),
            x_max=_get(grid_sec, "x_max", float),
            n_space=_get(grid_sec, "n_space", int),
            cfl_safety=_get(grid_sec, "cfl_safety", float, default=0.8),
        )
    except PdeError as exc:
        raise ConfigError("grid.n_space", str(exc)) from exc
    # Every pass holds at most the largest stack, each row with a policy
    # record at the n_steps times of the scenario runner's pass.
    need = solve_nbytes(_STACK_ROWS, pde.n_space, n_steps)
    have = _physical_memory()
    if need > have:
        raise ConfigError(
            "grid.n_space",
            f"{pde.n_space} intervals need {need / 2 ** 30:.3g} GiB of PDE "
            f"working set, more than the {have / 2 ** 30:.3g} GiB of physical "
            "memory")
    # The CFL rate squares the largest |sigma| on the grid.
    sigma_max = float(np.max(np.abs(s_fn(0.0, pde.nodes()))))
    _in_range("model.sigma_params",
              f"max |sigma| = {sigma_max:g} on the PDE grid, squared,",
              lambda: sigma_max ** 2)
    # The G-heat oracle steps the unit coefficients, the semigroup the model.
    try:
        n_t = max(_cfl_time_step(c, band, T, pde)[1]
                  for c in (coeffs, _UNIT_COEFFS))
    except PdeError as exc:
        raise ConfigError("grid.n_space", str(exc)) from exc
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError("grid.n_space", "the explicit CFL rate leaves the "
                          "double range") from exc
    if n_t * pde.n_space > _MAX_NODE_STEPS:
        raise ConfigError(
            "grid.n_space",
            f"{pde.n_space} intervals need {n_t} explicit time steps, "
            f"{n_t * pde.n_space:.3g} node-steps a pass, more than the "
            f"budget of {_MAX_NODE_STEPS:.0e}")

    cpl = _section(cp, "coupling")
    alpha_raw = _get(cpl, "alpha", str, default="auto")
    if alpha_raw == "auto":
        alpha = kappa1 ** 2 / kappa2 ** 2
    else:
        try:
            alpha = float(alpha_raw)
        except ValueError as exc:
            raise ConfigError("coupling.alpha", f"expected float or 'auto', "
                                                f"got {alpha_raw!r}") from exc
        if not 0.0 < alpha < cap:
            raise ConfigError("coupling.alpha",
                              f"alpha must lie in (0, {cap:g}), got {alpha}")
    clip_epsilon = _get(cpl, "clip_epsilon", float)
    if not 0.0 < clip_epsilon <= T / 10.0:
        raise ConfigError("coupling.clip_epsilon",
                          f"must lie in (0, T/10] = (0, {T / 10.0:g}], "
                          f"got {clip_epsilon}")
    # At the clip run_coupling simulates at; K = 0 has no schedule to check.
    if K > 0.0:
        run_epsilon = min(clip_epsilon, min(SWEEP_FRACTIONS) * T)
        r = stability_ratio(make_schedule(alpha, coeffs, band, T),
                            band.sigma_upper, grid, run_epsilon)
        if r > 1.0:
            # r scales as 1/(cap - alpha), so r = 1 at cap - (cap - alpha) r
            raise ConfigError(
                "coupling.alpha",
                f"alpha = {alpha:g} gives the coupling step ratio r = {r:.4g} "
                f"> 1 at {n_steps} steps and clip {run_epsilon:g}, where "
                "explicit Euler no longer contracts the gap; the largest "
                f"admitted alpha is {cap - (cap - alpha) * r:.6g} (more steps "
                "admit more)")
    n_paths = _get(cpl, "n_paths", int)
    if n_paths < 100:
        raise ConfigError("coupling.n_paths", f"need >= 100, got {n_paths}")
    n_controls = _get(cpl, "n_controls", int)
    if n_controls < 1:
        raise ConfigError("coupling.n_controls", f"need >= 1, got {n_controls}")
    # The coupled pass holds the largest path arrays of a run.
    need = run_nbytes(n_paths, n_steps, n_controls)
    if need > have:
        field = "coupling.n_paths" if run_nbytes(n_paths, n_steps, 1) > have \
            else "coupling.n_controls"
        raise ConfigError(
            field,
            f"{n_controls} controls x {n_paths} paths x {n_steps} steps need "
            f"{need / 2 ** 30:.3g} GiB of coupled path arrays, more than the "
            f"{have / 2 ** 30:.3g} GiB of physical memory")
    strategy = _get(cpl, "strategy", str, default="constants")
    if strategy not in ("constants", "bang_bang", "random", "feedback"):
        raise ConfigError("coupling.strategy", f"unknown strategy {strategy!r}")

    chk = _section(cp, "check")
    check_x = _get(chk, "x", float, default=0.0)
    check_y = _get(chk, "y", float, default=0.0)
    for key, value in (("x", check_x), ("y", check_y)):
        if not pde.x_min < value < pde.x_max:
            raise ConfigError(f"check.{key}", f"must lie inside the PDE domain "
                              f"({pde.x_min:g}, {pde.x_max:g}), got {value:g}")
    check_p = _get(chk, "p", float, default=2.0)
    if threshold is not None and not check_p > threshold:
        raise ConfigError("check.p", f"p = {check_p:g} is at or below the "
                          f"admissible threshold {threshold:.6f}")
    report = validate_coefficients(
        coeffs, default_state_domain(check_x, band, coeffs, T), grid)
    if not report.passed:
        raise ConfigError("model.sigma", "; ".join(report.violations))
    alpha_grid_size = _get(chk, "alpha_grid", int, default=33)
    if alpha_grid_size < 1:
        raise ConfigError("check.alpha_grid", "need at least one alpha")
    payoff_name = _get(chk, "payoff", str, default="shifted_bump")
    payoff_params = _get(chk, "payoff_params", _floats, default=())
    try:
        payoff = make_payoff(payoff_name, payoff_params,
                             domain=(pde.x_min, pde.x_max))
    except ModelError as exc:
        raise ConfigError("check.payoff", str(exc)) from exc
    # The Monte Carlo error bar squares deviations of up to 2 sup |f| from
    # the mean; f^p raises payoff values to p.
    top = payoff.sup_norm
    _in_range("check.payoff_params", f"(2 sup |f|)^2 = (2 x {top:g})^2",
              lambda: (2.0 * top) ** 2)
    if threshold is not None:
        _in_range("check.p", f"sup |f|^p = {top:g}^{check_p:g}",
                  lambda: top ** check_p)

    run = _section(cp, "run")
    seed = _get(run, "seed", int)
    if seed_override is not None:
        seed = int(seed_override)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("run.seed", "seed must fit in 64 bits")

    return RunConfig(coeffs=coeffs, band=band, grid=grid, pde=pde, alpha=alpha,
                     clip_epsilon=clip_epsilon, n_paths=n_paths,
                     n_controls=n_controls, strategy=strategy, check_x=check_x,
                     check_y=check_y, check_p=check_p,
                     alpha_grid_size=alpha_grid_size, payoff=payoff, seed=seed)
