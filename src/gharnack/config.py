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

from .model import (
    ModelCoefficients,
    ModelError,
    Payoff,
    TimeGrid,
    VolatilityBand,
    coefficient_lipschitz,
    make_coefficient,
    make_payoff,
)
from .gheat import _UNIT_COEFFS, PdeConfig, PdeError, _cfl_time_step, solve_nbytes
from .coupling import bundle_nbytes


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
    # The G-heat oracle steps the unit coefficients, the semigroup the model.
    try:
        n_t = max(_cfl_time_step(c, band, T, pde)[1]
                  for c in (coeffs, _UNIT_COEFFS))
    except PdeError as exc:
        raise ConfigError("grid.n_space", str(exc)) from exc
    if n_t * pde.n_space > _MAX_NODE_STEPS:
        raise ConfigError(
            "grid.n_space",
            f"{pde.n_space} intervals need {n_t} explicit time steps, "
            f"{n_t * pde.n_space:.3g} node-steps a pass, more than the "
            f"budget of {_MAX_NODE_STEPS:.0e}")

    cpl = _section(cp, "coupling")
    alpha_raw = _get(cpl, "alpha", str, default="auto")
    cap = 2.0 * kappa1 ** 2 / kappa2 ** 2
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
    n_paths = _get(cpl, "n_paths", int)
    if n_paths < 100:
        raise ConfigError("coupling.n_paths", f"need >= 100, got {n_paths}")
    need = bundle_nbytes(n_paths, n_steps)
    if need > have:
        raise ConfigError(
            "coupling.n_paths",
            f"{n_paths} paths x {n_steps} steps need {need / 2 ** 30:.3g} GiB "
            f"of coupled path arrays, more than the {have / 2 ** 30:.3g} GiB "
            "of physical memory")
    n_controls = _get(cpl, "n_controls", int)
    if n_controls < 1:
        raise ConfigError("coupling.n_controls", f"need >= 1, got {n_controls}")
    strategy = _get(cpl, "strategy", str, default="constants")
    if strategy not in ("constants", "bang_bang", "random", "feedback"):
        raise ConfigError("coupling.strategy", f"unknown strategy {strategy!r}")

    chk = _section(cp, "check")
    check_x = _get(chk, "x", float, default=0.0)
    check_y = _get(chk, "y", float, default=0.0)
    check_p = _get(chk, "p", float, default=2.0)
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
