"""Run configuration: line-oriented `key = value` entries under bracketed
section headers (configparser grammar, no interpolation, `;` comments also
after a value). Cross-field
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
    COEFFICIENT_NAMES,
    PAYOFF_NAMES,
    ModelCoefficients,
    ModelError,
    Payoff,
    PdeError,
    TimeGrid,
    VolatilityBand,
    alpha_cap,
    coefficient_lipschitz,
    default_state_domain,
    make_coefficient,
    make_payoff,
    rate_constants,
    validate_coefficients,
)
from .plan import (_UNIT_COEFFS, SWEEP_FRACTIONS, CouplingSchedule, PdeConfig,
                   _cfl_time_step, _clip_index, make_schedule,
                   power_threshold, run_nbytes, solve_nbytes,
                   stability_ratio)


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
    schedule: CouplingSchedule | None   # None at K = 0
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

# The least fine grid: its coarse twin keeps PdeConfig's floor of 16.
_LEAST_N_SPACE = 32


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _fits(field: str, what: str, need: int) -> None:
    """Refuse, naming `field`, `need` bytes of `what` past physical memory."""
    have = _physical_memory()
    if need > have:
        raise ConfigError(field, f"{what}: {need / 2 ** 30:.3g} GiB, more than "
                          f"the {have / 2 ** 30:.3g} GiB of physical memory")


class _Parser(configparser.ConfigParser):
    """The configparser grammar without interpolation, with `; ...` after a
    value an inline comment, recording each (section, entry) that `_get`
    looks up, keys lower-cased as configparser stores them, so that an
    entry no field reads can be refused by name."""

    def __init__(self):
        super().__init__(interpolation=None, inline_comment_prefixes=(";",))
        self.looked_up: set[tuple[str, str]] = set()


def _section(cp: _Parser, name: str) -> configparser.SectionProxy:
    if not cp.has_section(name):
        raise ConfigError(name, "missing section")
    return cp[name]


def _get(sec, key: str, cast, default=None):
    field = f"{sec.name}.{key}"
    sec.parser.looked_up.add((sec.name, sec.parser.optionxform(key)))
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


def _catalog(sec, role: str, names, build, default=None):
    """build(name, params) for the catalog entry named by `role` and the
    parameters of `role`_params; a ModelError names `role` when the name is
    not in `names`, `role`_params when it is."""
    name = _get(sec, role, str, default=default)
    params = _get(sec, f"{role}_params", _floats, default=())
    try:
        return build(name, params)
    except ModelError as exc:
        suffix = "_params" if name in names else ""
        raise ConfigError(f"{sec.name}.{role}{suffix}", str(exc)) from exc


def _coefficient(sec, role: str):
    return _catalog(sec, role, COEFFICIENT_NAMES, lambda name, params: (
        make_coefficient(name, params), coefficient_lipschitz(name, params)))


def _refuse_unread(cp: _Parser) -> None:
    """Refuse, naming it, a section or an entry that no field read. A
    [DEFAULT] entry shows in every section, so it is refused only when no
    section read it."""
    read_keys = {key for _, key in cp.looked_up}
    for key in cp.defaults():
        if key not in read_keys:
            raise ConfigError(f"{cp.default_section}.{key}", "unknown entry")
    read_sections = {name for name, _ in cp.looked_up}
    for name in cp.sections():
        if name not in read_sections:
            raise ConfigError(name, "unknown section")
        for key in cp[name]:
            if key not in cp.defaults() and (name, key) not in cp.looked_up:
                raise ConfigError(f"{name}.{key}", "unknown entry")


def parse_run_config(path, seed_override: int | None = None) -> RunConfig:
    cp = _Parser()
    try:
        cp.read_string(Path(path).read_text(encoding="utf-8"),
                       source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
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
                    lambda: alpha_cap(kappa1, kappa2))
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
    if n_steps < 1:
        raise ConfigError("grid.n_steps", f"need >= 1, got {n_steps}")
    # Refused before TimeGrid allocates its nodes: at the least n_space the
    # policy record of n_steps rows must still fit.
    _fits("grid.n_steps", f"the PDE working set of {n_steps} steps even at "
          f"n_space {_LEAST_N_SPACE}",
          solve_nbytes(_STACK_ROWS, _LEAST_N_SPACE, n_steps))
    try:
        grid = TimeGrid(T, n_steps)
    except ModelError as exc:
        raise ConfigError("grid.horizon", str(exc)) from exc
    # The rate of the coupling schedule's exponential.
    _in_range("model.K", f"K = {K:g}: c_K = K (2 + K + 2/sigma_lower^2)",
              lambda: rate_constants(K, lo, T)[0])
    x_min = _get(grid_sec, "x_min", float)
    x_max = _get(grid_sec, "x_max", float)
    if not x_min < x_max:
        raise ConfigError("grid.x_min", f"need x_min < x_max, got "
                          f"[{x_min:g}, {x_max:g}]")
    _in_range("grid.x_max", f"x_max - x_min = {x_max:g} - {x_min:g}",
              lambda: x_max - x_min)
    n_space = _get(grid_sec, "n_space", int)
    if n_space < _LEAST_N_SPACE:
        raise ConfigError("grid.n_space", f"need >= {_LEAST_N_SPACE} for the "
                          f"two-grid tolerance's coarse twin, got {n_space}")
    pde = PdeConfig(x_min, x_max, n_space)
    # Every pass holds at most the largest stack, each row with a policy
    # record at the n_steps step times of the scenario runner's pass; that
    # record is the feedback control itself, so it bounds all the family adds.
    _fits("grid.n_space", f"the PDE working set of {n_space} intervals",
          solve_nbytes(_STACK_ROWS, n_space, n_steps))
    # The CFL rate squares the largest |sigma| on the grid.
    sigma_max = float(np.max(np.abs(s_fn(pde.nodes()))))
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
            f"{pde.n_space} intervals need {n_t:.3g} explicit time steps, "
            f"{float(n_t) * pde.n_space:.3g} node-steps a pass, more than the "
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
    schedule = None
    if K > 0.0:
        schedule = make_schedule(alpha, coeffs, band, T)
        run_epsilon = min(clip_epsilon, min(SWEEP_FRACTIONS) * T)
        r = stability_ratio(schedule, band.sigma_upper, grid, run_epsilon)
        if r > 1.0:
            # r scales as 1/(cap - alpha), so r = 1 at cap - (cap - alpha) r;
            # when that is not positive, r > 1 for every alpha in (0, cap)
            best = cap - (cap - alpha) * r
            if best <= 0.0:
                raise ConfigError(
                    "grid.n_steps",
                    f"K = {K:g} gives the coupling step ratio r = "
                    f"{r * (cap - alpha) / cap:.4g} > 1 at {n_steps} steps and "
                    f"clip {run_epsilon:g} even as alpha -> 0, so no alpha in "
                    f"(0, {cap:g}) is admitted; raise grid.n_steps or lower "
                    "model.K")
            raise ConfigError(
                "coupling.alpha",
                f"alpha = {alpha:g} gives the coupling step ratio r = {r:.4g} "
                f"> 1 at {n_steps} steps and clip {run_epsilon:g}, where "
                "explicit Euler no longer contracts the gap; the largest "
                f"admitted alpha is {best:.6g} (more steps admit more)")
        # The trend check needs each sweep epsilon on its own clip node.
        sweep_nodes = [_clip_index(grid, frac * T) for frac in SWEEP_FRACTIONS]
        if len(set(sweep_nodes)) < len(sweep_nodes):
            raise ConfigError(
                "grid.n_steps", f"{n_steps} steps put the clip sweep "
                f"{', '.join(f'{f:g} T' for f in SWEEP_FRACTIONS)} on the "
                f"nodes {sweep_nodes}: two sweep epsilons share a node, where "
                "the coupling trend cannot decrease; raise grid.n_steps")
    n_paths = _get(cpl, "n_paths", int)
    if n_paths < 100:
        raise ConfigError("coupling.n_paths", f"need >= 100, got {n_paths}")
    n_controls = _get(cpl, "n_controls", int)
    if n_controls < 1:
        raise ConfigError("coupling.n_controls", f"need >= 1, got {n_controls}")
    # The coupled pass holds the largest path arrays of a run; n_paths is
    # named when one control alone does not fit.
    for field, k in (("coupling.n_paths", 1), ("coupling.n_controls",
                                                n_controls)):
        _fits(field, f"the coupled path arrays of {k} x {n_paths} x "
              f"{n_steps} (controls x paths x steps)",
              run_nbytes(n_paths, n_steps, k))
    # The coupled pass runs open-loop families; the scenario runner builds
    # its own feedback family from the G-heat policy.
    strategy = _get(cpl, "strategy", str, default="constants")
    if strategy not in ("constants", "bang_bang", "random"):
        raise ConfigError("coupling.strategy", f"unknown strategy {strategy!r}"
                          " (constants, bang_bang or random)")

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
    # Audited where they are read: the PDE grid and the paths from x and y,
    # 6 sigma_upper sqrt(T) e^(K T) either side of each. The sampling needs
    # the hull's ends and width in the double range.
    at = f"K = {K:g}, T = {T:g}: the audit domain's"
    _in_range("grid.horizon", f"{at} half-width 6 sigma_upper sqrt(T) e^(K T)",
              lambda: default_state_domain(0.0, band, coeffs, T)[1])
    (xl, xh), (yl, yh) = (default_state_domain(v, band, coeffs, T)
                          for v in (check_x, check_y))
    domain = (min(pde.x_min, xl, yl), max(pde.x_max, xh, yh))
    _in_range("grid.horizon", f"{at} width", lambda: domain[1] - domain[0])
    report = validate_coefficients(coeffs, domain, grid)
    if not report.passed:
        raise ConfigError("model.sigma", "; ".join(report.violations))
    alpha_grid_size = _get(chk, "alpha_grid", int, default=33)
    if not 1 <= alpha_grid_size <= 2 ** 53:
        raise ConfigError("check.alpha_grid", "need 1 to 2^53 alphas")
    payoff = _catalog(chk, "payoff", PAYOFF_NAMES, lambda name, params:
                      make_payoff(name, params, domain=(pde.x_min, pde.x_max)),
                      default="shifted_bump")
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
    _refuse_unread(cp)

    return RunConfig(coeffs=coeffs, band=band, grid=grid, pde=pde,
                     schedule=schedule, clip_epsilon=clip_epsilon,
                     n_paths=n_paths, n_controls=n_controls, strategy=strategy,
                     check_x=check_x, check_y=check_y, check_p=check_p,
                     alpha_grid_size=alpha_grid_size, payoff=payoff, seed=seed)
