"""Scenario-measure machinery: admissible volatility controls, path synthesis,
and the sup-over-measures Monte Carlo estimator of the sublinear expectation.

The representation family is infinite; a finite control family estimates the
sup from below (one-sided bias), with the PDE solver as the two-sided anchor.
Common random numbers are shared across controls so the max is stable at a
fixed seed, and every stream is counter-based per path.

One Euler pass advances every control of a family at once: the state is a
(k controls, n_paths) array and each step is one numpy operation for all
controls, the idea of `gheat.solve_stack` applied to paths. A terminal
functional keeps only the last row of that state; a path functional runs
the same pass one control at a time with every node kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import streams
from .gheat import _UNIT_COEFFS, PolicyTable
from .model import ModelCoefficients, Payoff, TimeGrid, VolatilityBand


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioControl:
    """Piecewise-constant volatility path, one level per step, inside the band."""

    grid: TimeGrid
    levels: np.ndarray
    band: VolatilityBand

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        if levels.shape != (self.grid.n_steps,):
            raise ScenarioError(
                f"need one level per step ({self.grid.n_steps}), got {levels.shape}"
            )
        if levels.min() < self.band.sigma_lower - 1e-12 or \
           levels.max() > self.band.sigma_upper + 1e-12:
            raise ScenarioError("control leaves the volatility band")
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)

    def level(self, j: int, t: float, state: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.levels[j], np.shape(state))


@dataclass(frozen=True)
class FeedbackControl:
    """Closed-loop control: the level at each step is read off a bang-bang
    policy table at the current simulated state."""

    grid: TimeGrid
    policy: PolicyTable

    @property
    def band(self) -> VolatilityBand:
        return self.policy.band

    def level(self, j: int, t: float, state: np.ndarray) -> np.ndarray:
        return self.policy.level_at(t, state)


Control = ScenarioControl | FeedbackControl


@dataclass(frozen=True)
class PathBatch:
    """B-paths of one control with every node kept (rows = paths), for
    path functionals.

    `w` is path-major: row p is path p's own stream. `levels` and `b_path`
    are transposed views of the kernel's time-major buffers, so a column
    (one time node) is contiguous and a row (one path) is strided."""

    grid: TimeGrid
    w: np.ndarray        # (n_paths, n_steps) sqrt(dt)-scaled normals
    levels: np.ndarray   # (n_paths, n_steps) realized levels, time-major view
    b_path: np.ndarray   # (n_paths, n_steps + 1), time-major view

    @property
    def n_paths(self) -> int:
        return self.b_path.shape[0]

    @property
    def qv_path(self) -> np.ndarray:
        """Quadratic variation <B>, (n_paths, n_steps + 1), accumulated
        step by step from the realized levels."""
        qv = np.zeros_like(self.b_path)
        np.cumsum(self.levels * self.levels * self.grid.dt, axis=1,
                  out=qv[:, 1:])
        return qv

    def terminal(self) -> np.ndarray:
        return self.b_path[:, -1]


@dataclass(frozen=True)
class EstimateWithError:
    """Sup-over-controls Monte Carlo estimate with the winner's error bar."""

    value: float
    std_error: float
    n_paths: int
    n_controls: int
    best_control_id: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ScenarioError("std_error must be nonnegative")


def sample_controls(strategy: str, band: VolatilityBand, grid: TimeGrid,
                    count: int, seed: int,
                    policy: PolicyTable | None = None) -> list[Control]:
    """Finite sub-family of admissible controls.

    constants: evenly spaced constant levels including both endpoints.
    bang_bang: single-switch paths at evenly spaced switch times.
    random: independent per-step uniforms in the band.
    feedback: the closed-loop policy control (needs `policy`), padded with
      constants when count > 1 so the estimator keeps its endpoint anchors.
    """
    if count < 1:
        raise ScenarioError(f"count must be >= 1, got {count}")
    lo, hi = band.sigma_lower, band.sigma_upper
    if band.is_degenerate:
        return [ScenarioControl(grid, np.full(grid.n_steps, lo), band)]

    if strategy == "constants":
        values = np.linspace(lo, hi, count) if count > 1 else np.array([hi])
        return [ScenarioControl(grid, np.full(grid.n_steps, v), band)
                for v in values]
    if strategy == "bang_bang":
        controls = []
        for k in range(1, count + 1):
            switch = grid.horizon * k / (count + 1.0)
            first, second = (lo, hi) if k % 2 == 1 else (hi, lo)
            lv = np.where(grid.nodes[:-1] < switch, first, second)
            controls.append(ScenarioControl(grid, lv, band))
        return controls
    if strategy == "random":
        return [
            ScenarioControl(
                grid, streams.uniform_levels(seed, k, grid.n_steps, lo, hi), band)
            for k in range(count)
        ]
    if strategy == "feedback":
        if policy is None:
            raise ScenarioError("feedback strategy needs a policy table")
        controls: list[Control] = [FeedbackControl(grid, policy)]
        if count > 1:
            controls.extend(sample_controls("constants", band, grid, count - 1, seed))
        return controls
    raise ScenarioError(f"unknown control strategy {strategy!r}")


def euler_step(coeffs: ModelCoefficients, t: float, x: np.ndarray,
               sigma_x: np.ndarray, dt: float, dqv: np.ndarray,
               dB: np.ndarray) -> np.ndarray:
    """One Euler step of dX = b dt + h d<B> + sigma dB, with the increments
    dqv = level^2 dt and dB = level dW of the driving path; `sigma_x` is
    sigma(t, x), which the caller evaluates once and may reuse."""
    return x + coeffs.b(t, x) * dt + coeffs.h(t, x) * dqv + sigma_x * dB


# Steps of `w` transposed into the scratch block at a time: 4 MiB at 16384
# paths, small enough to stay in cache while its rows are read.
_W_BLOCK_STEPS = 32


def _time_major(w: np.ndarray):
    """The columns w[:, j] of the path-major increments in step order, each
    as a contiguous row of a time-major scratch block that is refilled every
    _W_BLOCK_STEPS steps; a row is valid until the block is refilled."""
    n_paths, n_steps = w.shape
    block = np.empty((min(_W_BLOCK_STEPS, n_steps), n_paths))
    for j0 in range(0, n_steps, _W_BLOCK_STEPS):
        rows = block[:min(_W_BLOCK_STEPS, n_steps - j0)]
        np.copyto(rows, w[:, j0:j0 + len(rows)].T)
        yield from rows


def _level_rows(controls: Sequence[Control], n_paths: int):
    """levels(j, t, x): the step-j volatility of each control, one row per
    control. Open-loop rows come from one (n_steps, k) table as a (k, 1)
    column; when the family has feedback controls, the column fills a
    (k, n_paths) buffer and each feedback row is read off its policy at its
    own state row of x. Returns levels and the table, None when the levels
    depend on the state."""
    table = np.zeros((controls[0].grid.n_steps, len(controls)))
    feedback = []
    for i, control in enumerate(controls):
        if isinstance(control, FeedbackControl):
            feedback.append(i)
        else:
            table[:, i] = control.levels
    if not feedback:
        return (lambda j, t, x: table[j, :, None]), table
    lv = np.empty((len(controls), n_paths))

    def levels(j: int, t: float, x: np.ndarray) -> np.ndarray:
        lv[...] = table[j, :, None]
        for i in feedback:
            lv[i] = controls[i].level(j, t, x[i])
        return lv

    return levels, None


def _euler_pass(coeffs: ModelCoefficients, controls: Sequence[Control],
                x0: float, w: np.ndarray, grid: TimeGrid, keep_nodes: bool):
    """The Euler loop of the controlled state equation for k controls on
    the shared increments `w`, state (k, n_paths); feedback levels read the
    simulated state.

    Returns the terminal state (k, n_paths) or, with `keep_nodes`, the
    paths (n_steps + 1, k, n_paths) and realized levels (n_steps, k,
    n_paths), time-major: each step reads and writes one contiguous block.
    Open-loop levels are a read-only broadcast view of the level table.
    """
    n_paths, n_steps = w.shape
    dt = grid.dt
    levels_at, table = _level_rows(controls, n_paths)
    x = np.full((len(controls), n_paths), float(x0))
    if keep_nodes:
        nodes = np.empty((n_steps + 1,) + x.shape)
        nodes[0] = x
        # Open-loop levels are the table, read in place; only levels that
        # depend on the state are recorded.
        levels = np.empty((n_steps,) + x.shape) if table is None else \
            np.broadcast_to(table[:, :, None], (n_steps,) + x.shape)
    dB = np.empty_like(x)
    for j, wj in enumerate(_time_major(w)):
        t = float(grid.nodes[j])
        lv = levels_at(j, t, x)
        np.multiply(lv, wj, out=dB)
        if coeffs is _UNIT_COEFFS:
            # x + 0 dt + 0 d<B> + 1 dB is x + dB, bit for bit, for finite x
            x = np.add(x, dB, out=nodes[j + 1] if keep_nodes else x)
        else:
            x = euler_step(coeffs, t, x, coeffs.sigma(t, x), dt, lv * lv * dt,
                           dB)
            if keep_nodes:
                nodes[j + 1] = x
        if keep_nodes and table is None:
            levels[j] = lv
    return (nodes, levels) if keep_nodes else x


def simulate_state_batch(coeffs: ModelCoefficients,
                         controls: Sequence[Control], x0: float,
                         w: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Terminal states X_T of the controlled state equation from x0, one
    (n_paths,) row per control of a C-contiguous (k, n_paths) array, from
    one Euler pass that advances every control on the shared increments `w`
    and keeps no earlier node."""
    return _euler_pass(coeffs, controls, x0, w, grid, keep_nodes=False)


def _simulate_batch(control: Control, grid: TimeGrid, w: np.ndarray) -> PathBatch:
    """B-paths of one control, every node kept: the state equation with
    b = h = 0 and sigma = 1, from 0."""
    b, levels = _euler_pass(_UNIT_COEFFS, [control], 0.0, w, grid,
                            keep_nodes=True)
    b, levels = b[:, 0].T, levels[:, 0].T
    w_view = w.view()
    for arr in (w_view, levels, b):
        arr.setflags(write=False)
    return PathBatch(grid=grid, w=w_view, levels=levels, b_path=b)


def scaled_increments(seed: int, n_paths: int, grid: TimeGrid) -> np.ndarray:
    """sqrt(dt)-scaled standard-normal increments, counter-based per path,
    scaled in place."""
    w = streams.normal_matrix(seed, n_paths, grid.n_steps)
    w *= math.sqrt(grid.dt)
    return w


def sup_over_controls(samples: Iterable) -> tuple[float, float, int]:
    """Max over controls of the sample mean.

    `samples` yields one array of per-path values per control, such as the
    rows of a C-contiguous (k, n_paths) array: each row is contiguous, so
    its mean and standard deviation are those of a 1-D copy, bit for bit.
    Returns the largest mean, the winning control's standard error and its
    index; the first control wins a tie.
    """
    best_mean = -math.inf
    best_se = 0.0
    best_id = 0
    k = 0
    for vals in samples:
        vals = np.asarray(vals, dtype=float)
        mean = float(np.mean(vals))
        if mean > best_mean:
            best_mean = mean
            best_id = k
            best_se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) \
                if vals.size > 1 else 0.0
        k += 1
        # Drop these values (maybe a view of a whole path buffer) before the
        # next control's are made; enumerate's reused tuple would keep them.
        del vals
    return best_mean, best_se, best_id


def upper_expectation_mc(functional: Callable[[PathBatch], np.ndarray],
                         controls: Sequence[Control], n_paths: int,
                         seed: int) -> EstimateWithError:
    """max over controls of the Monte Carlo mean, common random numbers.

    A biased-low estimate of the sublinear expectation (finite control
    family); the reported std_error is the winning control's. For terminal
    functionals a feedback family approaches the sup; for path-dependent
    functionals no such guarantee is claimed. A `terminal_functional` is
    read from one stacked pass over all controls; any other functional gets
    one control's `PathBatch` at a time.
    """
    if n_paths < 100:
        raise ScenarioError(f"n_paths must be >= 100, got {n_paths}")
    if not controls:
        raise ScenarioError("need at least one control")
    grid = controls[0].grid
    w = scaled_increments(seed, n_paths, grid)
    if isinstance(functional, TerminalFunctional):
        # One pass for every control, keeping only the terminal row.
        samples = functional.payoff.f(
            simulate_state_batch(_UNIT_COEFFS, controls, 0.0, w, grid))
    else:
        samples = (functional(_simulate_batch(control, grid, w))
                   for control in controls)
    value, se, best_id = sup_over_controls(samples)
    return EstimateWithError(value=value, std_error=se, n_paths=n_paths,
                             n_controls=len(controls), best_control_id=best_id)


def capacity_mc(event: Callable[[PathBatch], np.ndarray],
                controls: Sequence[Control], n_paths: int,
                seed: int) -> EstimateWithError:
    """Upper capacity of an event: upper expectation of its indicator."""

    def indicator(batch: PathBatch) -> np.ndarray:
        return np.asarray(event(batch), dtype=float)

    est = upper_expectation_mc(indicator, controls, n_paths, seed)
    return EstimateWithError(value=min(max(est.value, 0.0), 1.0),
                             std_error=est.std_error, n_paths=est.n_paths,
                             n_controls=est.n_controls,
                             best_control_id=est.best_control_id)


@dataclass(frozen=True)
class TerminalFunctional:
    """batch -> f(B_T) for a payoff f; `upper_expectation_mc` recognises it
    and keeps only the terminal row of each control."""

    payoff: Payoff

    def __call__(self, batch: PathBatch) -> np.ndarray:
        return np.asarray(self.payoff.f(batch.terminal()), dtype=float)


def terminal_functional(payoff: Payoff) -> TerminalFunctional:
    return TerminalFunctional(payoff)


def upper_semigroup_mc(coeffs: ModelCoefficients, band: VolatilityBand,
                       payoff: Payoff, x0: float, grid: TimeGrid, n_paths: int,
                       seed: int, policy: PolicyTable | None = None,
                       n_controls: int = 5) -> EstimateWithError:
    """Monte Carlo estimate of the semigroup value at x0 (sup over a finite
    control family of E f(X_T)); a feedback policy, when given, joins the
    constant controls."""
    strategy = "feedback" if policy is not None else "constants"
    controls = sample_controls(strategy, band, grid, n_controls, seed,
                               policy=policy)
    if n_paths < 100:
        raise ScenarioError(f"n_paths must be >= 100, got {n_paths}")
    w = scaled_increments(seed, n_paths, grid)
    value, se, best_id = sup_over_controls(
        payoff.f(simulate_state_batch(coeffs, controls, x0, w, grid)))
    return EstimateWithError(value=value, std_error=se, n_paths=n_paths,
                             n_controls=len(controls), best_control_id=best_id)


# ---------------------------------------------------------------------------
# Young inequality on a finite scenario family

@dataclass(frozen=True)
class YoungReport:
    """Slack of E[g1 g2] <= E[g1 log g1] + log E[e^{g2}] at the sup level."""

    lhs: float
    entropy_term: float
    log_exp_term: float
    slack: float
    passed: bool


def young_check(measures: np.ndarray, g1: np.ndarray, g2: np.ndarray,
                norm_tol: float = 1e-9) -> YoungReport:
    """Verify the sublinear Young inequality on a finite sample space.

    `measures` is row-stochastic (one scenario measure per row over shared
    outcomes); `g1` holds one positive density per scenario, normalized under
    its own measure; `g2` is a table of the same shape or a single outcome
    vector shared by all scenarios.
    """
    P = np.asarray(measures, dtype=float)
    if P.ndim != 2:
        raise ScenarioError("measures must be a (n_measures, n_outcomes) table")
    if P.min() < 0.0 or np.max(np.abs(P.sum(axis=1) - 1.0)) > norm_tol:
        raise ScenarioError("measures must be nonnegative rows summing to 1")
    G1 = np.broadcast_to(np.asarray(g1, dtype=float), P.shape)
    G2 = np.broadcast_to(np.asarray(g2, dtype=float), P.shape)
    if G1.min() <= 0.0:
        raise ScenarioError("g1 must be strictly positive")
    means = np.sum(P * G1, axis=1)
    if np.max(np.abs(means - 1.0)) > norm_tol:
        raise ScenarioError(
            f"g1 must have unit mean under every scenario measure; worst "
            f"|mean-1| = {np.max(np.abs(means - 1.0)):.3g}"
        )
    lhs = float(np.max(np.sum(P * G1 * G2, axis=1)))
    entropy = float(np.max(np.sum(P * G1 * np.log(G1), axis=1)))
    log_exp = float(np.log(np.max(np.sum(P * np.exp(G2), axis=1))))
    slack = entropy + log_exp - lhs
    return YoungReport(lhs=lhs, entropy_term=entropy, log_exp_term=log_exp,
                       slack=slack, passed=slack >= -1e-12)


def random_young_trial(seed: int, n_measures: int = 3, n_outcomes: int = 4,
                       g2_scale: float = 1.0):
    """Random normalized (measures, g1, g2) instance for randomized checks."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.05, 1.0, size=(n_measures, n_outcomes))
    P /= P.sum(axis=1, keepdims=True)
    g1 = rng.uniform(0.05, 3.0, size=(n_measures, n_outcomes))
    g1 /= np.sum(P * g1, axis=1, keepdims=True)
    g2 = rng.normal(0.0, g2_scale, size=(n_measures, n_outcomes))
    return P, g1, g2
