"""Scenario-measure machinery: admissible volatility controls, path synthesis,
and the sup-over-measures Monte Carlo estimator of the semigroup.

The representation family is infinite; a finite control family estimates the
sup from below (one-sided bias), with the PDE solver as the two-sided anchor.
Common random numbers are shared across controls so the max is stable at a
fixed seed, and every stream is counter-based per path.

One Euler pass advances every control of a family at once: the state is a
(k controls, n_paths) array and each step is one numpy operation for all
controls, the idea of `gheat.solve_stack` applied to paths. The pass keeps
only the last node of that state, all the semigroup estimator reads.

Each path depends on its own stream alone, so the estimator draws and
advances the paths in blocks of rows: it holds the terminal (k, n_paths)
rows and one block's increments, never the full increment matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import streams
from .gheat import _UNIT_COEFFS, PolicyTable
from .model import (ModelCoefficients, Payoff, TimeGrid, VolatilityBand,
                    within_band)


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
    policy table at the current simulated state.

    `step_levels` row j is the step-j level at every policy node, built once
    by `PolicyTable.node_levels`, so a step reads a state's level by its
    node index without searching the policy times."""

    grid: TimeGrid
    policy: PolicyTable
    step_levels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = self.policy.node_levels(self.grid.nodes[:-1])
        rows.setflags(write=False)
        object.__setattr__(self, "step_levels", rows)

    @property
    def band(self) -> VolatilityBand:
        return self.policy.band

    def level(self, j: int, t: float, state: np.ndarray) -> np.ndarray:
        return self.policy.level_at(t, state)

    def level_into(self, j: int, state: np.ndarray, index: np.ndarray,
                   out: np.ndarray) -> None:
        """level(j, grid.nodes[j], state) into `out`, through the intp
        buffer `index` of the state's shape: each state's node is rounded
        and clipped as in `PolicyTable.level_at`."""
        x_nodes = self.policy.x_nodes
        np.copyto(index, np.rint((state - x_nodes[0])
                                 / (x_nodes[1] - x_nodes[0])),
                  casting="unsafe")
        np.take(self.step_levels[j], index, mode="clip", out=out)


Control = ScenarioControl | FeedbackControl


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
    """levels(j, x): the step-j volatility of each control, one row per
    control. Open-loop rows come from one (n_steps, k) table as a (k, 1)
    column; when the family has feedback controls, the column fills a
    (k, n_paths) buffer and each feedback row is read off its step-j policy
    row at its own state row of x."""
    table = np.zeros((controls[0].grid.n_steps, len(controls)))
    feedback = []
    for i, control in enumerate(controls):
        if isinstance(control, FeedbackControl):
            feedback.append(i)
        else:
            table[:, i] = control.levels
    if not feedback:
        return lambda j, x: table[j, :, None]
    lv = np.empty((len(controls), n_paths))
    index = np.empty(n_paths, dtype=np.intp)

    def levels(j: int, x: np.ndarray) -> np.ndarray:
        lv[...] = table[j, :, None]
        for i in feedback:
            controls[i].level_into(j, x[i], index, lv[i])
        return lv

    return levels


def simulate_state_batch(coeffs: ModelCoefficients,
                         controls: Sequence[Control], x0: float,
                         w: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Terminal states X_T of the controlled state equation from x0, one
    (n_paths,) row per control of a C-contiguous (k, n_paths) array, from
    one Euler pass that advances every control on the shared increments `w`
    and keeps no earlier node; feedback levels read the simulated state."""
    dt = grid.dt
    n_paths = w.shape[0]
    levels_at = _level_rows(controls, n_paths)
    x = np.full((len(controls), n_paths), float(x0))
    dB = np.empty_like(x)
    for j, wj in enumerate(_time_major(w)):
        t = float(grid.nodes[j])
        lv = levels_at(j, x)
        np.multiply(lv, wj, out=dB)
        if coeffs is _UNIT_COEFFS:
            # x + 0 dt + 0 d<B> + 1 dB is x + dB, bit for bit, for finite x
            x += dB
        else:
            x = euler_step(coeffs, t, x, coeffs.sigma(t, x), dt, lv * lv * dt,
                           dB)
    return x


# Bytes of the increments drawn at a time, 1024 paths at 256 steps: half
# the memory of 4 MiB for a few percent of time. The scenario pass at 16384
# x 256 took 0.26-0.29 s in-process at 2 MiB, 0.24-0.28 s at 4 MiB and
# 0.34-0.36 s at 1 MiB (medians, 2-core Xeon, numpy 2.4.6).
_PATH_BLOCK_BYTES = 2 * 2 ** 20


def _path_block(n_steps: int, least: int) -> int:
    """Paths per block of a pass over `n_steps` steps: _PATH_BLOCK_BYTES of
    increments, at least `least` paths."""
    return max(least, _PATH_BLOCK_BYTES // (8 * n_steps))


def scaled_increments(seed: int, n_paths: int, grid: TimeGrid,
                      first: int = 0) -> np.ndarray:
    """sqrt(dt)-scaled standard-normal increments of the paths first ...
    first + n_paths - 1, counter-based per path, scaled in place."""
    w = streams.normal_matrix(seed, n_paths, grid.n_steps, first)
    w *= math.sqrt(grid.dt)
    return w


class PathIncrements:
    """The (n_paths, n_steps) increments of `seed`, drawn when sliced:
    `[first:stop]` is `scaled_increments` of those paths, so a pass over
    blocks never holds the full matrix."""

    def __init__(self, seed: int, n_paths: int, grid: TimeGrid):
        self.seed, self.grid = seed, grid
        self.shape = (n_paths, grid.n_steps)

    def __getitem__(self, rows: slice) -> np.ndarray:
        first, stop, _ = rows.indices(self.shape[0])
        return scaled_increments(self.seed, stop - first, self.grid, first)


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
        # Drop these values before the next control's are made; enumerate's
        # reused tuple would keep them.
        del vals
    return best_mean, best_se, best_id


def upper_semigroup_mc(coeffs: ModelCoefficients, payoff: Payoff, x0: float,
                       controls: Sequence[Control], n_paths: int,
                       seed: int) -> EstimateWithError:
    """Monte Carlo estimate of the semigroup value at x0: max over controls
    of the mean of f(X_T), common random numbers, from Euler passes that
    advance every control on one block of paths at a time and keep only the
    terminal rows.

    Biased low for a finite family; the reported std_error is the winning
    control's. A feedback control on the PDE's recorded policy
    (`sample_controls("feedback", ...)`) approaches the sup.
    """
    if n_paths < 100:
        raise ScenarioError(f"n_paths must be >= 100, got {n_paths}")
    if not controls:
        raise ScenarioError("need at least one control")
    grid = controls[0].grid
    block = _path_block(grid.n_steps, 1)
    w = PathIncrements(seed, n_paths, grid)
    terminal = np.empty((len(controls), n_paths))
    for first in range(0, n_paths, block):
        rows = slice(first, first + block)
        terminal[:, rows] = simulate_state_batch(coeffs, controls, x0, w[rows],
                                                 grid)
    value, se, best_id = sup_over_controls(payoff.f(terminal))
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


def young_check(measures: np.ndarray, g1: np.ndarray,
                g2: np.ndarray) -> YoungReport:
    """Verify the sublinear Young inequality on a finite sample space.

    `measures` is row-stochastic (one scenario measure per row over shared
    outcomes); `g1` holds one positive density per scenario, normalized under
    its own measure; `g2` is a table of the same shape or a single outcome
    vector shared by all scenarios. Row sums and means may miss 1 by 1e-9.
    """
    norm_tol = 1e-9
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
    rhs = entropy + log_exp
    return YoungReport(lhs=lhs, entropy_term=entropy, log_exp_term=log_exp,
                       slack=rhs - lhs,
                       passed=within_band(lhs, rhs, 1e-12, 0.0))


def random_young_trial(seed: int):
    """Random normalized (measures, g1, g2) instance for randomized checks:
    3 measures over 4 outcomes, g2 standard normal."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.05, 1.0, size=(3, 4))
    P /= P.sum(axis=1, keepdims=True)
    g1 = rng.uniform(0.05, 3.0, size=(3, 4))
    g1 /= np.sum(P * g1, axis=1, keepdims=True)
    g2 = rng.normal(0.0, 1.0, size=(3, 4))
    return P, g1, g2
