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

Each path depends on its own stream alone, so the estimator advances the
paths in blocks of rows, and each step of a block reads its increments
from a time-major window of _W_BLOCK_STEPS steps drawn straight from the
streams: it holds the terminal (k, n_paths) rows and one window, never a
block of rows of the increment matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import plan, streams
from .gheat import PolicyTable
from .model import (ModelCoefficients, Payoff, ScenarioError, TimeGrid,
                    VolatilityBand, within_band)
from .plan import _UNIT_COEFFS, _W_BLOCK_STEPS


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


Control = ScenarioControl | PolicyTable


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
    feedback: the recorded policy itself (needs `policy`, recorded on
      `grid`) as the closed-loop control, padded with constants when
      count > 1 so the estimator keeps its endpoint anchors.
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
        if policy.grid != grid:
            raise ScenarioError("the policy is recorded on another grid")
        controls: list[Control] = [policy]
        if count > 1:
            controls.extend(sample_controls("constants", band, grid, count - 1, seed))
        return controls
    raise ScenarioError(f"unknown control strategy {strategy!r}")


def euler_step(coeffs: ModelCoefficients, x: np.ndarray,
               sigma_x: np.ndarray, dt: float, dqv: np.ndarray,
               dB: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One Euler step of dX = b dt + h d<B> + sigma dB, with the increments
    dqv = level^2 dt and dB = level dW of the driving path, into `out` (a
    new array if None), which must not overlap x; `sigma_x` is sigma(x),
    which the caller evaluates once and may reuse."""
    out = np.multiply(coeffs.b(x), dt, out=out)
    out += x
    out += coeffs.h(x) * dqv
    out += sigma_x * dB
    return out


def _step_rows(w):
    """The increments of the paths of `w` in step order, one row per step:
    each a row of a time-major window of _W_BLOCK_STEPS steps, drawn from
    the streams for a PathIncrements and copied out of an array. The
    windows share one buffer, so a row is valid until the next window."""
    n_paths, n_steps = w.shape
    window = np.empty((min(_W_BLOCK_STEPS, n_steps), n_paths))
    if isinstance(w, PathIncrements):
        for rows in w.windows(window):
            yield from rows
        return
    for j0 in range(0, n_steps, _W_BLOCK_STEPS):
        rows = window[:min(_W_BLOCK_STEPS, n_steps - j0)]
        np.copyto(rows, w[:, j0:j0 + len(rows)].T)
        yield from rows


def _level_rows(controls: Sequence[Control], n_paths: int):
    """levels(j, x): the step-j volatility of each control, one row per
    control. Open-loop rows come from one (n_steps, k) table as a (k, 1)
    column; when the family has policy controls, the column fills a
    (k, n_paths) buffer and each policy row is read off the policy's mask
    row j at its own state row of x."""
    table = np.zeros((controls[0].grid.n_steps, len(controls)))
    feedback = []
    for i, control in enumerate(controls):
        if isinstance(control, PolicyTable):
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
            # Each state's node, rounded and clipped through `index`, with
            # its row of lv as scratch; the node's mask bit selects
            # sigma_lower or sigma_upper, each exactly.
            policy, out = controls[i], lv[i]
            x_nodes = policy.x_nodes
            np.subtract(x[i], x_nodes[0], out=out)
            np.divide(out, x_nodes[1] - x_nodes[0], out=out)
            np.rint(out, out=index, casting="unsafe")
            hi = policy.hi_mask[j].take(index, mode="clip")
            out[...] = policy.band.sigma_lower
            np.copyto(out, policy.band.sigma_upper, where=hi)
        return lv

    return levels


def simulate_state_batch(coeffs: ModelCoefficients,
                         controls: Sequence[Control], x0: float,
                         w) -> np.ndarray:
    """Terminal states X_T of the controlled state equation from x0, one
    (n_paths,) row per control of a C-contiguous (k, n_paths) array, from
    one Euler pass that advances every control on the shared increments `w`
    (an (n_paths, n_steps) array or a `PathIncrements`, read a window at a
    time) and keeps no earlier node; feedback levels read the simulated
    state."""
    dt = controls[0].grid.dt
    n_paths = w.shape[0]
    levels_at = _level_rows(controls, n_paths)
    x = np.full((len(controls), n_paths), float(x0))
    dB = np.empty_like(x)
    for j, wj in enumerate(_step_rows(w)):
        lv = levels_at(j, x)
        np.multiply(lv, wj, out=dB)
        if coeffs is _UNIT_COEFFS:
            # x + 0 dt + 0 d<B> + 1 dB is x + dB, bit for bit, for finite x
            x += dB
        else:
            x = euler_step(coeffs, x, coeffs.sigma(x), dt, lv * lv * dt, dB)
    return x


def scaled_increments(seed: int, n_paths: int, grid: TimeGrid,
                      first: int = 0) -> np.ndarray:
    """sqrt(dt)-scaled standard-normal increments of the paths first ...
    first + n_paths - 1, counter-based per path, scaled in place."""
    w = streams.normal_matrix(seed, n_paths, grid.n_steps, first)
    w *= math.sqrt(grid.dt)
    return w


class PathIncrements:
    """The sqrt(dt)-scaled increments of the paths first ... first +
    n_paths - 1 of `seed`, the rows of `scaled_increments`, never held as
    a matrix: `[a:b]` is the increments of rows a ... b - 1 alone, and
    `windows` draws them a time-major window at a time. Any other index is
    refused."""

    def __init__(self, seed: int, n_paths: int, grid: TimeGrid,
                 first: int = 0):
        self.seed, self.grid, self.first = seed, grid, first
        self.shape = (n_paths, grid.n_steps)

    def __getitem__(self, rows: slice) -> "PathIncrements":
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise ScenarioError(
                f"PathIncrements takes a slice of rows with step 1, got {rows!r}")
        first, stop, _ = rows.indices(self.shape[0])
        return PathIncrements(self.seed, max(stop - first, 0), self.grid,
                              self.first + first)

    def windows(self, out: np.ndarray):
        """The increments of every path in step order, as time-major
        windows of len(out) steps (a multiple of 4 past one window), each
        the rows of the C-contiguous `out` that it fills, valid until the
        next."""
        scale = math.sqrt(self.grid.dt)
        for window in streams.normal_windows(
                self.seed, streams.PATH_SPACE + self.first, self.shape[0], 0,
                self.shape[1], out):
            window *= scale
            yield window


def mean_and_se(values) -> tuple[float, float]:
    """The mean of per-path `values` and its standard error (0 for one
    value); a row of a C-contiguous array gives the bits of a 1-D copy."""
    vals = np.asarray(values, dtype=float)
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) \
        if vals.size > 1 else 0.0
    return float(np.mean(vals)), se


def sup_over_controls(estimates: Iterable) -> tuple[float, float, int]:
    """The one max over controls: of per-control (value, standard error)
    pairs, such as `mean_and_se` of per-path values, the largest value, its
    standard error and its control's index; the first control wins a tie."""
    best = (-math.inf, 0.0, 0)
    for k, (value, se) in enumerate(estimates):
        if value > best[0]:
            best = (value, se, k)
    return best


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
    block = plan._PATH_BLOCK
    w = PathIncrements(seed, n_paths, grid)
    terminal = np.empty((len(controls), n_paths))
    for first in range(0, n_paths, block):
        rows = slice(first, first + block)
        terminal[:, rows] = simulate_state_batch(coeffs, controls, x0, w[rows])
    value, se, best = sup_over_controls(map(mean_and_se, payoff.f(terminal)))
    return EstimateWithError(value=value, std_error=se, n_paths=n_paths,
                             n_controls=len(controls), best_control_id=best)


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


def random_young_trials(seed: int, n: int):
    """n random normalized (measures, g1, g2) instances for randomized
    checks, each 3 measures over 4 outcomes with g2 standard normal, as
    arrays with a leading trial axis; trial t draws from the stream
    TRIAL_SPACE + t of `seed` alone."""
    u = streams.uniforms(seed, streams.TRIAL_SPACE, n, 24).reshape(n, 2, 3, 4)
    P = 0.05 + 0.95 * u[:, 0]
    P /= P.sum(axis=-1, keepdims=True)
    g1 = 0.05 + 2.95 * u[:, 1]
    g1 /= np.sum(P * g1, axis=-1, keepdims=True)
    g2 = streams.normals(seed, streams.TRIAL_SPACE, n, 12).reshape(n, 3, 4)
    return P, g1, g2
