"""The plan of a run, fixed before any work: the PDE grid and its CFL step,
the coupling schedule with its clip nodes and stability ratio, the
power-Harnack threshold, and the bytes of a stacked solve and of a coupled
run with the block sizes of the path passes.

`config` checks a run against these closed forms and sizes at parse time,
and the solvers and the coupled pass use the same ones. This module imports
`model` alone, so parsing a config loads `config`, `plan` and `model` and no
solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (CouplingError, HarnackError, ModelCoefficients, PdeError,
                    TimeGrid, VolatilityBand, alpha_cap, initial_weight,
                    make_coefficient, rate_constants)


@dataclass(frozen=True)
class PdeConfig:
    """Spatial grid of the explicit scheme."""

    x_min: float
    x_max: float
    n_space: int  # number of intervals; nodes = n_space + 1

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise PdeError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_space < 16:
            raise PdeError(f"n_space must be >= 16, got {self.n_space}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_space

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_space + 1)

    def coarsened(self) -> "PdeConfig":
        """Half the spatial resolution, for two-grid Richardson tolerances."""
        return PdeConfig(self.x_min, self.x_max, self.n_space // 2)


_UNIT_COEFFS = ModelCoefficients(
    b=make_coefficient("constant", (0.0,)),
    h=make_coefficient("constant", (0.0,)),
    sigma=make_coefficient("constant", (1.0,)),
    K=0.0, kappa1=1.0, kappa2=1.0,
)

# Arrays alive at once in a step of `gheat.solve_stack`, each of about
# n_space doubles. Per stacked row, at most 11 1/8 while G is evaluated: the
# padded row, the three step buffers, the stacked sigma^2, 2h and b and the
# upwind mask, the previous step's rate and the two products and result of G
# (at a record level, |u| and the mask of `gheat._upper_wins` take G's
# place). Per node, the grid and the coefficient vectors (6).
_ROW_ARRAYS = 12
_NODE_ARRAYS = 6


def solve_nbytes(n_rows: int, n_space: int, n_policy_steps: int) -> int:
    """Bytes of the working set of one stacked solve of `n_rows` payoffs: the
    rows, the step's temporaries and the coefficient vectors, plus a policy
    record of n_policy_steps x (n_space + 1) booleans per row."""
    return ((n_rows * _ROW_ARRAYS + _NODE_ARRAYS) * (n_space + 3) * 8
            + n_rows * n_policy_steps * (n_space + 1))


# The time step's fraction of the CFL bound; past the bound itself the
# explicit scheme is not monotone.
_CFL_SAFETY = 0.8


def _cfl_time_step(coeffs: ModelCoefficients, band: VolatilityBand, T: float,
                   cfg: PdeConfig) -> tuple[float, int]:
    xs = cfg.nodes()
    dx = cfg.dx
    bmax = float(np.max(np.abs(coeffs.b(xs))))
    hmax = float(np.max(np.abs(coeffs.h(xs))))
    sigmax = float(np.max(np.abs(coeffs.sigma(xs))))
    if hmax > 0.0 and dx > coeffs.kappa1 ** 2 / hmax:
        raise PdeError(
            f"dx={dx:g} too coarse for the quadratic-variation drift: "
            f"monotonicity needs dx <= kappa1^2/|h|max = "
            f"{coeffs.kappa1 ** 2 / hmax:g}"
        )
    up2 = band.sigma_upper ** 2
    rate = up2 * sigmax ** 2 / (dx * dx) + bmax / dx + up2 * hmax / dx
    dt = _CFL_SAFETY / rate
    n_t = max(1, int(math.ceil(T / dt)))
    return T / n_t, n_t


def power_threshold(kappa1: float, kappa2: float) -> float:
    """Smallest admissible power (exclusive)."""
    if kappa2 <= kappa1:
        raise HarnackError("power-Harnack threshold needs kappa2 > kappa1")
    return (1.0 + (kappa2 ** 3 - kappa1 * kappa2 ** 2) / kappa1 ** 3) ** 2


# Clip sweep of the coupling-success check, as fractions of the horizon.
SWEEP_FRACTIONS = (0.2, 0.1, 0.05, 0.025)
# Paths of each control, the first, whose (x, y, log M) and shifted-QV sums
# a coupled run keeps at its clip nodes: the rows of paths.csv and of the
# shifted-QV check.
EXPORT_PATHS = 128


@dataclass(frozen=True)
class CouplingSchedule:
    """Closed-form weight lambda(t) = (alpha_cap - alpha)/c_K (1 -
    exp(sigma_lower^2 c_K (t - T))): positive on [0, T), vanishing at T, and
    satisfying alpha_cap - c_K*lambda + lambda'/sigma_lower^2 = alpha."""

    alpha: float
    c_K: float
    lambda0: float
    T: float
    alpha_cap: float          # 2*kappa1^2/kappa2^2
    sigma_lower: float

    def _terms(self, t):
        return ((self.alpha_cap - self.alpha) / self.c_K,
                np.exp(self.sigma_lower ** 2 * self.c_K
                       * (np.asarray(t, dtype=float) - self.T)))

    def value(self, t):
        amp, decay = self._terms(t)
        return amp * (1.0 - decay)

    def lam_prime(self, t):
        amp, decay = self._terms(t)
        return -amp * self.sigma_lower ** 2 * self.c_K * decay

    def identity_residual(self, ts) -> np.ndarray:
        return (self.alpha_cap - self.c_K * self.value(ts)
                + self.lam_prime(ts) / self.sigma_lower ** 2 - self.alpha)


def make_schedule(alpha: float, coeffs: ModelCoefficients, band: VolatilityBand,
                  T: float) -> CouplingSchedule:
    """Build the coupling weight schedule for an admissible alpha and K > 0."""
    if T <= 0.0:
        raise CouplingError(f"horizon must be positive, got {T}")
    cap = alpha_cap(coeffs.kappa1, coeffs.kappa2)
    if not 0.0 < alpha < cap:
        raise CouplingError(
            f"alpha must lie in the open interval (0, {cap:g}), got {alpha}"
        )
    lambda0 = initial_weight(alpha, coeffs, band, T)
    c_K, _ = rate_constants(coeffs.K, band.sigma_lower, T)
    return CouplingSchedule(alpha=alpha, c_K=c_K, lambda0=lambda0, T=T,
                            alpha_cap=cap, sigma_lower=band.sigma_lower)


def _clip_index(grid: TimeGrid, clip_epsilon: float) -> int:
    """The last grid node at or before T - clip_epsilon."""
    T = grid.horizon
    if not 0.0 < clip_epsilon <= T / 4.0:
        raise CouplingError(
            f"clip_epsilon must lie in (0, T/4], got {clip_epsilon} (T={T:g})"
        )
    return int(np.searchsorted(grid.nodes, T - clip_epsilon, side="right")) - 1


def stability_ratio(schedule: CouplingSchedule, sigma_upper: float,
                    grid: TimeGrid, clip_epsilon: float) -> float:
    """Largest r_j = (kappa2/kappa1) sigma_upper^2 dt / lambda(t_j) over the
    steps j before the clip node of `clip_epsilon`, where g is active (0 if
    none). Step j multiplies the gap by 1 - rho with rho <= r_j, so while
    r <= 1 it contracts without a change of sign. r scales as
    1/(alpha_cap - alpha), as lambda scales with alpha_cap - alpha."""
    j = _clip_index(grid, clip_epsilon)
    kappa_ratio = math.sqrt(2.0 / schedule.alpha_cap)  # alpha_cap = 2 k1^2/k2^2
    lam = schedule.value(grid.nodes[:j])
    return float(np.max(kappa_ratio * sigma_upper ** 2 * grid.dt / lam,
                        initial=0.0))


# Steps of `w` transposed into the scratch block at a time: 256 KiB for a
# 1024-path block at 256 steps, small enough to stay in cache.
_W_BLOCK_STEPS = 32

# Bytes of the increments drawn at a time, 1024 paths at 256 steps: half
# the memory of 4 MiB for a few percent of time. The scenario pass at 16384
# x 256 took 0.26-0.29 s in-process at 2 MiB, 0.24-0.28 s at 4 MiB and
# 0.34-0.36 s at 1 MiB (medians, 2-core Xeon, numpy 2.4.6).
_PATH_BLOCK_BYTES = 2 * 2 ** 20


def _path_block(n_steps: int) -> int:
    """Paths per block of a pass over `n_steps` steps: _PATH_BLOCK_BYTES of
    increments, at least one path."""
    return max(1, _PATH_BLOCK_BYTES // (8 * n_steps))


# (k, block) arrays alive at once in a step of the coupled pass: the two
# (x, y, log M) state buffers, dB, g and their temporaries (at most 24).
_STATE_ROWS = 24
# Clip nodes of a coupled run of the CLI: `clip_epsilon` and each
# SWEEP_FRACTIONS epsilon.
_CLIP_NODES = 1 + len(SWEEP_FRACTIONS)
# (k, n_paths) rows of a coupled run of the CLI: (|x - y|, log M) at each
# clip node in the record and in the ClipSamples, and the stiff steps. The
# export record adds (x, y, log M) and the two shifted-QV sums of the
# export paths alone.
_RECORD_ROWS = (2 + 2) * _CLIP_NODES + 1


def run_nbytes(n_paths: int, n_steps: int, n_controls: int) -> int:
    """Bytes of the arrays of one coupled run of the CLI: the larger block
    of the increments w, the export block or a later one, with its
    time-major block and its state rows, the clip-node record, the export
    record, lambda at the nodes and two tables of open-loop levels."""
    n_head = min(n_paths, EXPORT_PATHS)
    block = max(n_head, min(n_paths - n_head, _path_block(n_steps)))
    return 8 * (block * (n_steps + _W_BLOCK_STEPS + _STATE_ROWS * n_controls)
                + _RECORD_ROWS * n_controls * n_paths
                + 2 * n_controls * n_steps + n_steps + 1
                + 5 * _CLIP_NODES * n_controls * n_head)
