"""Explicit monotone finite-difference solvers for the nonlinear semigroup.

Backward time-stepping of u_t + b u_x + G(2h u_x + sigma^2 u_xx) = 0 with the
sublinear generator applied nodewise. The scheme is kept monotone (correctness
over cleverness): central differences feed G, the b-term is upwinded, the time
step obeys an explicit CFL bound, and boundary nodes use linear extrapolation
(vanishing second difference). A discrete comparison check runs after every
solve; violations raise rather than return garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (ModelCoefficients, Payoff, PdeError, TimeGrid,
                    VolatilityBand, g_function)
from .plan import _UNIT_COEFFS, PdeConfig, _cfl_time_step


@dataclass(frozen=True)
class GridFunction:
    """Values of u(t, .) on a uniform state grid."""

    x_nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.x_nodes) != len(self.values):
            raise PdeError("x_nodes and values length mismatch")
        if not np.all(np.isfinite(self.values)):
            raise PdeError("grid function has non-finite values")

    def __call__(self, x):
        return np.interp(x, self.x_nodes, self.values)

    @property
    def dx(self) -> float:
        return float(self.x_nodes[1] - self.x_nodes[0])

    def max_abs_gradient(self) -> float:
        """Sup of |central difference| over interior nodes."""
        grad = (self.values[2:] - self.values[:-2]) / (2.0 * self.dx)
        return float(np.max(np.abs(grad)))


@dataclass(frozen=True)
class PolicyTable:
    """Bang-bang volatility choice recorded on a path grid: row j of
    `hi_mask` is the choice at each state node for step j. As a control,
    the table sets a path's level at step j from the node nearest its
    state."""

    grid: TimeGrid
    x_nodes: np.ndarray
    hi_mask: np.ndarray  # (n_steps, n_nodes) True where the high level wins
    band: VolatilityBand


def _upper_wins(a: np.ndarray, u: np.ndarray, dx: float, h_vec: np.ndarray,
                sig2_vec: np.ndarray) -> np.ndarray:
    """Tie-tolerant maximizer mask: ties at zero curvature break high.

    The finite differences carry rounding noise of order eps * |u| / dx^2, so
    the zero test uses that scale, taken per row of `u`; either choice leaves
    the solution unchanged where G vanishes.
    """
    umax = np.max(np.abs(u), axis=-1, keepdims=True)
    noise = np.finfo(float).eps * umax * (
        8.0 * float(np.max(sig2_vec)) / (dx * dx)
        + 8.0 * float(np.max(np.abs(h_vec))) / dx
    )
    return a >= -64.0 * noise


def solve_stack(coeffs: ModelCoefficients, band: VolatilityBand, payoffs,
                T: float, cfg: PdeConfig, policy_grid: TimeGrid | None = None):
    """Backward solve of the semigroup PDE for a stack of terminal payoffs in
    one explicit time-stepping pass; returns u(0, .) of each payoff, in order,
    and their PolicyTables (None without `policy_grid`).

    Every row takes the same CFL step and the same operations as a stack of
    that row alone, so each row is bit-identical to its single solve. With
    `policy_grid` given, each row records its bang-bang maximizers at (the
    PDE level nearest to) each step time of that grid. Each row passes its
    own comparison post-check against its own payoff range.
    """
    if T <= 0.0:
        raise PdeError(f"horizon must be positive, got {T}")
    payoffs = list(payoffs)
    xs = cfg.nodes()
    for payoff in payoffs:
        payoff.check_bounds_on(xs)
    dx = cfg.dx
    dt, n_t = _cfl_time_step(coeffs, band, T, cfg)
    # The coefficients take x alone, so one evaluation on the nodes serves
    # every time level.
    b_vec = np.asarray(coeffs.b(xs), dtype=float)
    h_vec = np.asarray(coeffs.h(xs), dtype=float)
    sig2 = np.asarray(coeffs.sigma(xs), dtype=float) ** 2

    # Rows live in one buffer with a ghost node at each end; u is a view.
    n_rows, L = len(payoffs), len(xs) + 2
    up = np.empty((n_rows, L))
    for row, payoff in zip(up, payoffs):
        row[1:-1] = payoff.f(xs)
    u = up[:, 1:-1]
    lo_bound, hi_bound = u.min(axis=1), u.max(axis=1)

    record = None
    hits_at = {}
    if policy_grid is not None:
        step_times = policy_grid.nodes[:-1]
        # control on [t_{i-1}, t_i) is derived from u at level i
        level_of_time = np.clip(np.ceil(step_times / dt - 1e-12).astype(int), 1, n_t)
        record = np.zeros((n_rows, len(step_times), len(xs)), dtype=bool)
        for k, level in enumerate(level_of_time.tolist()):
            hits_at.setdefault(level, []).append(k)

    # The step runs on the flattened buffer, where each difference is one
    # contiguous slice: the neighbours of a node sit in its own row, and only
    # ghost positions read across rows. Their coefficients are zero and the
    # next step overwrites them, so nothing leaks between rows.
    flat = up.reshape(-1)
    mid, right, left = flat[1:-1], flat[2:], flat[:-2]

    def stacked(vec):
        rows = np.zeros((n_rows, L), dtype=vec.dtype)
        rows[:, 1:-1] = vec
        return rows.reshape(-1)[1:-1]

    # A term whose coefficient is zero on every node is skipped: adding a
    # zero changes no finite nonzero value.
    sig2_s = stacked(sig2)
    two_h = b_s = upwind = None
    if h_vec.any():
        two_h = stacked(2.0 * h_vec)
    if b_vec.any():
        b_s, upwind = stacked(b_vec), stacked(b_vec >= 0.0)
    # Step buffers in the layout of `up`; a_rows is the Hamiltonian argument
    # of each row's nodes.
    a_buf = np.empty((n_rows, L))
    a, a_rows = a_buf.reshape(-1)[1:-1], a_buf[:, 1:-1]
    tmp = np.empty_like(a)
    d = np.empty((n_rows, L)).reshape(-1)[1:]

    for i in range(n_t, 0, -1):
        # Ghost nodes by linear extrapolation, forcing u_xx = 0 at the
        # boundary: columns (0, L-1) from (1, L-2) and (2, L-3). L >= 19, so
        # each strided view holds exactly those two columns.
        np.subtract(2.0 * up[:, 1::L - 3], up[:, 2::L - 5], out=up[:, ::L - 1])
        # a = 2 h u_x + sigma^2 u_xx by central differences
        np.multiply(mid, 2.0, out=a)
        np.subtract(right, a, out=a)
        a += left
        a /= dx * dx
        a *= sig2_s
        if two_h is not None:
            np.subtract(right, left, out=tmp)
            tmp /= 2.0 * dx
            tmp *= two_h
            a += tmp
        hits = hits_at.get(i)
        if hits:
            record[:, hits] = _upper_wins(a_rows, u, dx, h_vec, sig2)[:, None]
        rate = g_function(a, band)
        if b_s is not None:
            # b u_x upwinded: forward differences where b >= 0, else backward
            np.subtract(flat[1:], flat[:-1], out=d)
            d /= dx
            np.copyto(tmp, d[:-1])
            np.copyto(tmp, d[1:], where=upwind)
            tmp *= b_s
            rate += tmp
        rate *= dt
        mid += rate

    tol = 1e-8 * (1.0 + np.abs(lo_bound) + np.abs(hi_bound))
    for payoff, row, lo, hi, eps in zip(payoffs, u, lo_bound, hi_bound, tol):
        if row.min() < lo - eps or row.max() > hi + eps:
            raise PdeError(
                f"comparison post-check failed (scheme instability) for "
                f"payoff {payoff.name!r}: solution range "
                f"[{row.min():.6g}, {row.max():.6g}] leaves payoff range "
                f"[{lo:.6g}, {hi:.6g}]"
            )

    results = [GridFunction(x_nodes=xs, values=row.copy())
               for row in u]
    if record is None:
        return results, None
    return results, [PolicyTable(grid=policy_grid, x_nodes=xs, hi_mask=mask,
                                 band=band) for mask in record]


def solve_g_heat(payoff: Payoff, band: VolatilityBand, T: float, cfg: PdeConfig,
                 policy_grid: TimeGrid | None = None):
    """u_t + G(u_xx) = 0 backward from the terminal payoff; returns u(0, .).

    With `policy_grid` given, also returns the PolicyTable of bang-bang
    maximizers recorded at the step times of that grid.
    """
    (u,), policies = solve_stack(_UNIT_COEFFS, band, [payoff], T, cfg,
                                 policy_grid)
    return u if policies is None else (u, policies[0])


@dataclass(frozen=True)
class Semigroups:
    """P_T of several terminal payoffs under one model: u(0, .) of each on a
    fine grid and on its coarsened grid, from one stacked solve per grid.

    Rows are keyed by the Payoff objects they were solved for; `policy`
    holds the fine-grid PolicyTables when the solve recorded them.
    """

    coeffs: ModelCoefficients
    band: VolatilityBand
    T: float
    fine: dict
    coarse: dict
    policy: dict | None = None

    def tolerance(self, payoff: Payoff, x) -> float:
        """Two-grid Richardson estimate of the fine-grid error at x: the
        coarse/fine difference. At the halved coarse grid this is the fine
        error itself for a first-order scheme, with no safety margin (orders
        0.91-1.06 observed on the bundled model); below order 1 it reads
        low."""
        return float(np.max(np.abs(self.fine[payoff](x)
                                   - self.coarse[payoff](x)))) + 1e-12


def solve_semigroups(coeffs: ModelCoefficients, band: VolatilityBand, T: float,
                     cfg: PdeConfig, payoffs,
                     policy_grid: TimeGrid | None = None) -> Semigroups:
    """Solve every payoff on `cfg` and on `cfg.coarsened()`, one stacked pass
    per grid; the fine pass records the policies on `policy_grid`."""
    payoffs = list(payoffs)
    fine, policies = solve_stack(coeffs, band, payoffs, T, cfg, policy_grid)
    coarse, _ = solve_stack(coeffs, band, payoffs, T, cfg.coarsened())
    return Semigroups(
        coeffs, band, T, dict(zip(payoffs, fine)), dict(zip(payoffs, coarse)),
        None if policies is None else dict(zip(payoffs, policies)))

