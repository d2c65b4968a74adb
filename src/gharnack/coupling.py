"""Coupling by change of measure: the decreasing weight schedule, the coupled
pair (X, Y) driven by a shared scenario control, the Girsanov density M kept
in log space, and slack checks for the entropy bound, the moment bound, and
the coupling-success trend.

The attracting drift g = (X - Y) / (lambda * sigma(X)) has a 1/lambda
singularity at the horizon; simulation clips at T - epsilon and continues with
g frozen to zero (both processes then share identical noise), mirroring the
L^2 extension of the drift to the full interval.

Simulate at the smallest clip, read earlier nodes: every statistic is read at
the clip node of its epsilon, and before that node g is active whatever the
clip, so a run simulated at a smaller epsilon holds the same (x, y, log M)
there, bit for bit. A clip sweep therefore needs one pass, simulated at the
smallest epsilon of the sweep; after the node of a larger epsilon, its g
counts as zero. That pass advances every control at once, a (k controls,
paths) state, one block of paths at a time, and keeps (x, y, log M) only at
the clip nodes it is asked for, g and the levels of every step only for the
first EXPORT_PATHS paths.

Explicit Euler contracts the gap X - Y only while `stability_ratio` stays at
most 1, so a larger ratio is refused, not simulated. A drift-implicit step for
Y would admit every alpha, but log M would then no longer be the exact
discrete Girsanov density of the applied shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import (ModelCoefficients, TimeGrid, VolatilityBand, _atomic_write,
                    alpha_cap, initial_weight, rate_constants, within_band)
from .scenario import (_W_BLOCK_STEPS, Control, _level_rows, _path_block,
                       _time_major, euler_step, sup_over_controls)

# Clip sweep of the coupling-success check, as fractions of the horizon.
SWEEP_FRACTIONS = (0.2, 0.1, 0.05, 0.025)
# Paths of each control whose g and levels at every step a coupled run
# keeps: the rows of paths.csv and of the shifted-QV check.
EXPORT_PATHS = 128


class CouplingError(ValueError):
    pass


@dataclass(frozen=True)
class CouplingSchedule:
    """Closed-form weight lambda(t): positive on [0, T), vanishing at T, and
    satisfying alpha_cap - c_K*lambda + lambda'/sigma_lower^2 = alpha."""

    alpha: float
    c_K: float
    lambda0: float
    T: float
    alpha_cap: float          # 2*kappa1^2/kappa2^2
    sigma_lower: float
    lam: Callable[[np.ndarray], np.ndarray]
    lam_prime: Callable[[np.ndarray], np.ndarray]

    def value(self, t):
        return self.lam(np.asarray(t, dtype=float))

    def identity_residual(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return (self.alpha_cap - self.c_K * self.lam(ts)
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
    if coeffs.K == 0.0:
        raise CouplingError(
            "K = 0 collapses the schedule to a 0/0 form; the coupling needs a "
            "positive Lipschitz constant K"
        )
    sl = band.sigma_lower
    c_K, _ = rate_constants(coeffs.K, sl, T)
    amp = (cap - alpha) / c_K

    def lam(t):
        return amp * (1.0 - np.exp(sl ** 2 * c_K * (np.asarray(t, dtype=float) - T)))

    def lam_prime(t):
        return -amp * sl ** 2 * c_K * np.exp(sl ** 2 * c_K * (np.asarray(t, dtype=float) - T))

    schedule = CouplingSchedule(alpha=alpha, c_K=c_K,
                                lambda0=initial_weight(alpha, coeffs, band, T),
                                T=T, alpha_cap=cap, sigma_lower=sl,
                                lam=lam, lam_prime=lam_prime)

    ts = np.linspace(0.0, T, 1001)
    worst = float(np.max(np.abs(schedule.identity_residual(ts))))
    if worst > 1e-8:
        raise CouplingError(f"schedule identity residual {worst:.3g} exceeds 1e-8")
    return schedule


def moment_exponent_a(alpha: float, kappa1: float, kappa2: float) -> float:
    """Exponent a with E M^(1+a) controlled; undefined at kappa1 = kappa2."""
    if kappa2 <= kappa1:
        raise CouplingError(
            "moment exponent a is undefined at kappa2 == kappa1; for equal "
            "diffusion bounds use the entropy (log-Harnack) route instead"
        )
    dk = kappa2 - kappa1
    return alpha ** 2 * kappa1 ** 2 / (4.0 * dk ** 2 + 4.0 * alpha * dk * kappa1)


def entropy_bound_value(schedule: CouplingSchedule, kappa1: float,
                        x0: float, y0: float) -> float:
    """Upper bound on sup_s E[M_s log M_s]."""
    return (x0 - y0) ** 2 / (2.0 * schedule.alpha * kappa1 ** 2 * schedule.lambda0)


def moment_bound_value(schedule: CouplingSchedule, kappa1: float, kappa2: float,
                       x0: float, y0: float) -> float:
    """Exponential upper bound on sup_s E[M_s^(1+a)]."""
    if kappa2 <= kappa1:
        raise CouplingError("moment bound needs kappa2 > kappa1")
    a = schedule.alpha
    dk = kappa2 - kappa1
    exponent = (a * (a * kappa1 + 2.0 * dk) * (x0 - y0) ** 2
                / (4.0 * dk ** 2 * schedule.lambda0 * (2.0 * a * kappa1 + 2.0 * dk)))
    return math.exp(exponent)


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


# (k, block) arrays alive at once in a step of the coupled pass: the state
# and its temporaries (at most 24).
_STATE_ROWS = 24
# (k, n_paths) rows of a coupled run of the CLI: (x, y, log M) at the clip
# node of `clip_epsilon` and of each SWEEP_FRACTIONS epsilon, kept twice
# (the record, and the ClipSamples read from it), and the stiff steps.
_RECORD_ROWS = 2 * 3 * (1 + len(SWEEP_FRACTIONS)) + 1


def run_nbytes(n_paths: int, n_steps: int, n_controls: int) -> int:
    """Bytes of the arrays of one coupled run of the CLI: one block of the
    increments w, its time-major block and its state rows, the clip-node
    record, the export rows' w and g, lambda at the nodes and three tables
    of open-loop levels."""
    n_head = min(n_paths, EXPORT_PATHS)
    block = min(n_paths, _path_block(n_steps, n_head))
    return 8 * (block * (n_steps + _W_BLOCK_STEPS + _STATE_ROWS * n_controls)
                + _RECORD_ROWS * n_controls * n_paths
                + (n_head + 3 * n_controls) * n_steps
                + (n_controls * n_head + 1) * (n_steps + 1))


@dataclass(frozen=True)
class ClipSample:
    """One bundle at the clip node of `epsilon`: (m, |x - y|, log m) of the
    paths still included there, the number the finiteness guard had excluded
    by then, and the node's time and lambda."""

    epsilon: float
    clip_time: float
    lambda_at_clip: float
    m: np.ndarray
    gap: np.ndarray
    log_m: np.ndarray
    n_excluded: int

    @property
    def n_paths(self) -> int:
        return self.m.size + self.n_excluded

    def require_included(self, label: str) -> "ClipSample":
        if self.m.size == 0:
            raise CouplingError(
                f"{label}: all {self.n_excluded} paths were excluded by the "
                "finiteness guard")
        return self


@dataclass(frozen=True)
class PathBundle:
    """Coupled sample paths of one control (rows = paths): the export rows
    of a coupled run, or all rows of a one-control run from `simulate_bundle`.

    `w` is path-major: row p is path p's own stream. The rest are read-only
    transposed views of the kernel's time-major buffers: g at every node,
    x, y and log M at the grid nodes `nodes` (all from `simulate_bundle`),
    and the levels, broadcast over the paths for an open-loop control."""

    grid: TimeGrid
    clip_epsilon: float
    clip_index: int
    w: np.ndarray          # (n_paths, n_steps) sqrt(dt)-scaled normals
    levels: np.ndarray     # (n_paths, n_steps)
    g_path: np.ndarray     # (n_paths, n_steps + 1)
    nodes: tuple           # increasing
    x_path: np.ndarray     # (n_paths, len(nodes))
    y_path: np.ndarray     # as x_path
    log_m_path: np.ndarray  # as x_path
    # Step during which the finiteness guard excluded each path, n_steps if
    # never: a path excluded during step j is still included at node j.
    stiff_step: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.x_path.shape[0]

    def node(self, epsilon: float | None = None) -> int:
        """Grid index of the clip node of `epsilon` (default: the bundle's
        own). An epsilon below the bundle's own raises: its node may lie
        past the bundle's clip, where g was already frozen."""
        if epsilon is None:
            return self.clip_index
        if epsilon < self.clip_epsilon:
            raise CouplingError(
                f"clip_epsilon {epsilon:g} lies below the bundle's own "
                f"{self.clip_epsilon:g}, where g was already frozen")
        return _clip_index(self.grid, epsilon)

    def included(self, epsilon: float | None = None) -> np.ndarray:
        """Paths not excluded by the clip node of `epsilon`."""
        return self.stiff_step >= self.node(epsilon)


@dataclass(frozen=True)
class CoupledRun:
    """Coupled paths of k controls from one pass, all started at (x0, y0) on
    the same increments: each control's ClipSample at every clip epsilon of
    the run, and a PathBundle of the first EXPORT_PATHS paths of each
    control, with x, y and log M at the clip nodes of the run."""

    samples: dict          # epsilon -> tuple of ClipSamples, control order
    heads: tuple           # one PathBundle per control

    def at_clip(self, epsilon: float) -> tuple:
        """One ClipSample per control, in control order, at the clip node
        of `epsilon`."""
        if epsilon not in self.samples:
            raise CouplingError(
                f"clip_epsilon {epsilon:g} was not recorded; the run holds "
                f"{', '.join(f'{e:g}' for e in sorted(self.samples))}")
        return self.samples[epsilon]


def _coupled_pass(coeffs, schedule, controls, clip_index, w, kept, record,
                  stiff_step, n_full):
    """The coupled Euler loop for k controls over one block of paths, on
    their rows `w` of the shared increments, g clipped at grid node
    `clip_index`, from the (x, y, log M) that the block's `record` holds
    before the pass writes it: the start values.

    X follows the base dynamics; Y carries the attracting drift
    sigma(Y) g d<B> with g = (X - Y)/(lambda sigma(X)); the density is
    advanced in log space, log M += -g dB - g^2 d<B> / 2. An element whose
    x, y or log M turns non-finite in step j keeps its values from node j
    and is excluded, j written into its `stiff_step`; each path depends on
    its own row of `w` alone.

    Writes (x, y, log M) at the nodes `kept` into the block's `record`, and
    returns the first `n_full` rows of `w` and, time-major, their g at every
    node and levels at each step (one column when open-loop).
    """
    grid = controls[0].grid
    n_paths, n_steps = w.shape
    dt = grid.dt
    levels_at = _level_rows(controls, n_paths)
    shape = (len(controls), n_paths)
    x, y, logm = record[:, 0].copy()
    g_zero = np.zeros(shape)
    g_full = np.zeros((n_steps + 1, len(controls), n_full))
    width = min(levels_at(0, x).shape[1], n_full)
    levels = np.empty((n_steps, len(controls), width))
    lam_nodes = schedule.value(grid.nodes)
    for j, wj in enumerate(_time_major(w)):
        t = float(grid.nodes[j])
        lv = levels_at(j, x)
        levels[j] = lv[:, :n_full]
        dB = lv * wj
        dqv = lv * lv * dt
        sx = coeffs.sigma(t, x)
        sy = coeffs.sigma(t, y)
        g = (x - y) / (float(lam_nodes[j]) * sx) if j < clip_index else g_zero
        g_full[j] = g[:, :n_full]
        xn = euler_step(coeffs, t, x, sx, dt, dqv, dB)
        yn = euler_step(coeffs, t, y, sy, dt, dqv, dB) + sy * g * dqv
        lmn = logm - g * dB - 0.5 * g * g * dqv

        finite = np.isfinite(xn) & np.isfinite(yn) & np.isfinite(lmn)
        if not finite.all():
            bad = ~finite
            stiff_step[bad & (stiff_step == n_steps)] = j
            xn[bad], yn[bad], lmn[bad] = x[bad], y[bad], logm[bad]  # frozen

        x, y, logm = xn, yn, lmn
        if j + 1 in kept:
            record[:, kept.index(j + 1)] = x, y, logm
    return w[:n_full].copy(), g_full, levels


def _coupled_run(coeffs, schedule, x0, y0, controls, clip_epsilon, w,
                 epsilons, n_full) -> CoupledRun:
    """`_coupled_pass` over blocks of at least `n_full` rows of `w`, g
    clipped at `clip_epsilon`. Raises CouplingError when `stability_ratio`
    exceeds 1 for a control's band. Keeps (x, y, log M) of every path at the
    clip nodes of `epsilons` (every node if None), and g and the levels of
    the first `n_full` paths."""
    grid = controls[0].grid
    T = grid.horizon
    clip_index = _clip_index(grid, clip_epsilon)
    if abs(T - schedule.T) > 1e-12 * max(1.0, T):
        raise CouplingError("control grid horizon differs from schedule horizon")
    n_paths, n_steps = w.shape
    if n_steps != grid.n_steps:
        raise CouplingError(
            f"w has {n_steps} columns, the grid has {grid.n_steps} steps")
    # r grows with sigma_upper, so the widest band bounds every control's
    sigma_upper = max(control.band.sigma_upper for control in controls)
    r = stability_ratio(schedule, sigma_upper, grid, clip_epsilon)
    if r > 1.0:
        raise CouplingError(f"alpha {schedule.alpha:g} gives the coupling step "
                            f"ratio r = {r:.3g} > 1 at {n_steps} steps and "
                            f"clip_epsilon {clip_epsilon:g}")
    read = {eps: _clip_index(grid, eps) for eps in epsilons or ()}
    kept = range(n_steps + 1) if epsilons is None else sorted({*read.values()})
    # Time-major: (x, y, log M) at each kept node, the start values until
    # the pass of its block writes them.
    record = np.empty((3, len(kept), len(controls), n_paths))
    record[...] = np.reshape((x0, y0, 0.0), (3, 1, 1, 1))
    stiff_step = np.full((len(controls), n_paths), n_steps)
    block = _path_block(n_steps, n_full)
    # The export rows' tables come from the first block, whose rows they
    # are; each block of w is dropped when its pass returns.
    w_head, g_full, levels = [
        _coupled_pass(coeffs, schedule, controls, clip_index,
                      w[first:first + block], kept,
                      record[..., first:first + block],
                      stiff_step[:, first:first + block],
                      n_full if first == 0 else 0)
        for first in range(0, n_paths, block)][0]

    samples = {}
    for eps, node in read.items():
        t = float(grid.nodes[node])
        lam = float(schedule.value(t))
        samples[eps] = tuple(
            ClipSample(epsilon=eps, clip_time=t, lambda_at_clip=lam,
                       m=np.exp(lm[keep]), gap=np.abs(x[keep] - y[keep]),
                       log_m=lm[keep],
                       n_excluded=int(np.count_nonzero(~keep)))
            for x, y, lm, keep in zip(*record[:, kept.index(node)],
                                      stiff_step >= node))
    for arr in (w_head, stiff_step, levels, g_full, record):
        arr.setflags(write=False)
    x_at, y_at, lm_at = record[..., :n_full]
    heads = tuple(
        PathBundle(grid=grid, clip_epsilon=float(clip_epsilon),
                   clip_index=clip_index, w=w_head, nodes=tuple(kept),
                   levels=np.broadcast_to(levels[:, i], (n_steps, n_full)).T,
                   g_path=g_full[:, i].T, x_path=x_at[:, i].T,
                   y_path=y_at[:, i].T, log_m_path=lm_at[:, i].T,
                   stiff_step=stiff_step[i, :n_full])
        for i in range(len(controls)))
    return CoupledRun(samples=samples, heads=heads)


def simulate_coupled(coeffs: ModelCoefficients, schedule: CouplingSchedule,
                     x0: float, y0: float, controls: Sequence[Control],
                     clip_epsilons: Iterable[float], w) -> CoupledRun:
    """Euler-Maruyama for the coupled pair under every control of a family
    in one pass over blocks of paths, driven by the sqrt(dt)-scaled
    increments `w`, one row per path: an array, or a `PathIncrements`,
    drawn one block at a time. g is clipped at the smallest of
    `clip_epsilons`.

    Keeps (x, y, log M) of every path only at the clip nodes of
    `clip_epsilons`, g and the levels only for the first EXPORT_PATHS paths.
    See `_coupled_pass` for the dynamics and finiteness guard.
    """
    epsilons = [float(eps) for eps in clip_epsilons]
    return _coupled_run(coeffs, schedule, x0, y0, controls, min(epsilons), w,
                        epsilons, min(w.shape[0], EXPORT_PATHS))


def simulate_bundle(coeffs: ModelCoefficients, schedule: CouplingSchedule,
                    x0: float, y0: float, control: Control,
                    clip_epsilon: float, w: np.ndarray) -> PathBundle:
    """The coupled paths of one control with every node of every path kept:
    the one-control, one-block case of the pass of `simulate_coupled`."""
    return _coupled_run(coeffs, schedule, x0, y0, [control], clip_epsilon, w,
                        None, w.shape[0]).heads[0]


def shifted_qv_discrepancy(
        bundle: PathBundle,
        clip_epsilon: float | None = None) -> tuple[float, float]:
    """The mean over paths of |QV(B_hat) - QV(B)| up to the horizon, and the
    energy of the shift g d<B>, the mean of sum_j g_j^2 dqv_j, from one read
    of the paths included at the clip node of `clip_epsilon` (default: the
    bundle's own clip).

    The shifted increments dB_hat = dB + g d<B> must accumulate the same
    quadratic variation as B; the discrete mismatch is the Euler cross term,
    which scales with dt times the energy. After the clip node g is exactly
    zero, so every term there is exactly zero. Raises CouplingError when the
    finiteness guard excluded every path by that clip node.
    """
    j = bundle.node(clip_epsilon)
    keep = bundle.included(clip_epsilon)
    if not keep.any():
        eps = bundle.clip_epsilon if clip_epsilon is None else clip_epsilon
        raise CouplingError(
            f"shifted QV at clip_epsilon {eps:g}: all {keep.size} paths were "
            "excluded by the finiteness guard")
    dqv = bundle.levels[keep, :j]
    dB = dqv * bundle.w[keep, :j]
    dqv *= dqv
    dqv *= bundle.grid.dt
    shift = bundle.g_path[keep, :j]
    energy = shift * shift
    energy *= dqv
    energy = float(np.mean(np.sum(energy, axis=1)))
    shift *= dqv
    shift += dB
    # Zeros from the clip node on, where g is zero, keep each path's
    # pairwise summation order over a C-ordered row of n_steps terms.
    terms = np.zeros((dB.shape[0], bundle.grid.n_steps))
    np.multiply(shift, shift, out=terms[:, :j])
    dB *= dB
    terms[:, :j] -= dB
    return float(np.mean(np.abs(np.sum(terms, axis=1)))), energy


@dataclass(frozen=True)
class SlackReport:
    """bound - estimate for one of the density moment checks."""

    kind: str
    bound: float
    estimate: float
    std_error: float
    slack: float
    passed: bool
    best_control_id: int
    n_paths: int
    n_controls: int
    stiff_excluded: int


def _sup_stat(samples: Sequence[ClipSample], stat) -> tuple[float, float, int]:
    return sup_over_controls(
        stat(sample.require_included(f"control {k}"))
        for k, sample in enumerate(samples))


def _slack_report(kind: str, bound: float, est: float, se: float,
                  best_id: int, samples: Sequence[ClipSample]) -> SlackReport:
    """The report of a sup-over-controls estimate `est` (winner's standard
    error `se`) against `bound`, passed by `within_band` with no
    deterministic tolerance."""
    return SlackReport(kind=kind, bound=bound, estimate=est, std_error=se,
                       slack=bound - est,
                       passed=within_band(est, bound, 0.0, se),
                       best_control_id=best_id, n_paths=samples[0].n_paths,
                       n_controls=len(samples),
                       stiff_excluded=sum(s.n_excluded for s in samples))


def entropy_bound_check(coeffs: ModelCoefficients, schedule: CouplingSchedule,
                        x0: float, y0: float,
                        samples: Sequence[ClipSample]) -> SlackReport:
    """sup over controls of mean(M log M) at the clip vs the entropy bound.

    `samples` holds the at-clip sample of one bundle per control, all
    started at (x0, y0) on the same increments.
    """
    est, se, best_id = _sup_stat(samples, lambda s: s.m * s.log_m)
    bound = entropy_bound_value(schedule, coeffs.kappa1, x0, y0)
    return _slack_report("entropy", bound, est, se, best_id, samples)


def moment_bound_check(coeffs: ModelCoefficients, schedule: CouplingSchedule,
                       x0: float, y0: float,
                       samples: Sequence[ClipSample]) -> SlackReport:
    """sup over controls of mean(M^(1+a)) at the clip vs the printed bound;
    `samples` as for `entropy_bound_check`."""
    a = moment_exponent_a(schedule.alpha, coeffs.kappa1, coeffs.kappa2)
    est, se, best_id = _sup_stat(samples, lambda s: np.exp((1.0 + a) * s.log_m))
    bound = moment_bound_value(schedule, coeffs.kappa1, coeffs.kappa2, x0, y0)
    return _slack_report("moment", bound, est, se, best_id, samples)


@dataclass(frozen=True)
class TrendRow:
    clip_epsilon: float
    clip_time: float
    lambda_at_clip: float
    weighted_mean: float
    weighted_median: float
    std_error: float
    bound: float


@dataclass(frozen=True)
class CouplingTrendReport:
    """M-weighted gap statistics across a clip-epsilon sweep."""

    rows: tuple
    fitted_C: float
    theory_C: float
    strictly_decreasing: bool
    bounded: bool
    passed: bool


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    v = values[order]
    cum = np.cumsum(weights[order])
    return float(v[np.searchsorted(cum, 0.5 * cum[-1])])


def coupling_success_check(schedule: CouplingSchedule, x0: float, y0: float,
                           samples: Iterable[ClipSample]) -> CouplingTrendReport:
    """Check the coupling-success proxy over a clip sweep.

    The entropy argument forces the M-weighted second moment of the gap at
    time s below |x-y|^2 lambda(s)/lambda(0), so the M-weighted mean gap must
    decrease strictly with the clip while it is positive (a gap that is
    exactly 0, as for x = y, stays 0) and stay under C sqrt(lambda) for
    C = |x-y|/sqrt(lambda(0)). `samples` holds one clip sample per
    (epsilon, control), each control's bundles started at (x0, y0); within
    one epsilon they come in control order, and the first control wins a tie.
    """
    per_clip: dict[float, dict] = {}
    theory_C = abs(float(x0) - float(y0)) / math.sqrt(schedule.lambda0)
    for k, sample in enumerate(samples):
        eps = sample.epsilon
        sample.require_included(f"bundle {k} (clip_epsilon {eps:g})")
        m, gap = sample.m, sample.gap
        wsum = float(np.sum(m))
        wmean = float(np.sum(m * gap) / wsum)
        se = float(np.std(m * gap, ddof=1) / math.sqrt(m.size) / (wsum / m.size)) \
            if m.size > 1 else 0.0
        med = _weighted_median(gap, m)
        cur = per_clip.get(eps)
        # sup over controls at each clip time
        if cur is None or wmean > cur["wmean"]:
            per_clip[eps] = {"wmean": wmean, "med": med, "se": se,
                             "lam": sample.lambda_at_clip,
                             "time": sample.clip_time}
    if not per_clip:
        raise CouplingError("no samples supplied")

    rows = []
    for eps in sorted(per_clip, reverse=True):
        c = per_clip[eps]
        rows.append(TrendRow(clip_epsilon=eps, clip_time=c["time"],
                             lambda_at_clip=c["lam"], weighted_mean=c["wmean"],
                             weighted_median=c["med"], std_error=c["se"],
                             bound=theory_C * math.sqrt(c["lam"])))
    means = [r.weighted_mean for r in rows]
    # Equal starts give gaps that are exactly 0 at every clip, which the
    # trend admits: no mean increases, and a positive mean must drop.
    decreasing = all(a > b or a == b == 0.0 for a, b in zip(means, means[1:]))
    bounded = all(within_band(r.weighted_mean, r.bound, 0.0, r.std_error)
                  for r in rows)
    fitted = max((r.weighted_mean / math.sqrt(r.lambda_at_clip) for r in rows
                  if r.lambda_at_clip > 0.0), default=0.0)
    return CouplingTrendReport(rows=tuple(rows), fitted_C=fitted,
                               theory_C=theory_C,
                               strictly_decreasing=decreasing, bounded=bounded,
                               passed=decreasing and bounded)


def export_bundle_csv(bundles: Sequence[PathBundle], path,
                      clip_epsilon: float | None = None) -> None:
    """Per-path summaries at the clip node of `clip_epsilon` (default: each
    bundle's own clip), which each bundle must keep."""
    rows = ["control_id,path_id,clip_time,x,y,abs_gap,m,log_m\n"]
    for cid, bundle in enumerate(bundles):
        j = bundle.node(clip_epsilon)
        if j not in bundle.nodes:
            raise CouplingError(f"node {j} is not kept: {bundle.nodes}")
        t = float(bundle.grid.nodes[j])
        at = [a[:, bundle.nodes.index(j)].tolist()
              for a in (bundle.x_path, bundle.y_path, bundle.log_m_path)]
        for p, (xv, yv, lm) in enumerate(zip(*at)):
            rows.append(f"{cid},{p},{t!r},{xv!r},{yv!r},"
                        f"{abs(xv - yv)!r},{math.exp(lm)!r},{lm!r}\n")
    _atomic_write(path, "".join(rows))
