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
counts as zero. That pass advances every control at once, a (x, y, log M)
by (k controls, paths) state, one block of paths at a time, whose
increments come a time-major window of steps at a time, and keeps
(|x - y|, log M) only at the clip nodes it is asked for. The first block
holds the first EXPORT_PATHS paths, the export rows, and keeps their
(x, y, log M) there too, with the two shifted-QV sums that build up in
step order inside the pass.

Explicit Euler contracts the gap X - Y only while `stability_ratio` stays at
most 1, so a larger ratio is refused, not simulated. A drift-implicit step for
Y would admit every alpha, but log M would then no longer be the exact
discrete Girsanov density of the applied shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import CouplingError, ModelCoefficients, within_band
from . import plan
from .plan import EXPORT_PATHS, CouplingSchedule, _clip_index, stability_ratio
from .scenario import (Control, _level_rows, _step_rows, euler_step,
                       mean_and_se, sup_over_controls)


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


# Kish's effective sample size (sum M)^2 / sum M^2 below which a clip sample
# is refused: worth fewer than the two draws a standard error needs.
_ESS_FLOOR = 2.0


@dataclass(frozen=True)
class ClipSample:
    """One control's paths at the clip node of `epsilon`: (|x - y|, log m)
    of the paths still included there, the number the finiteness guard had
    excluded by then, and the node's time and lambda."""

    epsilon: float
    clip_time: float
    lambda_at_clip: float
    gap: np.ndarray
    log_m: np.ndarray
    n_excluded: int

    @property
    def n_paths(self) -> int:
        return self.log_m.size + self.n_excluded

    def require_included(self, label: str) -> "ClipSample":
        """The sample, refused when no path is included, or when the
        included weights M = exp(log M) are worth fewer than _ESS_FLOOR
        independent draws: Kish's effective sample size, from
        exp(log M - max log M), so weights that all underflow are its
        limiting case."""
        if self.log_m.size == 0:
            raise CouplingError(
                f"{label}: all {self.n_excluded} paths were excluded by the "
                "finiteness guard")
        m = np.exp(self.log_m - self.log_m.max())
        ess = float(np.sum(m)) ** 2 / float(np.sum(m * m))
        if ess < _ESS_FLOOR:
            raise CouplingError(
                f"{label}: all {self.log_m.size} weights M = exp(log M) at "
                f"the clip node count as {ess:.3g} draws (Kish's effective "
                f"sample size), below the floor of {_ESS_FLOOR:g}, so the "
                "sample cannot see the coupled measure; raise "
                "[coupling.n_paths] or move [check.y] toward [check.x]")
        return self


@dataclass(frozen=True)
class CoupledRun:
    """Coupled paths of k controls from one pass, all started at (x0, y0) on
    the same increments: each control's ClipSample at every clip epsilon of
    the run, and the export record of the first EXPORT_PATHS paths of each
    control at the clip node of each epsilon."""

    samples: dict   # epsilon -> tuple of ClipSamples, control order
    # epsilon -> the (5, k, n_export) x, y, log M and shifted-QV cross and
    # energy sums of the export rows, and the (k, n_export) mask of those
    # included, at its clip node
    heads: dict

    def at_clip(self, epsilon: float) -> tuple:
        """One ClipSample per control, in control order, at the clip node
        of `epsilon`."""
        if epsilon not in self.samples:
            raise CouplingError(
                f"clip_epsilon {epsilon:g} was not recorded; the run holds "
                f"{', '.join(f'{e:g}' for e in sorted(self.samples))}")
        return self.samples[epsilon]

    def head_at(self, epsilon: float) -> tuple:
        """The time of the clip node of `epsilon`, the export record there
        and the mask of the export rows included there."""
        return (self.at_clip(epsilon)[0].clip_time, *self.heads[epsilon])


def _coupled_pass(coeffs, schedule, controls, clip_index, w, start, nodes,
                  record, stiff_step, head=None):
    """The coupled Euler loop for k controls over one block of paths, on
    their rows `w` of the shared increments, read a time-major window at a
    time, from (x, y, log M) = (*start, 0), g clipped at grid node
    `clip_index`.

    X follows the base dynamics; Y carries the attracting drift
    sigma(Y) g d<B> with g = (X - Y)/(lambda sigma(X)); the density is
    advanced in log space, log M += -g dB - g^2 d<B> / 2. The three advance
    as one (3, k, paths) state, so b, h and sigma run once per step on
    (x, y). An element whose x, y or log M turns non-finite in step j keeps
    its values from node j and is excluded, j written into its
    `stiff_step`; each path depends on its own row of `w` alone.

    Writes (|x - y|, log M) at the nodes `nodes` into the block's `record`.
    Given `head`, the (5, nodes, k, n_export) export record of the first
    n_export paths of the block, also sums the shifted-QV terms of those
    paths in step order, the cross term (g dqv + dB)^2 - dB^2 and the
    energy g^2 dqv, and writes their (x, y, log M) and both sums at the
    nodes `nodes` into it.
    """
    grid = controls[0].grid
    n_paths, n_steps = w.shape
    dt = grid.dt
    levels_at = _level_rows(controls, n_paths)
    # Two state buffers and the rows of dB and g, reused at every step: a
    # new array per step would raise the heap's high-water mark.
    state = np.empty((3, len(controls), n_paths))
    state[...] = np.reshape((*start, 0.0), (3, 1, 1))
    new = np.empty_like(state)
    dB, gbuf = np.empty((2, len(controls), n_paths))
    if head is not None:
        n_export = head.shape[-1]
        qv = np.zeros((2, len(controls), n_export))
    lam_nodes = schedule.value(grid.nodes)

    def keep(node):
        if node in nodes:
            i = nodes.index(node)
            gap, lm = record[:, i]
            np.subtract(state[0], state[1], out=gap)
            np.abs(gap, out=gap)
            lm[...] = state[2]
            if head is not None:
                head[:3, i] = state[..., :n_export]
                head[3:, i] = qv

    keep(0)
    for j, wj in enumerate(_step_rows(w)):
        x, y, logm = state
        lv = levels_at(j, x)
        np.multiply(lv, wj, out=dB)
        dqv = lv * lv * dt
        s = coeffs.sigma(state[:2])
        if j < clip_index:
            g = np.subtract(x, y, out=gbuf)
            g /= float(lam_nodes[j]) * s[0]
            if head is not None:
                g_head, dqv_head = g[:, :n_export], dqv[:, :n_export]
                dB_head = dB[:, :n_export]
                cross = g_head * dqv_head
                cross += dB_head
                cross *= cross
                cross -= dB_head * dB_head
                qv[0] += cross
                qv[1] += g_head * g_head * dqv_head
        else:
            g = 0.0
        euler_step(coeffs, state[:2], s, dt, dqv, dB, out=new[:2])
        new[1] += s[1] * g * dqv
        np.subtract(logm, g * dB, out=new[2])
        new[2] -= 0.5 * g * g * dqv
        if not np.isfinite(new).all():
            bad = ~np.isfinite(new).all(axis=0)
            stiff_step[bad & (stiff_step == n_steps)] = j
            new[:, bad] = state[:, bad]  # frozen
        state, new = new, state
        keep(j + 1)


def simulate_coupled(coeffs: ModelCoefficients, schedule: CouplingSchedule,
                     x0: float, y0: float, controls: Sequence[Control],
                     clip_epsilons: Iterable[float], w) -> CoupledRun:
    """Euler-Maruyama for the coupled pair under every control of a family
    in one pass over blocks of paths, driven by the sqrt(dt)-scaled
    increments `w`, one row per path: an array, or a `PathIncrements`,
    whose blocks are drawn a time-major window at a time. g is clipped at
    the smallest of `clip_epsilons`; see `_coupled_pass` for the dynamics
    and finiteness guard. Raises CouplingError when `stability_ratio`
    exceeds 1 for a control's band.

    The paths run in blocks of `plan._PATH_BLOCK` rows in path order, the
    first widened to hold the first EXPORT_PATHS paths, the export rows.
    Keeps (|x - y|, log M) of every path at the clip nodes of
    `clip_epsilons`, and the export record of the export rows there.
    """
    epsilons = [float(eps) for eps in clip_epsilons]
    clip_epsilon = min(epsilons)
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
    read = {eps: _clip_index(grid, eps) for eps in epsilons}
    nodes = sorted({*read.values()})
    n_export = min(n_paths, EXPORT_PATHS)
    # Time-major: (|x - y|, log M) of every path at each clip node, and the
    # export record of the first n_export.
    record = np.empty((2, len(nodes), len(controls), n_paths))
    head = np.empty((5, len(nodes), len(controls), n_export))
    stiff_step = np.full((len(controls), n_paths), n_steps)
    block = plan._PATH_BLOCK
    bounds = [0, *range(max(block, n_export), n_paths, block), n_paths]
    for first, stop in zip(bounds, bounds[1:]):
        rows = slice(first, stop)
        _coupled_pass(coeffs, schedule, controls, clip_index, w[rows],
                      (x0, y0), nodes, record[..., rows], stiff_step[:, rows],
                      head if first == 0 else None)

    head.setflags(write=False)
    samples, heads = {}, {}
    for eps, node in read.items():
        i = nodes.index(node)
        t = float(grid.nodes[node])
        lam = float(schedule.value(t))
        samples[eps] = tuple(
            ClipSample(epsilon=eps, clip_time=t, lambda_at_clip=lam,
                       gap=gap[keep], log_m=lm[keep],
                       n_excluded=int(np.count_nonzero(~keep)))
            for gap, lm, keep in zip(*record[:, i], stiff_step >= node))
        heads[eps] = (head[:, i], stiff_step[:, :n_export] >= node)
    return CoupledRun(samples=samples, heads=heads)


def shifted_qv_discrepancy(run: CoupledRun,
                           clip_epsilon: float) -> tuple[float, float]:
    """The largest over controls of the mean over the export paths included
    at the clip node of `clip_epsilon` of |QV(B_hat) - QV(B)| up to that
    node, and of the energy of the shift g d<B>, sum_j g_j^2 dqv_j: a
    reduction of the two sums the pass built up step by step.

    The shifted increments dB_hat = dB + g d<B> must accumulate the same
    quadratic variation as B; the discrete mismatch is the Euler cross term,
    which scales with dt times the energy. After the clip node g is exactly
    zero, so no term there counts. Raises CouplingError when the finiteness
    guard excluded every export path of a control by that clip node.
    """
    _, head, included = run.head_at(clip_epsilon)
    discrepancy = energy = -math.inf
    for k, (cross, shift, keep) in enumerate(zip(head[3], head[4], included)):
        if not keep.any():
            raise CouplingError(
                f"shifted QV of control {k} at clip_epsilon "
                f"{clip_epsilon:g}: all {keep.size} paths were excluded by "
                "the finiteness guard")
        discrepancy = max(discrepancy, float(np.mean(np.abs(cross[keep]))))
        energy = max(energy, float(np.mean(shift[keep])))
    return discrepancy, energy


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


def _slack_report(kind: str, bound: float, samples: Sequence[ClipSample],
                  stat) -> SlackReport:
    """The report of the sup over controls of the mean of `stat` of each
    control's sample against `bound`, passed by `within_band` with the
    winner's standard error and no deterministic tolerance."""
    est, se, best_id = sup_over_controls(
        mean_and_se(stat(sample.require_included(f"control {k}")))
        for k, sample in enumerate(samples))
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
    bound = entropy_bound_value(schedule, coeffs.kappa1, x0, y0)
    return _slack_report("entropy", bound, samples,
                         lambda s: np.exp(s.log_m) * s.log_m)


def moment_bound_check(coeffs: ModelCoefficients, schedule: CouplingSchedule,
                       x0: float, y0: float,
                       samples: Sequence[ClipSample]) -> SlackReport:
    """sup over controls of mean(M^(1+a)) at the clip vs the printed bound;
    `samples` as for `entropy_bound_check`."""
    a = moment_exponent_a(schedule.alpha, coeffs.kappa1, coeffs.kappa2)
    bound = moment_bound_value(schedule, coeffs.kappa1, coeffs.kappa2, x0, y0)
    return _slack_report("moment", bound, samples,
                         lambda s: np.exp((1.0 + a) * s.log_m))


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
    kind: str = "coupling_trend"


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    v = values[order]
    cum = np.cumsum(weights[order])
    return float(v[np.searchsorted(cum, 0.5 * cum[-1])])


def _weighted_mean_and_se(sample: ClipSample) -> tuple[float, float]:
    """The M-weighted mean gap of `sample` and its standard error."""
    m = np.exp(sample.log_m)
    mg = m * sample.gap
    wsum = float(np.sum(m))
    se = float(np.std(mg, ddof=1) / math.sqrt(m.size) / (wsum / m.size)) \
        if m.size > 1 else 0.0
    return float(np.sum(mg) / wsum), se


def coupling_success_check(schedule: CouplingSchedule, x0: float, y0: float,
                           by_clip: Mapping) -> CouplingTrendReport:
    """Check the coupling-success proxy over a clip sweep.

    The entropy argument forces the M-weighted second moment of the gap at
    time s below |x-y|^2 lambda(s)/lambda(0), so the M-weighted mean gap must
    decrease strictly with the clip while it is positive (a gap that is
    exactly 0, as for x = y, stays 0) and stay under C sqrt(lambda) for
    C = |x-y|/sqrt(lambda(0)). `by_clip` maps each clip epsilon to its
    `CoupledRun.at_clip` samples, one per control in control order, each
    started at (x0, y0); the first control wins a tie.
    """
    if not by_clip:
        raise CouplingError("no samples supplied")

    theory_C = abs(float(x0) - float(y0)) / math.sqrt(schedule.lambda0)
    rows = []
    # sup over controls at each clip time
    for eps in sorted(by_clip, reverse=True):
        group = [s.require_included(f"control {k} (clip_epsilon {eps:g})")
                 for k, s in enumerate(by_clip[eps])]
        wmean, se, best_id = sup_over_controls(
            map(_weighted_mean_and_se, group))
        best = group[best_id]
        rows.append(TrendRow(
            clip_epsilon=eps, clip_time=best.clip_time,
            lambda_at_clip=best.lambda_at_clip, weighted_mean=wmean,
            weighted_median=_weighted_median(best.gap, np.exp(best.log_m)),
            std_error=se, bound=theory_C * math.sqrt(best.lambda_at_clip)))
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
