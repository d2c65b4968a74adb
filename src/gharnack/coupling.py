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
clip, so a bundle simulated at a smaller epsilon holds the same (x, y, log M)
there, bit for bit. The stiff-step bridge noise is drawn in step order, so it
too has drawn the same values up to that node. A clip sweep therefore needs
one bundle per control, simulated at the smallest epsilon of the sweep; after
the node of a larger epsilon, its g counts as zero.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import ModelCoefficients, TimeGrid, VolatilityBand
from .scenario import Control, euler_step, sup_over_controls

_STIFF_G_DT = 1e3
_MAX_HALVINGS = 10


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
    limit_form: bool = False

    def value(self, t):
        return self.lam(np.asarray(t, dtype=float))

    def derivative(self, t):
        return self.lam_prime(np.asarray(t, dtype=float))

    def identity_residual(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return (self.alpha_cap - self.c_K * self.lam(ts)
                + self.lam_prime(ts) / self.sigma_lower ** 2 - self.alpha)


def make_schedule(alpha: float, coeffs: ModelCoefficients, band: VolatilityBand,
                  T: float, limit_schedule: bool = False) -> CouplingSchedule:
    """Build the coupling weight schedule for an admissible alpha.

    K = 0 degenerates the closed form (0/0); pass limit_schedule=True to get
    the analytic limit lambda(t) = (alpha_cap - alpha) * sigma_lower^2 * (T-t).
    """
    if T <= 0.0:
        raise CouplingError(f"horizon must be positive, got {T}")
    cap = 2.0 * coeffs.kappa1 ** 2 / coeffs.kappa2 ** 2
    if not 0.0 < alpha < cap:
        raise CouplingError(
            f"alpha must lie in the open interval (0, {cap:g}), got {alpha}"
        )
    sl = band.sigma_lower
    if limit_schedule:
        if coeffs.K != 0.0:
            raise CouplingError("limit_schedule is the K = 0 limit; declared K is "
                                f"{coeffs.K:g}")
        scale = (cap - alpha) * sl ** 2

        def lam(t):
            return scale * (T - np.asarray(t, dtype=float))

        def lam_prime(t):
            return np.full_like(np.asarray(t, dtype=float), -scale)

        schedule = CouplingSchedule(alpha=alpha, c_K=0.0, lambda0=scale * T, T=T,
                                    alpha_cap=cap, sigma_lower=sl,
                                    lam=lam, lam_prime=lam_prime, limit_form=True)
    else:
        if coeffs.K == 0.0:
            raise CouplingError(
                "K = 0 collapses the schedule to a 0/0 form; use "
                "limit_schedule=True for the analytic limit "
                "lambda(t) = (alpha_cap - alpha) * sigma_lower^2 * (T - t)"
            )
        c_K = coeffs.K * (2.0 + coeffs.K + 2.0 / sl ** 2)
        amp = (cap - alpha) / c_K

        def lam(t):
            return amp * (1.0 - np.exp(sl ** 2 * c_K * (np.asarray(t, dtype=float) - T)))

        def lam_prime(t):
            return -amp * sl ** 2 * c_K * np.exp(sl ** 2 * c_K * (np.asarray(t, dtype=float) - T))

        schedule = CouplingSchedule(alpha=alpha, c_K=c_K,
                                    lambda0=amp * (1.0 - math.exp(-sl ** 2 * c_K * T)),
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


def bundle_nbytes(n_paths: int, n_steps: int) -> int:
    """Bytes of the per-path arrays of one bundle (w, levels, x, y, g and
    log m), each at most n_steps + 1 doubles a path."""
    return 6 * n_paths * (n_steps + 1) * 8


@dataclass(frozen=True)
class ClipSample:
    """One bundle at the clip node of `epsilon`: (m, |x - y|, log m) of the
    paths still included there, the number the stiff-step guard had excluded
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
                "stiff-step guard")
        return self


@dataclass(frozen=True)
class PathBundle:
    """Coupled sample paths under one scenario control (rows = paths).

    `w` is path-major: row p is path p's own stream. `levels` and the four
    path arrays are transposed views of the kernel's time-major buffers, so
    a column (one time node) is contiguous and a row (one path) is strided."""

    grid: TimeGrid
    control: Control
    schedule: CouplingSchedule
    x0: float
    y0: float
    clip_epsilon: float
    clip_index: int
    w: np.ndarray          # (n_paths, n_steps) sqrt(dt)-scaled normals
    levels: np.ndarray     # (n_paths, n_steps), time-major view
    x_path: np.ndarray     # (n_paths, n_steps + 1), time-major view
    y_path: np.ndarray     # as x_path
    g_path: np.ndarray     # as x_path
    log_m_path: np.ndarray  # as x_path
    # Step during which the overflow guard excluded each path, n_steps if
    # never: a path excluded during step j is still included at node j.
    stiff_step: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.x_path.shape[0]

    @property
    def m_path(self) -> np.ndarray:
        return np.exp(self.log_m_path)

    @property
    def n_stiff(self) -> int:
        return int(np.count_nonzero(self.stiff_step < self.grid.n_steps))

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

    def at_clip(self, epsilon: float | None = None) -> ClipSample:
        """The included paths at the clip node of `epsilon` (default: the
        bundle's own clip)."""
        j = self.node(epsilon)
        keep = self.included(epsilon)
        logm = self.log_m_path[keep, j]
        gap = np.abs(self.x_path[keep, j] - self.y_path[keep, j])
        t = float(self.grid.nodes[j])
        return ClipSample(
            epsilon=self.clip_epsilon if epsilon is None else float(epsilon),
            clip_time=t, lambda_at_clip=float(self.schedule.value(t)),
            m=np.exp(logm), gap=gap, log_m=logm,
            n_excluded=keep.size - int(np.count_nonzero(keep)))

    def head(self, n_paths: int) -> "PathBundle":
        """A copy of the first `n_paths` rows, holding no reference to this
        bundle's arrays; each copy keeps its source's memory layout, so the
        path arrays stay time-major. A bundle simulated on those rows of `w`
        alone has the same paths, unless a later row drew stiff-step bridge
        noise before one of them did."""
        rows = {name: np.array(getattr(self, name)[:n_paths])
                for name in ("w", "levels", "x_path", "y_path", "g_path",
                             "log_m_path", "stiff_step")}
        for arr in rows.values():
            arr.setflags(write=False)
        return dataclasses.replace(self, **rows)


def _bridge_split(total: np.ndarray, n_sub: int, dt_sub: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Subdivide Brownian increments conditionally on their sum."""
    raw = rng.standard_normal((total.size, n_sub)) * math.sqrt(dt_sub)
    return raw - raw.mean(axis=1, keepdims=True) + total[:, None] / n_sub


def simulate_coupled(coeffs: ModelCoefficients, schedule: CouplingSchedule,
                     x0: float, y0: float, control: Control, seed: int,
                     clip_epsilon: float, w: np.ndarray) -> PathBundle:
    """Euler-Maruyama for the coupled pair under one scenario control, driven
    by the sqrt(dt)-scaled increments `w` (one row per path).

    X follows the base dynamics; Y carries the attracting drift
    sigma(Y) g d<B> with g = (X - Y)/(lambda sigma(X)); the density is
    advanced in log space, log M += -g dB - g^2 d<B> / 2. Steps with
    |g| dt beyond the overflow threshold are retried with locally halved
    substeps (Brownian-bridge noise); a still-stiff path is excluded, and
    the step recorded in `stiff_step`. `seed` keys the bridge noise of the
    retried steps.
    """
    grid = control.grid
    T = grid.horizon
    clip_index = _clip_index(grid, clip_epsilon)
    if abs(T - schedule.T) > 1e-12 * max(1.0, T):
        raise CouplingError("control grid horizon differs from schedule horizon")
    n_paths, n_steps = w.shape
    if n_steps != grid.n_steps:
        raise CouplingError(
            f"w has {n_steps} columns, the grid has {grid.n_steps} steps")
    dt = grid.dt

    w = w.view()  # made read-only below; the caller's array stays writable
    # Time-major buffers: step j reads row j and writes row j + 1.
    levels = np.empty((n_steps, n_paths))
    x_path = np.empty((n_steps + 1, n_paths))
    y_path = np.empty((n_steps + 1, n_paths))
    g_path = np.zeros((n_steps + 1, n_paths))
    logm_path = np.zeros((n_steps + 1, n_paths))
    x_path[0] = x0
    y_path[0] = y0
    x, y, logm = x_path[0], y_path[0], logm_path[0]
    stiff_step = np.full(n_paths, n_steps)
    bridge_rng = None

    lam_nodes = schedule.value(grid.nodes)

    def one_step(xs, ys, lms, t, lam_t, lv, dW, dt_loc, with_g):
        dB = lv * dW
        dqv = lv * lv * dt_loc
        sx = coeffs.sigma(t, xs)
        sy = coeffs.sigma(t, ys)
        if with_g:
            g = (xs - ys) / (lam_t * sx)
        else:
            g = np.zeros_like(xs)
        xn = euler_step(coeffs, t, xs, sx, dt_loc, dqv, dB)
        yn = euler_step(coeffs, t, ys, sy, dt_loc, dqv, dB) + sy * g * dqv
        lmn = lms - g * dB - 0.5 * g * g * dqv
        return xn, yn, lmn, g

    for j in range(n_steps):
        t = float(grid.nodes[j])
        with_g = j < clip_index
        lam_t = float(lam_nodes[j]) if with_g else math.inf
        lv = np.asarray(control.level(j, t, x), dtype=float)
        levels[j] = lv

        xn, yn, lmn, g = one_step(x, y, logm, t, lam_t, lv, w[:, j], dt, with_g)
        g_path[j] = g

        trouble = np.abs(g) * dt > _STIFF_G_DT
        if trouble.any():
            if bridge_rng is None:
                bridge_rng = np.random.default_rng(
                    np.random.Philox(key=np.array([seed, 1 << 32], dtype=np.uint64)))
            idx = np.nonzero(trouble & (stiff_step == n_steps))[0]
            for p in idx:
                ok = False
                for halving in range(1, _MAX_HALVINGS + 1):
                    n_sub = 2 ** halving
                    dt_sub = dt / n_sub
                    sub_w = _bridge_split(w[p:p + 1, j], n_sub, dt_sub, bridge_rng)[0]
                    xs = x[p:p + 1].copy()
                    ys = y[p:p + 1].copy()
                    lms = logm[p:p + 1].copy()
                    fine = True
                    for s in range(n_sub):
                        ts = t + s * dt_sub
                        lam_s = float(schedule.value(ts)) if with_g else math.inf
                        lv_s = lv[p:p + 1]
                        xs2, ys2, lms2, g_s = one_step(
                            xs, ys, lms, ts, lam_s, lv_s, sub_w[s:s + 1],
                            dt_sub, with_g)
                        if abs(float(g_s[0])) * dt_sub > _STIFF_G_DT:
                            fine = False
                            break
                        xs, ys, lms = xs2, ys2, lms2
                    if fine:
                        xn[p] = xs[0]
                        yn[p] = ys[0]
                        lmn[p] = lms[0]
                        ok = True
                        break
                if not ok:
                    stiff_step[p] = j
                    xn[p], yn[p], lmn[p] = x[p], y[p], logm[p]  # frozen

        x, y, logm = xn, yn, lmn
        x_path[j + 1] = x
        y_path[j + 1] = y
        logm_path[j + 1] = logm

    for arr in (w, levels, x_path, y_path, g_path, logm_path, stiff_step):
        arr.setflags(write=False)
    return PathBundle(grid=grid, control=control, schedule=schedule, x0=float(x0),
                      y0=float(y0), clip_epsilon=float(clip_epsilon),
                      clip_index=clip_index, w=w, levels=levels.T,
                      x_path=x_path.T, y_path=y_path.T, g_path=g_path.T,
                      log_m_path=logm_path.T, stiff_step=stiff_step)


def shifted_qv_discrepancy(bundle: PathBundle,
                           clip_epsilon: float | None = None) -> float:
    """Mean over paths of |QV(B_hat) - QV(B)| up to the horizon, with g
    clipped at `clip_epsilon` (default: the bundle's own clip).

    The shifted increments dB_hat = dB + g d<B> must accumulate the same
    quadratic variation as B; the discrete mismatch is the Euler cross term
    and shrinks linearly with the step size. After the clip node g is
    exactly zero, so every term there is exactly zero. Raises CouplingError
    when the stiff-step guard excluded every path by that clip node.
    """
    j = bundle.node(clip_epsilon)
    keep = bundle.included(clip_epsilon)
    if not keep.any():
        eps = bundle.clip_epsilon if clip_epsilon is None else clip_epsilon
        raise CouplingError(
            f"shifted QV at clip_epsilon {eps:g}: all {keep.size} paths were "
            "excluded by the stiff-step guard")
    dt = bundle.grid.dt
    dB = bundle.levels * bundle.w
    dqv = bundle.levels ** 2 * dt
    g = bundle.g_path[:, :-1].copy()
    g[:, j:] = 0.0
    dBh = dB + g * dqv
    # levels is a transposed view, and numpy takes the layout of an
    # elementwise result from its operands; a C-ordered operand sums each
    # path in the pairwise order of a contiguous row, whatever that layout.
    disc = np.abs(np.sum(np.ascontiguousarray(dBh ** 2 - dB ** 2), axis=1))
    return float(np.mean(disc[keep]))


def girsanov_shifted_qv_check(bundle: PathBundle,
                              clip_epsilon: float | None = None,
                              rate: float = 10.0) -> bool:
    """Pass iff the shifted-QV mismatch, g clipped at `clip_epsilon`, stays
    below rate * dt per unit time."""
    return (shifted_qv_discrepancy(bundle, clip_epsilon)
            <= rate * bundle.grid.dt * bundle.grid.horizon)


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


def entropy_bound_check(coeffs: ModelCoefficients, schedule: CouplingSchedule,
                        x0: float, y0: float,
                        samples: Sequence[ClipSample]) -> SlackReport:
    """sup over controls of mean(M log M) at the clip vs the entropy bound.

    `samples` holds the at-clip sample of one bundle per control, all
    started at (x0, y0) on the same increments.
    """
    est, se, best_id = _sup_stat(samples, lambda s: s.m * s.log_m)
    bound = entropy_bound_value(schedule, coeffs.kappa1, x0, y0)
    slack = bound - est
    return SlackReport(kind="entropy", bound=bound, estimate=est, std_error=se,
                       slack=slack, passed=slack >= -3.0 * se,
                       best_control_id=best_id, n_paths=samples[0].n_paths,
                       n_controls=len(samples),
                       stiff_excluded=sum(s.n_excluded for s in samples))


def moment_bound_check(coeffs: ModelCoefficients, schedule: CouplingSchedule,
                       x0: float, y0: float,
                       samples: Sequence[ClipSample]) -> SlackReport:
    """sup over controls of mean(M^(1+a)) at the clip vs the printed bound;
    `samples` as for `entropy_bound_check`."""
    a = moment_exponent_a(schedule.alpha, coeffs.kappa1, coeffs.kappa2)
    est, se, best_id = _sup_stat(samples, lambda s: np.exp((1.0 + a) * s.log_m))
    bound = moment_bound_value(schedule, coeffs.kappa1, coeffs.kappa2, x0, y0)
    rel_se = se / est if est > 0.0 else 0.0
    passed = est <= bound * (1.0 + 3.0 * rel_se)
    return SlackReport(kind="moment", bound=bound, estimate=est, std_error=se,
                       slack=bound - est, passed=passed, best_control_id=best_id,
                       n_paths=samples[0].n_paths, n_controls=len(samples),
                       stiff_excluded=sum(s.n_excluded for s in samples))


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
    decrease with the clip and stay under C sqrt(lambda) for
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
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    bounded = all(r.weighted_mean <= r.bound + 3.0 * r.std_error for r in rows)
    fitted = max((r.weighted_mean / math.sqrt(r.lambda_at_clip) for r in rows
                  if r.lambda_at_clip > 0.0), default=0.0)
    return CouplingTrendReport(rows=tuple(rows), fitted_C=fitted,
                               theory_C=theory_C,
                               strictly_decreasing=decreasing, bounded=bounded,
                               passed=decreasing and bounded)


def export_bundle_csv(bundles: Sequence[PathBundle], path,
                      clip_epsilon: float | None = None) -> None:
    """Per-path summaries at the clip node of `clip_epsilon` (default: each
    bundle's own clip)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("control_id,path_id,clip_time,x,y,abs_gap,m,log_m\n")
        for cid, bundle in enumerate(bundles):
            j = bundle.node(clip_epsilon)
            t = float(bundle.grid.nodes[j])
            for p in range(bundle.n_paths):
                xv = float(bundle.x_path[p, j])
                yv = float(bundle.y_path[p, j])
                lm = float(bundle.log_m_path[p, j])
                fh.write(f"{cid},{p},{t!r},{xv!r},{yv!r},"
                         f"{abs(xv - yv)!r},{math.exp(lm)!r},{lm!r}\n")
