"""Output checks that the program does not make itself.

Every closed form is recomputed here with mpmath from the config values,
without importing `gharnack`; the other checks recompute slacks and pass
flags from the written files, test the comparison-principle ranges of the PDE
values and the row identities of `paths.csv`. Each check is one named
operation of the benchmark. `run_checks` never raises on a bad output: a
missing file, a parse error or a wrong number fails the check that met it.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from mpmath import mp, mpf

mp.dps = 40

REL = 1e-11           # closed form against float64 output
SWEEP = (0.2, 0.1, 0.05, 0.025)
EXPORT_PATHS = 128
YOUNG_TRIALS = 200

FILES = {
    "suite": ("report.json", "reports.csv", "estimates.csv", "grid_u.csv",
              "paths.csv"),
    "coupling": ("report.json", "paths.csv"),
    "harnack": ("report.json", "reports.csv"),
    "scenario": ("report.json", "estimates.csv"),
}
KINDS = {
    "suite": ["semigroup", "semigroup", "scenario_oracle", "young", "entropy",
              "moment", "coupling_trend", "shifted_qv", "log", "power",
              "lipschitz", "gradient"],
    "coupling": ["entropy", "moment", "coupling_trend", "shifted_qv"],
    "harnack": ["log", "power", "lipschitz"],
    "scenario": ["scenario_oracle", "young"],
}


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Params:
    """The config values the checks need, read with configparser."""

    K: float
    kappa1: float
    kappa2: float
    sigma_lower: float
    sigma_upper: float
    T: float
    n_steps: int
    x_min: float
    x_max: float
    n_space: int
    alpha: float
    clip_epsilon: float
    n_paths: int
    n_controls: int
    x: float
    y: float
    p: float
    alpha_grid: int
    c0: float

    @classmethod
    def from_config(cls, path) -> "Params":
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(Path(path).read_text(encoding="utf-8"))
        m, band, grid = cp["model"], cp["band"], cp["grid"]
        cpl, chk = cp["coupling"], cp["check"]
        if chk["payoff"].strip() != "shifted_bump":
            raise ValueError("checks assume the shifted_bump payoff")
        k1, k2 = float(m["kappa1"]), float(m["kappa2"])
        alpha = cpl["alpha"].strip()
        return cls(
            K=float(m["K"]), kappa1=k1, kappa2=k2,
            sigma_lower=float(band["sigma_lower"]),
            sigma_upper=float(band["sigma_upper"]),
            T=float(grid["horizon"]), n_steps=int(grid["n_steps"]),
            x_min=float(grid["x_min"]), x_max=float(grid["x_max"]),
            n_space=int(grid["n_space"]),
            alpha=k1 ** 2 / k2 ** 2 if alpha == "auto" else float(alpha),
            clip_epsilon=float(cpl["clip_epsilon"]),
            n_paths=int(cpl["n_paths"]), n_controls=int(cpl["n_controls"]),
            x=float(chk["x"]), y=float(chk["y"]), p=float(chk["p"]),
            alpha_grid=int(chk["alpha_grid"]),
            c0=float(chk["payoff_params"]),
        )


# ---------------------------------------------------------------------------
# closed forms (mpmath)

def c_K(P):
    K, sl = mpf(P.K), mpf(P.sigma_lower)
    return K * (2 + K + 2 / sl ** 2)


def alpha_cap(P):
    return 2 * mpf(P.kappa1) ** 2 / mpf(P.kappa2) ** 2


def decay(P):
    return 1 - mp.exp(-mpf(P.sigma_lower) ** 2 * c_K(P) * mpf(P.T))


def lam(P, alpha, t):
    """Schedule weight lambda(t) = (cap - alpha)/c_K (1 - e^{sl^2 c_K (t-T)})."""
    ck = c_K(P)
    return ((alpha_cap(P) - mpf(alpha)) / ck
            * (1 - mp.exp(mpf(P.sigma_lower) ** 2 * ck * (mpf(t) - mpf(P.T)))))


def lam0(P, alpha):
    return lam(P, alpha, 0)


def entropy_bound(P):
    gap2 = (mpf(P.x) - mpf(P.y)) ** 2
    return gap2 / (2 * mpf(P.alpha) * mpf(P.kappa1) ** 2 * lam0(P, P.alpha))


def moment_bound(P):
    a, k1 = mpf(P.alpha), mpf(P.kappa1)
    dk = mpf(P.kappa2) - k1
    gap2 = (mpf(P.x) - mpf(P.y)) ** 2
    return mp.exp(a * (a * k1 + 2 * dk) * gap2
                  / (4 * dk ** 2 * lam0(P, P.alpha) * (2 * a * k1 + 2 * dk)))


def log_harnack_constant(P):
    k1, k2 = mpf(P.kappa1), mpf(P.kappa2)
    return c_K(P) / (2 * (k1 ** 6 / k2 ** 4) * decay(P))


def log_harnack_constant_generic(P):
    a = mpf(P.kappa1) ** 2 / mpf(P.kappa2) ** 2
    return 1 / (2 * a * mpf(P.kappa1) ** 2 * lam0(P, a))


def power_threshold(P):
    k1, k2 = mpf(P.kappa1), mpf(P.kappa2)
    return (1 + (k2 ** 3 - k1 * k2 ** 2) / k1 ** 3) ** 2


def power_exponent(P):
    sp = mp.sqrt(mpf(P.p))
    dk = mpf(P.kappa2) - mpf(P.kappa1)
    return (sp * (sp - 1) * c_K(P)
            / (4 * dk * (mpf(P.kappa1) * (sp - 1) - dk) * decay(P)))


def lipschitz_rhs(P):
    a = mpf(P.kappa1) ** 2 / mpf(P.kappa2) ** 2
    k1, l0 = mpf(P.kappa1), lam0(P, a)
    gap = abs(mpf(P.x) - mpf(P.y))
    return sup_norm(P) * (2 * gap / (k1 * mp.sqrt(a * l0))
                          + gap ** 2 / (a * k1 ** 2 * l0))


def gradient_envelope(P):
    """min over the alpha grid of 2 ||f|| / (kappa1 sqrt(alpha lambda0))."""
    cap = alpha_cap(P)
    n = P.alpha_grid
    grid = [cap / 100 + (cap * 98 / 100) * k / max(n - 1, 1) for k in range(n)]
    vals = [2 * sup_norm(P) / (mpf(P.kappa1) * mp.sqrt(a * lam0(P, a)))
            for a in grid]
    best = min(range(n), key=lambda k: vals[k])
    return vals[best], grid[best]


def sup_norm(P):
    return mpf(P.c0) + 1


def constant_vol_lower_bound(P, points=11):
    """max over sigma in the band of E f(sigma B_T) = c0 + 1/sqrt(1+2 sigma^2 T)."""
    lo, hi = mpf(P.sigma_lower), mpf(P.sigma_upper)
    sigmas = [lo + (hi - lo) * k / (points - 1) for k in range(points)]
    return max(mpf(P.c0) + 1 / mp.sqrt(1 + 2 * s ** 2 * mpf(P.T))
               for s in sigmas)


def clip_time(P, eps):
    """Last time-grid node at or before T - eps."""
    n = P.n_steps
    k = int(mp.floor((mpf(P.T) - mpf(eps)) / mpf(P.T) * n + mpf(10) ** -12))
    return P.T * k / n


# ---------------------------------------------------------------------------
# helpers

def close(value, exact, what, rel=REL):
    value = float(value)
    if not math.isfinite(value) or abs(value - exact) > rel * abs(exact):
        raise CheckFailed(f"{what}: output {value!r}, recomputed "
                          f"{mp.nstr(exact, 17)}")


def equal(value, expected, what):
    if value != expected:
        raise CheckFailed(f"{what}: output {value!r}, expected {expected!r}")


def within(value, lo, hi, what, tol=0.0):
    value = float(value)
    if not (lo - tol <= value <= hi + tol):
        raise CheckFailed(f"{what}: {value!r} outside [{lo!r}, {hi!r}]")


def range_tol(lo, hi):
    """Rounding allowance of the comparison principle, as in the solver."""
    return 1e-8 * (1.0 + abs(lo) + abs(hi))


class Outputs:
    """The files of one CLI run, read and parsed on first use."""

    def __init__(self, out_dir):
        self.dir = Path(out_dir)
        self._cache = {}

    def text(self, name):
        if name not in self._cache:
            self._cache[name] = (self.dir / name).read_text(encoding="utf-8")
        return self._cache[name]

    def report(self):
        data = json.loads(self.text("report.json"))
        if not isinstance(data, list):
            raise CheckFailed("report.json is not an array")
        return data

    def kind(self, kind):
        hits = [e for e in self.report() if e.get("kind") == kind]
        if not hits:
            raise CheckFailed(f"report.json has no {kind!r} entry")
        return hits

    def rows(self, name, header):
        lines = list(csv.reader(io.StringIO(self.text(name))))
        equal(",".join(lines[0]), header, f"{name} header")
        return lines[1:]


# ---------------------------------------------------------------------------
# the checks; each raises CheckFailed or a parse error on a bad output

def check_files(out, P, sub):
    missing = [f for f in FILES[sub] if not (out.dir / f).is_file()]
    if missing:
        raise CheckFailed(f"missing output files {missing}")


def check_kinds(out, P, sub):
    kinds = [e.get("kind") for e in out.report()]
    equal(kinds, KINDS[sub], "report kinds")
    failed = [e["kind"] for e in out.report() if e.get("passed") is False]
    if failed:
        raise CheckFailed(f"entries not passed: {failed}")


def check_semigroup(out, P, sub):
    entries = out.kind("semigroup")
    equal([e["x"] for e in entries], [P.x, P.y], "semigroup points")
    lo, hi = P.c0, P.c0 + 1.0
    for e in entries:
        within(e["value"], lo, hi, "semigroup value", range_tol(lo, hi))
        if not e["tolerance"] > 0.0:
            raise CheckFailed("semigroup tolerance not positive")


def check_grid_u(out, P, sub):
    rows = out.rows("grid_u.csv", "x,u")
    equal(len(rows), P.n_space + 1, "grid_u rows")
    xs = [float(r[0]) for r in rows]
    us = [float(r[1]) for r in rows]
    dx = (P.x_max - P.x_min) / P.n_space
    for i, xv in enumerate(xs):
        within(xv, P.x_min + i * dx, P.x_min + i * dx, f"grid node {i}",
               1e-12 * (1.0 + abs(P.x_min) + abs(P.x_max)))
    lo, hi = P.c0, P.c0 + 1.0
    within(min(us), lo, hi, "grid_u minimum", range_tol(lo, hi))
    within(max(us), lo, hi, "grid_u maximum", range_tol(lo, hi))
    # report.json's semigroup values are the linear interpolant of grid_u
    for e in out.kind("semigroup"):
        i = min(max(int((e["x"] - P.x_min) // dx), 0), P.n_space - 1)
        w = (e["x"] - xs[i]) / (xs[i + 1] - xs[i])
        interp = us[i] * (1.0 - w) + us[i + 1] * w
        within(e["value"], interp, interp, "semigroup value vs grid_u",
               1e-12 * abs(interp))


def check_scenario_bound(out, P, sub):
    e = out.kind("scenario_oracle")[0]
    lb = constant_vol_lower_bound(P)
    if not e["pde_value"] >= lb - e["pde_tolerance"]:
        raise CheckFailed(f"PDE value {e['pde_value']!r} below the constant-"
                          f"volatility bound {mp.nstr(lb, 17)}")
    if not e["mc_value"] >= lb - 3.0 * e["std_error"]:
        raise CheckFailed(f"MC value {e['mc_value']!r} below the constant-"
                          f"volatility bound {mp.nstr(lb, 17)} - 3 SE")
    lo, hi = P.c0, P.c0 + 1.0
    within(e["pde_value"], lo, hi, "scenario PDE value", range_tol(lo, hi))


def check_scenario_verdict(out, P, sub):
    e = out.kind("scenario_oracle")[0]
    band = 3.0 * e["std_error"] + e["pde_tolerance"]
    equal(e["passed"], e["mc_value"] <= e["pde_value"] + band,
          "scenario_oracle passed")
    rows = out.rows("estimates.csv",
                    "quantity,value,std_error,n_paths,n_controls,best_control_id")
    equal(len(rows), 1, "estimates rows")
    q, value, se, n_paths, n_controls, best = rows[0]
    equal(q, "upper_expectation", "estimate quantity")
    equal(float(value), e["mc_value"], "estimate value")
    equal(float(se), e["std_error"], "estimate std_error")
    equal(int(n_paths), P.n_paths, "estimate n_paths")
    equal(int(n_controls), P.n_controls, "estimate n_controls")
    if not 0 <= int(best) < P.n_controls:
        raise CheckFailed(f"best_control_id {best} out of range")


def check_young(out, P, sub):
    e = out.kind("young")[0]
    equal(e["trials"], YOUNG_TRIALS, "young trials")
    if not e["worst_slack"] >= -1e-12:
        raise CheckFailed(f"young worst slack {e['worst_slack']!r}")
    equal(e["passed"], e["worst_slack"] >= -1e-12, "young passed")


def _slack_entry(e, P, kind):
    equal(e["slack"], e["bound"] - e["estimate"], f"{kind} slack")
    equal(e["n_paths"], P.n_paths, f"{kind} n_paths")
    equal(e["n_controls"], P.n_controls, f"{kind} n_controls")
    if not (isinstance(e["stiff_excluded"], int) and e["stiff_excluded"] >= 0):
        raise CheckFailed(f"{kind} stiff_excluded {e['stiff_excluded']!r}")


def check_entropy(out, P, sub):
    e = out.kind("entropy")[0]
    close(e["bound"], entropy_bound(P), "entropy bound")
    _slack_entry(e, P, "entropy")
    equal(e["passed"], e["slack"] >= -3.0 * e["std_error"], "entropy passed")


def check_moment(out, P, sub):
    e = out.kind("moment")[0]
    close(e["bound"], moment_bound(P), "moment bound")
    _slack_entry(e, P, "moment")
    est, se = e["estimate"], e["std_error"]
    rel_se = se / est if est > 0.0 else 0.0
    equal(e["passed"], est <= e["bound"] * (1.0 + 3.0 * rel_se),
          "moment passed")


def check_trend_constants(out, P, sub):
    e = out.kind("coupling_trend")[0]
    C = abs(mpf(P.x) - mpf(P.y)) / mp.sqrt(lam0(P, P.alpha))
    close(e["theory_C"], C, "theory_C")
    rows = e["rows"]
    equal([r["clip_epsilon"] for r in rows], [f * P.T for f in SWEEP],
          "trend clip epsilons")
    for r in rows:
        equal(r["clip_time"], clip_time(P, r["clip_epsilon"]), "trend clip time")
        lam_t = lam(P, P.alpha, r["clip_time"])
        close(r["lambda_at_clip"], lam_t, "lambda at clip", 1e-10)
        close(r["bound"], C * mp.sqrt(lam_t), "trend row bound", 1e-10)


def check_trend_shape(out, P, sub):
    e = out.kind("coupling_trend")[0]
    rows = e["rows"]
    means = [r["weighted_mean"] for r in rows]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    if not decreasing:
        raise CheckFailed(f"trend means not strictly decreasing: {means}")
    for r in rows:
        if not r["weighted_mean"] <= r["bound"] + 3.0 * r["std_error"]:
            raise CheckFailed(f"trend row at eps={r['clip_epsilon']} above "
                              "C sqrt(lambda) + 3 SE")
    equal(e["strictly_decreasing"], decreasing, "strictly_decreasing flag")
    equal(e["bounded"], True, "bounded flag")
    equal(e["passed"], True, "trend passed")
    fitted = max(r["weighted_mean"] / math.sqrt(r["lambda_at_clip"]) for r in rows)
    within(e["fitted_C"], fitted, fitted, "fitted_C", 1e-12 * fitted)


def check_shifted_qv(out, P, sub):
    e = out.kind("shifted_qv")[0]
    close(e["tolerance"], 10 * mpf(P.T) / P.n_steps * mpf(P.T),
          "shifted_qv tolerance")
    within(e["discrepancy"], 0.0, e["tolerance"], "shifted_qv discrepancy")
    equal(e["passed"], e["discrepancy"] <= e["tolerance"], "shifted_qv passed")


def check_paths(out, P, sub):
    rows = out.rows("paths.csv", "control_id,path_id,clip_time,x,y,abs_gap,m,log_m")
    per = min(P.n_paths, EXPORT_PATHS)
    equal(len(rows), P.n_controls * per, "paths rows")
    t_clip = clip_time(P, P.clip_epsilon)
    for i, r in enumerate(rows):
        cid, pid = int(r[0]), int(r[1])
        t, xv, yv, gap, m, log_m = (float(v) for v in r[2:])
        if (cid, pid) != divmod(i, per):
            raise CheckFailed(f"paths row {i} has ids ({cid}, {pid})")
        equal(t, t_clip, f"paths row {i} clip_time")
        equal(gap, abs(xv - yv), f"paths row {i} abs_gap")
        within(m, math.exp(log_m), math.exp(log_m), f"paths row {i} m",
               4e-16 * math.exp(log_m))


def check_log(out, P, sub):
    e = out.kind("log")[0]
    coef = log_harnack_constant(P)
    close(e["extras"]["constant_printed"], coef, "log-Harnack constant")
    close(e["extras"]["constant_generic_alpha"], log_harnack_constant_generic(P),
          "log-Harnack constant at alpha*")
    lo, hi = math.log(P.c0), math.log(P.c0 + 1.0)
    within(e["lhs"], lo, hi, "P_T log f(y)", range_tol(lo, hi))
    pf_x = float(mp.exp(mpf(e["rhs"]) - coef * (mpf(P.x) - mpf(P.y)) ** 2))
    within(pf_x, P.c0, P.c0 + 1.0, "P_T f(x) from rhs",
           range_tol(P.c0, P.c0 + 1.0))


def check_power(out, P, sub):
    e = out.kind("power")[0]
    threshold = power_threshold(P)
    close(e["extras"]["threshold"], threshold, "power threshold")
    if not P.p > threshold:
        raise CheckFailed(f"p = {P.p} not above the threshold")
    exponent = power_exponent(P)
    close(e["extras"]["exponent_printed"], exponent, "power exponent")
    close(e["a"], 1 / (mpf(P.p) - 1), "power a")
    close(e["q"], 1 + mp.sqrt(mpf(P.p)), "power q")
    close(e["C"], mpf(P.kappa2) - mpf(P.kappa1), "power C", 1e-9)
    lo, hi = P.c0 ** P.p, (P.c0 + 1.0) ** P.p
    within(e["lhs"], lo, hi, "(P_T f(y))^p", range_tol(lo, hi))
    pfp_x = float(mpf(e["rhs"]) / mp.exp(exponent * (mpf(P.x) - mpf(P.y)) ** 2))
    within(pfp_x, lo, hi, "P_T f^p(x) from rhs", range_tol(lo, hi))


def check_lipschitz(out, P, sub):
    e = out.kind("lipschitz")[0]
    close(e["rhs"], lipschitz_rhs(P), "Lipschitz right-hand side")
    within(e["lhs"], 0.0, 1.0, "|P_T f(y) - P_T f(x)|", range_tol(P.c0, P.c0 + 1))


def check_gradient(out, P, sub):
    e = out.kind("gradient")[0]
    rhs, alpha = gradient_envelope(P)
    close(e["rhs"], rhs, "gradient envelope")
    close(e["alpha"], alpha, "gradient alpha", 1e-12)
    equal(e["extras"]["n_alpha"], P.alpha_grid, "gradient n_alpha")
    if not e["lhs"] >= 0.0:
        raise CheckFailed(f"gradient lhs {e['lhs']!r} negative")


def check_reports_csv(out, P, sub):
    rows = out.rows("reports.csv", "kind,x,y,T,p,lhs,rhs,slack,tolerance,pass")
    kinds = [k for k in KINDS[sub] if k in ("log", "power", "lipschitz", "gradient")]
    equal([r[0] for r in rows], kinds, "reports.csv kinds")
    for r in rows:
        kind = r[0]
        x, y, T, p, lhs, rhs, slack, tol = (float(v) if v else None
                                            for v in r[1:9])
        equal(slack, rhs - lhs, f"{kind} slack")
        verdict = (lhs <= rhs + tol) if kind == "gradient" else slack >= -tol
        equal(r[9], "1" if verdict else "0", f"{kind} pass flag")
        equal(r[9], "1", f"{kind} pass")
        e = out.kind(kind)[0]
        equal([x, y, T, p, lhs, rhs, tol],
              [e["x"], e["y"], e["T"], e["p"], e["lhs"], e["rhs"], e["tolerance"]],
              f"{kind} row vs report.json")
        equal(e["slack"], slack, f"{kind} report.json slack")
        equal(e["passed"], verdict, f"{kind} report.json passed")


CHECKS = {
    "suite": [check_files, check_kinds, check_semigroup, check_grid_u,
              check_scenario_bound, check_scenario_verdict, check_young,
              check_entropy, check_moment, check_trend_constants,
              check_trend_shape, check_shifted_qv, check_paths, check_log,
              check_power, check_lipschitz, check_gradient, check_reports_csv],
    "coupling": [check_files, check_kinds, check_entropy, check_moment,
                 check_trend_constants, check_trend_shape, check_shifted_qv,
                 check_paths],
    "harnack": [check_files, check_kinds, check_log, check_power,
                check_lipschitz, check_reports_csv],
    "scenario": [check_files, check_kinds, check_scenario_bound,
                 check_scenario_verdict, check_young],
}


def run_checks(sub, out_dir, P):
    """[(check name, error message or None)] for one CLI run's outputs."""
    out = Outputs(out_dir)
    results = []
    for check in CHECKS[sub]:
        name = check.__name__.removeprefix("check_")
        try:
            check(out, P, sub)
            results.append((name, None))
        except CheckFailed as exc:
            results.append((name, str(exc)))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results
