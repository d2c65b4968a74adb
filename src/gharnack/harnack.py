"""Certificates for the three quantitative conclusions: the log-Harnack
inequality, the power-Harnack inequality, and the sup-norm gradient bound.

Both sides of every inequality come from the finite-difference solver (Monte
Carlo noise would drown small slack, and a finite control family biases the
Monte Carlo sup low), read from semigroups the caller solved once per grid
for all certificates. Every report carries a tolerance from a two-grid
Richardson difference and never a bare point estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .gheat import Semigroups
from .model import (HarnackError, ModelCoefficients, Payoff, VolatilityBand,
                    alpha_cap, initial_weight, rate_constants, within_band)
from .plan import power_threshold


@dataclass(frozen=True)
class HarnackReport:
    """One inequality certificate: slack = rhs - lhs, pass iff lhs lies at
    most `tolerance` above rhs (`within_band` with std_error 0)."""

    kind: str
    x: float | None
    y: float | None
    T: float
    p: float | None
    a: float | None
    q: float | None
    C: float | None
    lhs: float
    rhs: float
    slack: float
    method: str
    tolerance: float
    passed: bool
    alpha: float | None = None
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closed-form constants

def log_harnack_constant(K: float, sigma_lower: float, kappa1: float,
                         kappa2: float, T: float) -> float:
    """Coefficient of |x - y|^2 in the log-Harnack bound."""
    if K <= 0.0:
        raise HarnackError("log-Harnack constant needs a declared K > 0")
    c_K, decay = rate_constants(K, sigma_lower, T)
    return c_K / (2.0 * (kappa1 ** 6 / kappa2 ** 4) * decay)


def log_harnack_constant_generic(coeffs: ModelCoefficients, band: VolatilityBand,
                                 T: float, alpha: float) -> float:
    """Same coefficient for a free admissible alpha: 1/(2 alpha kappa1^2 lam0)."""
    lambda0 = initial_weight(alpha, coeffs, band, T)
    return 1.0 / (2.0 * alpha * coeffs.kappa1 ** 2 * lambda0)


def power_harnack_exponent(p: float, K: float, sigma_lower: float,
                           kappa1: float, kappa2: float, T: float) -> float:
    """|x - y|^2 coefficient in the power-Harnack exponential, C = kappa2 - kappa1."""
    c_K, decay = rate_constants(K, sigma_lower, T)
    sp = math.sqrt(p)
    dk = kappa2 - kappa1
    return sp * (sp - 1.0) * c_K / (4.0 * dk * (kappa1 * (sp - 1.0) - dk) * decay)


def power_harnack_factor(p: float, coeffs: ModelCoefficients,
                         band: VolatilityBand, T: float, x: float,
                         y: float) -> float:
    """exp(c_p |x - y|^2), the factor on P_T f^p(x) in the power-Harnack
    bound; raises OverflowError when it leaves the double range."""
    exponent = power_harnack_exponent(p, coeffs.K, band.sigma_lower,
                                      coeffs.kappa1, coeffs.kappa2, T)
    return math.exp(exponent * (x - y) ** 2)


def power_harnack_exponent_moment_route(p: float, coeffs: ModelCoefficients,
                                        band: VolatilityBand, T: float) -> float:
    """Alternative coefficient rebuilt from the density moment bound at the
    alpha tying that bound to p. Disagrees with power_harnack_exponent by a
    parameter-dependent factor; reports carry both so the gap stays visible.
    """
    dk = coeffs.kappa2 - coeffs.kappa1
    sp = math.sqrt(p)
    alpha_p = 2.0 * dk / (coeffs.kappa1 * (sp - 1.0))
    lambda0 = initial_weight(alpha_p, coeffs, band, T)
    k1 = coeffs.kappa1
    return (p - 1.0) * alpha_p * (alpha_p * k1 + 2.0 * dk) / (
        4.0 * dk ** 2 * lambda0 * (2.0 * alpha_p * k1 + 2.0 * dk))


def gradient_bound(sup_norm: float, kappa1: float, alpha: float,
                   lambda0: float) -> float:
    """2 ||f|| / (kappa1 sqrt(alpha lambda0))."""
    return sup_norm * 2.0 / (kappa1 * math.sqrt(alpha * lambda0))


# ---------------------------------------------------------------------------
# certificates
#
# Every certificate reads P_T from a Semigroups object the caller solved once
# for every payoff it needs; rows are looked up by the Payoff objects the
# caller solved (f, and log f or f^p as built by `Payoff.log` and
# `Payoff.power`).

def _require_floor(payoff: Payoff) -> None:
    if not payoff.strictly_positive:
        raise HarnackError(
            f"payoff {payoff.name!r} has no positive lower bound; "
            "log f is unbounded below"
        )


def _check_power_admissible(coeffs: ModelCoefficients, payoff: Payoff,
                            p: float) -> float:
    """Threshold of the power-Harnack inequality, after checking that p and
    the payoff are admissible; `power_threshold` refuses kappa2 <= kappa1."""
    threshold = power_threshold(coeffs.kappa1, coeffs.kappa2)
    if p <= threshold:
        raise HarnackError(
            f"p = {p:g} is at or below the admissible threshold "
            f"{threshold:.6f} for kappa1={coeffs.kappa1:g}, "
            f"kappa2={coeffs.kappa2:g}"
        )
    if payoff.lower_bound < 0.0:
        raise HarnackError("power-Harnack needs a nonnegative payoff")
    return threshold


def check_log_harnack(P: Semigroups, payoff: Payoff, log_f: Payoff, x: float,
                      y: float) -> HarnackReport:
    """P_T log f(y) <= log P_T f(x) + c |x - y|^2 with the printed constant,
    read from the rows of f and log f in P. The report also carries the
    constant at a free alpha."""
    _require_floor(payoff)
    coeffs = P.coeffs
    coef = log_harnack_constant(coeffs.K, P.band.sigma_lower, coeffs.kappa1,
                                coeffs.kappa2, P.T)
    alpha_star = coeffs.kappa1 ** 2 / coeffs.kappa2 ** 2
    x, y = float(x), float(y)
    pf_x = float(P.fine[payoff](x))
    tol_f = P.tolerance(payoff, x)
    lhs = float(P.fine[log_f](y))
    rhs = math.log(pf_x) + coef * (x - y) ** 2
    tolerance = (P.tolerance(log_f, y)
                 + tol_f / max(pf_x - tol_f, payoff.lower_bound))
    return HarnackReport(
        kind="log", x=x, y=y, T=float(P.T), p=None, a=None, q=None, C=None,
        lhs=lhs, rhs=rhs, slack=rhs - lhs, method="pde", tolerance=tolerance,
        passed=within_band(lhs, rhs, tolerance, 0.0), alpha=alpha_star,
        extras={"constant_printed": coef,
                "constant_generic_alpha": log_harnack_constant_generic(
                    coeffs, P.band, P.T, alpha_star)},
    )


def check_power_harnack(P: Semigroups, payoff: Payoff, f_p: Payoff, x: float,
                        y: float, p: float) -> HarnackReport:
    """(P_T f(y))^p <= P_T f^p(x) exp(c_p |x - y|^2) for admissible p, with
    `f_p` the row of f^p in P."""
    coeffs, band, T = P.coeffs, P.band, P.T
    threshold = _check_power_admissible(coeffs, payoff, p)
    exponent = power_harnack_exponent(p, coeffs.K, band.sigma_lower,
                                      coeffs.kappa1, coeffs.kappa2, T)
    exponent_moment = power_harnack_exponent_moment_route(p, coeffs, band, T)
    blowup = power_harnack_factor(p, coeffs, band, T, x, y)

    pf_y = float(P.fine[payoff](y))
    pfp_x = float(P.fine[f_p](x))
    tolerance = (p * max(pf_y, 0.0) ** (p - 1.0) * P.tolerance(payoff, y)
                 + blowup * P.tolerance(f_p, x))
    lhs = pf_y ** p
    rhs = pfp_x * blowup
    return HarnackReport(
        kind="power", x=float(x), y=float(y), T=float(T), p=float(p),
        a=1.0 / (p - 1.0), q=1.0 + math.sqrt(p),
        C=coeffs.kappa2 - coeffs.kappa1, lhs=lhs, rhs=rhs, slack=rhs - lhs,
        method="pde", tolerance=tolerance,
        passed=within_band(lhs, rhs, tolerance, 0.0),
        extras={"threshold": threshold, "exponent_printed": exponent,
                "exponent_moment_route": exponent_moment},
    )


def _linspace_point(start: float, stop: float, n: int, k: int) -> float:
    """Point k of numpy's linspace(start, stop, n), placed as it places it
    (for a step that does not underflow to 0)."""
    if n == 1:
        return start
    return stop if k == n - 1 else k * ((stop - start) / (n - 1)) + start


def check_gradient_estimate(P: Semigroups, payoff: Payoff,
                            n_alpha: int) -> HarnackReport:
    """Finite-difference sup-gradient of P_T f against the envelope over
    alpha of 2 ||f|| / (kappa1 sqrt(alpha lambda0)): its least value on
    n_alpha points spanning the admissible interval (0, alpha_cap) to 1% of
    either end, at the first alpha that attains it. alpha lambda0 is
    proportional to alpha (alpha_cap - alpha), symmetric about alpha_cap / 2
    as the points are, so that value sits at the middle point, or at one of
    the two middle points of an even n_alpha: the envelope is read there
    alone."""
    coeffs, band, T = P.coeffs, P.band, P.T
    cap = alpha_cap(coeffs.kappa1, coeffs.kappa2)

    lhs = P.fine[payoff].max_abs_gradient()
    tolerance = abs(lhs - P.coarse[payoff].max_abs_gradient()) + 1e-12

    middle = (_linspace_point(0.01 * cap, 0.99 * cap, n_alpha, k)
              for k in sorted({(n_alpha - 1) // 2, n_alpha // 2}))
    # (rhs, alpha) pairs: on a tie of rhs the lower alpha, the first point
    best_rhs, best_alpha = min(
        (gradient_bound(payoff.sup_norm, coeffs.kappa1, alpha,
                        initial_weight(alpha, coeffs, band, T)), alpha)
        for alpha in middle)
    return HarnackReport(
        kind="gradient", x=None, y=None, T=float(T), p=None, a=None, q=None,
        C=None, lhs=lhs, rhs=best_rhs, slack=best_rhs - lhs, method="pde",
        tolerance=tolerance,
        passed=within_band(lhs, best_rhs, tolerance, 0.0),
        alpha=best_alpha,
        extras={"sup_norm": payoff.sup_norm, "n_alpha": n_alpha},
    )


def lipschitz_transport_check(P: Semigroups, payoff: Payoff, x: float,
                              y: float) -> HarnackReport:
    """|P_T f(y) - P_T f(x)| against the two-term |x-y| + |x-y|^2 bound at
    alpha = kappa1^2/kappa2^2."""
    coeffs, T = P.coeffs, P.T
    alpha = coeffs.kappa1 ** 2 / coeffs.kappa2 ** 2
    lambda0 = initial_weight(alpha, coeffs, P.band, T)
    gap = abs(x - y)
    k1 = coeffs.kappa1
    rhs = payoff.sup_norm * (
        2.0 * gap / (k1 * math.sqrt(alpha * lambda0))
        + gap ** 2 / (alpha * k1 ** 2 * lambda0)
    )
    u_f = P.fine[payoff]
    lhs = abs(float(u_f(y)) - float(u_f(x)))
    tolerance = P.tolerance(payoff, x) + P.tolerance(payoff, y)
    return HarnackReport(
        kind="lipschitz", x=float(x), y=float(y), T=float(T), p=None, a=None,
        q=None, C=None, lhs=lhs, rhs=rhs, slack=rhs - lhs, method="pde",
        tolerance=tolerance, passed=within_band(lhs, rhs, tolerance, 0.0),
        alpha=float(alpha),
    )
