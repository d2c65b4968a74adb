"""Static problem data: volatility band, coefficients, payoffs, grids.

Everything here is immutable after construction and validated against the
standing assumptions (bounded diffusion, joint Lipschitz coefficients) by
sampling, so downstream solvers can trust the declared constants. The
pass rule that decides every `passed` flag and the closed forms of the
coupling weight that the schedule and the Harnack constants share live here
too, below every module that uses them, and so do the error classes of
every layer. This module imports no other module of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

Coefficient = Callable[[np.ndarray], np.ndarray]


class ModelError(ValueError):
    """Invalid model data (bad band, grid, coefficient declaration...)."""


# The refusals of the solver and checker layers live here, so that the
# command line tells each from an internal error without loading its layer.
class PdeError(ValueError):
    """Invalid solver configuration or a failed stability post-check."""


class ScenarioError(ValueError):
    pass


class CouplingError(ValueError):
    pass


class HarnackError(ValueError):
    pass


# Standard errors a Monte Carlo estimate may lie above its bound and pass.
Z = 3.0


def within_band(estimate: float, bound: float, tolerance: float,
                std_error: float) -> bool:
    """The one pass rule: `estimate` passes against `bound` when it lies at
    most `tolerance` + Z `std_error` above it. The band is one-sided; a
    deterministic check passes std_error 0. Returns a Python bool, also for
    numpy scalar inputs."""
    return bool(estimate <= bound + tolerance + Z * std_error)


@dataclass(frozen=True)
class VolatilityBand:
    """Uncertainty interval [sigma_lower, sigma_upper] for the volatility."""

    sigma_lower: float
    sigma_upper: float

    def __post_init__(self):
        if not (0.0 < self.sigma_lower <= self.sigma_upper):
            raise ModelError(
                f"band requires 0 < sigma_lower <= sigma_upper, got "
                f"[{self.sigma_lower}, {self.sigma_upper}]"
            )

    @property
    def is_degenerate(self) -> bool:
        return self.sigma_lower == self.sigma_upper


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = horizon."""

    horizon: float
    n_steps: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ModelError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ModelError(f"n_steps must be >= 1, got {self.n_steps}")
        nodes = np.linspace(0.0, self.horizon, self.n_steps + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


def g_function(a, band: VolatilityBand):
    """One-dimensional sublinear generator G(a) = (s_up^2 a+ - s_lo^2 a-)/2.

    Accepts scalars or arrays; positively homogeneous, monotone, subadditive.
    Computed as the larger of (s^2/2) a over the two levels s, which is the
    formula above to the bit for every normal finite a: halving is exact, and
    rounding keeps the order of the two products.
    """
    a = np.asarray(a, dtype=float)
    out = np.maximum(0.5 * band.sigma_upper ** 2 * a,
                     0.5 * band.sigma_lower ** 2 * a)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModelCoefficients:
    """Drift b, quadratic-variation drift h, diffusion sigma, with declared
    joint Lipschitz constant K and diffusion bounds kappa1 <= sigma <= kappa2.

    Callables take x alone, a scalar or array, and broadcast over it: the
    coefficients are time-homogeneous by type, so the PDE solvers evaluate
    each once per solve and the Euler passes at each step's state alone.
    """

    b: Coefficient
    h: Coefficient
    sigma: Coefficient
    K: float
    kappa1: float
    kappa2: float

    def __post_init__(self):
        if not (0.0 < self.kappa1 <= self.kappa2):
            raise ModelError(
                f"need 0 < kappa1 <= kappa2, got ({self.kappa1}, {self.kappa2})"
            )
        if self.K < 0.0:
            raise ModelError(f"K must be nonnegative, got {self.K}")


@dataclass(frozen=True)
class Payoff:
    """Terminal functional with declared bounds on the evaluation domain."""

    f: Callable[[np.ndarray], np.ndarray]
    lower_bound: float
    upper_bound: float
    strictly_positive: bool = False
    name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.lower_bound) and math.isfinite(self.upper_bound)):
            raise ModelError(f"payoff {self.name!r} declares non-finite bounds")
        if self.lower_bound > self.upper_bound:
            raise ModelError(f"payoff {self.name!r} has lower_bound > upper_bound")
        if self.strictly_positive and self.lower_bound <= 0.0:
            raise ModelError(
                f"payoff {self.name!r} is flagged strictly positive but "
                f"lower_bound = {self.lower_bound}"
            )

    @property
    def sup_norm(self) -> float:
        return max(abs(self.lower_bound), abs(self.upper_bound))

    def check_bounds_on(self, xs: np.ndarray) -> None:
        """Raise if declared bounds fail on the sampled states, beyond a
        relative pad of 1e-9."""
        vals = np.asarray(self.f(np.asarray(xs, dtype=float)), dtype=float)
        pad = 1e-9 * (1.0 + abs(self.lower_bound) + abs(self.upper_bound))
        if vals.min() < self.lower_bound - pad or vals.max() > self.upper_bound + pad:
            raise ModelError(
                f"payoff {self.name!r} leaves its declared bounds "
                f"[{self.lower_bound}, {self.upper_bound}] on the sampled grid: "
                f"observed [{vals.min()}, {vals.max()}]"
            )

    def log(self) -> "Payoff":
        """Log-transformed payoff; requires a positive lower bound."""
        if not self.strictly_positive:
            raise ModelError(
                f"payoff {self.name!r} has no positive lower bound; "
                "log transform undefined"
            )
        f = self.f
        return Payoff(
            f=lambda x: np.log(f(x)),
            lower_bound=math.log(self.lower_bound),
            upper_bound=math.log(self.upper_bound),
            strictly_positive=False,
            name=f"log({self.name})",
        )

    def power(self, p: float) -> "Payoff":
        """Payoff raised to p >= 1; requires a nonnegative lower bound."""
        if self.lower_bound < 0.0:
            raise ModelError(f"payoff {self.name!r} may be negative; f^p undefined")
        f = self.f
        return Payoff(
            f=lambda x: f(x) ** p,
            lower_bound=self.lower_bound ** p,
            upper_bound=self.upper_bound ** p,
            strictly_positive=self.strictly_positive,
            name=f"{self.name}^{p:g}",
        )


@dataclass(frozen=True)
class ValidationReport:
    """Sampling-based audit of (H1)-(H2) style declarations."""

    worst_lipschitz: float
    sigma_min: float
    sigma_max: float
    passed: bool
    violations: tuple


def alpha_cap(kappa1: float, kappa2: float) -> float:
    """2 kappa1^2/kappa2^2, the open upper end of the coupling's admissible
    alpha."""
    return 2.0 * kappa1 ** 2 / kappa2 ** 2


def rate_constants(K: float, sigma_lower: float,
                   T: float) -> tuple[float, float]:
    """The coupling weight's rate c_K = K (2 + K + 2/sigma_lower^2) and its
    decay 1 - exp(-sigma_lower^2 c_K T) over the horizon T."""
    c_K = K * (2.0 + K + 2.0 / sigma_lower ** 2)
    return c_K, 1.0 - math.exp(-sigma_lower ** 2 * c_K * T)


def initial_weight(alpha, coeffs: ModelCoefficients, band: VolatilityBand,
                   T: float):
    """The coupling weight at time 0, lambda(0) = (alpha_cap - alpha)/c_K
    (1 - exp(-sigma_lower^2 c_K T)), for a float or an array of alpha;
    refuses K = 0, where the form is 0/0."""
    if coeffs.K == 0.0:
        raise ModelError(
            "K = 0 collapses the coupling weight lambda(0) to a 0/0 form; it "
            "needs a positive Lipschitz constant K"
        )
    c_K, decay = rate_constants(coeffs.K, band.sigma_lower, T)
    cap = alpha_cap(coeffs.kappa1, coeffs.kappa2)
    return (cap - alpha) / c_K * decay


def default_state_domain(x_ref: float, band: VolatilityBand, coeffs: ModelCoefficients,
                         horizon: float) -> tuple[float, float]:
    """Interval covering the mass of simulated paths started near x_ref."""
    half = 6.0 * band.sigma_upper * math.sqrt(horizon) * math.exp(coeffs.K * horizon)
    return (x_ref - half, x_ref + half)


# The plastic number g, the real root of g^3 = g + 1: the R2 sequence
# frac(0.5 + i (1/g, 1/g^2)) (Roberts 2018) spreads pairs evenly over a square.
_PLASTIC = 1.324717957244746


def validate_coefficients(coeffs: ModelCoefficients, domain: tuple[float, float],
                          grid: TimeGrid, samples: int = 512) -> ValidationReport:
    """Audit (H1)-(H2) by dense grid sampling plus `samples` long-range pairs
    of the R2 quasi-random sequence, against the declared constants with a
    relative slack of 1e-9. The pairs are deterministic, so the audit draws
    no random numbers.

    Sampling-based by design: exact verification is undecidable for general
    closed forms, and the declared constants only need to dominate what the
    solvers will ever see. `grid` is unused: the coefficients take x alone.
    It stays only for callers that pass it positionally.
    """
    if samples < 2:
        raise ModelError(f"samples must be >= 2, got {samples}")
    lo, hi = domain
    if not lo < hi:
        raise ModelError(f"empty state domain ({lo}, {hi})")

    xs = np.linspace(lo, hi, samples)
    i = np.arange(1, samples + 1)
    xa = lo + (hi - lo) * ((0.5 + i / _PLASTIC) % 1.0)
    xb = lo + (hi - lo) * ((0.5 + i / _PLASTIC ** 2) % 1.0)
    keep = np.abs(xa - xb) > 1e-12 * (hi - lo)
    xa, xb = xa[keep], xb[keep]

    sig = np.asarray(coeffs.sigma(xs), dtype=float)
    # adjacent-node quotients on the dense grid, then the long-range pairs
    q = (np.abs(np.diff(coeffs.b(xs))) + np.abs(np.diff(coeffs.h(xs)))
         + np.abs(np.diff(sig))) / (xs[1:] - xs[:-1])
    q2 = (np.abs(coeffs.b(xa) - coeffs.b(xb))
          + np.abs(coeffs.h(xa) - coeffs.h(xb))
          + np.abs(coeffs.sigma(xa) - coeffs.sigma(xb))) / np.abs(xa - xb)
    worst_lip = float(np.max(np.concatenate((q, q2))))
    sig_min, sig_max = float(sig.min()), float(sig.max())

    tol = 1e-9
    lip_ok = within_band(worst_lip, coeffs.K * (1.0 + tol), tol, 0.0)
    floor_ok = within_band(coeffs.kappa1 * (1.0 - tol), sig_min, tol, 0.0)
    ceiling_ok = within_band(sig_max, coeffs.kappa2 * (1.0 + tol), tol, 0.0)
    violations = [message for ok, message in (
        (lip_ok, f"Lipschitz quotient {worst_lip:.6g} exceeds declared "
                 f"K={coeffs.K:g}"),
        (floor_ok, f"sigma dips to {sig_min:.6g} below declared "
                   f"kappa1={coeffs.kappa1:g}"),
        (ceiling_ok, f"sigma rises to {sig_max:.6g} above declared "
                     f"kappa2={coeffs.kappa2:g}"),
    ) if not ok]
    return ValidationReport(worst_lipschitz=worst_lip, sigma_min=sig_min,
                            sigma_max=sig_max,
                            passed=lip_ok and floor_ok and ceiling_ok,
                            violations=tuple(violations))


# ---------------------------------------------------------------------------
# closed-form catalogs (selected by name from the CLI config)

def _broadcast(value, x):
    return np.full_like(np.asarray(x, dtype=float), value, dtype=float)


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _shifted_bump(lo, hi, m, c0=0.1) -> Payoff:
    if c0 < 0.1:
        raise ModelError("shifted_bump requires a floor c0 >= 0.1")
    return Payoff(lambda x: c0 + np.exp(-_arr(x) ** 2), c0, c0 + 1.0,
                  strictly_positive=True, name=f"shifted_bump({c0:g})")


# name -> (number of parameters, builder of the x -> array coefficient from
# them, its exact Lipschitz constant in x from them)
_COEFFICIENTS = {
    "constant": (1, lambda c: lambda x: _broadcast(c, x),
                 lambda c: 0.0),
    "affine": (2, lambda c, s: lambda x: c + s * _arr(x),
               lambda c, s: abs(s)),
    "sine": (3, lambda c, a, k: lambda x: c + a * np.sin(k * _arr(x)),
             lambda c, a, k: abs(a * k)),
    "cosine": (3, lambda c, a, k: lambda x: c + a * np.cos(k * _arr(x)),
               lambda c, a, k: abs(a * k)),
    "tanh": (3, lambda c, a, k: lambda x: c + a * np.tanh(k * _arr(x)),
             lambda c, a, k: abs(a * k)),
}

# name -> (most parameters, builder of the payoff from the domain's (lo, hi,
# max |x|) and the parameters; those left out take the builder's defaults)
_PAYOFFS = {
    "constant": (1, lambda lo, hi, m, c=1.0: Payoff(
        lambda x: _broadcast(c, x), c, c, strictly_positive=c > 0.0,
        name=f"constant({c:g})")),
    "identity": (0, lambda lo, hi, m: Payoff(_arr, lo, hi, name="identity")),
    "quadratic": (0, lambda lo, hi, m: Payoff(
        lambda x: _arr(x) ** 2, 0.0, m * m, name="quadratic")),
    "neg_quadratic": (0, lambda lo, hi, m: Payoff(
        lambda x: -_arr(x) ** 2, -m * m, 0.0, name="neg_quadratic")),
    "abs": (0, lambda lo, hi, m: Payoff(
        lambda x: np.abs(_arr(x)), 0.0, m, name="abs")),
    "call": (1, lambda lo, hi, m, strike=0.0: Payoff(
        lambda x: np.maximum(_arr(x) - strike, 0.0), 0.0,
        max(hi - strike, 0.0), name=f"call({strike:g})")),
    "gauss_bump": (0, lambda lo, hi, m: Payoff(
        lambda x: np.exp(-_arr(x) ** 2), 0.0, 1.0, name="gauss_bump")),
    "shifted_bump": (1, _shifted_bump),
    "cosine": (0, lambda lo, hi, m: Payoff(
        lambda x: np.cos(_arr(x)), -1.0, 1.0, name="cosine")),
    "tanh_step": (0, lambda lo, hi, m: Payoff(
        lambda x: 0.5 * (1.0 + np.tanh(_arr(x))), 0.0, 1.0,
        name="tanh_step")),
}

COEFFICIENT_NAMES = tuple(_COEFFICIENTS)
PAYOFF_NAMES = tuple(_PAYOFFS)


def _catalog_entry(catalog: dict, kind: str, name: str,
                   params: Sequence[float], exact: bool):
    """The catalog's entry for `name` and its parameters as floats; refuses
    an unknown name, and a parameter count other than the entry's (or, when
    not `exact`, above it)."""
    if name not in catalog:
        raise ModelError(f"unknown {kind} catalog entry {name!r}")
    entry = catalog[name]
    p = [float(v) for v in params]
    if len(p) > entry[0] or (exact and len(p) < entry[0]):
        raise ModelError(
            f"{kind} {name!r} takes {'' if exact else 'at most '}{entry[0]} "
            f"parameter(s), got {len(p)}")
    return entry, p


def make_coefficient(name: str, params: Sequence[float]) -> Coefficient:
    """Build an x -> array coefficient from the closed-form catalog.

    constant(c); affine(intercept, slope); sine(offset, amplitude, frequency);
    cosine(offset, amplitude, frequency); tanh(offset, amplitude, rate).
    """
    (_, build, _), p = _catalog_entry(_COEFFICIENTS, "coefficient", name,
                                      params, exact=True)
    return build(*p)


def coefficient_lipschitz(name: str, params: Sequence[float]) -> float:
    """Exact Lipschitz constant of a catalog entry (for config auditing)."""
    (_, _, lipschitz), p = _catalog_entry(_COEFFICIENTS, "coefficient", name,
                                          params, exact=True)
    return lipschitz(*p)


def make_payoff(name: str, params: Sequence[float] = (),
                domain: tuple[float, float] = (-8.0, 8.0)) -> Payoff:
    """Build a payoff from the named catalog; bounds hold on `domain`.

    constant(c = 1); call(strike = 0); shifted_bump(floor c0 = 0.1, at
    least 0.1); identity, quadratic, neg_quadratic, abs, gauss_bump, cosine
    and tanh_step take none.
    """
    (_, build), p = _catalog_entry(_PAYOFFS, "payoff", name, params,
                                   exact=False)
    lo, hi = domain
    return build(lo, hi, max(abs(lo), abs(hi)), *p)
