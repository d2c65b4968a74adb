import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gharnack as g
from gharnack.harnack import log_harnack_constant_generic
from gharnack.model import (ModelError, coefficient_lipschitz, initial_weight,
                            rate_constants)


class TestGFunction:
    def test_zero(self, wide_band):
        assert g.g_function(0.0, wide_band) == 0.0

    @pytest.mark.parametrize("lo,hi", [(0.8, 1.2), (1.0, 1.0), (1e-3, 7.3),
                                       (0.3, 0.3000001)])
    def test_textbook_formula_bitwise(self, lo, hi):
        # (s_up^2 a+ - s_lo^2 a-)/2 to the bit on normal finite a of every
        # scale a PDE step can meet, and the same value at +-0
        band = g.VolatilityBand(lo, hi)
        rng = np.random.default_rng(7)
        a = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(
            -300.0, 300.0, 200_000)
        up2, lo2 = hi ** 2, lo ** 2
        textbook = 0.5 * (up2 * np.maximum(a, 0.0) - lo2 * np.maximum(-a, 0.0))
        assert g.g_function(a, band).tobytes() == textbook.tobytes()
        for zero in (0.0, -0.0):
            value = g.g_function(zero, band)
            assert isinstance(value, float)
            assert value == 0.5 * (up2 * max(zero, 0.0) - lo2 * max(-zero, 0.0))

    def test_positive_curvature(self, wide_band):
        assert g.g_function(1.0, wide_band) == pytest.approx(0.72, abs=1e-15)

    def test_negative_curvature(self, wide_band):
        assert g.g_function(-1.0, wide_band) == pytest.approx(-0.32, abs=1e-15)

    def test_monotone_bulk(self, wide_band):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 5.0, size=10_000)
        b = a + rng.exponential(1.0, size=10_000)
        assert np.all(g.g_function(a, wide_band) <= g.g_function(b, wide_band))

    def test_subadditive_bulk(self, wide_band):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 5.0, size=10_000)
        b = rng.normal(0.0, 5.0, size=10_000)
        lhs = g.g_function(a + b, wide_band)
        rhs = g.g_function(a, wide_band) + g.g_function(b, wide_band)
        assert np.all(lhs <= rhs + 1e-12)

    @settings(derandomize=True, max_examples=200)
    @given(a=st.floats(-1e6, 1e6), lam=st.floats(0.0, 1e3))
    def test_positively_homogeneous(self, a, lam):
        band = g.VolatilityBand(0.8, 1.2)
        assert g.g_function(lam * a, band) == pytest.approx(
            lam * g.g_function(a, band), rel=1e-12, abs=1e-9)

    @settings(derandomize=True, max_examples=200)
    @given(lo=st.floats(0.1, 2.0), width=st.floats(0.0, 2.0),
           a=st.floats(-100.0, 100.0), b=st.floats(-100.0, 100.0))
    def test_sublinear_any_band(self, lo, width, a, b):
        band = g.VolatilityBand(lo, lo + width)
        lhs = g.g_function(a + b, band)
        rhs = g.g_function(a, band) + g.g_function(b, band)
        assert lhs <= rhs + 1e-9


class TestWithinBand:
    # The band is spelled out with its own 3.0: a change of Z must show here.
    @pytest.mark.parametrize("bound,tol,se", [(0.75, 0.125, 0.0625),
                                              (1.0, 0.0, 0.0),
                                              (-2.0, 1e-12, 0.0),
                                              (0.1, 0.0, 0.01)])
    def test_flips_one_ulp_past_the_edge(self, bound, tol, se):
        edge = bound + tol + 3.0 * se
        assert g.within_band(edge, bound, tol, se) is True
        assert g.within_band(np.nextafter(edge, -math.inf), bound, tol,
                             se) is True
        assert g.within_band(np.nextafter(edge, math.inf), bound, tol,
                             se) is False

    def test_numpy_scalars_give_a_python_bool(self):
        for est in (np.float64(0.5), np.float64(2.0)):
            flag = g.within_band(est, np.float64(1.0), np.float64(0.0),
                                 np.float64(0.1))
            assert type(flag) is bool
        assert g.within_band(np.float64(0.5), 1.0, 0.0, 0.1) is True
        assert g.within_band(np.float64(2.0), 1.0, 0.0, 0.1) is False

    def test_one_sided(self):
        # an estimate far below its bound passes
        assert g.within_band(-1e300, 0.0, 0.0, 0.0) is True


class TestBandAndGrid:
    def test_band_rejects_zero_lower(self):
        with pytest.raises(ModelError):
            g.VolatilityBand(0.0, 1.0)

    def test_band_rejects_inverted(self):
        with pytest.raises(ModelError):
            g.VolatilityBand(1.2, 0.8)

    def test_grid_nodes(self):
        grid = g.TimeGrid(2.0, 4)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 2.0
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.dt == 0.5

    def test_grid_rejects_bad_horizon(self):
        with pytest.raises(ModelError):
            g.TimeGrid(-1.0, 4)


class TestValidateCoefficients:
    def test_constant_coefficients_pass(self):
        coeffs = g.ModelCoefficients(
            b=g.make_coefficient("constant", (0.0,)),
            h=g.make_coefficient("constant", (0.0,)),
            sigma=g.make_coefficient("constant", (1.0,)),
            K=0.0, kappa1=1.0, kappa2=1.0)
        report = g.validate_coefficients(coeffs, (-5.0, 5.0), g.TimeGrid(1.0, 8))
        assert report.passed
        assert report.worst_lipschitz == 0.0
        assert report.sigma_min == report.sigma_max == 1.0

    def test_sine_sigma_passes_with_true_extrema(self):
        # sup sigma = 1.0, inf sigma = 0.8; dense-grid oracle confirms
        xs = np.linspace(-20, 20, 200_001)
        vals = 0.9 + 0.1 * np.sin(xs)
        assert vals.max() == pytest.approx(1.0, abs=1e-8)
        assert vals.min() == pytest.approx(0.8, abs=1e-8)
        coeffs = g.ModelCoefficients(
            b=g.make_coefficient("constant", (0.0,)),
            h=g.make_coefficient("constant", (0.0,)),
            sigma=g.make_coefficient("sine", (0.9, 0.1, 1.0)),
            K=1.0, kappa1=0.8, kappa2=1.0)
        report = g.validate_coefficients(coeffs, (-20.0, 20.0),
                                         g.TimeGrid(1.0, 8), samples=4096)
        assert report.passed

    def test_sine_sigma_flags_tight_kappa2(self):
        coeffs = g.ModelCoefficients(
            b=g.make_coefficient("constant", (0.0,)),
            h=g.make_coefficient("constant", (0.0,)),
            sigma=g.make_coefficient("sine", (0.9, 0.1, 1.0)),
            K=1.0, kappa1=0.8, kappa2=0.95)
        report = g.validate_coefficients(coeffs, (-20.0, 20.0),
                                         g.TimeGrid(1.0, 8), samples=4096)
        assert not report.passed
        assert any("kappa2" in v for v in report.violations)

    def test_never_passes_sigma_escape(self):
        # random catalog sigmas whose range leaves [kappa1, kappa2] get flagged
        rng = np.random.default_rng(3)
        for _ in range(25):
            offset = rng.uniform(0.5, 1.5)
            amp = rng.uniform(0.05, 0.4)
            sigma = g.make_coefficient("sine", (offset, amp, rng.uniform(0.5, 3.0)))
            k1 = offset - amp / 2.0  # deliberately too tight
            coeffs = g.ModelCoefficients(
                b=g.make_coefficient("constant", (0.0,)),
                h=g.make_coefficient("constant", (0.0,)),
                sigma=sigma, K=5.0, kappa1=k1, kappa2=offset + amp)
            report = g.validate_coefficients(coeffs, (-30.0, 30.0),
                                             g.TimeGrid(1.0, 4), samples=4096)
            assert not report.passed
            assert report.sigma_min < k1 - 1e-9

    @pytest.mark.parametrize("role", ["b", "h", "sigma"])
    def test_nan_coefficient_is_flagged(self, role):
        # sin(k x) is nan where k x overflows, past |x| = 1.8 here: no
        # declared K or [kappa1, kappa2] admits a nan value
        parts = {"b": g.make_coefficient("constant", (0.0,)),
                 "h": g.make_coefficient("constant", (0.0,)),
                 "sigma": g.make_coefficient("constant", (1.0,))}
        parts[role] = g.make_coefficient("sine", (1.0, 1e-308, 1e308))
        coeffs = g.ModelCoefficients(**parts, K=1.0, kappa1=0.9, kappa2=1.1)
        with np.errstate(over="ignore", invalid="ignore"):
            report = g.validate_coefficients(coeffs, (-5.0, 5.0),
                                             g.TimeGrid(1.0, 4))
        assert not report.passed
        assert any("nan" in v for v in report.violations)

    def test_rejects_single_sample(self, heat_model):
        with pytest.raises(ModelError):
            g.validate_coefficients(heat_model, (-1.0, 1.0), g.TimeGrid(1.0, 4),
                                    samples=1)

    def test_multiplicative_model_lipschitz(self, multiplicative_model):
        report = g.validate_coefficients(multiplicative_model, (-6.0, 6.0),
                                         g.TimeGrid(1.0, 8), samples=4096)
        assert report.passed
        assert report.worst_lipschitz <= 1.1 + 1e-9


class TestPayoffs:
    def test_catalog_names_build(self):
        from gharnack.model import PAYOFF_NAMES
        for name in PAYOFF_NAMES:
            payoff = g.make_payoff(name)
            xs = np.linspace(-8, 8, 101)
            payoff.check_bounds_on(xs)

    def test_strictly_positive_requires_floor(self):
        with pytest.raises(ModelError):
            g.Payoff(f=lambda x: x, lower_bound=0.0, upper_bound=1.0,
                     strictly_positive=True, name="bad")

    def test_log_transform_requires_positivity(self):
        with pytest.raises(ModelError):
            g.make_payoff("gauss_bump").log()

    def test_shifted_bump_log(self):
        payoff = g.make_payoff("shifted_bump", (0.1,))
        lg = payoff.log()
        assert lg.lower_bound == pytest.approx(math.log(0.1))
        assert lg.f(np.array([0.0]))[0] == pytest.approx(math.log(1.1))

    def test_bounds_check_catches_escape(self):
        payoff = g.Payoff(f=lambda x: x ** 2, lower_bound=0.0, upper_bound=1.0,
                          name="tight")
        with pytest.raises(ModelError):
            payoff.check_bounds_on(np.linspace(-3, 3, 11))


class TestCoefficientCatalog:
    def test_lipschitz_constants(self):
        assert coefficient_lipschitz("constant", (3.0,)) == 0.0
        assert coefficient_lipschitz("affine", (0.0, -2.0)) == 2.0
        assert coefficient_lipschitz("sine", (0.9, 0.1, 1.0)) == pytest.approx(0.1)
        assert coefficient_lipschitz("tanh", (0.95, 0.05, 1.0)) == pytest.approx(0.05)

    def test_catalog_broadcasts(self):
        fn = g.make_coefficient("constant", (2.5,))
        out = fn(np.zeros(7))
        assert out.shape == (7,)
        assert np.all(out == 2.5)

    def test_unknown_entry_rejected(self):
        with pytest.raises(ModelError):
            g.make_coefficient("cubic", (1.0,))

    def test_empirical_lipschitz_matches_declared(self):
        # catalog Lipschitz constants are sharp on a dense grid
        xs = np.linspace(-10, 10, 20_001)
        for name, params in [("affine", (1.0, -2.0)), ("sine", (0.0, 0.3, 2.0)),
                             ("tanh", (0.5, 0.2, 3.0))]:
            fn = g.make_coefficient(name, params)
            vals = fn(xs)
            quot = np.max(np.abs(np.diff(vals)) / np.diff(xs))
            assert quot <= coefficient_lipschitz(name, params) + 1e-9


class TestCouplingClosedForms:
    def test_initial_weight_is_the_schedule_lambda0(self, multiplicative_model,
                                                    pinched_band):
        # one formula for a float and elementwise for an array, to the bit
        alphas = np.linspace(0.05, 1.6, 9)
        weights = initial_weight(alphas, multiplicative_model, pinched_band,
                                 1.0)
        for alpha, weight in zip(alphas.tolist(), weights.tolist()):
            schedule = g.make_schedule(alpha, multiplicative_model,
                                       pinched_band, 1.0)
            assert weight == schedule.lambda0
            assert weight == initial_weight(alpha, multiplicative_model,
                                            pinched_band, 1.0)
            assert schedule.c_K == rate_constants(1.1, 0.9, 1.0)[0]

    def test_zero_K_is_a_named_error(self, unit_band):
        coeffs = g.ModelCoefficients(
            b=g.make_coefficient("constant", (0.0,)),
            h=g.make_coefficient("constant", (0.0,)),
            sigma=g.make_coefficient("constant", (1.0,)),
            K=0.0, kappa1=1.0, kappa2=1.0)
        with pytest.raises(ModelError, match="positive Lipschitz constant"):
            initial_weight(0.5, coeffs, unit_band, 1.0)
        with pytest.raises(ModelError, match="positive Lipschitz constant"):
            log_harnack_constant_generic(coeffs, unit_band, 1.0, 0.5)
