import math

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import solve_ivp

import gharnack as g
from gharnack import coupling
from gharnack.cli import write_outputs
from gharnack.coupling import CouplingError, shifted_qv_discrepancy
from gharnack.model import rate_constants
from gharnack.scenario import scaled_increments

from conftest import reference_levels

mp.dps = 30


def schedule_example():
    """K=1, sigma_lower=1, kappa1=0.9, kappa2=1.0, alpha=0.81, T=1."""
    coeffs = g.ModelCoefficients(
        b=g.make_coefficient("affine", (0.0, -1.0)),
        h=g.make_coefficient("constant", (0.0,)),
        sigma=g.make_coefficient("sine", (0.95, 0.05, 1.0)),
        K=1.0, kappa1=0.9, kappa2=1.0)
    band = g.VolatilityBand(1.0, 1.0)
    return coeffs, band


def lambda0_ode_oracle(K, sigma_lower, kappa1, kappa2, alpha, T):
    """Integrate the defining identity backward from lambda(T) = 0."""
    cap = 2.0 * kappa1 ** 2 / kappa2 ** 2
    c_K = K * (2.0 + K + 2.0 / sigma_lower ** 2)

    def rhs(s, mu):  # mu(s) = lambda(T - s)
        return sigma_lower ** 2 * (cap - alpha - c_K * mu[0])

    sol = solve_ivp(rhs, (0.0, T), [0.0], rtol=1e-11, atol=1e-13,
                    dense_output=True)
    return float(sol.y[0, -1])


class TestMakeSchedule:
    def test_vanishes_at_horizon(self):
        coeffs, band = schedule_example()
        schedule = g.make_schedule(0.81, coeffs, band, 1.0)
        assert schedule.value(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_positive_and_decreasing_before_horizon(self):
        coeffs, band = schedule_example()
        schedule = g.make_schedule(0.81, coeffs, band, 1.0)
        ts = np.linspace(0.0, 0.999, 500)
        vals = schedule.value(ts)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(schedule.lam_prime(ts) < 0.0)

    def test_lambda0_closed_form_high_precision(self):
        coeffs, band = schedule_example()
        schedule = g.make_schedule(0.81, coeffs, band, 1.0)
        exact = mp.mpf("0.81") / 5 * (1 - mp.exp(-5))
        assert schedule.lambda0 == pytest.approx(float(exact), rel=1e-14)
        assert schedule.lambda0 == pytest.approx(0.160908, abs=5e-7)

    def test_lambda0_matches_ode_oracle(self):
        coeffs, band = schedule_example()
        schedule = g.make_schedule(0.81, coeffs, band, 1.0)
        oracle = lambda0_ode_oracle(1.0, 1.0, 0.9, 1.0, 0.81, 1.0)
        assert schedule.lambda0 == pytest.approx(oracle, rel=1e-9)

    def test_identity_residual_random_tuples(self):
        # With criterion 03 the only check of the closed form: make_schedule
        # runs none. Log-uniform tuples over wide ranges, skipping a c_K that
        # leaves the double range, which the parser refuses.
        rng = np.random.default_rng(17)
        ts = np.linspace(0.0, 1.0, 1000)

        def log_uniform(lo, hi):
            return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))

        checked = 0
        for _ in range(300):
            k1 = log_uniform(1e-4, 1e4)
            k2 = k1 * log_uniform(1.0, 1e3)
            sl = log_uniform(1e-8, 1e8)
            K = log_uniform(1e-12, 1e12)
            T = log_uniform(1e-8, 1e6)
            cap = 2.0 * k1 ** 2 / k2 ** 2
            alpha = rng.uniform(0.0, 1.0) * cap
            if not (math.isfinite(rate_constants(K, sl, T)[0])
                    and 0.0 < alpha < cap):
                continue
            coeffs = g.ModelCoefficients(
                b=g.make_coefficient("constant", (0.0,)),
                h=g.make_coefficient("constant", (0.0,)),
                sigma=g.make_coefficient("constant", (k1,)),
                K=K, kappa1=k1, kappa2=k2)
            schedule = g.make_schedule(alpha, coeffs,
                                       g.VolatilityBand(sl, 2.0 * sl), T)
            residual = schedule.identity_residual(ts * T)
            assert np.max(np.abs(residual)) <= 1e-8, (k1, k2, sl, K, T, alpha)
            checked += 1
        assert checked >= 290

    def test_finite_difference_derivative_agrees(self):
        coeffs, band = schedule_example()
        schedule = g.make_schedule(0.81, coeffs, band, 1.0)
        step = 1e-6
        ts = np.linspace(0.1, 0.9, 33)
        fd = (schedule.value(ts + step) - schedule.value(ts - step)) / (2 * step)
        assert np.max(np.abs(fd - schedule.lam_prime(ts))) < 1e-7

    def test_alpha_outside_interval_rejected(self):
        coeffs, band = schedule_example()
        cap = 2.0 * 0.81  # 2 kappa1^2 / kappa2^2
        for alpha in (0.0, -0.5, cap, cap + 0.1):
            with pytest.raises(CouplingError):
                g.make_schedule(alpha, coeffs, band, 1.0)

    def test_zero_lipschitz_rejected_with_hint(self, heat_model, unit_band):
        coeffs = g.ModelCoefficients(
            b=g.make_coefficient("constant", (0.0,)),
            h=g.make_coefficient("constant", (0.0,)),
            sigma=g.make_coefficient("constant", (1.0,)),
            K=0.0, kappa1=1.0, kappa2=1.0)
        with pytest.raises(g.ModelError, match="positive Lipschitz constant"):
            g.make_schedule(1.0, coeffs, unit_band, 1.0)


class TestMomentExponent:
    def test_example_value_high_precision(self):
        a = g.moment_exponent_a(0.81, 0.9, 1.0)
        exact = (mp.mpf("0.81") ** 2 * mp.mpf("0.9") ** 2) / (
            4 * mp.mpf("0.1") ** 2 + 4 * mp.mpf("0.81") * mp.mpf("0.1") * mp.mpf("0.9"))
        assert a == pytest.approx(float(exact), rel=1e-14)
        assert a == pytest.approx(1.60266, abs=5e-6)

    def test_equal_kappas_rejected_with_pointer(self):
        with pytest.raises(CouplingError, match="log-Harnack|entropy"):
            g.moment_exponent_a(0.5, 1.0, 1.0)


def coupled(coeffs, schedule, x0, y0, control, seed, clip_epsilon, n_paths):
    """One bundle on the first n_paths rows of the seed's increments."""
    w = scaled_increments(seed, n_paths, control.grid)
    return g.simulate_bundle(coeffs, schedule, x0, y0, control, clip_epsilon,
                              w)


def at_clip(coeffs, schedule, x0, y0, controls, n_paths, seed, clip_epsilon):
    """Clip-node samples of every control from one stacked run, on shared
    increments."""
    w = scaled_increments(seed, n_paths, controls[0].grid)
    return g.simulate_coupled(coeffs, schedule, x0, y0, controls,
                              [clip_epsilon], w).at_clip(clip_epsilon)


def sweep(coeffs, schedule, x0, y0, controls, n_paths, seed, epsilons):
    """Each epsilon of a sweep -> its clip samples, one per control, from one
    stacked run simulated at the smallest clip."""
    w = scaled_increments(seed, n_paths, controls[0].grid)
    run = g.simulate_coupled(coeffs, schedule, x0, y0, controls, epsilons, w)
    return {eps: run.at_clip(eps) for eps in epsilons}


@pytest.fixture(scope="module")
def acc_setup(multiplicative_model, pinched_band):
    schedule = g.make_schedule(0.81, multiplicative_model, pinched_band, 1.0)
    grid = g.TimeGrid(1.0, 512)
    controls = g.sample_controls("constants", pinched_band, grid, 5, seed=3)
    return multiplicative_model, pinched_band, schedule, grid, controls


class TestSimulateCoupled:
    def test_equal_starts_stay_coupled(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        bundle = coupled(coeffs, schedule, 0.4, 0.4, controls[2],
                         seed=21, clip_epsilon=0.01, n_paths=64)
        assert np.array_equal(bundle.x_path, bundle.y_path)
        assert np.all(bundle.g_path == 0.0)
        assert np.all(bundle.log_m_path == 0.0)
        assert np.all(np.exp(bundle.log_m_path) == 1.0)

    def test_g_bound_every_step(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        bundle = coupled(coeffs, schedule, 0.0, 0.5, controls[4],
                         seed=22, clip_epsilon=0.01, n_paths=256)
        lam = schedule.value(grid.nodes)
        for j in range(bundle.clip_index):
            gap = np.abs(bundle.x_path[:, j] - bundle.y_path[:, j])
            bound = gap / (lam[j] * coeffs.kappa1)
            assert np.all(np.abs(bundle.g_path[:, j]) <= bound * (1 + 1e-12))

    def test_gap_median_decreases_with_clip(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        medians = []
        for eps in (0.2, 0.1, 0.05):
            bundle = coupled(coeffs, schedule, 0.0, 0.5, controls[2],
                             seed=23, clip_epsilon=eps, n_paths=1024)
            j = bundle.clip_index
            medians.append(float(np.median(
                np.abs(bundle.x_path[:, j] - bundle.y_path[:, j]))))
        assert medians[0] > medians[1] > medians[2]

    def test_fine_reference_confirms_trend(self, acc_setup):
        # brute-force refinement: a 4x finer grid reproduces the decrease
        coeffs, band, schedule, grid, controls = acc_setup
        fine_grid = g.TimeGrid(1.0, 2048)
        fine_controls = g.sample_controls("constants", band, fine_grid, 5, seed=3)
        medians = []
        for eps in (0.2, 0.05):
            bundle = coupled(coeffs, schedule, 0.0, 0.5,
                             fine_controls[2], seed=23,
                             clip_epsilon=eps, n_paths=512)
            j = bundle.clip_index
            medians.append(float(np.median(
                np.abs(bundle.x_path[:, j] - bundle.y_path[:, j]))))
        assert medians[0] > medians[1]

    def test_clip_epsilon_validated(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        for eps in (0.0, -0.1, 0.3):
            with pytest.raises(CouplingError):
                coupled(coeffs, schedule, 0.0, 0.5, controls[0],
                        seed=1, clip_epsilon=eps, n_paths=1)

    def test_bit_reproducible(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        b1 = coupled(coeffs, schedule, 0.0, 0.5, controls[1],
                     seed=31, clip_epsilon=0.01, n_paths=32)
        b2 = coupled(coeffs, schedule, 0.0, 0.5, controls[1],
                     seed=31, clip_epsilon=0.01, n_paths=32)
        assert np.array_equal(b1.x_path, b2.x_path)
        assert np.array_equal(b1.log_m_path, b2.log_m_path)

    def test_density_positive_and_martingale_proxy(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        bundle = coupled(coeffs, schedule, 0.0, 0.5, controls[3],
                         seed=33, clip_epsilon=0.01, n_paths=8192)
        assert np.all(np.exp(bundle.log_m_path) > 0.0)
        assert np.all(bundle.log_m_path[:, 0] == 0.0)
        quarter = grid.n_steps // 4
        for j in (quarter, 2 * quarter, 3 * quarter, bundle.clip_index):
            m = np.exp(bundle.log_m_path[:, j])
            se = float(np.std(m, ddof=1) / math.sqrt(m.size))
            assert abs(float(np.mean(m)) - 1.0) <= 3.0 * se


class TestShiftedQv:
    def test_zero_shift_exact(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        bundle = coupled(coeffs, schedule, 0.2, 0.2, controls[0],
                         seed=41, clip_epsilon=0.01, n_paths=64)
        # x = y: g, and so the shift and its energy, are exactly zero
        assert shifted_qv_discrepancy(bundle) == (0.0, 0.0)

    def test_bounded_shift_within_tolerance(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        bundle = coupled(coeffs, schedule, 0.0, 0.5, controls[-1],
                         seed=42, clip_epsilon=0.01, n_paths=512)
        assert shifted_qv_discrepancy(bundle)[0] <= \
            10.0 * bundle.grid.dt * bundle.grid.horizon

    def test_refinement_halves_discrepancy(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        fine_grid = g.TimeGrid(1.0, 1024)
        fine_control = g.sample_controls("constants", band, fine_grid, 5,
                                         seed=3)[-1]
        coarse = coupled(coeffs, schedule, 0.0, 0.5, controls[-1],
                         seed=43, clip_epsilon=0.01, n_paths=512)
        fine = coupled(coeffs, schedule, 0.0, 0.5, fine_control,
                       seed=43, clip_epsilon=0.01, n_paths=512)
        ratio = shifted_qv_discrepancy(coarse)[0] / \
            shifted_qv_discrepancy(fine)[0]
        assert 1.5 <= ratio <= 2.7


class TestEntropyBound:
    def test_equal_starts_zero_slack(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        report = g.entropy_bound_check(
            coeffs, schedule, 0.3, 0.3,
            at_clip(coeffs, schedule, 0.3, 0.3, controls, 512,
                    seed=51, clip_epsilon=0.01))
        assert report.estimate == 0.0
        assert report.bound == 0.0
        assert report.slack == 0.0
        assert report.passed

    def test_bound_value_high_precision(self):
        coeffs, band = schedule_example()
        schedule = g.make_schedule(0.81, coeffs, band, 1.0)
        bound = g.entropy_bound_value(schedule, 0.9, 0.0, 0.5)
        lam0 = mp.mpf("0.81") / 5 * (1 - mp.exp(-5))
        exact = mp.mpf("0.25") / (2 * mp.mpf("0.81") * mp.mpf("0.81") * lam0)
        assert bound == pytest.approx(float(exact), rel=1e-13)

    def test_bound_quadratic_in_separation(self):
        coeffs, band = schedule_example()
        schedule = g.make_schedule(0.81, coeffs, band, 1.0)
        b1 = g.entropy_bound_value(schedule, 0.9, 0.0, 0.5)
        b2 = g.entropy_bound_value(schedule, 0.9, 0.0, 1.0)
        assert b2 == pytest.approx(4.0 * b1, rel=1e-14)

    def test_estimate_below_bound(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        report = g.entropy_bound_check(
            coeffs, schedule, 0.0, 0.5,
            at_clip(coeffs, schedule, 0.0, 0.5, controls, 2048,
                    seed=52, clip_epsilon=0.01))
        assert report.passed
        assert report.slack >= -3.0 * report.std_error
        assert report.stiff_excluded == 0


class TestMomentBound:
    def test_equal_starts_equality(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        report = g.moment_bound_check(
            coeffs, schedule, -0.2, -0.2,
            at_clip(coeffs, schedule, -0.2, -0.2, controls, 512,
                    seed=61, clip_epsilon=0.01))
        assert report.estimate == pytest.approx(1.0, abs=1e-14)
        assert report.bound == pytest.approx(1.0, abs=1e-14)
        assert report.passed

    def test_bound_monotone_in_separation(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        gaps = [0.1 * 2 ** k for k in range(5)]
        bounds = [g.moment_bound_value(schedule, 0.9, 1.0, 0.0, gap)
                  for gap in gaps]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_estimate_below_bound(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        report = g.moment_bound_check(
            coeffs, schedule, 0.0, 0.5,
            at_clip(coeffs, schedule, 0.0, 0.5, controls, 2048,
                    seed=62, clip_epsilon=0.01))
        assert report.passed

    def test_equal_kappas_rejected(self, ou_model, unit_band):
        coeffs = ou_model
        schedule = g.make_schedule(1.0, coeffs, unit_band, 1.0)
        grid = g.TimeGrid(1.0, 64)
        controls = g.sample_controls("constants", unit_band, grid, 1, seed=0)
        with pytest.raises(CouplingError, match="entropy|log-Harnack"):
            g.moment_bound_check(
                coeffs, schedule, 0.0, 0.5,
                at_clip(coeffs, schedule, 0.0, 0.5, controls, 512,
                        seed=63, clip_epsilon=0.05))


def clip_sample(log_m, gap=None, eps=0.01, lam=0.1):
    """A hand-built ClipSample of one control with these log densities."""
    log_m = np.asarray(log_m, dtype=float)
    gap = np.zeros_like(log_m) if gap is None else np.asarray(gap, dtype=float)
    return g.ClipSample(epsilon=eps, clip_time=1.0 - eps, lambda_at_clip=lam,
                        gap=gap, log_m=log_m, n_excluded=0)


class TestBoundFlagsFlipAtTheirBand:
    """Each Monte Carlo bound check passes an estimate at most 3 standard
    errors above its bound, and fails one just past that."""

    LOG_M = np.linspace(-0.6, 0.9, 12)

    @staticmethod
    def mean_and_se(values):
        return (float(np.mean(values)),
                float(np.std(values, ddof=1) / math.sqrt(values.size)))

    @pytest.mark.parametrize("z,passed", [(2.99, True), (3.01, False)])
    def test_entropy(self, acc_setup, monkeypatch, z, passed):
        coeffs, band, schedule, grid, controls = acc_setup
        m = np.exp(self.LOG_M)
        est, se = self.mean_and_se(m * self.LOG_M)
        monkeypatch.setattr(coupling, "entropy_bound_value",
                            lambda *args: est - z * se)
        report = g.entropy_bound_check(coeffs, schedule, 0.0, 0.5,
                                       [clip_sample(self.LOG_M)])
        assert (report.estimate, report.std_error) == (est, se)
        assert report.passed is passed

    @pytest.mark.parametrize("z,passed", [(2.99, True), (3.01, False)])
    def test_moment(self, acc_setup, monkeypatch, z, passed):
        # The absolute band: a relative one, est <= bound (1 + 3 se/est),
        # would fail z = 2.99 as well, as se/est is about 0.3 here.
        coeffs, band, schedule, grid, controls = acc_setup
        a = coupling.moment_exponent_a(schedule.alpha, coeffs.kappa1,
                                       coeffs.kappa2)
        est, se = self.mean_and_se(np.exp((1.0 + a) * self.LOG_M))
        assert se / est > 0.05
        monkeypatch.setattr(coupling, "moment_bound_value",
                            lambda *args: est - z * se)
        report = g.moment_bound_check(coeffs, schedule, 0.0, 0.5,
                                      [clip_sample(self.LOG_M)])
        assert (report.estimate, report.std_error) == (est, se)
        assert report.passed is passed

    @pytest.mark.parametrize("row", [0, 1, 2])
    @pytest.mark.parametrize("z,bounded", [(2.99, True), (3.01, False)])
    def test_each_trend_row(self, acc_setup, row, z, bounded):
        # Each row has two paths of unit density at gaps c -+ d: mean c,
        # standard error d. Row `row` sits at bound + z d, the others at
        # their bound.
        coeffs, band, schedule, grid, controls = acc_setup
        theory_C = 0.5 / math.sqrt(schedule.lambda0)
        d = 1e-3
        by_clip = {}
        for i, eps in enumerate((0.2, 0.1, 0.05)):
            lam = float(schedule.value(1.0 - eps))
            c = theory_C * math.sqrt(lam) + (z * d if i == row else 0.0)
            by_clip[eps] = [clip_sample(np.zeros(2), [c - d, c + d], eps, lam)]
        report = g.coupling_success_check(schedule, 0.0, 0.5, by_clip)
        for r in report.rows:
            assert r.std_error == pytest.approx(d, rel=1e-9)
        assert report.strictly_decreasing
        assert report.bounded is bounded
        assert report.passed is bounded


class TestCouplingSuccess:
    def test_equal_starts_all_zero(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        samples = sweep(coeffs, schedule, 0.1, 0.1, controls[:2], 128,
                        seed=71, epsilons=(0.2, 0.1))
        report = g.coupling_success_check(schedule, 0.1, 0.1, samples)
        assert all(r.weighted_mean == 0.0 for r in report.rows)
        assert all(r.weighted_median == 0.0 for r in report.rows)
        # gaps that are identically zero form an admissible trend
        assert report.strictly_decreasing and report.bounded
        assert report.passed

    @staticmethod
    def trend_of(schedule, means):
        """The report of one control whose every path has gap `mean` at the
        clip node of each epsilon of (0.2, 0.1, 0.05)."""
        by_clip = {eps: [g.ClipSample(
            epsilon=eps, clip_time=1.0 - eps,
            lambda_at_clip=float(schedule.value(1.0 - eps)),
            gap=np.full(4, mean), log_m=np.zeros(4), n_excluded=0)]
            for eps, mean in zip((0.2, 0.1, 0.05), means)}
        return g.coupling_success_check(schedule, 0.0, 0.5, by_clip)

    @pytest.mark.parametrize("means,decreasing", [
        ((0.3, 0.2, 0.1), True),
        ((0.3, 0.1, 0.0), True),
        ((0.3, 0.3, 0.1), False),    # positive and flat
        ((0.2, 0.3, 0.1), False),    # positive and rising
        ((0.0, 0.1, 0.0), False),    # rises from zero
    ])
    def test_positive_means_must_drop(self, acc_setup, means, decreasing):
        coeffs, band, schedule, grid, controls = acc_setup
        report = self.trend_of(schedule, means)
        assert report.strictly_decreasing is decreasing
        assert report.passed is (decreasing and report.bounded)

    def test_sweep_trend_and_bound(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        samples = sweep(coeffs, schedule, 0.0, 0.5, controls, 1024, seed=72,
                        epsilons=(0.2, 0.1, 0.05, 0.025))
        report = g.coupling_success_check(schedule, 0.0, 0.5, samples)
        assert report.strictly_decreasing
        assert report.bounded
        assert report.passed
        assert report.fitted_C <= report.theory_C

    def test_schedule_vanishes_with_clip(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        lams = [float(schedule.value(1.0 - eps))
                for eps in (0.2, 0.1, 0.05, 0.025)]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        assert lams[-1] < 0.02


SWEEP = (0.2, 0.1, 0.05, 0.025)
# Rows made non-finite at step 61 of 64, between the clip nodes of 0.05
# (node 60) and 0.025 (node 62); rows on both sides of 64.
LATE_ROWS = np.arange(5, 256, 37)


def poisoned(w, rows, step=61):
    """A copy of `w` with +inf at `step` in `rows`: those paths turn
    non-finite in that step, and the finiteness guard excludes them."""
    w = w.copy()
    w[rows, step] = np.inf
    return w


class TestAllPathsExcluded:
    def test_error_names_the_control_and_count(self, multiplicative_model,
                                                pinched_band):
        coeffs = multiplicative_model
        schedule = g.make_schedule(0.81, coeffs, pinched_band, 1.0)
        grid = g.TimeGrid(1.0, 64)
        controls = g.sample_controls("constants", pinched_band, grid, 2, seed=3)
        # every row turns non-finite in step 10, before the clip node of 0.25
        w = poisoned(scaled_increments(5, 4, grid), slice(None), step=10)
        run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls, [0.25],
                                 w)
        assert [np.count_nonzero(b.stiff_step < grid.n_steps)
                for b in run.heads] == [4, 4]
        samples = run.at_clip(0.25)
        with pytest.raises(CouplingError, match="control 0: all 4 paths"):
            g.entropy_bound_check(coeffs, schedule, 0.0, 0.5, samples)
        with pytest.raises(CouplingError, match="control 0: all 4 paths"):
            g.moment_bound_check(coeffs, schedule, 0.0, 0.5, samples)
        with pytest.raises(CouplingError, match=r"control 0 \(clip_epsilon "
                                                r"0.25\): all 4 paths"):
            g.coupling_success_check(schedule, 0.0, 0.5, {0.25: samples})


class TestStabilityBound:
    def test_ratio_scales_as_inverse_distance_to_cap(self,
                                                     multiplicative_model,
                                                     pinched_band):
        coeffs = multiplicative_model
        grid = g.TimeGrid(1.0, 64)
        cap = 2.0 * coeffs.kappa1 ** 2 / coeffs.kappa2 ** 2
        ratios = {alpha: coupling.stability_ratio(
                      g.make_schedule(alpha, coeffs, pinched_band, 1.0),
                      pinched_band.sigma_upper, grid, 0.025)
                  for alpha in (0.81, 1.55)}
        assert ratios[0.81] == pytest.approx(0.77, abs=0.005)
        assert ratios[1.55] == pytest.approx(8.86, abs=0.005)
        assert ratios[1.55] == pytest.approx(
            ratios[0.81] * (cap - 0.81) / (cap - 1.55), rel=1e-12)

    def test_no_active_step_gives_zero(self, multiplicative_model,
                                       pinched_band):
        schedule = g.make_schedule(0.81, multiplicative_model, pinched_band,
                                   1.0)
        assert coupling.stability_ratio(schedule, 1.1, g.TimeGrid(1.0, 1),
                                        0.25) == 0.0

    def test_simulate_refuses_ratio_above_one(self, multiplicative_model,
                                              pinched_band):
        # alpha = 1.55 on 64 steps: r = 8.86 before the node of clip 0.025
        coeffs = multiplicative_model
        schedule, controls, w = TestOnePassSweep.make_case(
            coeffs, pinched_band, 1.55)
        grid = controls[0].grid
        policy = g.PolicyTable(grid=grid,
                               x_nodes=np.linspace(-8.0, 8.0, 5),
                               hi_mask=np.zeros((grid.n_steps, 5), dtype=bool),
                               band=pinched_band)
        # the band's upper level sets r, whatever levels the control uses
        for control in (controls[0], policy):
            with pytest.raises(CouplingError, match=r"r = 8\.86"):
                g.simulate_bundle(coeffs, schedule, 0.0, 0.5, control, 0.025,
                                   w)


class TestOnePassSweep:
    """A bundle simulated at the smallest clip holds every larger clip's
    node exactly as a bundle simulated at that clip does."""

    @staticmethod
    def make_case(coeffs, band, alpha):
        schedule = g.make_schedule(alpha, coeffs, band, 1.0)
        grid = g.TimeGrid(1.0, 64)
        controls = g.sample_controls("constants", band, grid, 2, seed=3)
        return schedule, controls, scaled_increments(91, 256, grid)

    @staticmethod
    def assert_same(one_pass, separate):
        for name in ("gap", "log_m"):
            assert getattr(one_pass, name).tobytes() == \
                getattr(separate, name).tobytes(), name
        for name in ("epsilon", "clip_time", "lambda_at_clip", "n_excluded"):
            assert getattr(one_pass, name) == getattr(separate, name), name

    # 0 * inf where g is frozen to zero: the guard's event, not an error
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("poison", [False, True],
                             ids=["0.81", "0.81-late_exclusion"])
    def test_nodes_match_separate_bundles(self, multiplicative_model,
                                          pinched_band, poison):
        coeffs = multiplicative_model
        schedule, controls, w = self.make_case(coeffs, pinched_band, 0.81)
        if poison:
            w = poisoned(w, LATE_ROWS)
        for c in controls:
            run = g.simulate_bundle(coeffs, schedule, 0.0, 0.5, c,
                                     min(SWEEP), w)
            swept = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, [c], SWEEP,
                                       w)
            for eps in SWEEP:
                alone = g.simulate_bundle(coeffs, schedule, 0.0, 0.5, c, eps,
                                           w)
                (sample,) = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, [c],
                                               [eps], w).at_clip(eps)
                self.assert_same(swept.at_clip(eps)[0], sample)
                assert shifted_qv_discrepancy(run, eps) == \
                    shifted_qv_discrepancy(alone)

    def test_path_excluded_between_nodes(self, multiplicative_model,
                                         pinched_band):
        coeffs = multiplicative_model
        schedule, controls, w = self.make_case(coeffs, pinched_band, 0.81)
        w = poisoned(w, LATE_ROWS)
        run = g.simulate_bundle(coeffs, schedule, 0.0, 0.5, controls[1],
                                 0.025, w)
        late = np.nonzero(run.stiff_step == 61)[0]
        assert np.array_equal(late, LATE_ROWS)
        assert np.count_nonzero(run.stiff_step < run.grid.n_steps) == late.size
        assert np.all(run.included(0.05)[late])
        assert not np.any(run.included(0.025)[late])
        swept = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, [controls[1]],
                                   [0.05, 0.025], w)
        assert swept.at_clip(0.05)[0].n_excluded == 0
        assert swept.at_clip(0.025)[0].n_excluded == late.size
        assert swept.at_clip(0.025)[0].log_m.size == 256 - late.size
        assert np.all(np.isfinite(run.x_path)) and \
            np.all(np.isfinite(run.log_m_path))

    def test_shifted_qv_with_every_path_excluded(self, multiplicative_model,
                                                 pinched_band):
        # a bundle of only the rows excluded in step 61 keeps every path at
        # the node of 0.05 and none at the node of 0.025
        coeffs = multiplicative_model
        schedule, controls, w = self.make_case(coeffs, pinched_band, 0.81)
        alone = g.simulate_bundle(coeffs, schedule, 0.0, 0.5, controls[1],
                                   0.025, poisoned(w, LATE_ROWS)[LATE_ROWS])
        assert np.all(alone.stiff_step == 61)
        assert all(map(math.isfinite, shifted_qv_discrepancy(alone, 0.05)))
        with pytest.raises(CouplingError,
                           match=f"clip_epsilon 0.025: all {LATE_ROWS.size} "
                                 "paths"):
            shifted_qv_discrepancy(alone, 0.025)

    def test_clip_below_the_bundles_own_rejected(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        bundle = coupled(coeffs, schedule, 0.0, 0.5, controls[0], seed=92,
                         clip_epsilon=0.05, n_paths=8)
        bundle.node(0.1)
        for eps in (0.025, 0.049):
            with pytest.raises(CouplingError, match="below the bundle"):
                bundle.node(eps)
            with pytest.raises(CouplingError, match="below the bundle"):
                shifted_qv_discrepancy(bundle, eps)

    def test_head_is_a_copy_of_a_smaller_bundle(self, acc_setup):
        # each path reads only its own row of w, also when rows past the
        # head are excluded: the export rows of a stacked run are a
        # one-control bundle on those rows of w alone, at every node the
        # head keeps (its clip node for x, y and log M)
        coeffs, band, schedule, grid, controls = acc_setup
        clip_node = coupling._clip_index(grid, 0.025)
        clean = scaled_increments(93, 256, grid)
        for w in (clean, poisoned(clean, LATE_ROWS)):
            run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls,
                                     [0.025], w)
            assert [s.n_excluded for s in run.at_clip(0.025)] == \
                [0 if w is clean else LATE_ROWS.size] * len(controls)
            for control, head in zip(controls, run.heads):
                small = g.simulate_bundle(coeffs, schedule, 0.0, 0.5,
                                          control, 0.025,
                                          w[:coupling.EXPORT_PATHS])
                assert head.stiff_step.shape == (coupling.EXPORT_PATHS,)
                assert head.nodes == (clip_node,)
                for name in ("w", "levels", "x_path", "y_path", "g_path",
                             "log_m_path", "stiff_step"):
                    want = getattr(small, name)
                    if name in ("x_path", "y_path", "log_m_path"):
                        want = want[:, list(head.nodes)]
                    assert getattr(head, name).tobytes() == want.tobytes(), \
                        name
                    assert not getattr(head, name).flags.writeable, name


class TestBundleExport:
    def test_csv_columns(self, acc_setup, tmp_path):
        coeffs, band, schedule, grid, controls = acc_setup
        bundles = [
            coupled(coeffs, schedule, 0.0, 0.5, c, seed=81,
                    clip_epsilon=0.01, n_paths=4)
            for c in controls[:2]
        ]
        write_outputs(tmp_path, [], {"paths": bundles}, [], None)
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert lines[0] == "control_id,path_id,clip_time,x,y,abs_gap,m,log_m"
        assert len(lines) == 1 + 2 * 4
        cells = lines[1].split(",")
        assert cells[0] == "0" and cells[1] == "0"
        t, x, y, log_m = bundles[0].at_node()
        assert cells[2:6] == [repr(t), repr(float(x[0])), repr(float(y[0])),
                              repr(abs(float(x[0]) - float(y[0])))]
        assert float(cells[6]) == pytest.approx(math.exp(float(cells[7])))
        assert cells[7] == repr(float(log_m[0]))

    def test_export_reads_a_node_the_rows_kept(self, acc_setup, tmp_path):
        # a stacked run's export rows keep x, y and log M at its clip nodes
        # only: paths.csv reads one of them, and refuses any other node,
        # leaving no paths.csv
        coeffs, band, schedule, grid, controls = acc_setup
        w = scaled_increments(82, 8, grid)
        run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls[:2],
                                 [0.01, 0.1], w)
        assert [head.nodes for head in run.heads] == [(460, 506)] * 2
        bundles = [coupled(coeffs, schedule, 0.0, 0.5, c, seed=82,
                           clip_epsilon=0.01, n_paths=8) for c in controls[:2]]
        for eps in (0.1, 0.01):
            write_outputs(tmp_path / "run", [], {"paths": run.heads}, [], eps)
            write_outputs(tmp_path / "alone", [], {"paths": bundles}, [], eps)
            assert (tmp_path / "run" / "paths.csv").read_bytes() == \
                (tmp_path / "alone" / "paths.csv").read_bytes()
        with pytest.raises(CouplingError,
                           match=r"node 486 is not kept: \(460, 506\)"):
            write_outputs(tmp_path / "refused", [], {"paths": run.heads}, [],
                          0.05)
        assert not (tmp_path / "refused" / "paths.csv").exists()


def reference_coupled(coeffs, schedule, x0, y0, control, clip_epsilon, w):
    """The coupled Euler loop written path-major, one strided column per
    step, with the finiteness guard applied path by path. Returns the
    arrays by PathBundle field name."""
    grid = control.grid
    n_paths, n_steps = w.shape
    dt = grid.dt
    clip_index = coupling._clip_index(grid, clip_epsilon)
    levels = np.empty((n_paths, n_steps))
    x = np.full(n_paths, float(x0))
    y = np.full(n_paths, float(y0))
    logm = np.zeros(n_paths)
    x_path = np.empty((n_paths, n_steps + 1))
    y_path = np.empty((n_paths, n_steps + 1))
    g_path = np.zeros((n_paths, n_steps + 1))
    logm_path = np.zeros((n_paths, n_steps + 1))
    x_path[:, 0] = x
    y_path[:, 0] = y
    stiff_step = np.full(n_paths, n_steps)
    lam_nodes = schedule.value(grid.nodes)

    def euler(xs, sx, dqv, dB):
        return xs + coeffs.b(xs) * dt + coeffs.h(xs) * dqv + sx * dB

    for j in range(n_steps):
        lv = reference_levels(control, j, x)
        levels[:, j] = lv
        dB = lv * w[:, j]
        dqv = lv * lv * dt
        sx = coeffs.sigma(x)
        sy = coeffs.sigma(y)
        g = (x - y) / (float(lam_nodes[j]) * sx) if j < clip_index \
            else np.zeros_like(x)
        g_path[:, j] = g
        with np.errstate(over="ignore", invalid="ignore"):
            xn = euler(x, sx, dqv, dB)
            yn = euler(y, sy, dqv, dB) + sy * g * dqv
            lmn = logm - g * dB - 0.5 * g * g * dqv
        for p in range(n_paths):
            if not (math.isfinite(xn[p]) and math.isfinite(yn[p])
                    and math.isfinite(lmn[p])):
                stiff_step[p] = min(stiff_step[p], j)
                xn[p], yn[p], lmn[p] = x[p], y[p], logm[p]
        x, y, logm = xn, yn, lmn
        x_path[:, j + 1] = x
        y_path[:, j + 1] = y
        logm_path[:, j + 1] = logm
    return {"w": w, "levels": levels, "x_path": x_path, "y_path": y_path,
            "g_path": g_path, "log_m_path": logm_path,
            "stiff_step": stiff_step}


def reference_shifted_qv(arrays, dt, j, keep):
    """shifted_qv_discrepancy on path-major arrays: every term from the clip
    node on is zero; the energy sums the terms before the clip node."""
    dB = arrays["levels"] * arrays["w"]
    dqv = arrays["levels"] ** 2 * dt
    g = arrays["g_path"][:, :-1]
    with np.errstate(invalid="ignore"):
        terms = (dB + g * dqv) ** 2 - dB ** 2
    terms[:, j:] = 0.0
    disc = np.abs(np.sum(terms, axis=1))
    energy = np.sum((g * g * dqv)[:, :j], axis=1)
    return float(np.mean(disc[keep])), float(np.mean(energy[keep]))


class TestTimeMajorCoupledKernel:
    """The stacked, time-major coupled kernel gives, bit for bit, what the
    path-major loop gives one control at a time, with and without excluded
    paths."""

    FIELDS = ("w", "levels", "x_path", "y_path", "g_path", "log_m_path",
              "stiff_step")
    # Kept by an export row at the run's clip nodes only.
    NODE_FIELDS = ("x_path", "y_path", "log_m_path")

    @staticmethod
    def assert_run_matches(run, controls, refs, dt):
        """Every clip sample and every export row of a stacked run, at every
        node the row keeps, against the path-major loop of each control."""
        n_head = coupling.EXPORT_PATHS
        clip_nodes = sorted({coupling._clip_index(controls[0].grid, eps)
                             for eps in run.samples})
        for eps in run.samples:
            for sample, ref in zip(run.at_clip(eps), refs):
                j = coupling._clip_index(controls[0].grid, eps)
                keep = ref["stiff_step"] >= j
                logm = ref["log_m_path"][keep, j]
                gap = np.abs(ref["x_path"][keep, j] - ref["y_path"][keep, j])
                assert sample.log_m.tobytes() == logm.tobytes()
                assert sample.gap.tobytes() == gap.tobytes()
                assert sample.n_excluded == keep.size - np.count_nonzero(keep)
        for head, ref in zip(run.heads, refs):
            assert head.nodes == tuple(clip_nodes)
            for name in TestTimeMajorCoupledKernel.FIELDS:
                want = ref[name][:n_head]
                if name in TestTimeMajorCoupledKernel.NODE_FIELDS:
                    want = want[:, clip_nodes]
                assert getattr(head, name).tobytes() == want.tobytes(), name
            head_ref = {k: v[:n_head] for k, v in ref.items()}
            for eps in SWEEP:
                j = head.node(eps)
                assert shifted_qv_discrepancy(head, eps) == \
                    reference_shifted_qv(head_ref, dt, j,
                                         head_ref["stiff_step"] >= j)

    # 0 * inf where g is frozen to zero: the guard's event, not an error
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("guard", [None, "late_exclusion"])
    @pytest.mark.parametrize("control_id", [0, 1])
    def test_every_array_equals_path_major_loop(self, multiplicative_model,
                                                 pinched_band, guard,
                                                 control_id):
        coeffs = multiplicative_model
        schedule, controls, w = TestOnePassSweep.make_case(
            coeffs, pinched_band, 0.81)
        if guard == "late_exclusion":
            w = poisoned(w, LATE_ROWS)
        control = controls[control_id]
        bundle = g.simulate_bundle(coeffs, schedule, 0.0, 0.5, control,
                                   0.025, w)
        refs = [reference_coupled(coeffs, schedule, 0.0, 0.5, c, 0.025, w)
                for c in controls]
        ref = refs[control_id]
        for name in self.FIELDS:
            got = getattr(bundle, name)
            assert got.shape == ref[name].shape, name
            assert got.tobytes() == ref[name].tobytes(), name
            assert not got.flags.writeable, name
        dt = control.grid.dt
        for eps in SWEEP:
            j = bundle.node(eps)
            keep = ref["stiff_step"] >= j
            assert shifted_qv_discrepancy(bundle, eps) == \
                reference_shifted_qv(ref, dt, j, keep)
        assert np.count_nonzero(bundle.stiff_step < bundle.grid.n_steps) == \
            (0 if guard is None else LATE_ROWS.size)
        # the stacked run of the whole family, from control_id on
        run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5,
                                 controls[control_id:], SWEEP, w)
        self.assert_run_matches(run, controls[control_id:],
                                refs[control_id:], dt)

    # 0 * inf where g is frozen to zero: the guard's event, not an error
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_mixed_feedback_family_with_exclusions(self, multiplicative_model,
                                                   pinched_band):
        # a feedback row between a bang-bang and a constant control, inf
        # written into a few rows of w between the clip nodes of 0.05 and
        # 0.025
        coeffs = multiplicative_model
        schedule, controls, w = TestOnePassSweep.make_case(
            coeffs, pinched_band, 0.81)
        grid = controls[0].grid
        hi_mask = np.zeros((grid.n_steps, 5), dtype=bool)
        hi_mask[:, 2:] = True  # the upper level at states above -4
        policy = g.PolicyTable(grid=grid,
                               x_nodes=np.linspace(-8.0, 8.0, 5),
                               hi_mask=hi_mask, band=pinched_band)
        bang_bang = g.sample_controls("bang_bang", pinched_band, grid, 1,
                                      seed=3)[0]
        family = [bang_bang, policy, controls[1]]
        w = poisoned(w, LATE_ROWS)
        refs = [reference_coupled(coeffs, schedule, 0.0, 0.5, c, 0.025, w)
                for c in family]
        assert len(np.unique(refs[1]["levels"])) == 2
        run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, family,
                                 (0.1, *SWEEP), w)
        self.assert_run_matches(run, family, refs, grid.dt)
        assert [s.n_excluded for s in run.at_clip(0.025)] == [LATE_ROWS.size] * 3
        assert [s.n_excluded for s in run.at_clip(0.05)] == [0] * 3
        with pytest.raises(CouplingError, match="0.3 was not recorded"):
            run.at_clip(0.3)

    def test_two_clips_on_one_node(self, acc_setup):
        # 0.01 and 0.0101 share node 506 of 512: each keeps its sample
        coeffs, band, schedule, grid, controls = acc_setup
        w = scaled_increments(96, 64, grid)
        run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls[:2],
                                 [0.0101, 0.01], w)
        for a, b in zip(run.at_clip(0.01), run.at_clip(0.0101)):
            assert (a.epsilon, b.epsilon) == (0.01, 0.0101)
            assert a.clip_time == b.clip_time
            assert a.log_m.tobytes() == b.log_m.tobytes()

    def test_first_rows_are_a_run_on_those_rows(self, acc_setup):
        # the per-path stream promise: every statistic of a stacked run on
        # w[:m] is read off the first m rows of a taller run
        coeffs, band, schedule, grid, controls = acc_setup
        w = scaled_increments(95, 300, grid)
        tall = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls,
                                  [0.01, 0.1], w)
        short = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls,
                                   [0.01, 0.1], w[:200])
        for eps in (0.01, 0.1):
            for a, b in zip(tall.at_clip(eps), short.at_clip(eps)):
                for name in ("gap", "log_m"):
                    assert getattr(a, name)[:200].tobytes() == \
                        getattr(b, name).tobytes(), name
        for a, b in zip(tall.heads, short.heads):
            assert a.x_path.tobytes() == b.x_path.tobytes()

    def test_time_nodes_are_contiguous_rows(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        bundle = coupled(coeffs, schedule, 0.0, 0.5, controls[2], seed=94,
                         clip_epsilon=0.01, n_paths=32)
        for name in ("x_path", "y_path", "g_path", "log_m_path"):
            assert getattr(bundle, name).T.flags.c_contiguous, name
        assert bundle.w.flags.c_contiguous
        # an open-loop control's level at a step is one value for all paths
        assert bundle.levels.strides[0] == 0

    def test_export_rows_keep_w_as_drawn(self, acc_setup):
        # the export block keeps the rows PathIncrements drew for it, not a
        # copy of them; rows of a caller's array are copied out of it
        coeffs, band, schedule, grid, controls = acc_setup
        drawn = []

        class Recording(g.PathIncrements):
            def __getitem__(self, rows):
                drawn.append(super().__getitem__(rows))
                return drawn[-1]

        run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls[:2],
                                 [0.01], Recording(97, 200, grid))
        assert all(head.w is drawn[-1] for head in run.heads)
        w = scaled_increments(97, 200, grid)
        kept = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls[:2],
                                  [0.01], w).heads[0].w
        assert not np.shares_memory(kept, w)
        assert kept.tobytes() == w[:coupling.EXPORT_PATHS].tobytes() == \
            drawn[-1].tobytes()


class TestPathBlocks:
    """A coupled run advanced in blocks of paths gives, bit for bit, what
    larger blocks give, and what the path-major loop gives."""

    @staticmethod
    def assert_same_run(blocked, one):
        assert blocked.samples.keys() == one.samples.keys()
        for eps in one.samples:
            for a, b in zip(blocked.at_clip(eps), one.at_clip(eps)):
                TestOnePassSweep.assert_same(a, b)
        for a, b in zip(blocked.heads, one.heads):
            assert (a.nodes, a.clip_index) == (b.nodes, b.clip_index)
            for name in TestTimeMajorCoupledKernel.FIELDS:
                assert getattr(a, name).tobytes() == \
                    getattr(b, name).tobytes(), name

    # 0 * inf where g is frozen to zero: the guard's event, not an error
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_blocked_equals_one_block(self, multiplicative_model,
                                      pinched_band, monkeypatch):
        # 300 paths: the non-export rows in blocks of 128 and 44, in path
        # order, then the 128 export rows as their own block; a feedback
        # control in the family, rows of the first and the export block
        # made non-finite early, and one row of the 44 excluded between the
        # clip nodes of 0.05 and 0.025
        coeffs = multiplicative_model
        schedule = g.make_schedule(0.81, coeffs, pinched_band, 1.0)
        grid = g.TimeGrid(1.0, 64)
        hi_mask = np.zeros((grid.n_steps, 5), dtype=bool)
        hi_mask[:, 2:] = True
        policy = g.PolicyTable(grid=grid,
                               x_nodes=np.linspace(-8.0, 8.0, 5),
                               hi_mask=hi_mask, band=pinched_band)
        family = [policy,
                  *g.sample_controls("bang_bang", pinched_band, grid, 2,
                                     seed=3)]
        clean = scaled_increments(97, 300, grid)
        w = poisoned(poisoned(clean, [5, 130, 200, 255], step=10), [270])
        sizes = []
        kernel = coupling._coupled_pass

        def counted(coeffs, schedule, controls, clip_index, w, *args):
            sizes.append(w.shape[0])
            return kernel(coeffs, schedule, controls, clip_index, w, *args)

        monkeypatch.setattr(coupling, "_coupled_pass", counted)
        runs = {}
        for rows in (128, 300):
            monkeypatch.setattr("gharnack.plan._PATH_BLOCK_BYTES",
                                rows * 8 * grid.n_steps)
            runs[rows] = g.simulate_coupled(coeffs, schedule, 0.0, 0.5,
                                            family, (0.1, *SWEEP), w)
        assert sizes == [128, 44, 128, 172, 128]
        self.assert_same_run(runs[128], runs[300])
        assert [s.n_excluded for s in runs[128].at_clip(0.05)] == [4] * 3
        assert [s.n_excluded for s in runs[128].at_clip(0.025)] == [5] * 3
        assert [np.count_nonzero(h.stiff_step < grid.n_steps)
                for h in runs[128].heads] == [1] * 3
        refs = [reference_coupled(coeffs, schedule, 0.0, 0.5, c, 0.025, w)
                for c in family]
        TestTimeMajorCoupledKernel.assert_run_matches(runs[128], family, refs,
                                                      grid.dt)
        # the increments drawn a block at a time are the array's rows
        monkeypatch.setattr("gharnack.plan._PATH_BLOCK_BYTES",
                            128 * 8 * grid.n_steps)
        drawn = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, family, SWEEP,
                                   g.PathIncrements(97, 300, grid))
        self.assert_same_run(drawn, g.simulate_coupled(
            coeffs, schedule, 0.0, 0.5, family, SWEEP, clean))
