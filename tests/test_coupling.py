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
    """The path-major reference on the first n_paths rows of the seed's
    increments: every node of every path, g at every step included."""
    w = scaled_increments(seed, n_paths, control.grid)
    return reference_coupled(coeffs, schedule, x0, y0, control, clip_epsilon,
                             w)


def one_control(coeffs, schedule, x0, y0, control, seed, epsilons, n_paths):
    """The coupled run of one control on the first n_paths rows of the
    seed's increments."""
    w = scaled_increments(seed, n_paths, control.grid)
    return g.simulate_coupled(coeffs, schedule, x0, y0, [control], epsilons,
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
    """Statistics at every node and step read off the path-major reference,
    which TestTimeMajorCoupledKernel pins to the kernel; those at a clip
    node read off the kernel itself."""

    def test_equal_starts_stay_coupled(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        ref = coupled(coeffs, schedule, 0.4, 0.4, controls[2],
                      seed=21, clip_epsilon=0.01, n_paths=64)
        assert np.array_equal(ref["x_path"], ref["y_path"])
        assert np.all(ref["g_path"] == 0.0)
        assert np.all(ref["log_m_path"] == 0.0)
        assert np.all(np.exp(ref["log_m_path"]) == 1.0)
        (sample,) = at_clip(coeffs, schedule, 0.4, 0.4, controls[2:3], 64,
                            seed=21, clip_epsilon=0.01)
        assert np.all(sample.gap == 0.0) and np.all(sample.log_m == 0.0)

    def test_g_bound_every_step(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        ref = coupled(coeffs, schedule, 0.0, 0.5, controls[4],
                      seed=22, clip_epsilon=0.01, n_paths=256)
        lam = schedule.value(grid.nodes)
        for j in range(coupling._clip_index(grid, 0.01)):
            gap = np.abs(ref["x_path"][:, j] - ref["y_path"][:, j])
            bound = gap / (lam[j] * coeffs.kappa1)
            assert np.all(np.abs(ref["g_path"][:, j]) <= bound * (1 + 1e-12))

    def test_gap_median_decreases_with_clip(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        medians = []
        for eps in (0.2, 0.1, 0.05):
            (sample,) = at_clip(coeffs, schedule, 0.0, 0.5, controls[2:3],
                                1024, seed=23, clip_epsilon=eps)
            medians.append(float(np.median(sample.gap)))
        assert medians[0] > medians[1] > medians[2]

    def test_fine_reference_confirms_trend(self, acc_setup):
        # brute-force refinement: a 4x finer grid reproduces the decrease
        coeffs, band, schedule, grid, controls = acc_setup
        fine_grid = g.TimeGrid(1.0, 2048)
        fine_controls = g.sample_controls("constants", band, fine_grid, 5, seed=3)
        medians = []
        for eps in (0.2, 0.05):
            (sample,) = at_clip(coeffs, schedule, 0.0, 0.5,
                                fine_controls[2:3], 512, seed=23,
                                clip_epsilon=eps)
            medians.append(float(np.median(sample.gap)))
        assert medians[0] > medians[1]

    def test_clip_epsilon_validated(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        for eps in (0.0, -0.1, 0.3):
            with pytest.raises(CouplingError):
                one_control(coeffs, schedule, 0.0, 0.5, controls[0],
                            seed=1, epsilons=[eps], n_paths=1)

    def test_bit_reproducible(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        r1, r2 = (one_control(coeffs, schedule, 0.0, 0.5, controls[1],
                              seed=31, epsilons=[0.01, 0.1], n_paths=32)
                  for _ in range(2))
        for eps in (0.01, 0.1):
            (a,), (b,) = r1.at_clip(eps), r2.at_clip(eps)
            assert a.log_m.tobytes() == b.log_m.tobytes()
            assert a.gap.tobytes() == b.gap.tobytes()
            assert r1.heads[eps][0].tobytes() == r2.heads[eps][0].tobytes()

    def test_density_positive_and_martingale_proxy(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        # the reference on blocks of 2048 rows: each path reads its own row
        w = scaled_increments(33, 8192, grid)
        log_m = np.concatenate([
            reference_coupled(coeffs, schedule, 0.0, 0.5, controls[3], 0.01,
                              w[first:first + 2048])["log_m_path"]
            for first in range(0, 8192, 2048)])
        assert np.all(np.exp(log_m) > 0.0)
        assert np.all(log_m[:, 0] == 0.0)
        quarter = grid.n_steps // 4
        for j in (quarter, 2 * quarter, 3 * quarter,
                  coupling._clip_index(grid, 0.01)):
            m = np.exp(log_m[:, j])
            se = float(np.std(m, ddof=1) / math.sqrt(m.size))
            assert abs(float(np.mean(m)) - 1.0) <= 3.0 * se


class TestShiftedQv:
    def test_zero_shift_exact(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        run = one_control(coeffs, schedule, 0.2, 0.2, controls[0],
                          seed=41, epsilons=[0.01], n_paths=64)
        # x = y: g, and so the shift and its energy, are exactly zero
        assert shifted_qv_discrepancy(run, 0.01) == (0.0, 0.0)

    def test_bounded_shift_within_tolerance(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        run = one_control(coeffs, schedule, 0.0, 0.5, controls[-1],
                          seed=42, epsilons=[0.01], n_paths=512)
        assert shifted_qv_discrepancy(run, 0.01)[0] <= \
            10.0 * grid.dt * grid.horizon

    def test_refinement_halves_discrepancy(self, acc_setup, monkeypatch):
        # all 512 paths are export rows
        monkeypatch.setattr(coupling, "EXPORT_PATHS", 512)
        coeffs, band, schedule, grid, controls = acc_setup
        fine_grid = g.TimeGrid(1.0, 1024)
        fine_control = g.sample_controls("constants", band, fine_grid, 5,
                                         seed=3)[-1]
        coarse = one_control(coeffs, schedule, 0.0, 0.5, controls[-1],
                             seed=43, epsilons=[0.01], n_paths=512)
        fine = one_control(coeffs, schedule, 0.0, 0.5, fine_control,
                           seed=43, epsilons=[0.01], n_paths=512)
        ratio = shifted_qv_discrepancy(coarse, 0.01)[0] / \
            shifted_qv_discrepancy(fine, 0.01)[0]
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
    # inf - inf in the shifted-QV terms of an export row made non-finite:
    # the guard's event, not an error
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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
        assert [np.count_nonzero(~included)
                for included in run.head_at(0.25)[2]] == [4, 4]
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
                g.simulate_coupled(coeffs, schedule, 0.0, 0.5, [control],
                                   [0.025], w)


class TestOnePassSweep:
    """A run simulated at the smallest clip holds every larger clip's node
    exactly as a run simulated at that clip does."""

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

    @staticmethod
    def assert_same_head(one_pass, separate, eps):
        t, head, included = one_pass.head_at(eps)
        assert t == separate.head_at(eps)[0]
        assert head.tobytes() == separate.head_at(eps)[1].tobytes()
        assert np.array_equal(included, separate.head_at(eps)[2])

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
            swept = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, [c], SWEEP,
                                       w)
            for eps in SWEEP:
                alone = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, [c],
                                           [eps], w)
                self.assert_same(swept.at_clip(eps)[0], alone.at_clip(eps)[0])
                self.assert_same_head(swept, alone, eps)
                assert shifted_qv_discrepancy(swept, eps) == \
                    shifted_qv_discrepancy(alone, eps)

    # 0 * inf where g is frozen to zero: the guard's event, not an error
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_path_excluded_between_nodes(self, multiplicative_model,
                                         pinched_band):
        coeffs = multiplicative_model
        schedule, controls, w = self.make_case(coeffs, pinched_band, 0.81)
        w = poisoned(w, LATE_ROWS)
        ref = reference_coupled(coeffs, schedule, 0.0, 0.5, controls[1],
                                0.025, w)
        late = np.nonzero(ref["stiff_step"] == 61)[0]
        assert np.array_equal(late, LATE_ROWS)
        assert np.count_nonzero(ref["stiff_step"] < 64) == late.size
        swept = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, [controls[1]],
                                   [0.05, 0.025], w)
        assert swept.at_clip(0.05)[0].n_excluded == 0
        assert swept.at_clip(0.025)[0].n_excluded == late.size
        assert swept.at_clip(0.025)[0].log_m.size == 256 - late.size
        n_head = coupling.EXPORT_PATHS
        assert np.all(swept.head_at(0.05)[2])
        _, head, included = swept.head_at(0.025)
        assert np.array_equal(np.nonzero(~included[0])[0],
                              late[late < n_head])
        assert np.all(np.isfinite(head[:3]))

    # 0 * inf where g is frozen to zero: the guard's event, not an error
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_shifted_qv_with_every_path_excluded(self, multiplicative_model,
                                                 pinched_band):
        # a run of only the rows excluded in step 61 keeps every path at
        # the node of 0.05 and none at the node of 0.025
        coeffs = multiplicative_model
        schedule, controls, w = self.make_case(coeffs, pinched_band, 0.81)
        alone = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, [controls[1]],
                                   [0.05, 0.025],
                                   poisoned(w, LATE_ROWS)[LATE_ROWS])
        assert not np.any(alone.head_at(0.025)[2])
        assert all(map(math.isfinite, shifted_qv_discrepancy(alone, 0.05)))
        with pytest.raises(CouplingError,
                           match=f"clip_epsilon 0.025: all {LATE_ROWS.size} "
                                 "paths"):
            shifted_qv_discrepancy(alone, 0.025)

    def test_clip_below_the_bundles_own_rejected(self, acc_setup):
        # a run holds the clip nodes it recorded and no other, also none
        # past its own clip, where g was already frozen
        coeffs, band, schedule, grid, controls = acc_setup
        run = one_control(coeffs, schedule, 0.0, 0.5, controls[0], seed=92,
                          epsilons=[0.05, 0.1], n_paths=8)
        run.head_at(0.1)
        shifted_qv_discrepancy(run, 0.1)
        for eps in (0.025, 0.049, 0.2):
            for read in (run.at_clip, run.head_at,
                         lambda e: shifted_qv_discrepancy(run, e)):
                with pytest.raises(CouplingError,
                                   match="was not recorded; the run holds "
                                         "0.05, 0.1"):
                    read(eps)

    # 0 * inf where g is frozen to zero: the guard's event, not an error
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_head_is_a_copy_of_a_smaller_bundle(self, acc_setup):
        # each path reads only its own row of w, also when rows past the
        # export rows are excluded: the export record of a 2048-path run is
        # bit for bit that of a run on the first EXPORT_PATHS rows alone,
        # (x, y, log M) and both shifted-QV sums at every clip node
        coeffs, band, schedule, grid, controls = acc_setup
        n_head = coupling.EXPORT_PATHS
        clean = scaled_increments(93, 2048, grid)
        for w in (clean, poisoned(clean, LATE_ROWS * 7, step=470)):
            run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls,
                                     [0.025, 0.1], w)
            small = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls,
                                       [0.025, 0.1], w[:n_head])
            assert [s.n_excluded for s in run.at_clip(0.025)] == \
                [0 if w is clean else LATE_ROWS.size] * len(controls)
            for eps in (0.025, 0.1):
                t, head, included = run.head_at(eps)
                assert head.shape == (5, len(controls), n_head)
                assert included.shape == (len(controls), n_head)
                assert not head.flags.writeable
                self.assert_same_head(run, small, eps)


def export_paths(run, eps):
    """The paths.csv artifact of a run: each control's (t, x, y, log M) of
    its export rows at the clip node of `eps`."""
    t, head, _ = run.head_at(eps)
    return [(t, *rows) for rows in zip(*head[:3])]


class TestBundleExport:
    def test_csv_columns(self, acc_setup, tmp_path):
        coeffs, band, schedule, grid, controls = acc_setup
        w = scaled_increments(81, 4, grid)
        run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls[:2],
                                 [0.01], w)
        write_outputs(tmp_path, [], {"paths": export_paths(run, 0.01)}, [])
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert lines[0] == "control_id,path_id,clip_time,x,y,abs_gap,m,log_m"
        assert len(lines) == 1 + 2 * 4
        cells = lines[1].split(",")
        assert cells[0] == "0" and cells[1] == "0"
        t, (x, y, log_m, *_), _ = run.head_at(0.01)
        x, y, log_m = float(x[0, 0]), float(y[0, 0]), float(log_m[0, 0])
        assert cells[2:6] == [repr(t), repr(x), repr(y), repr(abs(x - y))]
        assert float(cells[6]) == pytest.approx(math.exp(float(cells[7])))
        assert cells[7] == repr(log_m)
        assert lines[5].split(",")[:2] == ["1", "0"]

    def test_export_reads_a_node_the_rows_kept(self, acc_setup, tmp_path):
        # a run's export rows keep x, y and log M at its clip nodes only:
        # paths.csv reads one of them, as a run at that clip alone writes
        # it, and any other clip is refused
        coeffs, band, schedule, grid, controls = acc_setup
        w = scaled_increments(82, 8, grid)
        run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls[:2],
                                 [0.01, 0.1], w)
        for eps in (0.1, 0.01):
            alone = g.simulate_coupled(coeffs, schedule, 0.0, 0.5,
                                       controls[:2], [eps], w)
            write_outputs(tmp_path / "run", [],
                          {"paths": export_paths(run, eps)}, [])
            write_outputs(tmp_path / "alone", [],
                          {"paths": export_paths(alone, eps)}, [])
            assert (tmp_path / "run" / "paths.csv").read_bytes() == \
                (tmp_path / "alone" / "paths.csv").read_bytes()
        with pytest.raises(CouplingError,
                           match="clip_epsilon 0.05 was not recorded"):
            export_paths(run, 0.05)


def reference_coupled(coeffs, schedule, x0, y0, control, clip_epsilon, w):
    """The coupled Euler loop written path-major, one strided column per
    step, with the finiteness guard applied path by path: w, the levels and
    g at every step, and x, y and log M at every node of every path, with
    the step each path was excluded in (n_steps if never)."""
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
        bad = ~(np.isfinite(xn) & np.isfinite(yn) & np.isfinite(lmn))
        stiff_step[bad] = np.minimum(stiff_step[bad], j)
        xn[bad], yn[bad], lmn[bad] = x[bad], y[bad], logm[bad]
        x, y, logm = xn, yn, lmn
        x_path[:, j + 1] = x
        y_path[:, j + 1] = y
        logm_path[:, j + 1] = logm
    return {"w": w, "levels": levels, "x_path": x_path, "y_path": y_path,
            "g_path": g_path, "log_m_path": logm_path,
            "stiff_step": stiff_step}


def reference_shifted_qv(arrays, dt, j):
    """Per path, the shifted-QV cross term (g dqv + dB)^2 - dB^2 and the
    energy g^2 dqv, each summed in step order over the steps before node
    j."""
    cross = np.zeros(arrays["w"].shape[0])
    energy = np.zeros_like(cross)
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(j):
            lv, g = arrays["levels"][:, i], arrays["g_path"][:, i]
            dB = lv * arrays["w"][:, i]
            dqv = lv * lv * dt
            shift = g * dqv + dB
            cross += shift * shift - dB * dB
            energy += g * g * dqv
    return cross, energy


class TestTimeMajorCoupledKernel:
    """The stacked, time-major coupled kernel gives, bit for bit, what the
    path-major loop gives one control at a time, with and without excluded
    paths."""

    @staticmethod
    def assert_run_matches(run, controls, refs, dt):
        """Every clip sample and the export record of a stacked run, at
        every clip node, against the path-major loop of each control."""
        n_head = coupling.EXPORT_PATHS
        for eps in run.samples:
            j = coupling._clip_index(controls[0].grid, eps)
            for sample, ref in zip(run.at_clip(eps), refs):
                keep = ref["stiff_step"] >= j
                logm = ref["log_m_path"][keep, j]
                gap = np.abs(ref["x_path"][keep, j] - ref["y_path"][keep, j])
                assert sample.log_m.tobytes() == logm.tobytes()
                assert sample.gap.tobytes() == gap.tobytes()
                assert sample.n_excluded == keep.size - np.count_nonzero(keep)
            _, head, included = run.head_at(eps)
            means = []
            for x, y, logm, cross, energy, inc, ref in zip(*head, included,
                                                            refs):
                want = {k: v[:n_head] for k, v in ref.items()}
                keep = want["stiff_step"] >= j
                assert np.array_equal(inc, keep)
                for got, name in ((x, "x_path"), (y, "y_path"),
                                  (logm, "log_m_path")):
                    assert got.tobytes() == want[name][:, j].tobytes(), name
                sums = reference_shifted_qv(want, dt, j)
                assert cross[keep].tobytes() == sums[0][keep].tobytes()
                assert energy[keep].tobytes() == sums[1][keep].tobytes()
                means.append((float(np.mean(np.abs(sums[0][keep]))),
                              float(np.mean(sums[1][keep]))))
            assert shifted_qv_discrepancy(run, eps) == \
                tuple(map(max, zip(*means)))

    # 0 * inf where g is frozen to zero: the guard's event, not an error
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("guard", [None, "late_exclusion"])
    @pytest.mark.parametrize("control_id", [0, 1])
    def test_every_array_equals_path_major_loop(self, multiplicative_model,
                                                 pinched_band, guard,
                                                 control_id):
        # the kernel's pass asked for every node: (|x - y|, log M) of every
        # path, and the export record of every path, x, y, log M and both
        # shifted-QV sums, at every node
        coeffs = multiplicative_model
        schedule, controls, w = TestOnePassSweep.make_case(
            coeffs, pinched_band, 0.81)
        if guard == "late_exclusion":
            w = poisoned(w, LATE_ROWS)
        control = controls[control_id]
        n_paths, n_steps = w.shape
        nodes = list(range(n_steps + 1))
        record = np.empty((2, n_steps + 1, 1, n_paths))
        head = np.empty((5, n_steps + 1, 1, n_paths))
        stiff_step = np.full((1, n_paths), n_steps)
        clip_index = coupling._clip_index(control.grid, 0.025)
        coupling._coupled_pass(coeffs, schedule, [control], clip_index, w,
                               (0.0, 0.5), nodes, record, stiff_step, head)
        refs = [reference_coupled(coeffs, schedule, 0.0, 0.5, c, 0.025, w)
                for c in controls]
        ref = refs[control_id]
        assert stiff_step[0].tobytes() == ref["stiff_step"].tobytes()
        x, y, logm, cross, energy = head[:, :, 0].transpose(0, 2, 1)
        for got, name in ((x, "x_path"), (y, "y_path"),
                          (logm, "log_m_path")):
            assert got.tobytes() == ref[name].tobytes(), name
        gap = np.abs(ref["x_path"] - ref["y_path"])
        assert record[0, :, 0].T.tobytes() == gap.tobytes()
        assert record[1, :, 0].T.tobytes() == ref["log_m_path"].tobytes()
        dt = control.grid.dt
        for j in nodes:
            keep = ref["stiff_step"] >= j
            sums = reference_shifted_qv(ref, dt, min(j, clip_index))
            assert cross[keep, j].tobytes() == sums[0][keep].tobytes(), j
            assert energy[keep, j].tobytes() == sums[1][keep].tobytes(), j
        assert np.count_nonzero(ref["stiff_step"] < n_steps) == \
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
        assert run.head_at(0.01)[1].tobytes() == \
            run.head_at(0.0101)[1].tobytes()

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
            TestOnePassSweep.assert_same_head(tall, short, eps)


class TestPathBlocks:
    """A coupled run advanced in blocks of paths gives, bit for bit, what
    larger blocks give, and what the path-major loop gives."""

    @staticmethod
    def assert_same_run(blocked, one):
        assert blocked.samples.keys() == one.samples.keys()
        for eps in one.samples:
            for a, b in zip(blocked.at_clip(eps), one.at_clip(eps)):
                TestOnePassSweep.assert_same(a, b)
            TestOnePassSweep.assert_same_head(blocked, one, eps)

    # 0 * inf where g is frozen to zero: the guard's event, not an error
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_blocked_equals_one_block(self, multiplicative_model,
                                      pinched_band, monkeypatch):
        # 300 paths in blocks of 128, 128 and 44 in path order, the first
        # holding the 128 export rows, and in blocks of 50 after a first
        # one widened to the export rows; a feedback control in the family,
        # rows of the export rows and of the next block made non-finite
        # early, and one row of the 44 excluded between the clip nodes of
        # 0.05 and 0.025
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
        for rows in (50, 128, 300):
            monkeypatch.setattr("gharnack.plan._PATH_BLOCK", rows)
            runs[rows] = g.simulate_coupled(coeffs, schedule, 0.0, 0.5,
                                            family, (0.1, *SWEEP), w)
        assert sizes == [128, 50, 50, 50, 22, 128, 128, 44, 300]
        self.assert_same_run(runs[50], runs[300])
        self.assert_same_run(runs[128], runs[300])
        assert [s.n_excluded for s in runs[128].at_clip(0.05)] == [4] * 3
        assert [s.n_excluded for s in runs[128].at_clip(0.025)] == [5] * 3
        assert [np.count_nonzero(~included)
                for included in runs[128].head_at(0.025)[2]] == [1] * 3
        refs = [reference_coupled(coeffs, schedule, 0.0, 0.5, c, 0.025, w)
                for c in family]
        TestTimeMajorCoupledKernel.assert_run_matches(runs[128], family, refs,
                                                      grid.dt)
        # the increments drawn a window at a time are the array's rows
        monkeypatch.setattr("gharnack.plan._PATH_BLOCK", 128)
        drawn = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, family, SWEEP,
                                   g.PathIncrements(97, 300, grid))
        self.assert_same_run(drawn, g.simulate_coupled(
            coeffs, schedule, 0.0, 0.5, family, SWEEP, clean))


class TestEssFloor:
    """A clip sample is refused when its weights M are worth fewer than two
    draws (Kish's effective sample size), whatever their scale."""

    @pytest.mark.parametrize("shift", [0.0, -1000.0])
    def test_two_equal_weights_pass(self, shift):
        sample = clip_sample(np.full(2, shift))
        assert sample.require_included("control 0") is sample

    @pytest.mark.parametrize("shift", [0.0, -1000.0])
    def test_one_dominant_weight_is_refused(self, shift):
        # exp(-1000) underflows: the refusal reads exp(log M - max log M)
        sample = clip_sample(shift + np.array([0.0, -5.0, -6.0, -50.0]))
        with pytest.raises(CouplingError,
                           match=r"control 3: all 4 weights M = exp\(log M\) "
                                 r"at the clip node count as 1\.02 draws"):
            sample.require_included("control 3")
