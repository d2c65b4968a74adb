import math

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import solve_ivp

import gharnack as g
from gharnack import coupling
from gharnack.coupling import CouplingError, shifted_qv_discrepancy
from gharnack.scenario import scaled_increments

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
        assert np.all(schedule.derivative(ts) < 0.0)

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
        rng = np.random.default_rng(17)
        ts = np.linspace(0.0, 1.0, 1000)
        for _ in range(20):
            K = rng.uniform(0.1, 3.0)
            sl = rng.uniform(0.3, 1.5)
            k1 = rng.uniform(0.3, 1.5)
            k2 = k1 * rng.uniform(1.0, 1.8)
            T = rng.uniform(0.25, 3.0)
            cap = 2.0 * k1 ** 2 / k2 ** 2
            alpha = rng.uniform(0.05, 0.95) * cap
            coeffs = g.ModelCoefficients(
                b=g.make_coefficient("constant", (0.0,)),
                h=g.make_coefficient("constant", (0.0,)),
                sigma=g.make_coefficient("constant", (k1,)),
                K=K, kappa1=k1, kappa2=k2)
            schedule = g.make_schedule(alpha, coeffs,
                                       g.VolatilityBand(sl, sl + 0.1), T)
            residual = schedule.identity_residual(ts * T)
            assert np.max(np.abs(residual)) <= 1e-8

    def test_finite_difference_derivative_agrees(self):
        coeffs, band = schedule_example()
        schedule = g.make_schedule(0.81, coeffs, band, 1.0)
        step = 1e-6
        ts = np.linspace(0.1, 0.9, 33)
        fd = (schedule.value(ts + step) - schedule.value(ts - step)) / (2 * step)
        assert np.max(np.abs(fd - schedule.derivative(ts))) < 1e-7

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
        with pytest.raises(CouplingError, match="limit_schedule"):
            g.make_schedule(1.0, coeffs, unit_band, 1.0)

    def test_limit_schedule_form_and_identity(self, unit_band):
        coeffs = g.ModelCoefficients(
            b=g.make_coefficient("constant", (0.0,)),
            h=g.make_coefficient("constant", (0.0,)),
            sigma=g.make_coefficient("constant", (1.0,)),
            K=0.0, kappa1=1.0, kappa2=1.0)
        schedule = g.make_schedule(1.0, coeffs, unit_band, 2.0,
                                   limit_schedule=True)
        # lambda(t) = (2 - 1) * 1 * (T - t)
        assert schedule.value(0.0) == pytest.approx(2.0)
        assert schedule.value(2.0) == 0.0
        ts = np.linspace(0.0, 2.0, 1000)
        assert np.max(np.abs(schedule.identity_residual(ts))) <= 1e-12

    def test_limit_schedule_requires_zero_K(self):
        coeffs, band = schedule_example()
        with pytest.raises(CouplingError):
            g.make_schedule(0.81, coeffs, band, 1.0, limit_schedule=True)


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
    return g.simulate_coupled(coeffs, schedule, x0, y0, control, seed,
                              clip_epsilon, w)


def at_clip(coeffs, schedule, x0, y0, controls, n_paths, seed, clip_epsilon):
    """Clip-node samples of one bundle per control, on shared increments."""
    w = scaled_increments(seed, n_paths, controls[0].grid)
    return [g.simulate_coupled(coeffs, schedule, x0, y0, c, seed, clip_epsilon,
                               w).at_clip() for c in controls]


def sweep(coeffs, schedule, x0, y0, controls, n_paths, seed, epsilons):
    """Clip samples of a sweep, (epsilon, control) in control-major order:
    one bundle per control, simulated at the smallest clip."""
    w = scaled_increments(seed, n_paths, controls[0].grid)
    samples = []
    for c in controls:
        bundle = g.simulate_coupled(coeffs, schedule, x0, y0, c, seed,
                                    min(epsilons), w)
        samples.extend(bundle.at_clip(eps) for eps in epsilons)
    return samples


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
        assert np.all(bundle.m_path == 1.0)

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
        assert np.all(bundle.m_path > 0.0)
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
        assert shifted_qv_discrepancy(bundle) == 0.0
        assert g.girsanov_shifted_qv_check(bundle)

    def test_bounded_shift_within_tolerance(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        bundle = coupled(coeffs, schedule, 0.0, 0.5, controls[-1],
                         seed=42, clip_epsilon=0.01, n_paths=512)
        assert g.girsanov_shifted_qv_check(bundle)

    def test_refinement_halves_discrepancy(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        fine_grid = g.TimeGrid(1.0, 1024)
        fine_control = g.sample_controls("constants", band, fine_grid, 5,
                                         seed=3)[-1]
        coarse = coupled(coeffs, schedule, 0.0, 0.5, controls[-1],
                         seed=43, clip_epsilon=0.01, n_paths=512)
        fine = coupled(coeffs, schedule, 0.0, 0.5, fine_control,
                       seed=43, clip_epsilon=0.01, n_paths=512)
        ratio = shifted_qv_discrepancy(coarse) / shifted_qv_discrepancy(fine)
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


class TestCouplingSuccess:
    def test_equal_starts_all_zero(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        samples = sweep(coeffs, schedule, 0.1, 0.1, controls[:2], 128,
                        seed=71, epsilons=(0.2, 0.1))
        report = g.coupling_success_check(schedule, 0.1, 0.1, samples)
        assert all(r.weighted_mean == 0.0 for r in report.rows)
        assert all(r.weighted_median == 0.0 for r in report.rows)

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


class TestAllPathsExcluded:
    def test_error_names_the_control_and_count(self, multiplicative_model,
                                                pinched_band):
        # alpha next to the cap makes lambda tiny, so every path turns stiff
        coeffs = multiplicative_model
        cap = 2.0 * coeffs.kappa1 ** 2 / coeffs.kappa2 ** 2
        schedule = g.make_schedule(cap * (1.0 - 1e-6), coeffs, pinched_band, 1.0)
        grid = g.TimeGrid(1.0, 8)
        controls = g.sample_controls("constants", pinched_band, grid, 2, seed=3)
        w = scaled_increments(5, 4, grid)
        bundles = [g.simulate_coupled(coeffs, schedule, 0.0, 0.5, c, 5, 0.25, w)
                   for c in controls]
        assert [b.n_stiff for b in bundles] == [4, 4]
        samples = [b.at_clip() for b in bundles]
        with pytest.raises(CouplingError, match="control 0: all 4 paths"):
            g.entropy_bound_check(coeffs, schedule, 0.0, 0.5, samples)
        with pytest.raises(CouplingError, match="control 0: all 4 paths"):
            g.moment_bound_check(coeffs, schedule, 0.0, 0.5, samples)
        with pytest.raises(CouplingError, match=r"bundle 0 .*: all 4 paths"):
            g.coupling_success_check(schedule, 0.0, 0.5, samples)


SWEEP = (0.2, 0.1, 0.05, 0.025)


@pytest.fixture
def late_exclusion(monkeypatch):
    """Guard settings under which alpha = 1.55 and level 1.1 exclude about
    half the paths in step 61 of 64, between the clip nodes of 0.05 (node
    60) and 0.025 (node 62): no retry, and a threshold above |g| dt at every
    earlier step (at most 0.73) and near its median in step 61."""
    monkeypatch.setattr(coupling, "_STIFF_G_DT", 3.2)
    monkeypatch.setattr(coupling, "_MAX_HALVINGS", 0)


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
        for name in ("m", "gap", "log_m"):
            assert getattr(one_pass, name).tobytes() == \
                getattr(separate, name).tobytes(), name
        for name in ("epsilon", "clip_time", "lambda_at_clip", "n_excluded"):
            assert getattr(one_pass, name) == getattr(separate, name), name

    @pytest.mark.parametrize("alpha", [0.81, 1.55])
    def test_nodes_match_separate_bundles(self, multiplicative_model,
                                          pinched_band, late_exclusion, alpha):
        coeffs = multiplicative_model
        schedule, controls, w = self.make_case(coeffs, pinched_band, alpha)
        for c in controls:
            run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, c, 91,
                                     min(SWEEP), w)
            for eps in SWEEP:
                alone = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, c, 91,
                                           eps, w)
                self.assert_same(run.at_clip(eps), alone.at_clip())
                assert shifted_qv_discrepancy(run, eps) == \
                    shifted_qv_discrepancy(alone)

    def test_path_excluded_between_nodes(self, multiplicative_model,
                                         pinched_band, late_exclusion):
        coeffs = multiplicative_model
        schedule, controls, w = self.make_case(coeffs, pinched_band, 1.55)
        run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls[1], 91,
                                 0.025, w)
        late = np.nonzero(run.stiff_step == 61)[0]
        assert 0 < late.size < 256 and run.n_stiff == late.size
        assert np.all(run.included(0.05)[late])
        assert not np.any(run.included(0.025)[late])
        assert run.at_clip(0.05).n_excluded == 0
        assert run.at_clip(0.025).n_excluded == late.size
        assert run.at_clip(0.025).m.size == 256 - late.size

    def test_shifted_qv_with_every_path_excluded(self, multiplicative_model,
                                                 pinched_band, late_exclusion):
        # a bundle of only the rows excluded in step 61 keeps every path at
        # the node of 0.05 and none at the node of 0.025
        coeffs = multiplicative_model
        schedule, controls, w = self.make_case(coeffs, pinched_band, 1.55)
        run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls[1], 91,
                                 0.025, w)
        late = np.nonzero(run.stiff_step == 61)[0]
        alone = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls[1],
                                   91, 0.025, w[late])
        assert np.all(alone.stiff_step == 61)
        assert math.isfinite(shifted_qv_discrepancy(alone, 0.05))
        with pytest.raises(CouplingError,
                           match=f"clip_epsilon 0.025: all {late.size} paths"):
            shifted_qv_discrepancy(alone, 0.025)
        with pytest.raises(CouplingError, match="clip_epsilon 0.025"):
            g.girsanov_shifted_qv_check(alone)

    def test_clip_below_the_bundles_own_rejected(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        bundle = coupled(coeffs, schedule, 0.0, 0.5, controls[0], seed=92,
                         clip_epsilon=0.05, n_paths=8)
        bundle.at_clip(0.1)
        for eps in (0.025, 0.049):
            with pytest.raises(CouplingError, match="below the bundle"):
                bundle.at_clip(eps)
            with pytest.raises(CouplingError, match="below the bundle"):
                shifted_qv_discrepancy(bundle, eps)

    def test_head_is_a_copy_of_a_smaller_bundle(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        big = coupled(coeffs, schedule, 0.0, 0.5, controls[3], seed=93,
                      clip_epsilon=0.025, n_paths=256)
        small = coupled(coeffs, schedule, 0.0, 0.5, controls[3], seed=93,
                        clip_epsilon=0.025, n_paths=64)
        head = big.head(64)
        for name in ("w", "levels", "x_path", "y_path", "g_path",
                     "log_m_path", "stiff_step"):
            assert getattr(head, name).tobytes() == \
                getattr(small, name).tobytes(), name
            assert not np.shares_memory(getattr(head, name),
                                        getattr(big, name))


class TestBundleExport:
    def test_csv_columns(self, acc_setup, tmp_path):
        coeffs, band, schedule, grid, controls = acc_setup
        bundles = [
            coupled(coeffs, schedule, 0.0, 0.5, c, seed=81,
                    clip_epsilon=0.01, n_paths=4)
            for c in controls[:2]
        ]
        path = tmp_path / "paths.csv"
        from gharnack.coupling import export_bundle_csv
        export_bundle_csv(bundles, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "control_id,path_id,clip_time,x,y,abs_gap,m,log_m"
        assert len(lines) == 1 + 2 * 4
        cells = lines[1].split(",")
        assert cells[0] == "0" and cells[1] == "0"
        assert float(cells[6]) == pytest.approx(math.exp(float(cells[7])))


def reference_coupled(coeffs, schedule, x0, y0, control, seed, clip_epsilon,
                      w):
    """The coupled Euler loop written path-major, one strided column per
    step, with the kernel's stiff-step retry and guard settings read at call
    time. Returns the arrays by PathBundle field name."""
    grid = control.grid
    n_paths, n_steps = w.shape
    dt = grid.dt
    clip_index = coupling._clip_index(grid, clip_epsilon)
    stiff_g_dt, max_halvings = coupling._STIFF_G_DT, coupling._MAX_HALVINGS
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
    bridge_rng = None
    lam_nodes = schedule.value(grid.nodes)

    def euler(t, xs, sx, dt_loc, dqv, dB):
        return xs + coeffs.b(t, xs) * dt_loc + coeffs.h(t, xs) * dqv + sx * dB

    def one_step(xs, ys, lms, t, lam_t, lv, dW, dt_loc, with_g):
        dB = lv * dW
        dqv = lv * lv * dt_loc
        sx = coeffs.sigma(t, xs)
        sy = coeffs.sigma(t, ys)
        g = (xs - ys) / (lam_t * sx) if with_g else np.zeros_like(xs)
        xn = euler(t, xs, sx, dt_loc, dqv, dB)
        yn = euler(t, ys, sy, dt_loc, dqv, dB) + sy * g * dqv
        lmn = lms - g * dB - 0.5 * g * g * dqv
        return xn, yn, lmn, g

    for j in range(n_steps):
        t = float(grid.nodes[j])
        with_g = j < clip_index
        lam_t = float(lam_nodes[j]) if with_g else math.inf
        lv = np.asarray(control.level(j, t, x), dtype=float)
        levels[:, j] = lv
        xn, yn, lmn, g = one_step(x, y, logm, t, lam_t, lv, w[:, j], dt, with_g)
        g_path[:, j] = g
        trouble = np.abs(g) * dt > stiff_g_dt
        if trouble.any():
            if bridge_rng is None:
                bridge_rng = np.random.default_rng(np.random.Philox(
                    key=np.array([seed, 1 << 32], dtype=np.uint64)))
            for p in np.nonzero(trouble & (stiff_step == n_steps))[0]:
                ok = False
                for halving in range(1, max_halvings + 1):
                    n_sub = 2 ** halving
                    dt_sub = dt / n_sub
                    raw = bridge_rng.standard_normal((1, n_sub)) * \
                        math.sqrt(dt_sub)
                    sub_w = (raw - raw.mean(axis=1, keepdims=True)
                             + w[p:p + 1, j][:, None] / n_sub)[0]
                    xs, ys, lms = (x[p:p + 1].copy(), y[p:p + 1].copy(),
                                   logm[p:p + 1].copy())
                    fine = True
                    for s in range(n_sub):
                        ts = t + s * dt_sub
                        lam_s = float(schedule.value(ts)) if with_g else math.inf
                        xs2, ys2, lms2, g_s = one_step(
                            xs, ys, lms, ts, lam_s, lv[p:p + 1],
                            sub_w[s:s + 1], dt_sub, with_g)
                        if abs(float(g_s[0])) * dt_sub > stiff_g_dt:
                            fine = False
                            break
                        xs, ys, lms = xs2, ys2, lms2
                    if fine:
                        xn[p], yn[p], lmn[p] = xs[0], ys[0], lms[0]
                        ok = True
                        break
                if not ok:
                    stiff_step[p] = j
                    xn[p], yn[p], lmn[p] = x[p], y[p], logm[p]
        x, y, logm = xn, yn, lmn
        x_path[:, j + 1] = x
        y_path[:, j + 1] = y
        logm_path[:, j + 1] = logm
    return {"w": w, "levels": levels, "x_path": x_path, "y_path": y_path,
            "g_path": g_path, "log_m_path": logm_path,
            "stiff_step": stiff_step}


def reference_shifted_qv(arrays, dt, j, keep):
    """shifted_qv_discrepancy on path-major arrays."""
    dB = arrays["levels"] * arrays["w"]
    dqv = arrays["levels"] ** 2 * dt
    g = arrays["g_path"][:, :-1].copy()
    g[:, j:] = 0.0
    disc = np.abs(np.sum((dB + g * dqv) ** 2 - dB ** 2, axis=1))
    return float(np.mean(disc[keep]))


@pytest.fixture
def frequent_retry(monkeypatch):
    """A guard threshold under which alpha = 1.55 and level 1.1 retry every
    path in steps 0 and 61 of 64 with bridge substeps."""
    monkeypatch.setattr(coupling, "_STIFF_G_DT", 0.3)


class TestTimeMajorCoupledKernel:
    """The time-major coupled kernel gives, bit for bit, what the path-major
    loop gives, with and without stiff steps."""

    FIELDS = ("w", "levels", "x_path", "y_path", "g_path", "log_m_path",
              "stiff_step")

    @pytest.mark.parametrize("guard", [None, "late_exclusion",
                                       "frequent_retry"])
    @pytest.mark.parametrize("control_id", [0, 1])
    def test_every_array_equals_path_major_loop(self, request,
                                                 multiplicative_model,
                                                 pinched_band, guard,
                                                 control_id):
        if guard is not None:
            request.getfixturevalue(guard)
        coeffs = multiplicative_model
        alpha = 0.81 if guard is None else 1.55
        schedule, controls, w = TestOnePassSweep.make_case(
            coeffs, pinched_band, alpha)
        control = controls[control_id]
        bundle = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, control, 91,
                                    0.025, w)
        ref = reference_coupled(coeffs, schedule, 0.0, 0.5, control, 91,
                                0.025, w)
        for name in self.FIELDS:
            got = getattr(bundle, name)
            assert got.shape == ref[name].shape, name
            assert got.tobytes() == ref[name].tobytes(), name
            assert not got.flags.writeable, name
        head = bundle.head(64)
        for name in self.FIELDS:
            assert getattr(head, name).tobytes() == \
                ref[name][:64].tobytes(), name
        dt = control.grid.dt
        for eps in SWEEP:
            j = bundle.node(eps)
            keep = ref["stiff_step"] >= j
            if keep.any():
                assert shifted_qv_discrepancy(bundle, eps) == \
                    reference_shifted_qv(ref, dt, j, keep)
                assert shifted_qv_discrepancy(head, eps) == \
                    reference_shifted_qv(
                        {k: v[:64] for k, v in ref.items()}, dt, j, keep[:64])
        if guard == "late_exclusion" and control_id == 1:
            assert 0 < bundle.n_stiff < 256
        if guard == "frequent_retry" and control_id == 1:
            assert bundle.n_stiff == 0
            assert not np.array_equal(
                bundle.x_path,
                g.simulate_coupled(coeffs, schedule, 0.0, 0.5, control, 92,
                                   0.025, w).x_path)

    def test_time_nodes_are_contiguous_rows(self, acc_setup):
        coeffs, band, schedule, grid, controls = acc_setup
        bundle = coupled(coeffs, schedule, 0.0, 0.5, controls[2], seed=94,
                         clip_epsilon=0.01, n_paths=32)
        for name in ("levels", "x_path", "y_path", "g_path", "log_m_path"):
            assert getattr(bundle, name).T.flags.c_contiguous, name
        assert bundle.w.flags.c_contiguous
