"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line and enforcing its runtime budget."""

import math
import time

import numpy as np
import pytest
from mpmath import mp

import gharnack as g
from gharnack.cli import bundled_config_path, main
from gharnack.scenario import scaled_increments

mp.dps = 30

BUMP = g.make_payoff("shifted_bump", (0.1,))
LOG_BUMP = BUMP.log()


def _model(name):
    if name == "ou-classical":
        coeffs = g.ModelCoefficients(
            b=g.make_coefficient("affine", (0.0, -1.0)),
            h=g.make_coefficient("constant", (0.0,)),
            sigma=g.make_coefficient("constant", (1.0,)),
            K=1.0, kappa1=1.0, kappa2=1.0)
        return coeffs, g.VolatilityBand(1.0, 1.0)
    if name == "ou-banded":
        coeffs = g.ModelCoefficients(
            b=g.make_coefficient("affine", (0.0, -1.0)),
            h=g.make_coefficient("constant", (0.0,)),
            sigma=g.make_coefficient("constant", (1.0,)),
            K=1.0, kappa1=1.0, kappa2=1.0)
        return coeffs, g.VolatilityBand(0.9, 1.1)
    if name == "multiplicative":
        coeffs = g.ModelCoefficients(
            b=g.make_coefficient("affine", (0.0, -1.0)),
            h=g.make_coefficient("sine", (0.0, 0.05, 1.0)),
            sigma=g.make_coefficient("tanh", (0.95, 0.05, 1.0)),
            K=1.1, kappa1=0.9, kappa2=1.0)
        return coeffs, g.VolatilityBand(0.9, 1.1)
    raise ValueError(name)


OU_FAMILY = ("ou-classical", "ou-banded", "multiplicative")


class _Budget:
    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:02d}] {self.label}: {status} "
              f"({elapsed:.1f}s / {self.seconds:.0f}s budget)")
        if exc_type is None:
            assert elapsed <= self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds:.0f}s "
                f"runtime budget: {elapsed:.1f}s")
        return False


def test_criterion_01_g_variance_identities():
    with _Budget(1, "g-variance identities", 10.0):
        band = g.VolatilityBand(0.8, 1.2)
        cfg = g.PdeConfig(-8.0, 8.0, 1600)  # dx = 0.01
        up = g.solve_g_heat(g.make_payoff("quadratic"), band, 1.0, cfg)
        dn = g.solve_g_heat(g.make_payoff("neg_quadratic"), band, 1.0, cfg)
        assert abs(up(0.0) - 1.44) / 1.44 <= 0.01
        assert abs(dn(0.0) - (-0.64)) / 0.64 <= 0.01


def test_criterion_02_oracle_agreement():
    with _Budget(2, "feedback MC vs PDE oracle", 60.0):
        band = g.VolatilityBand(0.8, 1.2)
        T = 1.0
        grid = g.TimeGrid(T, 256)
        cfg = g.PdeConfig(-8.0, 8.0, 800)
        heat = g.ModelCoefficients(
            g.make_coefficient("constant", (0.0,)),
            g.make_coefficient("constant", (0.0,)),
            g.make_coefficient("constant", (1.0,)), 0.0, 1.0, 1.0)
        two_sided = {"quadratic", "neg_quadratic", "call"}
        payoffs = {name: g.make_payoff(name)
                   for name in ("quadratic", "neg_quadratic", "call",
                                "gauss_bump", "cosine", "tanh_step")}
        solved = g.solve_semigroups(heat, band, T, cfg, payoffs.values(),
                                    policy_grid=grid)
        for name, payoff in payoffs.items():
            pde = float(solved.fine[payoff](0.0))
            controls = g.sample_controls("feedback", band, grid, 5, seed=202,
                                         policy=solved.policy[payoff])
            est = g.upper_semigroup_mc(heat, payoff, 0.0, controls, 2 ** 14,
                                       seed=202)
            width = 3.0 * est.std_error + solved.tolerance(payoff, 0.0)
            assert est.value <= pde + width, name
            if name in two_sided:
                assert abs(est.value - pde) <= width, name


def test_criterion_03_schedule_identity():
    with _Budget(3, "schedule identity residual", 1.0):
        rng = np.random.default_rng(303)
        ts01 = np.linspace(0.0, 1.0, 1000)
        for _ in range(20):
            K = rng.uniform(0.1, 3.0)
            sl = rng.uniform(0.3, 1.5)
            k1 = rng.uniform(0.3, 1.5)
            k2 = k1 * rng.uniform(1.0, 1.8)
            T = rng.uniform(0.25, 3.0)
            alpha = rng.uniform(0.05, 0.95) * 2.0 * k1 ** 2 / k2 ** 2
            coeffs = g.ModelCoefficients(
                b=g.make_coefficient("constant", (0.0,)),
                h=g.make_coefficient("constant", (0.0,)),
                sigma=g.make_coefficient("constant", (k1,)),
                K=K, kappa1=k1, kappa2=k2)
            schedule = g.make_schedule(alpha, coeffs,
                                       g.VolatilityBand(sl, sl + 0.2), T)
            assert np.max(np.abs(schedule.identity_residual(ts01 * T))) <= 1e-8


def _acceptance_coupling_setup():
    coeffs, band = _model("multiplicative")
    T = 1.0
    schedule = g.make_schedule(0.81, coeffs, band, T)
    grid = g.TimeGrid(T, 512)
    controls = g.sample_controls("constants", band, grid, 9, seed=404)
    return coeffs, band, schedule, grid, controls


def test_criterion_04_entropy_bound():
    with _Budget(4, "entropy bound (M log M)", 120.0):
        coeffs, band, schedule, grid, controls = _acceptance_coupling_setup()
        w = scaled_increments(404, 2 ** 13, grid)
        samples = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls,
                                     [0.01], w).at_clip(0.01)
        report = g.entropy_bound_check(coeffs, schedule, 0.0, 0.5, samples)
        bound = mp.mpf("0.25") / (2 * mp.mpf("0.81") * mp.mpf("0.81")
                                  * mp.mpf(repr(schedule.lambda0)))
        assert report.bound == pytest.approx(float(bound), rel=1e-12)
        assert report.estimate <= report.bound + 3.0 * report.std_error
        assert report.passed


def test_criterion_05_moment_bound():
    with _Budget(5, "density moment bound", 120.0):
        coeffs, band, schedule, grid, controls = _acceptance_coupling_setup()
        a = g.moment_exponent_a(0.81, 0.9, 1.0)
        assert a == pytest.approx(1.6026568, abs=1e-6)
        w = scaled_increments(405, 2 ** 13, grid)
        samples = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls,
                                     [0.01], w).at_clip(0.01)
        report = g.moment_bound_check(coeffs, schedule, 0.0, 0.5, samples)
        rel = report.std_error / report.estimate
        assert report.estimate <= report.bound * (1.0 + 3.0 * rel)
        assert report.passed


def test_criterion_06_coupling_success_trend():
    with _Budget(6, "coupling success trend", 120.0):
        coeffs, band, schedule, grid, controls = _acceptance_coupling_setup()
        T = grid.horizon
        w = scaled_increments(406, 2 ** 13, grid)
        sweep = [frac * T for frac in (0.2, 0.1, 0.05, 0.025)]
        run = g.simulate_coupled(coeffs, schedule, 0.0, 0.5, controls, sweep,
                                 w)
        trend = g.coupling_success_check(
            schedule, 0.0, 0.5, {eps: run.at_clip(eps) for eps in sweep})
        means = [r.weighted_mean for r in trend.rows]
        assert all(a > b for a, b in zip(means, means[1:]))
        assert trend.bounded
        assert trend.fitted_C <= trend.theory_C
        assert trend.passed


def test_criterion_07_log_harnack_certificate():
    with _Budget(7, "log-Harnack certificates", 60.0):
        pts = np.linspace(-0.5, 0.5, 5)
        cfg = g.PdeConfig(-8.0, 8.0, 800)
        for name in OU_FAMILY:
            coeffs, band = _model(name)
            P = g.solve_semigroups(coeffs, band, 1.0, cfg, [BUMP, LOG_BUMP])
            for x in pts:
                for y in pts:
                    report = g.check_log_harnack(P, BUMP, LOG_BUMP, x, y)
                    assert report.slack >= -report.tolerance, (name, report)
                    if x == y:
                        assert report.slack >= 0.0, (name, report)


def test_criterion_08_power_harnack_certificate(tmp_path):
    with _Budget(8, "power-Harnack certificates", 60.0):
        coeffs, band = _model("multiplicative")
        threshold = g.power_threshold(0.9, 1.0)
        independent = float((1 + (1 - mp.mpf("0.9")) / mp.mpf("0.9") ** 3) ** 2)
        assert round(threshold, 6) == round(independent, 6)
        assert abs(threshold - 1.293165) < 5e-7
        cfg = g.PdeConfig(-8.0, 8.0, 800)
        powers = {p: BUMP.power(p) for p in (1.5, 2.0, 4.0)}
        P = g.solve_semigroups(coeffs, band, 1.0, cfg,
                               [BUMP, *powers.values()])
        for p, f_p in powers.items():
            report = g.check_power_harnack(P, BUMP, f_p, 0.0, 0.5, p)
            assert report.slack >= -report.tolerance
            assert report.passed
        # inadmissible p must be refused at the CLI with exit code 2
        text = bundled_config_path().read_text().replace("p = 2.0", "p = 1.2")
        bad = tmp_path / "inadmissible_p.cfg"
        bad.write_text(text)
        code = main(["harnack", "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2


def test_criterion_09_gradient_estimate():
    with _Budget(9, "gradient estimate envelope", 30.0):
        cfg = g.PdeConfig(-8.0, 8.0, 800)
        for name in OU_FAMILY:
            coeffs, band = _model(name)
            P = g.solve_semigroups(coeffs, band, 1.0, cfg, [BUMP])
            report = g.check_gradient_estimate(P, BUMP, 33)
            assert report.lhs <= report.rhs + report.tolerance, name
            assert report.passed

        # classical sub-case: finite differences vs the Gaussian kernel
        heat = g.ModelCoefficients(
            g.make_coefficient("constant", (0.0,)),
            g.make_coefficient("constant", (0.0,)),
            g.make_coefficient("constant", (1.0,)), 1.0, 1.0, 1.0)
        unit = g.VolatilityBand(1.0, 1.0)
        payoff = g.make_payoff("gauss_bump")
        report = g.check_gradient_estimate(
            g.solve_semigroups(heat, unit, 1.0, cfg, [payoff]), payoff, 33)
        nodes, weights = np.polynomial.hermite_e.hermegauss(120)

        def kernel_gradient(x):
            vals = np.exp(-(x + nodes) ** 2) * nodes
            return float(np.sum(weights * vals) / math.sqrt(2 * math.pi))

        oracle = max(abs(kernel_gradient(x)) for x in np.linspace(-4, 4, 401))
        grid_tol = max(report.tolerance, 5e-4)
        assert abs(report.lhs - oracle) <= grid_tol
        assert report.passed


def test_criterion_10_young_inequality():
    with _Budget(10, "sublinear Young inequality", 5.0):
        worst = math.inf
        for P, g1, g2 in zip(*g.random_young_trials(0, 1000)):
            worst = min(worst, g.young_check(P, g1, g2).slack)
        assert worst >= -1e-12


def test_criterion_11_determinism(tmp_path):
    with _Budget(11, "suite determinism across runs", 300.0):
        outs = []
        for label in ("a", "b"):
            out = tmp_path / label
            assert main(["suite", "--out", str(out)]) == 0
            outs.append(out)
        files = ("report.json", "estimates.csv", "grid_u.csv", "paths.csv",
                 "reports.csv")
        for name in files:
            ref = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == ref, name
