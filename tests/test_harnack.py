import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

import gharnack as g
from gharnack.harnack import (
    HarnackError,
    log_harnack_constant,
    log_harnack_constant_generic,
    power_harnack_exponent,
    power_threshold,
)

from gharnack.cli import bundled_config_path, write_outputs
from gharnack.config import parse_run_config

from conftest import ou_semigroup_oracle

mp.dps = 30

BUMP = g.make_payoff("shifted_bump", (0.1,))
LOG_BUMP = BUMP.log()
BUMP_SQ = BUMP.power(2.0)


def solved(coeffs, band, cfg, *payoffs):
    """P_1 of the payoffs on cfg and its coarsened grid."""
    return g.solve_semigroups(coeffs, band, 1.0, cfg, payoffs)


def unsolved(coeffs, band):
    """The model alone, for checks that fail before reading a row."""
    return g.Semigroups(coeffs, band, 1.0, {}, {})


class TestLogHarnack:
    def test_ou_closed_form_oracle(self, ou_model, unit_band, pde_cfg):
        # both sides from the OU Gaussian semigroup; inequality strictly holds
        T, x, y = 1.0, 0.0, 0.5
        report = g.check_log_harnack(
            solved(ou_model, unit_band, pde_cfg, BUMP, LOG_BUMP), BUMP,
            LOG_BUMP, x, y)
        f = lambda z: 0.1 + np.exp(-z ** 2)
        lhs_oracle = ou_semigroup_oracle(lambda z: np.log(f(z)), y, T)
        rhs_oracle = math.log(ou_semigroup_oracle(f, x, T)) + \
            report.extras["constant_printed"] * (x - y) ** 2
        assert report.lhs == pytest.approx(lhs_oracle, abs=5e-3)
        assert report.rhs == pytest.approx(rhs_oracle, abs=5e-3)
        assert rhs_oracle - lhs_oracle > 0.1
        assert report.passed

    def test_diagonal_slack_is_jensen_gap(self, ou_model, unit_band, pde_cfg):
        report = g.check_log_harnack(
            solved(ou_model, unit_band, pde_cfg, BUMP, LOG_BUMP), BUMP,
            LOG_BUMP, 0.3, 0.3)
        assert report.slack >= 0.0
        assert report.passed

    def test_constant_payoff_slack_is_penalty(self, ou_model, unit_band,
                                              coarse_cfg):
        c = 0.7
        payoff = g.make_payoff("constant", (c,))
        log_c = payoff.log()
        report = g.check_log_harnack(
            solved(ou_model, unit_band, coarse_cfg, payoff, log_c), payoff,
            log_c, 0.0, 0.5)
        penalty = report.extras["constant_printed"] * 0.25
        assert report.lhs == pytest.approx(math.log(c), abs=1e-10)
        assert report.slack == pytest.approx(penalty, abs=1e-9)

    def test_rejects_payoff_without_floor(self, ou_model, unit_band, coarse_cfg):
        gauss = g.make_payoff("gauss_bump")
        with pytest.raises(g.ModelError):
            gauss.log()
        with pytest.raises(HarnackError):
            g.check_log_harnack(solved(ou_model, unit_band, coarse_cfg, gauss),
                                gauss, None, 0.0, 0.5)

    def test_printed_constant_equals_generic_at_star_alpha(
            self, multiplicative_model, pinched_band):
        coeffs, band = multiplicative_model, pinched_band
        printed = log_harnack_constant(coeffs.K, band.sigma_lower,
                                       coeffs.kappa1, coeffs.kappa2, 1.0)
        alpha_star = coeffs.kappa1 ** 2 / coeffs.kappa2 ** 2
        generic = log_harnack_constant_generic(coeffs, band, 1.0, alpha_star)
        assert printed == pytest.approx(generic, rel=1e-12)

    def test_constant_high_precision(self):
        # K=1.1, sigma_lower=0.9, kappa1=0.9, kappa2=1.0, T=1
        got = log_harnack_constant(1.1, 0.9, 0.9, 1.0, 1.0)
        cK = mp.mpf("1.1") * (2 + mp.mpf("1.1") + 2 / mp.mpf("0.81"))
        exact = cK / (2 * (mp.mpf("0.9") ** 6 / 1) *
                      (1 - mp.exp(-mp.mpf("0.81") * cK)))
        assert got == pytest.approx(float(exact), rel=1e-13)



class TestPowerHarnack:
    def test_threshold_six_digits(self):
        got = power_threshold(0.9, 1.0)
        exact = (1 + (1 - mp.mpf("0.9")) / mp.mpf("0.9") ** 3) ** 2
        assert got == pytest.approx(float(exact), rel=1e-13)
        assert f"{got:.5f}" == "1.29317"  # rounds from 1.2931651...

    def test_certificate_passes_admissible_p(self, multiplicative_model,
                                             pinched_band, coarse_cfg):
        powers = {p: BUMP.power(p) for p in (1.5, 2.0, 4.0)}
        P = solved(multiplicative_model, pinched_band, coarse_cfg, BUMP,
                   *powers.values())
        for p, f_p in powers.items():
            report = g.check_power_harnack(P, BUMP, f_p, 0.0, 0.5, p)
            assert report.passed
            assert report.a == pytest.approx(1.0 / (p - 1.0))
            assert report.q == pytest.approx(1.0 + math.sqrt(p))
            assert report.C == pytest.approx(0.1)

    def test_diagonal_holder_nonnegative(self, multiplicative_model,
                                         pinched_band, coarse_cfg):
        report = g.check_power_harnack(
            solved(multiplicative_model, pinched_band, coarse_cfg, BUMP,
                   BUMP_SQ), BUMP, BUMP_SQ, 0.2, 0.2, 2.0)
        assert report.slack >= -1e-12

    def test_constant_payoff(self, multiplicative_model, pinched_band,
                             coarse_cfg):
        payoff = g.make_payoff("constant", (0.5,))
        squared = payoff.power(2.0)
        report = g.check_power_harnack(
            solved(multiplicative_model, pinched_band, coarse_cfg, payoff,
                   squared), payoff, squared, 0.0, 0.5, 2.0)
        assert report.lhs == pytest.approx(0.25, abs=1e-10)
        assert report.rhs > report.lhs

    def test_rejects_p_at_or_below_threshold(self, multiplicative_model,
                                             pinched_band, coarse_cfg):
        threshold = power_threshold(0.9, 1.0)
        for p in (1.2, threshold):
            with pytest.raises(HarnackError, match="threshold"):
                g.check_power_harnack(
                    unsolved(multiplicative_model, pinched_band), BUMP,
                    BUMP.power(p), 0.0, 0.5, p)

    def test_rejects_equal_kappas(self, ou_model, unit_band, coarse_cfg):
        with pytest.raises(HarnackError, match="kappa2 > kappa1"):
            g.check_power_harnack(unsolved(ou_model, unit_band), BUMP,
                                  BUMP_SQ, 0.0, 0.5, 2.0)

    def test_rhs_grows_toward_threshold(self, multiplicative_model,
                                        pinched_band, coarse_cfg):
        threshold = power_threshold(0.9, 1.0)
        powers = {p: BUMP.power(p) for p in (threshold + 0.02, 1.4, 1.7, 2.2)}
        P = solved(multiplicative_model, pinched_band, coarse_cfg, BUMP,
                   *powers.values())
        rhs = [g.check_power_harnack(P, BUMP, f_p, 0.0, 0.5, p).rhs
               for p, f_p in powers.items()]
        assert all(a > b for a, b in zip(rhs, rhs[1:]))

    def test_printed_vs_moment_route_exponents(self, multiplicative_model,
                                               pinched_band, coarse_cfg):
        # the two routes to the exponential constant disagree; reports carry
        # both so the gap stays visible
        report = g.check_power_harnack(
            solved(multiplicative_model, pinched_band, coarse_cfg, BUMP,
                   BUMP_SQ), BUMP, BUMP_SQ, 0.0, 0.5, 2.0)
        assert report.extras["exponent_printed"] == pytest.approx(
            power_harnack_exponent(2.0, 1.1, 0.9, 0.9, 1.0, 1.0), rel=1e-12)
        assert report.extras["exponent_moment_route"] > \
            report.extras["exponent_printed"]


class TestGradientEstimate:
    def test_constant_payoff_zero_gradient(self, multiplicative_model,
                                           pinched_band, coarse_cfg):
        payoff = g.make_payoff("constant", (1.0,))
        report = g.check_gradient_estimate(
            solved(multiplicative_model, pinched_band, coarse_cfg, payoff),
            payoff, 33)
        assert report.lhs == pytest.approx(0.0, abs=1e-10)
        assert report.passed

    def test_bound_value_high_precision(self):
        # K=1, sigma_lower=1, kappa1=0.9, kappa2=1, T=1, alpha=0.81, ||f||=1
        lam0 = mp.mpf("0.81") / 5 * (1 - mp.exp(-5))
        exact = 2 / (mp.mpf("0.9") * mp.sqrt(mp.mpf("0.81") * lam0))
        got = g.gradient_bound(1.0, 0.9, 0.81, float(lam0))
        assert got == pytest.approx(float(exact), rel=1e-13)
        assert got == pytest.approx(6.1554, abs=2e-4)

    def test_envelope_minimum_at_star_alpha(self, multiplicative_model,
                                            pinched_band, coarse_cfg):
        report = g.check_gradient_estimate(
            solved(multiplicative_model, pinched_band, coarse_cfg, BUMP), BUMP,
            33)
        assert report.alpha == pytest.approx(0.81, rel=1e-12)
        assert report.passed

    def test_classical_heat_matches_kernel_oracle(self, heat_model, unit_band):
        T = 1.0
        cfg = g.PdeConfig(-8, 8, 800)
        payoff = g.make_payoff("gauss_bump")
        report = g.check_gradient_estimate(
            solved(heat_model, unit_band, cfg, payoff), payoff, 33)
        nodes, weights = np.polynomial.hermite_e.hermegauss(120)

        def kernel_gradient(x):
            z = nodes
            vals = np.exp(-(x + math.sqrt(T) * z) ** 2) * z / math.sqrt(T)
            return float(np.sum(weights * vals) / math.sqrt(2 * math.pi))

        oracle = max(abs(kernel_gradient(x)) for x in np.linspace(-4, 4, 401))
        assert report.lhs == pytest.approx(oracle, abs=5e-4)
        assert oracle <= math.sqrt(2.0 / (math.pi * T))
        assert report.passed

    @pytest.mark.parametrize("n_alpha",
                             [1, 2, 3, 10, 12, 30, 32, 33, 34, 60, 1000])
    def test_envelope_is_the_per_alpha_schedule_loop(self, n_alpha):
        # the envelope read at its middle alphas keeps the bits of a loop
        # that builds one schedule per alpha, and its first minimiser on a
        # tie; at 10, 12, 30 and 60 the upper of the two middle alphas wins
        cfg = parse_run_config(bundled_config_path())
        coeffs, band, T = cfg.coeffs, cfg.band, cfg.grid.horizon
        P = g.solve_semigroups(coeffs, band, T, g.PdeConfig(-8, 8, 100),
                               [cfg.payoff])
        cap = 2.0 * coeffs.kappa1 ** 2 / coeffs.kappa2 ** 2
        sl = band.sigma_lower
        c_K = coeffs.K * (2.0 + coeffs.K + 2.0 / sl ** 2)
        best_rhs, best_alpha = math.inf, None
        for alpha in np.linspace(0.01 * cap, 0.99 * cap, n_alpha).tolist():
            lambda0 = g.make_schedule(alpha, coeffs, band, T).lambda0
            # the schedule's lambda(0), written out as its own arithmetic
            amp = (cap - alpha) / c_K
            assert lambda0 == amp * (1.0 - math.exp(-sl ** 2 * c_K * T))
            rhs = cfg.payoff.sup_norm * 2.0 / (
                coeffs.kappa1 * math.sqrt(alpha * lambda0))
            if rhs < best_rhs:
                best_rhs, best_alpha = rhs, alpha
        report = g.check_gradient_estimate(P, cfg.payoff, n_alpha)
        assert report.rhs == best_rhs
        assert report.alpha == best_alpha
        assert report.extras["n_alpha"] == n_alpha

    def test_envelope_holds_no_array_over_alpha(self):
        # one or two evaluations of the envelope at any n_alpha: the peak
        # does not grow with it
        cfg = parse_run_config(bundled_config_path())
        P = g.solve_semigroups(cfg.coeffs, cfg.band, cfg.grid.horizon,
                               g.PdeConfig(-8, 8, 100), [cfg.payoff])
        for n_alpha in (10 ** 6, 10 ** 12 + 1):
            tracemalloc.start()
            try:
                report = g.check_gradient_estimate(P, cfg.payoff, n_alpha)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * 2 ** 10, n_alpha
            assert report.extras["n_alpha"] == n_alpha
            assert report.alpha == pytest.approx(0.81, rel=1e-5)

    def test_resolution_change_within_tolerance(self, heat_model, unit_band):
        payoff = g.make_payoff("gauss_bump")
        r1, r2 = (g.check_gradient_estimate(
            solved(heat_model, unit_band, g.PdeConfig(-8, 8, n), payoff),
            payoff, 33) for n in (400, 800))
        assert abs(r2.lhs - r1.lhs) <= r1.tolerance


class TestLipschitzTransport:
    def test_diagonal_zero(self, ou_model, unit_band, coarse_cfg):
        report = g.lipschitz_transport_check(
            solved(ou_model, unit_band, coarse_cfg, BUMP), BUMP, 0.4, 0.4)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == 0.0

    def test_bound_symmetric_under_swap(self, ou_model, unit_band, coarse_cfg):
        P = solved(ou_model, unit_band, coarse_cfg, BUMP)
        fwd = g.lipschitz_transport_check(P, BUMP, 0.0, 0.5)
        rev = g.lipschitz_transport_check(P, BUMP, 0.5, 0.0)
        assert fwd.rhs == pytest.approx(rev.rhs, rel=1e-14)
        assert fwd.lhs == pytest.approx(rev.lhs, rel=1e-12)

    def test_ou_separations_pass(self, ou_model, unit_band, pde_cfg):
        P = solved(ou_model, unit_band, pde_cfg, BUMP)
        for gap in (0.1, 0.5, 1.0):
            report = g.lipschitz_transport_check(P, BUMP, 0.0, gap)
            assert report.passed
            assert report.slack > 0.0


def written(tmp_path, *reports):
    """report.json and the lines of reports.csv that the CLI writes for
    `reports`."""
    entries = [dataclasses.asdict(r) for r in reports]
    write_outputs(tmp_path, entries, {}, [], None)
    return ((tmp_path / "report.json").read_text(),
            (tmp_path / "reports.csv").read_text().splitlines())


class TestReportSurface:
    def test_csv_row_shape(self, ou_model, unit_band, coarse_cfg, tmp_path):
        report = g.check_log_harnack(
            solved(ou_model, unit_band, coarse_cfg, BUMP, LOG_BUMP), BUMP,
            LOG_BUMP, 0.0, 0.5)
        header, row = written(tmp_path, report)[1]
        assert header == "kind,x,y,T,p,lhs,rhs,slack,tolerance,pass"
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        assert cells[0] == "log"
        assert cells[4] == ""  # p is empty for the log kind
        assert cells[5:7] == [repr(report.lhs), repr(report.rhs)]
        assert cells[-1] == "1"

    def test_slack_bit_reproducible(self, multiplicative_model, pinched_band,
                                    coarse_cfg, tmp_path):
        r1, r2 = (g.check_power_harnack(
            solved(multiplicative_model, pinched_band, coarse_cfg, BUMP,
                   BUMP_SQ), BUMP, BUMP_SQ, 0.0, 0.5, 2.0) for _ in range(2))
        assert r1.slack == r2.slack
        assert written(tmp_path / "1", r1) == written(tmp_path / "2", r2)

    def test_to_dict_json_clean(self, ou_model, unit_band, coarse_cfg,
                                tmp_path):
        # each certificate is serialised once, through dataclasses.asdict:
        # report.json holds its fields, reports.csv reads its row from them
        report = g.check_log_harnack(
            solved(ou_model, unit_band, coarse_cfg, BUMP, LOG_BUMP), BUMP,
            LOG_BUMP, 0.0, 0.5)
        text, _ = written(tmp_path, report)
        (entry,) = json.loads(text)
        assert entry == dataclasses.asdict(report)
        assert set(entry["extras"]) == {"constant_printed",
                                        "constant_generic_alpha"}
