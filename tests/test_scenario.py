import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import gharnack as g
from gharnack import plan, scenario
from gharnack.cli import bundled_config_path
from gharnack.gheat import _UNIT_COEFFS
from gharnack.model import PAYOFF_NAMES
from gharnack.plan import _W_BLOCK_STEPS
from gharnack.scenario import (
    ScenarioError,
    scaled_increments,
    simulate_state_batch,
)

from conftest import reference_levels


@pytest.fixture(scope="module")
def grid():
    return g.TimeGrid(1.0, 128)


def first_path(control, seed):
    """Row 0 of the seed's increments and B_T on it under the control: the
    state equation on the unit coefficients from 0."""
    w = scaled_increments(seed, 1, control.grid)
    return w, simulate_state_batch(_UNIT_COEFFS, [control], 0.0, w)[0]


def upper_mc(payoff, controls, n_paths, seed):
    """The sup over `controls` of the mean of payoff(B_T)."""
    return g.upper_semigroup_mc(_UNIT_COEFFS, payoff, 0.0, controls, n_paths,
                                seed)


def indicator(event):
    """The payoff 1{event(x)}: its upper expectation is the upper capacity
    of the terminal event."""
    return g.Payoff(lambda x: np.asarray(event(x), dtype=float), 0.0, 1.0,
                    name="indicator")


class TestSampleControls:
    def test_constants_include_endpoints(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 2, seed=0)
        assert len(controls) == 2
        assert np.all(controls[0].levels == wide_band.sigma_lower)
        assert np.all(controls[1].levels == wide_band.sigma_upper)

    def test_constants_evenly_spaced(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 5, seed=0)
        values = [c.levels[0] for c in controls]
        assert values == pytest.approx(np.linspace(0.8, 1.2, 5).tolist())

    def test_bang_bang_single_switch_midpoint(self, wide_band, grid):
        (control,) = g.sample_controls("bang_bang", wide_band, grid, 1, seed=0)
        switches = np.nonzero(np.diff(control.levels))[0]
        assert len(switches) == 1
        switch_time = grid.nodes[switches[0] + 1]
        assert switch_time == pytest.approx(0.5, abs=grid.dt)

    def test_degenerate_band_collapses(self, grid):
        band = g.VolatilityBand(0.9, 0.9)
        for strategy in ("constants", "bang_bang", "random", "feedback"):
            controls = g.sample_controls(strategy, band, grid, 4, seed=1)
            assert len(controls) == 1
            assert np.all(controls[0].levels == 0.9)

    def test_random_levels_stay_in_band(self, wide_band, grid):
        controls = g.sample_controls("random", wide_band, grid, 3, seed=9)
        for c in controls:
            assert c.levels.min() >= wide_band.sigma_lower
            assert c.levels.max() <= wide_band.sigma_upper
        assert not np.array_equal(controls[0].levels, controls[1].levels)

    def test_feedback_needs_policy(self, wide_band, grid):
        with pytest.raises(ScenarioError):
            g.sample_controls("feedback", wide_band, grid, 1, seed=0)

    def test_feedback_policy_is_recorded_on_the_grid(self, wide_band, grid):
        # the policy is the control: row j of its mask is step j, so a
        # policy recorded on another grid is refused, not read off by index
        _, policy = g.solve_g_heat(g.make_payoff("gauss_bump"), wide_band,
                                   grid.horizon, g.PdeConfig(-4, 4, 64),
                                   policy_grid=grid)
        (control,) = g.sample_controls("feedback", wide_band, grid, 1, seed=0,
                                       policy=policy)
        assert control is policy
        other = g.TimeGrid(grid.horizon, 2 * grid.n_steps)
        with pytest.raises(ScenarioError, match="another grid"):
            g.sample_controls("feedback", wide_band, other, 1, seed=0,
                              policy=policy)

    def test_control_outside_band_rejected(self, wide_band, grid):
        with pytest.raises(ScenarioError):
            g.ScenarioControl(grid, np.full(grid.n_steps, 2.0), wide_band)


class TestSimulateGbm:
    """Single B-paths, read at their terminal node."""

    def test_unit_control_reproduces_wiener(self, grid):
        band = g.VolatilityBand(1.0, 1.0)
        (control,) = g.sample_controls("constants", band, grid, 1, seed=0)
        w, b_T = first_path(control, seed=4)
        assert b_T.shape == (1,)
        assert b_T[0] == np.cumsum(w[0])[-1]

    def test_deterministic_given_control_and_seed(self, wide_band, grid):
        (control,) = g.sample_controls("bang_bang", wide_band, grid, 1, seed=0)
        _, b1 = first_path(control, seed=123)
        _, b2 = first_path(control, seed=123)
        assert np.array_equal(b1, b2)


class TestUpperExpectation:
    def test_terminal_square_hits_upper_variance(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 9, seed=0)
        est = upper_mc(g.make_payoff("quadratic"), controls, 4096, seed=2)
        assert est.best_control_id == 8  # the upper endpoint wins
        assert abs(est.value - 1.44) <= 3.0 * est.std_error
        assert est.n_controls == 9

    def test_constant_functional(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 3, seed=0)
        est = upper_mc(g.make_payoff("constant", (2.5,)), controls, 256,
                       seed=2)
        assert est.value == 2.5
        assert est.std_error == 0.0

    def test_odd_functional_near_zero_each_control(self, wide_band, grid):
        for control in g.sample_controls("constants", wide_band, grid, 5, seed=0):
            est = upper_mc(g.make_payoff("identity"), [control], 8192,
                           seed=3)
            assert abs(est.value) <= 3.0 * est.std_error

    def test_monotone_in_control_family(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 9, seed=0)
        payoff = g.make_payoff("cosine")
        small = upper_mc(payoff, controls[:3], 2048, seed=5)
        large = upper_mc(payoff, controls, 2048, seed=5)
        assert large.value >= small.value

    def test_rejects_tiny_sample(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 2, seed=0)
        payoff = g.make_payoff("abs")
        with pytest.raises(ScenarioError, match="n_paths"):
            g.upper_semigroup_mc(_UNIT_COEFFS, payoff, 0.0, controls, 50, 0)
        with pytest.raises(ScenarioError, match="at least one control"):
            g.upper_semigroup_mc(_UNIT_COEFFS, payoff, 0.0, [], 128, 0)

    def test_bit_reproducible(self, wide_band, grid):
        controls = g.sample_controls("random", wide_band, grid, 4, seed=8)
        payoff = g.make_payoff("abs")
        e1 = upper_mc(payoff, controls, 1024, seed=9)
        e2 = upper_mc(payoff, controls, 1024, seed=9)
        assert e1 == e2

    def test_feedback_consistency_with_oracle(self, wide_band):
        # terminal catalog payoffs: |MC - PDE| within 3 se + PDE tolerance
        grid = g.TimeGrid(1.0, 256)
        cfg = g.PdeConfig(-8, 8, 400)
        heat = g.ModelCoefficients(
            g.make_coefficient("constant", (0.0,)),
            g.make_coefficient("constant", (0.0,)),
            g.make_coefficient("constant", (1.0,)), 0.0, 1.0, 1.0)
        payoffs = [g.make_payoff(name) for name in ("gauss_bump", "cosine")]
        solved = g.solve_semigroups(heat, wide_band, 1.0, cfg, payoffs,
                                    policy_grid=grid)
        for payoff in payoffs:
            controls = g.sample_controls("feedback", wide_band, grid, 3,
                                         seed=13, policy=solved.policy[payoff])
            est = g.upper_semigroup_mc(_UNIT_COEFFS, payoff, 0.0, controls,
                                       2 ** 13, seed=13)
            assert abs(est.value - float(solved.fine[payoff](0.0))) <= \
                3.0 * est.std_error + solved.tolerance(payoff, 0.0)


class TestSemigroupEstimator:
    def test_feedback_policy_tracks_pde_value(self, ou_model):
        # mean-reverting state equation under a volatility band: the
        # closed-loop policy from the solver should land on the PDE value
        band = g.VolatilityBand(0.9, 1.1)
        T = 1.0
        grid = g.TimeGrid(T, 256)
        cfg = g.PdeConfig(-8, 8, 400)
        payoff = g.make_payoff("gauss_bump")
        solved = g.solve_semigroups(ou_model, band, T, cfg, [payoff],
                                    policy_grid=grid)
        controls = g.sample_controls("feedback", band, grid, 4, seed=29,
                                     policy=solved.policy[payoff])
        est = g.upper_semigroup_mc(ou_model, payoff, 0.3, controls, 2 ** 13,
                                   seed=29)
        assert est.best_control_id == 0  # the feedback control wins
        assert abs(est.value - float(solved.fine[payoff](0.3))) <= \
            3.0 * est.std_error + solved.tolerance(payoff, 0.3)

    def test_constants_only_lower_bound(self, ou_model, unit_band):
        grid = g.TimeGrid(1.0, 128)
        controls = g.sample_controls("constants", unit_band, grid, 5, seed=30)
        est = g.upper_semigroup_mc(ou_model, g.make_payoff("gauss_bump"), 0.0,
                                   controls, 1024, seed=30)
        assert est.n_controls == 1  # degenerate band collapses the family
        assert 0.0 < est.value < 1.0


class TestCapacity:
    def test_full_event(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 2, seed=0)
        est = upper_mc(indicator(lambda x: np.ones(x.shape, dtype=bool)),
                       controls, 256, seed=1)
        assert est.value == 1.0

    def test_empty_event(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 2, seed=0)
        est = upper_mc(indicator(lambda x: np.zeros(x.shape, dtype=bool)),
                       controls, 256, seed=1)
        assert est.value == 0.0

    def test_positive_half_line_is_half(self, wide_band, grid):
        # each scenario law of B_1 is symmetric, so every control gives 1/2
        controls = g.sample_controls("constants", wide_band, grid, 5, seed=0)
        est = upper_mc(indicator(lambda x: x > 0.0), controls, 8192, seed=6)
        assert abs(est.value - 0.5) <= 3.0 * est.std_error

    def test_subadditive_on_sampled_pairs(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 5, seed=0)
        events = [
            lambda x: x > 0.5,
            lambda x: np.abs(x) < 1.0,
            lambda x: x < -1.5,
        ]
        for i, ev_a in enumerate(events):
            for ev_b in events[i + 1:]:
                union = lambda x: ev_a(x) | ev_b(x)
                cu = upper_mc(indicator(union), controls, 2048, seed=14).value
                ca = upper_mc(indicator(ev_a), controls, 2048, seed=14).value
                cb = upper_mc(indicator(ev_b), controls, 2048, seed=14).value
                assert cu <= ca + cb + 1e-12


def brute_force_young_slack(P, g1, g2):
    """Pure-python exhaustive evaluation over outcomes and measures."""
    n_measures, n_outcomes = len(P), len(P[0])
    lhs = max(
        math.fsum(P[k][w] * g1[k][w] * g2[k][w] for w in range(n_outcomes))
        for k in range(n_measures))
    ent = max(
        math.fsum(P[k][w] * g1[k][w] * math.log(g1[k][w])
                  for w in range(n_outcomes))
        for k in range(n_measures))
    lex = math.log(max(
        math.fsum(P[k][w] * math.exp(g2[k][w]) for w in range(n_outcomes))
        for k in range(n_measures)))
    return ent + lex - lhs


class TestYoungInequality:
    def test_identity_density_constant_g2_equality(self):
        P = np.array([[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]])
        g1 = np.ones_like(P)
        g2 = np.full_like(P, -1.7)
        report = g.young_check(P, g1, g2)
        assert report.slack == pytest.approx(0.0, abs=1e-14)
        assert report.passed

    def test_identity_density_nonconstant_g2_strict(self):
        P = np.array([[0.25, 0.25, 0.25, 0.25]])
        g1 = np.ones_like(P)
        g2 = np.array([[0.0, 1.0, -1.0, 0.5]])
        report = g.young_check(P, g1, g2)
        assert report.slack > 1e-3  # Jensen gap of log E e^X vs E X

    def test_matches_brute_force_oracle(self):
        P, g1, g2 = (a[0] for a in g.random_young_trials(77, 1))
        report = g.young_check(P, g1, g2)
        oracle = brute_force_young_slack(P.tolist(), g1.tolist(), g2.tolist())
        assert report.slack == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_trial_depends_on_seed_and_index_alone(self):
        few, many = g.random_young_trials(5, 3), g.random_young_trials(5, 10)
        for a, b in zip(few, many):
            assert a.tobytes() == b[:3].tobytes()
        assert not np.array_equal(many[2][0], many[2][1])

    def test_thousand_random_trials_nonnegative(self):
        worst = math.inf
        for P, g1, g2 in zip(*g.random_young_trials(1, 1000)):
            worst = min(worst, g.young_check(P, g1, g2).slack)
        assert worst >= -1e-12

    def test_rejects_nonpositive_density(self):
        P = np.array([[0.5, 0.5]])
        with pytest.raises(ScenarioError):
            g.young_check(P, np.array([[2.0, 0.0]]), np.zeros((1, 2)))

    def test_rejects_unnormalized_density(self):
        P = np.array([[0.5, 0.5]])
        with pytest.raises(ScenarioError):
            g.young_check(P, np.array([[2.0, 1.0]]), np.zeros((1, 2)))

    def test_rejects_bad_measures(self):
        with pytest.raises(ScenarioError):
            g.young_check(np.array([[0.7, 0.7]]), np.ones((1, 2)),
                          np.zeros((1, 2)))


class TestCounterBasedStreams:
    def test_rows_independent_of_matrix_height(self, grid):
        # the increments of path p never depend on how many paths were drawn
        w_small = scaled_increments(99, 4, grid)
        w_large = scaled_increments(99, 16, grid)
        assert np.array_equal(w_small, w_large[:4])

    def test_batch_matches_single_path(self, wide_band, grid):
        (control,) = g.sample_controls("bang_bang", wide_band, grid, 1, seed=0)
        batch = simulate_state_batch(_UNIT_COEFFS, [control], 0.0,
                                     scaled_increments(5, 3, grid))
        _, single = first_path(control, seed=5)
        assert batch[0, 0] == single[0]

    @pytest.mark.parametrize("rows", [
        slice(None), slice(3, 9), slice(-4, None), slice(5, 2),
        slice(7, 100), slice(2, 6, 1)])
    def test_path_increments_slice_as_the_array(self, grid, rows):
        # a slice draws the rows the array would give, window by window
        w = scenario.PathIncrements(99, 10, grid)
        want = scaled_increments(99, 10, grid)[rows]
        got = w[rows]
        assert got.shape == want.shape
        windows = got.windows(np.empty((8, got.shape[0])))
        drawn = np.concatenate([window.copy() for window in windows])
        assert drawn.shape == (grid.n_steps, got.shape[0])
        assert drawn.T.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [
        slice(0, 10, 2), slice(None, None, -1), 3, (slice(0, 2), 0)])
    def test_path_increments_refuse_other_indices(self, grid, rows):
        # the array would give 5 or reversed rows, one row, or one column
        w = scenario.PathIncrements(99, 10, grid)
        with pytest.raises(ScenarioError, match=re.escape(repr(rows))):
            w[rows]


def reference_state_batch(coeffs, control, x0, w):
    """The Euler loop of the state equation written path-major, one strided
    column per step: x + b dt + h level^2 dt + sigma level dW."""
    n_paths, n_steps = w.shape
    dt = control.grid.dt
    x = np.empty((n_paths, n_steps + 1))
    x[:, 0] = x0
    levels = np.empty((n_paths, n_steps))
    for j in range(n_steps):
        xj = x[:, j]
        lv = reference_levels(control, j, xj)
        levels[:, j] = lv
        x[:, j + 1] = (xj + coeffs.b(xj) * dt + coeffs.h(xj) * (lv * lv * dt)
                       + coeffs.sigma(xj) * (lv * w[:, j]))
    return x, levels


class TestTimeMajorKernel:
    """The time-major kernel gives, bit for bit, what the path-major loop
    gives, for every kind of control."""

    @pytest.fixture(scope="class")
    def bundled(self):
        return g.parse_run_config(bundled_config_path())

    @staticmethod
    def control(kind, coeffs, cfg):
        if kind != "feedback":
            return g.sample_controls(kind, cfg.band, cfg.grid, 3, cfg.seed)[1]
        solved = g.solve_semigroups(coeffs, cfg.band, cfg.grid.horizon,
                                    g.PdeConfig(-8.0, 8.0, 200), [cfg.payoff],
                                    policy_grid=cfg.grid)
        (control,) = g.sample_controls("feedback", cfg.band, cfg.grid, 1,
                                       cfg.seed,
                                       policy=solved.policy[cfg.payoff])
        assert np.any(solved.policy[cfg.payoff].hi_mask)
        assert not np.all(solved.policy[cfg.payoff].hi_mask)
        return control

    @pytest.mark.parametrize("kind", ["constants", "random", "feedback"])
    @pytest.mark.parametrize("model", ["unit", "bundled"])
    def test_paths_equal_path_major_loop(self, bundled, model, kind):
        cfg = bundled
        coeffs, x0 = (_UNIT_COEFFS, 0.0) if model == "unit" else \
            (cfg.coeffs, 0.3)
        control = self.control(kind, coeffs, cfg)
        w = scaled_increments(cfg.seed, 300, cfg.grid)
        ref_x, ref_levels = reference_state_batch(coeffs, control, x0, w)
        terminal = simulate_state_batch(coeffs, [control], x0, w)
        assert terminal.shape == (1, 300) and terminal.flags.c_contiguous
        assert terminal.tobytes() == ref_x[:, -1].tobytes()
        if kind == "feedback":
            # the policy switches the level between the band's edges
            assert len(np.unique(ref_levels)) == 2

    @staticmethod
    def family(kind, coeffs, cfg):
        if kind == "mixed":
            # open-loop levels that change with the step beside the
            # feedback row
            feedback = TestTimeMajorKernel.control("feedback", coeffs, cfg)
            return [TestTimeMajorKernel.control("bang_bang", coeffs, cfg),
                    feedback,
                    TestTimeMajorKernel.control("random", coeffs, cfg)]
        return g.sample_controls(kind, cfg.band, cfg.grid, 3, cfg.seed)

    @pytest.mark.parametrize("kind", ["mixed", "bang_bang", "random"])
    @pytest.mark.parametrize("model", ["unit", "bundled"])
    def test_stacked_family_equals_path_major_loop(self, bundled, model,
                                                   kind):
        # one pass over the family against one path-major loop per control;
        # 300 paths and 256 steps leave a partial block of w and rows whose
        # length is no multiple of a SIMD width
        cfg = bundled
        coeffs, x0 = (_UNIT_COEFFS, 0.0) if model == "unit" else \
            (cfg.coeffs, 0.3)
        controls = self.family(kind, coeffs, cfg)
        w = scaled_increments(cfg.seed, 300, cfg.grid)[:, :250]
        grid = g.TimeGrid(cfg.grid.horizon * 250 / 256, 250)
        assert grid.n_steps % _W_BLOCK_STEPS != 0
        if kind != "mixed":
            controls = [g.ScenarioControl(grid, c.levels[:250], c.band)
                        for c in controls]
        else:
            controls = [g.ScenarioControl(grid, controls[0].levels[:250],
                                          cfg.band),
                        g.PolicyTable(grid, controls[1].x_nodes,
                                      controls[1].hi_mask[:250], cfg.band),
                        g.ScenarioControl(grid, controls[2].levels[:250],
                                          cfg.band)]
        terminal = simulate_state_batch(coeffs, controls, x0, w)
        assert terminal.shape == (3, 300) and terminal.flags.c_contiguous
        for row, control in zip(terminal, controls):
            ref_x, _ = reference_state_batch(coeffs, control, x0, w)
            assert row.tobytes() == ref_x[:, -1].tobytes()
        # the per-path stream promise: the first m rows are a run on w[:m]
        head = simulate_state_batch(coeffs, controls, x0, w[:64])
        assert head.tobytes() == terminal[:, :64].tobytes()

    def test_semigroup_estimate_equals_path_major_loop(self, bundled):
        # non-unit coefficients, a feedback control and three constants
        cfg = bundled
        solved = g.solve_semigroups(cfg.coeffs, cfg.band, cfg.grid.horizon,
                                    g.PdeConfig(-8.0, 8.0, 200), [cfg.payoff],
                                    policy_grid=cfg.grid)
        controls = g.sample_controls("feedback", cfg.band, cfg.grid, 4, 17,
                                     policy=solved.policy[cfg.payoff])
        est = g.upper_semigroup_mc(cfg.coeffs, cfg.payoff, 0.3, controls, 300,
                                   seed=17)
        w = scaled_increments(17, 300, cfg.grid)
        stats = []
        for control in controls:
            ref_x, _ = reference_state_batch(cfg.coeffs, control, 0.3, w)
            vals = cfg.payoff.f(ref_x[:, -1])
            stats.append((float(np.mean(vals)),
                          float(np.std(vals, ddof=1) / math.sqrt(300))))
        best = max(range(4), key=lambda k: (stats[k][0], -k))
        assert (est.value, est.std_error, est.best_control_id) == \
            (*stats[best], best)

    @pytest.mark.parametrize("model", ["unit", "bundled"])
    def test_path_blocks_equal_one_block(self, bundled, monkeypatch, model):
        # 350 paths in blocks of 100, three full blocks and a partial one,
        # against one block of 350
        cfg = bundled
        coeffs, x0 = (_UNIT_COEFFS, 0.0) if model == "unit" else \
            (cfg.coeffs, 0.3)
        controls = self.family("mixed", coeffs, cfg)
        one = g.upper_semigroup_mc(coeffs, cfg.payoff, x0, controls, 350,
                                   seed=11)
        sizes = []
        kernel = scenario.simulate_state_batch

        def counted(coeffs, controls, x0, w):
            sizes.append(w.shape[0])
            return kernel(coeffs, controls, x0, w)

        monkeypatch.setattr(scenario, "simulate_state_batch", counted)
        monkeypatch.setattr("gharnack.plan._PATH_BLOCK", 100)
        blocked = g.upper_semigroup_mc(coeffs, cfg.payoff, x0, controls, 350,
                                       seed=11)
        assert sizes == [100, 100, 100, 50]
        assert blocked == one

    def test_terminal_functional_equals_per_control_batches(self, bundled):
        # the stacked pass over the family against one pass per control
        cfg = bundled
        controls = self.family("mixed", _UNIT_COEFFS, cfg)
        stacked = upper_mc(cfg.payoff, controls, 300, seed=3)
        alone = [upper_mc(cfg.payoff, [c], 300, seed=3) for c in controls]
        best = max(range(len(alone)), key=lambda k: (alone[k].value, -k))
        assert (stacked.value, stacked.std_error, stacked.best_control_id) == \
            (alone[best].value, alone[best].std_error, best)


def catalog_payoffs(p):
    """Every catalog payoff, and the log and p-th power of a positive one."""
    bump = g.make_payoff("shifted_bump")
    return [*map(g.make_payoff, PAYOFF_NAMES), bump.log(), bump.power(p)]


class TestPayoffByBlocks:
    """The estimator applies the payoff to one block's terminal rows at a
    time, which gives the bits of one call on all of them because every
    payoff acts elementwise."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=hnp.arrays(np.float64,
                        st.tuples(st.integers(1, 6), st.integers(1, 70)),
                        elements=st.floats(-1e3, 1e3)),
           cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           p=st.floats(1.0, 4.0))
    def test_catalog_payoffs_act_elementwise(self, x, cuts, p):
        n = x.shape[1]
        a, b = sorted(int(cut * n) for cut in cuts)
        for payoff in catalog_payoffs(p):
            want = payoff.f(x)[:, a:b].tobytes()
            for part in (x[:, a:b], np.ascontiguousarray(x[:, a:b])):
                assert payoff.f(part).tobytes() == want, payoff.name

    def test_blocked_estimate_equals_one_call_on_all_terminal_rows(
            self, multiplicative_model, wide_band, grid, monkeypatch):
        # 300 paths in blocks of 128, 128 and 44, against each payoff
        # applied once to the terminal states of all of them
        coeffs = multiplicative_model
        controls = g.sample_controls("random", wide_band, grid, 4, seed=5)
        terminal = simulate_state_batch(coeffs, controls, 0.2,
                                        scaled_increments(23, 300, grid))
        sizes = []
        kernel = scenario.simulate_state_batch

        def counted(coeffs, controls, x0, w):
            sizes.append(w.shape[0])
            return kernel(coeffs, controls, x0, w)

        monkeypatch.setattr(scenario, "simulate_state_batch", counted)
        monkeypatch.setattr("gharnack.plan._PATH_BLOCK", 128)
        for payoff in catalog_payoffs(2.5):
            sizes.clear()
            est = g.upper_semigroup_mc(coeffs, payoff, 0.2, controls, 300,
                                       seed=23)
            assert sizes == [128, 128, 44]
            stats = [(float(np.mean(v)),
                      float(np.std(v, ddof=1) / math.sqrt(300)))
                     for v in payoff.f(terminal)]
            best = max(range(len(stats)), key=lambda k: (stats[k][0], -k))
            assert (est.value, est.std_error, est.best_control_id) == \
                (*stats[best], best), payoff.name


class TestMemory:
    def test_terminal_functional_keeps_only_payoff_rows(self, wide_band):
        # one time-major window of a block's increments with the scratch of
        # its draw, the (k, n_paths) rows of payoff values and a few rows of
        # one block, never the terminal states of every path, a block of w,
        # all of w nor a control's full paths
        grid = g.TimeGrid(1.0, 256)
        paths_per_block = plan._PATH_BLOCK
        n_paths = 16 * paths_per_block
        window = plan._WINDOW_DOUBLES * _W_BLOCK_STEPS * paths_per_block * 8
        payoff = g.make_payoff("gauss_bump")
        for strategy in ("constants", "random"):
            controls = g.sample_controls(strategy, wide_band, grid, 5, seed=0)
            # a first draw loads `streams` and its ziggurat tables
            g.upper_semigroup_mc(_UNIT_COEFFS, payoff, 0.0, controls, 100,
                                 seed=1)
            tracemalloc.start()
            try:
                g.upper_semigroup_mc(_UNIT_COEFFS, payoff, 0.0, controls,
                                     n_paths, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows = len(controls) * n_paths * 8
            block_rows = len(controls) * paths_per_block * 8
            assert peak <= window + rows + 4 * block_rows + 2 ** 16, \
                (strategy, (peak - window - rows) / block_rows)
