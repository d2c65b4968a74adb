import math
import tracemalloc

import numpy as np
import pytest

import gharnack as g
from gharnack.cli import bundled_config_path
from gharnack.gheat import _UNIT_COEFFS
from gharnack.scenario import (
    ScenarioError,
    _W_BLOCK_STEPS,
    _euler_pass,
    _simulate_batch,
    scaled_increments,
    simulate_state_batch,
)


@pytest.fixture(scope="module")
def grid():
    return g.TimeGrid(1.0, 128)


def first_path(control, seed):
    """One-path batch under the control: row 0 of the seed's increments."""
    return _simulate_batch(control, control.grid,
                           scaled_increments(seed, 1, control.grid))


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

    def test_control_outside_band_rejected(self, wide_band, grid):
        with pytest.raises(ScenarioError):
            g.ScenarioControl(grid, np.full(grid.n_steps, 2.0), wide_band)


class TestSimulateGbm:
    """Single B-paths, read as row 0 of a PathBatch."""

    def test_unit_control_reproduces_wiener(self, grid):
        band = g.VolatilityBand(1.0, 1.0)
        (control,) = g.sample_controls("constants", band, grid, 1, seed=0)
        path = first_path(control, seed=4)
        assert path.b_path[0, 0] == 0.0
        assert np.allclose(path.b_path[0, 1:], np.cumsum(path.w[0]))

    def test_constant_upper_control_qv_exact(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 2, seed=0)
        path = first_path(controls[1], seed=4)
        expect = wide_band.sigma_upper ** 2 * grid.nodes
        assert np.allclose(path.qv_path[0], expect, atol=1e-12)

    def test_qv_sandwich_every_pair(self, wide_band, grid):
        controls = g.sample_controls("random", wide_band, grid, 3, seed=7)
        lo2, hi2 = wide_band.sigma_lower ** 2, wide_band.sigma_upper ** 2
        for control in controls:
            qv = first_path(control, seed=11).qv_path[0]
            assert qv[0] == 0.0
            assert np.all(np.diff(qv) >= 0.0)
            for i in range(0, grid.n_steps, 17):
                for j in range(i + 1, grid.n_steps + 1, 29):
                    inc = qv[j] - qv[i]
                    span = grid.nodes[j] - grid.nodes[i]
                    assert lo2 * span - 1e-12 <= inc <= hi2 * span + 1e-12

    def test_deterministic_given_control_and_seed(self, wide_band, grid):
        (control,) = g.sample_controls("bang_bang", wide_band, grid, 1, seed=0)
        p1 = first_path(control, seed=123)
        p2 = first_path(control, seed=123)
        assert np.array_equal(p1.b_path, p2.b_path)
        assert np.array_equal(p1.qv_path, p2.qv_path)


class TestUpperExpectation:
    def test_terminal_square_hits_upper_variance(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 9, seed=0)
        est = g.upper_expectation_mc(lambda b: b.terminal() ** 2, controls,
                                     4096, seed=2)
        assert est.best_control_id == 8  # the upper endpoint wins
        assert abs(est.value - 1.44) <= 3.0 * est.std_error
        assert est.n_controls == 9

    def test_constant_functional(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 3, seed=0)
        est = g.upper_expectation_mc(
            lambda b: np.full(b.n_paths, 2.5), controls, 256, seed=2)
        assert est.value == 2.5
        assert est.std_error == 0.0

    def test_odd_functional_near_zero_each_control(self, wide_band, grid):
        for control in g.sample_controls("constants", wide_band, grid, 5, seed=0):
            est = g.upper_expectation_mc(lambda b: b.terminal(), [control],
                                         8192, seed=3)
            assert abs(est.value) <= 3.0 * est.std_error

    def test_monotone_in_control_family(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 9, seed=0)
        functional = lambda b: np.cos(b.terminal())
        small = g.upper_expectation_mc(functional, controls[:3], 2048, seed=5)
        large = g.upper_expectation_mc(functional, controls, 2048, seed=5)
        assert large.value >= small.value

    def test_rejects_tiny_sample(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 2, seed=0)
        with pytest.raises(ScenarioError):
            g.upper_expectation_mc(lambda b: b.terminal(), controls, 50, seed=0)

    def test_bit_reproducible(self, wide_band, grid):
        controls = g.sample_controls("random", wide_band, grid, 4, seed=8)
        f = lambda b: np.abs(b.terminal())
        e1 = g.upper_expectation_mc(f, controls, 1024, seed=9)
        e2 = g.upper_expectation_mc(f, controls, 1024, seed=9)
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
                                    policy_times=grid.nodes[:-1])
        for payoff in payoffs:
            controls = g.sample_controls("feedback", wide_band, grid, 3,
                                         seed=13, policy=solved.policy[payoff])
            est = g.upper_expectation_mc(g.terminal_functional(payoff),
                                         controls, 2 ** 13, seed=13)
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
                                    policy_times=grid.nodes[:-1])
        est = g.upper_semigroup_mc(ou_model, band, payoff, 0.3, grid,
                                   2 ** 13, seed=29,
                                   policy=solved.policy[payoff], n_controls=4)
        assert est.best_control_id == 0  # the feedback control wins
        assert abs(est.value - float(solved.fine[payoff](0.3))) <= \
            3.0 * est.std_error + solved.tolerance(payoff, 0.3)

    def test_constants_only_lower_bound(self, ou_model, unit_band):
        grid = g.TimeGrid(1.0, 128)
        est = g.upper_semigroup_mc(ou_model, unit_band,
                                   g.make_payoff("gauss_bump"), 0.0, grid,
                                   1024, seed=30)
        assert est.n_controls == 1  # degenerate band collapses the family
        assert 0.0 < est.value < 1.0


class TestCapacity:
    def test_full_event(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 2, seed=0)
        est = g.capacity_mc(lambda b: np.ones(b.n_paths, dtype=bool), controls,
                            256, seed=1)
        assert est.value == 1.0

    def test_empty_event(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 2, seed=0)
        est = g.capacity_mc(lambda b: np.zeros(b.n_paths, dtype=bool), controls,
                            256, seed=1)
        assert est.value == 0.0

    def test_positive_half_line_is_half(self, wide_band, grid):
        # each scenario law of B_1 is symmetric, so every control gives 1/2
        controls = g.sample_controls("constants", wide_band, grid, 5, seed=0)
        est = g.capacity_mc(lambda b: b.terminal() > 0.0, controls, 8192, seed=6)
        assert abs(est.value - 0.5) <= 3.0 * est.std_error

    def test_subadditive_on_sampled_pairs(self, wide_band, grid):
        controls = g.sample_controls("constants", wide_band, grid, 5, seed=0)
        events = [
            lambda b: b.terminal() > 0.5,
            lambda b: np.abs(b.terminal()) < 1.0,
            lambda b: b.qv_path[:, -1] > 1.0,
        ]
        for i, ev_a in enumerate(events):
            for ev_b in events[i + 1:]:
                union = lambda b: ev_a(b) | ev_b(b)
                cu = g.capacity_mc(union, controls, 2048, seed=14).value
                ca = g.capacity_mc(ev_a, controls, 2048, seed=14).value
                cb = g.capacity_mc(ev_b, controls, 2048, seed=14).value
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
        P, g1, g2 = g.random_young_trial(seed=77)
        report = g.young_check(P, g1, g2)
        oracle = brute_force_young_slack(P.tolist(), g1.tolist(), g2.tolist())
        assert report.slack == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_thousand_random_trials_nonnegative(self):
        worst = math.inf
        for seed in range(1000):
            P, g1, g2 = g.random_young_trial(seed)
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
        batch = _simulate_batch(control, grid, scaled_increments(5, 3, grid))
        single = first_path(control, seed=5)
        assert np.array_equal(batch.b_path[0], single.b_path[0])


def reference_state_batch(coeffs, control, x0, w, grid):
    """The Euler loop of the state equation written path-major, one strided
    column per step: x + b dt + h level^2 dt + sigma level dW."""
    n_paths, n_steps = w.shape
    dt = grid.dt
    x = np.empty((n_paths, n_steps + 1))
    x[:, 0] = x0
    levels = np.empty((n_paths, n_steps))
    for j in range(n_steps):
        t = float(grid.nodes[j])
        xj = x[:, j]
        lv = np.asarray(control.level(j, t, xj), dtype=float)
        levels[:, j] = lv
        x[:, j + 1] = (xj + coeffs.b(t, xj) * dt + coeffs.h(t, xj) * (lv * lv * dt)
                       + coeffs.sigma(t, xj) * (lv * w[:, j]))
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
                                    policy_times=cfg.grid.nodes[:-1])
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
        x, levels = _euler_pass(coeffs, [control], x0, w, cfg.grid,
                                keep_nodes=True)
        ref_x, ref_levels = reference_state_batch(coeffs, control, x0, w,
                                                  cfg.grid)
        assert x.shape == (cfg.grid.n_steps + 1, 1, 300)
        assert x[:, 0].T.tobytes() == ref_x.tobytes()
        assert levels[:, 0].T.tobytes() == ref_levels.tobytes()
        # one time node is one contiguous row of the kernel's buffers
        assert x[:, 0].flags.c_contiguous
        terminal = simulate_state_batch(coeffs, [control], x0, w, cfg.grid)
        assert terminal.shape == (1, 300)
        assert terminal.tobytes() == ref_x[:, -1].tobytes()
        if kind == "feedback":
            assert len(np.unique(levels)) == 2

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
                        g.FeedbackControl(grid, controls[1].policy),
                        g.ScenarioControl(grid, controls[2].levels[:250],
                                          cfg.band)]
        terminal = simulate_state_batch(coeffs, controls, x0, w, grid)
        assert terminal.shape == (3, 300) and terminal.flags.c_contiguous
        for row, control in zip(terminal, controls):
            ref_x, _ = reference_state_batch(coeffs, control, x0, w, grid)
            assert row.tobytes() == ref_x[:, -1].tobytes()
        # the per-path stream promise: the first m rows are a run on w[:m]
        head = simulate_state_batch(coeffs, controls, x0, w[:64], grid)
        assert head.tobytes() == terminal[:, :64].tobytes()

    def test_semigroup_estimate_equals_path_major_loop(self, bundled):
        # non-unit coefficients, a feedback control and three constants
        cfg = bundled
        solved = g.solve_semigroups(cfg.coeffs, cfg.band, cfg.grid.horizon,
                                    g.PdeConfig(-8.0, 8.0, 200), [cfg.payoff],
                                    policy_times=cfg.grid.nodes[:-1])
        policy = solved.policy[cfg.payoff]
        est = g.upper_semigroup_mc(cfg.coeffs, cfg.band, cfg.payoff, 0.3,
                                   cfg.grid, 300, seed=17, policy=policy,
                                   n_controls=4)
        w = scaled_increments(17, 300, cfg.grid)
        controls = g.sample_controls("feedback", cfg.band, cfg.grid, 4, 17,
                                     policy=policy)
        stats = []
        for control in controls:
            ref_x, _ = reference_state_batch(cfg.coeffs, control, 0.3, w,
                                             cfg.grid)
            vals = cfg.payoff.f(ref_x[:, -1])
            stats.append((float(np.mean(vals)),
                          float(np.std(vals, ddof=1) / math.sqrt(300))))
        best = max(range(4), key=lambda k: (stats[k][0], -k))
        assert (est.value, est.std_error, est.best_control_id) == \
            (*stats[best], best)

    def test_terminal_functional_equals_per_control_batches(self, bundled):
        # the stacked terminal pass against one PathBatch per control
        cfg = bundled
        controls = self.family("mixed", _UNIT_COEFFS, cfg)
        stacked = g.upper_expectation_mc(g.terminal_functional(cfg.payoff),
                                         controls, 300, seed=3)
        per_control = g.upper_expectation_mc(
            lambda batch: cfg.payoff.f(batch.terminal()), controls, 300,
            seed=3)
        assert stacked == per_control

    @pytest.mark.parametrize("kind", ["constants", "random", "feedback"])
    def test_batch_fields_equal_path_major_loop(self, bundled, kind):
        cfg = bundled
        control = self.control(kind, _UNIT_COEFFS, cfg)
        w = scaled_increments(cfg.seed, 300, cfg.grid)
        batch = _simulate_batch(control, cfg.grid, w)
        ref_b, ref_levels = reference_state_batch(_UNIT_COEFFS, control, 0.0,
                                                  w, cfg.grid)
        ref_qv = np.zeros_like(ref_b)
        np.cumsum(ref_levels * ref_levels * cfg.grid.dt, axis=1,
                  out=ref_qv[:, 1:])
        assert batch.b_path.tobytes() == ref_b.tobytes()
        assert batch.levels.tobytes() == ref_levels.tobytes()
        assert batch.qv_path.tobytes() == ref_qv.tobytes()
        assert batch.terminal().tobytes() == ref_b[:, -1].tobytes()
        assert batch.w is not w and np.shares_memory(batch.w, w)
        for arr in (batch.w, batch.levels, batch.b_path):
            assert not arr.flags.writeable


class TestMemory:
    def test_terminal_functional_keeps_only_terminal_rows(self, wide_band):
        # w, its time-major block and a few (k, n_paths) rows, never a
        # control's full paths
        n_paths, grid = 4096, g.TimeGrid(1.0, 256)
        w_nbytes = n_paths * grid.n_steps * 8
        block = _W_BLOCK_STEPS * n_paths * 8
        functional = g.terminal_functional(g.make_payoff("gauss_bump"))
        for strategy in ("constants", "random"):
            controls = g.sample_controls(strategy, wide_band, grid, 5, seed=0)
            tracemalloc.start()
            try:
                g.upper_expectation_mc(functional, controls, n_paths, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows = len(controls) * n_paths * 8
            assert peak <= w_nbytes + block + 4 * rows + 2 ** 16, \
                (strategy, (peak - w_nbytes - block) / rows)

    def test_upper_expectation_holds_no_copy_of_w(self, wide_band):
        # w, then one control's paths and levels at a time: about 3 x w,
        # also for a functional that returns a view of its batch
        n_paths, grid = 4096, g.TimeGrid(1.0, 256)
        w_nbytes = n_paths * grid.n_steps * 8
        functionals = {
            "copy": g.terminal_functional(g.make_payoff("gauss_bump")),
            "view": lambda batch: batch.terminal(),
        }
        for strategy in ("constants", "random"):
            controls = g.sample_controls(strategy, wide_band, grid, 3, seed=0)
            for kind, functional in functionals.items():
                tracemalloc.start()
                try:
                    g.upper_expectation_mc(functional, controls, n_paths,
                                           seed=1)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 3 * w_nbytes + 2 ** 20, \
                    (strategy, kind, peak / w_nbytes)
