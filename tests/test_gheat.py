import math
import tracemalloc

import numpy as np
import pytest

import gharnack as g
from gharnack import gheat, plan, scenario
from gharnack.cli import bundled_config_path, write_outputs
from gharnack.gheat import _UNIT_COEFFS, PdeError

from conftest import (heat_semigroup_oracle, ou_semigroup_oracle,
                      reference_levels)


class TestGHeatIdentities:
    def test_linear_payoff_fixed(self, wide_band):
        cfg = g.PdeConfig(-8, 8, 400)
        u = g.solve_g_heat(g.make_payoff("identity", domain=(-8, 8)),
                           wide_band, 1.0, cfg)
        xs = np.linspace(-2, 2, 9)
        assert np.allclose(u(xs), xs, atol=1e-9)

    def test_upper_variance(self, wide_band):
        u = g.solve_g_heat(g.make_payoff("quadratic"), wide_band, 1.0,
                           g.PdeConfig(-8, 8, 400))
        assert u(0.0) == pytest.approx(1.44, rel=1e-3)

    def test_lower_variance(self, wide_band):
        u = g.solve_g_heat(g.make_payoff("neg_quadratic"), wide_band, 1.0,
                           g.PdeConfig(-8, 8, 400))
        assert u(0.0) == pytest.approx(-0.64, rel=1e-3)

    def test_classical_bump_closed_form(self, unit_band):
        # E exp(-(x + W_T)^2) = exp(-x^2/(1+2T)) / sqrt(1+2T)
        T = 1.0
        u = g.solve_g_heat(g.make_payoff("gauss_bump"), unit_band, T,
                           g.PdeConfig(-8, 8, 800))
        for x in (0.0, 0.7, -1.3):
            exact = math.exp(-x * x / (1 + 2 * T)) / math.sqrt(1 + 2 * T)
            assert u(x) == pytest.approx(exact, abs=2e-3)
        assert u(0.0) == pytest.approx((1 + 2 * T) ** -0.5, abs=2e-3)

    def test_constant_payoff_fixed_point(self, wide_band):
        u = g.solve_g_heat(g.make_payoff("constant", (2.75,)), wide_band, 1.0,
                           g.PdeConfig(-8, 8, 200))
        assert np.max(np.abs(u.values - 2.75)) < 1e-12


class TestHjb:
    def test_ou_gauss_bump_closed_form(self, ou_model, unit_band):
        T = 1.0
        (u,), _ = g.solve_stack(ou_model, unit_band,
                                [g.make_payoff("gauss_bump")], T,
                                g.PdeConfig(-8, 8, 800))
        for x in (0.0, 0.5, -1.2):
            m = x * math.exp(-T)
            v = (1 - math.exp(-2 * T)) / 2
            exact = math.exp(-m * m / (1 + 2 * v)) / math.sqrt(1 + 2 * v)
            quad = ou_semigroup_oracle(lambda z: np.exp(-z ** 2), x, T)
            assert exact == pytest.approx(quad, abs=1e-12)
            assert u(x) == pytest.approx(exact, abs=2e-3)

    def test_ou_quadratic_moments(self, ou_model, unit_band):
        # E (x e^-T + sqrt(v) Z)^2 = x^2 e^-2T + v
        T = 0.75
        (u,), _ = g.solve_stack(ou_model, unit_band,
                                [g.make_payoff("quadratic")], T,
                                g.PdeConfig(-8, 8, 800))
        v = (1 - math.exp(-2 * T)) / 2
        for x in (0.0, 1.0):
            assert u(x) == pytest.approx(x * x * math.exp(-2 * T) + v, abs=8e-3)

    def test_constant_fixed_point_any_coefficients(self, multiplicative_model,
                                                   pinched_band):
        (u,), _ = g.solve_stack(multiplicative_model, pinched_band,
                                [g.make_payoff("constant", (0.6,))], 1.0,
                                g.PdeConfig(-8, 8, 200))
        assert np.max(np.abs(u.values - 0.6)) < 1e-12

    def test_comparison_nodewise(self, multiplicative_model, pinched_band):
        cfg = g.PdeConfig(-8, 8, 240)
        (lo,), _ = g.solve_stack(multiplicative_model, pinched_band,
                                 [g.make_payoff("gauss_bump")], 1.0, cfg)
        (hi,), _ = g.solve_stack(multiplicative_model, pinched_band,
                                 [g.make_payoff("shifted_bump", (0.1,))], 1.0,
                                 cfg)
        assert np.all(lo.values <= hi.values + 1e-12)

    def test_semigroup_sublinearity(self, wide_band):
        cfg = g.PdeConfig(-8, 8, 240)
        f1 = g.make_payoff("gauss_bump")
        f2 = g.make_payoff("cosine")
        both = g.Payoff(f=lambda x: f1.f(x) + f2.f(x), lower_bound=-1.0,
                        upper_bound=2.0, name="sum")
        u12 = g.solve_g_heat(both, wide_band, 1.0, cfg)
        u1 = g.solve_g_heat(f1, wide_band, 1.0, cfg)
        u2 = g.solve_g_heat(f2, wide_band, 1.0, cfg)
        tol = 2e-3
        assert np.all(u12.values <= u1.values + u2.values + 2 * tol)

    def test_richardson_convergence_factor(self, wide_band):
        # convex payoff: G-heat equals the upper-volatility heat flow, so the
        # closed form e^{-x + sig_up^2 T / 2} is the reference
        T = 1.0
        payoff = g.Payoff(f=lambda x: np.exp(-x), lower_bound=math.exp(-8.0),
                          upper_bound=math.exp(8.0), name="exp_convex")
        exact = math.exp(wide_band.sigma_upper ** 2 * T / 2.0)
        errors = []
        for n in (200, 400):
            u = g.solve_g_heat(payoff, wide_band, T, g.PdeConfig(-8, 8, n))
            errors.append(abs(u(0.0) - exact))
        assert errors[0] / errors[1] >= 2.5

    def test_convex_payoff_matches_upper_heat(self, wide_band):
        T = 1.0
        u = g.solve_g_heat(g.make_payoff("quadratic"), wide_band, T,
                           g.PdeConfig(-8, 8, 400))
        xs = np.linspace(-1.5, 1.5, 7)
        assert np.allclose(u(xs), xs ** 2 + wide_band.sigma_upper ** 2 * T,
                           atol=5e-3)


def terminal_levels(name, model, band, T=0.01):
    """The levels `solve_stack` records for the last step of a short grid,
    whose time lies within the PDE's last time step, where u is still the
    payoff `name`, on the 41 nodes of [-2, 2]."""
    cfg = g.PdeConfig(-2, 2, 40)
    grid = g.TimeGrid(T, 8)
    _, n_t = gheat._cfl_time_step(model, band, T, cfg)
    assert grid.dt < T / n_t
    _, (policy,) = g.solve_stack(model, band,
                                 [g.make_payoff(name, domain=(-2, 2))], T,
                                 cfg, grid)
    assert policy.x_nodes.tolist() == np.linspace(-2, 2, 41).tolist()
    assert policy.hi_mask.shape == (8, 41)
    return reference_levels(policy, 7, policy.x_nodes)


class TestFeedbackControl:
    def test_convex_picks_upper(self, heat_model, wide_band):
        levels = terminal_levels("quadratic", heat_model, wide_band)
        assert np.all(levels[1:-1] == wide_band.sigma_upper)

    def test_concave_picks_lower(self, heat_model, wide_band):
        levels = terminal_levels("neg_quadratic", heat_model, wide_band)
        assert np.all(levels[1:-1] == wide_band.sigma_lower)

    def test_linear_tie_breaks_high(self, heat_model, wide_band):
        levels = terminal_levels("identity", heat_model, wide_band)
        assert np.all(levels == wide_band.sigma_upper)

    def test_tie_choice_does_not_change_solution(self, wide_band):
        # at zero curvature G vanishes, so the recorded tie choice is moot:
        # the linear payoff solve returns the payoff itself
        cfg = g.PdeConfig(-8, 8, 200)
        payoff = g.make_payoff("identity", domain=(-8, 8))
        u, policy = g.solve_g_heat(payoff, wide_band, 1.0, cfg,
                                   policy_grid=g.TimeGrid(1.0, 8))
        assert np.allclose(u.values, cfg.nodes(), atol=1e-9)
        assert np.all(policy.hi_mask)

    def test_policy_shape_and_lookup(self, wide_band):
        cfg = g.PdeConfig(-4, 4, 64)
        grid = g.TimeGrid(1.0, 16)
        _, policy = g.solve_g_heat(g.make_payoff("gauss_bump"), wide_band, 1.0,
                                   cfg, policy_grid=grid)
        assert policy.grid == grid
        assert policy.hi_mask.shape == (16, 65)
        levels = reference_levels(policy, 0, np.array([-3.0, 0.0, 3.0]))
        assert set(np.unique(levels)) <= {wide_band.sigma_lower,
                                          wide_band.sigma_upper}
        # gauss bump is concave at the origin: the last step's policy picks
        # lower
        late = reference_levels(policy, 15, np.array([0.0]))
        assert late[0] == wide_band.sigma_lower

    @pytest.mark.parametrize("n_steps", [256, 1000])
    def test_step_levels_equal_the_per_step_lookup(self, wide_band, n_steps):
        # the levels of a family, a policy between two open-loop controls,
        # against the written-out lookup step by step: at random states,
        # states beyond both ends of the nodes (clipped) and states half-way
        # between two nodes (rint rounds them to even)
        grid = g.TimeGrid(1.0, n_steps)
        rng = np.random.default_rng(n_steps)
        x_nodes = np.linspace(-8.0, 8.0, 65)
        dx = x_nodes[1] - x_nodes[0]
        half = x_nodes[:-1] + 0.5 * dx
        assert np.all((half - x_nodes[0]) / dx % 1.0 == 0.5)
        states = np.concatenate((rng.uniform(-8.5, 8.5, 200),
                                 [-1e3, -8.2, 8.2, 1e3], half))
        policy = g.PolicyTable(grid=grid, x_nodes=x_nodes,
                               hi_mask=rng.random((n_steps, 65)) < 0.5,
                               band=wide_band)
        family = [*g.sample_controls("random", wide_band, grid, 1, seed=1),
                  policy,
                  *g.sample_controls("bang_bang", wide_band, grid, 1, seed=1)]
        x = np.stack([states, states, rng.permutation(states)])
        levels_at = scenario._level_rows(family, states.size)
        for j in range(n_steps):
            levels = levels_at(j, x)
            for row, control, xs in zip(levels, family, x):
                assert np.array_equal(row, reference_levels(control, j, xs))

    def test_feedback_control_holds_no_level_table(self, wide_band):
        # the parse-time memory count bounds the policy record, not a float
        # level table of the record's shape beside it: reading the policy's
        # levels holds one (k, n_paths) row buffer and one index row beside
        # the (n_steps, k) open-loop table, not the 16 MB of a float table
        grid = g.TimeGrid(1.0, 1024)
        x_nodes = np.linspace(-8.0, 8.0, 2001)
        policy = g.PolicyTable(
            grid=grid, x_nodes=x_nodes,
            hi_mask=np.random.default_rng(5).random((1024, 2001)) < 0.5,
            band=wide_band)
        x = np.linspace(-9.0, 9.0, 1000)[None]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            levels_at = scenario._level_rows([policy], x.shape[1])
            levels = levels_at(0, x)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 8 * grid.n_steps + 16 * x.size + 2 ** 16
        assert levels.shape == x.shape


def reference_solve(coeffs, band, payoff, T, cfg, policy_grid=None):
    """The explicit scheme for one payoff written step by step: coefficients
    evaluated afresh at every time level, ghost nodes by concatenation, and the
    tie-tolerant policy record. Returns u(0, .) and the policy mask."""
    xs = cfg.nodes()
    dx = cfg.dx
    dt, n_t = gheat._cfl_time_step(coeffs, band, T, cfg)
    u = np.asarray(payoff.f(xs), dtype=float).copy()
    record = level_of_time = None
    if policy_grid is not None:
        times = policy_grid.nodes[:-1]
        level_of_time = np.clip(np.ceil(times / dt - 1e-12).astype(int), 1, n_t)
        record = np.zeros((len(times), len(xs)), dtype=bool)
    up2, lo2 = band.sigma_upper ** 2, band.sigma_lower ** 2
    for i in range(n_t, 0, -1):
        b = np.asarray(coeffs.b(xs), dtype=float)
        h = np.asarray(coeffs.h(xs), dtype=float)
        sig2 = np.asarray(coeffs.sigma(xs), dtype=float) ** 2
        up = np.concatenate(([2.0 * u[0] - u[1]], u, [2.0 * u[-1] - u[-2]]))
        d1c = (up[2:] - up[:-2]) / (2.0 * dx)
        d2 = (up[2:] - 2.0 * up[1:-1] + up[:-2]) / (dx * dx)
        a = 2.0 * h * d1c + sig2 * d2
        if record is not None and np.any(level_of_time == i):
            noise = np.finfo(float).eps * float(np.max(np.abs(u))) * (
                8.0 * float(np.max(sig2)) / (dx * dx)
                + 8.0 * float(np.max(np.abs(h))) / dx)
            record[level_of_time == i] = a >= -64.0 * noise
        g_val = 0.5 * (up2 * np.maximum(a, 0.0) - lo2 * np.maximum(-a, 0.0))
        fwd = (up[2:] - up[1:-1]) / dx
        bwd = (up[1:-1] - up[:-2]) / dx
        u = u + dt * (b * np.where(b >= 0.0, fwd, bwd) + g_val)
    return u, record


def _fill_ghosts(up):
    up[..., 0] = 2.0 * up[..., 1] - up[..., 2]
    up[..., -1] = 2.0 * up[..., -2] - up[..., -3]


def _hamiltonian_argument(up, dx, two_h, sig2):
    d1c = (up[..., 2:] - up[..., :-2]) / (2.0 * dx)
    d2 = (up[..., 2:] - 2.0 * up[..., 1:-1] + up[..., :-2]) / (dx * dx)
    return two_h * d1c + sig2 * d2


def _g_reference(a, band):
    up2, lo2 = band.sigma_upper ** 2, band.sigma_lower ** 2
    return 0.5 * (up2 * np.maximum(a, 0.0) - lo2 * np.maximum(-a, 0.0))


def reference_stack(coeffs, band, payoffs, T, cfg, policy_grid=None):
    """The stacked explicit step term by term, as two-dimensional slices of
    the padded rows: every term is added even where it is zero, and G takes
    its textbook form. Returns the rows of u(0, .) and the policy masks."""
    xs = cfg.nodes()
    dx = cfg.dx
    dt, n_t = gheat._cfl_time_step(coeffs, band, T, cfg)
    b = np.asarray(coeffs.b(xs), dtype=float)
    h = np.asarray(coeffs.h(xs), dtype=float)
    sig2 = np.asarray(coeffs.sigma(xs), dtype=float) ** 2
    up = np.empty((len(payoffs), len(xs) + 2))
    for row, payoff in zip(up, payoffs):
        row[1:-1] = payoff.f(xs)
    u = up[:, 1:-1]
    record = None
    if policy_grid is not None:
        times = policy_grid.nodes[:-1]
        level_of_time = np.clip(np.ceil(times / dt - 1e-12).astype(int), 1, n_t)
        record = np.zeros((len(payoffs), len(times), len(xs)), dtype=bool)
    for i in range(n_t, 0, -1):
        _fill_ghosts(up)
        a = _hamiltonian_argument(up, dx, 2.0 * h, sig2)
        if record is not None:
            for k in np.nonzero(level_of_time == i)[0]:
                record[:, k] = gheat._upper_wins(a, u, dx, h, sig2)
        fwd = (up[:, 2:] - u) / dx
        bwd = (u - up[:, :-2]) / dx
        advect = b * np.where(b >= 0.0, fwd, bwd)
        u += dt * (advect + _g_reference(a, band))
    return u, record


class TestStackedSolve:
    """One stacked pass gives every row exactly what a solve of that row
    alone gives."""

    @pytest.fixture(scope="class")
    def bundled(self):
        cfg = g.parse_run_config(bundled_config_path())
        assert cfg.pde.n_space == 400
        f = cfg.payoff
        return cfg, [f, f.log(), f.power(cfg.check_p)]

    @pytest.mark.parametrize("coarse", [False, True])
    def test_rows_equal_single_solves_bitwise(self, bundled, coarse):
        cfg, payoffs = bundled
        grid = cfg.pde.coarsened() if coarse else cfg.pde
        T = cfg.grid.horizon
        rows, policies = g.solve_stack(cfg.coeffs, cfg.band, payoffs, T, grid)
        assert policies is None
        for payoff, row in zip(payoffs, rows):
            (single,), _ = g.solve_stack(cfg.coeffs, cfg.band, [payoff], T,
                                         grid)
            ref, _ = reference_solve(cfg.coeffs, cfg.band, payoff, T, grid)
            assert row.values.tobytes() == single.values.tobytes(), payoff.name
            assert row.values.tobytes() == ref.tobytes(), payoff.name

    @pytest.mark.parametrize("policy", [False, True])
    @pytest.mark.parametrize("n_rows", [1, 3])
    @pytest.mark.parametrize("model", ["bundled", "unit", "sigma_b_only"])
    def test_step_equals_reference_stack_bitwise(self, bundled, model,
                                                 n_rows, policy):
        # the step skips terms that are zero on every node, works on the
        # flattened rows and forms G from two products; none of it may move
        # a bit of any row or policy mask
        cfg, payoffs = bundled
        coeffs = {
            "bundled": cfg.coeffs,
            "unit": _UNIT_COEFFS,
            "sigma_b_only": g.ModelCoefficients(
                b=g.make_coefficient("constant", (-0.25,)),
                h=g.make_coefficient("constant", (0.0,)),
                sigma=g.make_coefficient("constant", (0.7,)),
                K=0.0, kappa1=0.7, kappa2=0.7),
        }[model]
        if model == "bundled":
            b = coeffs.b(cfg.pde.nodes())
            assert np.any(b > 0.0) and np.any(b < 0.0)
            assert np.any(coeffs.h(cfg.pde.nodes()) != 0.0)
        policy_grid = cfg.grid if policy else None
        T = cfg.grid.horizon
        rows, policies = g.solve_stack(coeffs, cfg.band, payoffs[:n_rows],
                                       T, cfg.pde, policy_grid)
        ref, masks = reference_stack(coeffs, cfg.band, payoffs[:n_rows], T,
                                     cfg.pde, policy_grid)
        assert len(rows) == n_rows
        for row, ref_row in zip(rows, ref):
            assert row.values.tobytes() == ref_row.tobytes()
        if not policy:
            assert policies is None
            return
        for table, mask in zip(policies, masks):
            assert table.hi_mask.tobytes() == mask.tobytes()
        assert np.any(masks) and not np.all(masks)

    def test_policy_equals_separate_policy_solve(self, bundled):
        cfg, payoffs = bundled
        T = cfg.grid.horizon
        solved = g.solve_semigroups(_UNIT_COEFFS, cfg.band, T, cfg.pde,
                                    payoffs, policy_grid=cfg.grid)
        for payoff in payoffs:
            u, policy = g.solve_g_heat(payoff, cfg.band, T, cfg.pde,
                                       policy_grid=cfg.grid)
            ref, mask = reference_solve(_UNIT_COEFFS, cfg.band, payoff, T,
                                        cfg.pde, cfg.grid)
            assert solved.policy[payoff].hi_mask.tobytes() == mask.tobytes()
            assert policy.hi_mask.tobytes() == mask.tobytes()
            assert solved.fine[payoff].values.tobytes() == ref.tobytes()
            assert u.values.tobytes() == ref.tobytes()
        assert not np.all(solved.policy[payoffs[0]].hi_mask)
        assert np.any(solved.policy[payoffs[0]].hi_mask)

    def test_rows_keyed_by_payoff_object(self, wide_band):
        # equal names, different functions: each object keeps its own row
        cfg = g.PdeConfig(-4, 4, 64)
        a = g.Payoff(lambda x: np.cos(x), -1.0, 1.0, name="same")
        b = g.Payoff(lambda x: np.cos(2.0 * x), -1.0, 1.0, name="same")
        solved = g.solve_semigroups(_UNIT_COEFFS, wide_band, 1.0, cfg, [a, b])
        assert len(solved.fine) == len(solved.coarse) == 2
        assert solved.fine[a].values.tobytes() == \
            g.solve_g_heat(a, wide_band, 1.0, cfg).values.tobytes()
        assert solved.fine[b].values.tobytes() == \
            g.solve_g_heat(b, wide_band, 1.0, cfg).values.tobytes()


class TestConfigRejections:
    def test_space_floor(self):
        with pytest.raises(PdeError):
            g.PdeConfig(-1, 1, 8)
        # the coarse twin of a grid below 32 intervals is below the floor
        assert g.PdeConfig(-1, 1, 32).coarsened().n_space == 16
        with pytest.raises(PdeError):
            g.PdeConfig(-1, 1, 31).coarsened()

    def test_unbounded_payoff_declaration_rejected(self):
        with pytest.raises(Exception):
            g.Payoff(f=lambda x: x, lower_bound=-math.inf, upper_bound=math.inf,
                     name="unbounded")

    def test_coarse_grid_with_large_h_rejected(self, wide_band):
        coeffs = g.ModelCoefficients(
            b=g.make_coefficient("constant", (0.0,)),
            h=g.make_coefficient("constant", (50.0,)),
            sigma=g.make_coefficient("constant", (1.0,)),
            K=0.0, kappa1=1.0, kappa2=1.0)
        with pytest.raises(PdeError):
            g.solve_stack(coeffs, wide_band, [g.make_payoff("gauss_bump")],
                          1.0, g.PdeConfig(-8, 8, 100))

    def test_negative_horizon_rejected(self, wide_band):
        with pytest.raises(PdeError):
            g.solve_g_heat(g.make_payoff("gauss_bump"), wide_band, -1.0,
                           g.PdeConfig(-8, 8, 100))


class TestGridFunctionExport:
    def test_csv_roundtrip(self, tmp_path, unit_band):
        u = g.solve_g_heat(g.make_payoff("gauss_bump"), unit_band, 0.5,
                           g.PdeConfig(-2, 2, 32))
        write_outputs(tmp_path, [], {"grid_u": u}, [])
        lines = (tmp_path / "grid_u.csv").read_text().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 34
        x0, v0 = lines[1].split(",")
        assert float(x0) == -2.0
        assert float(v0) == float(u.values[0])

    def test_two_grid_tolerance_covers_error(self, unit_band, heat_model):
        T = 1.0
        payoff = g.make_payoff("gauss_bump")
        solved = g.solve_semigroups(heat_model, unit_band, T,
                                    g.PdeConfig(-8, 8, 800), [payoff])
        exact = heat_semigroup_oracle(lambda z: np.exp(-z ** 2), 0.4, T)
        assert abs(solved.fine[payoff](0.4) - exact) <= \
            solved.tolerance(payoff, 0.4)


def test_solve_nbytes_bounds_the_traced_working_set():
    # the parse-time memory guard must cover what a stacked solve with a
    # policy record really holds at its peak, and not by a wide margin
    cfg = g.parse_run_config(bundled_config_path())
    f = cfg.payoff
    payoffs = [f, f.log(), f.power(cfg.check_p)]
    pde = g.PdeConfig(cfg.pde.x_min, cfg.pde.x_max, 20000)
    dt, _ = gheat._cfl_time_step(cfg.coeffs, cfg.band, 1.0, pde)
    grid = g.TimeGrid(3.0 * dt, 3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g.solve_stack(cfg.coeffs, cfg.band, payoffs, grid.horizon, pde, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = plan.solve_nbytes(len(payoffs), pde.n_space, grid.n_steps)
    assert peak <= bound
    assert bound <= 1.25 * peak
