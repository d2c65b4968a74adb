import json
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from gharnack.cli import bundled_config_path, main
from gharnack.config import ConfigError, parse_run_config

from conftest import reference_levels

CFG = bundled_config_path()


def run(args):
    return main([str(a) for a in args])


class TestConfigParsing:
    def test_bundled_config_parses(self):
        cfg = parse_run_config(CFG)
        assert cfg.band.sigma_lower == 0.9
        assert cfg.coeffs.K == 1.1
        assert cfg.seed == 20240811
        assert cfg.payoff.strictly_positive

    def test_seed_override(self):
        cfg = parse_run_config(CFG, seed_override=7)
        assert cfg.seed == 7

    def test_auto_alpha_resolves_to_star(self, tmp_path):
        text = CFG.read_text().replace("alpha = 0.81", "alpha = auto")
        p = tmp_path / "auto.cfg"
        p.write_text(text)
        cfg = parse_run_config(p)
        assert cfg.schedule.alpha == pytest.approx(0.81)  # kappa1^2 / kappa2^2

    def test_readme_grammar_block_is_the_bundled_config(self, tmp_path):
        # the README block's inline "; ..." notes are comments; its one
        # different entry, alpha = auto, resolves to the bundled 0.81
        import dataclasses
        from pathlib import Path

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Configuration grammar", 1)[1]
        block = block.split("```ini\n", 1)[1].split("```", 1)[0]
        assert "alpha = auto" in block and "0.81" not in block
        assert "b = affine             ; coefficient catalog entry" in block
        path = tmp_path / "readme.cfg"
        path.write_text(block)

        def values(cfg):
            xs = cfg.pde.nodes()
            c, f = cfg.coeffs, cfg.payoff
            out = {field.name: getattr(cfg, field.name)
                   for field in dataclasses.fields(cfg)
                   if field.name not in ("coeffs", "schedule", "payoff")}
            out["coeffs"] = (c.K, c.kappa1, c.kappa2, *(
                np.broadcast_to(fn(xs), xs.shape).tolist()
                for fn in (c.b, c.h, c.sigma)))
            out["schedule"] = (cfg.schedule.alpha, cfg.schedule.lambda0)
            out["payoff"] = (f.name, f.lower_bound, f.upper_bound,
                             f.strictly_positive, f.f(xs).tolist())
            return out

        assert values(parse_run_config(path)) == values(parse_run_config(CFG))

    def test_inverted_kappas_name_the_field(self, tmp_path):
        text = CFG.read_text().replace("kappa1 = 0.9", "kappa1 = 1.5")
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError) as err:
            parse_run_config(p)
        assert "model.kappa1" in str(err.value)

    @pytest.mark.parametrize("old,new,field", [
        ("alpha_grid = 33", "alpha_gird = 5", "check.alpha_gird"),
        ("strategy = constants", "stratgey = bang_bang", "coupling.stratgey"),
        # the CFL safety factor is a constant of the solver, not an entry
        ("n_space = 400", "n_space = 400\ncfl_safety = 0.8", "grid.cfl_safety"),
        ("[run]", "[runn]\nseed = 1\n\n[run]", "runn"),
        ("[model]", "[DEFAULT]\nsede = 1\n\n[model]", "DEFAULT.sede"),
    ])
    def test_unknown_entry_is_exit_2_naming_it(self, tmp_path, capsys, old,
                                               new, field):
        # an entry no field reads would otherwise leave its default in force
        text = CFG.read_text()
        assert text.count(old) == 1
        path = tmp_path / "typo.cfg"
        path.write_text(text.replace(old, new))
        assert run(["gheat", "--config", path, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{field}] unknown"), err
        assert not (tmp_path / "o").exists()

    def test_default_entry_a_section_reads_is_kept(self, tmp_path):
        text = CFG.read_text().replace("seed = 20240811\n", "")
        path = tmp_path / "default.cfg"
        path.write_text("[DEFAULT]\nseed = 7\n\n" + text)
        assert parse_run_config(path).seed == 7

    def test_missing_section_diagnosed(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("[model]\n")
        with pytest.raises(ConfigError):
            parse_run_config(p)

    def test_lipschitz_audit_catches_small_K(self, tmp_path):
        text = CFG.read_text().replace("K = 1.1", "K = 0.5")
        p = tmp_path / "smallk.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match="model.K"):
            parse_run_config(p)

    @pytest.mark.parametrize("n_space", [800, 4000])
    def test_pde_step_budget_admits_fine_grids(self, tmp_path, n_space):
        p = tmp_path / "fine.cfg"
        p.write_text(CFG.read_text().replace("n_space = 400",
                                             f"n_space = {n_space}"))
        assert parse_run_config(p).pde.n_space == n_space

    def test_grid_too_coarse_for_h_names_n_space(self, tmp_path):
        # |h| up to 2 needs dx <= kappa1^2 / 2 = 0.405; 36 intervals give 0.444
        text = (CFG.read_text()
                .replace("h_params = 0, 0.05, 1", "h_params = 0, 2, 1")
                .replace("K = 1.1", "K = 3.1")
                .replace("n_space = 400", "n_space = 36"))
        p = tmp_path / "coarse.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=r"grid\.n_space.*too coarse"):
            parse_run_config(p)

    def test_audit_covers_the_pde_grid(self, tmp_path, capsys):
        # sigma = 0.95 + 0.008 x stays in [0.9, 1.0] on the default state
        # domain around check.x, (-6.05, 6.05), but spans [0.886, 1.014] on
        # the PDE grid [-8, 8], where the solver reads it
        text = CFG.read_text()
        for old, new in (("b = affine", "b = constant"),
                         ("b_params = 0, -1", "b_params = 0"),
                         ("h = sine", "h = constant"),
                         ("h_params = 0, 0.05, 1", "h_params = 0"),
                         ("sigma = tanh", "sigma = affine"),
                         ("sigma_params = 0.95, 0.05, 1",
                          "sigma_params = 0.95, 0.008"),
                         ("K = 1.1", "K = 0.008"),
                         ("sigma_upper = 1.1", "sigma_upper = 1.0")):
            assert old in text
            text = text.replace(old, new)
        p = tmp_path / "wide.cfg"
        p.write_text(text)
        assert run(["semigroup", "--config", p, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [model.sigma] sigma dips to "
                              "0.886"), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n_steps,admitted,refused", [
        (256, 1.18, 1.20),
        (512, 1.37, 1.38),
    ])
    def test_coupling_stability_bound(self, tmp_path, n_steps, admitted,
                                      refused):
        # largest admitted alpha at clip 0.01: 1.19 on 256 steps, 1.375 on 512
        base = CFG.read_text().replace("n_steps = 256", f"n_steps = {n_steps}")
        p = tmp_path / "alpha.cfg"
        p.write_text(base.replace("alpha = 0.81", f"alpha = {admitted}"))
        assert parse_run_config(p).schedule.alpha == admitted
        p.write_text(base.replace("alpha = 0.81", f"alpha = {refused}"))
        with pytest.raises(ConfigError,
                           match=r"coupling\.alpha.*r = .*largest admitted "
                                 r"alpha is 1\.(18|37)"):
            parse_run_config(p)

    def test_clip_epsilon_window(self, tmp_path):
        text = CFG.read_text().replace("clip_epsilon = 0.01",
                                       "clip_epsilon = 0.5")
        p = tmp_path / "clip.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match="clip_epsilon"):
            parse_run_config(p)


class TestCliExitCodes:
    def test_suite_passes_on_bundled_config(self, tmp_path):
        assert run(["suite", "--out", tmp_path / "o"]) == 0
        for name in ("report.json", "estimates.csv", "grid_u.csv", "paths.csv"):
            assert (tmp_path / "o" / name).exists()

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        text = CFG.read_text().replace("kappa1 = 0.9", "kappa1 = 1.5")
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert run(["suite", "--config", bad, "--out", tmp_path / "o"]) == 2
        assert "model.kappa1" in capsys.readouterr().err

    def test_inadmissible_p_is_exit_2(self, tmp_path, capsys):
        text = CFG.read_text().replace("p = 2.0", "p = 1.2")
        bad = tmp_path / "p.cfg"
        bad.write_text(text)
        assert run(["harnack", "--config", bad, "--out", tmp_path / "o"]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, tmp_path):
        assert run(["suite", "--config", tmp_path / "nope.cfg",
                    "--out", tmp_path / "o"]) == 2

    def test_garbage_config_is_exit_2(self, tmp_path):
        bad = tmp_path / "garbage.cfg"
        bad.write_text("key without section = 3\n")
        assert run(["gheat", "--config", bad, "--out", tmp_path / "o"]) == 2

    def test_violated_inequality_is_exit_1(self, tmp_path, monkeypatch):
        from gharnack import cli

        def broken(cfg):
            return [{"kind": "synthetic", "passed": False}], {}, []

        monkeypatch.setitem(cli._RUNNERS, "gradient", broken)
        assert run(["gradient", "--out", tmp_path / "o"]) == 1

    def test_internal_error_is_exit_3(self, tmp_path, monkeypatch, capsys):
        from gharnack import cli

        def broken(cfg):
            raise RuntimeError("synthetic fault")

        monkeypatch.setitem(cli._RUNNERS, "gradient", broken)
        assert run(["gradient", "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: synthetic fault\n"

    @pytest.mark.parametrize("command,name", [("gheat", "grid_u.csv"),
                                              ("coupling", "paths.csv")])
    def test_fault_while_writing_leaves_no_partial_file(self, tmp_path,
                                                        monkeypatch, command,
                                                        name):
        # the rows of grid_u.csv or paths.csv fail after the first few have
        # been formatted: exit 3, and no truncated file under the final name
        from gharnack import cli
        from gharnack.gheat import GridFunction

        class Failing(list):
            def __iter__(self):
                yield from list(super().__iter__())[:3]
                raise RuntimeError("fault while writing")

        runner = cli._RUNNERS[command]

        def faulty(cfg):
            entries, artifacts, estimates = runner(cfg)
            if "grid_u" in artifacts:
                u = artifacts["grid_u"]
                artifacts["grid_u"] = GridFunction(Failing(u.x_nodes),
                                                   u.values)
            else:
                artifacts["paths"] = Failing(artifacts["paths"])
            return entries, artifacts, estimates

        monkeypatch.setitem(cli._RUNNERS, command, faulty)
        out = tmp_path / "o"
        assert run([command, "--out", out]) == 3
        assert not (out / name).exists()
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    @pytest.mark.parametrize("field,old,new", [
        ("model.K", "K = 1.1", "K = nan"),
        ("check.p", "p = 2.0", "p = nan"),
        ("grid.x_max", "x_max = 8", "x_max = inf"),
    ])
    def test_non_finite_value_names_the_field(self, tmp_path, capsys, field,
                                              old, new):
        bad = tmp_path / "nonfinite.cfg"
        bad.write_text(CFG.read_text().replace(old, new))
        assert run(["gheat", "--config", bad, "--out", tmp_path / "o"]) == 2
        assert f"[{field}]" in capsys.readouterr().err

    @pytest.mark.parametrize("field,old,new", [
        ("model.b_params", "b_params = 0, -1", "b_params = 0"),
        ("model.sigma_params", "sigma_params = 0.95, 0.05, 1",
         "sigma_params = 0.95, 0.05, 1, 7"),
        ("check.payoff_params", "payoff_params = 0.1",
         "payoff_params = 0.1, 2, 3"),
        ("model.b", "b = affine", "b = cubic"),
        ("check.payoff", "payoff = shifted_bump", "payoff = cubic"),
        ("grid.n_steps", "n_steps = 256", "n_steps = 0"),
        # below 32 the coarse grid of the two-grid tolerance is not half
        # the fine one
        ("grid.n_space", "n_space = 400", "n_space = 16"),
        ("grid.n_space", "n_space = 400", "n_space = 31"),
        ("grid.x_min", "x_min = -8", "x_min = 9"),
    ])
    def test_bad_value_names_its_field(self, tmp_path, capsys, field, old,
                                       new):
        bad = tmp_path / "bad.cfg"
        text = CFG.read_text()
        assert old in text
        bad.write_text(text.replace(old, new))
        assert run(["suite", "--config", bad, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{field}]"), err

    @pytest.mark.parametrize("field,old,new", [
        ("model.kappa2", "kappa2 = 1.0", "kappa2 = 1e300"),
        ("model.K", "K = 1.1", "K = 1e300"),
        ("band.sigma_lower", "sigma_lower = 0.9", "sigma_lower = 1e-300"),
        ("band.sigma_upper", "sigma_upper = 1.1", "sigma_upper = 1e300"),
        ("check.p", "p = 2.0", "p = 1e300"),
        ("model.sigma_params", "sigma_params = 0.95, 0.05, 1",
         "sigma_params = 1e300, 0.05, 1"),
        ("check.payoff_params", "payoff_params = 0.1",
         "payoff_params = 1e300"),
        ("grid.n_space", "horizon = 1.0", "horizon = 1e300"),
    ])
    def test_huge_value_names_the_field(self, tmp_path, capsys, field, old,
                                        new):
        # Python float ** raises OverflowError on these, numpy warns; the
        # parser refuses them before any work, in one short line
        bad = tmp_path / "huge.cfg"
        text = CFG.read_text()
        assert old in text
        bad.write_text(text.replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["suite", "--config", bad, "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{field}]"), err
        assert len(err) < 240 and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_feedback_strategy_is_exit_2_at_parse(self, tmp_path, capsys):
        # the coupled pass runs open-loop families only, so every subcommand
        # refuses the field before any work, not the coupling runner later
        bad = tmp_path / "feedback.cfg"
        text = CFG.read_text()
        assert "strategy = constants" in text
        bad.write_text(text.replace("strategy = constants",
                                    "strategy = feedback"))
        for command in ("gheat", "semigroup", "scenario", "coupling",
                        "harnack", "gradient", "suite"):
            out = tmp_path / command
            assert run([command, "--config", bad, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: [coupling.strategy]"), err
            assert not out.exists()

    def test_equal_starts_pass_the_coupling_checks(self, tmp_path):
        # y = x: every gap is exactly 0 at every clip, an admissible trend
        same = tmp_path / "same.cfg"
        same.write_text(CFG.read_text().replace("y = 0.5", "y = 0.0"))
        assert run(["coupling", "--config", same, "--out", tmp_path / "o"]) == 0
        entries = json.loads((tmp_path / "o" / "report.json").read_text())
        trend, = [e for e in entries if e["kind"] == "coupling_trend"]
        assert trend["passed"] and trend["strictly_decreasing"]
        assert all(row["weighted_mean"] == 0.0 for row in trend["rows"])

    @pytest.mark.parametrize("command", ["coupling", "suite"])
    def test_underflowing_weights_are_exit_2(self, tmp_path, capsys,
                                             command):
        # |x - y| = 6 over T = 0.02 drives every log M of every control
        # below -745 at the clip node, where each exp(log M) is 0 and the
        # M-weighted trend statistics were 0/0 (exit 3 on a -inf in JSON)
        text = CFG.read_text()
        for old, new in (("horizon = 1.0", "horizon = 0.02"),
                         ("y = 0.5", "y = 6"),
                         ("sigma = tanh", "sigma = constant"),
                         ("sigma_params = 0.95, 0.05, 1", "sigma_params = 0.9"),
                         ("kappa2 = 1.0", "kappa2 = 0.9"),
                         ("clip_epsilon = 0.01", "clip_epsilon = 0.001")):
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        far = tmp_path / "far.cfg"
        far.write_text(text)
        assert run([command, "--config", far, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: control 0: all 2048 weights")
        assert "coupling.n_paths" in err and "check.y" in err
        assert not (tmp_path / "o").exists()

    def test_degenerate_weights_are_exit_2(self, tmp_path, capsys):
        # the degenerate row of the ROADMAP weights table: at T = 0.1 and
        # |x - y| = 6 one path carries nearly all the weight M at every
        # clip node, an effective sample size of about 1.0 of 2048
        text = CFG.read_text()
        for old, new in (("horizon = 1.0", "horizon = 0.1"),
                         ("y = 0.5", "y = 6"),
                         ("sigma = tanh", "sigma = constant"),
                         ("sigma_params = 0.95, 0.05, 1", "sigma_params = 0.9"),
                         ("kappa2 = 1.0", "kappa2 = 0.9"),
                         ("clip_epsilon = 0.01", "clip_epsilon = 0.001")):
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        far = tmp_path / "far.cfg"
        far.write_text(text)
        assert run(["coupling", "--config", far, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert re.match(r"validation error: control 0: all 2048 weights .* "
                        r"count as 1 draws \(Kish's effective sample size\), "
                        r"below the floor of 2", err), err
        assert "[coupling.n_paths]" in err and "[check.y]" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [20240811, 9])
    def test_far_start_above_the_ess_floor_runs(self, tmp_path, monkeypatch,
                                                seed):
        # y = 1.5 on the bundled model: the smallest effective sample size
        # over the clip nodes and controls is 19.9 at the bundled seed and
        # 2.25 at seed 9, both above the floor of 2, so both runs are judged
        # (and pass), however thin seed 9's sample is
        from gharnack import cli, coupling

        cfg = parse_run_config(with_y(tmp_path, 1.5), seed_override=seed)
        seen = []
        check = coupling.ClipSample.require_included

        def recorded(sample, label):
            m = np.exp(sample.log_m - sample.log_m.max())
            seen.append(float(np.sum(m)) ** 2 / float(np.sum(m * m)))
            return check(sample, label)

        monkeypatch.setattr(coupling.ClipSample, "require_included", recorded)
        entries, _, _ = cli.run_coupling(cfg)
        assert all(e["passed"] for e in entries)
        assert round(min(seen), 2) == {20240811: 19.86, 9: 2.25}[seed]

    def test_alpha_near_cap_is_exit_2_before_any_work(self, tmp_path, capsys):
        # 0.99 cap = 1.6038 gives r = 26.6 on 256 steps at clip 0.01
        bad = tmp_path / "alpha.cfg"
        bad.write_text(CFG.read_text().replace("alpha = 0.81",
                                               "alpha = 1.6038"))
        start = time.perf_counter()
        code = run(["coupling", "--config", bad, "--out", tmp_path / "o"])
        elapsed = time.perf_counter() - start
        assert code == 2
        err = capsys.readouterr().err
        assert "[coupling.alpha]" in err and "r = 26.62" in err
        assert "largest admitted alpha is 1.18875" in err
        assert elapsed < 5.0
        assert not (tmp_path / "o").exists()

    def test_no_admissible_alpha_names_steps_and_K(self, tmp_path, capsys):
        # K = 1e100 gives r > 1 on 256 steps even as alpha -> 0
        bad = tmp_path / "hugeK.cfg"
        bad.write_text(CFG.read_text().replace("K = 1.1", "K = 1e100"))
        assert run(["coupling", "--config", bad, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [grid.n_steps]"), err
        assert "no alpha in (0, 1.62) is admitted" in err
        assert "model.K" in err and "largest admitted" not in err
        assert not (tmp_path / "o").exists()

    def test_zero_K_names_the_field(self, tmp_path, capsys):
        # constant coefficients admit K = 0: the heat, semigroup and
        # scenario runs need no schedule, the coupling and Harnack runs
        # refuse it before any work
        text = CFG.read_text()
        for old, new in (("b = affine", "b = constant"),
                         ("b_params = 0, -1", "b_params = 0"),
                         ("h = sine", "h = constant"),
                         ("h_params = 0, 0.05, 1", "h_params = 0"),
                         ("sigma = tanh", "sigma = constant"),
                         ("sigma_params = 0.95, 0.05, 1", "sigma_params = 0.95"),
                         ("K = 1.1", "K = 0")):
            assert old in text
            text = text.replace(old, new)
        zero = tmp_path / "zero_k.cfg"
        zero.write_text(text)
        for command in ("gheat", "semigroup", "scenario"):
            assert run([command, "--config", zero,
                        "--out", tmp_path / command]) == 0
        capsys.readouterr()
        for command in ("coupling", "harnack", "gradient", "suite"):
            out = tmp_path / command
            assert run([command, "--config", zero, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: [model.K]"), err
            assert "limit_schedule" not in err
            assert not out.exists()

    def test_payoff_without_floor_names_the_field(self, tmp_path, capsys):
        # harnack and suite solve log f, undefined for a payoff without a
        # positive lower bound: refused at parse time, before any work;
        # gradient solves f alone and runs
        text = CFG.read_text()
        for old, new in (("payoff = shifted_bump", "payoff = gauss_bump"),
                         ("payoff_params = 0.1", "payoff_params =")):
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        bump = tmp_path / "bump.cfg"
        bump.write_text(text)
        for command in ("harnack", "suite"):
            out = tmp_path / command
            assert run([command, "--config", bump, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: [check.payoff]"), err
            assert err.count("\n") == 1, err
            assert not out.exists()
        assert run(["gradient", "--config", bump,
                    "--out", tmp_path / "gradient"]) == 0

    def test_oversized_paths_are_exit_2_before_any_work(self, tmp_path,
                                                        capsys):
        big = tmp_path / "big.cfg"
        big.write_text(CFG.read_text().replace("n_paths = 2048",
                                               "n_paths = 10000000000000"))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = run(["suite", "--config", big, "--out", tmp_path / "o"])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "[coupling.n_paths]" in capsys.readouterr().err
        assert elapsed < 5.0
        assert peak < 16 * 2 ** 20
        assert not (tmp_path / "o").exists()

    def test_pde_step_count_is_exit_2_before_any_work(self, tmp_path, capsys):
        # 10^5 intervals fit in memory but need about 5.9e7 explicit steps
        big = tmp_path / "steps.cfg"
        big.write_text(CFG.read_text().replace("n_space = 400",
                                               "n_space = 100000"))
        start = time.perf_counter()
        code = run(["harnack", "--config", big, "--out", tmp_path / "o"])
        elapsed = time.perf_counter() - start
        assert code == 2
        err = capsys.readouterr().err
        assert "[grid.n_space]" in err and "node-steps" in err
        assert "5.91e+07 explicit time steps" in err
        assert elapsed < 5.0
        assert not (tmp_path / "o").exists()

    def test_oversized_pde_is_exit_2_before_any_work(self, tmp_path, capsys):
        big = tmp_path / "big.cfg"
        big.write_text(CFG.read_text().replace("n_space = 400",
                                               "n_space = 10000000000000"))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = run(["suite", "--config", big, "--out", tmp_path / "o"])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "[grid.n_space]" in err and "physical memory" in err
        assert elapsed < 5.0
        assert peak < 16 * 2 ** 20
        assert not (tmp_path / "o").exists()

    def test_oversized_n_steps_is_exit_2_before_any_work(self, tmp_path,
                                                          capsys):
        # 10^12 steps are refused before TimeGrid allocates its 7.3 TiB of
        # nodes: even at n_space 16 the policy record cannot fit
        big = tmp_path / "big.cfg"
        big.write_text(CFG.read_text().replace("n_steps = 256",
                                               "n_steps = 1000000000000"))
        tracemalloc.start()
        try:
            code = run(["suite", "--config", big, "--out", tmp_path / "o"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [grid.n_steps]"), err
        assert "physical memory" in err
        assert peak < 16 * 2 ** 20
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "latin.cfg"
        bad.write_bytes(b"\xff" + CFG.read_bytes())
        assert run(["gheat", "--config", bad, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [syntax] "), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_alpha_grid_past_2_53_names_the_field(self, tmp_path, capsys):
        # the envelope holds no array, so 2^53 alphas parse; past that an
        # index no longer fits a double, and 10^400 overflowed a float
        text = CFG.read_text()
        path = tmp_path / "alphas.cfg"
        path.write_text(text.replace("alpha_grid = 33",
                                     f"alpha_grid = {2 ** 53}"))
        assert parse_run_config(path).alpha_grid_size == 2 ** 53
        for n in (2 ** 53 + 1, 10 ** 400):
            path.write_text(text.replace("alpha_grid = 33",
                                         f"alpha_grid = {n}"))
            assert run(["gradient", "--config", path,
                        "--out", tmp_path / "o"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: [check.alpha_grid]"), err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("changes", [
        # clip nodes 0.75, 0.875, 0.9375 and 0.9375
        {"n_steps = 256": "n_steps = 16", "alpha = 0.81": "alpha = 0.3",
         "clip_epsilon = 0.01": "clip_epsilon = 0.025"},
        # no step before any clip node: all four sit at t = 0
        {"n_steps = 256": "n_steps = 1"},
    ])
    def test_sweep_epsilons_on_one_node_name_n_steps(self, tmp_path, capsys,
                                                     changes):
        # two sweep epsilons on one node give equal trend means, which no
        # inequality forbids: bad input, not a violation
        text = CFG.read_text()
        for old, new in changes.items():
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        bad = tmp_path / "sweep.cfg"
        bad.write_text(text)
        assert run(["coupling", "--config", bad, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [grid.n_steps]"), err
        assert "share a node" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field,changes", [
        # the PDE domain's width overflows
        ("grid.x_max", {"x_min = -8": "x_min = -1e308",
                        "x_max = 8": "x_max = 1e308"}),
        # e^(K T) = e^770 overflows the audit domain's half-width
        ("grid.horizon", {"horizon = 1.0": "horizon = 700",
                          "n_steps = 256": "n_steps = 8000",
                          "alpha = 0.81": "alpha = 0.1"}),
        # a finite half-width of 8.3e307, but twice it overflows the width
        ("grid.horizon", {"horizon = 1.0": "horizon = 640",
                          "n_steps = 256": "n_steps = 8000",
                          "alpha = 0.81": "alpha = 0.1"}),
    ])
    def test_audit_domain_overflow_names_the_field(self, tmp_path, capsys,
                                                   field, changes):
        text = CFG.read_text()
        for old, new in changes.items():
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        bad = tmp_path / "wide.cfg"
        bad.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["gheat", "--config", bad, "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{field}]"), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()


def with_y(tmp_path, y):
    """The bundled config with only [check] y changed."""
    text = CFG.read_text()
    assert "\ny = 0.5\n" in text
    path = tmp_path / f"y{y}.cfg"
    path.write_text(text.replace("\ny = 0.5\n", f"\ny = {y}\n"))
    return path


class TestSeparation:
    @pytest.mark.parametrize("command,y,bound", [
        ("coupling", 3, "moment bound"),
        ("coupling", 4, "moment bound"),
        ("coupling", 7.9, "moment bound"),
        ("suite", 3, "moment bound"),
        ("suite", 5, "moment bound"),
        ("harnack", 5, "power-Harnack factor"),
        ("harnack", 7.9, "power-Harnack factor"),
    ])
    def test_overflowing_bound_names_check_y(self, tmp_path, capsys,
                                             monkeypatch, command, y, bound):
        # y lies inside the PDE domain, but exp(c |x - y|^2) does not fit
        # in a double: refused before any PDE solve
        from gharnack import cli

        def no_solve(*args, **kwargs):
            raise AssertionError("PDE solve before the check.y refusal")

        monkeypatch.setattr(cli, "solve_semigroups", no_solve)
        out = tmp_path / "o"
        assert run([command, "--config", with_y(tmp_path, y),
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [check.y]"), err
        assert bound in err and "double range" in err
        assert not out.exists()

    @pytest.mark.parametrize("command",
                             ["gradient", "semigroup", "gheat", "scenario"])
    def test_runs_without_those_bounds_pass_at_y_5(self, tmp_path, command):
        assert run([command, "--config", with_y(tmp_path, 5),
                    "--out", tmp_path / "o"]) == 0

    def test_scenario_oracle_runs_at_check_x(self, tmp_path):
        # on [1, 17] the point 0 lies outside the grid, where the PDE read
        # would clamp to u(x_min): the oracle reads the PDE and starts the
        # paths at check.x, the point the gheat run reads
        text = CFG.read_text()
        for old, new in (("x_min = -8", "x_min = 1"),
                         ("x_max = 8", "x_max = 17"),
                         ("x = 0.0", "x = 3.0"), ("\ny = 0.5", "\ny = 3.5")):
            assert text.count(old) == 1
            text = text.replace(old, new)
        path = tmp_path / "shifted.cfg"
        path.write_text(text)

        def entry(command, kind):
            out = tmp_path / command
            assert run([command, "--config", path, "--out", out]) == 0
            entries = json.loads((out / "report.json").read_text())
            return next(e for e in entries if e["kind"] == kind)

        oracle = entry("scenario", "scenario_oracle")
        assert oracle["passed"]
        assert oracle["pde_value"] == entry("gheat", "gheat")["value"]

    def test_shifted_qv_tolerance_grows_with_the_shift(self, tmp_path):
        # at y = 1.5 the shift's energy is about 8.5 > T, and the Euler
        # cross term grows with it
        out = tmp_path / "o"
        assert run(["coupling", "--config", with_y(tmp_path, 1.5),
                    "--out", out]) == 0
        entries = json.loads((out / "report.json").read_text())
        qv, = [e for e in entries if e["kind"] == "shifted_qv"]
        assert qv["passed"] and qv["tolerance"] > 10.0 / 256


class TestPassFlags:
    """Each pass flag of a run flips where its band ends."""

    @pytest.mark.parametrize("z,passed", [(2.99, True), (3.01, False)])
    def test_scenario_oracle(self, monkeypatch, z, passed):
        from gharnack import cli, scenario

        solved = []
        solve = cli.solve_semigroups

        def recorded(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        def at_band(coeffs, payoff, x0, controls, n_paths, seed):
            heat, = solved
            pde = float(heat.fine[payoff](0.0))
            tol = heat.tolerance(payoff, 0.0)
            se = 0.01
            return scenario.EstimateWithError(
                value=pde + tol + z * se, std_error=se, n_paths=n_paths,
                n_controls=len(controls), best_control_id=0)

        monkeypatch.setattr(cli, "solve_semigroups", recorded)
        monkeypatch.setattr(scenario, "upper_semigroup_mc", at_band)
        entries, _, _ = cli.run_scenario(parse_run_config(CFG))
        oracle, = [e for e in entries if e["kind"] == "scenario_oracle"]
        assert oracle["passed"] is passed

    def test_young_entry_reads_the_trial_flag(self, monkeypatch):
        # a failed report with a slack inside the 1e-12 allowance: the entry
        # fails only by taking the report's flag, not by re-deriving it
        import dataclasses

        from gharnack import cli, scenario

        check = scenario.young_check
        calls = []

        def one_failed(P, g1, g2):
            report = check(P, g1, g2)
            calls.append(report)
            if len(calls) == 7:
                return dataclasses.replace(report, slack=-1e-13,
                                           passed=False)
            return report

        monkeypatch.setattr(scenario, "young_check", one_failed)
        entries, _, _ = cli.run_scenario(parse_run_config(CFG))
        young, = [e for e in entries if e["kind"] == "young"]
        assert len(calls) == young["trials"] == 200
        assert young["worst_slack"] == -1e-13
        assert young["passed"] is False

    @pytest.mark.parametrize("step,passed", [(-math.inf, True),
                                             (math.inf, False)])
    def test_shifted_qv(self, monkeypatch, step, passed):
        # one ulp below and above 10 dt T, the tolerance at the bundled
        # config, where the shift's energy is below T
        from gharnack import cli, coupling

        cfg = parse_run_config(CFG)
        tolerance = 10.0 * cfg.grid.dt * cfg.grid.horizon
        kernel = coupling.shifted_qv_discrepancy
        monkeypatch.setattr(coupling, "shifted_qv_discrepancy",
                            lambda bundle, eps: (math.nextafter(tolerance,
                                                                step),
                                                 kernel(bundle, eps)[1]))
        entries, _, _ = cli.run_coupling(cfg)
        qv, = [e for e in entries if e["kind"] == "shifted_qv"]
        assert qv["tolerance"] == tolerance
        assert qv["passed"] is passed


class TestStackedSolves:
    @pytest.mark.parametrize("command,passes", [
        ("harnack", 2), ("suite", 4), ("scenario", 2),
    ])
    def test_one_stepping_pass_per_model_and_grid(self, tmp_path, monkeypatch,
                                                  command, passes):
        from gharnack import gheat

        calls = []
        stepping = gheat.solve_stack

        def counted(coeffs, band, payoffs, *args, **kwargs):
            calls.append(len(list(payoffs)))
            return stepping(coeffs, band, payoffs, *args, **kwargs)

        monkeypatch.setattr(gheat, "solve_stack", counted)
        assert run([command, "--out", tmp_path / "o"]) == 0
        assert len(calls) == passes, calls


class TestScheduleBuilds:
    @pytest.mark.parametrize("command", ["harnack", "gradient", "suite"])
    def test_one_schedule_build_per_run(self, tmp_path, monkeypatch, command):
        # the parser builds the coupling schedule; the Harnack constants and
        # the gradient envelope read lambda(0) in closed form
        import sys

        from gharnack import plan

        calls = []
        build = plan.make_schedule

        def counted(*args, **kwargs):
            calls.append(args[0])
            return build(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "gharnack" and \
                    getattr(module, "make_schedule", None) is build:
                monkeypatch.setattr(module, "make_schedule", counted)
        assert run([command, "--out", tmp_path / "o"]) == 0
        assert len(calls) == 1, calls


class TestStackedPaths:
    def test_one_coupled_pass_per_run(self, tmp_path, monkeypatch):
        # one pass over all 5 controls per block of paths; the blocks cover
        # the 128 export paths, then the 1920 others in order, each on its
        # own rows of the seed's w
        from gharnack import coupling, plan, scenario

        calls = []
        kernel = coupling._coupled_pass

        def counted(coeffs, schedule, controls, clip_index, w, *args):
            calls.append((len(controls), w.shape[0], w[0].copy()))
            return kernel(coeffs, schedule, controls, clip_index, w, *args)

        monkeypatch.setattr(coupling, "_coupled_pass", counted)
        assert run(["coupling", "--out", tmp_path / "o"]) == 0
        cfg = parse_run_config(CFG)
        block = plan._PATH_BLOCK_BYTES // (8 * cfg.grid.n_steps)
        n_head = coupling.EXPORT_PATHS
        assert [(k, m) for k, m, _ in calls] == \
            [(5, n_head), (5, block), (5, cfg.n_paths - n_head - block)]
        for first, (_, _, row) in zip((0, n_head, n_head + block), calls):
            want = scenario.scaled_increments(cfg.seed, 1, cfg.grid, first)
            assert row.tobytes() == want.tobytes(), first

    def test_coupled_block_holds_the_export_rows(self, tmp_path,
                                                 monkeypatch):
        # at 4096 steps 2 MiB hold 64 paths: the 128 export rows run as one
        # block of their own, then the 172 others in blocks of 64, and the
        # run writes the files of a run in larger blocks
        from gharnack import coupling, plan

        cfg = tmp_path / "fine.cfg"
        cfg.write_text(CFG.read_text().replace("n_steps = 256",
                                               "n_steps = 4096")
                       .replace("n_paths = 2048", "n_paths = 300"))
        assert plan._PATH_BLOCK_BYTES // (8 * 4096) < \
            coupling.EXPORT_PATHS
        sizes = []
        kernel = coupling._coupled_pass

        def counted(coeffs, schedule, controls, clip_index, w, *args):
            sizes.append(w.shape[0])
            return kernel(coeffs, schedule, controls, clip_index, w, *args)

        monkeypatch.setattr(coupling, "_coupled_pass", counted)
        assert run(["coupling", "--config", cfg, "--out", tmp_path / "o"]) == 0
        assert sizes == [128, 64, 64, 44]
        monkeypatch.setattr(plan, "_PATH_BLOCK_BYTES", 300 * 8 * 4096)
        assert run(["coupling", "--config", cfg,
                    "--out", tmp_path / "one"]) == 0
        assert sizes[4:] == [128, 172]
        for name in ("report.json", "paths.csv"):
            assert (tmp_path / "o" / name).read_bytes() == \
                (tmp_path / "one" / name).read_bytes()

    def test_one_stacked_pass_per_scenario_run(self, tmp_path, monkeypatch):
        # one pass over all 5 controls per block of paths; the blocks cover
        # the 2048 paths in order and give the estimates of a single block
        from gharnack import plan, scenario

        assert run(["scenario", "--out", tmp_path / "one"]) == 0
        calls = []
        kernel = scenario.simulate_state_batch

        def counted(coeffs, controls, x0, w):
            calls.append((len(controls), w.shape[0]))
            return kernel(coeffs, controls, x0, w)

        cfg = parse_run_config(CFG)
        block = 500
        monkeypatch.setattr(plan, "_PATH_BLOCK_BYTES",
                            block * 8 * cfg.grid.n_steps)
        monkeypatch.setattr(scenario, "simulate_state_batch", counted)
        assert run(["scenario", "--out", tmp_path / "o"]) == 0
        assert all(k == 5 for k, _ in calls)
        assert len(calls) == -(-cfg.n_paths // block)
        assert [m for _, m in calls] == [block] * (len(calls) - 1) + \
            [cfg.n_paths - block * (len(calls) - 1)]
        for name in ("report.json", "estimates.csv"):
            assert (tmp_path / "o" / name).read_bytes() == \
                (tmp_path / "one" / name).read_bytes()

    def test_first_scenario_control_is_the_recorded_policy(self,
                                                          monkeypatch):
        # the feedback control of a scenario run is the fine pass's recorded
        # policy itself, and its level at every step is that step's mask row
        # read at each state's nearest node, clipped
        from gharnack import cli, scenario

        solved, families = [], []
        solve, estimate = cli.solve_semigroups, scenario.upper_semigroup_mc

        def recorded(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        def kept(coeffs, payoff, x0, controls, n_paths, seed):
            families.append(controls)
            return estimate(coeffs, payoff, x0, controls, n_paths, seed)

        monkeypatch.setattr(cli, "solve_semigroups", recorded)
        monkeypatch.setattr(scenario, "upper_semigroup_mc", kept)
        cfg = parse_run_config(CFG)
        cli.run_scenario(cfg)
        (heat,), (controls,) = solved, families
        policy = controls[0]
        assert policy is heat.policy[cfg.payoff]
        assert policy.grid == cfg.grid
        assert policy.hi_mask.shape == (cfg.grid.n_steps, cfg.pde.n_space + 1)
        assert np.any(policy.hi_mask) and not np.all(policy.hi_mask)
        dx = cfg.pde.dx
        x = np.concatenate((np.linspace(cfg.pde.x_min - 1.0,
                                        cfg.pde.x_max + 1.0, 997),
                            cfg.pde.nodes()[:-1] + 0.5 * dx))
        levels_at = scenario._level_rows(controls, x.size)
        states = np.broadcast_to(x, (len(controls), x.size))
        for j in range(cfg.grid.n_steps):
            assert np.array_equal(levels_at(j, states)[0],
                                  reference_levels(policy, j, x))

    def test_coupling_run_holds_no_full_paths_of_every_control(self):
        # 5 controls x 2048 paths x 257 nodes: one (k, n_steps + 1, n_paths)
        # array is 21 MB, w 4.2 MB; export rows with every node of levels,
        # x, y and log M would be 5.3 MB
        from gharnack import cli
        from gharnack.coupling import EXPORT_PATHS

        cfg = parse_run_config(CFG)
        k, n, s = cfg.n_controls, cfg.n_paths, cfg.grid.n_steps
        tracemalloc.start()
        try:
            cli.run_coupling(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        w_nbytes = n * s * 8
        export = 4 * (s + 1) * k * EXPORT_PATHS * 8
        assert peak < w_nbytes + export + 64 * k * n * 8
        assert peak < k * (s + 1) * n * 8


    @staticmethod
    def coupling_run_peak(cfg):
        """The tracemalloc peak of a coupled run after a first one, whose
        peak also holds what loading modules such as `streams` keeps."""
        from gharnack import cli

        cli.run_coupling(cfg)
        tracemalloc.start()
        try:
            cli.run_coupling(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_coupling_run_keeps_no_export_table(self):
        # the export rows keep x, y, log M and the two shifted-QV sums at
        # the run's clip nodes, no table over the steps: their g at every
        # node would be 1.3 MB more, every node of levels, x, y and log M
        # 5.3 MB
        from gharnack import coupling, plan

        cfg = parse_run_config(CFG)
        k, n, s = cfg.n_controls, cfg.n_paths, cfg.grid.n_steps
        peak = self.coupling_run_peak(cfg)
        w_nbytes = n * s * 8
        block = plan._W_BLOCK_STEPS * n * 8
        state = plan._STATE_ROWS * k * n * 8
        export = 5 * plan._CLIP_NODES * k * coupling.EXPORT_PATHS * 8
        small = 2 ** 16  # the controls, their levels, lambda at the nodes
        assert peak <= w_nbytes + block + state + export + small

    def test_coupling_run_holds_one_block_of_w(self):
        # one block of w and its time-major block, never all of w: 2 MiB
        # of the 4.2 MB of w at the bundled config
        from gharnack import coupling, plan, scenario

        cfg = parse_run_config(CFG)
        k, n, s = cfg.n_controls, cfg.n_paths, cfg.grid.n_steps
        block = scenario._path_block(s)
        assert block < n
        peak = self.coupling_run_peak(cfg)
        w_block = block * (s + plan._W_BLOCK_STEPS) * 8
        # (|x - y|, log M) at the 5 clip nodes of the run, and the stiff
        # steps; the export record
        record = (2 * (1 + len(plan.SWEEP_FRACTIONS)) + 1) * k * n * 8
        export = 5 * plan._CLIP_NODES * k * coupling.EXPORT_PATHS * 8
        state = plan._STATE_ROWS * k * block * 8
        assert peak <= w_block + record + export + state + 2 ** 16

    def test_export_block_runs_apart_from_a_full_block(self):
        # the export rows run as their own block and keep no table over
        # the steps: the peak is that of one block's pass beside the
        # clip-node record
        from gharnack import plan, scenario

        cfg = parse_run_config(CFG)
        k, n, s = cfg.n_controls, cfg.n_paths, cfg.grid.n_steps
        block = scenario._path_block(s)
        w_block = block * (s + plan._W_BLOCK_STEPS) * 8
        record = (2 * (1 + len(plan.SWEEP_FRACTIONS)) + 1) * k * n * 8
        state = plan._STATE_ROWS * k * block * 8
        assert self.coupling_run_peak(cfg) <= w_block + record + state + 2 ** 16

    def test_run_nbytes_bounds_the_coupling_run(self):
        # the parse-time memory refusal counts what the coupled run holds:
        # one block of w, and less than every node of the export rows' x, y,
        # log M and levels
        from gharnack import coupling, plan

        cfg = parse_run_config(CFG)
        k, n, s = cfg.n_controls, cfg.n_paths, cfg.grid.n_steps
        need = plan.run_nbytes(n, s, k)
        assert self.coupling_run_peak(cfg) <= need
        clip_rows = 3 * (1 + len(plan.SWEEP_FRACTIONS))
        every_node = 8 * (n * (s + plan._W_BLOCK_STEPS)
                          + (plan._STATE_ROWS + clip_rows) * k * n
                          + 4 * (s + 1) * k * coupling.EXPORT_PATHS)
        assert need < every_node - 4 * 2 ** 20
        # more paths add their clip-node rows, not their rows of w
        assert plan.run_nbytes(2 * n, s, k) - need < n * s * 8

    def test_coupled_run_lets_its_record_go(self):
        # the clip samples copy their rows out of the pass's
        # (2, clip nodes, k, n_paths) record and (k, n_paths) stiff steps,
        # so a kept run holds its clip samples, (|x - y|, log M) at each
        # clip, and the export record with its masks, not the record beside
        # them: 9.8 MB of it at 16384 paths
        from gharnack import coupling, plan, scenario

        cfg = parse_run_config(CFG)
        k, n, s = cfg.n_controls, 16384, cfg.grid.n_steps
        controls = scenario.sample_controls(cfg.strategy, cfg.band, cfg.grid,
                                            k, cfg.seed)
        epsilons = [cfg.clip_epsilon] + [f * cfg.grid.horizon
                                         for f in plan.SWEEP_FRACTIONS]
        w = scenario.PathIncrements(cfg.seed, n, cfg.grid)
        w[:1]  # a first draw loads `streams` and its ziggurat tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run = coupling.simulate_coupled(cfg.coeffs, cfg.schedule,
                                            cfg.check_x, cfg.check_y,
                                            controls, epsilons, w)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        samples = 2 * len(epsilons) * k * n * 8
        # the export record and its masks of included rows
        export = (5 * 8 + 1) * len(epsilons) * k * coupling.EXPORT_PATHS
        assert run.heads.keys() == set(epsilons)
        assert held <= samples + export + 2 ** 16


class TestSubcommands:
    @pytest.mark.parametrize("command,files", [
        ("gheat", ("report.json", "grid_u.csv")),
        ("semigroup", ("report.json", "grid_u.csv")),
        ("scenario", ("report.json", "estimates.csv")),
        ("coupling", ("report.json", "paths.csv")),
        ("harnack", ("report.json", "reports.csv")),
        ("gradient", ("report.json", "reports.csv")),
    ])
    def test_subcommand_outputs(self, tmp_path, command, files):
        out = tmp_path / command
        assert run([command, "--out", out]) == 0
        for name in files:
            assert (out / name).exists(), name

    def test_harnack_report_is_array_of_reports(self, tmp_path):
        out = tmp_path / "h"
        assert run(["harnack", "--out", out]) == 0
        entries = json.loads((out / "report.json").read_text())
        kinds = [e["kind"] for e in entries]
        assert kinds == ["log", "power", "lipschitz"]
        assert all(e["passed"] for e in entries)
        csv_lines = (out / "reports.csv").read_text().splitlines()
        assert csv_lines[0] == "kind,x,y,T,p,lhs,rhs,slack,tolerance,pass"
        assert len(csv_lines) == 4

    def test_estimates_csv_header(self, tmp_path):
        out = tmp_path / "s"
        assert run(["scenario", "--out", out]) == 0
        head = (out / "estimates.csv").read_text().splitlines()[0]
        assert head == "quantity,value,std_error,n_paths,n_controls,best_control_id"


class TestDeterminism:
    def test_repeat_run_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["coupling", "--out", a]) == 0
        assert run(["coupling", "--out", b]) == 0
        for name in ("report.json", "paths.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_fresh_process_byte_identical(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import gharnack

        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["harnack", "--out", a]) == 0
        # the child imports the package the tests import, installed or not
        env = dict(os.environ,
                   PYTHONPATH=str(Path(gharnack.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "gharnack.cli", "harnack", "--out", str(b)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        for name in ("report.json", "reports.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_estimates(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["scenario", "--out", a]) == 0
        assert run(["scenario", "--out", b, "--seed", "999"]) == 0
        assert (a / "estimates.csv").read_bytes() != \
            (b / "estimates.csv").read_bytes()
