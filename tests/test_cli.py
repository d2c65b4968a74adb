import json
import time
import tracemalloc

import pytest

from gharnack.cli import bundled_config_path, main
from gharnack.config import ConfigError, parse_run_config

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
        assert cfg.alpha == pytest.approx(0.81)  # kappa1^2 / kappa2^2

    def test_inverted_kappas_name_the_field(self, tmp_path):
        text = CFG.read_text().replace("kappa1 = 0.9", "kappa1 = 1.5")
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError) as err:
            parse_run_config(p)
        assert "model.kappa1" in str(err.value)

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
        # |h| up to 2 needs dx <= kappa1^2 / 2 = 0.405; 20 intervals give 0.8
        text = (CFG.read_text()
                .replace("h_params = 0, 0.05, 1", "h_params = 0, 2, 1")
                .replace("K = 1.1", "K = 3.1")
                .replace("n_space = 400", "n_space = 20"))
        p = tmp_path / "coarse.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=r"grid\.n_space.*too coarse"):
            parse_run_config(p)

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
        assert parse_run_config(p).alpha == admitted
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
        ("model.kappa2", "kappa2 = 1.0", "kappa2 = 1e300"),
        ("band.sigma_lower", "sigma_lower = 0.9", "sigma_lower = 1e-300"),
        ("band.sigma_upper", "sigma_upper = 1.1", "sigma_upper = 1e300"),
        ("check.p", "p = 2.0", "p = 1e300"),
        ("model.sigma_params", "sigma_params = 0.95, 0.05, 1",
         "sigma_params = 1e300, 0.05, 1"),
        ("check.payoff_params", "payoff_params = 0.1",
         "payoff_params = 1e300"),
    ])
    def test_huge_value_names_the_field(self, tmp_path, capsys, field, old,
                                        new):
        # Python float ** raises OverflowError on these; the parser refuses
        # them before any work
        bad = tmp_path / "huge.cfg"
        text = CFG.read_text()
        assert old in text
        bad.write_text(text.replace(old, new))
        assert run(["suite", "--config", bad, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{field}]"), err
        assert not (tmp_path / "o").exists()

    def test_equal_starts_pass_the_coupling_checks(self, tmp_path):
        # y = x: every gap is exactly 0 at every clip, an admissible trend
        same = tmp_path / "same.cfg"
        same.write_text(CFG.read_text().replace("y = 0.5", "y = 0.0"))
        assert run(["coupling", "--config", same, "--out", tmp_path / "o"]) == 0
        entries = json.loads((tmp_path / "o" / "report.json").read_text())
        trend, = [e for e in entries if e["kind"] == "coupling_trend"]
        assert trend["passed"] and trend["strictly_decreasing"]
        assert all(row["weighted_mean"] == 0.0 for row in trend["rows"])

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
        assert "59145003 explicit time steps" in err
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


class TestStackedPaths:
    def test_one_coupled_pass_per_run(self, tmp_path, monkeypatch):
        from gharnack import coupling

        calls = []
        kernel = coupling._coupled_pass

        def counted(coeffs, schedule, x0, y0, controls, *args):
            calls.append(len(controls))
            return kernel(coeffs, schedule, x0, y0, controls, *args)

        monkeypatch.setattr(coupling, "_coupled_pass", counted)
        assert run(["coupling", "--out", tmp_path / "o"]) == 0
        assert calls == [5]

    def test_one_stacked_pass_per_scenario_run(self, tmp_path, monkeypatch):
        from gharnack import scenario

        calls = []
        kernel = scenario._euler_pass

        def counted(coeffs, controls, x0, w, grid, keep_nodes):
            calls.append((len(controls), keep_nodes))
            return kernel(coeffs, controls, x0, w, grid, keep_nodes)

        monkeypatch.setattr(scenario, "_euler_pass", counted)
        assert run(["scenario", "--out", tmp_path / "o"]) == 0
        assert calls == [(5, False)]

    def test_coupling_run_holds_no_full_paths_of_every_control(self):
        # 5 controls x 2048 paths x 257 nodes: one (k, n_steps + 1, n_paths)
        # array is 21 MB, w 4.2 MB, the export rows 6.6 MB in all
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
        export = 5 * (s + 1) * k * EXPORT_PATHS * 8
        assert peak < w_nbytes + export + 64 * k * n * 8
        assert peak < k * (s + 1) * n * 8


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
        import subprocess
        import sys

        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["harnack", "--out", a]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "gharnack.cli", "harnack", "--out", str(b)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for name in ("report.json", "reports.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_estimates(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["scenario", "--out", a]) == 0
        assert run(["scenario", "--out", b, "--seed", "999"]) == 0
        assert (a / "estimates.csv").read_bytes() != \
            (b / "estimates.csv").read_bytes()
