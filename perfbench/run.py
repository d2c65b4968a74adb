"""gharnack benchmark: fresh CLI processes on generated configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
`src/` of that checkout (nothing is installed). Each workload's config is the
bundled `acceptance.cfg` with the workload's overrides and `[run] seed = N`.

`--trace 0` times whole rounds of one set-up probe and one untraced CLI run
each for S seconds (at least one round, and at least SETUP_REPS probes) and
reports the end-to-end metrics: the median wall time and peak RSS of the CLI
process, and the median set-up time of a fresh interpreter that only parses
and validates the config.
`--trace 1` alternates an untraced and a traced run per round and reports
the per-layer metrics of the traced runs (medians over rounds), with the
tracing overhead as the difference of the two wall times.

Every CLI run must exit 0 and every output check in `checks.py` must pass;
each run and each check is one operation in `attempted`/`failed`. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED = SRC / "gharnack" / "data" / "acceptance.cfg"
WORK = ROOT / ".perfbench_work"

# name -> (subcommand, overrides of the bundled config)
WORKLOADS = {
    "suite_bundled": ("suite", {}),
    "pde_fine": ("harnack", {"grid": {"n_space": "800"}}),
    "scenario_paths": ("scenario", {"coupling": {"n_paths": "16384"},
                                    "grid": {"n_space": "800"}}),
}
SETUP_REPS = 9
CHILD_LIMIT_S = 150.0
RUN_LIMIT_S = 160.0

CLI = "import sys; from gharnack.cli import main; sys.exit(main())"
SETUP = """\
import sys
import gharnack
cfg = gharnack.parse_run_config(sys.argv[1])
domain = gharnack.default_state_domain(cfg.check_x, cfg.band, cfg.coeffs,
                                       cfg.grid.horizon)
report = gharnack.validate_coefficients(cfg.coeffs, domain, cfg.grid)
sys.exit(0 if report.passed else 1)
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, nproc)
    return env


def spawn(argv, log_path, env):
    """Run one child to its end; wall time from spawn to exit, and its own
    rusage (peak RSS, CPU time) from wait4."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(code=proc.returncode, wall_s=wall,
                 rss_mb=usage.ru_maxrss * 1024 / 1e6,
                 cpu_s=usage.ru_utime + usage.ru_stime)


def write_config(workload, seed, path):
    _, overrides = WORKLOADS[workload]
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(BUNDLED.read_text(encoding="utf-8"))
    for section, entries in overrides.items():
        for key, value in entries.items():
            cp[section][key] = value
    cp["run"]["seed"] = str(seed)
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


class Run:
    """Operations and measurements of one benchmark run."""

    def __init__(self, workload, seed):
        self.sub = WORKLOADS[workload][0]
        self.env = child_env()
        self.dir = WORK / f"{workload}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "run.cfg"
        write_config(workload, seed, self.config)
        self.params = checks.Params.from_config(self.config)
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def note(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)

    def setup_time(self):
        child = spawn([sys.executable, "-c", SETUP, str(self.config)],
                      self.dir / "setup.log", self.env)
        self.note(child.code == 0, f"set-up exited {child.code}")
        return child.wall_s

    def cli(self, traced):
        """One CLI run plus its output checks."""
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = [self.sub, "--config", str(self.config), "--out", str(out)]
        spans = self.dir / "spans.json"
        if traced:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans)] + args
        else:
            argv = [sys.executable, "-c", CLI] + args
        child = spawn(argv, self.dir / "cli.log", self.env)
        ok = child.code == 0
        self.note(ok, f"{self.sub} exited {child.code}, see {self.dir / 'cli.log'}")
        for name, error in checks.run_checks(self.sub, out, self.params):
            self.note(ok and error is None,
                      f"check {name}: {error or 'CLI run failed'}")
        record = None
        if traced and ok:
            record = json.loads(spans.read_text(encoding="utf-8"))
        return child, record

    def rounds_for(self, seconds, one_round):
        """Whole rounds for about `seconds`: at least one, and another only
        while the run would end no more than half a round past `seconds`."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            one_round()
            self.rounds += 1
            took = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if elapsed + took / 2 >= seconds or elapsed + took > RUN_LIMIT_S:
                break


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run, seconds):
    run.setup_time()  # warm-up: the first interpreter reads cold files
    setups, walls, rss = [], [], []

    def one_round():
        setups.append(run.setup_time())
        child, _ = run.cli(traced=False)
        walls.append(child.wall_s)
        rss.append(child.rss_mb)

    run.rounds_for(seconds, one_round)
    while len(setups) < SETUP_REPS:
        setups.append(run.setup_time())
    print(f"wall_s per round: {[round(w, 4) for w in walls]}", file=sys.stderr)
    return {"wall_s": median(walls), "setup_s": median(setups),
            "peak_rss_mb": median(rss)}


def per_layer(run, seconds):
    plain, traced = [], []

    def one_round():
        child, _ = run.cli(traced=False)
        plain.append(child.wall_s)
        child, record = run.cli(traced=True)
        if record is not None:
            traced.append(tracer.layer_metrics(record, child.wall_s,
                                               child.cpu_s))

    run.rounds_for(seconds, one_round)
    names = [n for n in tracer.PER_LAYER_UNITS if n != "trace.overhead_s"]
    metrics = {n: median([t[n] for t in traced]) for n in names}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(plain)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gharnack" / "__init__.py").is_file() or not BUNDLED.is_file():
        print(f"perfbench: no gharnack sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("perfbench: --seed must fit in 64 bits", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    if args.trace:
        values, units = per_layer(run, args.seconds), tracer.PER_LAYER_UNITS
    else:
        values, units = end_to_end(run, args.seconds), END_TO_END_UNITS
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    print(f"{args.workload}: {run.rounds} rounds, seed {args.seed}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
