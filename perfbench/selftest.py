"""Self-test: the output checks are not vacuous.

    python3 perfbench/selftest.py

Runs `gharnack suite` once on the generated `suite_bundled` config and
requires every check to pass on the real outputs. Then, for each tamper in
`TAMPERS`, writes a copy of those outputs with one change and requires the
named check to reject it; every check has at least one tamper. Last, it runs
a round whose CLI exits with code 2 and requires that round's CLI run and
every one of its checks to count as failed. Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run

SEED = 20240811
OFF = 1.0 + 1e-6      # "a bound off by 1e-6 relative"


def report(edit):
    """Tamper with report.json through `edit(entries)`."""

    def mutate(files):
        data = json.loads(files["report.json"])
        edit(data)
        files["report.json"] = json.dumps(data, indent=2, sort_keys=True) + "\n"

    return mutate


def entry(data, kind):
    return [e for e in data if e["kind"] == kind][0]


def cell(name, row, col, edit):
    """Tamper with one CSV cell (row 0 is the header)."""

    def mutate(files):
        lines = files[name].splitlines()
        cells = lines[row].split(",")
        cells[col] = edit(cells[col])
        lines[row] = ",".join(cells)
        files[name] = "\n".join(lines) + "\n"

    return mutate


def scaled(text):
    return repr(float(text) * OFF)


def drop_file(name):
    def mutate(files):
        del files[name]

    return mutate


def drop_row(name, row):
    def mutate(files):
        lines = files[name].splitlines()
        del lines[row]
        files[name] = "\n".join(lines) + "\n"

    return mutate


def setter(kind, key, value):
    def edit(data):
        entry(data, kind)[key] = value(entry(data, kind)[key])

    return report(edit)


def flip(kind):
    return setter(kind, "passed", lambda v: not v)


def off(kind, key):
    return setter(kind, key, lambda v: v * OFF)


def extra_off(kind, key):
    def edit(data):
        entry(data, kind)["extras"][key] *= OFF

    return report(edit)


def row_edit(r, key, value):
    def edit(data):
        rows = entry(data, "coupling_trend")["rows"]
        rows[r][key] = value(rows)

    return report(edit)


def drop_kind(kind):
    def edit(data):
        data.remove(entry(data, kind))

    return report(edit)


TAMPERS = [
    ("files", "paths.csv missing", drop_file("paths.csv")),
    ("kinds", "young entry dropped", drop_kind("young")),
    ("kinds", "an entry marked failed", flip("shifted_qv")),
    ("semigroup", "value above the payoff range", setter("semigroup", "value",
                                                         lambda v: 1.2)),
    ("semigroup", "check points swapped", setter("semigroup", "x",
                                                 lambda v: 0.5)),
    ("grid_u", "u above the payoff range", cell("grid_u.csv", 7, 1,
                                                lambda v: "1.2")),
    ("grid_u", "node next to x off by 1e-6", cell("grid_u.csv", 201, 1, scaled)),
    ("scenario_bound", "PDE value under the constant-volatility bound",
     setter("scenario_oracle", "pde_value", lambda v: 0.70)),
    ("scenario_bound", "MC value under the bound by 4 SE",
     setter("scenario_oracle", "mc_value", lambda v: 0.7178 - 0.03)),
    ("scenario_verdict", "pass flag flipped", flip("scenario_oracle")),
    ("scenario_verdict", "estimates.csv value off by 1e-6",
     cell("estimates.csv", 1, 1, scaled)),
    ("young", "worst slack negative", setter("young", "worst_slack",
                                             lambda v: -1e-9)),
    ("young", "trial count", setter("young", "trials", lambda v: v - 1)),
    ("entropy", "bound off by 1e-6", off("entropy", "bound")),
    ("entropy", "pass flag flipped", flip("entropy")),
    ("moment", "bound off by 1e-6", off("moment", "bound")),
    ("moment", "slack off by 1e-6", off("moment", "slack")),
    ("trend_constants", "theory_C off by 1e-6", off("coupling_trend", "theory_C")),
    ("trend_constants", "lambda at clip off by 1e-6",
     row_edit(2, "lambda_at_clip", lambda rows: rows[2]["lambda_at_clip"] * OFF)),
    ("trend_constants", "row bound off by 1e-6",
     row_edit(0, "bound", lambda rows: rows[0]["bound"] * OFF)),
    ("trend_shape", "non-decreasing trend row",
     row_edit(2, "weighted_mean", lambda rows: rows[1]["weighted_mean"])),
    ("trend_shape", "row above C sqrt(lambda) + 3 SE",
     row_edit(3, "weighted_mean", lambda rows: rows[3]["bound"] * 1.5)),
    ("trend_shape", "fitted_C off by 1e-6", off("coupling_trend", "fitted_C")),
    ("shifted_qv", "tolerance off by 1e-6", off("shifted_qv", "tolerance")),
    ("shifted_qv", "discrepancy above tolerance",
     setter("shifted_qv", "discrepancy", lambda v: 0.04)),
    ("paths", "abs_gap off by 1e-6", cell("paths.csv", 5, 5, scaled)),
    ("paths", "m off by 1e-6", cell("paths.csv", 300, 6, scaled)),
    ("paths", "row missing", drop_row("paths.csv", 17)),
    ("log", "constant off by 1e-6", extra_off("log", "constant_printed")),
    ("log", "lhs above log sup f", setter("log", "lhs", lambda v: 0.2)),
    ("log", "P_T f(x) implied by rhs out of range",
     setter("log", "rhs", lambda v: v + 2.0)),
    ("power", "threshold off by 1e-6", extra_off("power", "threshold")),
    ("power", "exponent off by 1e-6", extra_off("power", "exponent_printed")),
    ("power", "lhs above (sup f)^p", setter("power", "lhs", lambda v: 2.0)),
    ("lipschitz", "rhs off by 1e-6", off("lipschitz", "rhs")),
    ("gradient", "envelope off by 1e-6", off("gradient", "rhs")),
    ("gradient", "alpha off the minimiser", off("gradient", "alpha")),
    ("reports_csv", "pass flag flipped", cell("reports.csv", 3, 9,
                                              lambda v: "0")),
    ("reports_csv", "slack off by 1e-6", cell("reports.csv", 1, 7, scaled)),
    ("reports_csv", "lhs differs from report.json", cell("reports.csv", 2, 5,
                                                         scaled)),
]


def tampered(real_dir, dest, mutate):
    files = {p.name: p.read_text(encoding="utf-8") for p in real_dir.iterdir()}
    mutate(files)
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir()
    for name, text in files.items():
        (dest / name).write_text(text, encoding="utf-8")


def main():
    problems = []
    bench = run.Run("suite_bundled", SEED)
    bench.cli(traced=False)
    if bench.failed:
        print(f"real outputs: {bench.failed} of {bench.attempted} operations "
              "failed", file=sys.stderr)
        return 1
    real = bench.dir / "out"
    keep = bench.dir / "real"
    shutil.rmtree(keep, ignore_errors=True)
    shutil.copytree(real, keep)

    names = {c.__name__.removeprefix("check_") for c in checks.CHECKS["suite"]}
    untampered = names - {name for name, _, _ in TAMPERS}
    if untampered:
        problems.append(f"checks without a tamper: {sorted(untampered)}")
    for name, what, mutate in TAMPERS:
        dest = bench.dir / "tampered"
        tampered(keep, dest, mutate)
        results = dict(checks.run_checks("suite", dest, bench.params))
        verdict = "rejected" if results[name] else "ACCEPTED"
        print(f"{name:18s} {what:48s} {verdict}")
        if not results[name]:
            problems.append(f"{name} accepted: {what}")

    # A CLI run that exits non-zero fails itself and all of its checks.
    bench.config.write_text(bench.config.read_text(encoding="utf-8")
                            .replace("K = 1.1", "K = 0.5"), encoding="utf-8")
    before = (bench.attempted, bench.failed)
    child, _ = bench.cli(traced=False)
    attempted = bench.attempted - before[0]
    failed = bench.failed - before[1]
    print(f"CLI exit {child.code}: {failed} of {attempted} operations failed")
    if child.code == 0 or failed != attempted or attempted != len(names) + 1:
        problems.append("a non-zero CLI exit was not counted as failed "
                        "operations")

    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
