"""Eight guards on the shape of the package.

Every top-level function, class and method of the package is reached from
the package itself, or is public, a name of the lazy table of
`gharnack/__init__.py`: a name that only tests use is a route no run takes.

Every pass flag comes from the one pass rule, `model.within_band`, and its
one z constant `model.Z`: no other rule decides a `passed`, and no other
factor multiplies a standard error.

Only the two block drivers, `upper_semigroup_mc` and `simulate_coupled`,
draw increments, one block of paths at a time: no runner builds the full
increment matrix.

Only `cli.py` writes files: the solvers and checkers return reports and
arrays, and the command line formats and writes every output file.

No run loads `numpy.random`: the Monte Carlo subcommands draw from the
package's own Philox streams, and the PDE subcommands and the parse-time
audit draw nothing.

Each run loads only the modules its work reads: `import gharnack` loads no
submodule, parsing and auditing a config load `config`, `plan` and `model`
alone, each subcommand loads the command line, `gheat` and its own layers, so
`harnack`, `gradient`, `gheat` and `semigroup` load no `scenario`,
`coupling` or `streams`.

The lazy package keeps every public name it had when it imported every
module, each resolved on first use and listed by `dir(gharnack)`.

Coefficients take x alone: time enters only through the grid and the
coupling weight, so no coefficient is built or called with a time."""

import ast
import functools
import importlib
import inspect
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import gharnack
from gharnack import model
from gharnack.cli import bundled_config_path
from gharnack.gheat import _UNIT_COEFFS

SRC = Path(gharnack.__file__).parent

# Names kept for the tests alone, each with the reason it stays.
ALLOWED = {
    # the residual of the schedule's defining identity, read by acceptance
    # criterion 03 and the schedule tests only
    "identity_residual",
}
# Names reached as `gharnack.<name>` through the package's lazy table,
# such as `solve_g_heat`, the G-heat oracle of criterion 01.
PUBLIC = set(gharnack._HOME)


def definitions(tree):
    """(name, node) of each top-level function and class and of each method
    of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub.name, sub


def referenced(tree, name, skip):
    """Whether an ast.Name or ast.Attribute in `tree`, outside the subtree
    `skip`, uses `name`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def test_every_definition_is_referenced_in_the_package():
    unreached = []
    defined = set()
    for module, tree in TREES.items():
        for name, node in definitions(tree):
            defined.add(name)
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in ALLOWED or name in PUBLIC:
                continue
            if not any(referenced(t, name, node) for t in TREES.values()):
                unreached.append(f"{module}:{name}")
    assert not unreached, f"defined but never used in src/: {unreached}"
    assert ALLOWED <= defined, f"stale allow-list: {ALLOWED - defined}"
    assert not ALLOWED & PUBLIC, f"public names allowed: {ALLOWED & PUBLIC}"


def is_within_band_call(node):
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "within_band"
        or getattr(node.func, "attr", None) == "within_band")


def calls_within_band(node):
    return any(is_within_band_call(n) for n in ast.walk(node))


def bindings(function):
    """name -> value of each plain assignment in `function`."""
    bound = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = node.value
    return bound


def banded(value, bound):
    """Whether a `passed` value is decided by within_band: a call of it, a
    name bound from an expression that calls it, a `.passed` flag forwarded
    from a report built elsewhere (and checked there), or an `and` of these
    that may also hold exact conditions, names bound from an expression
    with no arithmetic and so no band of its own."""
    if is_within_band_call(value):
        return True
    if isinstance(value, ast.Attribute):
        return value.attr == "passed"
    if isinstance(value, ast.Name):
        return value.id in bound and calls_within_band(bound[value.id])
    if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.And):
        def exact(operand):
            return (isinstance(operand, ast.Name) and operand.id in bound
                    and not any(isinstance(n, ast.BinOp)
                                for n in ast.walk(bound[operand.id])))

        return (all(banded(v, bound) or exact(v) for v in value.values)
                and any(banded(v, bound) for v in value.values))
    return False


def pass_flags(tree):
    """(line, value, bindings of its function) of each `passed=` keyword and
    each `"passed":` dict value in the functions of `tree`."""
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        bound = bindings(function)
        for node in ast.walk(function):
            if isinstance(node, ast.keyword) and node.arg == "passed":
                yield node.value.lineno, node.value, bound
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant) and key.value == "passed":
                        yield value.lineno, value, bound


def test_every_pass_flag_comes_from_within_band():
    flags, stray = 0, []
    for module, tree in TREES.items():
        for line, value, bound in pass_flags(tree):
            flags += 1
            if not banded(value, bound):
                stray.append(f"{module}:{line}: {ast.unparse(value)}")
    assert not stray, f"pass flags not decided by within_band: {stray}"
    assert flags >= 10


def is_std_error(node):
    name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
    return name in ("se", "std_error") or name.endswith("_se")


def test_z_is_the_only_std_error_factor():
    z = [node for node in TREES["model.py"].body
         if isinstance(node, ast.Assign)
         and [getattr(t, "id", None) for t in node.targets] == ["Z"]]
    assert len(z) == 1 and isinstance(z[0].value, ast.Constant), \
        "model.py defines no constant Z"
    factors = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mult)):
                continue
            for side, other in ((node.left, node.right),
                                (node.right, node.left)):
                if is_std_error(side) and getattr(other, "id", None) != "Z":
                    factors.append(f"{module}:{node.lineno}: "
                                   f"{ast.unparse(node)}")
    assert not factors, f"standard errors scaled by other than Z: {factors}"


# The passes that advance the paths one block of rows at a time.
BLOCK_DRIVERS = ("upper_semigroup_mc", "simulate_coupled")


def functions(tree):
    """(qualified name, node) of each top-level function and of each method
    of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def call_name(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_increments_are_drawn_only_by_the_block_drivers():
    # scaled_increments is called only by PathIncrements, which draws the
    # block it is sliced by, and a PathIncrements is made only in a block
    # driver or as the increments handed to one
    drawn, made, stray = [], [], []
    for module, tree in TREES.items():
        for name, function in functions(tree):
            calls = [n for n in ast.walk(function) if isinstance(n, ast.Call)]
            handed = {id(arg) for call in calls
                      if call_name(call) in BLOCK_DRIVERS
                      for arg in [*call.args,
                                  *(kw.value for kw in call.keywords)]}
            for call in calls:
                site = f"{module}:{call.lineno}: {name}"
                if call_name(call) == "scaled_increments":
                    drawn.append(site)
                    if name != "PathIncrements.__getitem__":
                        stray.append(site)
                if call_name(call) == "PathIncrements":
                    made.append(site)
                    if name not in BLOCK_DRIVERS and id(call) not in handed:
                        stray.append(site)
    assert not stray, f"increments drawn outside the block drivers: {stray}"
    assert len(drawn) == 1 and len(made) == 2, (drawn, made)


# Calls that write a file whatever their arguments; `os.replace` and `open`
# with a writing mode are told apart below.
WRITE_CALLS = ("write_text", "write_bytes", "_atomic_write", "savetxt",
               "tofile")


def writes_file(call):
    """Whether `call` writes a file: one of WRITE_CALLS, `os.replace`, or an
    `open` (the builtin or a method) whose mode writes or cannot be read
    off the call."""
    name = call_name(call)
    if name in WRITE_CALLS:
        return True
    if name == "replace":
        return getattr(getattr(call.func, "value", None), "id", None) == "os"
    if name != "open":
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    position = 1 if isinstance(call.func, ast.Name) else 0
    modes += call.args[position:position + 1]
    return any(not (isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str))
               or set(mode.value) & set("wax+") for mode in modes)


def test_only_cli_writes_files():
    writes = {module: [f"{module}:{call.lineno}: {ast.unparse(call.func)}"
                       for call in ast.walk(tree)
                       if isinstance(call, ast.Call) and writes_file(call)]
              for module, tree in TREES.items()}
    stray = [site for module, sites in writes.items() if module != "cli.py"
             for site in sites]
    assert not stray, f"files written outside cli.py: {stray}"
    assert writes["cli.py"], "cli.py writes no file"


def positional_parameters(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def test_coefficients_take_x_alone():
    built = {name: model.make_coefficient(name, [1.0] * count)
             for name, (count, _, _) in model._COEFFICIENTS.items()}
    built.update({f"unit {role}": getattr(_UNIT_COEFFS, role)
                  for role in ("b", "h", "sigma")})
    wider = {name: positional_parameters(fn) for name, fn in built.items()
             if len(positional_parameters(fn)) != 1}
    assert not wider, f"coefficients not of x alone: {wider}"
    timed = [f"{module}:{call.lineno}: {ast.unparse(call)}"
             for module, tree in TREES.items() for call in ast.walk(tree)
             if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Attribute)
             and call.func.attr in ("b", "h", "sigma") and len(call.args) > 1]
    assert not timed, f"coefficients called with more than x: {timed}"


# Each probe runs in a fresh interpreter, from the source tree, in an empty
# directory. The audit reads the bundled config by its path in the tree, so
# that it loads no `cli`.
AUDIT = f"""\
import gharnack
cfg = gharnack.parse_run_config({str(SRC / "data" / "acceptance.cfg")!r})
domain = gharnack.default_state_domain(cfg.check_x, cfg.band, cfg.coeffs,
                                       cfg.grid.horizon)
assert gharnack.validate_coefficients(cfg.coeffs, domain, cfg.grid).passed
"""


@functools.lru_cache(maxsize=None)
def loaded(body):
    """The `gharnack` modules, and `numpy.random`, loaded by the end of a
    fresh interpreter that runs `body`."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    report = ("print(*sorted(m for m in sys.modules if m == 'numpy.random' "
              "or m.partition('.')[0] == 'gharnack'))")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys\n{body}\n{report}"],
            capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.splitlines()[-1].split())


def run_body(command):
    return (f"from gharnack.cli import main\n"
            f"assert main([{command!r}, '--out', 'o']) == 0")


@pytest.mark.parametrize("command", ["gheat", "semigroup", "harnack",
                                     "gradient"])
def test_pde_runs_leave_numpy_random_unloaded(command):
    assert "numpy.random" not in loaded(run_body(command))


def test_parse_and_audit_leave_numpy_random_unloaded():
    assert "numpy.random" not in loaded(AUDIT)


@pytest.mark.parametrize("command", ["scenario", "coupling", "suite"])
def test_monte_carlo_runs_leave_numpy_random_unloaded(command):
    assert "numpy.random" not in loaded(run_body(command))


def test_package_import_loads_no_module():
    assert loaded("import gharnack") == {"gharnack"}


def test_parse_and_audit_load_no_solver():
    assert loaded(AUDIT) == {"gharnack", "gharnack.config", "gharnack.plan",
                             "gharnack.model"}


# Every subcommand loads the command line, the parser with the plan and
# model layers, and gheat; each loads the other layers it runs.
COMMAND_LINE = {"gharnack", "gharnack.cli", "gharnack.config",
                "gharnack.plan", "gharnack.model", "gharnack.gheat"}
MONTE_CARLO = {"gharnack.scenario", "gharnack.streams"}
RUN_LOADS = {
    "gheat": COMMAND_LINE,
    "semigroup": COMMAND_LINE,
    "harnack": COMMAND_LINE | {"gharnack.harnack"},
    "gradient": COMMAND_LINE | {"gharnack.harnack"},
    "scenario": COMMAND_LINE | MONTE_CARLO,
    "coupling": COMMAND_LINE | MONTE_CARLO | {"gharnack.coupling"},
    "suite": COMMAND_LINE | MONTE_CARLO | {"gharnack.coupling",
                                           "gharnack.harnack"},
}


@pytest.mark.parametrize("command", sorted(RUN_LOADS))
def test_each_subcommand_loads_its_own_modules(command):
    assert loaded(run_body(command)) == RUN_LOADS[command]


# The public names of the package when its `__init__` imported every
# module.
PUBLIC_AT_FIRST = (
    "ModelCoefficients", "ModelError", "Payoff", "TimeGrid",
    "ValidationReport", "VolatilityBand", "Z", "default_state_domain",
    "g_function", "make_coefficient", "make_payoff", "validate_coefficients",
    "within_band",
    "GridFunction", "PdeConfig", "PdeError", "PolicyTable", "Semigroups",
    "solve_g_heat", "solve_semigroups", "solve_stack",
    "EstimateWithError", "PathIncrements", "ScenarioControl", "ScenarioError",
    "YoungReport", "random_young_trials", "sample_controls",
    "upper_semigroup_mc", "young_check",
    "CouplingError", "CouplingSchedule", "ClipSample", "CoupledRun",
    "SlackReport", "coupling_success_check", "entropy_bound_check",
    "entropy_bound_value", "make_schedule", "moment_bound_check",
    "moment_bound_value", "moment_exponent_a", "simulate_coupled",
    "HarnackError", "HarnackReport", "check_gradient_estimate",
    "check_log_harnack", "check_power_harnack", "gradient_bound",
    "lipschitz_transport_check", "log_harnack_constant",
    "power_harnack_exponent", "power_threshold",
    "ConfigError", "RunConfig", "parse_run_config",
)


def test_lazy_package_keeps_every_public_name():
    # each name resolves to the object its table entry's module defines
    listed = dir(gharnack)
    assert "__version__" in listed and gharnack.__version__ == "0.1.0"
    assert set(gharnack._HOME) == set(PUBLIC_AT_FIRST)
    for name in PUBLIC_AT_FIRST:
        home = importlib.import_module(f"gharnack.{gharnack._HOME[name]}")
        assert name in listed, name
        assert getattr(gharnack, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        gharnack.no_such_name


def test_audit_numbers_on_the_bundled_model():
    # the values of the audit with seeded pseudo-random pairs: in one
    # dimension no pair exceeds what the adjacent grid nodes already sample
    cfg = gharnack.parse_run_config(bundled_config_path())
    domain = gharnack.default_state_domain(cfg.check_x, cfg.band, cfg.coeffs,
                                           cfg.grid.horizon)
    report = gharnack.validate_coefficients(cfg.coeffs, domain, cfg.grid)
    assert report.worst_lipschitz == 1.0999623774048488
    assert report.sigma_min == 0.8999999999999999
    assert report.sigma_max == 1.0
    assert report.passed
