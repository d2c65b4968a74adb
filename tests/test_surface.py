"""Four guards on the shape of the package.

Every top-level function, class and method of the package is reached from
the package itself: a name that only tests use is a route no run takes.

Every pass flag comes from the one pass rule, `model.within_band`, and its
one z constant `model.Z`: no other rule decides a `passed`, and no other
factor multiplies a standard error.

Only the two block drivers, `upper_semigroup_mc` and `simulate_coupled`,
draw increments, one block of paths at a time: no runner builds the full
increment matrix.

Only runs that draw a Monte Carlo sample load `numpy.random`: the PDE
subcommands and the parse-time audit leave it unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gharnack
from gharnack.cli import bundled_config_path

SRC = Path(gharnack.__file__).parent

# Names kept for the tests alone, each with the reason it stays.
ALLOWED = {
    # the one-row unit-coefficient case of solve_stack, the G-heat oracle
    # of criterion 01 and of the gheat tests
    "solve_g_heat",
    # the every-node oracle of one control, for the coupled-pass tests
    "simulate_bundle",
}


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
            if name in ALLOWED:
                continue
            if not any(referenced(t, name, node) for t in TREES.values()):
                unreached.append(f"{module}:{name}")
    assert not unreached, f"defined but never used in src/: {unreached}"
    assert ALLOWED <= defined, f"stale allow-list: {ALLOWED - defined}"


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


# Each probe runs in a fresh interpreter and prints whether numpy.random
# was loaded by the end.
AUDIT = """\
import gharnack
from gharnack.cli import bundled_config_path
cfg = gharnack.parse_run_config(bundled_config_path())
domain = gharnack.default_state_domain(cfg.check_x, cfg.band, cfg.coeffs,
                                       cfg.grid.horizon)
assert gharnack.validate_coefficients(cfg.coeffs, domain, cfg.grid).passed
"""


def loads_numpy_random(body, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{body}\nprint('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def run_body(command, out):
    return (f"from gharnack.cli import main\n"
            f"assert main([{command!r}, '--out', {str(out)!r}]) == 0")


@pytest.mark.parametrize("command", ["gheat", "semigroup", "harnack",
                                     "gradient"])
def test_pde_runs_leave_numpy_random_unloaded(tmp_path, command):
    assert not loads_numpy_random(run_body(command, tmp_path / "o"), tmp_path)


def test_parse_and_audit_leave_numpy_random_unloaded(tmp_path):
    assert not loads_numpy_random(AUDIT, tmp_path)


def test_monte_carlo_run_loads_numpy_random(tmp_path):
    assert loads_numpy_random(run_body("scenario", tmp_path / "o"), tmp_path)


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
