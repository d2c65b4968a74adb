"""Config fuzzing: mutate one field of the bundled config at a time and run
`gharnack suite` on it. Whatever the value, the run ends with a documented
exit code and no traceback, a refused config names its field, and a huge
finite value (+-1e300) never ends in an internal error."""

import configparser
import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gharnack.cli import bundled_config_path, main

# The bundled config at a size where a whole suite takes a fraction of a
# second; alpha = 0.81 keeps r = 0.72 at 128 steps.
BASE = configparser.ConfigParser(interpolation=None)
BASE.read_string(bundled_config_path().read_text())
BASE["grid"].update(n_space="100", n_steps="128")
BASE["coupling"]["n_paths"] = "200"

SPECIAL = ["nan", "inf", "-inf", "-1.5", "0", "1e300", "-1e300"]
GARBAGE = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
                  max_size=12)


def sized(hi):
    """Counts capped at `hi`, so no case allocates much or runs long."""
    return st.integers(-3, hi).map(str) | st.sampled_from(["nan", "1.5"])


def one_entry(key):
    """A float list with one entry replaced."""
    values = [v.strip() for v in BASE.get(*key.split(".")).split(",")]
    return st.tuples(st.integers(0, len(values) - 1), st.sampled_from(SPECIAL)) \
        .map(lambda iv: ", ".join(iv[1] if i == iv[0] else v
                                  for i, v in enumerate(values)))


COUNTS = {"grid.n_space": sized(400), "grid.n_steps": sized(256),
          "coupling.n_paths": sized(1024), "coupling.n_controls": sized(12),
          "check.alpha_grid": sized(64)}
LISTS = ("model.b_params", "model.h_params", "model.sigma_params",
         "check.payoff_params")


def values_for(key):
    if key in COUNTS:
        return COUNTS[key] | GARBAGE
    if key in LISTS:
        return one_entry(key) | GARBAGE
    if key == "coupling.alpha":
        # across (0, cap): r exceeds 1 above about 1.034 at 128 steps
        return st.floats(0.0, 1.62, exclude_min=True,
                         exclude_max=True).map(repr) | st.sampled_from(SPECIAL)
    return st.sampled_from(SPECIAL) | GARBAGE


KEYS = [f"{s}.{k}" for s in BASE.sections() for k in BASE[s]]
MUTATIONS = st.sampled_from(KEYS).flatmap(
    lambda key: st.tuples(st.just(key), values_for(key)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(MUTATIONS)
def test_one_mutated_field_ends_cleanly(mutation):
    key, value = mutation
    section, name = key.split(".")
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(BASE)
    cp[section][name] = value
    text = io.StringIO()
    cp.write(text)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text.getvalue())
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main(["suite", "--config", str(cfg), "--out",
                         str(Path(tmp) / "o")])
    assert code in (0, 1, 2, 3), (key, value, code)
    if "1e300" in value:
        # a huge finite value is bad input, refused at parse time, never
        # an internal error
        assert code in (0, 1, 2), (key, value, code, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue(), (key, value)
    if code == 2:
        assert re.search(r"\[[a-z_]+\.[A-Za-z_0-9]+\]", err.getvalue()), \
            (key, value, err.getvalue())
