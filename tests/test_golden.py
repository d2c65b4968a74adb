"""The golden-output manifest: thirteen CLI runs whose output files, stdout
and exit code must stay byte-identical.

`golden.json` records, per command, its argv, the config entries it changes
in the bundled config, its exit code and the sha256 of its stdout and of each
file it writes, together with the numpy version and machine it was recorded
on. The random streams are the package's own and do not change with numpy,
but the coefficients and payoffs call numpy's sin, tanh and exp, whose last
bits may differ across numpy builds and machines, so on another numpy
version or machine the test skips and names both.

A change that alters an output on purpose regenerates the manifest and
names each changed file, with the reason, in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gharnack.cli import bundled_config_path, main

MANIFEST = Path(__file__).with_name("golden.json")

# (argv, entries of the bundled config to change); seed 103, which exited 1
# at the scenario oracle on numpy's Philox stream, exits 0 on the package's
# own and is kept as a third suite seed. The gradient envelope's least value
# sits at the upper of its two middle alphas at 30 points and at the lower
# at 34. The random strategy draws its levels from `streams.uniform_levels`;
# the suite at kappa1 = kappa2 has no moment and no power-Harnack row.
COMMANDS = [
    (["suite", "--seed", "20240811"], {}),
    (["suite", "--seed", "7"], {}),
    (["suite", "--seed", "103"], {}),
    (["coupling"], {}),
    (["scenario"], {"n_paths": "16384", "n_space": "800"}),
    (["harnack"], {"n_space": "800"}),
    (["gradient"], {"alpha_grid": "30"}),
    (["gradient"], {"alpha_grid": "34"}),
    (["gheat"], {}),
    (["semigroup"], {}),
    (["coupling"], {"strategy": "random"}),
    (["coupling"], {"strategy": "bang_bang"}),
    (["suite"], {"kappa2": "0.9", "sigma": "constant", "sigma_params": "0.9"}),
]


def command_id(argv, config) -> str:
    """The argv, and the changed entries of a command whose argv repeats."""
    if [a for a, _ in COMMANDS].count(argv) == 1:
        return " ".join(argv)
    return " ".join([*argv, *(f"{k}={v}" for k, v in config.items())])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv, config, work: Path) -> dict:
    """Run `argv` in-process on the bundled config with the entries of
    `config` changed, writing into `work`; the exit code and the sha256 of
    stdout and of each output file."""
    text = bundled_config_path().read_text(encoding="utf-8")
    for key, value in config.items():
        text, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert n == 1, key
    cfg = work / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = work / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--config", str(cfg), "--out", str(out)])
    return {"argv": argv, "config": config, "exit": code,
            "stdout": sha256(stdout.getvalue().encode("utf-8")),
            "files": {p.name: sha256(p.read_bytes())
                      for p in sorted(out.iterdir())}}


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


GOLDEN = json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[command_id(*command) for command in COMMANDS])
def test_outputs_match_the_golden_manifest(tmp_path, index):
    here, there = environment(), {k: GOLDEN[k] for k in ("numpy", "machine")}
    if here != there:
        pytest.skip(f"manifest recorded on numpy {there['numpy']} "
                    f"({there['machine']}); this is numpy {here['numpy']} "
                    f"({here['machine']})")
    argv, config = COMMANDS[index]
    expected = GOLDEN["commands"][index]
    assert (expected["argv"], expected["config"]) == (argv, config)
    assert record(argv, config, tmp_path) == expected


if __name__ == "__main__":
    commands = []
    for argv, config in COMMANDS:
        with tempfile.TemporaryDirectory() as work:
            commands.append(record(argv, config, Path(work)))
            print(" ".join(argv), "->", commands[-1]["exit"], file=sys.stderr)
    MANIFEST.write_text(json.dumps({**environment(), "commands": commands},
                                   indent=2) + "\n", encoding="utf-8")
