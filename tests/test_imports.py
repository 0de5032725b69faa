"""What a process imports: the package loads its modules on first use, and
each CLI command loads only the modules it runs.

Every check runs in a fresh interpreter, since this process has long since
imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("bounds", "constructions", "graphcore", "meanineq", "search")

# Runs cli.main on its arguments (none: only imports the CLI), then prints
# whether dataclasses was loaded before the CLI was imported and after the
# command ran, and which of the package's modules were loaded.
FOOTPRINT = f"""
import json, sys
before = "dataclasses" in sys.modules
from girthbound import cli
if sys.argv[1:]:
    cli.main(sys.argv[1:])
loaded = [m for m in {MODULES!r} if "girthbound." + m in sys.modules]
print(json.dumps([before, "dataclasses" in sys.modules, loaded]))
"""

# Facts about the package in a process that imports nothing else of it.
LAZY = f"""
import json, sys
import girthbound
facts = {{"loaded": [m for m in {MODULES!r} if "girthbound." + m in sys.modules]}}
star = {{}}
exec("from girthbound import *", star)
facts["star_binds_all"] = sorted(set(star) - {{"__builtins__"}}) == sorted(girthbound.__all__)
facts["max_size"] = girthbound.max_size is girthbound.search.max_size
try:
    girthbound.no_such_name
except Exception as exc:
    facts["unknown_raises"] = type(exc).__name__
print(json.dumps(facts))
"""


def last_json_line(code: str, *argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def footprint(*argv, cwd=None):
    """(whether dataclasses loaded, package modules loaded) by a CLI run."""
    before, after, loaded = last_json_line(FOOTPRINT, *argv, cwd=cwd)
    if before:
        pytest.skip("this interpreter loads dataclasses before any package code runs")
    return after, loaded


@pytest.fixture
def files(tmp_path):
    (tmp_path / "m.json").write_text('{"rows": [[2, 5], [4, 0]]}')
    (tmp_path / "k3.json").write_text('{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
    (tmp_path / "c6.json").write_text(
        '{"v": 3, "w": 3, "edges": [[0, 0], [0, 1], [1, 1], [1, 2], [2, 2], [2, 0]]}'
    )
    return tmp_path


@pytest.mark.parametrize(
    "argv,modules",
    [
        ([], []),
        (["bound", "--v", "7", "--w", "7"], ["bounds"]),
        (["bound", "--v", "0", "--w", "3"], ["bounds"]),
        (["table", "--v-range", "3:4", "--w-range", "3:4"], ["bounds"]),
        (["table", "--v-range", "3:4", "--w-range", "3:4", "--with-search"],
         ["bounds", "graphcore", "search"]),
        (["search", "--v", "4", "--w", "4"], ["bounds", "graphcore", "search"]),
        (["construct", "expand", "--input", "k3.json", "--out", "x.json"],
         ["constructions", "graphcore"]),
        (["verify", "c6.json"], ["bounds", "graphcore"]),
        (["awm", "m.json", "--rho", "4", "--gamma", "5"], ["meanineq"]),
    ],
    ids=[
        "import-only", "bound", "bound-usage-error", "table", "table-with-search", "search",
        "construct-expand", "verify", "awm",
    ],
)
def test_a_command_loads_only_its_modules(files, argv, modules):
    dataclasses, loaded = footprint(*argv, cwd=files)
    assert loaded == modules
    assert not dataclasses


def test_importing_the_package_loads_no_module_and_names_resolve_on_use():
    facts = last_json_line(LAZY)
    assert facts == {
        "loaded": [],
        "star_binds_all": True,
        "max_size": True,
        "unknown_raises": "AttributeError",
    }
