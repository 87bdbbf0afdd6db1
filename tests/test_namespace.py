"""The package namespace is lazy: a name's home module is imported on first use.

Each check runs in a fresh interpreter, so that `sys.modules` starts
without any walshscape module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str):
    """The JSON that `code` prints in a new interpreter with only src/ added to its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    prelude = ("import json, sys\n"
               "def loaded():\n"
               "    return sorted(m for m in sys.modules if m.split('.')[0] == 'walshscape')\n")
    done = subprocess.run([sys.executable, "-c", prelude + code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_submodule():
    assert run_fresh("import walshscape\nprint(json.dumps(loaded()))") == ["walshscape"]


@pytest.mark.parametrize("statement", ["from walshscape import series",
                                       "from walshscape import load_dataset",
                                       "import walshscape.series"])
def test_a_series_name_loads_only_series(statement):
    assert run_fresh(f"{statement}\nprint(json.dumps(loaded()))") == ["walshscape", "walshscape.series"]


def test_tda_is_a_leaf_module():
    assert run_fresh("import walshscape.tda\nprint(json.dumps(loaded()))") == ["walshscape", "walshscape.tda"]


def test_every_public_name_is_its_home_modules_object():
    code = """
import importlib
import walshscape
homes = {}
for name in walshscape.__all__:
    value = getattr(walshscape, name)
    homes[name] = [m for m in ('dcc', 'features', 'kmeans', 'series', 'summarize', 'tda', 'wft')
                   if getattr(importlib.import_module('walshscape.' + m), name, None) is value]
print(json.dumps({"homes": homes, "all": walshscape.__all__, "version": walshscape.__version__,
                  "dir": dir(walshscape)}))
"""
    got = run_fresh(code)
    assert len(got["all"]) == 34 and got["all"] == sorted(set(got["all"]))
    assert all(got["homes"][name] for name in got["all"]), [n for n, h in got["homes"].items() if not h]
    assert set(got["all"]) | {"__all__", "__version__"} <= set(got["dir"])
    assert got["version"] == "0.1.0"


def test_star_import_binds_every_name_and_unknown_names_raise():
    code = """
import walshscape
scope = {}
exec("from walshscape import *", scope)
try:
    walshscape.nosuch
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps({"unbound": [n for n in walshscape.__all__ if n not in scope], "error": error,
                  "has_nosuch": hasattr(walshscape, "nosuch")}))
"""
    got = run_fresh(code)
    assert got == {"unbound": [], "error": "module 'walshscape' has no attribute 'nosuch'",
                   "has_nosuch": False}


def test_submodules_are_attributes():
    code = """
import walshscape
names = ["cli", "dcc", "features", "kmeans", "series", "summarize", "tda", "wft", "wire"]
print(json.dumps([getattr(walshscape, n).__name__ for n in names] + loaded()))
"""
    names = ["cli", "dcc", "features", "kmeans", "series", "summarize", "tda", "wft", "wire"]
    got = run_fresh(code)
    assert got[: len(names)] == [f"walshscape.{n}" for n in names]
    assert set(got[len(names) :]) == {"walshscape"} | {f"walshscape.{n}" for n in names}
