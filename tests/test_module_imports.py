"""Every ``repro`` module must import first, in a fresh interpreter.

Import cycles only bite when a module is the *first* ``repro`` import
of a process: once the package graph is loaded, a cyclic import finds
its partner half-initialised in ``sys.modules`` and happens to work.
One subprocess walks every module of the package, purging ``repro*``
from ``sys.modules`` before each import, so each module is imported as
if it were the entry point.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

_PROBE = r"""
import importlib, json, pkgutil, sys, traceback
import repro

names = [info.name for info in
         pkgutil.walk_packages(repro.__path__, prefix="repro.")]
failures = {}
for name in names:
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures[name] = traceback.format_exc(limit=-3)
print(json.dumps({"modules": names, "failures": failures}))
"""


def test_every_module_imports_first_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]))
    completed = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=300)
    report = json.loads(completed.stdout.splitlines()[-1])
    assert len(report["modules"]) > 50
    assert report["failures"] == {}, "\n".join(
        f"{name}:\n{trace}" for name, trace in report["failures"].items())
