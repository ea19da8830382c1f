"""The package needs nothing beyond numpy: importing it loads no SciPy.

Every solver the package runs is its own, so results do not depend on
what else is installed.  The check runs in a fresh interpreter, so
modules the test session imported (SciPy oracles in other tests) cannot
hide or fake an import.
"""

import pathlib
import subprocess
import sys

import repro

PROBE = """
import importlib, pkgutil, sys
sys.path.insert(0, {src!r})
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":
        importlib.import_module(module.name)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_importing_every_module_loads_no_scipy():
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=src)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"
