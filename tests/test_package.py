import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import mergeforge
import mergeforge.dsl
import mergeforge.dsl.interp
import mergeforge.generator


def test_each_module_imports_alone_and_packages_reexport_nothing():
    # A fresh interpreter per module: no earlier import can hide a cycle.
    names = [m.name for m in pkgutil.walk_packages(mergeforge.__path__, "mergeforge.")]
    assert len(names) == 20
    src = str(Path(mergeforge.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for name in names:
        done = subprocess.run(
            [sys.executable, "-c", f"import {name}"], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, f"{name}: {done.stderr}"

    # Submodules are bound on their package once imported; any other public
    # name would be a second import path.
    def public(package):
        return {n for n, v in vars(package).items() if not n.startswith("_") and not isinstance(v, ModuleType)}

    assert public(mergeforge) == set()
    assert public(mergeforge.generator) == set()
    assert public(mergeforge.dsl) == {"default_budget"}
    assert mergeforge.dsl.default_budget is mergeforge.dsl.interp.default_budget
