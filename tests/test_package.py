import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import photonmem


def test_bare_import_binds_submodules():
    # the names below are reached through the package after a bare import;
    # a fresh interpreter shows what ``import photonmem`` alone binds
    src = str(Path(photonmem.__file__).resolve().parents[1])
    code = (
        "import photonmem\n"
        "photonmem.cli.main\n"
        "photonmem.simulator.DEFECT_TOL\n"
        "photonmem.fast.recommended_fast_grid\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "module", ["photonmem"] + [f"photonmem.{layer}" for layer in
                               ("core", "kernel", "adiabatic", "fast", "simulator", "optimizer",
                                "cli")]
)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
