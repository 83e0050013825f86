import os
import subprocess
import sys
from pathlib import Path

import kljnsim

ROOT = Path(__file__).resolve().parent.parent

# The package root exports only the version; everything else is imported from its module.
EXPECTED_ALL = {"__version__"}


def test_public_names_pinned():
    assert len(kljnsim.__all__) == len(EXPECTED_ALL)
    assert set(kljnsim.__all__) == EXPECTED_ALL


def test_public_names_resolve():
    for name in kljnsim.__all__:
        assert getattr(kljnsim, name) is not None


def test_simulate_loads_neither_scipy_nor_hypothesis():
    # numpy is the one runtime dependency; scipy and hypothesis serve the tests only
    code = (
        "import contextlib, io, sys\n"
        "import kljnsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert kljnsim.cli.main(['simulate', '--preset', 'gaa-1db', '--bits', '20']) == 0\n"
        "print(sorted({name.split('.')[0] for name in sys.modules} & {'scipy', 'hypothesis'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
