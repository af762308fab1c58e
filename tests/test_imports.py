"""sympy is loaded only by the commands that do polynomial algebra.

Each check runs in a fresh interpreter: this test process has sympy loaded
already through the germ and resolution tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import delpezzo

SRC = str(Path(delpezzo.__file__).resolve().parent.parent)

# Runs `delpezzo ARGS...` in-process, then reports on stderr whether sympy
# was imported.  The command's own exit code is passed through.
PROBE = """
import sys
from delpezzo.cli import main
sys.argv[0] = "delpezzo"
code = 0
try:
    main()
except SystemExit as exc:
    code = exc.code
print("sympy loaded:", "sympy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

SYSTEM_TEXT = "int mu\nvar s\nmu + s <= 3*m\nmu >= 1\ns >= 1/2\n"

GENERIC_CONFIG = "mode: smooth\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n1 2 3\n1 4 9\n"


def _python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def _delpezzo(*args):
    proc = _python("-c", PROBE, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr.splitlines()[-1]


def test_import_delpezzo_leaves_sympy_unloaded():
    proc = _python("-c", "import sys, delpezzo; print('sympy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("args", [
    ("lines", "--mode", "smooth"),
    ("lines", "--mode", "nodal"),
    ("case", "--id", "nodal", "--m", "4", "--subcase", "q_on_c"),
    ("verify", "--lemma", "5.1", "--m", "4"),
], ids=" ".join)
def test_sympy_free_commands(args):
    _, loaded = _delpezzo(*args)
    assert loaded == "sympy loaded: False"


def test_solve_is_sympy_free(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(SYSTEM_TEXT)
    out, loaded = _delpezzo("solve", str(path), "--m", "2")
    assert "feasible" in out
    assert loaded == "sympy loaded: False"


def test_eckardt_config_is_sympy_free(tmp_path):
    path = tmp_path / "generic.cfg"
    path.write_text(GENERIC_CONFIG)
    out, loaded = _delpezzo("eckardt", "--config", str(path))
    assert out.startswith("mode: smooth\neckardt points:")
    assert loaded == "sympy loaded: False"


def test_lct_loads_sympy_on_first_use():
    out, loaded = _delpezzo("lct", "y^2 - x^3")
    assert "5/6" in out
    assert loaded == "sympy loaded: True"
