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


def test_alpha_config_is_sympy_free(tmp_path):
    # both thresholds come from the Newton polygon, whose faces here have
    # lattice length 1 and so need no square-free test
    path = tmp_path / "generic.cfg"
    path.write_text(GENERIC_CONFIG)
    out, loaded = _delpezzo("alpha", "--config", str(path))
    assert out.startswith("alpha_1 = 2/3 (exact;")
    assert loaded == "sympy loaded: False"


@pytest.mark.parametrize("germ, loaded", [
    # H = s^2 - 1 is certified square-free modulo a prime
    ("y^2 - x^4", False),
    # H = (1 - 2*s^2)^2 has irrational double roots: its gcd with H' is
    # proven modulo a prime
    ("(y^2 - 2*x^2)^2", False),
    # H's top coefficient is divisible by P = 2^61 - 1, and sympy decides it
    ("(y - x)^2*(y - 2305843009213693951*x)", True),
], ids=["certified", "proven-gcd", "fallback"])
def test_newton_loads_sympy_only_when_the_certificate_fails(germ, loaded):
    out, line = _delpezzo("lct", "--method", "newton", germ)
    assert "(newton, " in out
    assert line == f"sympy loaded: {loaded}"


# sympy is loaded on the first use that needs it: the germs whose multiple
# roots along every exceptional line are rational need none, and neither does
# the face's double root 2/3 of the second.  Nor do the germs whose irrational
# centres lie in one quadratic or cubic field, as long as no output prints a
# site there: each of these prints E1 at the origin as its witness
LCT_LOADS = [
    ("y^2 - x^3", "5/6", False),
    ("(2*y - 3*x)^2 - x^3", "5/6", False),
    # fractional coefficients, with a site at y = 5/7
    ("(7*y - 5*x)^3 - x^4/11", "7/12", False),
    # the first blow-up meets the curve at the roots of v^2 - 2
    ("(y^2 - 2*x^2)^2 - x^5", "1/2", False),
    # ... of v^3 - 2
    ("(y^3 - 2*x^3)^2 - x^7", "1/3", False),
    # (y^2 - 3*x^2)^3 - x^7 after (x, y) -> (x + y, x + 2*y): a triple
    # point at the roots of v^2 - 2*v - 2
    ("((x + 2*y)^2 - 3*(x + y)^2)^3 - (x + y)^7", "1/3", False),
    # the second centre is irrational over QQ(sqrt2): its site moves to
    # sympy's copy of the own field
    ("((y^2 - 2*x^2)^2 - 3*x^6)^2 - x^13", "1/4", True),
    # a germ that is not reduced goes through sympy's sqf_list
    ("(y^2 - x^3)^2*(x + y)", "5/14", True),
]


def test_lct_loads_sympy_on_first_use():
    for germ, value, loaded in LCT_LOADS:
        out, line = _delpezzo("lct", germ)
        assert f"lct = {value} (blowup, exact;" in out, germ
        assert line == f"sympy loaded: {loaded}", germ
