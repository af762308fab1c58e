"""Each command loads only the modules it reads, and sympy only when needed.

Each command check runs in a fresh interpreter: this test process has every
module, sympy among them, loaded already through the other tests.  The
package namespace re-exports lazily; its checks run in this process.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delpezzo

SRC = str(Path(delpezzo.__file__).resolve().parent.parent)

# Runs `delpezzo ARGS...` in-process, checks that it never imported click,
# then reports on stderr the delpezzo modules it loaded and, on the last line,
# whether sympy was imported.  The command's own exit code is passed through.
PROBE = """
import sys
from delpezzo.cli import main
sys.argv[0] = "delpezzo"
code = 0
try:
    main()
except SystemExit as exc:
    code = exc.code
assert "click" not in sys.modules, "the command line imported click"
print("delpezzo modules:", *sorted(name.split(".")[1] for name in sys.modules
                                   if name.startswith("delpezzo.")), file=sys.stderr)
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


def _modules_loaded(*args):
    """The delpezzo submodules that `delpezzo ARGS...` loads."""
    proc = _python("-c", PROBE, *args)
    assert proc.returncode == 0, proc.stderr
    tag, *names = proc.stderr.splitlines()[-2].split()[1:]
    assert tag == "modules:"
    return set(names) - {"cli"}


def test_import_delpezzo_leaves_sympy_unloaded():
    proc = _python("-c", "import sys, delpezzo; print('sympy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_delpezzo_loads_no_submodule():
    proc = _python("-c", "import sys, delpezzo; print(sorted(name for name in "
                         "sys.modules if name.startswith('delpezzo.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_lines_loads_nothing_but_the_lattice():
    for mode in ("smooth", "nodal"):
        assert _modules_loaded("lines", "--mode", mode) == {"lattice"}


def test_case_and_solve_load_only_the_solver(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(SYSTEM_TEXT)
    solver = {"constraints", "linalg", "poly"}
    assert _modules_loaded("case", "--id", "3", "--m", "6") == solver
    assert _modules_loaded("solve", str(path), "--m", "2") == solver


def test_lct_loads_no_geometry():
    loaded = _modules_loaded("lct", "y^2 - x^3")
    assert {"germs", "lct", "resolution"} <= loaded
    assert loaded.isdisjoint({"lattice", "constraints", "plane_config",
                              "lemma_verify"}), loaded


def test_lct_loads_the_number_fields_only_where_it_meets_one():
    resolver = {"germs", "lct", "modp", "poly", "resolution"}
    assert _modules_loaded("lct", "y^2 - x^3") == resolver
    # the first blow-up meets the curve at the roots of v^2 - 2
    assert _modules_loaded("lct", "(y^2 - 2*x^2)^2 - x^5") \
        == resolver | {"linalg", "numfield"}


def test_verify_loads_no_threshold_code():
    # nor the plane configurations, which only alpha1_report reads
    loaded = _modules_loaded("verify", "--lemma", "5.1", "--m", "4")
    assert loaded == {"lattice", "lemma_verify", "linalg", "poly"}


def test_geometry_commands_load_no_fourier_motzkin(tmp_path):
    # the kernels and the cone facets come from linalg, not the FM solver;
    # odd m tests no effectivity, so it needs no linalg either
    path = tmp_path / "generic.cfg"
    path.write_text(GENERIC_CONFIG)
    for args, expected in (
            (("eckardt", "--config", str(path)),
             {"lattice", "linalg", "plane_config", "poly"}),
            (("verify", "--lemma", "5.1", "--m", "4"),
             {"lattice", "lemma_verify", "linalg", "poly"}),
            (("verify", "--lemma", "5.1", "--m", "5"),
             {"lattice", "lemma_verify", "poly"}),
            (("alpha", "--config", str(path)),
             {"germs", "lattice", "lct", "lemma_verify", "linalg", "modp",
              "plane_config", "poly"})):
        assert _modules_loaded(*args) == expected, args


def test_newton_thresholds_load_no_resolution(tmp_path):
    path = tmp_path / "generic.cfg"
    path.write_text(GENERIC_CONFIG)
    for args in (("alpha", "--config", str(path)),
                 ("lct", "--method", "newton", "y^2 - x^4")):
        loaded = _modules_loaded(*args)
        assert "lct" in loaded, args
        assert loaded.isdisjoint({"resolution", "numfield"}), (args, loaded)


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
    # H = (1 - 2*s^2)^2 has irrational double roots: the lift 2*s^2 - 1 of
    # the square-free part of gcd(H, H') modulo a prime divides it twice
    ("(y^2 - 2*x^2)^2", False),
    # H = (1 - 100*s)^7: the root 1/100 is lifted, where the monic
    # gcd (s - 1/100)^6 has coefficients too tall to reconstruct
    ("(y - 100*x)^7 - x^8", False),
    # H's top coefficient is divisible by P = 2^61 - 1, and sympy decides it
    ("(y - x)^2*(y - 2305843009213693951*x)", True),
], ids=["certified", "lifted-factor", "lifted-root", "fallback"])
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
    # the second centre is irrational over QQ(sqrt2): sympy factors its
    # line; the sites stay on numfield
    ("((y^2 - 2*x^2)^2 - 3*x^6)^2 - x^13", "1/4", True),
    # the first blow-up meets the curve at the roots of v^4 - 2, which modp
    # proves irreducible: an own field of degree 4
    ("(y^4 - 2*x^4)^2 - x^9", "1/4", False),
    # not reduced, but an axis monomial times a rest certified square-free:
    # the parts y^3 and x^2*(...) are known without sympy's sqf_list
    ("x^2*y^3 - y^5", "1/3", False),
    # 3*x^4*(1 - x^3*y): the witness is the component x, and the equality
    # certificate divides by x^4 and prints its cofactor without sympy
    ("3*x^4 - 3*x^7*y", "1/4", False),
    # not reduced, and its repeated factor is no axis: the parts of a carried
    # product are not built yet, so sympy's sqf_list splits it
    ("(y^2 - x^3)^2*(x + y)", "5/14", True),
    # the first line has double roots at 1 and at +-sqrt2, a rational root
    # beside an irrational factor, which modp proves neither way: sympy's
    # factor_list decides the line
    ("((y - x)^2 - x^3)*((y^2 - 2*x^2)^2 - x^5)", "1/3", True),
]


def test_lct_loads_sympy_on_first_use():
    for germ, value, loaded in LCT_LOADS:
        out, line = _delpezzo("lct", germ)
        assert f"lct = {value} (blowup, exact;" in out, germ
        assert line == f"sympy loaded: {loaded}", germ


# every node's site of two germs resolved over QQ(sqrt2) and QQ(2^(1/3)):
# their steps are over QQ, printed by poly.expr_text
SITES_PROBE = """
import sys
from delpezzo.germs import parse_germ
from delpezzo.resolution import resolve_germ
for text in ("(y^2 - 2*x^2)^2 - x^5", "(y^3 - 2*x^3)^2 - x^7"):
    for node in resolve_germ(parse_germ(text)).nodes:
        print(node.site)
print("sympy" in sys.modules)
"""


def test_sites_at_roots_over_qq_are_printed_without_sympy():
    proc = _python("-c", SITES_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "origin", "origin / chart A at root of v**2 - 2",
        "origin / chart A at root of v**2 - 2 / chart B origin",
        "origin", "origin / chart A at root of v**3 - 2",
        "origin / chart A at root of v**3 - 2 / chart B origin",
        "False"]


def test_the_axis_witness_is_printed_without_sympy():
    out, line = _delpezzo("lct", "3*x^4 - 3*x^7*y")
    assert "(blowup, exact; component x with multiplicity 4)" in out
    assert line == "sympy loaded: False"


# check_lemma52 on a smooth h at k = 1 and on the cusp at k = 2: the
# composites x^2*y*h and x^4*y^2*(y^2 - x^3) are axis monomials times a
# certified rest
LEMMA52_PROBE = """
import sys
from delpezzo.germs import parse_germ
from delpezzo.lct import check_lemma52
print(check_lemma52(1, parse_germ("x + y - x*y^2")))
print(check_lemma52(2, parse_germ("y^2 - x^3")))
print("sympy" in sys.modules)
"""


def test_lemma52_is_sympy_free():
    proc = _python("-c", LEMMA52_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "c0(x^3*y + x^2*y^2 - x^3*y^3) = 1/2 > 1/3",
        "c0(x^4*y^4 - x^7*y^2) = 1/4 > 1/6",
        "False"]


# the three thresholds of every germ of the corpus's rational rounds, drawn as
# the benchmark's lct-rational rounds draw them
CORPUS_PROBE = """
import random, sys
import resolution_corpus as corpus
from delpezzo.lct import blowup_lct, check_mult_bounds, newton_lct
rng = random.Random(corpus.SEED)
germs = [f for _ in range(corpus.RATIONAL_ROUNDS)
         for f in corpus._rational_round(rng)]
for f in germs:
    newton_lct(f), blowup_lct(f), check_mult_bounds(f)
print(len(germs), "sympy" in sys.modules)
"""


def test_rational_rounds_are_sympy_free():
    tests = str(Path(__file__).resolve().parent)
    proc = _python("-c", f"import sys; sys.path.insert(0, {tests!r})\n"
                   + CORPUS_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "420 False\n"


# -- the package namespace ---------------------------------------------------

PUBLIC_NAMES = [
    "Alpha1Report", "C", "CaseVerdict", "ConstraintSystem", "CubicForm",
    "CurveGerm", "Decomposition", "DepthExceededError", "DivisorClass", "E",
    "EckardtRecord", "F", "H", "L", "LctReport", "LinearConstraint", "MINUS_K",
    "NewtonPolygon", "Resolution", "ResolutionNode", "ScanRecord",
    "SixPointConfig", "SolveReport", "SurfaceModel", "VarBounds",
    "alpha1_report", "blowup_lct", "canonical_nodal_survivor",
    "check_lemma52", "check_mult_bounds", "classify_smooth_candidate",
    "decomposition", "degree_budget_check", "eckardt_points", "encode_case2",
    "encode_case3", "encode_nodal", "enumerate_negative_curves",
    "holder_product_bound", "incidence_graph", "is_ample",
    "is_eckardt_on_cubic", "is_effective", "lemma31_scan", "lemma51_scan",
    "load_config", "load_cubic", "monomial_name", "newton_lct",
    "newton_polygon", "nonnegative_combination", "parse_germ", "parse_system",
    "point", "resolve_germ", "solve", "tangent_plane_restriction",
    "third_line", "tritangent_triples", "validate",
]

MODULES = ("constraints", "germs", "lattice", "lct", "lemma_verify", "linalg",
           "plane_config", "resolution")


def test_all_lists_the_sixty_public_names():
    assert len(PUBLIC_NAMES) == 60
    assert sorted(delpezzo.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_public_name_is_its_modules_object(name):
    # every module that holds the name holds the package's object
    held = [vars(module)[name] for module in
            (importlib.import_module(f"delpezzo.{m}") for m in MODULES)
            if name in vars(module)]
    assert held
    assert all(obj is getattr(delpezzo, name) for obj in held)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from delpezzo import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert set(delpezzo.__all__) <= set(dir(delpezzo))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        delpezzo.no_such_name
    assert not hasattr(delpezzo, "cone_facets")


def _perfbench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_read_of_the_package_leaves_no_wrapper():
    # the package looks each name up on its module and keeps nothing, so the
    # tracer's restore of the module attributes restores the package too
    spans = _perfbench_spans()
    solve = delpezzo.constraints.solve
    with spans.Tracer(["constraints"]).installed():
        assert delpezzo.solve is not solve
        assert delpezzo.solve.__wrapped_by_tracer__
    assert spans.wrapped_attributes() == []
    assert delpezzo.solve is solve
    assert "solve" not in vars(delpezzo)


# -- the standard-library command line ---------------------------------------

def _imported_modules(path: Path) -> set:
    """The top-level names of the modules the file at path imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_source_or_test_file_imports_click():
    # the command line is argparse; the probe above checks each command's
    # process, this checks every file
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    assert len(files) > 20
    assert [str(path.relative_to(root)) for path in files
            if "click" in _imported_modules(path)] == []


# -- private names across module boundaries ----------------------------------

def _private_reads(path: Path) -> set:
    """The private names that the module at path reads from a sibling:
    `from .m import _x`, or `m._x` after `from . import m`."""
    tree = ast.parse(path.read_text())
    siblings, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            reads.add(f"{siblings[node.value.id]}.{node.attr}")
    return reads


def test_modules_share_only_these_private_names():
    # none: a helper that another module reads belongs in its module's public
    # interface, as `modp.irreducible_xy` does, and `constraints` reads system
    # text through `poly.parse` alone
    package = Path(delpezzo.__file__).resolve().parent
    crossings = {path.stem: reads for path in sorted(package.glob("*.py"))
                 if (reads := _private_reads(path))}
    assert crossings == {}
