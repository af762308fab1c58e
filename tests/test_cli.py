"""Command line surface: output formats, exit codes, JSON determinism."""

import importlib
import json
import pkgutil
import time

import pytest
from click.testing import CliRunner

import delpezzo
from delpezzo.cli import EX_USAGE, cli
from delpezzo.plane_config import (CubicForm, InvalidConfigError, dump_config,
                                   dump_cubic, load_config, validate)
from delpezzo.lattice import SurfaceModel
from delpezzo.plane_config import SixPointConfig, point


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kw):
    result = runner.invoke(cli, list(args), **kw)
    return result


FRAME_A_TEXT = dump_config(SixPointConfig(
    (point(1, 0, 0), point(0, 1, 0), point(0, 0, 1),
     point(1, 1, 1), point(1, 2, 3), point(1, 4, 9)), SurfaceModel.SMOOTH))

# p1 repeated as p6
DUPLICATE_TEXT = dump_config(SixPointConfig(
    (point(1, 0, 0), point(0, 1, 0), point(0, 0, 1),
     point(1, 1, 1), point(1, 2, 3), point(1, 0, 0)), SurfaceModel.SMOOTH))

EX11_TEXT = dump_cubic(CubicForm.from_dict({
    (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1,
    (0, 1, 1, 1): 6,
    (2, 1, 0, 0): 1, (2, 0, 1, 0): 2, (2, 0, 0, 1): 3,
}))

SYSTEM_TEXT = """int mu
int nu
var s
mu + nu <= 3*m
2*mu = 3*s
s >= 1/2
s < 6
"""


# -- lines ---------------------------------------------------------------------

def test_lines_smooth(runner):
    result = invoke(runner, "lines", "--mode", "smooth")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[0] == "smooth cubic: 27 lines"
    meets = [line for line in out if "meets 10" in line]
    assert len(meets) == 27
    assert "  E1  (0; -1,0,0,0,0,0)  meets 10" in out
    assert "tritangent triples: 45" in out
    triple_rows = [line for line in out[out.index("tritangent triples: 45") + 1:]]
    assert len(triple_rows) == 45
    assert "  E1 L12 F2" in triple_rows


def test_lines_nodal(runner):
    result = invoke(runner, "lines", "--mode", "nodal")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[0] == "one-node cubic: 21 lines and the (-2)-curve C"
    assert out[-1] == "adjacent to C: E1 E2 E3 L45 L46 L56"
    assert sum(1 for line in out if "[adjacent to C]" in line) == 6
    assert "  C   (1; 1,1,1,0,0,0)  meets 6" in out


def test_lines_unknown_mode(runner):
    result = invoke(runner, "lines", "--mode", "bogus")
    assert result.exit_code == 1
    assert "unknown mode 'bogus'" in result.output


def test_lines_json(runner):
    result = invoke(runner, "lines", "--mode", "nodal", "--json")
    data = json.loads(result.output)
    assert len(data["curves"]) == 22
    assert data["adjacent_to_C"] == ["E1", "E2", "E3", "L45", "L46", "L56"]


# -- lct -----------------------------------------------------------------------

def test_lct_cusp(runner):
    result = invoke(runner, "lct", "y^2 - x^3")
    assert result.exit_code == 0
    assert result.output == (
        "germ: y^2 - x^3\n"
        "lct = 5/6 (newton, exact; face (0, 2)-(3, 0), 2*i + 3*j = 6)\n"
        "lct = 5/6 (blowup, exact; E3 (a=4, b=6) at origin / chart A origin"
        " / chart B origin)\n"
        "nodes: (1,2) (2,3) (4,6)\n"
        "agreement: both methods give 5/6\n")


def test_lct_newton_certificate_failure(runner):
    result = invoke(runner, "lct", "(y - x)^2")
    assert result.exit_code == 0
    assert "lct = 1 (newton, upper bound;" in result.output
    assert "lct = 1/2 (blowup, exact; component x - y with multiplicity 2)" \
        in result.output
    assert "nodes: none (normal crossings at the start)" in result.output
    assert "agreement: newton bound 1 vs blowup 1/2 (newton certificate " \
        "inexact)" in result.output


def test_lct_single_method(runner):
    result = invoke(runner, "lct", "x*y", "--method", "newton")
    assert result.exit_code == 0
    assert "blowup" not in result.output
    assert "lct = 1 (newton, exact;" in result.output


def test_lct_parse_error(runner):
    result = invoke(runner, "lct", "x+")
    assert result.exit_code == 1
    assert "cannot parse" in result.output


def test_lct_input_is_never_run_as_code(runner):
    result = invoke(runner, "lct",
                    "__import__('sys').stdout.write('INJECTED\\n') and x")
    assert result.exit_code == 1
    assert "cannot parse" in result.output
    # the error message quotes the input; the payload itself never prints
    assert "INJECTED" not in result.output.splitlines()


@pytest.mark.parametrize("germ", ["(x+y)^3000", "x^2000*y + y^3000"])
def test_lct_degree_cap_fails_fast(runner, germ):
    start = time.perf_counter()
    result = invoke(runner, "lct", germ)
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert "exceeds the cap of 64" in result.output


def test_lct_term_product_budget_fails_fast(runner):
    start = time.perf_counter()
    result = invoke(runner, "lct", "(1+x+y)^64*x")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert "term products" in result.output


def test_lct_depth_budget_exit_code(runner, monkeypatch):
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", "1")
    result = invoke(runner, "lct", "y^2 - x^3", "--method", "blowup")
    assert result.exit_code == 2
    assert "raise DELPEZZO_MAX_BLOWUPS to continue" in result.output


@pytest.mark.parametrize("args, message", [
    (["lct"], "Missing argument 'GERM'"),
    (["lct", "y^2 - x^3", "x"], "Got unexpected extra argument"),
    (["lines", "--bogus"], "--bogus"),
    (["--bogus"], "--bogus"),
])
def test_usage_errors_exit_ex_usage(runner, args, message):
    # 64 (EX_USAGE), apart from the 2 of an exhausted blow-up budget
    result = invoke(runner, *args)
    assert result.exit_code == EX_USAGE == 64
    assert message in result.output


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_lct_invalid_depth_budget_is_a_domain_error(runner, monkeypatch, value):
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", value)
    result = invoke(runner, "lct", "y^2 - x^3")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no raw traceback
    assert result.output == ("Error: DELPEZZO_MAX_BLOWUPS must be a "
                             f"non-negative integer, got {value!r}\n")


def test_lct_json(runner):
    result = invoke(runner, "lct", "y^2 - x^3", "--json")
    data = json.loads(result.output)
    assert data["agree"] is True
    assert data["nodes"] == [[1, 2], [2, 3], [4, 6]]
    by_method = {r["method"]: r for r in data["reports"]}
    assert by_method["blowup"]["value"] == "5/6"
    assert by_method["newton"]["exact"] is True


def test_lct_germ_may_start_with_a_minus_sign(runner):
    result = invoke(runner, "lct", "-y^2 + x^3", "--json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["germ"] == "-y^2 + x^3"
    assert [r["value"] for r in data["reports"]] == ["5/6", "5/6"]
    # the same bytes as with the option list closed by --
    assert result.output == invoke(runner, "lct", "--json", "--",
                                   "-y^2 + x^3").output
    newton = invoke(runner, "lct", "--method", "newton", "-y^2 + x^3")
    assert newton.exit_code == 0
    assert "lct = 5/6 (newton, exact;" in newton.output


# (y^2 - 2*x^2)^3 - x^7 under x -> x - y, y -> x: three-fold conjugate
# tangents over QQ(sqrt2), lct 1/3
SUBSTITUTED_CONJUGATE = (
    "-8*y^6 + 48*x*y^5 - 108*x^2*y^4 + 112*x^3*y^3 - 54*x^4*y^2 + 12*x^5*y"
    " - x^6 + y^7 - 7*x*y^6 + 21*x^2*y^5 - 35*x^3*y^4 + 35*x^4*y^3"
    " - 21*x^5*y^2 + 7*x^6*y - x^7")


def test_lct_substituted_conjugate_germ_with_a_leading_minus(runner):
    result = invoke(runner, "lct", SUBSTITUTED_CONJUGATE, "--method", "blowup")
    assert result.exit_code == 0
    assert "lct = 1/3 (blowup, exact;" in result.output


def test_lct_unknown_option_is_read_as_a_germ(runner):
    result = invoke(runner, "lct", "--bogus")
    assert result.exit_code == 1
    assert "cannot parse '--bogus'" in result.output


def test_lct_high_degree_square_free_germ_is_fast(runner):
    # a full bivariate factorization of this germ takes minutes; the
    # square-free split never factors it (reduced order 64 is never SNC)
    start = time.perf_counter()
    result = invoke(runner, "lct", "x^63*y + y^64", "--json")
    assert time.perf_counter() - start < 2
    assert result.exit_code == 0
    data = json.loads(result.output)
    by_method = {r["method"]: r for r in data["reports"]}
    assert by_method["blowup"]["value"] == "1/32"
    assert data["nodes"] == [[1, 64]]


# -- verify --------------------------------------------------------------------

def test_verify_smooth_scan(runner):
    result = invoke(runner, "verify", "--lemma", "3.1", "--m", "2")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[0] == "smooth-model locus scan: m=2, lam=2/3"
    assert out[1] == "270 candidates, 0 survivors"
    assert out[-1] == "conclusion: verified; no survivors"


def test_verify_nodal_even(runner):
    result = invoke(runner, "verify", "--lemma", "5.1", "--m", "2")
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == (
        "conclusion: verified; unique survivor "
        "3*C + 1*E1 + 1*E2 + 1*E3 + 1*L45 + 1*L46 + 1*L56")


def test_verify_nodal_odd(runner):
    result = invoke(runner, "verify", "--lemma", "5.1", "--m", "3")
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == (
        "conclusion: verified; no survivor (m odd)")


def test_verify_custom_lambda(runner):
    result = invoke(runner, "verify", "--lemma", "3.1", "--m", "2",
                    "--lambda", "1/2")
    assert result.exit_code == 0
    assert "81 candidates, 0 survivors" in result.output


def test_verify_unknown_lemma(runner):
    result = invoke(runner, "verify", "--lemma", "9.9", "--m", "2")
    assert result.exit_code == 1
    assert "unknown lemma id '9.9'" in result.output


def test_verify_caps_m_fast(runner):
    start = time.perf_counter()
    result = invoke(runner, "verify", "--lemma", "3.1", "--m", "1001")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert result.output.startswith("Error: m <= 1000 required")


def test_verify_json(runner):
    result = invoke(runner, "verify", "--lemma", "5.1", "--m", "4", "--json")
    data = json.loads(result.output)
    assert data["verified"] is True
    assert data["counts"] == {"survivor": 1, "intersection-violation": 57,
                              "residual-not-effective": 90}
    assert data["survivors"] == [
        "6*C + 2*E1 + 2*E2 + 2*E3 + 2*L45 + 2*L46 + 2*L56"]


# -- case and solve --------------------------------------------------------------

def test_case_3_even(runner):
    result = invoke(runner, "case", "--id", "3", "--m", "6")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[0] == "case 3, m=6"
    assert out[1] == "feasible: yes"
    assert "mu = 3" in out and "nu = 3" in out and "d = 6" in out


def test_case_3_odd_contradiction(runner):
    result = invoke(runner, "case", "--id", "3", "--m", "5")
    assert result.exit_code == 0
    assert "mu = 5/2 : integrality contradiction" in result.output
    assert "nu = 5/2 : integrality contradiction" in result.output


def test_case_nodal_subcase(runner):
    result = invoke(runner, "case", "--id", "nodal", "--m", "6",
                    "--subcase", "q_on_c")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[0] == "case nodal (q_on_c), m=6"
    assert "mult_omega = 3" in out
    assert "0 <= mult_q <= 3" in out


def test_case_unknown_subcase(runner):
    result = invoke(runner, "case", "--id", "nodal", "--m", "6",
                    "--subcase", "q_free_ish")
    assert result.exit_code == 1
    assert result.output == ("Error: unknown subcase 'q_free_ish'; "
                             "expected q_free, q_on_l, q_on_c\n")


def test_case_unknown_id(runner):
    result = invoke(runner, "case", "--id", "7", "--m", "2")
    assert result.exit_code == 1


def test_solve_file(runner, tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(SYSTEM_TEXT)
    result = invoke(runner, "solve", str(path), "--m", "6")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[0] == "system: 3 variables, 4 constraints"
    assert out[1] == "feasible: yes"
    assert "1/2 <= s < 6" in out
    assert out[-1].startswith("witness: ")


def test_solve_rejects_declaring_m(runner, tmp_path):
    path = tmp_path / "system.txt"
    path.write_text("int m\nm + x <= 3\nx >= 0\n")
    result = invoke(runner, "solve", str(path), "--m", "2")
    assert result.exit_code == 1
    assert "line 1: m " in result.output


def test_solve_missing_file(runner, tmp_path):
    result = invoke(runner, "solve", str(tmp_path / "absent.txt"))
    assert result.exit_code == 1


def test_solve_needs_m(runner, tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(SYSTEM_TEXT)
    result = invoke(runner, "solve", str(path))
    assert result.exit_code == 1
    assert "m used but no value supplied" in result.output


# -- eckardt --------------------------------------------------------------------

def test_eckardt_config_mode(runner, tmp_path):
    path = tmp_path / "frame.cfg"
    path.write_text(FRAME_A_TEXT)
    result = invoke(runner, "eckardt", "--config", str(path))
    assert result.exit_code == 0
    assert result.output == (
        "mode: smooth\n"
        "eckardt points: 4\n"
        "  {E3, F6, L36} at infinitely near p3\n"
        "  {E5, F4, L45} at infinitely near p5\n"
        "  {E5, F6, L56} at infinitely near p5\n"
        "  {L12, L34, L56} at (1:1:0)\n")


def test_eckardt_explicit_cubic(runner, tmp_path):
    path = tmp_path / "surface.cubic"
    path.write_text(EX11_TEXT)
    result = invoke(runner, "eckardt", "--cubic", str(path),
                    "--point", "1 0 0 0")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[1] == "point: (1:0:0:0)"
    assert out[2] == ("tangent plane section: "
                      "-7*s1^3 - 48*s1^2*s2 - 72*s1*s2^2 - 26*s2^3")
    assert out[3] == "eckardt: true"


def test_eckardt_point_not_on_surface(runner, tmp_path):
    path = tmp_path / "surface.cubic"
    path.write_text(EX11_TEXT)
    result = invoke(runner, "eckardt", "--cubic", str(path),
                    "--point", "0 1 1 1")
    assert result.exit_code == 1


def test_eckardt_requires_an_input(runner):
    result = invoke(runner, "eckardt")
    assert result.exit_code == 1


def test_eckardt_json(runner, tmp_path):
    path = tmp_path / "frame.cfg"
    path.write_text(FRAME_A_TEXT)
    result = invoke(runner, "eckardt", "--config", str(path), "--json")
    data = json.loads(result.output)
    assert len(data["eckardt_points"]) == 4
    assert data["eckardt_points"][0]["triple"] == ["E3", "F6", "L36"]
    assert data["eckardt_points"][0]["location"] == "infinitely near p3"


# -- alpha ----------------------------------------------------------------------

def test_alpha_sharp(runner, tmp_path):
    path = tmp_path / "frame.cfg"
    path.write_text(FRAME_A_TEXT)
    result = invoke(runner, "alpha", "--config", str(path))
    assert result.exit_code == 0
    assert result.output == ("alpha_1 = 2/3 (exact; three concurrent lines "
                             "{E3, F6, L36} infinitely near p3)\n")


def test_alpha_json(runner, tmp_path):
    path = tmp_path / "frame.cfg"
    path.write_text(FRAME_A_TEXT)
    result = invoke(runner, "alpha", "--config", str(path), "--json")
    data = json.loads(result.output)
    assert data["value"] == "2/3"
    assert data["final"] is True


@pytest.mark.parametrize("command", ["eckardt", "alpha"])
def test_invalid_config_is_a_domain_error(runner, tmp_path, command):
    path = tmp_path / "duplicate.cfg"
    path.write_text(DUPLICATE_TEXT)
    result = invoke(runner, command, "--config", str(path))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no raw traceback
    expected = InvalidConfigError(validate(load_config(DUPLICATE_TEXT)))
    assert result.output == f"Error: {expected}\n"
    assert result.output.startswith(
        "Error: configuration violates its mode invariants: duplicate points")


# -- one input contract ----------------------------------------------------------
# every number read from text goes through the polynomial grammar, and every
# library error reaches exit 1 through the group's one handler

@pytest.mark.parametrize("entry, message", [
    ("0.5", "unexpected '.'"),
    ("1e200000", "unexpected 'e200000'"),
    ("1/0", "division by zero"),
])
def test_config_coordinates_use_the_polynomial_grammar(runner, tmp_path,
                                                       entry, message):
    path = tmp_path / "frame.cfg"
    path.write_text(FRAME_A_TEXT.replace("\n1 2 3\n", f"\n{entry} 2 3\n"))
    start = time.perf_counter()
    result = invoke(runner, "eckardt", "--config", str(path))
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert result.output == f"Error: line 6: {message}\n"


@pytest.mark.parametrize("value, message", [
    ("0.5", "unexpected '.'"),
    ("1e9", "unexpected 'e9'"),
])
def test_cubic_coefficients_use_the_polynomial_grammar(runner, tmp_path,
                                                       value, message):
    lines = EX11_TEXT.splitlines()
    lines[-1] = lines[-1].split()[0] + " " + value
    path = tmp_path / "surface.cubic"
    path.write_text("\n".join(lines) + "\n")
    result = invoke(runner, "eckardt", "--cubic", str(path),
                    "--point", "1 0 0 0")
    assert result.exit_code == 1
    assert result.output == f"Error: bad coefficient {value!r}: {message}\n"


def test_point_uses_the_polynomial_grammar(runner, tmp_path):
    path = tmp_path / "surface.cubic"
    path.write_text(EX11_TEXT)
    result = invoke(runner, "eckardt", "--cubic", str(path),
                    "--point", "1/0 1 0 0")
    assert result.exit_code == 1
    assert result.output == "Error: division by zero\n"


@pytest.mark.parametrize("lam, message", [
    ("0.5", "unexpected '.'"),
    ("x", "unknown name 'x'"),
])
def test_lambda_uses_the_polynomial_grammar(runner, lam, message):
    result = invoke(runner, "verify", "--lemma", "3.1", "--m", "2",
                    "--lambda", lam)
    assert result.exit_code == 1
    assert result.output == f"Error: {message}\n"


def test_every_library_error_is_a_value_error():
    # the group maps ValueError to exit 1; an error type outside it would
    # reach the user as a traceback
    errors = []
    for info in pkgutil.iter_modules(delpezzo.__path__):
        module = importlib.import_module(f"delpezzo.{info.name}")
        errors += [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__]
    assert "PolyParseError" in {e.__name__ for e in errors}
    assert [e.__name__ for e in errors
            if not issubclass(e, ValueError)] == ["DepthExceededError"]


# -- cross-cutting ---------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ("lines", "--mode", "smooth", "--json"),
    ("lct", "y^2 - x^3", "--json"),
    ("verify", "--lemma", "5.1", "--m", "2", "--json"),
    ("case", "--id", "3", "--m", "6", "--json"),
])
def test_json_outputs_are_deterministic(runner, args):
    first = invoke(runner, *args)
    second = invoke(runner, *args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    json.loads(first.output)  # well-formed


def test_rationals_serialize_as_lowest_terms_strings(runner):
    result = invoke(runner, "case", "--id", "3", "--m", "5", "--json")
    data = json.loads(result.output)
    assert data["forced"]["mu"] == "5/2"
