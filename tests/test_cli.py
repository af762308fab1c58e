"""Command line surface: output formats, exit codes, JSON determinism."""

import dataclasses
import hashlib
import importlib
import json
import pkgutil
import shlex
import time

import pytest

import delpezzo
from cli_runner import run
from delpezzo.cli import COMMANDS, EX_USAGE, parse
from delpezzo.plane_config import (CubicForm, InvalidConfigError, dump_config,
                                   dump_cubic, load_config, validate)
from delpezzo.lattice import SurfaceModel
from delpezzo import lemma_verify
from delpezzo.lemma_verify import lemma51_scan
from delpezzo.plane_config import SixPointConfig, point

CLI_MODULE = importlib.import_module("delpezzo.cli")


def invoke(*args):
    return run(args)


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

def test_lines_smooth():
    result = invoke("lines", "--mode", "smooth")
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


def test_lines_nodal():
    result = invoke("lines", "--mode", "nodal")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[0] == "one-node cubic: 21 lines and the (-2)-curve C"
    assert out[-1] == "adjacent to C: E1 E2 E3 L45 L46 L56"
    assert sum(1 for line in out if "[adjacent to C]" in line) == 6
    assert "  C   (1; 1,1,1,0,0,0)  meets 6" in out


def test_lines_unknown_mode():
    result = invoke("lines", "--mode", "bogus")
    assert result.exit_code == 1
    assert "unknown mode 'bogus'" in result.output


def test_lines_json():
    result = invoke("lines", "--mode", "nodal", "--json")
    data = json.loads(result.output)
    assert len(data["curves"]) == 22
    assert data["adjacent_to_C"] == ["E1", "E2", "E3", "L45", "L46", "L56"]


# -- lct -----------------------------------------------------------------------

def test_lct_cusp():
    result = invoke("lct", "y^2 - x^3")
    assert result.exit_code == 0
    assert result.output == (
        "germ: y^2 - x^3\n"
        "lct = 5/6 (newton, exact; face (0, 2)-(3, 0), 2*i + 3*j = 6)\n"
        "lct = 5/6 (blowup, exact; E3 (a=4, b=6) at origin / chart A origin"
        " / chart B origin)\n"
        "nodes: (1,2) (2,3) (4,6)\n"
        "agreement: both methods give 5/6\n")


def test_lct_newton_certificate_failure():
    result = invoke("lct", "(y - x)^2")
    assert result.exit_code == 0
    assert "lct = 1 (newton, upper bound;" in result.output
    assert "lct = 1/2 (blowup, exact; component x - y with multiplicity 2)" \
        in result.output
    assert "nodes: none (normal crossings at the start)" in result.output
    assert "agreement: newton bound 1 vs blowup 1/2 (newton certificate " \
        "inexact)" in result.output


def test_lct_single_method():
    result = invoke("lct", "x*y", "--method", "newton")
    assert result.exit_code == 0
    assert "blowup" not in result.output
    assert "lct = 1 (newton, exact;" in result.output


def test_lct_parse_error():
    result = invoke("lct", "x+")
    assert result.exit_code == 1
    assert "cannot parse" in result.output


@pytest.mark.parametrize("germ, message", [
    ("(x", "missing ')'"),
    ("(" * 400 + "x" + ")" * 400, "expression nested too deeply"),
], ids=["unclosed", "nested"])
def test_lct_parser_refusals_exit_1(germ, message):
    # tests/test_poly.py checks that `parse` raises each as a PolyParseError
    result = invoke("lct", germ)
    assert result.exit_code == 1
    assert message in result.output


def test_lct_input_is_never_run_as_code():
    result = invoke("lct",
                    "__import__('sys').stdout.write('INJECTED\\n') and x")
    assert result.exit_code == 1
    assert "cannot parse" in result.output
    # the error message quotes the input; the payload itself never prints
    assert "INJECTED" not in result.output.splitlines()


@pytest.mark.parametrize("germ", ["(x+y)^3000", "x^2000*y + y^3000"])
def test_lct_degree_cap_fails_fast(germ):
    start = time.perf_counter()
    result = invoke("lct", germ)
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert "exceeds the cap of 64" in result.output


def test_lct_term_product_budget_fails_fast():
    start = time.perf_counter()
    result = invoke("lct", "(1+x+y)^64*x")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert "term products" in result.output


def test_lct_depth_budget_exit_code(monkeypatch):
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", "1")
    result = invoke("lct", "y^2 - x^3", "--method", "blowup")
    assert result.exit_code == 2
    assert "raise DELPEZZO_MAX_BLOWUPS to continue" in result.output


@pytest.mark.parametrize("args, message", [
    (["lct"], "the following arguments are required: GERM"),
    (["lct", "y^2 - x^3", "x"], "unrecognized arguments: x"),
    (["lines", "--bogus"], "--bogus"),
    (["--bogus"], "--bogus"),
    # an option that takes a value still needs a word after it
    (["lct", "--method"], "argument --method: expected one argument"),
])
def test_usage_errors_exit_ex_usage(args, message):
    # 64 (EX_USAGE), apart from the 2 of an exhausted blow-up budget
    result = invoke(*args)
    assert result.exit_code == EX_USAGE == 64
    assert message in result.output


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_lct_invalid_depth_budget_is_a_domain_error(monkeypatch, value):
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", value)
    result = invoke("lct", "y^2 - x^3")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no raw traceback
    assert result.output == ("Error: DELPEZZO_MAX_BLOWUPS must be a "
                             f"non-negative integer, got {value!r}\n")


def test_lct_json():
    result = invoke("lct", "y^2 - x^3", "--json")
    data = json.loads(result.output)
    assert data["agree"] is True
    assert data["nodes"] == [[1, 2], [2, 3], [4, 6]]
    by_method = {r["method"]: r for r in data["reports"]}
    assert by_method["blowup"]["value"] == "5/6"
    assert by_method["newton"]["exact"] is True


def test_lct_germ_may_start_with_a_minus_sign():
    result = invoke("lct", "-y^2 + x^3", "--json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["germ"] == "-y^2 + x^3"
    assert [r["value"] for r in data["reports"]] == ["5/6", "5/6"]
    # the same bytes as with the option list closed by --
    assert result.output == invoke("lct", "--json", "--",
                                   "-y^2 + x^3").output
    newton = invoke("lct", "--method", "newton", "-y^2 + x^3")
    assert newton.exit_code == 0
    assert "lct = 5/6 (newton, exact;" in newton.output


# (y^2 - 2*x^2)^3 - x^7 under x -> x - y, y -> x: three-fold conjugate
# tangents over QQ(sqrt2), lct 1/3
SUBSTITUTED_CONJUGATE = (
    "-8*y^6 + 48*x*y^5 - 108*x^2*y^4 + 112*x^3*y^3 - 54*x^4*y^2 + 12*x^5*y"
    " - x^6 + y^7 - 7*x*y^6 + 21*x^2*y^5 - 35*x^3*y^4 + 35*x^4*y^3"
    " - 21*x^5*y^2 + 7*x^6*y - x^7")


def test_lct_substituted_conjugate_germ_with_a_leading_minus():
    result = invoke("lct", SUBSTITUTED_CONJUGATE, "--method", "blowup")
    assert result.exit_code == 0
    assert "lct = 1/3 (blowup, exact;" in result.output


def test_lct_unknown_option_is_read_as_a_germ():
    result = invoke("lct", "--bogus")
    assert result.exit_code == 1
    assert "cannot parse '--bogus'" in result.output


def test_lct_high_degree_square_free_germ_is_fast():
    # a full bivariate factorization of this germ takes minutes; the
    # square-free split never factors it (reduced order 64 is never SNC)
    start = time.perf_counter()
    result = invoke("lct", "x^63*y + y^64", "--json")
    assert time.perf_counter() - start < 2
    assert result.exit_code == 0
    data = json.loads(result.output)
    by_method = {r["method"]: r for r in data["reports"]}
    assert by_method["blowup"]["value"] == "1/32"
    assert data["nodes"] == [[1, 64]]


# -- verify --------------------------------------------------------------------

def test_verify_smooth_scan():
    result = invoke("verify", "--lemma", "3.1", "--m", "2")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[0] == "smooth-model locus scan: m=2, lam=2/3"
    assert out[1] == "270 candidates, 0 survivors"
    assert out[-1] == "conclusion: verified; no survivors"


def test_verify_nodal_even():
    result = invoke("verify", "--lemma", "5.1", "--m", "2")
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == (
        "conclusion: verified; unique survivor "
        "3*C + 1*E1 + 1*E2 + 1*E3 + 1*L45 + 1*L46 + 1*L56")


def test_verify_nodal_odd():
    result = invoke("verify", "--lemma", "5.1", "--m", "3")
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == (
        "conclusion: verified; no survivor (m odd)")


def test_verify_custom_lambda():
    result = invoke("verify", "--lemma", "3.1", "--m", "2",
                    "--lambda", "1/2")
    assert result.exit_code == 0
    assert "81 candidates, 0 survivors" in result.output


def test_verify_unknown_lemma():
    result = invoke("verify", "--lemma", "9.9", "--m", "2")
    assert result.exit_code == 1
    assert "unknown lemma id '9.9'" in result.output


def test_verify_caps_m_fast():
    start = time.perf_counter()
    result = invoke("verify", "--lemma", "3.1", "--m", "1001")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert result.output.startswith("Error: m <= 1000 required")


def test_verify_json():
    result = invoke("verify", "--lemma", "5.1", "--m", "4", "--json")
    data = json.loads(result.output)
    assert data["verified"] is True
    assert data["counts"] == {"survivor": 1, "intersection-violation": 57,
                              "residual-not-effective": 90}
    assert data["survivors"] == [
        "6*C + 2*E1 + 2*E2 + 2*E3 + 2*L45 + 2*L46 + 2*L56"]


def test_verify_exits_1_after_its_report_when_the_scan_fails(monkeypatch):
    # no 3.1 scan within (0, 2/3] fails, so a scan with a survivor stands in
    # `verify` reads the scan from its module when it runs
    monkeypatch.setattr(lemma_verify, "lemma31_scan", lambda m, lam: lemma51_scan(2))
    result = invoke("verify", "--lemma", "3.1", "--m", "2")
    assert result.exit_code == 1
    assert result.output.splitlines()[-1] == "conclusion: FAILED; 1 survivors"
    result = invoke("verify", "--lemma", "3.1", "--m", "2", "--json")
    assert result.exit_code == 1
    assert json.loads(result.output)["verified"] is False


# -- case and solve --------------------------------------------------------------

def test_case_3_even():
    result = invoke("case", "--id", "3", "--m", "6")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[0] == "case 3, m=6"
    assert out[1] == "feasible: yes"
    assert "mu = 3" in out and "nu = 3" in out and "d = 6" in out


def test_case_3_odd_contradiction():
    result = invoke("case", "--id", "3", "--m", "5")
    assert result.exit_code == 0
    assert "mu = 5/2 : integrality contradiction" in result.output
    assert "nu = 5/2 : integrality contradiction" in result.output


def test_case_nodal_subcase():
    result = invoke("case", "--id", "nodal", "--m", "6",
                    "--subcase", "q_on_c")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[0] == "case nodal (q_on_c), m=6"
    assert "mult_omega = 3" in out
    assert "0 <= mult_q <= 3" in out


def test_case_unknown_subcase():
    result = invoke("case", "--id", "nodal", "--m", "6",
                    "--subcase", "q_free_ish")
    assert result.exit_code == 1
    assert result.output == ("Error: unknown subcase 'q_free_ish'; "
                             "expected q_free, q_on_l, q_on_c\n")


def test_case_unknown_id():
    result = invoke("case", "--id", "7", "--m", "2")
    assert result.exit_code == 1


def test_solve_file(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(SYSTEM_TEXT)
    result = invoke("solve", str(path), "--m", "6")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[0] == "system: 3 variables, 4 constraints"
    assert out[1] == "feasible: yes"
    assert "1/2 <= s < 6" in out
    assert out[-1].startswith("witness: ")


def test_solve_rejects_declaring_m(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text("int m\nm + x <= 3\nx >= 0\n")
    result = invoke("solve", str(path), "--m", "2")
    assert result.exit_code == 1
    assert "line 1: m " in result.output


def test_solve_missing_file(tmp_path):
    result = invoke("solve", str(tmp_path / "absent.txt"))
    assert result.exit_code == 1


def test_solve_needs_m(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(SYSTEM_TEXT)
    result = invoke("solve", str(path))
    assert result.exit_code == 1
    assert "m used but no value supplied" in result.output


# -- eckardt --------------------------------------------------------------------

def test_eckardt_config_mode(tmp_path):
    path = tmp_path / "frame.cfg"
    path.write_text(FRAME_A_TEXT)
    result = invoke("eckardt", "--config", str(path))
    assert result.exit_code == 0
    assert result.output == (
        "mode: smooth\n"
        "eckardt points: 4\n"
        "  {E3, F6, L36} at infinitely near p3\n"
        "  {E5, F4, L45} at infinitely near p5\n"
        "  {E5, F6, L56} at infinitely near p5\n"
        "  {L12, L34, L56} at (1:1:0)\n")


def test_eckardt_explicit_cubic(tmp_path):
    path = tmp_path / "surface.cubic"
    path.write_text(EX11_TEXT)
    result = invoke("eckardt", "--cubic", str(path),
                    "--point", "1 0 0 0")
    assert result.exit_code == 0
    out = result.output.splitlines()
    assert out[1] == "point: (1:0:0:0)"
    assert out[2] == ("tangent plane section: "
                      "-7*s1^3 - 48*s1^2*s2 - 72*s1*s2^2 - 26*s2^3")
    assert out[3] == "eckardt: true"


def test_eckardt_point_not_on_surface(tmp_path):
    path = tmp_path / "surface.cubic"
    path.write_text(EX11_TEXT)
    result = invoke("eckardt", "--cubic", str(path),
                    "--point", "0 1 1 1")
    assert result.exit_code == 1


def test_eckardt_requires_an_input():
    result = invoke("eckardt")
    assert result.exit_code == 1


def test_eckardt_json(tmp_path):
    path = tmp_path / "frame.cfg"
    path.write_text(FRAME_A_TEXT)
    result = invoke("eckardt", "--config", str(path), "--json")
    data = json.loads(result.output)
    assert len(data["eckardt_points"]) == 4
    assert data["eckardt_points"][0]["triple"] == ["E3", "F6", "L36"]
    assert data["eckardt_points"][0]["location"] == "infinitely near p3"


# -- alpha ----------------------------------------------------------------------

def test_alpha_sharp(tmp_path):
    path = tmp_path / "frame.cfg"
    path.write_text(FRAME_A_TEXT)
    result = invoke("alpha", "--config", str(path))
    assert result.exit_code == 0
    assert result.output == ("alpha_1 = 2/3 (exact; three concurrent lines "
                             "{E3, F6, L36} infinitely near p3)\n")


def test_alpha_json(tmp_path):
    path = tmp_path / "frame.cfg"
    path.write_text(FRAME_A_TEXT)
    result = invoke("alpha", "--config", str(path), "--json")
    data = json.loads(result.output)
    assert data["value"] == "2/3"
    assert data["final"] is True


@pytest.mark.parametrize("command", ["eckardt", "alpha"])
def test_invalid_config_is_a_domain_error(tmp_path, command):
    path = tmp_path / "duplicate.cfg"
    path.write_text(DUPLICATE_TEXT)
    result = invoke(command, "--config", str(path))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no raw traceback
    expected = InvalidConfigError(validate(load_config(DUPLICATE_TEXT)))
    assert result.output == f"Error: {expected}\n"
    assert result.output.startswith(
        "Error: configuration violates its mode invariants: duplicate points")


# -- one input contract ----------------------------------------------------------
# every number read from text goes through the polynomial grammar, and every
# library error reaches exit 1 through main's one handler

@pytest.mark.parametrize("entry, message", [
    ("0.5", "unexpected '.'"),
    ("1e200000", "unexpected 'e200000'"),
    ("1/0", "division by zero"),
])
def test_config_coordinates_use_the_polynomial_grammar(tmp_path,
                                                       entry, message):
    path = tmp_path / "frame.cfg"
    path.write_text(FRAME_A_TEXT.replace("\n1 2 3\n", f"\n{entry} 2 3\n"))
    start = time.perf_counter()
    result = invoke("eckardt", "--config", str(path))
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert result.output == f"Error: line 6: {message}\n"


@pytest.mark.parametrize("value, message", [
    ("0.5", "unexpected '.'"),
    ("1e9", "unexpected 'e9'"),
])
def test_cubic_coefficients_use_the_polynomial_grammar(tmp_path,
                                                       value, message):
    lines = EX11_TEXT.splitlines()
    lines[-1] = lines[-1].split()[0] + " " + value
    path = tmp_path / "surface.cubic"
    path.write_text("\n".join(lines) + "\n")
    result = invoke("eckardt", "--cubic", str(path),
                    "--point", "1 0 0 0")
    assert result.exit_code == 1
    assert result.output == f"Error: bad coefficient {value!r}: {message}\n"


def test_point_uses_the_polynomial_grammar(tmp_path):
    path = tmp_path / "surface.cubic"
    path.write_text(EX11_TEXT)
    result = invoke("eckardt", "--cubic", str(path),
                    "--point", "1/0 1 0 0")
    assert result.exit_code == 1
    assert result.output == "Error: division by zero\n"


@pytest.mark.parametrize("lam, message", [
    ("0.5", "unexpected '.'"),
    ("x", "unknown name 'x'"),
])
def test_lambda_uses_the_polynomial_grammar(lam, message):
    result = invoke("verify", "--lemma", "3.1", "--m", "2",
                    "--lambda", lam)
    assert result.exit_code == 1
    assert result.output == f"Error: {message}\n"


def test_every_library_error_is_a_value_error():
    # main maps ValueError to exit 1; an error type outside it would
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
def test_json_outputs_are_deterministic(args):
    first = invoke(*args)
    second = invoke(*args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    json.loads(first.output)  # well-formed


def test_rationals_serialize_as_lowest_terms_strings():
    result = invoke("case", "--id", "3", "--m", "5", "--json")
    data = json.loads(result.output)
    assert data["forced"]["mu"] == "5/2"


# -- pinned invocations ----------------------------------------------------------
# The command line's exact bytes: for each invocation, its exit code and the
# sha256 of its stdout and stderr.  The invocations are the CI "CLI examples"
# (each with and without --json), germs that start with '-', the usage,
# budget, bit-cap and decimal exit-code checks, and the top-level and each
# command's --help.  A key is the command line as a shell reads it, after any
# VAR=value environment words; {config}, {config_nodal}, {cubic}, {system},
# {config_dec} and {system_dec} name the input files below.  The help and
# usage bytes are argparse's formatting at 80 columns, the same under Python
# 3.10 and 3.11.

PIN_FILES = {
    "config": "mode: smooth\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n1 2 3\n1 4 9\n",
    # p3 on the line p1p2; one tangency and one concurrency
    "config_nodal": "mode: nodal\n1 0 0\n0 1 0\n1 1 0\n0 1 1\n2 0 1\n1 1 2\n",
    "cubic": EX11_TEXT,
    "system": ("int mu\nint nu\n"
               "2*(mu + nu) <= 3*m   # any linear expression on either side\n"
               "mu - nu >= m/2\n"),
    "config_dec": "mode: smooth\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n1 2 3\n1 4 9.0\n",
    "system_dec": "x <= 1e3\n",
    "system_infeasible": "x <= 0\nx > 0\n",
}

PINNED_RUNS = {
    'lines --mode smooth':
        (0, "d4b5e5c1db73985d0fb7d923913fb048d05b0175d338931a54ff2f4a3e11c467"),
    'lines --mode smooth --json':
        (0, "069b92511d69395299bbe4d8b40796a43487b45b99e6f7b9e4ac07a33530189f"),
    'lines --mode nodal':
        (0, "3fa34239f56284fc142769886c1d473ce693b83a3324d150c8fadfdeadbf85bb"),
    'lines --mode nodal --json':
        (0, "32d80ad678f693228b81052bd0555e712a138b465ab7247db4e6eff4a9781e48"),
    "lct 'y^2 - x^3'":
        (0, "d80123c13989555afa97586f3fbca043fab10f1cb91942cc723bcf37866bac6f"),
    "lct 'y^2 - x^3' --json":
        (0, "4f732b3ab2035233ec9d2e424264fbfb780c6e2f813f92ca89c0780224f1f47e"),
    "lct '(y - x)^2'":
        (0, "baf141c4b97b7198dd7550d5943ef50886cd9a6599ae56388e34c516badac1ee"),
    "lct '(y - x)^2' --json":
        (0, "7b06be857476cb00b5125a631d5828ed6602b09eea952af9b800dae2921fa190"),
    "lct '(2*y - 3*x)^2 - x^3'":
        (0, "995db4662ee0ac308e3c4ca116a0ec719ba25d81a1566ead760620cb17806147"),
    "lct '(2*y - 3*x)^2 - x^3' --json":
        (0, "c91b5fd272da586e03ff59fbf205fd9ee1bdd44e673d99e4c55c64ca78426579"),
    "lct '(7*y - 5*x)^3 - x^4/11'":
        (0, "4248c59e2231ab952120ce961338719ff37b64136c6cbbef83d559c9e8b63177"),
    "lct '(7*y - 5*x)^3 - x^4/11' --json":
        (0, "7722dc7d86a1d9f594898ac6c9da0a5bbba4d4be5f9386fa5e44dc62bc59a89b"),
    "lct --method newton 'y^2 - x^4'":
        (0, "543b7d5237a3ac7c6d00397c72a87845dd3b850bad4f59b965c70a94a569bcfe"),
    "lct --method newton 'y^2 - x^4' --json":
        (0, "c41d17137aea4c929f522175c8a575df04530aac1a1e3993b8338af75bbc503e"),
    "lct '-y^2 + x^3'":
        (0, "15d915e40ace889d19b39eb935611820cbb3f6aab63981d0c33bbbd982bc127c"),
    "lct '-y^2 + x^3' --json":
        (0, "6ef87c60df22f264f326c7a57a1f2bcc804edab555d04832eedc00f0395d81ae"),
    # a germ word that starts with '-' and names no option is the germ, and
    # --help is the one help flag
    'lct -x^2+y^3':
        (0, "b6d6271a763e79fd0d989721f0f56411c4c05e3efad5f4a855d187b65f6aef1f"),
    'lct -x^2+y^3 --json':
        (0, "2e94b762fbe4f75e72e954d617e41c89e1a29f890d74026150fb6587d6a412af"),
    'lct --method newton -y^2+x^3':
        (0, "b7b0ebd8ae7460c81d2b00a36e4c72fe49e478b095cc0465bec83bd4ea15a855"),
    'lct -h':
        (1, "9d6679f8379294cd80fe5e7144da77af97e5b1beafdbdbf0b349b644a2524330"),
    # an option that takes a value reads the next word as it, even one that
    # starts with '-', as the click command line did
    'eckardt --cubic {cubic} --point -1,0,0,0':
        (0, "4d964081e7138fc1bf2278c78cac7934f93b54bb550f320cb33823aafbaae486"),
    'verify --lemma 3.1 --m 4 --lambda -1/2':
        (1, "16c0b587816c34ec008876e97b566b634b4bd6a729bfbecaa21956463f86eb1d"),
    'verify --lemma --json --m 2':
        (1, "fcd15b96691d9d4554120333b5531d933d140636c8f3f53c24e0537fcce45cbf"),
    'lines -h':
        (64, "dd262ec4e8732fb8c624bf07db9af5fe1c57873ce28867def3c10a6b7462c28c"),
    "lct '((y^2 - 2*x^2)^2 - 3*x^6)^2 - x^13'":
        (0, "fa8941076cdbda92286e0439c4cffc159a6c49ac4e941085d52c0f74502c0258"),
    "lct '((y^2 - 2*x^2)^2 - 3*x^6)^2 - x^13' --json":
        (0, "55a67446b834f6690e6a48eb85d51e525c99cf81293b5c7afb64d64b5121e692"),
    "lct '(y^2 - 2*x^2)^2 - x^5'":
        (0, "9c940bb20a95998f8b8bcfcb262c88ed1454d46baa92d8f5fb31dd8ae76e847e"),
    "lct '(y^2 - 2*x^2)^2 - x^5' --json":
        (0, "ac8983292e1326b22930943feb748bf645f7abf8d74c7b29df0a76fb651e92ae"),
    "lct '(y^3 - 2*x^3)^2 - x^7'":
        (0, "70fdf9edfcb803134c4849bde80485fb3d01ac6a1e4fa791d0a12d3a1ebc34e2"),
    "lct '(y^3 - 2*x^3)^2 - x^7' --json":
        (0, "7cc7e11ecf549dd8f59f16a0618e37c9a2b4e5035e5d3b68cce94e70bcb90437"),
    "lct '3/4*x^2*y^3 - y^5/2 + 2^3*x^7'":
        (0, "04d4679b5f59afdee8c884f51187280fddc6c9dbd5a45d04e9d8e80daa71f75d"),
    "lct '3/4*x^2*y^3 - y^5/2 + 2^3*x^7' --json":
        (0, "edc67e00dd5218b8ace0010be7c32c5b8a0b9463abfb5442b02aa020a248ea1a"),
    "lct ' 3/2*y ^ 2 -  x^3'":
        (0, "defb14205170a8a9ae5c961b25e15b2661f26093d1aef85d54d79ddbad39b5ae"),
    "lct ' 3/2*y ^ 2 -  x^3' --json":
        (0, "6a3e02ab43e0c9a2b3218b838723ec1722025468793980a432ab615497f6b54e"),
    'verify --lemma 3.1 --m 4':
        (0, "aa253ac259d85217182b7dfeaa9c3a12d1775f1ee372d9808bd73e41e27b3fdc"),
    'verify --lemma 3.1 --m 4 --json':
        (0, "51314ef5e8696a81bd32b76c35cf98330738d5988749d3c661df546306111adc"),
    'verify --lemma 3.1 --m 5 --lambda 1/2':
        (0, "70dbc420db0e8094d5e6920de8078563e96c374977274b81d8806bb91d207766"),
    'verify --lemma 3.1 --m 5 --lambda 1/2 --json':
        (0, "bf884d85e16c92f8bbd637ece2a5dc71eb38936d0fbd1162c861f24a6745c880"),
    'verify --lemma 5.1 --m 2':
        (0, "e77afeba2971f25cae4b07f22fe02c89fdd35c4cf198d15c041e4c1f5005e6ab"),
    'verify --lemma 5.1 --m 2 --json':
        (0, "cfabe88b396a4f452b6748e247aa62f063a792eb3673f367922a85728a6dca9d"),
    'verify --lemma 5.1 --m 3':
        (0, "240fef1022c262ea31b610aba29f053e691d38f8c4f8b661961c5af4b63be5ae"),
    'verify --lemma 5.1 --m 3 --json':
        (0, "412fdd6c7819336f323ddd4b995930751c751b10d6a59304395a269e05e459e3"),
    'case --id 3 --m 6':
        (0, "1fa91c7270117c6ea6c47076aa9f9889e60f1c9b4d9acf1165e14ce7d2f17dd3"),
    'case --id 3 --m 6 --json':
        (0, "2d1f0119e7a8de0c069e3ee032c3e69ac84c1fb7e8080025dd27dc1ac04d67e3"),
    'case --id nodal --m 6 --subcase q_on_c':
        (0, "a800b0c4f0f40a1646f00e4a9cc285a9129bd3d587ae3e6d8fc271c6c9b28081"),
    'case --id nodal --m 6 --subcase q_on_c --json':
        (0, "00414de1eec796642ba0e7ccc15f871fb5770ea3c6223709127d8626ffee8490"),
    'case --id 2 --m 4':
        (0, "eec8b553f5197cacef9419683dc16a1af104da5cdb250420b827ae3f07fe8deb"),
    'case --id 2 --m 4 --json':
        (0, "226c95dbe2b95d7fcfb49f5fd0a4ca787087a42ccd5e795a426ce41a3d439d95"),
    'solve {system} --m 6':
        (0, "30ae4a24d8fc67b79c33322f547a73a1ea8b84c5c82791698c5b199a05d4f20c"),
    'solve {system} --m 6 --json':
        (0, "97ad3baa8d515fccdf5bc403616a94510a42fc6b7e05075292300186332364c3"),
    'solve {system_infeasible}':
        (0, "0c3b2adc60eac5353ce1dca5dcf42001afcc0d77189327becc7739a750ebc53d"),
    'solve {system_infeasible} --json':
        (0, "5b9eb851806ac68d5ebade3a992ec292d0e64a479b19e0345a2fef0bec9522da"),
    'eckardt --config {config}':
        (0, "015d0475c67b37a2aef0337bff866a749b5a7131ff35ee2be24f17b3da82fe6f"),
    'eckardt --config {config} --json':
        (0, "005801bd9b492cf328778774223a427e31496711818fc7270d9d1095736b5afb"),
    'eckardt --config {config_nodal}':
        (0, "945632c340c114241c01ac716d087e9b573afeb7d998bb1c5a9a399749584562"),
    'eckardt --config {config_nodal} --json':
        (0, "476d473f9217a589c349ba737d8daf7ae87a0839bc983ef0b550f189c935430f"),
    'alpha --config {config}':
        (0, "682d966fefc94bef4dec5b44964af3f039f11d59aefcc2e374b16f534c21971a"),
    'alpha --config {config} --json':
        (0, "6ebd1870ae732f623c9649a4bdf3164a05a3d62dc88f8ab767ca04028a3a98cf"),
    "eckardt --cubic {cubic} --point '1 0 0 0'":
        (0, "4d964081e7138fc1bf2278c78cac7934f93b54bb550f320cb33823aafbaae486"),
    "eckardt --cubic {cubic} --point '1 0 0 0' --json":
        (0, "6d913bcea7068ef49720e3a8251a8d834da1f5cd1d23c07df455866567b71fe7"),
    'lines --bogus':
        (64, "962429c6add9ebfddd64901f39e5d299a44fd4edc37526db9f3efcbe3ed815a5"),
    'lines --bogus --json':
        (64, "962429c6add9ebfddd64901f39e5d299a44fd4edc37526db9f3efcbe3ed815a5"),
    "DELPEZZO_MAX_BLOWUPS=1 lct 'y^2 - x^3'":
        (2, "f48dbc4db2efdabf161808ac46c1e2d05e8370270cbc4532835e3e46b1234fa2"),
    "DELPEZZO_MAX_BLOWUPS=1 lct 'y^2 - x^3' --json":
        (2, "f48dbc4db2efdabf161808ac46c1e2d05e8370270cbc4532835e3e46b1234fa2"),
    "DELPEZZO_MAX_BLOWUPS=1 lct '(y^2 - 2*x^2)^2 - x^5'":
        (2, "f48dbc4db2efdabf161808ac46c1e2d05e8370270cbc4532835e3e46b1234fa2"),
    "DELPEZZO_MAX_BLOWUPS=1 lct '(y^2 - 2*x^2)^2 - x^5' --json":
        (2, "f48dbc4db2efdabf161808ac46c1e2d05e8370270cbc4532835e3e46b1234fa2"),
    "DELPEZZO_MAX_BLOWUPS=2 lct '((y^2 - 2*x^2)^2 - 3*x^6)^2 - x^13'":
        (2, "0bed93a62ec04f8700d73dae781555c1aafc79e8580d5a25a0490e9bcadbc033"),
    "DELPEZZO_MAX_BLOWUPS=2 lct '((y^2 - 2*x^2)^2 - 3*x^6)^2 - x^13' --json":
        (2, "0bed93a62ec04f8700d73dae781555c1aafc79e8580d5a25a0490e9bcadbc033"),
    "DELPEZZO_MAX_BLOWUPS=many lct 'y^2 - x^3'":
        (1, "0c05b7eb4f8789f872e6321f077fc4f842ec5d435f407554d7f0ab86238308d5"),
    "DELPEZZO_MAX_BLOWUPS=many lct 'y^2 - x^3' --json":
        (1, "0c05b7eb4f8789f872e6321f077fc4f842ec5d435f407554d7f0ab86238308d5"),
    "DELPEZZO_MAX_BLOWUPS=1 lct 'y^2 - x^3' --method newton":
        (0, "dd12b6b8c3b5a9dfd12fed3202051c598ce495d0699a71054e510325fa02fca8"),
    "DELPEZZO_MAX_BLOWUPS=1 lct 'y^2 - x^3' --method newton --json":
        (0, "c7ca3354db0d1052267ed88494b406441682985812d3b8c98e84ca0e8c680e76"),
    "lct '2^4094*x^2 - y^3'":
        (0, "f6720b11799472914dc8a9f3ae3e1f8860d6ccba7cdbfc7ca683c02efbc9de7d"),
    "lct '2^4094*x^2 - y^3' --json":
        (0, "999463a1e3fd74616ebc8b5b30f84d1bd53fe169590267dd8d64f87f0a209857"),
    "lct '2^4095*x^2 - y^3'":
        (1, "3517754177935c69608d102b0e497dcc7b55309783f516b9e6aad535d5712418"),
    "lct '2^4095*x^2 - y^3' --json":
        (1, "3517754177935c69608d102b0e497dcc7b55309783f516b9e6aad535d5712418"),
    'verify --lemma 3.1 --m 4 --lambda 0.6':
        (1, "e4c96ca90061c2c0765884d861c7c095280e9cad08e8b1f52bd33b7dab71393f"),
    'verify --lemma 3.1 --m 4 --lambda 0.6 --json':
        (1, "e4c96ca90061c2c0765884d861c7c095280e9cad08e8b1f52bd33b7dab71393f"),
    "lct '0.5*x^2 - y^3'":
        (1, "0a46a17824e59fdbacb81dc3e67f2d13265024f021a877da2ed1d2884f05d957"),
    "lct '0.5*x^2 - y^3' --json":
        (1, "0a46a17824e59fdbacb81dc3e67f2d13265024f021a877da2ed1d2884f05d957"),
    "eckardt --cubic {cubic} --point '1 0 0 0.0'":
        (1, "e4c96ca90061c2c0765884d861c7c095280e9cad08e8b1f52bd33b7dab71393f"),
    "eckardt --cubic {cubic} --point '1 0 0 0.0' --json":
        (1, "e4c96ca90061c2c0765884d861c7c095280e9cad08e8b1f52bd33b7dab71393f"),
    'eckardt --config {config_dec}':
        (1, "a6d432777a9e01c46d1d0fc0b314bb03f261b1f40a480e9e5d14163d854e6c44"),
    'eckardt --config {config_dec} --json':
        (1, "a6d432777a9e01c46d1d0fc0b314bb03f261b1f40a480e9e5d14163d854e6c44"),
    'solve {system_dec}':
        (1, "e40133c6e9d1f84113175d18155d9a8d2b0c30e784a0c5110144e9da659e2e03"),
    'solve {system_dec} --json':
        (1, "e40133c6e9d1f84113175d18155d9a8d2b0c30e784a0c5110144e9da659e2e03"),
    '--help':
        (0, "8325a270b7b92c6dbe436cc73d40976efe0fac269632aa972404ac0d4c2f01e0"),
    'alpha --help':
        (0, "0799e4bd92e3ba137005615ba8cab520f7ad6394774814d22ef8c7806d478d82"),
    'case --help':
        (0, "67d971c2c7627db3493591df1f6eae4b4ef8deeb39fa77cba44d268ae0b8ba8a"),
    'eckardt --help':
        (0, "893c25077bacab1cb88f5b1af7c63404e1c486363f4ad16343f37ade92370d09"),
    'lct --help':
        (0, "12f57c9541abf6e9e7c81f6d4fac5b161de4b135383bf1111b3a1953d562b6a5"),
    'lines --help':
        (0, "7d21bc8965b80372cdce1ea72ba2925ae938db14a3e46bcb6cae416f58664a23"),
    'solve --help':
        (0, "3dfcb22ec7467a78d4359df2f5009c4dc14f1dc72c0a0cbc17be9a4df3a9d6b4"),
    'verify --help':
        (0, "79ffe2644276b7377103b38f585712dc84233880da24dac6c61807711eb19a4a"),
}


@pytest.fixture(scope="module")
def pin_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    for name, text in PIN_FILES.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in PIN_FILES}


def run_pinned(key, files):
    """(exit code, sha256 of stdout NUL stderr) of the invocation `key`."""
    words = shlex.split(key)
    env = {"DELPEZZO_MAX_BLOWUPS": None, "COLUMNS": "80"}
    while "=" in words[0]:
        name, value = words.pop(0).split("=", 1)
        env[name] = value
    args = [w.format(**files) for w in words]
    result = run(args, env=env)
    # a raw traceback is never an expected exit 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    out = f"{result.stdout}\0{result.stderr}".encode()
    return result.exit_code, hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("key", list(PINNED_RUNS))
def test_invocation_is_pinned(pin_files, key):
    assert run_pinned(key, pin_files) == PINNED_RUNS[key]


# -- one result, two renderers ---------------------------------------------------
# Each command builds one result; its text renderer and --json both write that
# result.  Every field --json writes must reach the text: changing any one leaf
# (a dict value, a list item or a report field) must change the text in some
# sample.  `verify` is the one exception: its text prints every record, its
# JSON only the counts and the survivors.

BOTH_WAYS = {
    "lines": ["lines --mode smooth", "lines --mode nodal"],
    "lct": ["lct 'y^2 - x^3'", "lct '(y - x)^2'", "lct 'x*y' --method blowup",
            "lct 'x*y' --method newton"],
    "eckardt": ["eckardt --config {config}",
                "eckardt --cubic {cubic} --point '1 0 0 0'"],
    "case": ["case --id 3 --m 5", "case --id nodal --m 5 --subcase q_free",
             "case --id nodal --m 6 --subcase q_on_c"],
    "solve": ["solve {system} --m 6"],
    "alpha": ["alpha --config {config}"],
}

# JSON fields that summarise others the text shows one by one
DERIVED = {("integrality_contradiction",)}  # any(not ok for ok in integral)


def build_once(key, files):
    """The command's text renderer and the one result it builds for `key`."""
    name, options = parse([w.format(**files) for w in shlex.split(key)])
    build, text = COMMANDS[name]
    options.pop("as_json")
    return build(**options), text


def written(result, text, as_json, capsys):
    CLI_MODULE._write(lambda: result, text, as_json)
    return capsys.readouterr().out


def is_report(node):
    return dataclasses.is_dataclass(node) and isinstance(CLI_MODULE._plain(node), dict)


def leaves(node, path=()):
    """(path, value) of each leaf of a result; a report's leaves are its fields."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, (list, tuple)):
        items = enumerate(node)
    elif is_report(node):
        items = ((f.name, getattr(node, f.name)) for f in dataclasses.fields(node))
    else:
        yield path, node
        return
    for key, value in items:
        yield from leaves(value, path + (key,))


def replaced(node, path, value):
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, key: replaced(node[key], rest, value)}
    if isinstance(node, (list, tuple)):
        items = list(node)
        items[key] = replaced(node[key], rest, value)
        return type(node)(items)
    return dataclasses.replace(node, **{key: replaced(getattr(node, key), rest, value)})


def text_or_error(text, result):
    try:
        return text(result)
    except (KeyError, TypeError) as exc:  # it tripped on the new value: it reads it
        return repr(exc)


def names_read(code):
    """The global and attribute names a function's code reads, nested code too."""
    return set(code.co_names).union(*(names_read(c) for c in code.co_consts
                                      if hasattr(c, "co_names")))


@pytest.mark.parametrize("name", sorted(BOTH_WAYS))
def test_text_reads_nothing_but_its_result(name):
    # so the text cannot show what the result, and hence the JSON, lacks
    _, text = COMMANDS[name]
    code = getattr(text, "__code__", None)  # `str` renders a report's own fields
    if code is not None:
        assert names_read(code) & set(vars(CLI_MODULE)) == set()


def test_every_command_but_verify_is_rendered_both_ways():
    assert set(BOTH_WAYS) == set(COMMANDS) - {"verify"}


@pytest.mark.parametrize("name", sorted(BOTH_WAYS))
def test_each_json_field_reaches_the_text(name, pin_files, capsys):
    shown = {}
    for key in BOTH_WAYS[name]:
        result, text = build_once(key, pin_files)
        as_text = written(result, text, False, capsys)
        data = json.loads(written(result, text, True, capsys))
        assert as_text == text(result) + "\n"
        # the JSON writes every leaf of the result, and nothing else
        assert {p for p, _ in leaves(result)} == {p for p, _ in leaves(data)}
        try:
            json.dumps(result)
        except TypeError:  # it holds reports, which render their own text
            pass
        else:  # plain data: the text reads the same off the JSON
            assert text(data) == text(result)
        for path, value in leaves(result):
            if path in DERIVED:
                continue
            other = (not value) if isinstance(value, bool) else "<changed>"
            changed = text_or_error(text, replaced(result, path, other)) != text(result)
            where = tuple("*" if isinstance(k, int) else k for k in path)
            shown[where] = shown.get(where, False) or changed
    assert [path for path, ok in shown.items() if not ok] == []


def test_verify_json_keeps_counts_and_survivors_not_records(capsys):
    build, text = COMMANDS["verify"]
    scan = build(lemma_id="5.1", m=4, lam_text=None)
    data = json.loads(written(scan, text, True, capsys))
    assert data == scan.summary
    lines = text(scan).splitlines()
    assert len(lines) == 2 + data["candidates"] + 1
    assert lines[-1] == f"conclusion: {data['conclusion']}"
    survivors = [line for line in lines if ": SURVIVOR" in line]
    assert [line.split(": SURVIVOR")[0].strip() for line in survivors] == data["survivors"]
    # the records stay out of the JSON
    assert not any(line.strip() in json.dumps(data) for line in lines[2:-1])
