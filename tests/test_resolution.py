"""Resolution engine: the carried reduced transform, pinned node chains, one
resolve per caller, and the substituted conjugate-tangent families."""

import random
import time
from fractions import Fraction

import pytest
import sympy
from click.testing import CliRunner
from sympy import QQ, Poly

from delpezzo import cli as cli_module
from delpezzo import lct as lct_module
from delpezzo import resolution
from delpezzo.germs import parse_germ
from delpezzo.lct import blowup_lct, check_mult_bounds
from delpezzo.resolution import resolve_germ
from germgen import random_germ

_X, _Y = sympy.symbols("x y")

FIELD_EXTENSION_GERM = "(y^2 - 2*x^2)^2 - x^7"
# (y^3 - 2*x^3)^2 - x^7 after (x, y) -> (x + y, x + 2*y)
CONJUGATE_CUBE = parse_germ("(y^3 - 2*x^3)^2 - x^7").compose_linear(1, 1, 1, 2)


def _sqf_part_up_to_scalar(g, g_red, K):
    """Is g_red the square-free part of g, up to a nonzero constant in K?"""
    expected = Poly.from_dict(g, _X, _Y, domain=K).sqf_part().monic()
    return Poly.from_dict(g_red, _X, _Y, domain=K).monic() == expected


def test_carried_reduced_transform_is_the_square_free_part(monkeypatch):
    # Poly.sqf_part of g at every site is the oracle for the carried g_red
    sites = []
    process = resolution._Engine.process

    def checked(self, g, g_red, K, xa, ya, where):
        assert _sqf_part_up_to_scalar(g, g_red, K), where
        sites.append(where)
        return process(self, g, g_red, K, xa, ya, where)

    monkeypatch.setattr(resolution._Engine, "process", checked)
    rng = random.Random(20260825)
    germs = [random_germ(rng) for _ in range(200)]
    germs.append(parse_germ(FIELD_EXTENSION_GERM))
    germs.append(parse_germ("(y - x)^2 - x^3"))   # tangent at y = 1 in chart A
    # squares, where g and g_red differ and so do their multiplicities
    germs += [f ** 2 for f in germs[-40:]]
    for f in germs:
        _, g0_red = resolution._components_of(f)
        g0 = {e: QQ.convert(c) for e, c in f.coeffs}
        assert _sqf_part_up_to_scalar(g0, g0_red, QQ), str(f)
        resolve_germ(f)
    assert len(sites) > len(germs)
    assert any("at root of" in where for where in sites)


# (a, b, parent indices, site) per node, in creation order
GOLDEN_CHAINS = [
    (parse_germ(FIELD_EXTENSION_GERM), [
        (1, 4, (), "origin"),
        (2, 6, (1,), "origin / chart A at root of v**2 - 2"),
        (3, 7, (2,), "origin / chart A at root of v**2 - 2 / chart A origin"),
        (6, 14, (2, 3),
         "origin / chart A at root of v**2 - 2 / chart A origin"
         " / chart B origin"),
    ]),
    (CONJUGATE_CUBE, [
        (1, 6, (), "origin"),
        (2, 7, (1,), "origin / chart A at root of 6*v**3 + 6*v**2 - 1"),
        (4, 14, (1, 2),
         "origin / chart A at root of 6*v**3 + 6*v**2 - 1 / chart B origin"),
    ]),
]


@pytest.mark.parametrize("f, chain", GOLDEN_CHAINS)
def test_node_chains_parents_and_sites(f, chain):
    res = resolve_germ(f)
    assert [(n.a, n.b, tuple(p.index for p in n.parents), n.site)
            for n in res.nodes] == chain
    assert res.blowups == len(chain)


def _count_resolves(monkeypatch, *modules):
    calls = []

    def counting(f, max_blowups=None):
        calls.append(f)
        return resolve_germ(f, max_blowups)

    for module in modules:
        monkeypatch.setattr(module, "resolve_germ", counting)
    return calls


def test_check_mult_bounds_resolves_once(monkeypatch):
    calls = _count_resolves(monkeypatch, lct_module)
    verdict = check_mult_bounds(parse_germ("(y - x^2)^3"))
    assert verdict.value == Fraction(1, 3) and verdict.equality_case.verified
    assert len(calls) == 1


def test_cli_lct_resolves_once(monkeypatch):
    calls = _count_resolves(monkeypatch, lct_module, cli_module)
    result = CliRunner().invoke(cli_module.cli, ["lct", "y^2 - x^3"])
    assert result.exit_code == 0
    assert "nodes: (1,2) (2,3) (4,6)" in result.output
    assert len(calls) == 1


# substituted families whose first blow-up meets the curve at conjugate
# points of high multiplicity; both have lct 1/3
@pytest.mark.parametrize("text, matrix", [
    ("(y^2 - 2*x^2)^3 - x^7", (1, 1, 1, 2)),
    ("(y^2 - 3*x^2)^3 - x^7", (2, 1, 1, 1)),
    ("(y^3 - 2*x^3)^2 - x^7", (1, 1, 1, 2)),
    ("(y^3 - 3*x^3)^2 - x^7", (1, -1, 1, 0)),
])
def test_substituted_conjugate_families(text, matrix):
    f = parse_germ(text).compose_linear(*matrix)
    start = time.perf_counter()
    report = blowup_lct(f)
    elapsed = time.perf_counter() - start
    assert report.value == Fraction(1, 3)
    assert elapsed < 2.0
