"""Resolution engine: the components carried from site to site, pinned node
chains, one resolve per caller, the substituted conjugate-tangent families,
and the square-free split of the germ against full factorization."""

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
from delpezzo.lct import (blowup_lct, check_mult_bounds, newton_lct,
                          newton_polygon, resolution_lct)
from delpezzo.resolution import resolve_germ
from germgen import random_germ

_X, _Y = sympy.symbols("x y")

FIELD_EXTENSION_GERM = "(y^2 - 2*x^2)^2 - x^7"
# (y^3 - 2*x^3)^2 - x^7 after (x, y) -> (x + y, x + 2*y)
CONJUGATE_CUBE = parse_germ("(y^3 - 2*x^3)^2 - x^7").compose_linear(1, 1, 1, 2)


def test_carried_components_are_square_free_and_coprime(monkeypatch):
    # sympy sqf_part and gcd over the site's field K are the oracle: every
    # site's components are square-free and pairwise coprime, and every one
    # the engine blows up on passes through the point
    sites = []
    process, blow_up = resolution._Engine.process, resolution._Engine.blow_up

    def checked_process(self, comps, K, xa, ya, where):
        polys = [Poly.from_dict(p, _X, _Y, domain=K) for p, _i in comps]
        for k, p in enumerate(polys):
            assert p.sqf_part().monic() == p.monic(), where
            assert all(p.gcd(q).is_ground for q in polys[k + 1:]), where
        sites.append(where)
        return process(self, comps, K, xa, ya, where)

    def checked_blow_up(self, comps, K, xa, ya, where):
        assert comps and all((0, 0) not in p for p, _i in comps), where
        return blow_up(self, comps, K, xa, ya, where)

    monkeypatch.setattr(resolution._Engine, "process", checked_process)
    monkeypatch.setattr(resolution._Engine, "blow_up", checked_blow_up)
    rng = random.Random(20260825)
    germs = [random_germ(rng) for _ in range(200)]
    germs.append(parse_germ(FIELD_EXTENSION_GERM))
    germs.append(parse_germ("(y - x)^2 - x^3"))   # tangent at y = 1 in chart A
    # squares, whose components carry multiplicity 2
    germs += [f ** 2 for f in germs[-40:]]
    for f in germs:
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
    # a squared component beside a line and a unit: b weighs mult by i
    (parse_germ("(y^2 - x^3)^2*(y - x)*(1 + x)"), [
        (1, 5, (), "origin"),
        (2, 7, (1,), "origin / chart A origin"),
        (4, 14, (1, 2), "origin / chart A origin / chart B origin"),
    ]),
    # multiplicities 2 and 3 through the origin, and a squared unit
    (parse_germ("(y^2 - 2*x^3)^2*(y - x^2)^3*(1 + y)^2"), [
        (1, 7, (), "origin"),
        (2, 12, (1,), "origin / chart A origin"),
        (4, 21, (1, 2), "origin / chart A origin / chart B origin"),
    ]),
]


def _chain(res):
    return [(n.a, n.b, tuple(p.index for p in n.parents), n.site)
            for n in res.nodes]


@pytest.mark.parametrize("f, chain", GOLDEN_CHAINS)
def test_node_chains_parents_and_sites(f, chain):
    res = resolve_germ(f)
    assert _chain(res) == chain
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


# -- the square-free split against full factorization ------------------------

def _full_components(f):
    """The oracle: every irreducible QQ factor of f, in factor_list order."""
    _c, factors = resolution._qq_poly(f.terms()).factor_list()
    out = []
    for q, mult in factors:
        terms = {e: Fraction(c.numerator, c.denominator)
                 for e, c in q.rep.to_dict().items()}
        order = 0 if (0, 0) in terms else min(i + j for i, j in terms)
        out.append(resolution.Component(tuple(terms.items()), mult, order))
    return tuple(out)


def _bivariate_face_is_square_free(f, face):
    w1, w2 = face.normal
    terms = {(i, j): c for (i, j), c in f.coeffs
             if w1 * i + w2 * j == face.level}
    i0 = min(i for i, _ in terms)
    j0 = min(j for _, j in terms)
    bivariate = resolution._qq_poly(
        {(i - i0, j - j0): c for (i, j), c in terms.items()})
    return all(mult == 1 for _, mult in bivariate.sqf_list()[1])


SPLIT_GERMS = [
    "y^2 - x^2 - x^3",          # irreducible node with rational tangents
    "(y - x)*(y + 2*x)",        # two rational transversal branches
    "x^2 - 2*y^2",              # conjugate tangents: the disc is no square
    "(y - x)^2 - x^3",          # one tangent: the disc is zero
    "x*y*(1 + x)",              # transversal, with a unit factor
    "y*(1 + x)^2",              # smooth germ whose unit is a square
    "y*(1 + x)",                # smooth germ: its part has a unit factor
    "(y - x^2)*(1 + y)^3",      # smooth germ, k = 1 certificate
    "x^2*y",                    # witness of multiplicity 2 beside a line
    "x*(y + x*y)^2",            # the witness's part has a unit factor
    "(y + x*y)^3",              # so has the certificate's, lct = 1/k
    "(y - x^2)^3",              # equality case lct = 1/k
    "(x + y)^2*(x - y)^2*(1 + x)",
    "(y^2 - x^3)^2*(x + y)",
    "x*(y - x)*(y + x)",        # reduced order 3
]


def _split_corpus():
    rng = random.Random(20260825)
    corpus = [random_germ(rng) for _ in range(200)]
    pairs = random.Random(7)
    products = [a * b for a, b in (pairs.sample(corpus, 2) for _ in range(40))]
    named = [parse_germ(text) for text in SPLIT_GERMS]
    return corpus + [f ** 2 for f in corpus] + products + named


def _product(components, weighted):
    out = Poly(1, _X, _Y, domain=QQ)
    for comp in components:
        out *= resolution._qq_poly(dict(comp.coeffs)) ** \
            (comp.multiplicity if weighted else 1)
    return out.monic()


def test_square_free_split_matches_full_factorization(monkeypatch):
    # the oracle seeds the engine with every irreducible factor of f
    faces = {True: 0, False: 0}
    for f in _split_corpus():
        res = resolve_germ(f)
        got = (_chain(res), res.blowups, str(resolution_lct(res)),
               check_mult_bounds(f))
        with monkeypatch.context() as m:
            m.setattr(resolution, "_components_of", _full_components)
            oracle = resolve_germ(f)
            want = (_chain(oracle), oracle.blowups,
                    str(resolution_lct(oracle)), check_mult_bounds(f))
        assert got == want, str(f)
        for weighted in (False, True):
            assert _product(res.components, weighted) == \
                _product(oracle.components, weighted), str(f)
        for face in newton_polygon(f).faces:
            square_free = _bivariate_face_is_square_free(f, face)
            assert lct_module._face_univariate(f, face).is_sqf == \
                square_free, (str(f), str(face))
            faces[square_free] += 1
    assert faces[True] and faces[False]


def _count_bivariate(monkeypatch, method):
    calls = []
    original = getattr(Poly, method)

    def counting(self, *args, **kwargs):
        if len(self.gens) == 2:
            calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Poly, method, counting)
    return calls


@pytest.mark.parametrize("text, factorizations", [
    ("x^63*y + y^64", 0),     # square-free, reduced order 64
    ("y^3 - x^5", 0),         # square-free, reduced order 3
    ("y^2 - x^2 - x^3", 1),   # order 2 with rational tangents: factored
])
def test_only_parts_an_output_reads_are_factored(monkeypatch, text,
                                                 factorizations):
    f = parse_germ(text)
    factor_calls = _count_bivariate(monkeypatch, "factor_list")
    sqf_calls = _count_bivariate(monkeypatch, "sqf_list")
    resolve_germ(f)
    assert (len(factor_calls), len(sqf_calls)) == (factorizations, 1)
    newton_lct(f)
    assert len(sqf_calls) == 1   # the face test is univariate

