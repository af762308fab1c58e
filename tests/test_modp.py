"""The square-free certificate modulo P and its three call sites.

The certificate is one-sided: when it certifies it must agree with sympy,
and it must never certify a polynomial with a repeated factor, in particular
not one whose degree drops modulo P.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from sympy import QQ, ZZ, Poly, symbols

from delpezzo import lct as lct_module
from delpezzo import modp, resolution
from delpezzo.germs import CurveGerm, parse_germ
from delpezzo.lct import newton_lct, newton_polygon
from germgen import random_germ, random_unimodular

P = modp.P
X, Y, V = symbols("x y v")


def _integer_terms(f: CurveGerm) -> dict:
    terms = f.terms()
    scale = lcm(*(c.denominator for c in terms.values()))
    return {e: int(c * scale) for e, c in terms.items()}


def _zz(terms: dict) -> Poly:
    return Poly.from_dict(terms, X, Y, domain=ZZ)


def _corpus():
    """(germ, reduced?) pairs: seeded germs, their unimodular substitutions,
    and products g^k * h for k = 2, 3, which are never reduced."""
    rng = random.Random(2461)
    germs = [random_germ(rng) for _ in range(300)]
    subs = [g.compose_linear(*random_unimodular(rng)) for g in germs]
    pairs = [(g, None) for g in germs + subs]
    for k in (2, 3):
        for _ in range(200):
            g, h = rng.choice(germs), rng.choice(subs)
            pairs.append((g ** k * h, False))
    return pairs


def test_certificate_agrees_with_sqf_list():
    corpus = _corpus()
    assert len(corpus) >= 1000
    certified = 0
    for f, reduced in corpus:
        terms = _integer_terms(f)
        if not modp.certifies_xy(terms):
            continue
        assert reduced is None, f"certified a non-reduced {f}"
        certified += 1
        _c, parts = _zz(terms).sqf_list()
        assert len(parts) == 1 and parts[0][1] == 1, str(f)
        want = parts[0][0].rep.to_dict()
        got = resolution._primitive(terms)
        # the same part, its terms in the same order
        assert list(got.items()) == [(e, int(c)) for e, c in want.items()], \
            str(f)
    # 340 of the 600 germs and substitutions are reduced (sympy says so of
    # exactly the certified ones); the certificate must see most of them
    assert certified >= 300


def test_components_are_the_same_with_and_without_the_certificate(monkeypatch):
    rng = random.Random(2462)
    germs = [random_germ(rng) for _ in range(60)]
    germs += [g.compose_linear(*random_unimodular(rng)) for g in germs]
    germs += [parse_germ(t) for t in ("x*y", "y - x^2", "y^2 - x^2 - x^3",
                                      "x^2*y + 3*y^3/7", "-y^2 + x^3")]
    certified = [resolution._components_of(f) for f in germs]
    monkeypatch.setattr(modp, "certifies_xy", lambda terms: False)
    assert [resolution._components_of(f) for f in germs] == certified


def _g_squared_times_x_plus_y() -> dict:
    # g = (x - s)(y - t) + 1 is 1 on both lines x = s and y = t, so
    # f = g^2 * (x + y) specialises to the square-free x + t and s + y, of
    # degree 1 where f has degree 3 in each variable
    s, t = modp.POINT
    g = Poly((X - s) * (Y - t) + 1, X, Y, domain=ZZ)
    f = g ** 2 * Poly(X + Y, X, Y)
    return {e: int(c) for e, c in f.rep.to_dict().items()}


def test_a_degree_that_drops_is_no_certificate():
    f = _g_squared_times_x_plus_y()
    s, t = modp.POINT
    assert modp._specialise(f, 0, t) == [t, 1, 0, 0]
    assert modp._specialise(f, 1, s) == [s, 1, 0, 0]
    assert not modp.certifies_xy(f)


def test_residue_refuses_a_denominator_divisible_by_p():
    assert modp.residue(Fraction(3, 2 * P)) is None
    assert 2 * modp.residue(Fraction(-1, 2)) % P == P - 1
    assert modp.residue(P + 5) == 5
    assert modp.residues([1, Fraction(1, P)]) is None
    assert modp.residues([1, P]) is None    # the top coefficient vanishes


def test_univariate_square_free_test_over_gf_p():
    def coeffs(expr):
        return [int(c) % P for c in reversed(Poly(expr, V).all_coeffs())]
    for expr in (V ** 0, V, V + 1, V ** 2 - 2, V ** 5 - V - 1,
                 (V - 1) * (V + 1) * V):
        assert modp.is_squarefree(coeffs(expr)), expr
    # the last is square-free over QQ but not mod P: a failure proves nothing
    for expr in ((V - 1) ** 2, V ** 3, (V ** 2 + 1) ** 2 * (V - 3),
                 (V - P - 1) * (V - 1)):
        assert not modp.is_squarefree(coeffs(expr)), expr


# (1 + v/P)^2 * (1 + v) and (1 + P*v)^2 * (1 + v): neither is square-free, and
# each reduces mod P to the square-free 1 + v once its degree drops
TWINS = {"denominator": Fraction(1, P), "numerator": Fraction(P)}


@pytest.mark.parametrize("kind", TWINS)
def test_the_line_test_falls_back_when_the_degree_drops(kind):
    a = QQ(TWINS[kind].numerator, TWINS[kind].denominator)
    comps = [({(0, 0): QQ(1), (0, 1): a}, 2),
             ({(0, 0): QQ(1), (0, 1): a, (1, 1): QQ(1)}, 1),
             ({(0, 0): QQ(1), (0, 1): QQ(1)}, 1)]
    assert not resolution._restriction_certified(comps)
    # sympy finds the double root -1/a
    roots = resolution._multiple_roots(comps, QQ)
    assert [resolution._linear_root(q) for q in roots] == [-1 / a]


def test_the_line_test_certifies_distinct_roots():
    comps = [({(0, 0): QQ(1), (0, 1): QQ(1, 3)}, 2),
             ({(0, 0): QQ(2), (0, 1): QQ(1), (1, 1): QQ(1)}, 1),
             ({(0, 1): QQ(-1, 5), (1, 0): QQ(1)}, 1)]
    assert resolution._restriction_certified(comps)
    assert resolution._multiple_roots(comps, QQ) == []


@pytest.mark.parametrize("kind", TWINS)
def test_the_face_test_falls_back_when_the_degree_drops(kind):
    a = TWINS[kind]
    # (y + a*x)^2 * (y + x): one face, H(s) = (1 + a*s)^2 * (1 + s)
    h = [1, 2 * a + 1, a * a + 2 * a, a * a]
    f = CurveGerm.from_dict({(t, 3 - t): c for t, c in enumerate(h)})
    face, = newton_polygon(f).faces
    assert lct_module._face_coeffs(f.terms(), face) == h
    assert not modp.certifies(h)
    assert not newton_lct(f).exact


def test_certified_faces_skip_sympy(monkeypatch):
    def refuse(f, face):
        raise AssertionError(f"sympy asked about {face} of {f}")
    monkeypatch.setattr(lct_module, "_face_univariate", refuse)
    for text in ("y^2 - x^4", "y^3 - x^5", "x*y*(x + y)",
                 "(y^2 - x^3)*(y^2 - 2*x^3)", "x^2/3 - 5*y^7/2"):
        assert newton_lct(parse_germ(text)).exact, text
