"""The square-free certificate, the multiple roots along a line and the
square-free test of a Newton face modulo P, and their three call sites.

All are one-sided: when they decide they must agree with sympy, and they
must never certify a polynomial with a repeated factor, in particular not one
whose degree drops modulo P, nor miss a multiple root that only shows over
QQ.
"""

import functools
import random
import weakref
from fractions import Fraction
from math import lcm

import pytest
from sympy import QQ, ZZ, Poly, symbols

import resolution_corpus
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
# each reduces mod P, once cleared of denominators, to one whose only double
# root 0 is no root over QQ, or to the square-free 1 + v once its degree drops
TWINS = {"denominator": Fraction(1, P), "numerator": Fraction(P)}


def _line(comps) -> list:
    """The product r of the components' restrictions p(0, v), as the engine
    builds it."""
    return functools.reduce(resolution._mul, (
        resolution._restriction(p, resolution._RATIONALS) for p, _i in comps))


@pytest.mark.parametrize("kind", TWINS)
def test_the_line_test_falls_back_when_the_degree_drops(kind):
    a = TWINS[kind]
    # the engine's primitive integer components d + n*v for 1 + a*v, a = n/d
    n, d = a.numerator, a.denominator
    comps = [({(0, 0): d, (0, 1): n}, 2),
             ({(0, 0): d, (0, 1): n, (1, 1): d}, 1),
             ({(0, 0): 1, (0, 1): 1}, 1)]
    assert modp.multiple_roots(_line(comps)) is None
    # sympy finds the double root -1/a
    assert resolution._multiple_roots(comps, resolution._RATIONALS) \
        == ([-1 / a], [])


def test_the_line_test_certifies_distinct_roots():
    comps = [({(0, 0): 3, (0, 1): 1}, 2),
             ({(0, 0): 2, (0, 1): 1, (1, 1): 1}, 1),
             ({(0, 1): -1, (1, 0): 5}, 1)]
    assert modp.multiple_roots(_line(comps)) == ([], [])
    assert resolution._multiple_roots(comps, resolution._RATIONALS) == ([], [])


@pytest.mark.parametrize("kind", TWINS)
def test_the_face_test_falls_back_when_the_degree_drops(kind):
    a = TWINS[kind]
    # (y + a*x)^2 * (y + x): one face, H(s) = (1 + a*s)^2 * (1 + s)
    h = [1, 2 * a + 1, a * a + 2 * a, a * a]
    f = CurveGerm.from_dict({(t, 3 - t): c for t, c in enumerate(h)})
    face, = newton_polygon(f).faces
    assert lct_module._face_coeffs(f.terms(), face) == h
    assert modp.square_free(h) is None
    assert not newton_lct(f).exact


def test_face_tests_agree_with_is_sqf():
    # every Newton face of the pinned corpus and of 500 seeded germs
    rng = random.Random(7)
    germs = resolution_corpus.corpus() + [random_germ(rng) for _ in range(500)]
    faces = [(f, face) for f in germs for face in newton_polygon(f).faces]
    decided = 0
    for f, face in faces:
        got = modp.square_free(lct_module._face_coeffs(f.terms(), face))
        if got is not None:
            decided += 1
            assert got == lct_module._face_univariate(f, face).is_sqf, \
                (str(f), str(face))
    # 1,227 of the 1,228 faces are decided here
    assert len(faces) == 1228 and decided >= 1226


def test_certified_faces_skip_sympy(monkeypatch):
    def refuse(f, face):
        raise AssertionError(f"sympy asked about {face} of {f}")
    monkeypatch.setattr(lct_module, "_face_univariate", refuse)
    for text in ("y^2 - x^4", "y^3 - x^5", "x*y*(x + y)",
                 "(y^2 - x^3)*(y^2 - 2*x^3)", "x^2/3 - 5*y^7/2"):
        assert newton_lct(parse_germ(text)).exact, text


# -- multiple roots along a line -------------------------------------------------

def _expand(factors) -> list:
    """prod f^k over QQ for (f, k) in factors, f constant term first."""
    r = [Fraction(1)]
    for f, k in factors:
        for _ in range(k):
            out = [Fraction(0)] * (len(r) + len(f) - 1)
            for i, a in enumerate(r):
                for j, b in enumerate(f):
                    out[i + j] += a * b
            r = out
    return r


def _integral(r) -> list[int]:
    """r over QQ times the lcm of its denominators."""
    scale = lcm(*(Fraction(c).denominator for c in r))
    return [int(c * scale) for c in r]


def _sympy_multiple_roots(r):
    """sympy's gcd(r, r').factor_list() as modp.multiple_roots gives it: the
    roots of its linear factors in its order, and its other factors as
    primitive integer polynomials with positive top coefficient."""
    p = Poly([QQ(c.numerator, c.denominator) for c in reversed(r)], V, domain=QQ)
    roots, factors = [], []
    for q, _m in p.gcd(p.diff(V)).factor_list()[1]:
        if q.degree() > 1:
            q = q.monic().clear_denoms()[1]
            factors.append([int(c) for c in reversed(q.all_coeffs())])
            continue
        b, a = q.rep.to_list()
        roots.append(Fraction(int(-a.numerator), int(a.denominator))
                     / Fraction(int(b.numerator), int(b.denominator)))
    return roots, factors


def _irreducible(rng, degree):
    while True:
        coeffs = [QQ(rng.randint(-6, 6), rng.randint(1, 3))
                  for _ in range(degree)] + [QQ(rng.randint(1, 4))]
        if coeffs[0] and Poly(coeffs[::-1], V, domain=QQ).is_irreducible:
            return [Fraction(int(c.numerator), int(c.denominator))
                    for c in coeffs]


def test_rational_multiple_roots_agree_with_sympy():
    # products of (b*v - a)^k, k = 1..3, the root 0 among them, with
    # irreducible quadratics and cubics to the power 1 or 2, times a constant,
    # made integral
    rng = random.Random(20261019)
    decided = undecided = with_factor = 0
    for _ in range(1200):
        factors = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.6:
                factors.append(([Fraction(-rng.randint(-9, 9)),
                                 Fraction(rng.randint(1, 6))],
                                rng.choice((1, 1, 2, 3))))
            else:
                factors.append((_irreducible(rng, 2 if kind < 0.85 else 3),
                                rng.choice((1, 2))))
        scale = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 7))
        r = _integral([c * scale for c in _expand(factors)])
        got = modp.multiple_roots(r)
        if got is None:
            undecided += 1
            continue
        decided += 1
        with_factor += bool(got[1])
        # the same roots in the same order, and the same irreducible factor
        assert got == _sympy_multiple_roots(r), factors
    # 891 of the 1,200 are decided here: 688 by their rational roots alone,
    # 203 with an irreducible factor
    assert decided - with_factor >= 600 and with_factor >= 150
    assert undecided >= 250


def test_roots_equal_mod_p_only_are_not_multiple_roots():
    one, other = [Fraction(-1), Fraction(1)], [Fraction(-1 - P), Fraction(1)]
    # 1 and 1 + P are simple roots: the double root 1 mod P is refused
    r = _integral(_expand([(one, 1), (other, 1)]))
    assert modp.multiple_roots(r) is None
    assert _sympy_multiple_roots(r) == ([], [])
    comps = [({(0, 0): -1, (0, 1): 1}, 1), ({(0, 0): -1 - P, (0, 1): 1}, 1)]
    assert resolution._multiple_roots(comps, resolution._RATIONALS) == ([], [])
    # 1 is proven double, but the cofactor (v - 1 - P)^2 is no square-free
    # certificate, so sympy finds the second double root
    r = _integral(_expand([(one, 2), (other, 2)]))
    assert modp.multiple_roots(r) is None
    assert _sympy_multiple_roots(r) == ([1 + P, 1], [])
    # with 1 + P simple the cofactor is certified
    r = _integral(_expand([(one, 2), (other, 1)]))
    assert modp.multiple_roots(r) == _sympy_multiple_roots(r) == ([1], [])
    # the same for the quadratic twins v^2 - 2 and v^2 - 2 - P: their lift
    # v^2 - 2 divides r twice, but the rest (v^2 - 2 - P)^2 is no
    # square-free certificate, so sympy finds both factors
    one = [Fraction(-2), 0, Fraction(1)]
    other = [Fraction(-2 - P), 0, Fraction(1)]
    r = _integral(_expand([(one, 2), (other, 2)]))
    assert modp.multiple_roots(r) is None
    assert _sympy_multiple_roots(r) == ([], [[-2 - P, 0, 1], [-2, 0, 1]])
    r = _integral(_expand([(one, 2), (other, 1)]))
    assert modp.multiple_roots(r) == _sympy_multiple_roots(r) \
        == ([], [[-2, 0, 1]])


def test_a_triple_root_and_three_double_roots():
    v = [Fraction(0), Fraction(1)]
    r = _integral(_expand([([Fraction(-2), Fraction(1)], 3),
                           ([Fraction(5), Fraction(1)], 1)]))
    assert modp.multiple_roots(r) == _sympy_multiple_roots(r) == ([2], [])
    # sympy orders by the multiplicity in gcd(r, r') first: the double root
    # -1/3 comes before the triple root 2, and the double root 0 before both
    r = _integral(_expand([([Fraction(-2), Fraction(1)], 3),
                           ([Fraction(1), Fraction(3)], 2),
                           ([Fraction(-3), Fraction(0), Fraction(1)], 1)]))
    assert modp.multiple_roots(r) == _sympy_multiple_roots(r) \
        == ([Fraction(-1, 3), 2], [])
    r = _integral(_expand([(v, 2), ([Fraction(-2), Fraction(1)], 3)]))
    assert modp.multiple_roots(r) == _sympy_multiple_roots(r) == ([0, 2], [])
    # three distinct double roots: a square-free part of degree 3 is left to
    # sympy
    r = _integral(_expand([([Fraction(-k), Fraction(1)], 2) for k in (1, 2, 3)]))
    assert modp.multiple_roots(r) is None
    comps = [({(0, j): c for j, c in enumerate(r) if c}, 1)]
    assert resolution._multiple_roots(comps, resolution._RATIONALS) \
        == ([3, 2, 1], [])


def _resolved_both_ways(monkeypatch, text):
    """The nodes (a, b, parents, site) of the germ's resolution as it runs,
    and with every multiple-root question along a line left to sympy."""
    chains = []
    for fallback in (False, True):
        if fallback:
            monkeypatch.setattr(modp, "multiple_roots", lambda r: None)
        monkeypatch.setattr(resolution, "_resolved", weakref.WeakKeyDictionary())
        res = resolution.resolve_germ(parse_germ(text))
        chains.append([(n.a, n.b, [p.index for p in n.parents], n.site)
                       for n in res.nodes])
    return chains


@pytest.mark.parametrize("text, site", [
    # the tangent y = 3/2 along the first exceptional line
    ("(2*y - 3*x)^2 - x^3", "origin / chart A at y=3/2"),
    # a triple point of the strict transform at y = 1
    ("(y - x)^3 - x^4", "origin / chart A at y=1"),
    # three double points at y = 1, 2, 3: sympy decides
    ("((y - x)*(y - 2*x)*(y - 3*x))^2 - x^7", "origin / chart A at y=2"),
    # a double root 2147483659/2147483649, too tall to reconstruct
    ("(2147483649*y - 2147483659*x)^2 - x^3",
     "origin / chart A at y=2147483659/2147483649"),
], ids=["rational", "triple", "three-double", "tall"])
def test_node_chains_do_not_depend_on_the_routine(monkeypatch, text, site):
    assert min(2147483649, 2147483659) > modp.BOUND
    ours, sympys = _resolved_both_ways(monkeypatch, text)
    assert ours == sympys
    assert site in [where for *_, where in ours]


def test_a_tall_root_is_left_to_sympy():
    n, d = 2147483659, 2147483649
    r = _integral(_expand([([Fraction(-n), Fraction(d)], 2),
                           ([Fraction(1), Fraction(1)], 1)]))
    assert modp.multiple_roots(r) is None
    assert _sympy_multiple_roots(r) == ([Fraction(n, d)], [])


# -- the work modulo P, counted ------------------------------------------------

# Calls to modp.residues and modp._gcd, from a fresh memo.  resolve_germ makes
# 2 _gcd calls in certifies_xy on a germ it certifies, and on each line over
# QQ one reduction (residues) and one _gcd for g = gcd(r~, r~'), plus one for
# gcd(g, g') when g is not constant, plus one for the rest's certificate for
# each lift whose factors all divide r twice.  newton_lct makes one residues
# and one _gcd per face (square_free), plus one for gcd(g, g') when g is not
# constant, up to the first face that is not square-free.
@pytest.mark.parametrize("text, step, residues, gcds", [
    # one line over QQ, through the roots of v^2 - 2, whose lift is v^2 - 2
    # itself: 1 and 2 + 1 + 1 + 1
    ("(y^2 - 2*x^2)^2 - x^5", "resolve_germ", 1, 5),
    ("(y^2 - 2*x^2)^2 - x^5", "newton_lct", 1, 2),
    # three lines, the first through the double root 3/2: 3 and 2 + 3 + 1 + 1
    ("(2*y - 3*x)^2 - x^3", "resolve_germ", 3, 7),
    ("(2*y - 3*x)^2 - x^3", "newton_lct", 1, 2),
    # three lines with no multiple root: 3 and 2 + 1 + 1 + 1
    ("y^2 - x^3", "resolve_germ", 3, 5),
    ("y^2 - x^3", "newton_lct", 1, 1),
])
def test_work_modulo_p_is_counted(monkeypatch, text, step, residues, gcds):
    counts = {"residues": 0, "_gcd": 0}
    for name in counts:
        def counted(*args, name=name, call=getattr(modp, name)):
            counts[name] += 1
            return call(*args)
        monkeypatch.setattr(modp, name, counted)
    monkeypatch.setattr(resolution, "_resolved", weakref.WeakKeyDictionary())
    f = parse_germ(text)
    if step == "resolve_germ":
        resolution.resolve_germ(f)
    else:
        newton_lct(f)
    assert counts == {"residues": residues, "_gcd": gcds}


# -- irreducibility beyond the cubic, and of bivariate polynomials ---------------

def _times(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _univariate(rng, degree: int) -> list:
    q = [rng.randint(-5, 5) for _ in range(degree)]
    return q + [rng.choice((-3, -2, -1, 1, 2, 3))]


def test_irreducible_beyond_the_cubic_agrees_with_sympy():
    # degrees 4 to 8; a third are products of two factors of degree 2 or
    # more, which have no root modulo many primes, yet are never proven
    rng = random.Random(20261020)
    answers = {}
    for _ in range(400):
        degree = rng.randint(4, 8)
        if rng.random() < 1 / 3:
            low = rng.randint(2, degree - 2)
            q = _times(_univariate(rng, low), _univariate(rng, degree - low))
        else:
            q = _univariate(rng, degree)
        key = modp.irreducible(q), Poly(q[::-1], V, domain=QQ).is_irreducible
        answers[key] = answers.get(key, 0) + 1
    # (proven, irreducible): every irreducible q is proven, and no reducible
    # one
    assert answers == {(True, True): 212, (None, False): 188}
    # (v^2 + 1) * (v^2 + 2) has no rational root, nor a root modulo 5
    assert modp.irreducible(_times([1, 0, 1], [2, 0, 1])) is None


def test_the_cubic_rule_is_the_factor_degree_test():
    # modp.irreducible proves a cubic by a prime at which it has no root, a
    # shortcut for the factor degrees: a cubic with no root mod p is
    # irreducible there, hence square-free, with the factor degrees (3),
    # and a cubic with a root has a factor of degree 1.  So both tests
    # answer at the same primes, up to the first that proves the cubic.  A
    # fifth of the cubics are (b*v - a) times a quadratic, and a fifth have
    # a top coefficient with small prime factors
    rng = random.Random(20261021)
    answers = {True: 0, None: 0}
    for _ in range(5000):
        kind = rng.random()
        if kind < 0.2:
            q = _times([rng.randint(-5, 5), rng.randint(1, 4)], _univariate(rng, 2))
        else:
            q = _univariate(rng, 3)
            if kind < 0.4:
                q[3] = rng.choice((-1, 1)) * rng.choice((2, 6, 30, 210, 2310))
        proven = None
        for p in modp.SMALL_PRIMES:
            if q[3] % p:
                g = [c % p for c in q]
                no_root = all((((g[3] * x + g[2]) * x + g[1]) * x + g[0]) % p
                              for x in range(p))
                square_free = len(modp._gcd(g, modp._derivative(g, p), p)) == 1
                assert no_root == (square_free and modp._factor_degrees(g, p)
                                   == 0b1001), (q, p)
                if no_root:
                    proven = True
                    break
        assert modp.irreducible(q) == proven, q
        answers[proven] += 1
    assert answers[True] >= 2500 and answers[None] >= 1200


def _with_constant(rng) -> dict:
    terms = {(0, 0): rng.choice((-3, -2, -1, 1, 2, 3))}
    while len(terms) < rng.randint(2, 5):
        terms[rng.randint(0, 4), rng.randint(0, 4)] = rng.choice((-3, -2, -1, 1, 2))
    return terms


def test_irreducible_xy_agrees_with_sympy():
    # primitive polynomials with a constant term, so prime to both axes; a
    # third are products of two such
    rng = random.Random(20261021)
    answers = {}
    for _ in range(400):
        h = _zz(_with_constant(rng))
        if rng.random() < 1 / 3:
            h = h * _zz(_with_constant(rng))
        h = h.primitive()[1]
        if h.is_ground:
            continue
        key = (modp.irreducible_xy({e: int(c) for e, c in h.as_dict().items()}),
               h.is_irreducible)
        answers[key] = answers.get(key, 0) + 1
    # (proven, irreducible): no reducible h is proven irreducible, and one
    # irreducible h is left undecided
    assert answers == {(True, True): 268, (None, True): 1, (None, False): 131}
