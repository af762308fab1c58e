"""The engine's own number fields: their arithmetic and Euclid's gcd against
sympy's AlgebraicField, the square-free test and the irreducibility proof of
modp against sympy's is_sqf and factor_list, resolutions that must not
depend on whether modp or sympy's factor_list decides a line, and every site
of the corpus over QQ or an own field.
"""

import random
import weakref
from fractions import Fraction
from math import gcd

import pytest
from sympy import QQ, CRootOf, Poly, symbols

import resolution_corpus
from delpezzo import modp, resolution
from delpezzo.germs import parse_germ
from delpezzo.lct import check_mult_bounds, newton_lct, resolution_lct
from delpezzo.numfield import NumberField, monic_gcd
from delpezzo.resolution import DepthExceededError, resolve_germ

V = symbols("v")
P = modp.P


def _sympy(q: list) -> Poly:
    return Poly([QQ(c.numerator, c.denominator) for c in reversed(q)], V,
                domain=QQ)


def _fraction(rng, size=5):
    return Fraction(rng.randint(-size, size), rng.randint(1, 4))


def _random_poly(rng, degree: int) -> list:
    """A primitive integer polynomial of the given degree, constant term
    first, with a positive top coefficient."""
    while True:
        q = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 4)]
        if q[0] and gcd(*q) == 1:
            return q


def _irreducible(rng, degree: int) -> list:
    while True:
        q = _random_poly(rng, degree)
        if _sympy(q).is_irreducible:
            return q


def _fields(rng):
    """Own fields and sympy's field of the same root, with the map between
    their elements: 12 quadratic and 12 cubic ones, v^2 - 2 and v^3 - 2
    among them."""
    qs = [[-2, 0, 1], [-2, 0, 0, 1]]
    qs += [_irreducible(rng, degree) for degree in (2, 3) for _ in range(11)]
    for q in qs:
        K = NumberField(q)
        K2 = QQ.algebraic_field((_sympy(q), CRootOf(_sympy(q).as_expr(), 0)))

        def image(a, K2=K2):
            return sum((K2.convert(QQ(c.numerator, c.denominator)) * K2.unit ** i
                        for i, c in enumerate(a.c)), K2.zero)
        yield K, K2, image


def _element(rng, K):
    value, power = K.zero, K.one
    for _ in range(K.n):
        value, power = value + power * _fraction(rng), power * K.unit
    return value


def test_field_arithmetic_agrees_with_sympy():
    rng = random.Random(20261020)
    for K, K2, image in _fields(rng):
        assert image(K.unit) == K2.unit
        for _ in range(20):
            a, b = _element(rng, K), _element(rng, K)
            c = _fraction(rng)
            assert image(a * b) == image(a) * image(b)
            assert image(a + b) == image(a) + image(b)
            assert image(a - b) == image(a) - image(b)
            assert image(a * c) == image(c * a) == image(a) * K2.convert(
                QQ(c.numerator, c.denominator))
            assert (a == b) == (image(a) == image(b))
            assert bool(a) == bool(image(a))
            if a:
                assert a * a.inverse() == K.one
                assert image(a.inverse()) == K2.one / image(a)
        assert K.convert(3) == 3 and K.one == 1 and not K.zero
        assert K.unit != K.one and K.unit != K.unit * 2


def _poly_over(rng, K, degree):
    top = rng.choice((1, 2, -3, Fraction(1, 2)))
    return [_element(rng, K) for _ in range(degree)] + [K.convert(top)]


def _mul(a, b):
    out = [a[0].K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def test_euclid_gcd_agrees_with_sympy():
    rng = random.Random(20261021)
    common = 0
    for K, K2, image in _fields(rng):
        for _ in range(4):
            u = _poly_over(rng, K, rng.randint(0, 2))
            a = _mul(u, _poly_over(rng, K, rng.randint(1, 3)))
            b = _mul(u, _poly_over(rng, K, rng.randint(0, 3)))
            got = monic_gcd(a, b)
            want = Poly([image(c) for c in reversed(a)], V, domain=K2).gcd(
                Poly([image(c) for c in reversed(b)], V, domain=K2)).monic()
            assert [image(c) for c in reversed(got)] == want.rep.to_list()
            common += len(got) > 1
    assert common >= 20


# -- the proven gcd and the irreducibility proof ---------------------------------

def _expand(factors) -> list:
    r = [Fraction(1)]
    for f, k in factors:
        for _ in range(k):
            out = [Fraction(0)] * (len(r) + len(f) - 1)
            for i, a in enumerate(r):
                for j, b in enumerate(f):
                    out[i + j] += a * b
            r = out
    return r


def test_square_free_agrees_with_sympy():
    # products of linear factors, among them pairs equal only modulo P, and
    # irreducible quadratics and cubics, each to the power 1, 2 or 3
    rng = random.Random(20261022)
    decided = {True: 0, False: 0}
    undecided = 0
    for _ in range(400):
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.4:
                a = rng.randint(-5, 5)
                factors.append(([Fraction(-a), Fraction(1)], rng.choice((1, 2))))
                if kind < 0.1:      # its twin modulo P
                    factors.append(([Fraction(-a - P), Fraction(1)], 1))
            else:
                q = _irreducible(rng, 2 if kind < 0.75 else 3)
                factors.append(([Fraction(c) for c in q], rng.choice((1, 2, 3))))
        scale = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 7))
        r = [c * scale for c in _expand(factors)]
        got = modp.square_free(r)
        if got is None:
            undecided += 1
            continue
        decided[got] += 1
        assert got == _sympy(r).is_sqf, factors
    # 360 of the 400 are decided here, 73 square-free and 287 not; 40 are
    # left to sympy
    assert decided[True] >= 60 and decided[False] >= 250
    assert undecided >= 10


def test_square_free_refuses_roots_equal_only_mod_p():
    # (v - 1)(v - 1 - P) is square-free; modulo P it is (v - 1)^2, and the
    # lift v - 1 divides it only once
    r = _expand([([Fraction(-1), Fraction(1)], 1),
                 ([Fraction(-1 - P), Fraction(1)], 1)])
    assert _sympy(r).is_sqf
    assert modp.square_free(r) is None
    f = parse_germ("(y - x)*(y - 2305843009213693952*x)")
    assert newton_lct(f).exact


def test_square_free_refuses_a_root_beyond_reconstruction():
    # the double root c = 10^12 + 39 has no fraction n/d with |n|, d below
    # modp.BOUND that reduces to it modulo P, so nothing is proven
    c = 10 ** 12 + 39
    assert modp._reconstruct(-c % P) is None
    r = _expand([([Fraction(-c), Fraction(1)], 2)])
    assert modp.square_free(r) is None
    assert not _sympy(r).is_sqf


def _factor_list_irreducible(q) -> bool:
    _c, factors = _sympy(q).factor_list()
    return len(factors) == 1 and factors[0][1] == 1


def test_irreducibility_agrees_with_factor_list():
    rng = random.Random(20261023)
    answers = {True: 0, False: 0, None: 0}
    for degree in (2, 3):
        for _ in range(300):
            q = _random_poly(rng, degree)
            if rng.random() < 0.3:      # (b*v - a) * s has a rational root
                s = _random_poly(rng, degree - 1)
                a, b = rng.randint(-4, 4), rng.randint(1, 3)
                q = [b * x - a * y for x, y in zip([0] + s, s + [0])]
            scale = Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 3))
            q = [c * scale for c in q]
            got = modp.irreducible(q)
            answers[got] += 1
            if got is not None:
                assert got == _factor_list_irreducible(q), q
            else:
                # a quadratic is always decided, and no irreducible cubic
                # here is missed
                assert degree == 3 and not _factor_list_irreducible(q), q
    # 364 proven irreducible, 119 quadratics proven reducible, and 117
    # cubics left undecided, every one of them reducible
    assert answers[True] >= 300 and answers[False] >= 100 and answers[None] >= 100
    # a quartic, irreducible over QQ but reducible modulo every prime
    assert modp.irreducible([1, 0, -10, 0, 1]) is None
    assert modp.irreducible([-2, 0, 0, 1]) is True       # 2 is a cube mod P
    assert pow(modp.residue(2), (P - 1) // 3, P) == 1


def _ints(r) -> list[int]:
    assert all(c.denominator == 1 for c in r)
    return [int(c) for c in r]


def test_irreducible_multiple_factor():
    # (v^2 - 2)^3 * (v + 1): the square-free part of the gcd is v^2 - 2
    r = _ints(_expand([([Fraction(-2), 0, Fraction(1)], 3),
                       ([Fraction(1)] * 2, 1)]))
    assert modp.multiple_roots(r) == ([], [[-2, 0, 1]])
    # -7*(2*v^2 - 3)^2: primitive with a positive top coefficient
    r = [-7 * c for c in _ints(_expand([([Fraction(-3), 0, Fraction(2)], 2)]))]
    assert modp.multiple_roots(r) == ([], [[-3, 0, 2]])
    # v^3 * (v^3 - 2)^2: the root 0 beside the factor
    r = _ints(_expand([([0, Fraction(1)], 3),
                       ([Fraction(-2), 0, 0, Fraction(1)], 2)]))
    assert modp.multiple_roots(r) == ([0], [[-2, 0, 0, 1]])
    # a rational double root has no other factor
    r = _ints(_expand([([Fraction(-3), Fraction(1)], 2)]))
    assert modp.multiple_roots(r) == ([3], [])
    # two irreducible factors, a reducible cubic
    for factors in ([([Fraction(-2), 0, Fraction(1)], 2),
                     ([Fraction(-3), 0, Fraction(1)], 2)],
                    [([Fraction(-2), 0, Fraction(1)], 2),
                     ([Fraction(-3), Fraction(1)], 2)]):
        assert modp.multiple_roots(_ints(_expand(factors))) is None


# -- modp's decisions against sympy's factor_list ---------------------------------

# (p, k, substituted) of (y^p - d*x^p)^k - x^(p*k + 1), as the corpus draws them
CONJUGATE_FAMILIES = [(2, 1, False), (2, 1, True), (3, 1, False), (3, 1, True),
                      (2, 2, False), (3, 2, False), (2, 2, True), (3, 2, True),
                      (2, 3, False), (2, 3, True)]

MATRICES = [(1, 1, 1, 2), (2, 1, 1, 1), (1, -1, 1, 0), (1, 2, -1, -1)]


def _report(f):
    """Everything an output may read of the germ's resolution: the nodes with
    their printed sites, the components with their labels, and the three
    threshold strings."""
    res = resolve_germ(f)
    return ([(n.index, n.a, n.b, [p.index for p in n.parents], n.site)
             for n in res.nodes],
            [(c.coeffs, c.multiplicity, c.mult_at_origin, c.label)
             for c in res.components],
            str(resolution_lct(res)), str(check_mult_bounds(f)),
            str(newton_lct(f)))


def _trace(m):
    """Record, through the monkeypatch context m, every _Engine built, the
    type of K at every blow-up, in order, and the degree of K at every line
    that sympy's factor_list decides."""
    engines, fields, lines = [], [], []
    init, blow_up = resolution._Engine.__init__, resolution._Engine.blow_up
    factor_gcd = resolution._factor_gcd

    def built(self, limit):
        engines.append(self)
        init(self, limit)

    def typed(self, comps, K, *args):
        fields.append(type(K))
        return blow_up(self, comps, K, *args)

    def factored(r, K):
        lines.append(1 if K.is_QQ else K.n)
        return factor_gcd(r, K)

    m.setattr(resolution._Engine, "__init__", built)
    m.setattr(resolution._Engine, "blow_up", typed)
    m.setattr(resolution, "_factor_gcd", factored)
    return engines, fields, lines


def _both_ways(monkeypatch, f):
    """_report(f) as the engine resolves it, and with modp's multiple roots
    declined, so that sympy's factor_list decides every line over QQ and its
    factors give the own fields; each with the number of engines built, the
    type of K at every blow-up and the lines sympy decided (see _trace)."""
    out = []
    for sympy_only in (False, True):
        with monkeypatch.context() as m:
            engines, fields, lines = _trace(m)
            m.setattr(resolution, "_resolved", weakref.WeakKeyDictionary())
            if sympy_only:
                m.setattr(modp, "multiple_roots", lambda r: None)
            out.append((_report(f), len(engines), fields, lines))
    return out


@pytest.mark.parametrize("p, k, substituted", CONJUGATE_FAMILIES,
                         ids=lambda v: str(v))
def test_own_fields_agree_with_the_rerun(monkeypatch, p, k, substituted):
    for seed in range(4):
        rng = random.Random(seed)
        d = rng.choice((2, 3, 5, 6, 7) if p == 2 else (2, 3, 4, 5))
        f = parse_germ(f"(y^{p} - {d}*x^{p})^{k} - x^{p * k + 1}")
        if substituted:
            f = f.compose_linear(*rng.choice(MATRICES))
        (own, own_engines, own_fields, own_lines), \
            (sympy_only, engines, fields, lines) = _both_ways(monkeypatch, f)
        assert own == sympy_only, str(f)
        assert own_engines == engines == 1, str(f)
        # both runs blow up over the same fields: k = 1 has no irrational
        # centre, k >= 2 a quadratic or cubic one, an own field either way
        assert own_fields == fields, str(f)
        assert (NumberField in own_fields) == (k > 1), str(f)
        assert ("chart A at root of" in str(own[0])) == (k > 1)
        # modp decides every line over QQ, Euclid every one over the own
        # field; the rerun leaves each line over QQ to sympy
        assert own_lines == [] and lines and set(lines) == {1}, str(f)


# a tangent at y = theta along the second line, over QQ(theta) for
# theta^2 = 2 and theta^3 = 2: a nonzero root over the own field
@pytest.mark.parametrize("text", ["(y^2 - 2*x^2 - 4*x^3)^2 - x^7",
                                  "(y^3 - 2*x^3 - 6*x^4)^2 - x^9"])
@pytest.mark.parametrize("matrix", [(1, 0, 0, 1), (1, 1, 1, 2)])
def test_own_field_roots_agree_with_the_rerun(monkeypatch, text, matrix):
    f = parse_germ(text).compose_linear(*matrix)
    (own, own_engines, own_fields, own_lines), \
        (sympy_only, engines, fields, lines) = _both_ways(monkeypatch, f)
    assert own == sympy_only
    assert (own_engines, engines) == (1, 1)
    assert NumberField in own_fields and own_fields == fields
    assert own_lines == [] and set(lines) == {1}
    if matrix == (1, 0, 0, 1):
        assert "chart A at y=CRootOf(" in str(own[0])


# two components, both smooth through a root of v^p - 2 on the first line
# together with that line: the restrictions of both are multiplied over the
# own field, and the product's sums start from a Number, never from an int
@pytest.mark.parametrize("text", ["(y^2 - 2*x^2)^3*(y^2 - 2*x^2 - x^3)",
                                  "(y^3 - 2*x^3)^2*(y^3 - 2*x^3 - x^4)^2"])
@pytest.mark.parametrize("matrix", [(1, 0, 0, 1), (1, 1, 1, 2)])
def test_components_meeting_at_an_own_field_site_agree_with_sympy(
        monkeypatch, text, matrix):
    f = parse_germ(text).compose_linear(*matrix)
    (own, _, own_fields, own_lines), (sympy_only, _, fields, lines) = \
        _both_ways(monkeypatch, f)
    assert own == sympy_only
    assert own_fields == fields == [type(resolution._RATIONALS), NumberField]
    assert own_lines == [] and lines == [1]
    assert len(own[1]) == 2 and "chart A at root of" in str(own[0])


def test_a_tower_is_flattened_into_an_own_field(monkeypatch):
    # the three-level tower over QQ(sqrt2): its second centre, a root of
    # v^2 - 3/8 over QQ(sqrt2), is found by sympy's factor_list in its copy
    # of the own field, within the one engine run; the tower is flattened
    # into an own field of degree 4, over which Euclid decides every later
    # line
    f = parse_germ("(((y^2 - 2*x^2)^2 - 3*x^6)^2 - 5*x^13)^2 - x^27")
    (own, engines, fields, lines), (sympy_only, *_, rerun_lines) = \
        _both_ways(monkeypatch, f)
    assert engines == 1
    assert fields == [type(resolution._RATIONALS)] + [NumberField] * 4
    assert lines == [2] and rerun_lines == [1, 2]
    assert own == sympy_only
    assert "root of v**2 - 2 / chart A at root of v**2 - 3/8" in str(own[0])
    # the site at y = 5/96 is printed in the sympy copy that the flattened
    # field registered
    assert "chart B origin / chart A at y=5/96" in str(own[0])


def test_every_corpus_site_is_over_qq_or_an_own_field(monkeypatch):
    # no site holds sympy's AlgebraicField: the towers, and the lines that
    # sympy's factor_list decides, stay on numfield
    fields = []
    process = resolution._Engine.process

    def recorded(self, comps, K, *args):
        fields.append(K)
        return process(self, comps, K, *args)

    monkeypatch.setattr(resolution, "_resolved", weakref.WeakKeyDictionary())
    monkeypatch.setattr(resolution._Engine, "process", recorded)
    factor_gcd, factored = resolution._factor_gcd, []
    monkeypatch.setattr(resolution, "_factor_gcd",
                        lambda r, K: factored.append(K) or factor_gcd(r, K))
    for f in resolution_corpus.corpus():
        resolve_germ(f)
    assert all(K is resolution._RATIONALS or type(K) is NumberField
               for K in fields)
    # the corpus reaches fields of degree 2, 3 and 4, and sympy decides
    # lines over QQ and over an own field
    assert {K.n for K in fields if type(K) is NumberField} >= {2, 3, 4}
    assert any(K.is_QQ for K in factored) and not all(K.is_QQ for K in factored)


def test_an_exhausted_budget_in_an_own_field_is_not_rerun(monkeypatch):
    monkeypatch.setattr(resolution, "_resolved", weakref.WeakKeyDictionary())
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", "1")
    engines, fields, _lines = _trace(monkeypatch)
    with pytest.raises(DepthExceededError, match="budget of 1"):
        resolve_germ(parse_germ("(y^2 - 2*x^2)^2 - x^5"))
    # the second blow-up, at a root of v^2 - 2, exhausted it, in the one
    # engine run
    assert fields == [type(resolution._RATIONALS), NumberField]
    assert len(engines) == 1
