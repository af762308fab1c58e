"""Resolution engine: the components carried from site to site, pinned node
chains, one resolve per caller and one per live germ, the substituted
conjugate-tangent families, the Taylor shift against poly.substitute, the
square-free split of the germ against full factorization, and its parts and
factors modulo P against sympy's sqf_list and factor_list."""

import dataclasses
import gc
import math
import random
import time
import weakref
from fractions import Fraction

import pytest
import sympy
from sympy import QQ, Poly

from cli_runner import run
from delpezzo import lct as lct_module
from delpezzo import modp, poly, resolution
from delpezzo.germs import CurveGerm, parse_germ
from delpezzo.lct import (blowup_lct, check_mult_bounds, newton_lct,
                          newton_polygon, resolution_lct)
from delpezzo.numfield import NumberField
from delpezzo.resolution import (BlowupBudgetSettingError, DepthExceededError,
                                 resolve_germ)
from germgen import random_germ
from poly_oracle import qq_poly

_X, _Y = sympy.symbols("x y")

FIELD_EXTENSION_GERM = "(y^2 - 2*x^2)^2 - x^7"
# (y^3 - 2*x^3)^2 - x^7 after (x, y) -> (x + y, x + 2*y)
CONJUGATE_CUBE = parse_germ("(y^3 - 2*x^3)^2 - x^7").compose_linear(1, 1, 1, 2)


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for resolve_germ, so that no live germ of another test
    (such as CONJUGATE_CUBE) answers for an equal germ of this one."""
    fresh = weakref.WeakKeyDictionary()
    monkeypatch.setattr(resolution, "_resolved", fresh)
    return fresh


def test_carried_components_are_square_free_and_coprime(monkeypatch, memo):
    # sympy sqf_part and gcd over the site's field K are the oracle: every
    # site's components are square-free and pairwise coprime, every one the
    # engine blows up on passes through the point, and a site over QQ holds
    # primitive integer polynomials.  Every other site is over the engine's
    # own number field, and is read in sympy's copy of that field
    sites, blown, own = [], [], []
    process, blow_up = resolution._Engine.process, resolution._Engine.blow_up

    def checked_process(self, comps, K, xa, ya, where):
        site = resolution._site(where)
        if K is resolution._RATIONALS:
            for p, _i in comps:
                assert all(type(c) is int for c in p.values()), site
                assert math.gcd(*p.values()) == 1, site
            # a copy: from_dict converts the values of the dict it is given
            polys = [Poly.from_dict(dict(p), _X, _Y, domain=QQ)
                     for p, _i in comps]
        else:
            assert type(K) is NumberField, site
            own.append(K.n)
            domain, into, _back = resolution._sympy_copy(K)
            polys = [Poly.from_dict({e: into(c) for e, c in p.items()},
                                    _X, _Y, domain=domain) for p, _i in comps]
            if K.n > 3:
                _check_specialised(polys, site)
                polys = []
        for k, p in enumerate(polys):
            assert p.sqf_part().monic() == p.monic(), site
            assert all(p.gcd(q).is_ground for q in polys[k + 1:]), site
        sites.append(site)
        return process(self, comps, K, xa, ya, where)

    def checked_blow_up(self, comps, K, xa, ya, where):
        assert comps and all((0, 0) not in p for p, _i in comps), where
        blown.append(where)
        return blow_up(self, comps, K, xa, ya, where)

    monkeypatch.setattr(resolution._Engine, "process", checked_process)
    monkeypatch.setattr(resolution._Engine, "blow_up", checked_blow_up)
    rng = random.Random(20260825)
    germs = [random_germ(rng) for _ in range(200)]
    germs.append(parse_germ(FIELD_EXTENSION_GERM))
    germs.append(parse_germ("(y - x)^2 - x^3"))   # tangent at y = 1 in chart A
    # squares, whose components carry multiplicity 2
    germs += [f ** 2 for f in germs[-40:]]
    # translated by y = 3/2 in chart A: 4 * ((2*y)^2 - x) has content 4
    germs.append(parse_germ("(2*y - 3*x)^2 - x^3"))
    # two towers of the resolution corpus, whose sites over the flattened
    # fields (degree 4) are read in the sympy copies those fields
    # registered; its three-level tower and its substituted tower are left
    # out, as sympy's univariate gcds take some 50 s on each
    germs += [parse_germ(NESTED_GERM), parse_germ(NESTED_CUSP)]
    results = {f: resolve_germ(f) for f in germs}   # equal germs resolve once
    # the hooks saw every distinct germ's root site and every blow-up
    assert sites.count("origin") == len(results)
    assert len(blown) == sum(res.blowups for res in results.values())
    assert len(sites) > len(germs)
    assert any("at root of" in where for where in sites)
    assert set(own) == {2, 4}


def _check_specialised(polys, site):
    """The components' square-free and coprime test by specialisation, for
    fields where sympy's bivariate sqf_part takes a minute or more a site.  A
    repeated or common factor has positive degree in x or y, say y; at
    x = 7/3 it keeps that degree once each component keeps its degree in y,
    and it divides the specialised components, which sympy's univariate
    gcds then show."""
    for gen, other, value in ((_Y, _X, QQ(7, 3)), (_X, _Y, QQ(-5, 4))):
        specialised = []
        for p in polys:
            if p.degree(gen) > 0:
                s = p.eval(other, value)
                assert s.degree() == p.degree(gen) and s.is_sqf, site
                specialised.append(s)
        for k, s in enumerate(specialised):
            assert all(s.gcd(t).is_ground for t in specialised[k + 1:]), site


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
    # x^8*F(x, y/x), F = h(x, v - sqrt2)*h(x, v + sqrt2), h = (w^2 - 3x^2)^2 - x^5:
    # the second blow-up adjoins sqrt3 over QQ(sqrt2), a tower over K != QQ
    (parse_germ(
        "16*x^8 - 32*x^6*y^2 + 24*x^4*y^4 - 8*x^2*y^6 + y^8 - 96*x^10"
        " + 48*x^8*y^2 + 24*x^6*y^4 - 12*x^4*y^6 + 216*x^12 + 72*x^10*y^2"
        " + 54*x^8*y^4 - 8*x^13 - 24*x^11*y^2 - 2*x^9*y^4 - 216*x^14"
        " - 108*x^12*y^2 + 24*x^15 + 12*x^13*y^2 + 81*x^16 - 18*x^17 + x^18"), [
        (1, 8, (), "origin"),
        (2, 12, (1,), "origin / chart A at root of v**2 - 2"),
        (3, 13, (2,),
         "origin / chart A at root of v**2 - 2 / chart A at root of v**2 - 3"),
        (6, 26, (2, 3),
         "origin / chart A at root of v**2 - 2 / chart A at root of v**2 - 3"
         " / chart B origin"),
    ]),
]


# Two irrational centers in a row, so the second field is a tower
# QQ(sqrt2)(w) that resolve_germ flattens.  By hand, for
# f = h^2 - x^13 with h = (y^2 - 2x^2)^2 - 3x^6 (no computer algebra):
# - mult_0 f = 8 (h has order 4): E1 has a = 1, b = 8.
# - Chart A, y -> x*y, divides f by x^8: f1 = ((y^2 - 2)^2 - 3x^2)^2 - x^5,
#   which meets E1 = {x = 0} in (y^2 - 2)^4, at the conjugate points
#   y = +-sqrt2.  At y = sqrt2 + u, (y^2 - 2)^2 = 8u^2 * unit, so f1 has
#   order 4 there and E1 passes through: E2 has a = 1 + 1 = 2, b = 4 + 8 = 12.
# - Chart A again, u -> x*u, divides f1 by x^4: f2 = (8u^2*unit - 3)^2 - x,
#   which meets E2 = {x = 0} at the roots of 8u^2 - 3 over QQ(sqrt2).  There
#   f2 is smooth and tangent to E2 (and E1 is not in this chart), so the two
#   smooth branches share a tangent: E3 has a = 1 + 2 = 3, b = 1 + 12 = 13.
# - After that blow-up, chart A misses the strict transform; chart B's origin
#   holds it, E3 and E2, three smooth branches: E4 has a = 1 + 2 + 3 = 6,
#   b = 1 + 12 + 13 = 26, and the divisor is then normal crossings.
# - lct = min(1, (1+1)/8, (2+1)/12, (3+1)/13, (6+1)/26) = 1/4.
NESTED_GERM = "((y^2 - 2*x^2)^2 - 3*x^6)^2 - x^13"
NESTED_SITES = ["origin", "origin / chart A at root of v**2 - 2",
                "origin / chart A at root of v**2 - 2"
                " / chart A at root of v**2 - 3/8"]
# + x^15 leaves f2 = (8u^2*unit - 3)^2 + x^3, a cusp (order 2) at those
# roots: E3 = (3, 2 + 12), then a site at a nonzero point of the
# flattened field, E4 = (1 + 3, 1 + 14), and E5 = (1 + 3 + 4, 1 + 14 + 15)
NESTED_CUSP = "((y^2 - 2*x^2)^2 - 3*x^6)^2 + x^15"

GOLDEN_CHAINS.append((parse_germ(NESTED_GERM), [
    (1, 8, (), NESTED_SITES[0]),
    (2, 12, (1,), NESTED_SITES[1]),
    (3, 13, (2,), NESTED_SITES[2]),
    (6, 26, (2, 3), NESTED_SITES[2] + " / chart B origin"),
]))


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

    def counting(f):
        calls.append(f)
        return resolve_germ(f)

    for module in modules:
        monkeypatch.setattr(module, "resolve_germ", counting)
    return calls


# -- one resolution per live germ ---------------------------------------------

def test_blowup_lct_then_check_mult_bounds_runs_the_engine_once(monkeypatch,
                                                                memo):
    blown = []
    blow_up = resolution._Engine.blow_up

    def counting(self, *args):
        blown.append(args[-1])
        return blow_up(self, *args)

    monkeypatch.setattr(resolution._Engine, "blow_up", counting)
    f = parse_germ(FIELD_EXTENSION_GERM)
    blowup_lct(f)
    check_mult_bounds(f)
    both = len(blown)
    memo.clear()
    resolve_germ(f)
    assert both == len(blown) - both == 4


def test_equal_germs_share_one_resolution(memo):
    f = parse_germ("y^2 - x^3")
    g = CurveGerm.from_dict({(3, 0): -1, (0, 2): 1})
    assert f is not g and f == g
    assert resolve_germ(g) is resolve_germ(f)
    assert len(memo) == 1


def test_a_kept_resolution_keeps_the_budget(monkeypatch, memo):
    f = parse_germ("y^2 - x^3")
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", "2")
    with pytest.raises(DepthExceededError) as uncached:
        resolve_germ(f)
    assert len(memo) == 0   # a run that raises keeps nothing
    monkeypatch.delenv("DELPEZZO_MAX_BLOWUPS")
    res = resolve_germ(f)
    assert res.blowups == 3 and len(memo) == 1
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", "2")
    with pytest.raises(DepthExceededError) as cached:
        resolve_germ(f)
    assert str(cached.value) == str(uncached.value)
    assert cached.value.limit == 2
    with pytest.raises(DepthExceededError) as from_lct:
        blowup_lct(f)
    assert str(from_lct.value) == str(uncached.value)
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", "3")
    assert resolve_germ(f) is res


def test_an_equal_germ_reads_the_budget_of_the_kept_resolution(monkeypatch, memo):
    f = parse_germ("y^2 - x^3")
    assert resolve_germ(f).blowups == 3
    g = CurveGerm.from_dict({(3, 0): -1, (0, 2): 1})
    assert g is not f and g == f
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", "2")
    with pytest.raises(DepthExceededError) as exc:
        resolve_germ(g)
    assert exc.value.limit == 2
    assert len(memo) == 1   # f is alive, and the memo still holds its run


@pytest.mark.parametrize("budget", ["-1", "2.0", "many"])
def test_a_bad_budget_is_refused_on_a_kept_germ(monkeypatch, memo, budget):
    f = parse_germ("y^2 - x^3")
    resolve_germ(f)
    monkeypatch.setenv("DELPEZZO_MAX_BLOWUPS", budget)
    message = "DELPEZZO_MAX_BLOWUPS must be"
    with pytest.raises(BlowupBudgetSettingError, match=message):
        resolve_germ(f)
    with pytest.raises(BlowupBudgetSettingError, match=message):
        check_mult_bounds(f)


def test_a_collected_germ_leaves_the_memo():
    # the module's own memo; no other test holds a germ equal to this one
    text = "(y^2 - x^3)*(y - x)*(y + 7*x)"
    f = parse_germ(text)
    resolve_germ(f)
    assert parse_germ(text) in resolution._resolved
    del f
    gc.collect()
    assert parse_germ(text) not in resolution._resolved


def test_kept_nodes_are_frozen():
    node = resolve_germ(parse_germ("y^2 - x^3")).nodes[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.a = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.site = "elsewhere"


def test_check_mult_bounds_resolves_once(monkeypatch):
    # check_mult_bounds reads resolve_germ from `resolution` when it runs
    calls = _count_resolves(monkeypatch, resolution)
    verdict = check_mult_bounds(parse_germ("(y - x^2)^3"))
    assert verdict.value == Fraction(1, 3) and verdict.equality_case.verified
    assert len(calls) == 1


def test_cli_lct_resolves_once(monkeypatch):
    # `lct` reads resolve_germ from `resolution` when it runs
    calls = _count_resolves(monkeypatch, resolution)
    result = run(["lct", "y^2 - x^3"])
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


def test_nested_cusp_has_sites_over_the_flattened_field():
    res = resolve_germ(parse_germ(NESTED_CUSP))
    assert [(a, b, parents) for a, b, parents, _ in _chain(res)] == [
        (1, 8, ()), (2, 12, (1,)), (3, 14, (2,)), (4, 15, (3,)),
        (8, 30, (3, 4))]
    assert resolution_lct(res).value == Fraction(1, 4)
    assert [n.site for n in res.nodes[:3]] == NESTED_SITES
    assert res.nodes[3].site.startswith(NESTED_SITES[2] + " / chart A at y=")


@pytest.mark.parametrize("text", [NESTED_GERM, NESTED_CUSP])
@pytest.mark.parametrize("matrix", [(1, 1, 1, 2), (2, 1, 1, 1), (1, -1, 1, 0)])
def test_nested_germs_are_coordinate_invariant(text, matrix):
    f = parse_germ(text)
    res = [resolve_germ(h) for h in (f, f.compose_linear(*matrix))]
    assert sorted((n.a, n.b) for n in res[0].nodes) \
        == sorted((n.a, n.b) for n in res[1].nodes)
    assert resolution_lct(res[0]).value == resolution_lct(res[1]).value \
        == Fraction(1, 4)


def _primitive_multiple(g: dict, scale) -> dict:
    """scale * g, a polynomial with integer values, over its content."""
    g = {e: scale * c for e, c in g.items()}
    assert all(c.denominator == 1 for c in g.values())
    content = math.gcd(*(int(c) for c in g.values()))
    return {e: int(c) // content for e, c in g.items()}


@pytest.mark.parametrize("field", [
    resolution._RATIONALS, QQ.algebraic_field(sympy.sqrt(2)),
    QQ.algebraic_field(sympy.root(3, 3) + sympy.sqrt(2))])
def test_translate_y_agrees_with_substitute(field):
    # poly.substitute expands (y + v0)^j by repeated products: the oracle.
    # Over QQ an integer g is shifted by v0 = n/d, and the result is the
    # primitive form of d^D * g(x, y + v0), D the top y-degree
    rng = random.Random(20261018)
    rational = field is resolution._RATIONALS
    for _ in range(60):
        def element():
            if rational:
                return rng.randint(-60, 60)
            value = field.zero
            for _ in range(3):
                value = value * field.unit + field.convert(rng.randint(-4, 4))
            return value
        g = {(rng.randint(0, 4), rng.randint(0, 7)): element()
             for _ in range(rng.randint(1, 9))}
        g = {e: c for e, c in g.items() if c} or {(1, 1): field.one}
        shift = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rational \
            else element()
        for v0 in (shift, field.zero):
            want = poly.substitute(
                g, [{(1, 0): field.one}, {(0, 1): field.one, (0, 0): v0}])
            got = resolution._translate_y(g, field, v0)
            if rational:
                top = max(j for _i, j in g)
                want = _primitive_multiple(want, Fraction(v0).denominator ** top)
                assert all(type(c) is int for c in got.values())
            assert got == want


@pytest.mark.parametrize("q, shift", [
    ("v**2 - 3/8", 1),                          # norm (v^2 - 3/8)^2 at s = 0
    ("v**2 - 3/8 - sqrt(2)/8", 0),
])
def test_extend_field_flattens_a_tower(q, shift):
    # over the own field K = QQ(alpha), alpha^2 = 2, with sqrt(2) read as
    # alpha: q's coefficients are Numbers of K
    from sympy.polys.sqfreetools import dup_sqf_norm
    v, a = sympy.symbols("v a")
    K = NumberField([-2, 0, 1])
    rows = Poly(sympy.sympify(q).subs(sympy.sqrt(2), a), v, a, domain=QQ)
    q = [K.zero] * 3
    for (i, j), c in rows.as_dict().items():
        q[i] = q[i] + (K.unit if j else K.one) * Fraction(c.p, c.q)
    domain, into, back = resolution._sympy_copy(K)
    assert dup_sqf_norm([into(c) for c in reversed(q)], domain)[0] == shift
    K2, phi, gamma = resolution._extend_field(K, q)
    assert type(K2) is NumberField and K2.n == 4
    # phi sends alpha to a root of its minimal polynomial, keeps sums and
    # products, and gamma is a root of phi(q)
    alpha = phi(K.unit)
    assert alpha * alpha == K2.convert(2)
    b = K.convert(Fraction(-3, 5)) + K.unit * 7
    assert phi(b * q[0]) == phi(b) * phi(q[0])
    assert phi(b + q[0]) == phi(b) + phi(q[0])
    value = K2.zero
    for c in reversed(q):
        value = value * gamma + phi(c)
    assert value == K2.zero
    # K2 registered sympy's copy of it, built from the norm in z, whose
    # unit is K2's generator
    domain2, into2, back2 = resolution._sympy_copy(K2)
    text = str(domain2.to_sympy(into2(K2.unit)))
    assert text.startswith("CRootOf(") and "z**4" in text
    assert back2(into2(gamma)) == gamma


def test_site_text_does_not_depend_on_roots_built_before(memo):
    # sympy caches a CRootOf by a polynomial that forgets its variable.  With
    # that cache emptied and the root of the tower's norm built in v first,
    # the tower's site over its flattened field still prints in z
    from sympy.core.cache import clear_cache
    clear_cache()
    v = sympy.Symbol("v")
    sympy.CRootOf(64 * v**4 - 304 * v**2 + 169, 0)
    site = resolve_germ(parse_germ(NESTED_CUSP)).nodes[3].site
    assert "CRootOf(64*z**4 - 304*z**2 + 169, 0)" in site
    assert "v**4" not in site


def _irreducible_corpus():
    """Polynomials in v irreducible over QQ: 200 seeded ones of degree 2 to
    4 with rational coefficients (denominators, non-unit and negative
    leading coefficients), then the norms of the two flattened towers
    above, in z as the engine reads them."""
    from sympy.polys.sqfreetools import dup_sqf_norm
    v = sympy.Symbol("v")
    rng = random.Random(20261018)
    corpus = []
    while len(corpus) < 200:
        coeffs = [QQ(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(rng.randint(2, 4) + 1)]
        if coeffs[0] and coeffs[-1]:
            q = Poly(coeffs, v, domain=QQ)
            if q.is_irreducible:
                corpus.append(q)
    K = QQ.algebraic_field(sympy.sqrt(2))
    for text in ("v**2 - 3/8", "v**2 - 3/8 - sqrt(2)/8"):
        q = Poly(sympy.sympify(text), v, domain=K)
        r = dup_sqf_norm(q.rep.to_list(), K)[2]
        corpus.append(Poly(r, sympy.Symbol("z"), domain=QQ))
    return corpus


def test_extend_field_over_qq_is_sympys_own_field():
    # the oracle: sympy builds the field from the root, searching for its
    # minimal polynomial, and expresses the root in it.  The own field built
    # from q's primitive integer form has sympy's copy, built in q's
    # variable, equal to that field, and the maps into it and back send the
    # generator to the root
    corpus = _irreducible_corpus()
    assert any(q.LC() < 0 for q in corpus)
    assert any(q.LC().denominator > 1 for q in corpus)
    assert {q.degree() for q in corpus} == {2, 3, 4}
    for q in corpus:
        ints = resolution._primitive_ints(q)
        assert math.gcd(*ints) == 1 and ints[-1] > 0, q
        assert Poly(ints[::-1], q.gen, domain=QQ).monic() == q.monic(), q
        root = sympy.CRootOf(q.as_expr(), 0)
        K = QQ.algebraic_field(root)
        K2, phi, gamma = resolution._extend_field(resolution._RATIONALS, ints)
        assert type(K2) is NumberField and K2.q == tuple(ints), q
        domain, into, back = resolution._sympy_copy(K2, q.gen.name)
        assert domain == K, q
        assert domain.mod == K.mod, q
        assert into(gamma) == K.from_sympy(root), q
        assert into(phi(Fraction(3, 4))) == K.convert(QQ(3, 4))
        assert back(into(gamma * gamma + phi(Fraction(3, 4)))) \
            == gamma * gamma + phi(Fraction(3, 4))


def test_resolution_runs_no_minimal_polynomial_search(monkeypatch, memo):
    # every field is built from the polynomial the engine holds: sympy's
    # primitive_element and minimal_polynomial are never called
    import importlib
    calls = []
    for name in ("subfield", "minpoly"):
        module = importlib.import_module("sympy.polys.numberfields." + name)
        for attr in ("primitive_element", "minimal_polynomial"):
            if hasattr(module, attr):
                def counted(*args, _f=getattr(module, attr), _a=attr, **kw):
                    calls.append(_a)
                    return _f(*args, **kw)
                monkeypatch.setattr(module, attr, counted)
    for text in ("(y^2 - 2*x^2)^2 - x^5", "(y^3 - 2*x^3)^2 - x^7",
                 NESTED_CUSP):
        res = resolve_germ(parse_germ(text))
        assert any("chart A at root of" in n.site for n in res.nodes), text
    assert calls == []


# -- the square-free split against full factorization ------------------------

def _full_components(f):
    """The oracle: every irreducible QQ factor of f, in factor_list order, as
    a primitive integer polynomial."""
    _c, factors = qq_poly(f.terms()).factor_list()
    out = []
    for q, mult in factors:
        primitive = q.clear_denoms(convert=True)[1].primitive()[1]
        terms = {e: int(c) for e, c in primitive.rep.to_dict().items()}
        order = 0 if (0, 0) in terms else min(i + j for i, j in terms)
        out.append(resolution.Component(tuple(terms.items()), mult, order))
    return tuple(out)


def _bivariate_face_is_square_free(f, face):
    w1, w2 = face.normal
    terms = {(i, j): c for (i, j), c in f.coeffs
             if w1 * i + w2 * j == face.level}
    i0 = min(i for i, _ in terms)
    j0 = min(j for _, j in terms)
    bivariate = qq_poly(
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
        out *= qq_poly(dict(comp.coeffs)) ** \
            (comp.multiplicity if weighted else 1)
    return out.monic()


def test_square_free_split_matches_full_factorization(monkeypatch):
    # the oracle seeds the engine with every irreducible factor of f
    faces = {True: 0, False: 0}
    for f in _split_corpus():
        res = resolve_germ(f)
        got = (_chain(res), res.blowups, str(resolution_lct(res)),
               check_mult_bounds(f))
        oracle_calls = []
        with monkeypatch.context() as m:
            # an empty memo, or f's kept resolution would answer for the oracle
            m.setattr(resolution, "_resolved", weakref.WeakKeyDictionary())
            m.setattr(resolution, "_components_of",
                      lambda g: oracle_calls.append(g) or _full_components(g))
            oracle = resolve_germ(f)
            want = (_chain(oracle), oracle.blowups,
                    str(resolution_lct(oracle)), check_mult_bounds(f))
        assert oracle_calls == [f]
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
    # the square part is factored, the smooth part (x + y) is not
    ("(y^2 - x^3)^2*(x + y)", 1),
])
def test_only_parts_an_output_reads_are_factored(monkeypatch, memo, text,
                                                 factorizations):
    f = parse_germ(text)
    # a reduced germ is certified square-free modulo a prime, so sympy's
    # bivariate square-free split runs only on a germ that is not reduced
    decompositions = 0 if qq_poly(f.terms()).is_sqf else 1
    factored = []
    monkeypatch.setattr(resolution, "_factors",
                        lambda t, split=resolution._factors:
                        factored.append(t) or split(t))
    factor_calls = _count_bivariate(monkeypatch, "factor_list")
    sqf_calls = _count_bivariate(monkeypatch, "sqf_list")
    resolve_germ(f)
    # modp proves each factored part's rest irreducible, so sympy's
    # factor_list does not run
    assert (len(factored), len(factor_calls), len(sqf_calls)) == \
        (factorizations, 0, decompositions)
    newton_lct(f)
    assert len(sqf_calls) == decompositions   # the face test is univariate



# -- square-free parts and factors modulo P, against sympy ----------------------

def _integer_terms(f):
    terms = f.terms()
    scale = math.lcm(*(c.denominator for c in terms.values()))
    return {e: int(c * scale) for e, c in terms.items()}


def _zz(terms):
    return Poly.from_dict(terms, _X, _Y, domain=sympy.ZZ)


def _items(p):
    return list((e, int(c)) for e, c in p.rep.to_dict().items())


@pytest.fixture
def fallbacks(monkeypatch):
    """The polynomials that resolution hands to sympy's bivariate algebra."""
    calls = []
    monkeypatch.setattr(resolution, "_zz_poly",
                        lambda terms, make=resolution._zz_poly:
                        calls.append(terms) or make(terms))
    return calls


def _against_sympy(ints, fallbacks):
    """Check the parts of ints and the factors of each part against sympy's
    sqf_list and factor_list: contents, order and signs.  Returns whether
    the parts came without sympy, and how many parts were factored without
    it."""
    before = len(fallbacks)
    parts = resolution._square_free_parts(ints)
    assert [(list(t.items()), i) for t, i in parts] == \
        [(_items(t), i) for t, i in _zz(ints).sqf_list()[1]], ints
    parts_proven = len(fallbacks) == before
    factored = 0
    for t, _i in parts:
        before = len(fallbacks)
        assert [list(q.items()) for q in resolution._factors(t)] == \
            [_items(q) for q, _m in _zz(t).factor_list()[1]], t
        factored += len(fallbacks) == before
    return parts_proven, factored


def test_parts_and_factors_of_the_corpus_match_sympy(fallbacks):
    from resolution_corpus import corpus
    rng = random.Random(20261020)
    drawn = [random_germ(rng) for _ in range(60)]
    germs = corpus() + [f ** 2 for f in drawn] + [f ** 3 for f in drawn[:20]]
    proven = [_against_sympy(_integer_terms(f), fallbacks) for f in germs]
    assert len(proven) == 848
    # 700 germs have their parts without sympy: each reduced germ, and each
    # axis monomial times a certified rest; the squares and cubes, and the
    # other germs that are not reduced, need sqf_list.  984 of the 1,010
    # parts are factored without sympy
    assert sum(p for p, _n in proven) == 700
    assert sum(n for _p, n in proven) == 984


@pytest.mark.parametrize("text", [
    "x*y", "x*y + y^3", "x^2*y + x*y^2", "y^2 - x^3"])
def test_axis_exponents_at_most_one_match_sympy(fallbacks, text):
    # x^a * y^b * h with a, b <= 1 and h certified: the germ is its own one
    # part, and each factor comes without sympy
    assert _against_sympy(_integer_terms(parse_germ(text)), fallbacks) \
        == (True, 1)


def _with_constant(rng):
    """A polynomial in x, y with a nonzero constant term and 2 to 5 terms."""
    terms = {(0, 0): rng.choice((-3, -2, -1, 1, 2, 3))}
    while len(terms) < rng.randint(2, 5):
        terms[rng.randint(0, 3), rng.randint(0, 3)] = rng.choice((-2, -1, 1, 2))
    return terms


def test_axis_monomials_times_a_rest_match_sympy(fallbacks):
    # f = x^a * y^b * h; h = h1 * h2 for a third of them, each factor with a
    # constant term, so h is reducible and prime to the axes: its part must
    # be factored by sympy
    rng = random.Random(37)
    counts = {"proven": 0, "factored": 0, "reducible": 0}
    for _ in range(500):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        h = _with_constant(rng)
        reducible = rng.random() < 1 / 3
        if reducible:
            h = poly.mul(h, _with_constant(rng))
        if a + b == 0 or len(h) < 2:
            a += 1
        ints = {(i + a, j + b): c for (i, j), c in h.items() if c}
        proven, factored = _against_sympy(ints, fallbacks)
        counts["proven"] += proven
        counts["factored"] += factored
        if reducible and proven:
            rest = resolution._axes(ints)[2]
            assert modp.irreducible_xy(rest) is None, ints
            before = len(fallbacks)
            resolution._factors(resolution._square_free_parts(ints)[0][0])
            assert len(fallbacks) == before + 1
            counts["reducible"] += 1
    # every rest here is certified square-free, so all 500 have their parts
    # without sympy, and each of the 158 reducible rests goes to sympy's
    # factor_list
    assert counts == {"proven": 500, "factored": 864, "reducible": 158}
