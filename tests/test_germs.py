"""Exact plane curve germs: parsing, arithmetic, invariants."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, strategies as st
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from delpezzo.germs import (MAX_GERM_DEGREE, CurveGerm, GermParseError,
                            InvalidGermError, parse_germ)
from delpezzo.resolution import qq_poly

exponents = st.tuples(st.integers(min_value=0, max_value=6),
                      st.integers(min_value=0, max_value=6)).filter(
                          lambda e: e != (0, 0))
rationals = st.fractions(min_value=-10, max_value=10).filter(bool)
germs = st.dictionaries(exponents, rationals, min_size=1, max_size=6).map(
    CurveGerm.from_dict)


def test_parse_named_germs():
    f = parse_germ("y^2 - x^3")
    assert f.terms() == {(0, 2): Fraction(1), (3, 0): Fraction(-1)}
    assert f.multiplicity == 2
    assert f.degree() == 3
    g = parse_germ("x*y*(x + y)")
    assert g.terms() == {(2, 1): Fraction(1), (1, 2): Fraction(1)}
    assert g.multiplicity == 3


def test_parse_accepts_rational_coefficients():
    f = parse_germ("3/4*x*y + x^2")
    assert f.terms() == {(1, 1): Fraction(3, 4), (2, 0): Fraction(1)}


def test_parse_rejects_garbage():
    for bad in ("x+", "x**", "", "x + z", "sin(x)", "0.5*x"):
        with pytest.raises(GermParseError):
            parse_germ(bad)


@pytest.mark.parametrize("bad", ["x**2", "x^y", "x/y", "x/0", "x^-1", "0.5*x",
                                 "x^2^3", "x^(2)", "sqrt(4)*x", "x.diff(x)*y"])
def test_parse_rejects_text_outside_the_grammar(bad):
    with pytest.raises(GermParseError, match="cannot parse"):
        parse_germ(bad)


def test_parse_caps_the_degree():
    assert parse_germ(f"x^{MAX_GERM_DEGREE}").degree() == MAX_GERM_DEGREE
    assert parse_germ(f"(x + y)^{MAX_GERM_DEGREE}").multiplicity == MAX_GERM_DEGREE
    for bad in (f"x^{MAX_GERM_DEGREE + 1}", f"x^32*y^{MAX_GERM_DEGREE - 31}",
                "(x^8)^9", "(x + y)^3000"):
        with pytest.raises(GermParseError, match=f"cap of {MAX_GERM_DEGREE}"):
            parse_germ(bad)


def test_parse_rejects_non_germs():
    with pytest.raises(GermParseError):
        parse_germ("1 + x")        # does not vanish at the origin
    with pytest.raises(GermParseError):
        parse_germ("x - x")        # identically zero
    with pytest.raises(GermParseError):
        parse_germ("x^2 - x^2 + 0*y")


def test_from_dict_rejects_non_germs():
    with pytest.raises(InvalidGermError):
        CurveGerm.from_dict({})
    with pytest.raises(InvalidGermError):
        CurveGerm.from_dict({(0, 0): Fraction(1)})
    with pytest.raises(InvalidGermError):
        CurveGerm.from_dict({(1, 0): Fraction(0)})
    with pytest.raises(InvalidGermError, match="negative exponents"):
        CurveGerm.from_dict({(-1, 2): 1})


@pytest.mark.parametrize("build, message", [
    (lambda f: CurveGerm.from_dict({(0, 2): 0.1, (3, 0): -1}), "floating point"),
    (lambda f: CurveGerm.from_dict({(0, 2): "1e3", (3, 0): -1}), "poly.rational"),
    (lambda f: CurveGerm.from_dict({(0, 2): 1, (1, 1): 0.0, (3, 0): -1}),
     "floating point"),
    (lambda f: CurveGerm.from_dict({(0, 2): 1, (1.5, 0): -1}), "as an integer"),
    (lambda f: CurveGerm.from_dict({(0, 2): 1, (3.0, 0): -1}), "as an integer"),
    (lambda f: f.scale(0.5), "floating point"),
    (lambda f: f.compose_linear(0.5, 0, 0, 1), "floating point"),
    (lambda f: f.evaluate(0.1, 0), "floating point"),
], ids=["coefficient", "text-coefficient", "zero-coefficient", "exponent",
        "integral-float-exponent", "scale", "compose_linear", "evaluate"])
def test_germs_refuse_inexact_numbers(build, message):
    # the germs would hold 0.1's binary value, read 1e3 or x^1.5, or drop a
    # float zero unchecked
    with pytest.raises(TypeError, match=message):
        build(parse_germ("y^2 - x^3"))


def test_multiplicity_and_degree():
    assert parse_germ("x^2*y^3").multiplicity == 5
    assert parse_germ("x + y^4").multiplicity == 1
    assert parse_germ("x + y^4").degree() == 4


def test_evaluate():
    f = parse_germ("y^2 - x^3")
    assert f.evaluate(1, 1) == 0
    assert f.evaluate(Fraction(1, 2), 0) == Fraction(-1, 8)


def test_product_and_power():
    f = parse_germ("y - x")
    assert (f * f).terms() == parse_germ("(y - x)^2").terms()
    assert (f ** 3).terms() == parse_germ("(y - x)^3").terms()
    with pytest.raises(ValueError):
        f ** 0


def test_product_cancellation_raises_when_zero():
    f = parse_germ("x + y")
    g = parse_germ("x - y")
    assert (f * g).terms() == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    with pytest.raises(InvalidGermError):
        CurveGerm.from_dict({(1, 0): Fraction(1)}) * 0


def test_compose_linear():
    f = parse_germ("y^2 - x^3")
    g = f.compose_linear(0, 1, 1, 0)  # swap coordinates
    assert g.terms() == parse_germ("x^2 - y^3").terms()
    with pytest.raises(ValueError):
        f.compose_linear(1, 2, 2, 4)  # singular substitution


@given(germs, st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                        st.integers(-2, 2), st.integers(-2, 2)).filter(
                            lambda t: t[0] * t[3] - t[1] * t[2] != 0))
def test_compose_linear_preserves_multiplicity(f, mat):
    assert f.compose_linear(*mat).multiplicity == f.multiplicity


@given(germs)
def test_str_parse_round_trip(f):
    assert parse_germ(str(f)) == f


# Random text in the germ grammar, paired with a bound on the degree of every
# product and power the parser meets while reading it.
_leaves = st.one_of(st.sampled_from([("x", 1), ("y", 1)]),
                    st.integers(0, 12).map(lambda n: (str(n), 0)))


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-"]), inner).map(
            lambda t: (f"{t[0][0]} {t[1]} {t[2][0]}", max(t[0][1], t[2][1]))),
        st.tuples(inner, inner).map(
            lambda t: (f"{t[0][0]}*{t[1][0]}", t[0][1] + t[1][1])),
        st.tuples(inner, st.integers(1, 9)).map(
            lambda t: (f"{t[0][0]}/{t[1]}", t[0][1])),
        st.tuples(inner, st.integers(0, 3)).map(
            lambda t: (f"({t[0][0]})^{t[1]}", t[0][1] * t[1])),
        inner.map(lambda t: (f"-({t[0]})", t[1])),
    )


grammar_texts = st.recursive(_leaves, _extend, max_leaves=8)


def _sympy_terms(text):
    """Test-only oracle: sympy reads the same text as Python with ^ as **."""
    x, y = sympy.symbols("x y")
    expr = parse_expr(text, local_dict={"x": x, "y": y},
                      transformations=standard_transformations + (convert_xor,))
    poly = sympy.Poly(expr, x, y, domain="QQ")
    return {e: Fraction(c.p, c.q) for e, c in zip(poly.monoms(), poly.coeffs()) if c}


@given(grammar_texts)
def test_parse_agrees_with_sympy_on_the_grammar(text_and_bound):
    text, bound = text_and_bound
    assume(bound <= 30)
    expected = _sympy_terms(text)
    if expected and (0, 0) not in expected:
        assert parse_germ(text).terms() == expected
    else:
        with pytest.raises(GermParseError):
            parse_germ(text)


@given(germs)
def test_sympy_round_trip(f):
    assert qq_poly(f.terms()).as_dict() == f.terms()


@given(germs, germs)
def test_multiplicity_additive_over_products(f, g):
    assert (f * g).multiplicity == f.multiplicity + g.multiplicity


def test_canonical_ordering_makes_equal_germs_identical():
    a = CurveGerm.from_dict({(0, 2): Fraction(1), (3, 0): Fraction(-1)})
    b = parse_germ("-x^3 + y^2")
    assert a == b and hash(a) == hash(b)
