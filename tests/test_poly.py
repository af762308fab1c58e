"""The shared polynomial core: helpers, budgets, no code evaluation, and the
printer and exact division against sympy."""

import pathlib
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import delpezzo
from delpezzo import poly
from delpezzo.constraints import (NODAL_SUBCASES, encode_case2, encode_case3, encode_nodal,
                                  parse_system)
from delpezzo.germs import parse_germ
from germgen import random_germ
import poly_oracle
import resolution_corpus

SRC = pathlib.Path(delpezzo.__file__).parent

exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exponents, st.fractions(-5, 5).filter(bool), max_size=5)


def test_no_source_file_evaluates_text():
    # a method such as Poly.eval is fine; a builtin eval( or exec( call is not
    pattern = re.compile(r"parse_expr|sympify|(?<![\w.])(eval|exec)\s*\(")
    offenders = [path.name for path in sorted(SRC.glob("*.py"))
                 if pattern.search(path.read_text(encoding="utf-8"))]
    assert offenders == []


@given(polys, st.integers(1, 5))
def test_power_is_repeated_product(p, k):
    expected = p
    for _ in range(k - 1):
        expected = poly.mul(expected, p)
    assert poly.power(p, k) == expected


@given(polys, polys)
def test_substitute_matches_products_of_images(p, q):
    # p(x + y, 2*x), checked against the same expansion by mul and add
    images = [{(1, 0): Fraction(1), (0, 1): Fraction(1)}, {(1, 0): Fraction(2)}]
    one = {(0, 0): Fraction(1)}
    expected = poly.add(*(
        poly.mul({(0, 0): c}, poly.mul(poly.power(images[0], i) if i else one,
                                       poly.power(images[1], j) if j else one))
        for (i, j), c in p.items()))
    assert poly.substitute(p, images) == expected
    assert poly.substitute(poly.add(p, q), images) == \
        poly.add(poly.substitute(p, images), poly.substitute(q, images))


def test_parse_honours_names_constants_and_precedence():
    assert poly.parse("-x^2 + 2*-y/4 - (1)", ("x", "y"), 2) == {
        (2, 0): -1, (0, 1): Fraction(-1, 2), (0, 0): -1}
    assert poly.parse("k*a - a", ("a",), 1, {"k": 3}) == {(1,): 2}
    assert poly.parse("0^0 + x - x", ("x",), 1) == {(0,): 1}


@pytest.mark.parametrize("text, value", [
    ("3", 3), ("-1/2", Fraction(-1, 2)), ("+4/6", Fraction(2, 3)),
    ("2^10", 1024), ("0", 0), (" 1 - 1/3 ", Fraction(2, 3)),
])
def test_rational_reads_a_constant_of_the_grammar(text, value):
    assert poly.rational(text) == value


@pytest.mark.parametrize("text, message", [
    ("0.5", "unexpected '.'"),
    ("1e200000", "unexpected 'e200000'"),
    ("1/0", "division by zero"),
    ("x", "unknown name 'x'"),
    ("", "end of input"),
    ("2^4096", "cap of 4096 bits"),      # 4,097 bits
    ("3^2600", "cap of 4096 bits"),      # 4,121 bits
])
def test_rational_refuses_decimals_exponents_and_names(text, message):
    with pytest.raises(poly.PolyParseError, match=re.escape(message)):
        poly.rational(text)


FLOAT_REFUSED = "floating point is not allowed in exact arithmetic"


@pytest.mark.parametrize("x, message", [
    pytest.param(0.5, FLOAT_REFUSED, id="0.5-floating point"),
    pytest.param(0.0, FLOAT_REFUSED, id="0.0-floating point"),
    pytest.param(float("inf"), FLOAT_REFUSED, id="inf-floating point"),
    pytest.param("1/2", "text '1/2' is not a number here; read it with poly.rational",
                 id="1/2-read it with poly.rational"),
    pytest.param("1e3", "text '1e3' is not a number here; read it with poly.rational",
                 id="1e3-read it with poly.rational"),
])
def test_exact_takes_rationals_and_refuses_floats_and_text(x, message):
    for good in (3, True, Fraction(-2, 3)):
        assert poly.exact(good) == good and type(poly.exact(good)) is Fraction
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        poly.exact(x)


def test_exact_returns_a_fraction_unchanged():
    # every parsed coefficient is a Fraction already; germs and constraint
    # rows pass each one through exact again, which must not rebuild it
    q = Fraction(-2, 3)
    assert poly.exact(q) is q
    coeffs = poly.parse("3/4*x^2 - y/2", ("x", "y"), 64)
    germ = delpezzo.germs.CurveGerm(tuple(coeffs.items()))
    assert all(c is coeffs[e] for e, c in germ.coeffs)
    row = delpezzo.constraints.le({"x": q}, q)
    assert row.coeffs["x"] is q and row.rhs is q


def test_a_power_is_charged_the_bits_of_its_result():
    # one 3,001-bit number written as a power and as a product of powers
    assert poly.rational("2^3000") == poly.rational("(2^1500)*(2^1500)") == 2 ** 3000
    assert poly.rational("2^4095") == 2 ** 4095        # 4,096 bits, at the cap


@pytest.mark.parametrize("text, message", [
    ("((((2^64)^64)^64)^64)*x", "cap of 4096 bits"),
    ("(" * 1000 + "x" + ")" * 1000, "nested too deeply"),
    ("9" * 5000 + "*x", "too long"),
    ("x y", "unexpected 'y'"),
    ("(x", "missing ')'"),
    ("x +", "end of input"),
    ("x²", "unexpected '²'"),
    ("x**2", "write powers with '^'"),
    ("0^5000", "cap of 4096 bits"),
    ("x + z", "unknown name 'z'"),
    # the edges of each budget on a run of monomial factors
    ("2^4096*x", "cap of 4096 bits"),        # the power itself has 4,097 bits
    ("2^4095*x", "cap of 4096 bits"),        # 4,096 + 1 bits charged to the product
    ("x*(3/2)^2584", "cap of 4096 bits"),    # 4,096 bits, plus 1 for x's coefficient
    ("x*(3/2)^2585", "cap of 4096 bits"),    # the power itself has 4,098 bits
    ("x^32*y^33", "degree 65 exceeds the cap of 64"),
    ("1^4096 + 1^4096 + 1^1812", "more than 10000 term products"),
    # both budgets trip inside the last power: the step loop reached 3^1811,
    # which has 2,871 bits, and met the term-product budget at its next step ...
    ("1^4096 + 1^4096 + 3^4000", "more than 10000 term products"),
    # ... and the bit cap at 3^2585, before the budget's 3^3907
    ("1^4096 + 1^2000 + 3^4000", "cap of 4096 bits"),
])
def test_parse_refuses_with_one_error_type(text, message):
    for parser in (poly.parse, poly_oracle.parse):
        with pytest.raises(poly.PolyParseError, match=re.escape(message)):
            parser(text, ("x", "y"), 64)


@pytest.mark.parametrize("text", ["(1+x+y)^32*(1+x+y)^32*x", "(1+x+y)^64*x",
                                  "(x+y)^64 + (x+y)^64 + (x+y)^64"])
def test_term_product_budget_fails_fast(text):
    # each spends seconds multiplying before any degree check would fire
    start = time.perf_counter()
    with pytest.raises(poly.PolyParseError, match="more than 10000 term products"):
        poly.parse(text, ("x", "y"), 64)
    assert time.perf_counter() - start < 0.5


def test_bit_cap_stops_a_power_at_the_step_that_exceeds_it():
    # the end coefficients are 1; the middle one squares past the cap at the
    # first step, long before the 32nd power would finish
    start = time.perf_counter()
    with pytest.raises(poly.PolyParseError, match="cap of 4096 bits"):
        poly.parse("(x^2 + (2^4000/3^2500)*x*y + y^2)^32", ("x", "y"), 64)
    assert time.perf_counter() - start < 0.5


def test_a_flat_power_of_a_constant_is_refused_before_it_is_computed():
    start = time.perf_counter()
    with pytest.raises(poly.PolyParseError, match="cap of 4096 bits"):
        poly.parse("x - k^99999999*x", ("x",), 64, {"k": Fraction(3, 2)})
    assert time.perf_counter() - start < 0.5


def test_term_product_budget_counts_each_step_of_a_power():
    assert len(poly.parse("(1+x+y)^24", ("x", "y"), 64)) == 325   # 7,797 products
    with pytest.raises(poly.PolyParseError, match="term products"):
        poly.parse("(1+x+y)^30", ("x", "y"), 64)              # 14,877


def test_corpus_germs_parse_within_budget():
    rng = random.Random(20260825)
    for _ in range(200):
        f = random_germ(rng)
        assert parse_germ(str(f)) == f
        assert parse_germ(f"({f})^3") == f ** 3


# -- parse against the recursive oracle ---------------------------------------

def _grammar_text(rng, depth=0):
    """A seeded string of the grammar, now and then with a bad token."""
    def atom():
        r = rng.random()
        if r < 0.2 and depth < 2:
            return f"({_grammar_text(rng, depth + 1)})"
        if r < 0.55:
            return rng.choice(["x", "y", "x", "y", "k"])
        if r < 0.6:
            return rng.choice(["0", "1", "2" * rng.randint(1, 40)])
        return str(rng.randint(1, 12))

    def power():
        text = atom()
        r = rng.random()
        if r < 0.55:
            return text
        if r < 0.97:
            return f"{text}^{rng.randint(0, 6)}"
        # past the degree cap on names, past the bit cap on constants
        return f"{text}^{rng.choice([33, 65, 1300, 2600, 4096, 4097])}"

    def unary():
        return rng.choice(["", "", "", "-", "+", "--"]) + power()

    def term():
        text = unary()
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            if rng.random() < 0.25:     # mostly by a constant, as text does
                text += "/" + (unary() if rng.random() < 0.2 else str(rng.randint(1, 9)))
            else:
                text += "*" + unary()
        return text

    text = term()
    for _ in range(rng.choice([0, 1, 2])):
        text += rng.choice([" + ", " - "]) + term()
    if depth == 0 and rng.random() < 0.08:
        cut = rng.randint(0, len(text))
        text = text[:cut] + rng.choice(["**", "0.5", "²", "<=", ")", "(", "^x", "^"]) \
            + text[cut:]
    return text


def _budget_text(rng):
    """A text spending the degree, bit or term-product budget near its edge."""
    n = rng.randint(0, 40)
    return rng.choice([
        f"2^{4080 + n}*x", f"x*(3/2)^{2570 + n}", f"(2^{2030 + n})*(2^{2030 + n})*y",
        f"x^{20 + n}*y^{20 + n}", f"(x*y)^{n}", f"3/4*x^2*y^{50 + n}",
        f"1^4096 + 1^4096 + 1^{1790 + n}", f"1^4096 + 1^{1980 + n} + 3^4000",
        f"1^4096 + 1^4096 + 5^{1790 + n}", f"(1+x+y)^{20 + n // 4}",
        f"(1+x+y)^24 + 1^{2190 + n}", f"(1+x+y)^24*2^{1000 + 10 * n}",
        f"x*(x + y)^{n}*(2^{100 * n}/3)^{n}", f"(2^4095/(1/3))^{1 + n % 3}*x^0",
    ])


def _flat_text(rng):
    """A seeded flat sum of 1-20 terms, as the one-pass reader takes them,
    with whitespace around every operator; now and then a zero literal, an
    exponent past a cap, a division by zero or an ending that leaves the
    text to the recursive parser."""
    def gap():
        return rng.choice(["", "", "", " ", "  ", "\t"])

    def factor():
        name = rng.choice("xyxyxyxk")
        r = rng.random()
        if r < 0.4:
            return name
        k = rng.choice([65, 4097]) if r < 0.41 else rng.choice([0, 1, 2, 3, 5])
        return f"{name}{gap()}^{gap()}{k}"

    def term():
        factors = [factor() for _ in range(rng.choice([0, 1, 1, 2, 3]))]
        r = rng.random()
        coeff = rng.choice(["0", "00", "1", "2", "6", "12", "345"]) if r < 0.6 or not factors \
            else ""
        if coeff and r < 0.3:
            coeff += f"{gap()}/{gap()}" + ("0" if r < 0.01 else rng.choice("12367"))
        return f"{gap()}*{gap()}".join(filter(None, [coeff] + factors))

    text = rng.choice(["", "", "", "-", "+", "--", "+-"]) + gap() + term()
    for _ in range(rng.randint(0, 19)):
        sign = rng.choice(["+", "-", "+", "-", "+-", "--", "- -", "-+"])
        text += f"{gap()}{sign}{gap()}{term()}"
    r = rng.random()
    if r < 0.1:
        text += rng.choice(["^3", "^y", " +", " -", "*", "/", "^"])
    elif r < 0.12:
        text = "2^3*" + text
    return text + gap()


#: texts at the one-pass reader's edges, each read under every choice of
#: names and constants below; k is both a variable and a constant there, and
#: the constant wins
FLAT_EDGES = ["0", " 0 ", "-0", "00", "0/5", "6/6*k", "k^2*x - k", "x - - y", "+-x + -- y",
              " + x", "x^0", "x^65", "x^4097", "k^4097", "0*x^65", "3/0*x", "1/0", "x^2^3",
              "x^y", "2^3*x", "x +", "x*", "3/", "2x", "x y", "x**2", "1e5*x", "k*0.5",
              # 4,095 and 4,096 bits, times x (1 bit) and alone; over the digit limit
              f"{2 ** 4094}*x", f"{2 ** 4095}*x", f"x - {2 ** 4095}", "1" * 5000]


def _outcome(parser, text, names, max_degree, constants):
    try:
        return parser(text, names, max_degree, constants)
    except poly.PolyParseError as exc:
        return f"PolyParseError: {exc}"


NAMES = [(("x", "y"), 64), (("x", "y"), 3), (("y", "x"), 64), (("x",), 64),
         (("x", "y", "k"), 64)]
CONSTANTS = [None, {"k": Fraction(3, 2)}, {"k": 4}]


def test_parse_agrees_with_the_recursive_oracle():
    rng = random.Random(20261019)
    texts = [_grammar_text(rng) for _ in range(2000)] + [_budget_text(rng) for _ in range(100)]
    cases = [(text, *rng.choice(NAMES), rng.choice(CONSTANTS)) for text in texts]
    # k is a name in most flat sums, often both a variable and a constant
    flat = [(_flat_text(rng), *rng.choice([(("x", "y", "k"), 64), (("y", "x", "k"), 64),
                                           (("x", "y"), 64)]), rng.choice(CONSTANTS))
            for _ in range(3000)]
    edges = [(text, names, max_degree, constants) for text in FLAT_EDGES
             for names, max_degree in NAMES for constants in CONSTANTS]
    refused = 0
    for case in cases + flat + edges:
        got = _outcome(poly.parse, *case)
        expected = _outcome(poly_oracle.parse, *case)
        # the same dict, its order included, or the same message
        assert got == expected and list(got) == list(expected), case
        if isinstance(got, str):
            refused += 1
        else:
            assert all(type(c) is Fraction for c in got.values()), case
    # both outcomes are well represented, and most flat sums are read in one pass
    assert min(refused, len(cases + flat + edges) - refused) > 500
    assert sum(poly._flat(*case) is not None for case in flat) > len(flat) / 2


def test_workload_texts_are_read_in_one_pass(monkeypatch):
    # the germ texts of the lct commands and the constraint sides of the case
    # systems are flat sums; none of them reaches the recursive parser
    germs = resolution_corpus.corpus()

    def refuse(*args):
        raise AssertionError("read by the recursive parser")

    monkeypatch.setattr(poly, "_parse", refuse)
    for f in germs:
        assert parse_germ(str(f)) == f
    for m in range(2, 31):
        systems = [encode_case2(m), encode_case3(m)] + \
            [encode_nodal(m, subcase) for subcase in (None, *NODAL_SUBCASES)]
        for system in systems:
            text = "\n".join(map(str, system.constraints))
            assert [(con.coeffs, con.rel, con.rhs) for con in parse_system(text).constraints] \
                == [(con.coeffs, con.rel, con.rhs) for con in system.constraints], text
    assert parse_system("0 <= 1\n").constraints[0].coeffs == {}
    assert poly.rational(" -3/4 ") == Fraction(-3, 4)


def test_monomial_path_reaches_each_budget_exactly():
    assert poly.parse("2^4094*x", ("x", "y"), 64) == {(1, 0): 2 ** 4094}
    assert poly.parse("x*(3/2)^2583", ("x", "y"), 64) == {(1, 0): Fraction(3, 2) ** 2583}
    assert poly.parse("x^32*y^32", ("x", "y"), 64) == {(32, 32): 1}
    # 4,095 + 4,095 + 1,810 = 10,000 term products, one power step each
    assert poly.parse("1^4096 + 1^4096 + 1^1811", ("x", "y"), 64) == {(0, 0): 3}


# -- the printer and exact division, against sympy --------------------------------

def _rational_poly(rng) -> dict:
    """A rational polynomial in x, y: unit, negative and fractional
    coefficients; a tenth are constants, a third have no constant term, and
    a tenth are c - a*v^k, which sympy prints constant first."""
    shape = rng.random()
    coeff = lambda: Fraction(rng.choice((1, -1, 2, -3, 5, -12, 100)),
                             rng.choice((1, 1, 1, 2, 3, 7)))
    if shape < 0.1:
        return {(0, 0): coeff()}
    if shape < 0.2:
        k = rng.randint(1, 4)
        return {(0, 0): coeff(), rng.choice(((k, 0), (0, k))): coeff()}
    terms = {(rng.randint(0, 4), rng.randint(0, 4)): coeff()
             for _ in range(rng.randint(1, 6))}
    if shape < 0.55:
        terms.pop((0, 0), None)
    return terms or {(1, 0): coeff()}


def _sympy(p: dict):
    from sympy import QQ, Poly, symbols
    return Poly.from_dict({e: QQ(c.numerator, c.denominator) for e, c in p.items()},
                          *symbols("x y"), domain=QQ)


def test_expr_text_prints_as_sympy_does():
    rng = random.Random(20261020)
    firsts = set()
    for _ in range(1000):
        p = _rational_poly(rng)
        text = poly.expr_text(p, "xy")
        assert text == str(_sympy(p).as_expr()), p
        firsts.add(text[0].isdigit())
    assert firsts == {True, False}
    assert poly.expr_text({}, "xy") == "0"


def test_divide_agrees_with_sympy():
    rng = random.Random(20261021)
    exact = 0
    for _ in range(1000):
        f, g = _rational_poly(rng), _rational_poly(rng)
        assert poly.divide(poly.mul(f, g), g) == f
        quotient, remainder = _sympy(f).div(_sympy(g))
        got = poly.divide(f, g)
        if remainder.is_zero:
            exact += 1
            assert got == {e: Fraction(int(c.numerator), int(c.denominator))
                           for e, c in quotient.as_dict().items()}
        else:
            assert got is None, (f, g)
    # g is a constant, or divides f by chance
    assert exact == 98
