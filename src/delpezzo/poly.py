"""Sparse polynomials over Q, and the one parser for polynomial text.

A polynomial in n variables is a dict {exponent n-tuple: nonzero Fraction};
the helpers never mutate their arguments.  `parse` reads the grammar

    expr  := term (('+' | '-') term)*      term := unary (('*' | '/') unary)*
    unary := ('+' | '-') unary | atom ['^' INTEGER]
    atom  := INTEGER | NAME | '(' expr ')'

where INTEGER is a run of ASCII digits, `/` divides by a nonzero constant
only and `^` takes a non-negative integer literal only.  Nothing in the text
is evaluated as code.  Every product and power is checked against the
caller's degree cap before it is computed.  Every product is checked against
MAX_COEFF_BITS before it is computed.  A power of several terms is a loop of
products, each step checked once computed; a power of one term is one `**`,
refused beforehand when a lower bound on its bits passes the cap and checked
once computed otherwise, so the same texts pass as under the loop.  Every
product, and each of the k - 1 steps of a k-th power, is also charged to the
parse's budget of MAX_TERM_PRODUCTS.  `rational` reads a single constant of
the grammar; every number the toolkit takes as text goes through it, and
every other rational through `exact`, which refuses floats and text.
`divide` is exact division, and `expr_text` prints a polynomial as sympy
prints it, for the labels and certificates that `lct` reports.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import prod
from typing import Mapping, Optional, Sequence

Poly = dict[tuple[int, ...], Fraction]

#: bit-length cap on coefficients made by a product or power; without it a
#: tower such as ((2^64)^64)^64 runs the interpreter out of memory
MAX_COEFF_BITS = 4096
#: cap on the term products (len(p) * len(q) per product) one parse may spend;
#: (1+x+y)^24 spends about 7,800, and each costs a few microseconds
MAX_TERM_PRODUCTS = 10_000

_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])|(\S))")


class PolyParseError(ValueError):
    """Text outside the grammar, or a product or power over budget."""


def add(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c}


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out[e] + ca * cb if e in out else ca * cb
    return {e: c for e, c in out.items() if c}


def power(p: Poly, k: int) -> Poly:
    """p^k for an integer k >= 1."""
    return reduce(mul, [p] * k)


def substitute(p: Poly, images: Sequence[Poly]) -> Poly:
    """p with variable i replaced by the nonzero polynomial images[i].

    Coefficients may come from any exact field whose zero is falsy.
    """
    zero = (0,) * len(next(iter(images[0])))
    powers = [[None, image] for image in images]    # powers[i][e] = images[i]^e
    terms = []
    for expo, c in p.items():
        term = {zero: c}
        for i, e in enumerate(expo):
            if e:
                while len(powers[i]) <= e:
                    powers[i].append(mul(powers[i][-1], images[i]))
                term = mul(term, powers[i][e])
        terms.append(term)
    return add(*terms)


def evaluate(p: Poly, point: Sequence[Fraction]) -> Fraction:
    return sum((c * prod(v ** e for v, e in zip(point, expo))
                for expo, c in p.items()), Fraction(0))


def diff(p: Poly, k: int) -> Poly:
    """The partial derivative of p by its k-th variable."""
    return {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k] for e, c in p.items() if e[k]}


def divide(f: Poly, g: Poly) -> Optional[Poly]:
    """f / g when the nonzero g divides f, else None.

    Each step divides the lex-leading term of the rest by g's.  When g
    divides f, the quotient's degree in each variable is f's less g's, so a
    step outside those degrees, or a leading term that g's does not divide,
    proves that g does not; the steps are bounded by the same degrees.
    """
    lead = max(g)
    top = [max(e[k] for e in f) - lead[k] for k in range(len(lead))]
    rest, quotient = dict(f), {}
    while rest:
        e = max(rest)
        q = tuple(a - b for a, b in zip(e, lead))
        if not all(0 <= a <= t for a, t in zip(q, top)):
            return None
        c = quotient[q] = Fraction(rest[e], g[lead])
        for eg, cg in g.items():
            m = tuple(a + b for a, b in zip(q, eg))
            r = rest.get(m, 0) - c * cg
            if r:
                rest[m] = r
            else:
                del rest[m]
    return quotient


def expr_text(p: Poly, names: Sequence[str]) -> str:
    """p as sympy prints its expression, str(Poly(p).as_expr()): the terms in
    lex order, highest first, each c*m, m/d or c*m/d with ** for powers,
    joined by their signs; 0 for the zero polynomial.  Like sympy, it puts
    a positive constant c first in c - a*v**k, a > 0, for one variable v."""
    order = sorted(p, reverse=True)
    if len(order) == 2 and not any(order[1]) and p[order[1]] > 0 \
            and p[order[0]] < 0 and sum(map(bool, order[0])) == 1:
        order.reverse()
    out = []
    for e in order:
        c = p[e]
        n, d = abs(c.numerator), c.denominator
        m = "*".join(name if k == 1 else f"{name}**{k}"
                     for name, k in zip(names, e) if k)
        text = (m if n == 1 else f"{n}*{m}") if m else str(n)
        if d != 1:
            text += f"/{d}"
        out.append(("- " if c < 0 else "+ ") + text)
    if not out:
        return "0"
    text = " ".join(out)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def monomial(expo: Sequence[int], names: Sequence[str]) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, expo) if e) or "1"


def to_text(terms) -> str:
    """(monomial, coefficient) pairs, in the order given, as text `parse` reads."""
    return " + ".join(m if c == 1 else f"-{m}" if c == -1 else f"{c}*{m}"
                      for m, c in terms).replace("+ -", "- ")


def parse(text: str, names: Sequence[str], max_degree: int,
          constants: Optional[Mapping[str, Fraction]] = None) -> Poly:
    """Parse text into a polynomial in `names`, in that variable order.

    A name in `constants` stands for its value.  Raises PolyParseError for
    text outside the grammar, an unknown name, a division by zero or by a
    non-constant, a product or power over the degree or bit budget, and a
    parse that needs more than MAX_TERM_PRODUCTS term products.
    """
    p = _parse(_lex(text), names, max_degree, constants)
    return {e: c if type(c) is Fraction else Fraction(c) for e, c in p.items()}


def _lex(text: str) -> list:
    """The tokens of text; raises PolyParseError at the first one outside the grammar."""
    tokens: list = []
    for number, word, other in _TOKEN_RE.findall(text):
        if number:
            try:
                tokens.append(int(number))
            except ValueError:       # over the interpreter's digit limit
                raise PolyParseError("integer literal too long") from None
        elif word and word != "**":
            tokens.append(word)
        else:
            raise PolyParseError(
                f"unexpected {other or word!r}" + ("; write powers with '^'" if word else ""))
    return tokens


def _parse(tokens: list, names: Sequence[str], max_degree: int,
           constants: Optional[Mapping[str, Fraction]] = None) -> Poly:
    """`parse` on `_lex`'s tokens, with int coefficients where no `/` made a Fraction.

    Inside, a monomial is one (exponent, coefficient) pair and any other
    polynomial a dict, so a run of monomial factors such as 3/4*x^2*y^3
    needs no `mul`; one-term values are charged the budgets of the one-term
    dicts they stand for.
    """
    tokens = [None] + tokens[::-1]   # popped from the end; None marks the end
    constants = constants or {}
    zero, units = _units(tuple(names))
    work = 0

    def take():
        if tokens[-1] is None:
            raise PolyParseError("unexpected end of input")
        return tokens.pop()

    def check(degree, bits):
        if degree > max_degree:
            raise PolyParseError(f"degree {degree} exceeds the cap of {max_degree}")
        if bits > MAX_COEFF_BITS:
            raise PolyParseError(f"coefficients exceed the cap of {MAX_COEFF_BITS} bits")

    def charge(products):
        nonlocal work
        work += products
        if work > MAX_TERM_PRODUCTS:
            raise PolyParseError(f"more than {MAX_TERM_PRODUCTS} term products")

    def product(p, q):
        charge(len(p) * len(q))
        return mul(p, q)

    def capped(p):
        check(0, _bits(p))
        return p

    def expr():
        parts = [term()]
        while tokens[-1] in ("+", "-"):
            parts.append(term())     # unary() reads the sign
        if len(parts) == 1:
            return parts[0]
        p = add(*map(_poly, parts))
        return next(iter(p.items())) if len(p) == 1 else p

    def term():
        p = unary()
        while tokens[-1] in ("*", "/"):
            op, q = take(), unary()
            if op == "/":
                if type(q) is not tuple or q[0] != zero:
                    raise PolyParseError("division by a non-constant" if q
                                         else "division by zero")
                p = (p[0], Fraction(p[1], q[1])) if type(p) is tuple else \
                    {e: Fraction(c, q[1]) for e, c in p.items()}
            elif type(p) is tuple and type(q) is tuple:
                check(sum(p[0]) + sum(q[0]), _bit_length(p[1]) + _bit_length(q[1]))
                charge(1)
                p = tuple(map(operator.add, p[0], q[0])), p[1] * q[1]
            else:
                p, q = _poly(p), _poly(q)
                check(_degree(p) + _degree(q), _bits(p) + _bits(q))
                p = product(p, q)
        return p

    def unary():
        if tokens[-1] in ("+", "-"):
            sign, p = take(), unary()
            if sign == "+":
                return p
            return (p[0], -p[1]) if type(p) is tuple else {e: -c for e, c in p.items()}
        p = atom()
        if tokens[-1] != "^":
            return p
        take()
        k = take()
        if not isinstance(k, int):
            raise PolyParseError(
                f"exponent must be a non-negative integer literal, got {k!r}")
        if not k:
            return zero, 1
        if type(p) is dict:
            # each step is checked once computed, so none outgrows the bit cap
            # by more than p's own bits; a k over the cap (0^5000) is refused
            # at once
            check(_degree(p) * k, k if k > MAX_COEFF_BITS else 0)
            return reduce(lambda a, b: capped(product(a, b)), [p] * k)
        expo, c = p
        check(sum(expo) * k, k if k > MAX_COEFF_BITS else 0)
        # one `**` charged the k - 1 steps of the loop above.  Those steps
        # stop at the budget's last power, c^last, and since |numerator| and
        # denominator only grow, the bit cap fails at a step before it iff
        # it fails at c^last; at least last*(bits(c) - 1) + 1 bits, so that
        # bound refuses before c^last is computed
        last = min(k, MAX_TERM_PRODUCTS - work + 1)
        if last > 1:
            check(0, last * (_bit_length(c) - 1) + 1)
            c **= last
            check(0, _bit_length(c))
        charge(k - 1)
        return tuple(i * k for i in expo), c

    def atom():
        tok = take()
        if tok == "(":
            p = expr()
            if tokens.pop() != ")":
                raise PolyParseError("missing ')'")
            return p
        if isinstance(tok, int):
            return (zero, tok) if tok else {}
        if tok in constants:
            c = exact(constants[tok])
            return (zero, c.numerator if c.denominator == 1 else c) if c else {}
        if tok in units:
            return units[tok], 1
        raise PolyParseError(f"unknown name {tok!r}" if tok[0].isalpha() or tok[0] == "_"
                             else f"unexpected {tok!r}")

    try:
        p = expr()
    except RecursionError:
        raise PolyParseError("expression nested too deeply") from None
    if tokens[-1] is not None:
        raise PolyParseError(f"unexpected {tokens[-1]!r}")
    return _poly(p)


def exact(x) -> Fraction:
    """x as a Fraction; refuses floats, and text, which `rational` reads."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floating point is not allowed in exact arithmetic")
    if isinstance(x, str):
        raise TypeError(f"text {x!r} is not a number here; "
                        f"read it with poly.rational")
    return Fraction(x)


def rational(text: str) -> Fraction:
    """The constant `text` denotes in `parse`'s grammar, e.g. '-3', '1/2'.

    Decimals and exponents are outside the grammar; raises PolyParseError
    like `parse`, a division by zero included.
    """
    return parse(text, (), 0).get((), Fraction(0))


@lru_cache(maxsize=64)
def _units(names: tuple[str, ...]) -> tuple[tuple[int, ...], dict[str, tuple[int, ...]]]:
    """The zero exponent over `names` and each name's unit exponent."""
    return (0,) * len(names), {name: tuple(int(j == i) for j in range(len(names)))
                               for i, name in enumerate(names)}


def _poly(p) -> Poly:
    """A value of `_parse` as a dict: an (exponent, coefficient) pair becomes one term."""
    return {p[0]: p[1]} if type(p) is tuple else p


def _degree(p: Poly) -> int:
    return max((sum(e) for e in p), default=0)


def _bits(p: Poly) -> int:
    return max(map(_bit_length, p.values()), default=0)


def _bit_length(c) -> int:
    """The larger bit length of an int's or Fraction's numerator and denominator."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())
